"""Finitely presented groups, matrix representations, Fox calculus.

Words are freely reduced tuples of signed 1-based generator indices
(+i for x_i, -i for its inverse), parsed from whitespace-separated tokens
like ``"a b a^-1 b^-1"``.

For a representation rho the presentation 2-complex gives a three-term
cochain complex with coefficients in V:

    D0 : V -> V^n,      v |-> ((rho(x_i) - 1) v)_i
    D1 : V^n -> V^m,    (v_i) |-> (sum_i  rho(dr_j/dx_i) v_i)_j

where dr/dx is the Fox derivative (d(uw)/dx = du/dx + u dw/dx, dx/dx = 1,
d(x^-1)/dx = -x^-1) evaluated through rho.  ``fox_derivative`` gives every
dr/dx_i of a relator from one walk of its running prefix, one matrix product
per letter.  The fundamental identity
sum_i dr/dx_i (x_i - 1) = r - 1 makes D1 D0 = 0 whenever rho kills the
relators.  Twisted Betti numbers are b0 = dim ker D0,
b1 = dim ker D1 - rank D0, b2 = m dim V - rank D1.

Jump-locus membership at degree i, depth r is b^i >= r, read off
``twisted_cohomology``.  In degree 2 that is the cohomology of the
presentation complex, which is the group's only when the complex is
aspherical, as it is for free and surface groups.  Their builders record
the family in ``family``, ``("free", n)`` or ``("surface", g)``; decoded
groups carry ``family = None``.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter
from reprlib import repr as _brief  # a bounded repr for error messages

from .liealg import (build_sol2, rep_defining, sl_matrices,
                     traceless_coordinates)
from .linalg import Matrix, det, invert, rank, vstack_all
from .scalars import clip, same_field


class GroupError(ValueError):
    pass


def parse_word(generators, text):
    """Parse "a b a^-1" into a freely reduced signed-index tuple."""
    index = {g: i + 1 for i, g in enumerate(generators)}
    out = []
    for token in text.split():
        if token.endswith("^-1"):
            name, sign = token[:-3], -1
        else:
            name, sign = token, 1
        if name not in index:
            raise GroupError(f"unknown generator {_brief(name)}")
        out.append(sign * index[name])
    return free_reduce(out)


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class FpGroup:
    family = None

    def __init__(self, generators, relators, name=""):
        self.generators = list(generators)
        if len(set(self.generators)) != len(self.generators):
            raise GroupError("duplicate generator names")
        self.relators = []
        for r in relators:
            if isinstance(r, str):
                r = parse_word(self.generators, r)
            else:
                r = free_reduce(tuple(r))
            n = len(self.generators)
            if any(not 1 <= abs(x) <= n for x in r):
                raise GroupError("relator letter out of range")
            self.relators.append(r)
        self.name = name or "group"

    def __repr__(self):
        return (f"FpGroup({self.name}, {len(self.generators)} gens, "
                f"{len(self.relators)} rels)")


def free_group(n):
    if n < 1:
        raise GroupError("free group needs n >= 1")
    group = FpGroup([f"x{i}" for i in range(1, n + 1)], [], name=f"free_{n}")
    group.family = ("free", n)
    return group


def surface_group(g):
    """Fundamental group of the closed orientable genus-g surface."""
    if g < 1:
        raise GroupError("surface group needs genus >= 1")
    gens = []
    for i in range(1, g + 1):
        gens += [f"a{i}", f"b{i}"]
    relator = " ".join(
        f"a{i} b{i} a{i}^-1 b{i}^-1" for i in range(1, g + 1))
    group = FpGroup(gens, [relator], name=f"surface_{g}")
    group.family = ("surface", g)
    return group


TARGETS = ("GL", "SL", "Borel")


class GroupRep:
    """One invertible matrix per generator; target constrains the image.

    GL: invertible.  SL: determinant one.  Borel: upper-triangular 2x2 with
    determinant one.
    """

    def __init__(self, group, target, matrices, name=""):
        if target not in TARGETS:
            raise GroupError(f"unknown target {_brief(target)}")
        if len(matrices) != len(group.generators):
            raise GroupError(f"{len(group.generators)} generators but "
                             f"{len(matrices)} matrices")
        self.group = group
        self.target = target
        self.matrices = list(matrices)
        self.name = name or f"rep_{target}"
        shapes = {m.shape for m in self.matrices}
        if len(shapes) > 1:
            raise GroupError("inconsistent matrix sizes")
        if not self.matrices or not self.matrices[0].nrows:
            raise GroupError("need at least one matrix of at least one row")
        self.field = self.matrices[0].field
        for m in self.matrices:
            same_field(self.field, m.field)
        (nr, nc), = shapes
        if nr != nc:
            raise GroupError("representation matrices must be square")
        self.dim = nr
        f = self.field
        self.inverses = []
        for gen, m in zip(group.generators, self.matrices):
            inv = invert(m)
            if inv is None:
                raise GroupError(f"matrix for {clip(gen)} is singular")
            self.inverses.append(inv)
            if target in ("SL", "Borel"):
                d = det(m)
                if not f.is_zero(f.sub(d, f.one)):
                    raise GroupError(f"matrix for {clip(gen)} has det "
                                     f"{clip(d)}, not 1")
            if target == "Borel":
                if self.dim != 2:
                    raise GroupError("Borel target means 2x2 matrices")
                if not f.is_zero(m[1, 0]):
                    raise GroupError(
                        f"matrix for {clip(gen)} is not upper triangular")

    def evaluate(self, word):
        """rho(word) for a signed-index tuple."""
        acc = Matrix.identity(self.field, self.dim)
        for letter in word:
            acc = acc @ (self.matrices[letter - 1] if letter > 0
                         else self.inverses[-letter - 1])
        return acc

    def __repr__(self):
        return (f"GroupRep({self.group.name} -> {self.target}({self.dim}), "
                f"{self.name})")


def rep_check(rep):
    """(all relators satisfied, list of failing relator indices)."""
    f = rep.field
    bad = []
    ident = Matrix.identity(f, rep.dim)
    for j, r in enumerate(rep.group.relators):
        if rep.evaluate(r) != ident:
            bad.append(j)
    return (not bad), bad


def fox_derivative(rep, word):
    """[rho(d word / d x_i) for every generator x_i] from one walk of the
    running prefix u: x_i adds u to its derivative, x_i^-1 adds -u x_i^-1."""
    f = rep.field
    derivs = [Matrix.zero(f, rep.dim, rep.dim) for _ in rep.matrices]
    prefix = Matrix.identity(f, rep.dim)
    for letter in word:
        gen = abs(letter) - 1
        if letter > 0:
            derivs[gen] = derivs[gen] + prefix
            prefix = prefix @ rep.matrices[gen]
        else:
            prefix = prefix @ rep.inverses[gen]
            derivs[gen] = derivs[gen] - prefix
    return derivs


def d0_matrix(rep):
    f = rep.field
    ident = Matrix.identity(f, rep.dim)
    return vstack_all(f, [m - ident for m in rep.matrices], rep.dim)


def d1_matrix(rep):
    """Fox Jacobian: one block row per relator, one block column per
    generator."""
    n, d = len(rep.group.generators), rep.dim
    rows = []
    for r in rep.group.relators:
        blocks = [b.rows for b in fox_derivative(rep, r)]
        rows += [{i * d + j: x for i, b in enumerate(blocks)
                  for j, x in b[w].items()} for w in range(d)]
    return Matrix.sparse(rep.field, rows, n * d)


class TwistedBetti(namedtuple("TwistedBetti", "b0 b1 b2")):
    __slots__ = ()

    def euler(self):
        return self.b0 - self.b1 + self.b2


def adjoint_rep(rep):
    """Compose with the adjoint action of the target group.

    SL: conjugation on trace-zero matrices in the build_sl basis order.
    Borel: conjugation on the upper-triangular trace-zero 2x2 matrices, in
    the basis of the defining sol2 matrices (diag(1,-1), upper unit).  GL
    has no canonical choice here.
    """
    f = rep.field
    if rep.target == "SL":
        basis = [Matrix(f, m) for m in sl_matrices(rep.dim)]
        coords = traceless_coordinates
    elif rep.target == "Borel":
        basis = rep_defining(build_sol2(f)).matrices
        coords = itemgetter(0)  # [a, b] of [[a, b], [0, -a]]: (h, e)
    else:
        raise GroupError("adjoint twist needs an SL or Borel target")
    mats = [Matrix.from_columns(f, [coords((g @ b @ ginv).to_lists())
                                    for b in basis], nrows=len(basis))
            for g, ginv in zip(rep.matrices, rep.inverses)]
    return GroupRep(rep.group, "GL", mats, name=f"Ad({rep.name})")


def _fox_ranks(rep, twist):
    """(dim V, rank D0, rank D1) of the presentation complex with the given
    twist.  Raises if the representation does not satisfy the relators.
    Asserts the Fox fundamental identity in matrix form (D1 D0 = 0) as an
    internal consistency check."""
    ok, bad = rep_check(rep)
    if not ok:
        raise GroupError(f"relators {_brief(bad)} are not satisfied")
    if twist not in ("defining", "adjoint"):
        raise GroupError(
            f"unknown twist {_brief(twist)} (want defining or adjoint)")
    local = adjoint_rep(rep) if twist == "adjoint" else rep
    d0 = d0_matrix(local)
    d1 = d1_matrix(local)
    if d1.nrows and not (d1 @ d0).is_zero():
        raise GroupError("Fox identity violated — inconsistent input")
    return local.dim, rank(d0), rank(d1)


def twisted_cohomology(rep, twist="defining"):
    """TwistedBetti of the presentation 2-complex with the given twist.
    Raises if the representation does not satisfy the relators, or if the
    Fox identity D1 D0 = 0 fails."""
    dv, r0, r1 = _fox_ranks(rep, twist)
    n, m = len(rep.group.generators), len(rep.group.relators)
    return TwistedBetti(dv - r0, (n * dv - r1) - r0, m * dv - r1)


class TangentReport(namedtuple("TangentReport",
                               "cocycle_dim coboundary_dim betti")):
    """dim Z^1 with adjoint coefficients, dim B^1, and their difference."""
    __slots__ = ()


def tangent_dimension_rep(rep):
    """Adjoint cocycle count at a representation: dim Z^1 = n dim(g) - rank
    of the adjoint Fox Jacobian.  Reported with dim B^1 and the difference.
    The ranks are those of ``twisted_cohomology(rep, "adjoint")``."""
    dv, r0, r1 = _fox_ranks(rep, "adjoint")
    z1 = len(rep.group.generators) * dv - r1
    return TangentReport(z1, r0, z1 - r0)
