"""Covariant-derivative (Aomoto) complexes and resonance membership.

Given a flat connection omega = sum_k a_k (x) x_k and a representation
theta on V, the twisted differential on model (x) V is

    d_omega(a (x) v) = (d a) (x) v + sum_k (a_k a) (x) theta(x_k) v,

the connection's one-form generators multiplying from the left.  Flatness of
omega makes d_omega square to zero.  Basis ordering is algebra-major:
index = (algebra basis index) * dim V + (V index).

``aomoto_matrix`` sums D·d^i_omega in ints, D a nonzero integer, from the
integer tables ``Cdga.degree_table`` (d^i and the products a_k x_b) and
``LieRep.matrix_table``, and from the connection's rows scaled by their lcm;
theta(omega_k) is formed once per complex.  ``rank`` takes these rows as they
are, since a nonzero scaling keeps a rank over Q (over GF(p), D = 1).

Resonance membership at degree i, depth r asks dim H^i >= r.  In degree 0,
d_omega(1 (x) v) = sum_k a_k (x) theta(x_k) v with the a_k independent, so
H^0 is the common kernel of the theta(x_k).

``depth_gap`` packages the strict-inequality comparison between the twisted
first Betti number of a connection on a sub-model and of its pushforward on
a bigger model, exhibiting an explicit new kernel element eta (x) v built
from a fixed vector v and a closed one-form eta outside the sub-model's
image.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .flatconn import NotFlatError, f1_membership, is_flat, mc_residual, \
    pullback
from .linalg import (Matrix, _common_numerators, kernel_basis, rank, solve,
                     vstack_all)


# Refuse a twisted complex whose differentials hold more cells, summed over
# degrees, than this, before anything is assembled: torus(8) x adjoint sl(8)
# has 45,405,360 and ran past 25 s, while the largest complex the tests and
# the benchmark build, curve(5)xcurve(5) x adjoint sl(3), has 263,680.
DIFFERENTIAL_CEILING = 3 * 10 ** 5


class AomotoError(ValueError):
    pass


class PreconditionError(AomotoError):
    """A depth-gap or resonance precondition failed; message says which."""


def aomoto_matrix(cx, i):
    """(D, D·d^i_omega): the differential of ``cx`` from degree i to i+1
    times a nonzero int D, as a Matrix of ints reduced into the field:
        d^i_omega[(c, w), (b, v)] = d_i[c, b] delta_{w v}
            + sum_k prod(a_k, x_b)[c] theta(omega_k)[w, v]."""
    a, dv, lift = cx.cdga, cx.rep.dim, cx.lift
    den, d, products = a.degree_table(i)
    rows = [{} for _ in range(len(d) * dv)]
    for c, drow in enumerate(d):
        for b, coef in drow.items():
            for w in range(dv):
                rows[c * dv + w][b * dv + w] = lift * coef
    for k, b, terms in products:
        th, base = cx.theta[k], b * dv
        for c, mu in terms:
            for w, th_row in enumerate(th):
                row = rows[c * dv + w]
                for v, x in th_row.items():
                    col = base + v
                    row[col] = row[col] + mu * x if col in row else mu * x
    return den * lift, Matrix.from_sums(a.field, rows, a.dim(i) * dv)


class AomotoComplex:
    """The twisted complex of a flat connection; ``theta[k]`` holds the
    sparse rows of lift·theta(omega_k), in ints reduced into the field.  Each
    differential is assembled and ranked at most once, on first use, so
    ``betti(i)`` touches only d^(i-1) and d^i."""

    def __init__(self, conn, rep):
        if not rep.lie.structurally_equal(conn.lie):
            raise AomotoError("representation is over a different Lie algebra")
        dims = [d * rep.dim for d in conn.cdga.dims()]
        cells = sum(x * y for x, y in zip(dims, dims[1:]))
        if cells > DIFFERENTIAL_CEILING:
            raise AomotoError(
                f"twisted complex too large: its differentials hold {cells} "
                f"cells (limit {DIFFERENTIAL_CEILING})")
        res = mc_residual(conn)
        f = conn.cdga.field
        if any(res):
            raise NotFlatError(res)
        self.conn, self.rep, self.cdga = conn, rep, conn.cdga
        scale, rows = _common_numerators(conn.coeffs.rows)
        self.lift = scale * rep.matrix_table()[0]
        self.theta = [Matrix.from_sums(f, rep.apply_sums(r), rep.dim).rows
                      for r in rows]
        self._rows, self._ranks = {}, {}

    def _assembled(self, i):
        if i not in self._rows:
            self._rows[i] = aomoto_matrix(self, i)
        return self._rows[i]

    def matrix(self, i):
        """d^i from degree i to degree i+1 (zero outside the model)."""
        den, m = self._assembled(i)
        return m.scale(Fraction(1, den))

    def rank(self, i):
        """Rank of d^i; 0 outside degrees 0 .. top-1."""
        if not 0 <= i < self.cdga.top_degree:
            return 0
        if i not in self._ranks:
            self._ranks[i] = rank(self._assembled(i)[1])
        return self._ranks[i]

    def betti(self, i):
        if not 0 <= i <= self.cdga.top_degree:
            return 0
        return (self.cdga.dim(i) * self.rep.dim
                - self.rank(i) - self.rank(i - 1))

    def betti_all(self):
        return tuple(self.betti(i) for i in range(self.cdga.top_degree + 1))

    def square_is_zero(self):
        return all((self.matrix(i + 1) @ self.matrix(i)).is_zero()
                   for i in range(self.cdga.top_degree - 1))


def resonance_membership(conn, rep, i, depth):
    """dim H^i of the twisted complex >= depth?"""
    if depth < 1:
        raise AomotoError("depth must be >= 1")
    return AomotoComplex(conn, rep).betti(i) >= depth


class DepthGapReport(namedtuple(
        "DepthGapReport", "base_betti target_betti strict_increase "
        "base_positive depth_two fixed_vector eta eta_kernel_ok")):
    """Twisted b1 on the sub-model (base) and on the big model (target);
    target > base, base >= 1 and target > 1; a common kernel vector v of
    theta, the chosen closed one-form eta outside the image, and whether
    the twisted differential kills eta (x) v."""
    __slots__ = ()

    @property
    def holds(self):
        return (self.strict_increase and self.base_positive
                and self.depth_two and self.eta_kernel_ok)

    def to_dict(self, f):
        """Wire format: depth numbers, the witness tensor, named checks."""
        return {
            "s": self.base_betti,
            "r": self.target_betti,
            "degree": 1,
            "witnesses": {
                "eta_tensor_v": {
                    "eta": [f.format(x) for x in self.eta],
                    "fixed_vector": [f.format(x) for x in self.fixed_vector],
                },
            },
            "checks": [
                {"name": "base_positive", "ok": self.base_positive},
                {"name": "strict_increase", "ok": self.strict_increase},
                {"name": "depth_two", "ok": self.depth_two},
                {"name": "eta_kernel_ok", "ok": self.eta_kernel_ok},
            ],
        }


def depth_gap(morphism, rep, conn, eta):
    """Compare twisted first Betti numbers along a model inclusion.

    Preconditions (each failure raises PreconditionError naming the culprit):
      * theta has a nonzero vector killed by the whole Lie algebra;
      * eta is a closed degree-1 vector of the target outside the image of
        the degree-1 map;
      * conn lives on the source, is flat, and is not rank-one.

    Returns a DepthGapReport with base/target twisted b1, the comparison
    flags, and an explicit kernel element eta (x) v of the target complex.
    """
    f = morphism.source.field

    common = kernel_basis(vstack_all(f, rep.matrices, rep.dim))
    if not common:
        raise PreconditionError(
            "theta has no nonzero vector killed by the Lie algebra")
    v = common[0]

    tgt = morphism.target
    if len(eta) != tgt.dim(1):
        raise PreconditionError("eta has the wrong length for the target")
    eta = [f.coerce(x) for x in eta]
    if any(not f.is_zero(x) for x in tgt.d_matrix(1).apply(eta)):
        raise PreconditionError("eta is not closed")
    if solve(morphism.map(1), eta) is not None:
        raise PreconditionError("eta lies in the image of the inclusion")

    if conn.cdga is not morphism.source and \
            conn.cdga.dims() != morphism.source.dims():
        raise PreconditionError("connection does not live on the source model")
    if not is_flat(conn):
        raise PreconditionError("connection is not flat")
    if f1_membership(conn).member:
        raise PreconditionError("connection is rank-one; the gap needs rank >= 2")

    pushed = pullback(morphism, conn)
    base = AomotoComplex(conn, rep).betti(1)
    target_complex = AomotoComplex(pushed, rep)
    target = target_complex.betti(1)

    # the advertised new kernel element
    vec = [f.mul(c, x) for c in eta for x in v]
    image = target_complex.matrix(1).apply(vec)
    eta_ok = all(f.is_zero(x) for x in image)

    return DepthGapReport(
        base_betti=base, target_betti=target,
        strict_increase=target > base, base_positive=base >= 1,
        depth_two=target > 1, fixed_vector=v, eta=eta,
        eta_kernel_ok=eta_ok)
