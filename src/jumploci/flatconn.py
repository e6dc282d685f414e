"""Flat connections on a dg model with values in a Lie algebra.

A connection is a coefficient matrix with one row per degree-1 basis element
of the model and one column per Lie basis element: row k holds the Lie
coordinates attached to the k-th one-form generator.

Flatness is the Maurer-Cartan equation.  With omega = sum_k a_k (x) x_k the
residual in degree 2 is

    sum_k d(a_k) (x) x_k  +  sum_{k<l} (a_k a_l) (x) [x_k, x_l]

(the symmetric double sum of the bracket term collapses onto k < l because
the one-forms anticommute while the brackets antisymmetrize).  ``mc_residual``
sums it in plain ints: d¹ and the products a_k a_l (``Cdga.one_form_table``)
and the structure constants (``LieAlgebra.structure_table``, which ``bracket``
reads too) are integer numerators over one denominator each, and the rows over
Q are scaled by the lcm of their denominators.  Each entry is reduced once.

The rank-one locus consists of connections eta (x) x with d(eta) = 0; its
determinant cut additionally demands det(theta(x)) = 0 for a chosen
representation theta.  Rank-one factorizations are unique up to a scalar, so
both memberships are well defined.

Over a prime field ``flat_census`` lists the flat connections exhaustively,
as sorted positions.  In the flattened coefficients w the residual is
L w + w^T Q w with L = d¹ ⊗ 1 and Q = μ ⊗ c (``flatness_tensors``; μ the
product of one-forms, c the structure constants).  The bracket term is
quadratic only between unknowns joined by a nonzero product and structure
constant; fixing a vertex cover of those pairs leaves every residual affine
in the remaining unknowns.  The census fixes the cover unknowns one at a
time and checks, mod p, the residuals each prefix has made affine: an
inconsistent prefix is dropped with everything below it, so the work follows
the consistent prefixes, not the p^|cover| fibres.  Batches of prefixes are
reduced, bounded and listed depth-first, on at most one thread per CPU.
"""

from __future__ import annotations

import os
from collections import namedtuple
from fractions import Fraction

from .linalg import Matrix, _common_numerators, rank
from .scalars import PrimeField, same_field


class FlatConnError(ValueError):
    pass


class NotFlatError(FlatConnError):
    def __init__(self, residual):
        self.residual = residual
        super().__init__("connection is not flat")


class BruteForceBoundError(FlatConnError):
    pass


class FlatConnection:
    def __init__(self, cdga, lie, coeffs):
        same_field(cdga.field, lie.field, coeffs.field)
        if coeffs.shape != (cdga.dim(1), lie.dim):
            raise FlatConnError(
                f"coefficients have shape {coeffs.shape}, expected "
                f"({cdga.dim(1)}, {lie.dim})")
        self.cdga = cdga
        self.lie = lie
        self.coeffs = coeffs

    @classmethod
    def from_rows(cls, cdga, lie, rows):
        return cls(cdga, lie, Matrix(cdga.field, rows, ncols=lie.dim))

    def row(self, k):
        return self.coeffs.row(k)

    def __eq__(self, other):
        if not isinstance(other, FlatConnection):
            return NotImplemented
        return (self.cdga is other.cdga and self.lie is other.lie
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return (f"FlatConnection({self.cdga.name}, {self.lie.name}, "
                f"{self.coeffs.nrows}x{self.coeffs.ncols})")


def mc_residual(conn):
    """Maurer-Cartan residual as a vector in degree-2 (x) Lie coordinates,
    flattened algebra-major: index = (degree-2 index) * dim_lie + lie index.
    Summed in plain ints and reduced once per nonzero entry."""
    a, g = conn.cdga, conn.lie
    den_a, d1, products = a.one_form_table()
    scale, rows = _common_numerators(conn.coeffs.rows)
    lift = g.structure_table()[0] * scale  # d¹ x over den_a·den_g·scale²
    acc = [{} for _ in d1]
    for s, drow in zip(acc, d1):
        for k, coef in drow.items():
            for m, x in rows[k].items():
                s[m] = s.get(m, 0) + lift * coef * x
    dense = [[r.get(m, 0) for m in range(g.dim)] for r in rows]
    for k, l, terms in products:
        br = g.bracket_sums(dense[k], dense[l])
        for c, mu in terms:
            for m, v in br.items():
                acc[c][m] = acc[c].get(m, 0) + mu * v
    p, n, den = a.field.characteristic, g.dim, den_a * lift * scale
    out = [a.field.zero] * (len(acc) * n)
    for c, s in enumerate(acc):
        for m, v in s.items():
            out[c * n + m] = v % p if p else Fraction(v, den)
    return out


def is_flat(conn):
    f = conn.cdga.field
    return all(f.is_zero(x) for x in mc_residual(conn))


class RankOneReport(namedtuple("RankOneReport",
                               "member reason rank eta x det_value",
                               defaults=(None, None, None))):
    """``rank`` of the coefficient matrix; ``eta`` the degree-1 coefficient
    vector and ``x`` the Lie coordinate vector of a member; ``det_value``
    det theta(x), set by ``det_cut``."""
    __slots__ = ()


def f1_membership(conn):
    """Is the connection a closed one-form tensor a single Lie element?

    The zero connection is a member with the (0, 0) witness.  A rank-one
    coefficient matrix factors uniquely up to scalar, so closedness of the
    one-form factor is intrinsic.
    """
    a = conn.cdga
    f = a.field
    r = rank(conn.coeffs)
    if r == 0:
        return RankOneReport(True, "zero connection", r,
                             eta=[f.zero] * a.dim(1),
                             x=[f.zero] * conn.lie.dim)
    if r > 1:
        return RankOneReport(False, f"coefficient rank {r} exceeds 1", r)
    pk = next(k for k, row in enumerate(conn.coeffs.rows) if row)
    pm = min(conn.coeffs.rows[pk])
    eta = conn.coeffs.column(pm)
    pivot = conn.coeffs[pk, pm]
    x = [f.div(v, pivot) for v in conn.coeffs.row(pk)]
    deta = a.d_apply(1, eta)
    if any(not f.is_zero(v) for v in deta):
        return RankOneReport(
            False, "rank one, but the one-form factor is not closed", r)
    return RankOneReport(True, "rank-one with closed factor", r,
                         eta=eta, x=x)


def det_cut(r1, rep):
    """Determinant cut det(theta(x)) = 0 of the rank-one locus, read off
    the ``f1_membership`` report of a connection over rep's Lie algebra."""
    if not r1.member:
        return r1
    from .liealg import det_theta
    d = det_theta(rep, r1.x)
    if rep.lie.field.is_zero(d):
        return r1._replace(reason="rank-one with singular action",
                           det_value=d)
    return r1._replace(member=False,
                       reason="theta acts invertibly on the Lie factor",
                       det_value=d)


def pi_membership(conn, rep):
    """Rank-one locus cut out by det(theta(x)) = 0."""
    if not rep.lie.structurally_equal(conn.lie):
        raise FlatConnError("representation is over a different Lie algebra")
    return det_cut(f1_membership(conn), rep)


def pullback(morphism, conn):
    """Push a connection on the morphism source to the target model."""
    if conn.cdga is not morphism.source and \
            conn.cdga.dims() != morphism.source.dims():
        raise FlatConnError("connection does not live on the morphism source")
    new = morphism.map(1) @ conn.coeffs
    return FlatConnection(morphism.target, conn.lie, new)


def tangent_dimension(conn):
    """Dimension of the solution space of the linearized flatness equation
    at a flat connection, u -> du + [omega, u]: the degree-1 cocycles of the
    adjoint twisted complex.  Raises NotFlatError off the flat locus."""
    from .aomoto import AomotoComplex
    from .liealg import rep_adjoint
    adjoint = AomotoComplex(conn, rep_adjoint(conn.lie))
    return conn.cdga.dim(1) * conn.lie.dim - adjoint.rank(1)


def weight_scale(conn, s):
    """Rescale row k by s^(weight of the k-th one-form generator), s != 0.

    On weighted models this is the positive-weight torus action on
    connections; it preserves flatness row-by-row because both d and the
    product preserve weight.
    """
    a = conn.cdga
    f = a.field
    s = f.coerce(s)
    if f.is_zero(s):
        raise FlatConnError("scale factor must be nonzero")
    if a.weights is None:
        raise FlatConnError(f"model {a.name} carries no weights")
    factors = [f.pow(s, w) for w in a.weights[1]]
    rows = [{j: c * x for j, x in r.items()}
            for c, r in zip(factors, conn.coeffs.rows)]
    return FlatConnection(a, conn.lie,
                          Matrix.from_sums(f, rows, conn.lie.dim))


# ---------------------------------------------------------------------------
# exhaustive search over a prime field


BRUTE_FORCE_CEILING = 10 ** 8
HIT_CEILING = 10 ** 6


def _bound_census(count, ceiling=BRUTE_FORCE_CEILING, what="candidates"):
    """Refuse a census of more than ``ceiling`` candidates (or points),
    before anything in proportion to them is built."""
    if count > ceiling:
        raise BruteForceBoundError(
            f"{count} {what} exceed the {ceiling} ceiling")


def flatness_tensors(cdga, lie):
    """int64 arrays (L, Q), of shapes (n2·dg, n1·dg) and (n2·dg, n1·dg,
    n1·dg), with residual_j = (L w)_j + w^T Q_j w for the flattened
    coefficient vector w (row-major): L = d¹ ⊗ 1 and Q = μ ⊗ c, μ[c, k, l]
    the c-th coordinate of a_k a_l (k < l) and c the structure constants.

    Used by the vectorized searches; kept independent of the holonomy module
    so that exhaustive cross-checks compare genuinely different assemblies.
    """
    import numpy as np
    n1, n2, dg = cdga.dim(1), cdga.dim(2), lie.dim
    d1 = np.array(cdga.d_matrix(1).to_lists(), dtype=np.int64).reshape(
        n2, n1)
    mu = np.zeros((n2, n1, n1), dtype=np.int64)
    for k in range(n1):
        for l in range(k + 1, n1):
            for c, coef in cdga.product_basis(1, k, 1, l).items():
                mu[c, k, l] = int(coef)
    struct = np.array(lie.structure_tensor(), dtype=np.int64).reshape(
        dg, dg, dg)
    return (np.einsum("ck,ab->cakb", d1, np.eye(dg, dtype=np.int64)).reshape(
                n2 * dg, n1 * dg),
            np.einsum("ckl,abm->cmkalb", mu, struct).reshape(
                n2 * dg, n1 * dg, n1 * dg))


def _place_values(p, k):
    """p^(k-1), ..., p, 1 as a numpy int64 array: the weights of the k
    digits of a lexicographic position."""
    import numpy as np
    return np.array([p ** (k - 1 - t) for t in range(k)], dtype=np.int64)


def _vertex_cover(qnp):
    """Sorted unknowns of a minimum vertex cover of the quadratic terms of
    the reduced stack ``qnp`` (rdim x kdim x kdim).  i and j != i are joined
    when some Q_r[i][j] or Q_r[j][i] is nonzero; a nonzero Q_r[i][i] puts i
    in the cover outright.  The rest is the first minimum cover that the
    branch and bound ``_smaller_cover`` finds, seeded with the bound of
    taking every joined unknown.  Deterministic; any cover gives the same
    zeros, and the fibres number p^(cover size).
    """
    import numpy as np
    support = qnp.any(axis=0)
    edges = support | support.T
    forced = set(np.flatnonzero(edges.diagonal()).tolist())
    graph = {i: nb for i, row in enumerate(edges) if i not in forced
             and (nb := set(np.flatnonzero(row).tolist()) - forced - {i})}
    return sorted(forced | _smaller_cover(graph, len(graph) + 1))


def _smaller_cover(graph, bound):
    """A minimum vertex cover of ``graph`` (vertex -> its nonempty set of
    neighbours) if it has fewer than ``bound`` vertices, else None.  The
    vertex v of most neighbours, lowest first, is in the cover or all its
    neighbours are; a branch is cut once its edges, over the most any one
    vertex covers, need ``bound`` vertices or more."""
    if not graph:
        return set() if bound > 0 else None
    degree = max(map(len, graph.values()))
    if sum(map(len, graph.values())) > 2 * degree * (bound - 1):
        return None
    v = max(graph, key=lambda i: len(graph[i]))
    best = None
    for take in ({v}, set(graph[v])):
        rest = {i: left for i, nb in graph.items()
                if i not in take and (left := nb - take)}
        sub = _smaller_cover(rest, bound - len(take))
        if sub is not None:
            best, bound = take | sub, len(take) + len(sub)
    return best


def _inverse_mod(x, p):
    """Elementwise x^(p-2) mod p: the inverse of each nonzero residue."""
    out = x * 0 + 1
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _walk_levels(qnp, cover):
    """The order in which the census walk fixes the (sorted) cover
    unknowns, and its levels.  A residual is affine once its cover support,
    the cover unknowns in its quadratic terms, is fixed.  Next comes the
    unknown that makes the most residuals affine, the lowest on a tie.  A
    level is a prefix length t at which the affine residuals grow, with
    their sorted indices; the last is t = |cover|, where all are affine."""
    import numpy as np
    support = ((qnp != 0).any(axis=1) | (qnp != 0).any(axis=2))[:, cover]
    fixed = np.zeros(len(cover), dtype=bool)
    order, levels, affine = [], [], 0
    while True:
        need = (support & ~fixed).sum(axis=1)
        if (need == 0).sum() > affine or fixed.all():
            levels.append((len(order), np.flatnonzero(need == 0).tolist()))
            affine = len(levels[-1][1])
        if fixed.all():
            return [cover[a] for a in order], levels
        gain = np.where(fixed, -1, support[need == 1].sum(axis=0))
        order.append(int(gain.argmax()))
        fixed[order[-1]] = True


def _common_zeros(lmat, qmats, p, kdim, jobs=1):
    """Sorted lexicographic positions, in F_p^kdim, of the common zeros of
    residual_r = (L w)_r + w^T Q_r w mod p, as a numpy int64 array.

    Fixing the unknowns of a vertex cover C of the quadratic terms
    (``_vertex_cover``) leaves every residual affine in the free unknowns.
    The walk fixes them one at a time, in the order of ``_walk_levels``.
    At each of its levels it assembles, for a batch of prefixes, the
    residuals made affine so far as systems [A | b] in the unknowns left,
    reduces them together (``_reduce_fibres``) and extends only the
    consistent prefixes.  The last level, where w_C is whole, solves: each
    batch's p^nullity points are counted against ``HIT_CEILING`` before any
    is listed (``_list_solutions``), and all threads' points are counted
    again after the join.  Batches hold at most ``chunk`` prefixes and are
    walked depth-first, so memory is bounded by one batch per level.

    min(jobs, p^|C|, CPUs) threads split, into contiguous ranges, the
    extensions of the live prefixes to the first level that has at least
    that many, without changing the result.  Refuses, before it builds any
    array, residuals that could reach 2^63 (linear part < p^2·kdim,
    quadratic part < p^3·kdim^2) and positions that could (p^kdim).
    """
    if max(p * p * kdim + p ** 3 * kdim * kdim, p ** kdim) >= 1 << 63:
        raise FlatConnError(f"residuals over F_{p} with {kdim} unknowns "
                            "overflow 64-bit integers")
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    rdim = max(1, len(lmat))   # no residual reads as one zero residual
    lnp = np.zeros((rdim, kdim), dtype=np.int64)
    qnp = np.zeros((rdim, kdim, kdim), dtype=np.int64)
    lnp[:len(lmat)] = np.reshape(lmat, (len(lmat), kdim)) % p
    qnp[:len(qmats)] = np.reshape(qmats, (len(qmats), kdim, kdim)) % p
    cover = _vertex_cover(qnp)
    free = [i for i in range(kdim) if i not in cover]
    c, nf = len(cover), len(free)
    order, levels = _walk_levels(qnp, cover)
    place = _place_values(p, kdim)
    sym = (qnp + qnp.transpose(0, 2, 1)) % p
    chunk = max(1, (1 << 20) // (rdim * (max(c, nf) + 1)))
    last = len(levels) - 1

    def assembler(t, rows):
        """[A | b] of the residuals ``rows`` at prefixes w (n x t) of the
        walk order: A w_U + b, over the unknowns U not fixed (the free
        unknowns at the last level)."""
        fixed = order[:t]
        cols = [u for u in range(kdim) if u not in fixed]
        nr, nu = len(rows), len(cols)
        lin = lnp[np.ix_(rows, cols)]
        mix = sym[np.ix_(rows, fixed, cols)].transpose(1, 0, 2).reshape(
            t, nr * nu)
        lfix = lnp[np.ix_(rows, fixed)].T
        qfix = qnp[np.ix_(rows, fixed, fixed)].transpose(1, 0, 2).reshape(
            t, nr * t)

        def assemble(w):
            n = len(w)
            aug = np.empty((n, nr, nu + 1), dtype=np.int64)
            aug[:, :, :nu] = (w @ mix).reshape(n, nr, nu) + lin
            quad = (w @ qfix).reshape(n, nr, t) % p
            aug[:, :, nu] = w @ lfix + np.einsum("nrt,nt->nr", quad, w)
            aug %= p
            return aug
        return assemble

    steps = [(p ** (t - b), _place_values(p, t - b), assembler(t, rows))
             for b, (t, rows) in zip([0] + [t for t, _ in levels], levels)]

    def walk(i, pre, lo=0, hi=None, held=None, stop=None):
        """Depth-first below the extensions lo..hi (all by default), to
        level i, of the prefixes ``pre`` of the level before, a chunk at a
        time, their systems [A | b] reduced and only the consistent ones
        kept: yields the live prefixes of level ``stop``, or else the
        positions of the last level's points, counted (``held`` is the
        worker's running count) before any is listed."""
        span, digits, assemble = steps[i]
        hi = len(pre) * span if hi is None else hi
        for start in range(lo, hi, chunk):
            at = np.arange(start, min(start + chunk, hi), dtype=np.int64)
            w = np.concatenate([pre[at // span], at[:, None] // digits % p],
                               axis=1)
            aug = assemble(w)
            ranks, pivot_row, consistent = _reduce_fibres(aug, p)
            if i == stop:
                yield w[consistent]
            elif i < last:
                del aug, pivot_row   # this batch's systems, before going down
                yield from walk(i + 1, w[consistent], held=held)
            else:
                nullity = nf - ranks
                held[0] += int((p ** nullity[consistent]).sum())
                _bound_census(held[0], HIT_CEILING, "points")
                by_nullity = np.bincount(nullity[consistent])
                for k in np.flatnonzero(by_nullity).tolist():
                    pick = np.flatnonzero(consistent & (nullity == k))
                    yield _list_solutions(aug[pick], pivot_row[pick], p, k,
                                          w[pick] @ place[order],
                                          place[free])

    def run(lo, hi):
        return np.concatenate([np.zeros(0, dtype=np.int64),
                               *walk(split, frontier, lo, hi, [0])])

    workers = max(1, min(int(jobs), p ** c, os.cpu_count() or 1))
    frontier, split = np.zeros((1, 0), dtype=np.int64), 0
    while split < last and len(frontier) * steps[split][0] < workers:
        frontier = np.concatenate(list(walk(split, frontier, stop=split)))
        split += 1
    size = len(frontier) * steps[split][0]
    bounds = [size * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        hits = list(pool.map(run, bounds[:-1], bounds[1:]))
    _bound_census(sum(map(len, hits)), HIT_CEILING, "points")  # all threads
    return np.sort(np.concatenate(hits))


def _reduce_fibres(aug, p):
    """Bring every affine system aug[n] = [A | b], A w + b = 0 mod p, to
    reduced echelon form together, in place, pivots scaled by Fermat
    inverses.  Returns each A's rank, each unknown's pivot row (-1 when it
    is free) and whether each system is consistent."""
    import numpy as np
    n, rdim, width = aug.shape
    nf = width - 1
    rows = np.arange(rdim)
    rank = np.zeros(n, dtype=np.int64)
    pivot_row = np.full((n, nf), -1, dtype=np.int64)
    for col in range(nf):
        cand = (aug[:, :, col] != 0) & (rows >= rank[:, None])
        sel = np.flatnonzero(cand.any(axis=1))
        if not len(sel):
            continue
        src, dst = cand[sel].argmax(axis=1), rank[sel]
        top = aug[sel, src]
        aug[sel, src] = aug[sel, dst]
        top = top * _inverse_mod(top[:, col], p)[:, None] % p
        block = aug[sel]
        block -= block[:, :, col, None] * top[:, None, :]
        block[np.arange(len(sel)), dst] = top
        aug[sel] = block % p
        pivot_row[sel, col] = dst
        rank[sel] += 1
    consistent = ~((aug[:, :, nf] != 0) & (rows >= rank[:, None])).any(axis=1)
    return rank, pivot_row, consistent


def _list_solutions(aug, pivot_row, p, nullity, base, place_free):
    """Positions of the p^nullity points of each reduced system's solution
    space: the particular solution with the free unknowns at 0, plus every
    combination of the kernel basis vectors, one per free unknown.  Fibres
    and parameter tuples are taken in blocks of about 2^17 points, so
    memory is bounded by the block, not by the hit count."""
    import numpy as np
    n, _, width = aug.shape
    nf = width - 1
    is_pivot = pivot_row >= 0
    # the reduced row of each pivot unknown; free unknowns read row 0
    reduced = np.take_along_axis(aug, np.maximum(pivot_row, 0)[:, :, None],
                                 axis=1)
    free_cols = np.argsort(is_pivot, axis=1, kind="stable")[:, :nullity]
    x0 = np.where(is_pivot, -reduced[:, :, nf], 0) % p
    coupling = np.take_along_axis(reduced[:, :, :nf],
                                  free_cols[:, None, :].repeat(nf, axis=1),
                                  axis=2)
    unit = free_cols[:, None, :] == np.arange(nf)[None, :, None]
    kernel = (np.where(is_pivot[:, :, None], -coupling, unit) % p
              ).transpose(0, 2, 1)
    block, params = 1 << 17, p ** nullity
    per = max(1, block // params)
    out = []
    for lo in range(0, n, per):
        for plo in range(0, params, block):
            t = np.arange(plo, min(plo + block, params), dtype=np.int64)
            digits = (t[:, None] // _place_values(p, nullity)) % p
            pts = (x0[lo:lo + per, None, :]
                   + digits @ kernel[lo:lo + per]) % p
            out.append((base[lo:lo + per, None] + pts @ place_free).ravel())
    return np.concatenate(out)


def flat_census(cdga, lie, jobs=1):
    """Sorted positions, as a numpy int64 array, of every flat connection
    over a prime field: position i spells the flattened (row-major)
    coefficient vector in base p.  Exhaustive and exact (``_common_zeros``,
    on up to ``jobs`` threads), and guarded: the p^(dim A^1 * dim lie)
    candidates before any tensor is built, then the flat points."""
    f = cdga.field
    if not isinstance(f, PrimeField):
        raise FlatConnError("exhaustive search needs a prime field")
    kdim = cdga.dim(1) * lie.dim
    _bound_census(f.p ** kdim)
    lmat, qmats = flatness_tensors(cdga, lie)
    return _common_zeros(lmat, qmats, f.p, kdim, jobs)


def brute_force_flat(cdga, lie, jobs=1):
    """The flat connections of ``flat_census``, decoded into
    FlatConnection objects in the same order; ``lex_index`` inverts the
    decoding."""
    f, n1, dg = cdga.field, cdga.dim(1), lie.dim
    hits = flat_census(cdga, lie, jobs)[:, None]
    digits = hits // _place_values(f.p, n1 * dg) % f.p
    return [FlatConnection(cdga, lie, Matrix.sparse(
        f, [{m: x for m, x in enumerate(row) if x} for row in rows], dg))
        for rows in digits.reshape(len(hits), n1, dg).tolist()]


def lex_index(conn, p):
    """Position of a connection in the lexicographic enumeration of
    ``flat_census`` over a field with p elements."""
    v = 0
    for row in conn.coeffs.rows:
        for j in range(conn.coeffs.ncols):
            v = v * p + int(row.get(j, 0))
    return v
