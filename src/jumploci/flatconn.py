"""Flat connections on a dg model with values in a Lie algebra.

A connection is a coefficient matrix with one row per degree-1 basis element
of the model and one column per Lie basis element: row k holds the Lie
coordinates attached to the k-th one-form generator.

Flatness is the Maurer-Cartan equation.  With omega = sum_k a_k (x) x_k the
residual in degree 2 is

    sum_k d(a_k) (x) x_k  +  sum_{k<l} (a_k a_l) (x) [x_k, x_l]

(the symmetric double sum of the bracket term collapses onto k < l because
the one-forms anticommute while the brackets antisymmetrize).

The rank-one locus consists of connections eta (x) x with d(eta) = 0; its
determinant cut additionally demands det(theta(x)) = 0 for a chosen
representation theta.  Rank-one factorizations are unique up to a scalar, so
both memberships are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, rank, kernel_basis, solve
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

    def is_zero(self):
        return self.coeffs.is_zero()

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
    flattened algebra-major: index = (degree-2 index) * dim_lie + lie index."""
    a, g = conn.cdga, conn.lie
    f = a.field
    n1, n2, dg = a.dim(1), a.dim(2), g.dim
    out = [f.zero] * (n2 * dg)
    if n2 == 0:
        return out
    d1 = a.d_matrix(1)
    rows = [conn.row(k) for k in range(n1)]
    for k in range(n1):
        for c in range(n2):
            coef = d1[c, k]
            if f.is_zero(coef):
                continue
            for m in range(dg):
                if not f.is_zero(rows[k][m]):
                    out[c * dg + m] = f.add(out[c * dg + m],
                                            f.mul(coef, rows[k][m]))
    for k in range(n1):
        for l in range(k + 1, n1):
            prod = a.product_basis(1, k, 1, l)
            if not prod:
                continue
            br = g.bracket(rows[k], rows[l])
            for c, coef in prod.items():
                for m in range(dg):
                    if not f.is_zero(br[m]):
                        out[c * dg + m] = f.add(out[c * dg + m],
                                                f.mul(coef, br[m]))
    return out


def is_flat(conn):
    f = conn.cdga.field
    return all(f.is_zero(x) for x in mc_residual(conn))


@dataclass
class RankOneReport:
    member: bool
    reason: str
    eta: list | None = None   # degree-1 coefficient vector
    x: list | None = None     # Lie coordinate vector


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
        return RankOneReport(True, "zero connection",
                             eta=[f.zero] * a.dim(1),
                             x=[f.zero] * conn.lie.dim)
    if r > 1:
        return RankOneReport(False, f"coefficient rank {r} exceeds 1")
    pk = pm = None
    for k in range(conn.coeffs.nrows):
        for m in range(conn.coeffs.ncols):
            if not f.is_zero(conn.coeffs[k, m]):
                pk, pm = k, m
                break
        if pk is not None:
            break
    eta = conn.coeffs.column(pm)
    pivot = conn.coeffs[pk, pm]
    x = [f.div(v, pivot) for v in conn.coeffs.row(pk)]
    deta = a.d_apply(1, eta)
    if any(not f.is_zero(v) for v in deta):
        return RankOneReport(
            False, "rank one, but the one-form factor is not closed")
    return RankOneReport(True, "rank-one with closed factor", eta=eta, x=x)


@dataclass
class DetCutReport:
    member: bool
    reason: str
    eta: list | None = None
    x: list | None = None
    det_value: object | None = None


def pi_membership(conn, rep):
    """Rank-one locus cut out by det(theta(x)) = 0."""
    if not rep.lie.structurally_equal(conn.lie):
        raise FlatConnError("representation is over a different Lie algebra")
    from .liealg import det_theta
    r1 = f1_membership(conn)
    if not r1.member:
        return DetCutReport(False, r1.reason)
    d = det_theta(rep, r1.x)
    f = conn.cdga.field
    if f.is_zero(d):
        return DetCutReport(True, "rank-one with singular action",
                            eta=r1.eta, x=r1.x, det_value=d)
    return DetCutReport(False, "theta acts invertibly on the Lie factor",
                        eta=r1.eta, x=r1.x, det_value=d)


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
    rows = []
    for k in range(a.dim(1)):
        factor = f.pow(s, a.weights[1][k])
        rows.append([f.mul(factor, x) for x in conn.row(k)])
    return FlatConnection(a, conn.lie, Matrix(f, rows, ncols=conn.lie.dim))


# ---------------------------------------------------------------------------
# exhaustive search over a prime field


BRUTE_FORCE_CEILING = 10 ** 8


def flatness_tensors(cdga, lie):
    """Integer tensors (L, Q) with residual_j = (L w)_j + w^T Q_j w for the
    flattened coefficient vector w (row-major).  Entries are reduced residues.

    Used by the vectorized searches; kept independent of the holonomy module
    so that exhaustive cross-checks compare genuinely different assemblies.
    """
    f = cdga.field
    n1, n2, dg = cdga.dim(1), cdga.dim(2), lie.dim
    kdim, rdim = n1 * dg, n2 * dg
    lmat = [[0] * kdim for _ in range(rdim)]
    qmats = [[[0] * kdim for _ in range(kdim)] for _ in range(rdim)]
    d1 = cdga.d_matrix(1)
    struct = lie.structure_tensor()
    for k in range(n1):
        for c in range(n2):
            coef = d1[c, k]
            if f.is_zero(coef):
                continue
            for m in range(dg):
                lmat[c * dg + m][k * dg + m] = int(coef)
    for k in range(n1):
        for l in range(k + 1, n1):
            prod = cdga.product_basis(1, k, 1, l)
            for c, coef in prod.items():
                for alpha in range(dg):
                    for beta in range(dg):
                        for m in range(dg):
                            sc = struct[alpha][beta][m]
                            if f.is_zero(sc):
                                continue
                            qmats[c * dg + m][k * dg + alpha][l * dg + beta] \
                                += int(coef) * int(sc)
    return lmat, qmats


def _scan(lmat, qmats, p, kdim, lo, hi):
    """Evaluate residual_j = (L w)_j + w^T Q_j w mod p at the candidates
    w in F_p^kdim with lexicographic positions lo..hi-1.

    Yields (start, w, mask) per chunk of 2^17 candidates: the chunk's first
    position, its candidates as rows, and where every residual vanishes.
    Chunks bound the memory; the full candidate array is never built.
    Raises FlatConnError when a residual could reach 2^63: the linear part
    is below p^2·kdim and the quadratic part below p^3·kdim^2.
    """
    if p * p * kdim + p ** 3 * kdim * kdim >= 1 << 63:
        raise FlatConnError(f"residuals over F_{p} with {kdim} unknowns "
                            "overflow 64-bit integers")
    import numpy as np

    rdim = len(lmat)
    lnp = np.array(lmat, dtype=np.int64).reshape(rdim, kdim) % p
    qnp = [np.array(q, dtype=np.int64) % p for q in qmats]
    place = np.array([p ** (kdim - 1 - t) for t in range(kdim)],
                     dtype=np.int64)
    chunk = 1 << 17
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        idx = np.arange(start, stop, dtype=np.int64)
        w = (idx[:, None] // place[None, :]) % p
        if rdim == 0:
            mask = np.ones(len(idx), dtype=bool)
        else:
            res = w @ lnp.T
            for j in range(rdim):
                res[:, j] += np.einsum("ni,ij,nj->n", w, qnp[j], w)
            mask = ((res % p) == 0).all(axis=1)
        yield start, w, mask


def brute_force_flat(cdga, lie, jobs=1):
    """All flat connections over a prime field, in lexicographic order of
    the flattened (row-major) coefficient vector.

    Guarded: p^(dim A^1 * dim lie) must not exceed 10^8.  ``jobs`` splits the
    candidate range into contiguous slices evaluated independently; results
    are concatenated in slice order, so the output is identical for any job
    count.
    """
    from concurrent.futures import ThreadPoolExecutor

    f = cdga.field
    if not isinstance(f, PrimeField):
        raise FlatConnError("exhaustive search needs a prime field")
    p = f.p
    n1, dg = cdga.dim(1), lie.dim
    kdim = n1 * dg
    total = p ** kdim
    if total > BRUTE_FORCE_CEILING:
        raise BruteForceBoundError(
            f"{p}^{kdim} = {total} candidates exceed the "
            f"{BRUTE_FORCE_CEILING} ceiling")
    lmat, qmats = flatness_tensors(cdga, lie)

    def scan(lo, hi):
        hits = []
        for _, w, mask in _scan(lmat, qmats, p, kdim, lo, hi):
            for row in w[mask]:
                hits.append(tuple(int(v) for v in row))
        return hits

    jobs = max(1, int(jobs))
    if jobs == 1 or total < (1 << 18):
        found = scan(0, total)
    else:
        bounds = [total * i // jobs for i in range(jobs + 1)]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda se: scan(*se),
                                  zip(bounds[:-1], bounds[1:])))
        found = [h for part in parts for h in part]

    out = []
    for flat_vec in found:
        rows = [list(flat_vec[k * dg:(k + 1) * dg]) for k in range(n1)]
        out.append(FlatConnection(cdga, lie,
                                  Matrix(f, rows, ncols=dg)))
    return out


def lex_index(conn, p):
    """Position of a connection in the lexicographic enumeration used by
    ``brute_force_flat`` over a field with p elements."""
    v = 0
    for row in conn.coeffs.rows:
        for x in row:
            v = v * p + int(x)
    return v
