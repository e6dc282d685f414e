"""Seeded random generation of connections and Lie elements.

The module holds the scenarios' seeded draws.  Every sampler takes an
explicit ``random.Random`` instance so callers can freeze seeds.
Flat-connection samplers are constructive (no rejection on the flatness
equation itself): they build from families that satisfy the Maurer-Cartan
equation identically, then double-check and raise if the construction ever
drifts.  The samplers that only tests draw from (group representations,
determinant-cut points) live in ``tests/samplers.py``.
"""

from fractions import Fraction

from .flatconn import FlatConnection, is_flat
from .liealg import sl_basis, sl_root_index
from .linalg import Matrix


class SamplingError(RuntimeError):
    pass


# ---------------------------------------------------------------- scalars

def rand_scalar(rng, field, span=4):
    if field.characteristic == 0:
        return Fraction(rng.randint(-span, span))
    return rng.randrange(field.p)


def rand_nonzero(rng, field, span=4):
    while True:
        v = rand_scalar(rng, field, span)
        if not field.is_zero(v):
            return v


def rand_vector(rng, field, n, span=4):
    return [rand_scalar(rng, field, span) for _ in range(n)]


# ------------------------------------------------------------ connections

def rand_lie_element(rng, lie, span=4):
    return rand_vector(rng, lie.field, lie.dim, span)


def random_connection(rng, cdga, lie, span=4):
    """Arbitrary coefficient rows — typically not flat."""
    rows = [rand_lie_element(rng, lie, span) for _ in range(cdga.dim(1))]
    return FlatConnection.from_rows(cdga, lie, rows)


def rand_closed_coefficients(rng, cdga, span=4, nonzero=False):
    """Random coefficient vector of a closed one-form (may be zero unless
    nonzero=True)."""
    basis = cdga.cocycles(1)
    f = cdga.field
    if not basis:
        if nonzero:
            raise SamplingError(f"{cdga.name} has no closed one-forms")
        return [f.zero] * cdga.dim(1)
    for _ in range(64):
        coef = [rand_scalar(rng, f, span) for _ in basis]
        out = Matrix.from_columns(f, basis).apply(coef)
        if not nonzero or any(not f.is_zero(v) for v in out):
            return out
    raise SamplingError("could not draw a nonzero closed one-form")


def _closed_tensor(cdga, lie, etas, xs):
    """sum_j etas[j] (x) xs[j].  Flat when every eta is closed and the xs
    commute pairwise: d(eta) = 0 kills the linear term, [x_j, x_k] = 0 the
    bracket term."""
    f = cdga.field
    return FlatConnection(cdga, lie,
                          Matrix.from_columns(f, etas, nrows=cdga.dim(1))
                          @ Matrix(f, xs, ncols=lie.dim))


def _abelian_subalgebras(rng, lie, span):
    """A few coordinate bases of abelian subalgebras, by family."""
    out = []
    if lie.family and lie.family[0] == "sl":
        n = lie.family[1]
        out.append([lie.basis_vector(k) for k, (i, j) in enumerate(sl_basis(n))
                    if i == j])
        out.append([lie.basis_vector(sl_root_index(lie, 1, j))
                    for j in range(2, n + 1)])
    elif lie.is_abelian():
        out.append([lie.basis_vector(i) for i in range(lie.dim)])
    out.append([rand_lie_element(rng, lie, span)])
    return out


def _paired_rows(rng, cdga, lie, span):
    """Rows for curve-like models whose degree-2 obstruction is the sum of
    handle-pair brackets: swapped pairs cancel, leftovers commute.  The
    pairs are consecutive rows; an odd last row (the t of a surface model)
    is zero."""
    n1 = cdga.dim(1)
    g = n1 // 2
    f = cdga.field
    rows = []
    x = rand_lie_element(rng, lie, span)
    y = rand_lie_element(rng, lie, span)
    for i in range(g // 2 * 2):
        rows += [list(x), list(y)] if i % 2 == 0 else [list(y), list(x)]
    if g % 2 == 1:
        z = rand_lie_element(rng, lie, span)
        c = rand_scalar(rng, f, span)
        rows += [list(z), [f.mul(c, zi) for zi in z]]
    if n1 % 2 == 1:
        rows.append([f.zero] * lie.dim)
    return rows


def sample_flat(rng, cdga, lie, span=4, strategy=None):
    """A random flat connection on a recognized model family.

    Strategies: "rank_one" and "abelian" work on every model here; "swap"
    needs at least two handle pairs (compact curve or surface model,
    genus >= 2), and is offered by default only on models those builders
    made; "free" means arbitrary rows and applies only when the model has
    no degree-2 part at all.  The result is re-checked.
    """
    name = cdga.name
    if strategy is None:
        opts = ["rank_one", "abelian"]
        match cdga.family:
            case ("compact_curve" | "surface", genus) if genus >= 2:
                opts.append("swap")
        if cdga.dim(2) == 0:
            opts.append("free")
        strategy = rng.choice(opts)
    if strategy == "rank_one":
        eta = rand_closed_coefficients(rng, cdga, span, nonzero=True)
        conn = _closed_tensor(cdga, lie, [eta],
                              [rand_lie_element(rng, lie, span)])
    elif strategy == "abelian":
        sub = rng.choice(_abelian_subalgebras(rng, lie, span))
        etas = [rand_closed_coefficients(rng, cdga, span) for _ in sub]
        conn = _closed_tensor(cdga, lie, etas, sub)
    elif strategy == "swap":
        conn = FlatConnection.from_rows(cdga, lie,
                                        _paired_rows(rng, cdga, lie, span))
    elif strategy == "free":
        if cdga.dim(2) != 0:
            raise SamplingError(
                f"'free' sampling needs an empty degree 2, {name} has "
                f"dimension {cdga.dim(2)} there")
        conn = random_connection(rng, cdga, lie, span)
    else:
        raise SamplingError(f"unknown strategy {strategy!r}")
    if not is_flat(conn):
        raise SamplingError(
            f"strategy {strategy} produced a non-flat connection on {name}")
    return conn


def surface_witness(cdga, lie):
    """Flat surface-model connection of tensor rank three.

    The first handle pair carries the two simple root vectors E12 and E23 of
    sl(n >= 3) and the extra one-form carries -E13.  Flat because
    [E12, E23] = E13 while E13 commutes with both rows.
    """
    if not (cdga.family and cdga.family[0] == "surface"):
        raise SamplingError("witness lives on a surface model")
    if not (lie.family and lie.family[0] == "sl" and lie.family[1] >= 3):
        raise SamplingError("witness needs sl(n) with n >= 3")
    f = cdga.field
    n1 = cdga.dim(1)
    rows = [[f.zero] * lie.dim for _ in range(n1)]
    rows[0][sl_root_index(lie, 1, 2)] = f.one
    rows[1][sl_root_index(lie, 2, 3)] = f.one
    rows[n1 - 1][sl_root_index(lie, 1, 3)] = f.neg(f.one)
    conn = FlatConnection.from_rows(cdga, lie, rows)
    if not is_flat(conn):
        raise SamplingError("witness construction went wrong")
    return conn


# -------------------------------------------------------------- group reps

def standard_shear_pair(field):
    """The two unit shears generating SL2(Z): [[1,1],[0,1]], [[1,0],[1,1]]."""
    a = Matrix(field, [[1, 1], [0, 1]])
    b = Matrix(field, [[1, 0], [1, 1]])
    return a, b
