"""Seeded samplers that only the tests draw from, and the tests' Euler
characteristic.

Random group representations that satisfy their relators, and random
points of the determinant cut: test inputs, not results, so they live
here and not in the package.  Each takes an explicit ``random.Random``
and draws in a fixed order, so a seed pins its output;
``test_sampling.py`` freezes a digest of those draws.
"""

from jumploci.grouprep import GroupRep
from jumploci.liealg import LieError, _sl_size, traceless_coordinates
from jumploci.linalg import Matrix, det, invert
from jumploci.sampling import (SamplingError, _closed_tensor,
                               rand_closed_coefficients, rand_lie_element,
                               rand_nonzero, rand_scalar, rand_vector)


def alternating_sum(values):
    """sum of (-1)^i values[i]: the Euler characteristic of dimensions or
    Betti numbers listed from degree 0 up."""
    return sum((-1) ** i * v for i, v in enumerate(values))


# --------------------------------------------------------------- matrices

def rand_invertible(rng, field, n, span=3):
    for _ in range(128):
        m = Matrix(field, [rand_vector(rng, field, n, span) for _ in range(n)])
        if not field.is_zero(det(m)):
            return m
    raise SamplingError("no invertible matrix found (astronomically unlikely)")


def rand_unimodular(rng, field, n, steps=5, span=3):
    """Product of elementary shears: always determinant one."""
    acc = Matrix.identity(field, n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        rows = Matrix.identity(field, n).to_lists()
        rows[i][j] = field.coerce(rand_scalar(rng, field, span))
        acc = acc @ Matrix(field, rows)
    return acc


def rand_borel(rng, field, span=3):
    """Upper-triangular 2x2 with determinant one."""
    t = rand_nonzero(rng, field, span)
    u = rand_scalar(rng, field, span)
    return Matrix(field, [[t, u], [field.zero, field.inv(t)]])


def sl_coordinates(g, m):
    """Coordinates of a traceless matrix in the build_sl basis order."""
    n = _sl_size(g)
    if m.shape != (n, n):
        raise LieError(f"expected a {n}x{n} matrix, got {m.shape}")
    return [g.field.coerce(c) for c in traceless_coordinates(m.to_lists())]


# ------------------------------------------------- determinant-cut points

def singular_lie_element(rng, rep, span=4):
    """Nonzero x with det theta(x) = 0, or raise if none can be found.

    For a defining sl(n) action this conjugates a strictly upper-triangular
    (hence nilpotent) matrix; for sol2 the determinant cut is exactly the
    span of e; adjoint actions are singular everywhere.
    """
    lie, f = rep.lie, rep.lie.field
    for _ in range(256):
        x = _singular_candidate(rng, rep, span)
        if all(f.is_zero(c) for c in x):
            continue
        if f.is_zero(det(rep.apply(x))):
            return x
    raise SamplingError(
        f"found no nonzero singular element for {rep.name} on {lie.name}")


def _singular_candidate(rng, rep, span):
    lie, f = rep.lie, rep.lie.field
    match lie.family, rep.family:
        case ("sl", n), ("defining",):
            nilp = [[f.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    nilp[i][j] = rand_scalar(rng, f, span)
            p = rand_unimodular(rng, f, n, steps=4, span=span)
            return sl_coordinates(lie, p @ Matrix(f, nilp) @ invert(p))
        case ("sol2",), _:
            return [f.zero, rand_nonzero(rng, f, span)]
    return rand_lie_element(rng, lie, span)


def sample_pi_element(rng, cdga, rep, span=4):
    """Closed one-form tensor a determinant-cut Lie element: a rank-one flat
    connection that the determinant cut keeps."""
    eta = rand_closed_coefficients(rng, cdga, span, nonzero=True)
    return _closed_tensor(cdga, rep.lie, [eta],
                          [singular_lie_element(rng, rep, span)])


# -------------------------------------------------------------- group reps

def _commuting_pair(rng, field, target, span):
    """Two commuting matrices in the target group."""
    kind = rng.choice(["powers", "diagonal"])
    if kind == "powers":
        m = (rand_borel(rng, field, span) if target == "Borel"
             else rand_unimodular(rng, field, 2, span=span))
        return _power(m, rng.randint(-3, 3)), _power(m, rng.randint(-3, 3))
    ts = [rand_nonzero(rng, field, span) for _ in range(2)]
    pair = [Matrix(field, [[t, field.zero], [field.zero, field.inv(t)]])
            for t in ts]
    if target == "Borel":
        return pair
    p = rand_unimodular(rng, field, 2, span=span)
    pinv = invert(p)
    return [p @ d @ pinv for d in pair]


def _power(m, k):
    f = m.field
    acc = Matrix.identity(f, m.nrows)
    base = m
    if k < 0:
        base = invert(m)
        k = -k
    for _ in range(k):
        acc = acc @ base
    return acc


def sample_group_rep(rng, group, field, target="SL", span=3):
    """A representation satisfying the group's relators.

    Free groups take arbitrary tuples.  Surface groups get each handle pair
    mapped to a commuting pair (so every commutator dies), or — half the
    time at genus two — a swapped tuple (X, Y, Y, X) whose two commutators
    cancel.
    """
    n = len(group.generators)
    if not group.relators:
        mats = [_rand_target(rng, field, target, span) for _ in range(n)]
        return GroupRep(group, target, mats)
    if group.family and group.family[0] == "surface":
        g = group.family[1]
        if g == 2 and rng.random() < 0.5:
            x = _rand_target(rng, field, target, span)
            y = _rand_target(rng, field, target, span)
            return GroupRep(group, target, [x, y, y, x])
        mats = []
        for _ in range(g):
            a, b = _commuting_pair(rng, field, target, span)
            mats += [a, b]
        return GroupRep(group, target, mats)
    raise SamplingError(f"no sampling recipe for {group.name}")


def _rand_target(rng, field, target, span):
    if target == "SL":
        return rand_unimodular(rng, field, 2, span=span)
    if target == "Borel":
        return rand_borel(rng, field, span)
    return rand_invertible(rng, field, 2, span=span)
