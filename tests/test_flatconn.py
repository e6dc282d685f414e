"""Flatness, the rank-one and determinant-cut loci, and exhaustive search."""

import concurrent.futures
import itertools
import json
import os
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from jumploci import flatconn, liealg
from jumploci.cdga import Cdga, tensor_product_with_inclusions
from jumploci.cli import main
from jumploci.flatconn import (BruteForceBoundError, FlatConnection,
                               FlatConnError, NotFlatError, _common_zeros,
                               _kernels, _list_solutions, _place_values,
                               _reduce_fibres, _vertex_cover,
                               brute_force_flat, det_cut,
                               f1_membership, flat_census, flatness_tensors,
                               is_flat, lex_index, mc_residual, pi_membership,
                               pullback, tangent_dimension, weight_scale)
from jumploci.holonomy import holonomy_presentation, relation_zeros
from jumploci.liealg import (LieAlgebra, build_abelian, build_sl,
                             build_sol2, rep_adjoint, rep_defining)
from jumploci.linalg import Matrix, kernel_basis, rank, solve
from jumploci.models import (build_compact_curve, build_open_curve,
                             build_surface_model, build_torus_model,
                             curve_inclusion)
from jumploci.scalars import GF, QQ
from jumploci.scenarios import load_golden
from jumploci.serialize import resolve_model


def conn(cdga, lie, rows):
    return FlatConnection.from_rows(cdga, lie, rows)


def test_mc_residual_hand_case():
    # [DERIVED by hand] on the genus-1 curve model a1 b1 = om and d = 0,
    # so the residual of a1 (x) E12 + b1 (x) E21 is om (x) [E12, E21]
    # = om (x) H1, i.e. the coordinate vector of H1.
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    c = conn(a, g, [[1, 0, 0], [0, 1, 0]])
    assert mc_residual(c) == [QQ.zero, QQ.zero, QQ.one]
    assert not is_flat(c)


def test_flat_examples():
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    assert is_flat(conn(a, g, [[0, 0, 0], [0, 0, 0]]))
    # rows E and 2E commute
    assert is_flat(conn(a, g, [[1, 0, 0], [2, 0, 0]]))
    # rows E and H do not
    assert not is_flat(conn(a, g, [[1, 0, 0], [0, 0, 1]]))


def pairwise_bracket(lie, x, y):
    """Oracle: [x, y] summed over coordinate pairs with field operations,
    from ``structure_tensor``."""
    f, table = lie.field, lie.structure_tensor()
    out = [f.zero] * lie.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for m, c in enumerate(table[i][j]):
                out[m] = f.add(out[m], f.mul(f.mul(xi, yj), c))
    return out


def pairwise_residual(c):
    """Oracle: the Maurer-Cartan residual as one d¹ product plus one
    bracket per pair k < l of one-forms with a nonzero product."""
    a, g, f = c.cdga, c.lie, c.cdga.field
    rows = [c.coeffs.row(k) for k in range(a.dim(1))]
    acc = (a.d_matrix(1) @ c.coeffs).to_lists()
    for k in range(len(rows)):
        for l in range(k + 1, len(rows)):
            prod = a.product_basis(1, k, 1, l)
            br = pairwise_bracket(g, rows[k], rows[l]) if prod else ()
            for out, coef in prod.items():
                for m, x in enumerate(br):
                    acc[out][m] = f.add(acc[out][m], f.mul(coef, x))
    return [x for row in acc for x in row]


def fractional_lie(f):
    """sl(2) on the basis E12/2, E21, H1: [E12/2, E21] = H1/2."""
    return LieAlgebra(f, ["e", "f", "h"], {
        (0, 1): {2: f.coerce(Fraction(1, 2))}, (0, 2): {0: f.coerce(-2)},
        (1, 2): {1: f.coerce(2)}}, name="sl2half")


def fractional_model(f):
    """a b = om/2 and dt = om/3: a surface(1) model cut at degree 2 with
    rescaled products and differential."""
    half = f.coerce(Fraction(1, 2))
    return Cdga(f, "surface1cut", [["1"], ["a", "b", "t"], ["om"]],
                {1: Matrix(f, [[0, 0, Fraction(1, 3)]])},
                {(1, 0, 1, 1): {0: half}, (1, 1, 1, 0): {0: f.neg(half)}})


MODEL_SPECS = ["surface(1)", "surface(2)", "compact_curve(1)",
               "compact_curve(2)", "torus(2)", "torus(3)",
               "tensor(compact_curve(1),surface(1))", fractional_model]
LIES = [lambda f: build_sl(f, 2), lambda f: build_sl(f, 3), build_sol2,
        fractional_lie]


@st.composite
def connections(draw):
    """A connection over Q, F5 or F_{2^31-1} with rational entries of
    differing denominators: dense, sparse, or rank one (often flat)."""
    f = draw(st.sampled_from([QQ, GF(5), GF(2 ** 31 - 1)]))
    spec = draw(st.sampled_from(MODEL_SPECS))
    model = spec(f) if callable(spec) else resolve_model(f, spec)
    lie = draw(st.sampled_from(LIES))(f)
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    if draw(st.booleans()):
        x = draw(st.lists(entry, min_size=lie.dim, max_size=lie.dim))
        eta = draw(st.lists(entry, min_size=model.dim(1),
                            max_size=model.dim(1)))
        rows = [[e * v for v in x] for e in eta]
    else:
        rows = draw(st.lists(st.lists(entry | st.just(0), min_size=lie.dim,
                                      max_size=lie.dim),
                             min_size=model.dim(1), max_size=model.dim(1)))
    return conn(model, lie, rows)


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(c=connections())
def test_mc_residual_matches_the_pairwise_oracle(c):
    f, g = c.cdga.field, c.lie
    got = mc_residual(c)
    assert got == pairwise_residual(c)
    assert all(type(x) is type(f.zero) for x in got)
    # the fast flatness test against the field's own zero test
    assert is_flat(c) == all(f.is_zero(x) for x in got)
    assert all(x is f.zero or not f.is_zero(x) for x in got)
    if c.cdga.dim(1) >= 2:
        assert g.bracket(c.coeffs.row(0), c.coeffs.row(1)) == \
            pairwise_bracket(g, c.coeffs.row(0), c.coeffs.row(1))
    if f.characteristic:
        # L w + w^T Q w mod p, assembled independently in numpy
        lmat, qmats = (t.astype(object) for t in flatness_tensors(c.cdga, g))
        w = np.array([x for k in range(c.cdga.dim(1))
                      for x in c.coeffs.row(k)], dtype=object)
        assert [int(x) % f.p for x in lmat @ w + qmats @ w @ w] == got


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["q", "f5"])
@pytest.mark.parametrize("rows, flat, residual", [
    # [E, F] + [F + H, E] = 2E: the H sums cancel, the E sum does not
    ([[1, 0, 0], [0, 1, 0], [0, 1, 1], [1, 0, 0]], False, [2, 0, 0]),
    # [E, F] + [F, E] = 0: every written sum cancels
    ([[1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 0, 0]], True, [0, 0, 0]),
], ids=["some-cancel", "all-cancel"])
def test_cancelled_residual_sums_stay_the_field_zero(f, rows, flat, residual):
    c = conn(resolve_model(f, "compact_curve(2)"), build_sl(f, 2), rows)
    got = mc_residual(c)
    assert got == [f.coerce(x) for x in residual]
    assert all(x is f.zero for x in got if f.is_zero(x))
    assert is_flat(c) is flat
    assert flat == all(f.is_zero(x) for x in got)


def test_fractional_tables_share_one_denominator():
    a, g = fractional_model(QQ), fractional_lie(QQ)
    assert not a.validate() and not g.validate()
    assert a.one_form_table() == (6, [{2: 2}], [(0, 1, [(0, 3)])])
    assert g.structure_table() == (
        2, [(0, 1, [(2, 1)]), (0, 2, [(0, -4)]), (1, 2, [(1, 4)])])


def test_connection_shape_checked():
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    with pytest.raises(FlatConnError):
        conn(a, g, [[1, 0, 0]])  # one row short


def test_f1_membership_cases():
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    zero = f1_membership(conn(a, g, [[0, 0, 0], [0, 0, 0]]))
    assert zero.member and zero.reason == "zero connection"
    assert zero.eta == [QQ.zero, QQ.zero]
    assert zero.x == [QQ.zero] * 3

    r1 = f1_membership(conn(a, g, [[1, 0, 0], [2, 0, 0]]))
    assert r1.member
    assert r1.eta == [QQ.one, QQ.coerce(2)]
    assert r1.x == [QQ.one, QQ.zero, QQ.zero]

    r2 = f1_membership(conn(a, g, [[1, 0, 0], [0, 1, 0]]))
    assert not r2.member and "rank 2" in r2.reason


def test_f1_rejects_non_closed_factor():
    # On the surface model d(t) = om, so a connection supported on the
    # t row is rank one but its one-form factor is not closed.
    a = build_surface_model(QQ, 1)
    g = build_sl(QQ, 2)
    rep = f1_membership(conn(a, g, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]))
    assert not rep.member and "not closed" in rep.reason


def test_pi_membership():
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    theta = rep_defining(g)
    # nilpotent Lie factor: det theta(E) = 0
    in_pi = pi_membership(conn(a, g, [[1, 0, 0], [2, 0, 0]]), theta)
    assert in_pi.member and QQ.is_zero(in_pi.det_value)
    # semisimple factor: det theta(H) = -1
    semisimple = conn(a, g, [[0, 0, 1], [0, 0, 2]])
    out = pi_membership(semisimple, theta)
    assert not out.member and out.det_value == QQ.coerce(-1)
    assert det_cut(f1_membership(semisimple), theta) == out
    # rank > 1 never qualifies
    r2 = pi_membership(conn(a, g, [[1, 0, 0], [0, 1, 0]]), theta)
    assert not r2.member
    with pytest.raises(FlatConnError):
        pi_membership(conn(a, g, [[0, 0, 0], [0, 0, 0]]),
                      rep_defining(build_sl(QQ, 3)))


def test_pullback_along_curve_inclusion():
    curve, surface, incl = curve_inclusion(QQ, 1)
    g = build_sl(QQ, 2)
    c = conn(curve, g, [[1, 0, 0], [2, 0, 0]])
    up = pullback(incl, c)
    assert up.cdga is surface
    assert up.coeffs.to_lists() == [
        [QQ.one, QQ.zero, QQ.zero],
        [QQ.coerce(2), QQ.zero, QQ.zero],
        [QQ.zero, QQ.zero, QQ.zero],
    ]
    assert is_flat(up)
    with pytest.raises(FlatConnError):
        pullback(incl, up)  # lives on the target, not the source


def test_tangent_dimension_hand_cases():
    g = build_sl(QQ, 2)
    # circle model: no degree 2, the linearized equation is vacuous
    circle = build_torus_model(QQ, 1)
    assert tangent_dimension(conn(circle, g, [[1, 0, 0]])) == 3

    a = build_compact_curve(QQ, 1)
    # at zero the linearization vanishes identically: all 6 directions
    assert tangent_dimension(conn(a, g, [[0, 0, 0], [0, 0, 0]])) == 6
    # [DERIVED by hand] at (E, 2E) the equation is [E, u_b - 2 u_a] = 0;
    # ker(ad E) is the line through E, so u_a free (3) plus one more: 4.
    assert tangent_dimension(conn(a, g, [[1, 0, 0], [2, 0, 0]])) == 4

    with pytest.raises(NotFlatError):
        tangent_dimension(conn(a, g, [[1, 0, 0], [0, 1, 0]]))


def test_tangent_dimension_checks_the_adjoint_once(monkeypatch):
    checks = []
    original = liealg._bracket_defects

    def counted(lie, matrices):
        checks.append(lie.name)
        return original(lie, matrices)

    monkeypatch.setattr(liealg, "_bracket_defects", counted)
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    assert tangent_dimension(conn(a, g, [[1, 0, 0], [2, 0, 0]])) == 4
    assert tangent_dimension(conn(a, g, [[0, 0, 0], [0, 0, 0]])) == 6
    assert checks == ["sl2"]


def test_weight_scale():
    a = build_surface_model(QQ, 1)
    g = build_sl(QQ, 2)
    c = conn(a, g, [[1, 0, 0], [2, 0, 0], [0, 0, 0]])
    scaled = weight_scale(c, 3)
    # weights (1, 1, 2): one-form rows by 3, the t row by 9
    assert scaled.coeffs.to_lists() == [
        [QQ.coerce(3), QQ.zero, QQ.zero],
        [QQ.coerce(6), QQ.zero, QQ.zero],
        [QQ.zero, QQ.zero, QQ.zero],
    ]
    assert is_flat(scaled)
    t_only = conn(a, g, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert weight_scale(t_only, 2).coeffs[2, 0] == QQ.coerce(4)
    with pytest.raises(FlatConnError):
        weight_scale(c, 0)


@pytest.mark.parametrize("f", [QQ, GF(5)])
def test_weight_scale_is_the_row_wise_product(f):
    rng = np.random.default_rng(20261019)
    for spec in ("surface(2)", "compact_curve(2)",
                 "tensor(compact_curve(1),surface(1))"):
        a, g = resolve_model(f, spec), build_sl(f, 2)
        for _ in range(5):
            rows = [[Fraction(int(n), int(d)) for n, d in
                     zip(rng.integers(-3, 4, 3), rng.integers(1, 5, 3))]
                    for _ in range(a.dim(1))]
            c, s = conn(a, g, rows), f.coerce(int(rng.integers(1, 5)))
            want = [[f.mul(f.pow(s, w), x) for x in c.coeffs.row(k)]
                    for k, w in enumerate(a.weights[1])]
            got = weight_scale(c, s).coeffs
            assert got == Matrix(f, want)
            assert all(x for r in got.rows for x in r.values())
            sums = [{j: f.pow(s, w) * x for j, x in r.items()}
                    for w, r in zip(a.weights[1], c.coeffs.rows)]
            assert got == Matrix.from_sums(f, sums, g.dim)


def test_weight_scale_needs_weights():
    plain = Cdga(QQ, "plain", [["1"], ["x"]], {}, {})
    g = build_abelian(QQ, 1)
    with pytest.raises(FlatConnError):
        weight_scale(conn(plain, g, [[1]]), 2)


def test_brute_force_tiny_censuses():
    f3 = GF(3)
    circle = build_torus_model(f3, 1)
    # no degree 2 at all: every connection is flat
    flats = brute_force_flat(circle, build_abelian(f3, 1))
    assert len(flats) == 3
    flats = brute_force_flat(circle, build_sl(f3, 2))
    assert len(flats) == 27
    assert [lex_index(c, 3) for c in flats] == list(range(27))


def test_brute_force_curve_census():
    f3 = GF(3)
    a = build_compact_curve(f3, 1)
    g = build_sl(f3, 2)
    flats = brute_force_flat(a, g)
    # [DERIVED] 105 commuting pairs in sl2(F_3), counted by an independent
    # script enumerating literal 2x2 matrices mod 3
    assert len(flats) == 105
    assert all(is_flat(c) for c in flats)
    idx = [lex_index(c, 3) for c in flats]
    assert idx == sorted(idx)


def test_brute_force_guards():
    with pytest.raises(FlatConnError):
        brute_force_flat(build_compact_curve(QQ, 1), build_sl(QQ, 2))
    f5 = GF(5)
    with pytest.raises(BruteForceBoundError):
        # 5^12 coefficient tuples is past the enumeration ceiling
        brute_force_flat(build_compact_curve(f5, 2), build_sl(f5, 2))


def test_scan_refuses_int64_overflow():
    # 2 unknowns over F_p, p = 2^31 - 1: a quadratic residual can reach
    # about 4 p^3 > 2^63, so the solver refuses before it builds any array
    p = 2 ** 31 - 1
    lmat = [[1, 1]]
    qmats = [[[0, 1], [0, 0]]]
    with pytest.raises(FlatConnError, match="overflow"):
        _common_zeros(lmat, qmats, p, 2)


# ---------------------------------------------------------------------------
# the fibred solver against the full candidate scan


def full_scan(lmat, qmats, p, kdim):
    """Oracle: evaluate residual_j = (L w)_j + w^T Q_j w mod p at every w
    in F_p^kdim, in chunks of 2^17 lexicographic positions, and return the
    sorted positions where every residual vanishes."""
    rdim = len(lmat)
    lnp = np.array(lmat, dtype=np.int64).reshape(rdim, kdim) % p
    qnp = [np.array(q, dtype=np.int64) % p for q in qmats]
    place = np.array([p ** (kdim - 1 - t) for t in range(kdim)],
                     dtype=np.int64)
    total = p ** kdim
    hits = []
    for start in range(0, total, 1 << 17):
        idx = np.arange(start, min(start + (1 << 17), total), dtype=np.int64)
        w = (idx[:, None] // place[None, :]) % p
        res = w @ lnp.T
        for j in range(rdim):
            res[:, j] += np.einsum("ni,ij,nj->n", w, qnp[j], w)
        hits.append(idx[((res % p) == 0).all(axis=1)])
    return np.concatenate(hits)


def fibre_oracle(lmat, qmats, p, kdim):
    """Oracle: fix the unknowns of the minimum vertex cover C of the
    quadratic terms and solve the affine system of every one of the p^|C|
    fibres, a chunk at a time, pruning none; return the sorted positions of
    their points."""
    rdim = len(lmat)
    lnp = np.array(lmat, dtype=np.int64).reshape(rdim, kdim) % p
    qnp = np.array(qmats, dtype=np.int64).reshape(rdim, kdim, kdim) % p
    cover = _vertex_cover(qnp)
    free = [i for i in range(kdim) if i not in cover]
    c, nf = len(cover), len(free)
    place = _place_values(p, kdim)
    # residual_r = lf[r] . w_F + sum_a w_a (lc[r, a] + mix[a, r] . w_F
    #                                       + qcc[a, r] . w_C)
    lf, lc = lnp[:, free], lnp[:, cover]
    sym = qnp + qnp.transpose(0, 2, 1)
    mix = (sym[:, cover][:, :, free] % p).transpose(1, 0, 2)
    qcc = qnp[:, cover][:, :, cover].transpose(1, 0, 2)
    chunk = max(1, (1 << 20) // (rdim * (max(c, nf) + 1)))
    parts = [np.zeros(0, dtype=np.int64)]
    for start in range(0, p ** c, chunk):
        wc = (np.arange(start, min(start + chunk, p ** c), dtype=np.int64)
              [:, None] // _place_values(p, c)) % p
        n = len(wc)
        aug = np.empty((n, rdim, nf + 1), dtype=np.int64)
        aug[:, :, :nf] = (wc @ mix.reshape(c, rdim * nf)).reshape(
            n, rdim, nf) + lf
        quad = (wc @ qcc.reshape(c, rdim * c)).reshape(n, rdim, c) % p
        aug[:, :, nf] = wc @ lc.T + (quad * wc[:, None, :]).sum(axis=2)
        aug %= p
        for pick, x0, kern in _kernels(aug, p):
            parts.append(_list_solutions(x0, kern, p, wc[pick] @ place[cover],
                                         place[free]))
    return np.sort(np.concatenate(parts))


@st.composite
def sparse_systems(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    kdim = draw(st.integers(1, 6))
    rdim = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))

    def entry():
        return draw(st.integers(-2 * p, 2 * p)) if \
            draw(st.floats(0, 1)) < density else 0

    lmat = [[entry() for _ in range(kdim)] for _ in range(rdim)]
    # off-diagonal and diagonal quadratic terms alike
    qmats = [[[entry() for _ in range(kdim)] for _ in range(kdim)]
             for _ in range(rdim)]
    return lmat, qmats, p, kdim


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(system=sparse_systems())
def test_fibred_zeros_match_full_scan(system):
    lmat, qmats, p, kdim = system
    expected = full_scan(lmat, qmats, p, kdim).tolist()
    oracle = fibre_oracle(lmat, qmats, p, kdim).tolist()
    assert oracle == expected
    for jobs in (1, 2):
        got = _common_zeros(lmat, qmats, p, kdim, jobs).tolist()
        assert got == expected and got == oracle


@st.composite
def affine_batches(draw):
    """A batch of affine systems [A | b] mod p, one per fibre, with rows
    that are often zero or repeated so that ranks fall short."""
    p = draw(st.sampled_from([3, 5, 7]))
    n, rdim, nf = (draw(st.integers(1, 6)), draw(st.integers(1, 5)),
                   draw(st.integers(0, 5)))
    pool = [draw(st.lists(st.integers(0, p - 1), min_size=nf + 1,
                          max_size=nf + 1)) for _ in range(3)]
    return p, np.array([[draw(st.sampled_from(pool + [[0] * (nf + 1)]))
                         for _ in range(rdim)] for _ in range(n)],
                       dtype=np.int64).reshape(n, rdim, nf + 1)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(batch=affine_batches())
def test_fibre_reduction_matches_exact_rank(batch):
    # every fibre's rank and consistency against the exact sparse
    # elimination of linalg, one system at a time
    p, aug = batch
    nf = aug.shape[2] - 1
    f = GF(p)
    systems = aug.tolist()
    rnk, pivot_row, consistent = _reduce_fibres(aug, p)
    for n, rows in enumerate(systems):
        want = rank(Matrix(f, [r[:nf] for r in rows], ncols=nf))
        assert rnk[n] == want
        assert consistent[n] == (rank(Matrix(f, rows, ncols=nf + 1)) == want)
        assert (pivot_row[n] >= 0).sum() == want


@st.composite
def kernel_batches(draw):
    """A batch of systems [A | b] mod p whose rows of A come from a pool of
    three and whose b comes from a pool of two, so that ranks fall short
    and equal rows of A often disagree in b: inconsistent systems, and
    nullities from 0 to nf, the latter from all-zero rows."""
    p = draw(st.sampled_from([3, 5, 7, (1 << 31) - 1]))
    n, rdim, nf = (draw(st.integers(1, 6)), draw(st.integers(1, 5)),
                   draw(st.integers(0, 4)))
    value = st.integers(0, p - 1)
    pool = [draw(st.lists(value, min_size=nf, max_size=nf))
            for _ in range(3)] + [[0] * nf]
    rhs = [0, draw(value)]
    rows = [draw(st.sampled_from(pool)) + [draw(st.sampled_from(rhs))]
            for _ in range(n * rdim)]
    return p, np.array(rows, dtype=np.int64).reshape(n, rdim, nf + 1)


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(batch=kernel_batches())
@example(batch=(7, np.array([[[1, 2, 3], [1, 2, 4]]])))  # inconsistent
@example(batch=(5, np.array([[[1, 0, 1], [0, 1, 2]]])))  # nullity 0
@example(batch=(3, np.array([[[0, 0, 0]], [[0, 0, 1]]])))  # nullity nf
def test_kernels_match_exact_solve_and_kernel_basis(batch):
    # every system's solution with the free unknowns at 0 and its kernel
    # basis against the exact sparse elimination of linalg, one at a time
    p, aug = batch
    nf = aug.shape[2] - 1
    f = GF(p)
    systems = aug.tolist()
    groups = _kernels(aug, p)
    nullities = [kern.shape[1] for _, _, kern in groups]
    assert nullities == sorted(set(nullities))
    solved = {}
    for pick, x0, kern in groups:
        for n, x, k in zip(pick.tolist(), x0.tolist(), kern.tolist()):
            assert n not in solved
            solved[n] = (x, k)
    for n, rows in enumerate(systems):
        a = Matrix(f, [r[:nf] for r in rows], ncols=nf)
        x = solve(a, [-r[nf] for r in rows])
        if x is None:
            assert n not in solved
        else:
            assert solved[n] == (x, kernel_basis(a))


@pytest.mark.parametrize("make_model", [
    lambda f: build_surface_model(f, 1),
    lambda f: build_surface_model(f, 2),
    lambda f: tensor_product_with_inclusions(
        build_surface_model(f, 1), build_compact_curve(f, 1))[0]],
    ids=["surface1", "surface2", "surface1-x-curve1"])
def test_linear_part_is_the_kronecker_product_of_d1(make_model):
    # flatness_tensors assembles L = d¹ ⊗ 1 with einsum; np.kron is the
    # textbook form of the same product
    f = GF(5)
    model = make_model(f)
    d1 = np.array(model.d_matrix(1).to_lists(), dtype=np.int64).reshape(
        model.dim(2), model.dim(1))
    assert d1.any()
    for lie in (build_sl(f, 2), build_sol2(f), build_sl(f, 3)):
        lmat = flatness_tensors(model, lie)[0]
        assert lmat.dtype == np.int64
        assert np.array_equal(
            lmat, np.kron(d1, np.eye(lie.dim, dtype=np.int64)))


def census_system(model, lie):
    lmat, qmats = flatness_tensors(model, lie)
    return lmat, qmats, model.field.p, model.dim(1) * lie.dim


def test_jobs_split_the_fibres_into_contiguous_batches(monkeypatch):
    # compact_curve(1) x sl(3) over F3: the walk fixes the 8 cover
    # unknowns with checks at prefix lengths 5, 6 and 8, and every prefix
    # extends to a flat point, so it reduces 3^5, 3^6 and 3^8 systems.  Two
    # jobs on two CPUs split the 243 prefixes of the first level into two
    # contiguous ranges, and each worker walks everything below its own.
    f3 = GF(3)
    system = census_system(build_compact_curve(f3, 1), build_sl(f3, 3))
    walker = threading.local()
    seen = []
    original = flatconn._reduce_fibres

    def recorded(aug, p):
        seen.append((walker.range, aug.shape[1], aug.shape[0]))
        return original(aug, p)

    class TaggingPool(concurrent.futures.ThreadPoolExecutor):
        """Tags each worker's reductions with the range it walks."""

        def map(self, fn, *iterables):
            def tagged(lo, hi):
                walker.range = (lo, hi)
                return fn(lo, hi)
            return super().map(tagged, *iterables)

    monkeypatch.setattr(flatconn, "_reduce_fibres", recorded)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", TaggingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    one = _common_zeros(*system, jobs=1)
    assert seen == [((0, 243), 1, 243), ((0, 243), 2, 729),
                    ((0, 243), 8, 6561)]
    seen.clear()
    two = _common_zeros(*system, jobs=2)
    assert {r for r, _, _ in seen} == {(0, 121), (121, 243)}
    for lo, hi in ((0, 121), (121, 243)):
        assert [n for r, rows, n in seen if r == (lo, hi) and rows == 1] \
            == [hi - lo]
    for rows, total in ((2, 729), (8, 6561)):
        assert sum(n for _, r, n in seen if r == rows) == total
    assert len(one) == 134865 and two.tolist() == one.tolist()


def test_worker_count_is_capped_by_cpus_and_fibres(monkeypatch):
    sizes = []

    class SerialPool:
        """Records ``max_workers`` and maps in the calling thread, so no
        thread starts whatever it is asked for."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    f3 = GF(3)
    # surface(1) x sl(2): a cover of 6 unknowns, 729 fibres
    system = census_system(build_surface_model(f3, 1), build_sl(f3, 2))
    want = _common_zeros(*system).tolist()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    assert _common_zeros(*system, jobs=10 ** 6).tolist() == want
    assert sizes == [min(os.cpu_count() or 1, 729)]
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _common_zeros(*system, jobs=10 ** 6).tolist() == want
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _common_zeros(*system, jobs=3).tolist() == want
    assert sizes[1:] == [64, 1]
    # open_curve(4) has no degree 2: no quadratic term, one fibre
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    open4 = census_system(build_open_curve(f3, 4), build_sl(f3, 2))
    assert _common_zeros(*open4, jobs=10 ** 6).tolist() == \
        list(range(3 ** 12))
    assert sizes[3:] == [1]


def test_walk_prunes_the_census_workload(monkeypatch):
    # surface(1) x sl(2) over F5 has a cover of 6 unknowns, so solving every
    # fibre reduces 5^6 systems at the last level, where every residual is
    # affine; the walk drops inconsistent prefixes before it gets there
    f5 = GF(5)
    system = census_system(build_surface_model(f5, 1), build_sl(f5, 2))
    last = []
    original = flatconn._reduce_fibres

    def recorded(aug, p):
        if aug.shape[1] == len(system[0]):
            last.append(aug.shape[0])
        return original(aug, p)

    monkeypatch.setattr(flatconn, "_reduce_fibres", recorded)
    got = _common_zeros(*system)
    assert 0 < sum(last) < 5 ** 6
    frozen = load_golden("census_surface_g1_sl2_f5.json")
    assert len(got) == 745
    assert got.tolist() == frozen["solution_indices"]


def test_walk_agrees_with_both_oracles_on_a_product_of_curves():
    # curve(1) (x) curve(1) x sl(2) over F3: 3^12 candidates, 1,041 flats
    f3 = GF(3)
    model = tensor_product_with_inclusions(build_compact_curve(f3, 1),
                                           build_compact_curve(f3, 1))[0]
    system = census_system(model, build_sl(f3, 2))
    assert system[3] == 12
    expected = full_scan(*system).tolist()
    assert len(expected) == 1041
    assert fibre_oracle(*system).tolist() == expected
    for jobs in (1, 2):
        assert _common_zeros(*system, jobs=jobs).tolist() == expected


def test_walk_memory_is_bounded_by_one_batch_per_level():
    # the sum of 12 squares over F3: the one residual's cover support is
    # every unknown, so no prefix is pruned and the walk lists the 177,633
    # zeros of test_hit_ceiling_is_the_same_for_any_job_count from 3^12
    # fibres, in batches no larger than the oracle's
    kdim = 12
    lmat = [[0] * kdim]
    qmats = [[[int(i == j) for j in range(kdim)] for i in range(kdim)]]
    peaks = {}
    for solve in (fibre_oracle, _common_zeros):
        tracemalloc.start()
        try:
            got = solve(lmat, qmats, 3, kdim)
            peaks[solve] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 177633
    assert peaks[_common_zeros] <= peaks[fibre_oracle]


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(system=sparse_systems())
def test_vertex_cover_touches_every_quadratic_term(system):
    lmat, qmats, p, kdim = system
    qnp = np.array(qmats, dtype=np.int64) % p
    cover = set(_vertex_cover(qnp))
    for q in qnp:
        for i, j in zip(*np.nonzero(q)):
            assert i in cover or j in cover
    assert _vertex_cover(qnp) == sorted(cover)


@st.composite
def small_graphs(draw):
    """A one-residual quadratic stack on up to 10 unknowns: random edges
    and a few diagonal terms."""
    n = draw(st.integers(1, 10))
    q = np.zeros((1, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            if draw(st.integers(0, 9)) < (1 if i == j else 4):
                q[0, i, j] = 1
    return q


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(qnp=small_graphs())
def test_vertex_cover_is_minimum(qnp):
    n = qnp.shape[1]
    terms = list(zip(*np.nonzero(qnp[0])))
    smallest = min(len(s) for k in range(n + 1)
                   for s in itertools.combinations(range(n), k)
                   if all(i in s or j in s for i, j in terms))
    cover = _vertex_cover(qnp)
    assert all(i in cover or j in cover for i, j in terms)
    assert len(cover) == smallest


def test_exact_cover_beats_greedy_only_when_smaller():
    # [DERIVED by exhaustive search over subsets] torus(3) x sol2 needs 3
    # unknowns, e.g. {0, 2, 4}, where a greedy cover picks 4.  On
    # surface(1) x sl2 the minimum is the greedy cover's 6 of 9.
    for (model, lie), want in (
            ((build_torus_model(GF(5), 3), build_sol2(GF(5))), [0, 2, 4]),
            ((build_surface_model(GF(5), 1), build_sl(GF(5), 2)),
             [0, 1, 2, 3, 4, 5])):
        qnp = np.array(flatness_tensors(model, lie)[1], dtype=np.int64) % 5
        assert _vertex_cover(qnp) == want


@pytest.mark.parametrize("make, p", [
    (lambda f: (build_compact_curve(f, 1), build_sl(f, 2)), 5),
    (lambda f: (build_torus_model(f, 3), build_sol2(f)), 5),
    (lambda f: (build_compact_curve(f, 2), build_sl(f, 2)), 3),
    (lambda f: (build_open_curve(f, 2), build_sl(f, 2)), 3),
    (lambda f: (build_torus_model(f, 1), build_abelian(f, 2)), 7),
])
def test_fibred_census_matches_full_scan(make, p):
    model, lie = make(GF(p))
    lmat, qmats = flatness_tensors(model, lie)
    kdim = model.dim(1) * lie.dim
    expected = full_scan(lmat, qmats, p, kdim).tolist()
    for jobs in (1, 2):
        assert [lex_index(c, p) for c in
                brute_force_flat(model, lie, jobs)] == expected


@pytest.mark.parametrize("golden, key, p, make", [
    ("census_surface_g1_sl2_f3.json", None, 3,
     lambda f: (build_surface_model(f, 1), build_sl(f, 2))),
    ("census_surface_g1_sl2_f5.json", None, 5,
     lambda f: (build_surface_model(f, 1), build_sl(f, 2))),
    ("census_torus_n2_f3.json", "sl2", 3,
     lambda f: (build_torus_model(f, 2), build_sl(f, 2))),
    ("census_torus_n2_f3.json", "sol2", 3,
     lambda f: (build_torus_model(f, 2), build_sol2(f))),
])
def test_census_goldens_come_back_unchanged(golden, key, p, make):
    frozen = load_golden(golden)
    if key is not None:
        frozen = frozen[key]
    model, lie = make(GF(p))
    assert p ** (model.dim(1) * lie.dim) == frozen["candidates"]
    for jobs in (1, 2, 3):
        flats = brute_force_flat(model, lie, jobs)
        assert len(flats) == frozen["count"]
        assert [lex_index(c, p) for c in flats] == frozen["solution_indices"]


# ---------------------------------------------------------------------------
# the census as one sorted position array, and its bound on hits


def census_by_relations(model, lie):
    return relation_zeros(holonomy_presentation(model), lie)


CENSUSES = [pytest.param(flat_census, id="flat_census"),
            pytest.param(census_by_relations, id="relation_zeros")]


@pytest.mark.parametrize("census", CENSUSES)
def test_census_refuses_past_the_hit_ceiling(census):
    # open_curve(n) has no degree 2, so every one of its p^(n dim g)
    # connections is flat.  3^16 = 43,046,721 hits: refused before any is
    # listed, so nothing in proportion to them is allocated (their
    # positions alone would take 344 MB).
    f3, f11 = GF(3), GF(11)
    tracemalloc.start()
    try:
        with pytest.raises(BruteForceBoundError, match="points"):
            census(build_open_curve(f3, 2), build_sl(f3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    with pytest.raises(BruteForceBoundError, match="points"):
        census(build_open_curve(f11, 2), build_sl(f11, 2))   # 1,771,561
    hits = census(build_open_curve(f3, 4), build_sl(f3, 2))
    assert hits.tolist() == list(range(3 ** 12))


def test_hit_ceiling_is_the_same_for_any_job_count(monkeypatch):
    # sum of 12 squares over F_3: every unknown is in the cover, so the
    # 3^12 fibres split between two threads.  [DERIVED] A nondegenerate
    # split quadratic form in 12 unknowns over F_q has
    # q^11 + q^6 - q^5 = 177,633 zeros.
    kdim, count = 12, 177633
    lmat = [[0] * kdim]
    qmats = [[[int(i == j) for j in range(kdim)] for i in range(kdim)]]
    got = _common_zeros(lmat, qmats, 3, kdim)
    assert len(got) == count
    # each thread holds fewer than count - 1, so only the joined total
    # can refuse the two-thread run, which needs two CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    half = 3 ** kdim // 2
    assert max((got < half).sum(), (got >= half).sum()) < count - 1
    for ceiling, refused in ((count - 1, True), (count, False)):
        monkeypatch.setattr(flatconn, "HIT_CEILING", ceiling)
        for jobs in (1, 2):
            if refused:
                with pytest.raises(BruteForceBoundError):
                    _common_zeros(lmat, qmats, 3, kdim, jobs)
            else:
                assert _common_zeros(lmat, qmats, 3, kdim,
                                     jobs).tolist() == got.tolist()


def test_hit_bound_refuses_before_any_point_is_listed(monkeypatch):
    # surface(1) x sl(2) over F3: 105 flats in one chunk of 729 fibres
    f3 = GF(3)
    system = census_system(build_surface_model(f3, 1), build_sl(f3, 2))
    assert len(_common_zeros(*system)) == 105

    def never(*args):
        raise AssertionError("a point was listed past the ceiling")

    monkeypatch.setattr(flatconn, "HIT_CEILING", 104)
    monkeypatch.setattr(flatconn, "_list_solutions", never)
    with pytest.raises(BruteForceBoundError, match="105 points"):
        _common_zeros(*system)


def test_large_census_agrees_four_ways(capsys):
    # [DERIVED] compact_curve(1) has d = 0 and one product a*b, so its
    # flat sl(3) connections are the commuting pairs (x, y): for each x, y
    # runs over ker ad x, and |F| = sum over x in sl3(F3) of
    # 3^(8 - rank ad x).
    f3 = GF(3)
    model, lie = build_compact_curve(f3, 1), build_sl(f3, 3)
    ad = rep_adjoint(lie)
    derived = sum(3 ** (8 - rank(ad.apply(x)))
                  for x in itertools.product(range(3), repeat=8))
    assert derived == 134865
    hits = flat_census(model, lie).tolist()
    assert len(hits) == derived
    assert census_by_relations(model, lie).tolist() == hits
    assert [lex_index(c, 3) for c in brute_force_flat(model, lie)] == hits
    assert main(["brute-force", "--field", "f3", "--json", "--input",
                 '{"cdga": "compact_curve(1)", "lie": "sl(3)"}']) == 0
    assert json.loads(capsys.readouterr().out)["solution_indices"] == hits
