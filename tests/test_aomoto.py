"""Twisted complexes, resonance depth, and the product depth gap."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import jumploci.aomoto as aomoto
from jumploci.aomoto import (AomotoComplex, AomotoError, PreconditionError,
                             depth_gap, resonance_membership)
from jumploci.cdga import tensor_product_with_inclusions
from jumploci.flatconn import FlatConnection, NotFlatError
from jumploci.liealg import (build_abelian, build_sl, build_sol2, rep_adjoint,
                             rep_defining, rep_direct_sum, rep_trivial)
from jumploci.linalg import Matrix, kernel_basis, rank, vstack_all
from jumploci.models import (build_compact_curve, build_open_curve,
                             build_surface_model)
from jumploci.sampling import sample_flat, surface_witness
from jumploci.scalars import GF, QQ
from jumploci.serialize import resolve_model, resolve_rep
from samplers import alternating_sum, sl_coordinates
from test_flatconn import fractional_lie, fractional_model


def conn(cdga, lie, rows):
    return FlatConnection.from_rows(cdga, lie, rows)


def test_betti_hand_case():
    # [DERIVED by hand] rows (E, 2E) on the genus-1 curve, defining sl2:
    # D0 v = (Ev, 2Ev) has the line through (1,0) as kernel, rank 1;
    # D1(u, v) = theta(E)(v - 2u) has rank 1; so (1, 2, 1).
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    cx = AomotoComplex(conn(a, g, [[1, 0, 0], [2, 0, 0]]), rep_defining(g))
    assert cx.betti_all() == (1, 2, 1)
    assert alternating_sum(cx.betti_all()) == 0
    assert cx.square_is_zero()


def test_trivial_rep_gives_untwisted_multiples():
    a = build_compact_curve(QQ, 2)
    g = build_sl(QQ, 2)
    cx = AomotoComplex(conn(a, g, [[0, 0, 0]] * 4), rep_trivial(g, 3))
    assert cx.betti_all() == (3, 12, 3)


def test_complex_rejects_bad_input():
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    with pytest.raises(NotFlatError):
        AomotoComplex(conn(a, g, [[1, 0, 0], [0, 1, 0]]), rep_defining(g))
    with pytest.raises(AomotoError):
        AomotoComplex(conn(a, g, [[0, 0, 0], [0, 0, 0]]),
                      rep_defining(build_sl(QQ, 3)))


def test_resonance_membership_depths():
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    c = conn(a, g, [[1, 0, 0], [2, 0, 0]])
    theta = rep_defining(g)
    assert resonance_membership(c, theta, 1, 1)
    assert resonance_membership(c, theta, 1, 2)
    assert not resonance_membership(c, theta, 1, 3)
    with pytest.raises(AomotoError):
        resonance_membership(c, theta, 1, 0)


def common_kernel(c, theta):
    """Oracle for H^0: a basis of the vectors that theta of every
    coefficient row kills, from the stacked theta(x_k) alone."""
    a = c.cdga
    return kernel_basis(vstack_all(
        a.field, [theta.apply(c.coeffs.row(k)) for k in range(a.dim(1))],
        theta.dim))


def test_r01_common_kernel():
    # d(1 (x) v) = sum_k a_k (x) theta(x_k) v with the a_k independent, so
    # b0 is the dimension of the common kernel, not just positive with it
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    theta = rep_defining(g)
    c = conn(a, g, [[1, 0, 0], [2, 0, 0]])
    assert common_kernel(c, theta) == [[QQ.one, QQ.zero]]
    assert AomotoComplex(c, theta).betti(0) == 1
    c = conn(a, g, [[0, 0, 1], [0, 0, 2]])
    assert common_kernel(c, theta) == []
    assert AomotoComplex(c, theta).betti(0) == 0

    seen = Counter()
    for f in (QQ, GF(5)):
        for model in (build_compact_curve(f, 2), build_surface_model(f, 1)):
            for theta in (rep_defining(build_sl(f, 2)),
                          rep_defining(build_sol2(f)),
                          rep_defining(build_sl(f, 3)),
                          rep_adjoint(build_sl(f, 2))):
                for s in range(8):
                    c = sample_flat(random.Random(s), model, theta.lie)
                    b0 = AomotoComplex(c, theta).betti(0)
                    assert b0 == len(common_kernel(c, theta))
                    seen[b0] += 1
    assert set(seen) == {0, 1, 2}  # the samples reach each depth


def test_open_curve_euler_identity():
    # chi = 1 - n and every connection is flat (no degree-2 targets)
    a = build_open_curve(QQ, 2)
    g = build_sl(QQ, 2)
    cx = AomotoComplex(conn(a, g, [[1, 0, 0], [0, 1, 0]]), rep_defining(g))
    assert cx.betti_all() == (0, 2, 0)
    assert alternating_sum(cx.betti_all()) == \
        alternating_sum(a.dims()) * 2 == -2


def test_surface_model_square_zero():
    a = build_surface_model(GF(5), 1)
    g = build_sl(GF(5), 2)
    cx = AomotoComplex(conn(a, g, [[1, 0, 0], [2, 0, 0], [0, 0, 0]]),
                       rep_adjoint(g))
    assert cx.square_is_zero()
    assert alternating_sum(cx.betti_all()) == 0
    # a flat point whose t-row is nonzero, so that d(omega) != 0 and the
    # d-term of the twisted differential enters its square
    w = surface_witness(build_surface_model(QQ, 1), build_sl(QQ, 3))
    assert AomotoComplex(w, rep_adjoint(w.lie)).square_is_zero()


@pytest.mark.parametrize("model, theta, cells", [
    # the largest complex the benchmark builds (twisted-fp)
    ("tensor(compact_curve(5),compact_curve(5))", "adjoint(sl(3))",
     64 * (20 + 2040 + 2040 + 20)),
    # torus(2) has dimensions 1, 2, 1: 4 m^2 cells with m trivial copies
    ("torus(2)", 273, 298_116),
    ("torus(2)", 274, 300_304),
], ids=["curve5xcurve5-adjoint-sl3", "torus2-trivial273",
        "torus2-trivial274"])
def test_differential_ceiling_refuses_before_any_assembly(
        model, theta, cells, monkeypatch):
    a = resolve_model(QQ, model)
    rep = (rep_trivial(build_sl(QQ, 2), theta) if isinstance(theta, int)
           else resolve_rep(QQ, theta))
    zero = conn(a, rep.lie, [[0] * rep.lie.dim] * a.dim(1))
    if cells <= aomoto.DIFFERENTIAL_CEILING:
        assert AomotoComplex(zero, rep).betti(0) == rep.dim
        return

    def refused(*args):
        raise AssertionError("assembled a complex past the ceiling")
    monkeypatch.setattr(aomoto, "mc_residual", refused)
    with pytest.raises(AomotoError) as exc:
        AomotoComplex(zero, rep)
    assert str(exc.value) == (
        f"twisted complex too large: its differentials hold {cells} cells "
        f"(limit {aomoto.DIFFERENTIAL_CEILING})")


def test_each_differential_built_and_ranked_once(monkeypatch):
    ranked, built = [], []

    def counting(fn, log):
        def wrapper(*args):
            log.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(aomoto, "rank", counting(aomoto.rank, ranked))
    monkeypatch.setattr(aomoto, "aomoto_matrix",
                        counting(aomoto.aomoto_matrix, built))
    a = build_surface_model(QQ, 1)  # top degree 3: d0, d1, d2
    g = build_sl(QQ, 2)
    c = conn(a, g, [[1, 0, 0], [2, 0, 0], [0, 0, 0]])
    betti = AomotoComplex(c, rep_adjoint(g)).betti_all()
    assert len(ranked) == 3
    built.clear()
    cx = AomotoComplex(c, rep_adjoint(g))
    assert cx.betti(1) == betti[1]
    assert [args[1] for args in built] == [1, 0]
    # the Matrix of a ranked differential is read off the stored rows
    assert cx.matrix(1).shape == (a.dim(2) * 3, a.dim(1) * 3)
    assert [args[1] for args in built] == [1, 0]


def theta_oracle(rep, x):
    """Oracle: theta(x) = sum_m x_m theta(x_m) by Matrix scalings and sums."""
    out = Matrix.zero(rep.lie.field, rep.dim, rep.dim)
    for c, m in zip(x, rep.matrices):
        out = out + m.scale(c)
    return out


def blockwise_aomoto_matrix(conn, rep, i):
    """Oracle: the twisted differential from degree i to degree i+1, block
    by block, D[(c, w), (b, v)] =
        d_i[c, b] delta_{w v} + sum_k prod(a_k, x_b)[c] theta(x_k)[w, v],
    summed entry by entry in the field's own scalars."""
    a = conn.cdga
    dv = rep.dim
    ni, nj = a.dim(i), a.dim(i + 1)
    theta = [theta_oracle(rep, conn.coeffs.row(k)).rows
             for k in range(a.dim(1))]
    rows = [{} for _ in range(nj * dv)]
    for c, drow in enumerate(a.d_matrix(i).rows):
        for b, coef in drow.items():
            for w in range(dv):
                rows[c * dv + w][b * dv + w] = coef
    for b in range(ni):
        for k, th in enumerate(theta):
            for c, coef in a.product_basis(1, k, i, b).items():
                for w, th_row in enumerate(th):
                    row = rows[c * dv + w]
                    for v, x in th_row.items():
                        col = b * dv + v
                        row[col] = row[col] + coef * x if col in row \
                            else coef * x
    return Matrix.from_sums(a.field, rows, ni * dv)


ORACLE_MODELS = ["surface(1)", "compact_curve(2)", "torus(2)",
                 "tensor(compact_curve(1),compact_curve(1))",
                 fractional_model]
ORACLE_REPS = ["adjoint(sl(2))", "defining(sl(2))", "adjoint(sl(3))",
               "defining(sl(3))", "adjoint(sol2)", "defining(sol2)",
               "sum(defining(sl(2)),adjoint(sl(2)))",
               lambda f: rep_adjoint(fractional_lie(f))]


@st.composite
def twisted_inputs(draw):
    """(connection, representation) over Q, F5 or F_{2^31-1}: a flat
    connection with rational entries of differing denominators, rank one
    (eta (x) x, eta closed), along commuting Cartan elements, or the
    surface witness of tensor rank three."""
    f = draw(st.sampled_from([QQ, GF(5), GF(2 ** 31 - 1)]))
    spec = draw(st.sampled_from(ORACLE_MODELS))
    model = spec(f) if callable(spec) else resolve_model(f, spec)
    spec = draw(st.sampled_from(ORACLE_REPS))
    rep = spec(f) if callable(spec) else resolve_rep(f, spec)
    lie = rep.lie
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    closed = model.cocycles(1)

    def closed_form():
        coef = draw(st.lists(entry, min_size=len(closed),
                             max_size=len(closed)))
        return [sum(f.coerce(c) * z[k] for c, z in zip(coef, closed))
                for k in range(model.dim(1))]

    kinds = ["rank_one"]
    if lie.family and lie.family[0] == "sl":
        kinds.append("cartan")
        if lie.family[1] >= 3 and model.family == ("surface", 1):
            kinds.append("witness")
    kind = draw(st.sampled_from(kinds))
    if kind == "witness":
        return surface_witness(model, lie), rep
    if kind == "rank_one":
        xs = [draw(st.lists(entry, min_size=lie.dim, max_size=lie.dim))]
    else:  # the H_i, last in the sl basis, commute
        xs = [[draw(entry) if m == h else 0 for m in range(lie.dim)]
              for h in range(lie.dim - lie.family[1] + 1, lie.dim)]
    etas = [closed_form() for _ in xs]
    rows = [[sum(f.coerce(e[k]) * f.coerce(x[m]) for e, x in zip(etas, xs))
             for m in range(lie.dim)] for k in range(model.dim(1))]
    return conn(model, lie, rows), rep


def assert_matches_oracle(c, rep):
    f, top = c.cdga.field, c.cdga.top_degree
    cx = AomotoComplex(c, rep)
    for k in range(c.cdga.dim(1)):
        assert rep.apply(c.coeffs.row(k)) == theta_oracle(rep, c.coeffs.row(k))
    for i in range(top + 1):
        want = blockwise_aomoto_matrix(c, rep, i)
        got = cx.matrix(i)
        assert got == want
        assert all(type(x) is type(f.zero) for r in got.rows
                   for x in r.values())
        assert cx.rank(i) == (rank(want) if i < top else 0)


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(inputs=twisted_inputs())
def test_aomoto_matrix_matches_the_blockwise_oracle(inputs):
    assert_matches_oracle(*inputs)


@pytest.mark.parametrize("f", [QQ, GF(5), GF(2 ** 31 - 1)])
def test_aomoto_matrix_with_every_denominator_at_once(f):
    # model numerators over 6, adjoint ones over 2, rows over 3·4·7
    model, lie = fractional_model(f), fractional_lie(f)
    eta = [Fraction(1, 3), Fraction(-3, 4), 0]  # closed: no t term
    x = [Fraction(1, 2), Fraction(2, 7), -3]
    c = conn(model, lie, [[f.coerce(e) * f.coerce(v) for v in x]
                          for e in eta])
    assert (AomotoComplex(c, rep_adjoint(lie)).lift > 1) == (f is QQ)
    assert_matches_oracle(c, rep_adjoint(lie))


def depth_gap_config(f):
    left = build_compact_curve(f, 2)
    right = build_compact_curve(f, 1)
    _, incl_l, incl_r = tensor_product_with_inclusions(left, right)
    g = build_sl(f, 2)
    theta = rep_direct_sum(rep_trivial(g, 1), rep_adjoint(g))
    E, F = g.basis_vector("E12"), g.basis_vector("E21")
    c = FlatConnection.from_rows(left, g, [E, F, F, E])
    eta = incl_r.map(1).apply([f.one, f.zero])
    return left, incl_l, incl_r, g, theta, c, eta


def test_depth_gap_report_and_wire_format():
    f = QQ
    left, incl_l, incl_r, g, theta, c, eta = depth_gap_config(f)
    report = depth_gap(incl_l, theta, c, eta)
    assert report.holds
    assert report.base_betti >= 1
    assert report.target_betti > report.base_betti > 1
    d = report.to_dict(f)
    assert set(d) == {"s", "r", "degree", "witnesses", "checks"}
    assert d["s"] == report.base_betti and d["r"] == report.target_betti
    assert d["degree"] == 1
    assert set(d["witnesses"]["eta_tensor_v"]) == {"eta", "fixed_vector"}
    assert all(set(c) == {"name", "ok"} for c in d["checks"])
    assert all(c["ok"] for c in d["checks"])


def test_depth_gap_preconditions():
    f = QQ
    left, incl_l, incl_r, g, theta, c, eta = depth_gap_config(f)
    E, F = g.basis_vector("E12"), g.basis_vector("E21")

    with pytest.raises(PreconditionError, match="killed by"):
        depth_gap(incl_l, rep_defining(g), c, eta)
    with pytest.raises(PreconditionError, match="wrong length"):
        depth_gap(incl_l, theta, c, [f.one])
    with pytest.raises(PreconditionError, match="image of the inclusion"):
        # pull eta from the left factor instead: it lifts through incl_l
        depth_gap(incl_l, theta, c, incl_l.map(1).apply(
            [f.one, f.zero, f.zero, f.zero]))
    with pytest.raises(PreconditionError, match="not flat"):
        depth_gap(incl_l, theta,
                  FlatConnection.from_rows(left, g, [E, F, E, F]), eta)
    with pytest.raises(PreconditionError, match="rank-one"):
        depth_gap(incl_l, theta,
                  FlatConnection.from_rows(left, g, [E, E, E, E]), eta)


@pytest.mark.parametrize("spec", [
    "compact_curve(2)", "surface(1)",
    "tensor(compact_curve(2),compact_curve(2))"])
@seed(20261018)
@settings(max_examples=12, deadline=None)
@given(coef=st.lists(st.integers(-3, 3), min_size=8, max_size=8))
def test_twisted_betti_splits_along_eigenvalues(spec, coef):
    # At eta (x) x with theta(x) diagonal, the adjoint complex splits along
    # the eigenspaces of ad x: b^i = sum_lambda mult(lambda) b^i(A, d +
    # lambda eta).  x = diag(3, -1, -2) has ad-eigenvalues x_i - x_j on
    # E_ij and 0 twice on the Cartan part.  Checked in every degree.
    model = resolve_model(QQ, spec)
    eta = [sum(c * v for c, v in zip(coef, col))
           for col in zip(*model.cocycles(1))]
    g = build_sl(QQ, 3)
    diag = (3, -1, -2)
    x = sl_coordinates(g, Matrix(QQ, [[diag[i] if i == j else 0
                                        for j in range(3)]
                                       for i in range(3)]))
    twisted = AomotoComplex(conn(model, g, [[e * v for v in x] for e in eta]),
                            rep_adjoint(g))
    mult = Counter(diag[i] - diag[j] for i in range(3) for j in range(3)
                   if i != j)
    mult[0] += 2
    line = build_abelian(QQ, 1)
    rank_one = {lam: AomotoComplex(conn(model, line, [[lam * e] for e in eta]),
                                   rep_defining(line))
                for lam in mult}
    for i in range(model.top_degree + 1):
        assert twisted.betti(i) == sum(m * rank_one[lam].betti(i)
                                       for lam, m in mult.items())


@pytest.mark.parametrize("field", [QQ, GF(2 ** 31 - 1)])
@pytest.mark.parametrize("g, h", [(1, 1), (2, 1), (3, 3)])
def test_top_degree_of_a_product_of_curves(g, h, field):
    # The product of closed surfaces of genus g and h is a Poincare duality
    # space of dimension 4 with Euler number (2 - 2g)(2 - 2h).  With the
    # self-dual adjoint coefficients, at any flat point, its twisted Betti
    # numbers satisfy b^i = b^(4-i), and their alternating sum is dim V
    # times that Euler number (Macinic-Papadima-Popescu-Suciu, "Flat
    # connections and resonance varieties: from rank one to higher ranks").
    model = resolve_model(
        field, f"tensor(compact_curve({g}),compact_curve({h}))")
    chi = (2 - 2 * g) * (2 - 2 * h)
    assert alternating_sum(model.dims()) == chi
    rng = random.Random(10 * g + h)
    for n in (2, 3):
        lie = build_sl(field, n)
        eta = [rng.choice((-1, 1)) * rng.randint(1, 5)
               for _ in range(model.dim(1))]
        x = [rng.randint(-5, 5) for _ in range(lie.dim)]
        cx = AomotoComplex(conn(model, lie, [[e * v for v in x] for e in eta]),
                           rep_adjoint(lie))
        betti = cx.betti_all()
        assert len(betti) == 5 and betti == betti[::-1], betti
        assert alternating_sum(betti) == lie.dim * chi
