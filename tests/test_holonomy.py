"""Presentations read off a model and their evaluation on Lie elements."""

from itertools import product as iproduct

import numpy as np
import pytest

from jumploci import holonomy
from jumploci.cdga import tensor_product_with_inclusions
from jumploci.flatconn import (BruteForceBoundError, FlatConnection,
                               flatness_tensors, is_flat, mc_residual)
from jumploci.holonomy import (HolonomyError, HolonomyPresentation, Relation,
                               evaluate_relation, failing_relations,
                               holonomy_presentation, relation_check,
                               relation_tensors, relation_zeros)
from jumploci.liealg import build_sl, build_sol2
from jumploci.linalg import Matrix
from jumploci.models import (build_compact_curve, build_open_curve,
                             build_os_arrangement, build_surface_model,
                             build_torus_model)
from jumploci.sampling import surface_witness
from jumploci.scalars import GF, QQ


def test_torus_presentation():
    pres = holonomy_presentation(build_torus_model(QQ, 2))
    assert pres.generators == ["e1", "e2"]
    assert len(pres.relations) == 1
    r = pres.relations[0]
    assert r.lin == {}
    assert r.quad == {(0, 1): QQ.one}
    assert "[e1,e2]" in pres.describe()


def test_compact_curve_presentation():
    pres = holonomy_presentation(build_compact_curve(QQ, 2))
    assert pres.generators == ["a1", "b1", "a2", "b2"]
    (r,) = pres.relations
    assert r.quad == {(0, 1): QQ.one, (2, 3): QQ.one} and not r.lin


def test_surface_model_presentation_raw():
    pres = holonomy_presentation(build_surface_model(QQ, 1))
    assert pres.generators == ["a1", "b1", "t"]
    assert len(pres.relations) == 3
    first = pres.relations[0]
    assert first.lin == {2: QQ.one}
    assert first.quad == {(0, 1): QQ.one}
    assert pres.relations[1].quad == {(0, 2): QQ.one}
    assert pres.relations[2].quad == {(1, 2): QQ.one}


@pytest.mark.parametrize("make_lie, g, count", [
    pytest.param(lambda f: build_sl(f, 2), 1, 105, id="sl2-g1"),
    pytest.param(build_sol2, 1, 33, id="sol2-g1"),
    pytest.param(build_sol2, 2, 2241, id="sol2-g2"),
])
def test_surface_relation_zeros_are_the_eliminated_solutions(make_lie, g,
                                                             count):
    # t + r = 0 and [x, t] = 0 vanish exactly at (x1, y1, ..., -r) with
    # r = sum [x_i, y_i] and every [x, r] = 0, found here pair by pair
    f3 = GF(3)
    lie = make_lie(f3)
    pairs = list(iproduct(iproduct(range(3), repeat=lie.dim), repeat=2))
    want = []
    for handles in iproduct(pairs, repeat=g):
        xs = [list(x) for pair in handles for x in pair]
        r = [0] * lie.dim
        for x, y in handles:
            r = [(u + int(v)) % 3
                 for u, v in zip(r, lie.bracket(list(x), list(y)))]
        if all(lie.is_zero_vector(lie.bracket(x, r)) for x in xs):
            pos = 0
            for digit in [d for x in xs for d in x] + [-c % 3 for c in r]:
                pos = pos * 3 + digit
            want.append(pos)
    assert len(want) == count
    pres = holonomy_presentation(build_surface_model(f3, g))
    assert relation_zeros(pres, lie).tolist() == sorted(want)


def test_relation_normalization():
    # flipped quadratic keys pick up a sign and can cancel
    r = Relation(quad={(1, 0): 1, (0, 1): 1}).normalized(QQ)
    assert r.quad == {}
    r = Relation(quad={(1, 0): 1}).normalized(QQ)
    assert r.quad == {(0, 1): QQ.coerce(-1)}


def test_evaluate_relation_hand_case():
    g = build_sl(QQ, 2)
    rows = [g.basis_vector("E12"), g.basis_vector("E21")]
    rel = Relation(lin={0: QQ.one}, quad={(0, 1): QQ.coerce(2)})
    # E + 2 [E, F] = E + 2 H
    assert evaluate_relation(rel, g, rows) == [QQ.one, QQ.zero, QQ.coerce(2)]


def test_relation_check():
    p_h = holonomy_presentation(build_compact_curve(QQ, 1))
    g = build_sl(QQ, 2)
    assert relation_check(p_h, g, Matrix(QQ, [[1, 0, 0], [2, 0, 0]]))
    assert not relation_check(p_h, g, Matrix(QQ, [[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(HolonomyError):
        relation_check(p_h, g, Matrix(QQ, [[1, 0, 0]]))


def test_failing_relations_are_the_nonzero_residual_blocks():
    # relation c of holonomy(surface(1)) is the degree-2 block c of the
    # Maurer-Cartan residual, computed by flatconn's own assembly
    f3 = GF(3)
    model, g = build_surface_model(f3, 1), build_sl(f3, 2)
    pres = holonomy_presentation(model)
    for rows in ([[1, 0, 0], [0, 0, 0], [0, 0, 1]],
                 [[1, 0, 0], [2, 0, 0], [0, 0, 0]],
                 [[1, 0, 0], [0, 1, 0], [0, 2, 1]],
                 [[0, 0, 1], [0, 0, 0], [0, 0, 0]]):
        res = mc_residual(FlatConnection.from_rows(model, g, rows))
        blocks = [res[3 * c:3 * c + 3] for c in range(model.dim(2))]
        want = [c for c, b in enumerate(blocks) if any(b)]
        got = failing_relations(pres, g, Matrix(f3, rows))
        assert got == want
        assert relation_check(pres, g, Matrix(f3, rows)) == (not want)
    assert failing_relations(pres, g, Matrix(
        f3, [[1, 0, 0], [0, 0, 0], [0, 0, 1]])) == [0, 1]
    with pytest.raises(HolonomyError):
        failing_relations(pres, g, Matrix(f3, [[1, 0, 0]]))


def test_presentation_rejects_bad_indices():
    with pytest.raises(HolonomyError):
        HolonomyPresentation(QQ, ["x"], [Relation(lin={3: 1})])


def test_counterexample_rho():
    # the witness kills every relation of the surface model, while its
    # handle rows send the compact-curve relation r to E13
    a, lie = build_surface_model(QQ, 2), build_sl(QQ, 3)
    w = surface_witness(a, lie)
    assert relation_check(holonomy_presentation(a), lie, w.coeffs)
    p_h = holonomy_presentation(build_compact_curve(QQ, 2))
    rows = [w.coeffs.row(k) for k in range(4)]
    assert not relation_check(p_h, lie, Matrix(QQ, rows))
    assert evaluate_relation(p_h.relations[0], lie, rows) == \
        lie.basis_vector("E13")


def test_correspondence_on_samples():
    a = build_compact_curve(GF(3), 1)
    g = build_sl(GF(3), 2)
    pres = holonomy_presentation(a)
    for rows in ([[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [2, 0, 0]],
                 [[1, 0, 0], [0, 1, 0]], [[0, 0, 1], [0, 0, 2]]):
        assignment = Matrix(GF(3), rows)
        assert relation_check(pres, g, assignment) == \
            is_flat(FlatConnection(a, g, assignment))


def test_mask_matches_direct_loop():
    f3 = GF(3)
    a = build_compact_curve(f3, 1)
    g = build_sl(f3, 2)
    pres = holonomy_presentation(a)
    zeros = set(relation_zeros(pres, g).tolist())
    kdim = 2 * g.dim
    for v in range(3 ** kdim):   # every assignment
        digits = []
        rem = v
        for t in range(kdim):
            digits.append(rem // 3 ** (kdim - 1 - t))
            rem %= 3 ** (kdim - 1 - t)
        rows = [digits[:3], digits[3:]]
        direct = relation_check(pres, g, Matrix(f3, rows))
        assert (v in zeros) == direct


def test_mask_needs_prime_field():
    pres = holonomy_presentation(build_compact_curve(QQ, 1))
    with pytest.raises(HolonomyError):
        relation_zeros(pres, build_sl(QQ, 2))


def test_mask_refuses_a_census_past_the_ceiling(monkeypatch):
    # 3^24 candidates: refused before any tensor is built
    def unreachable(*args):
        raise AssertionError("relation tensors built past the ceiling")

    monkeypatch.setattr(holonomy, "relation_tensors", unreachable)
    f3 = GF(3)
    pres = holonomy_presentation(build_compact_curve(f3, 4))
    with pytest.raises(BruteForceBoundError):
        relation_zeros(pres, build_sl(f3, 2))


# the braid arrangement A3, x_i = x_j in C^4, essential in C^3 (x_4 = 0)
BRAID_A3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1],
            [1, -1, 0], [1, 0, -1], [0, 1, -1]]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("make_model", [
    pytest.param(lambda f: build_os_arrangement(f, BRAID_A3), id="braid-A3"),
    pytest.param(lambda f: tensor_product_with_inclusions(
        build_compact_curve(f, 2), build_compact_curve(f, 1))[0],
        id="curve2-x-curve1"),
    pytest.param(lambda f: build_torus_model(f, 3), id="torus3"),
    pytest.param(lambda f: build_surface_model(f, 2), id="surface2"),
    pytest.param(lambda f: build_open_curve(f, 3), id="open-curve3"),
])
def test_flatness_and_relation_tensors_agree(make_model, p):
    # the two assemblies, one from the multiplication table and one from
    # the presentation, on models whose censuses are too large to compare
    f = GF(p)
    model = make_model(f)
    pres = holonomy_presentation(model)
    for lie in (build_sl(f, 2), build_sol2(f), build_sl(f, 3)):
        kdim, rdim = model.dim(1) * lie.dim, model.dim(2) * lie.dim
        flat = flatness_tensors(model, lie)
        rel = relation_tensors(pres, lie)
        for lmat, qmats in (flat, rel):
            assert lmat.dtype == qmats.dtype == np.int64
            assert lmat.shape == (rdim, kdim)
            assert qmats.shape == (rdim, kdim, kdim)
        for a, b in zip(flat, rel):
            assert np.array_equal(a % p, b % p)

