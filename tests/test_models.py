"""Betti numbers of the builder models against independently known values.

All expected tuples below come from classical closed forms, not from this
code: binomial coefficients for the torus, (1, 2g, 1) for a genus-g surface
algebra, and the factored Poincare polynomial (1+t)(1+(n-1)t) for a
rank-two arrangement.
"""

import random
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest

from jumploci import models
from jumploci.cdga import CdgaError, tensor_product_with_inclusions
from jumploci.linalg import Matrix, rank
from jumploci.models import (build_compact_curve, build_open_curve,
                             build_os_arrangement, build_surface_model,
                             build_torus_model, curve_inclusion,
                             pencil_normals)
from jumploci.scalars import GF, QQ
from jumploci.serialize import cdga_to_json
from samplers import alternating_sum


@pytest.mark.parametrize("n, want", [
    (1, (1, 1)),
    (2, (1, 2, 1)),
    (3, (1, 3, 3, 1)),   # binomial(3, i)
])
def test_torus_betti(n, want):
    a = build_torus_model(QQ, n)
    assert tuple(a.betti(i) for i in range(a.top_degree + 1)) == want


def test_torus_truncation():
    # torus models are never cut off: torus(n) runs through degree n
    a = build_torus_model(QQ, 3)
    assert a.dims() == (1, 3, 3, 1)
    assert a.validate() == []
    assert a.family == ("torus", 3)
    assert a.product_basis(1, 0, 2, 2) == {0: QQ.one}   # e1 * e2e3


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_truncated_torus_binomials_below_the_top(n):
    # binomial(n, i) in every degree, the top included, and Euler 0
    a = build_torus_model(QQ, n)
    assert a.top_degree == n
    assert [a.betti(i) for i in range(n + 1)] == \
        [comb(n, i) for i in range(n + 1)]
    assert alternating_sum(a.dims()) == 0


def test_truncated_flag():
    # no model carries a cut-off flag: a product's top degree is the sum of
    # its factors' top degrees
    assert not hasattr(build_torus_model(QQ, 3), "truncated")
    curve, circle = build_compact_curve(QQ, 1), build_torus_model(QQ, 1)
    prod, _, _ = tensor_product_with_inclusions(curve, circle)  # top 2 + 1
    assert prod.top_degree == 3 and not hasattr(prod, "truncated")
    prod, _, _ = tensor_product_with_inclusions(curve, curve)   # top 2 + 2
    assert prod.dims() == (1, 4, 6, 4, 1)
    prod, _, _ = tensor_product_with_inclusions(
        build_torus_model(QQ, 2), build_torus_model(QQ, 1))
    assert prod.dims() == build_torus_model(QQ, 3).dims()


def test_kunneth_below_the_top_of_a_truncated_product():
    # Kunneth in every degree of the whole product, the top included
    s = build_surface_model(QQ, 1)
    factor = [s.betti(i) for i in range(s.top_degree + 1)]
    assert factor == [1, 2, 2, 1]
    prod, _, _ = tensor_product_with_inclusions(s, s)
    assert prod.top_degree == 6
    kunneth = [sum(factor[i] * factor[d - i] for i in range(d + 1)
                   if i <= 3 and d - i <= 3) for d in range(7)]
    assert kunneth == [1, 4, 8, 10, 8, 4, 1]
    assert [prod.betti(d) for d in range(7)] == kunneth
    assert alternating_sum(prod.dims()) == 0
    assert prod.validate() == []


@pytest.mark.parametrize("g", [1, 2, 3])
def test_compact_curve_betti(g):
    a = build_compact_curve(QQ, g)
    assert tuple(a.betti(i) for i in range(3)) == (1, 2 * g, 1)
    assert alternating_sum(a.dims()) == 2 - 2 * g


@pytest.mark.parametrize("n", [2, 3])
def test_open_curve_betti(n):
    a = build_open_curve(QQ, n)
    assert tuple(a.betti(i) for i in range(a.top_degree + 1)) == (1, n, 0)


@pytest.mark.parametrize("g", [1, 2])
def test_surface_model_shape(g):
    a = build_surface_model(QQ, g)
    assert a.dims() == (1, 2 * g + 1, 2 * g + 1, 1)
    assert tuple(a.betti(i) for i in range(4)) == (1, 2 * g, 2 * g, 1)
    # the extra generator carries weight 2, all others weight 1
    assert a.weight(1, a.dim(1) - 1) == 2


@pytest.mark.parametrize("m", [3, 4, 5])
def test_pencil_betti(m):
    # rank-two pencil: Poincare polynomial (1+t)(1+(m-1)t)
    a = build_os_arrangement(QQ, pencil_normals(m))
    assert tuple(a.betti(i) for i in range(3)) == (1, m, m - 1)
    assert a.validate() == []


def test_braid_arrangement_betti():
    # A3 braid arrangement: (1+t)(1+2t) = 1 + 3t + 2t^2
    normals = [[1, -1, 0], [1, 0, -1], [0, 1, -1]]
    a = build_os_arrangement(QQ, normals)
    assert tuple(a.betti(i) for i in range(3)) == (1, 3, 2)
    assert a.validate() == []


def test_arrangement_relations_from_circuits():
    # in a pencil of 3 lines: e1e2 - e1e3 + e2e3 = 0, so dim A^2 = 2
    a = build_os_arrangement(QQ, pencil_normals(3))
    assert a.dim(2) == 2
    prod01 = a.product_basis(1, 0, 1, 1)
    prod02 = a.product_basis(1, 0, 1, 2)
    prod12 = a.product_basis(1, 1, 1, 2)
    f = a.field
    total = {}
    for sign, vec in ((1, prod01), (-1, prod02), (1, prod12)):
        for k, c in vec.items():
            total[k] = f.add(total.get(k, f.zero),
                             f.mul(f.coerce(sign), c))
    assert all(f.is_zero(c) for c in total.values())


def circuits_by_subset_scan(m, independent):
    """Oracle: each dependent subset, by size and then lex order, that
    contains no circuit found before it."""
    circuits = []
    for size in range(2, min(m, 4) + 1):
        for s in combinations(range(m), size):
            if not independent(s) and \
                    not any(set(c) <= set(s) for c in circuits):
                circuits.append(s)
    return circuits


def independence_of(normals):
    @lru_cache(maxsize=None)
    def independent(s):
        rows = [list(normals[i]) for i in s]
        return rank(Matrix(QQ, rows, ncols=3)) == len(s)
    return independent


def rank3_arrangements(count, seed):
    """Seeded arrangements of 4..9 pairwise non-proportional normals with
    entries in -3..3 that span 3 coordinates."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        normals = [tuple(rng.randint(-3, 3) for _ in range(3))
                   for _ in range(rng.randint(4, 9))]
        independent = independence_of(normals)
        if rank(Matrix(QQ, [list(v) for v in normals], ncols=3)) == 3 and \
                all(independent(pair)
                    for pair in combinations(range(len(normals)), 2)):
            out.append(normals)
    return out


@pytest.mark.parametrize(
    "normals", [pencil_normals(m) for m in range(3, 17)]
    + rank3_arrangements(6, 20261018),
    ids=[f"pencil({m})" for m in range(3, 17)]
    + [f"rank3-{i}" for i in range(6)])
def test_circuits_match_the_subset_scan(normals, monkeypatch):
    independent = independence_of(normals)
    want = circuits_by_subset_scan(len(normals), independent)
    assert models._circuits(len(normals), independent) == want
    got = cdga_to_json(build_os_arrangement(QQ, normals))
    monkeypatch.setattr(models, "_circuits", circuits_by_subset_scan)
    assert cdga_to_json(build_os_arrangement(QQ, normals)) == got


def test_arrangement_rejects_degenerate_input():
    with pytest.raises(CdgaError):
        build_os_arrangement(QQ, [[0, 0], [1, 0]])  # not 3-vectors
    with pytest.raises(CdgaError):
        build_os_arrangement(QQ, [[0, 0, 0], [1, 0, 0]])  # zero normal
    with pytest.raises(CdgaError):
        # repeated hyperplane (proportional normals)
        build_os_arrangement(QQ, [[1, 0, 0], [2, 0, 0], [0, 1, 0]])


def test_curve_inclusion_is_valid_morphism():
    for g in (1, 2):
        curve, surface, incl = curve_inclusion(QQ, g)
        assert incl.source is curve
        assert incl.target is surface
        assert incl.validate() == []
        # degree-1 map hits the 2g weight-one generators, not the extra one
        from jumploci.linalg import rank
        m1 = incl.map(1)
        assert rank(m1) == 2 * g
        last_row = m1.row(surface.dim(1) - 1)
        assert all(QQ.is_zero(x) for x in last_row)


def test_builders_over_prime_fields():
    for f in (GF(3), GF(5)):
        for a in (build_torus_model(f, 2), build_compact_curve(f, 2),
                  build_surface_model(f, 1),
                  build_os_arrangement(f, pencil_normals(3))):
            assert a.validate() == []


def test_bad_parameters_rejected():
    with pytest.raises(CdgaError):
        build_compact_curve(QQ, 0)
    with pytest.raises(CdgaError):
        build_torus_model(QQ, 0)
    with pytest.raises(CdgaError):
        build_surface_model(QQ, 0)
    with pytest.raises(CdgaError):
        build_open_curve(QQ, 1)
