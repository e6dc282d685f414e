"""Structure constants, validation, and representation builders."""

import itertools
import random

import pytest

from jumploci.liealg import (LieAlgebra, LieError, LieRep, build_abelian,
                             build_sl, build_sol2, rep_adjoint, rep_defining,
                             rep_direct_sum, rep_trivial, sl_basis, sl_labels,
                             sl_root_index)
from jumploci.linalg import Matrix, det
from jumploci.scalars import GF, QQ
from samplers import sl_coordinates


def test_sl2_brackets():
    # [DERIVED by hand] classic sl2 relations in the E12, E21, H1 basis:
    # [E12, E21] = H1, [H1, E12] = 2 E12, [H1, E21] = -2 E21.
    g = build_sl(QQ, 2)
    assert g.labels == ["E12", "E21", "H1"]
    assert g.bracket_basis(0, 1) == g.basis_vector("H1")
    assert g.bracket_basis(2, 0) == [QQ.coerce(2), QQ.zero, QQ.zero]
    assert g.bracket_basis(2, 1) == [QQ.zero, QQ.coerce(-2), QQ.zero]
    # antisymmetry on the stored pairs
    assert g.bracket_basis(1, 0) == [QQ.neg(v) for v in g.bracket_basis(0, 1)]


def test_sl3_shape_and_a_bracket():
    g = build_sl(QQ, 3)
    assert g.dim == 8
    assert g.labels == ["E12", "E13", "E23", "E21", "E31", "E32", "H1", "H2"]
    # [DERIVED by hand] E12 E23 = E13 and E23 E12 = 0, so [E12, E23] = E13.
    i, j = sl_root_index(g, 1, 2), sl_root_index(g, 2, 3)
    assert g.bracket_basis(i, j) == g.basis_vector("E13")


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_builders_satisfy_jacobi(field):
    assert build_sl(field, 2).validate() == []
    assert build_sl(field, 3).validate() == []
    assert build_sol2(field).validate() == []
    assert build_abelian(field, 3).validate() == []


def test_sol2_is_solvable_not_abelian():
    g = build_sol2(QQ)
    assert g.labels == ["h", "e"]
    assert g.bracket_basis(0, 1) == [QQ.zero, QQ.coerce(2)]
    assert not g.is_abelian()
    assert build_abelian(QQ, 2).is_abelian()


def test_bracket_is_bilinear():
    g = build_sl(QQ, 2)
    e_plus_h = [QQ.one, QQ.zero, QQ.one]
    f_vec = g.basis_vector("E21")
    # [E + H, F] = H - 2F
    assert g.bracket(e_plus_h, f_vec) == [QQ.zero, QQ.coerce(-2), QQ.one]


def test_bracket_antisymmetry_random():
    g = build_sl(QQ, 3)
    rng = random.Random(20260818)
    for _ in range(25):
        x = [QQ.coerce(rng.randint(-4, 4)) for _ in range(g.dim)]
        y = [QQ.coerce(rng.randint(-4, 4)) for _ in range(g.dim)]
        xy = g.bracket(x, y)
        yx = g.bracket(y, x)
        assert xy == [QQ.neg(v) for v in yx]
        assert g.is_zero_vector(g.bracket(x, x))


def test_jacobi_failure_is_reported():
    # [x,y] = z together with [x,z] = x breaks Jacobi on (x,y,z).
    g = LieAlgebra(QQ, ["x", "y", "z"],
                   {(0, 1): {2: 1}, (0, 2): {0: 1}})
    assert g.validate() == ["jacobi fails on (x,y,z)"]


def jacobi_triple_scan(g):
    """Oracle: the Jacobi sum on every sorted basis triple, from brackets of
    coordinate vectors."""
    failures = []
    for i, j, k in itertools.combinations(range(g.dim), 3):
        xi, xj, xk = (g.basis_vector(t) for t in (i, j, k))
        terms = [g.bracket(a, g.bracket(b, c)) for a, b, c
                 in ((xi, xj, xk), (xj, xk, xi), (xk, xi, xj))]
        if not g.is_zero_vector(map(sum, zip(*terms))):
            failures.append(f"jacobi fails on ({g.labels[i]},"
                            f"{g.labels[j]},{g.labels[k]})")
    return failures


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
@pytest.mark.parametrize("build", [lambda f: build_sl(f, 2),
                                   lambda f: build_sl(f, 3), build_sol2])
def test_validate_matches_the_triple_scan(field, build):
    # 40 seeded corruptions per algebra and field: one to three bracket
    # entries overwritten with a value in -2..2
    base = build(field)
    rng = random.Random(20261018)
    failing = 0
    for _ in range(40):
        brackets = {key: dict(vec) for key, vec in base._brackets.items()}
        for _ in range(rng.randint(1, 3)):
            i, j = sorted(rng.sample(range(base.dim), 2))
            brackets.setdefault((i, j), {})[rng.randrange(base.dim)] = \
                rng.randint(-2, 2)
        g = LieAlgebra(field, base.labels, brackets)
        want = jacobi_triple_scan(g)
        assert g.validate() == want
        assert g._adjoint is None
        failing += bool(want)
    assert failing or base.dim < 3


def test_constructor_rejects_bad_tables():
    with pytest.raises(LieError):
        LieAlgebra(QQ, ["x", "x"], {})
    with pytest.raises(LieError):
        LieAlgebra(QQ, ["x", "y"], {(1, 0): {0: 1}})
    with pytest.raises(LieError):
        LieAlgebra(QQ, ["x", "y"], {(0, 3): {0: 1}})
    with pytest.raises(LieError):
        LieAlgebra(QQ, ["x", "y"], {(0, 0): {1: 1}})


def test_structure_tensor_matches_bracket_basis():
    g = build_sol2(GF(5))
    c = g.structure_tensor()
    for i in range(g.dim):
        for j in range(g.dim):
            assert c[i][j] == g.bracket_basis(i, j)


def test_defining_rep_sl2():
    g = build_sl(QQ, 2)
    rep = rep_defining(g)
    assert rep.dim == 2
    assert rep.matrices[0] == Matrix(QQ, [[0, 1], [0, 0]])
    assert rep.matrices[2] == Matrix(QQ, [[1, 0], [0, -1]])
    assert rep.apply([QQ.one, QQ.one, QQ.zero]) == Matrix(QQ, [[0, 1], [1, 0]])


def test_adjoint_rep_sl2():
    g = build_sl(QQ, 2)
    ad = rep_adjoint(g)
    # [DERIVED by hand] ad(H1) is diagonal with the root values 2, -2, 0.
    assert ad.matrices[2] == Matrix(QQ, [[2, 0, 0], [0, -2, 0], [0, 0, 0]])
    # ad(E12) sends E21 to H1 and H1 to -2 E12.
    assert ad.matrices[0] == Matrix(QQ, [[0, 0, -2], [0, 0, 0], [0, 1, 0]])


def test_trivial_and_direct_sum():
    g = build_sl(QQ, 2)
    triv = rep_trivial(g, 2)
    assert all(m == Matrix.zero(QQ, 2, 2) for m in triv.matrices)
    both = rep_direct_sum(triv, rep_adjoint(g))
    assert both.dim == 5
    h_block = both.matrices[2]
    assert h_block[0, 0] == QQ.zero and h_block[1, 1] == QQ.zero
    assert h_block[2, 2] == QQ.coerce(2)
    assert h_block[3, 3] == QQ.coerce(-2)
    with pytest.raises(LieError):
        rep_direct_sum(triv, rep_defining(build_sol2(QQ)))


def test_rep_constructor_checks_bracket_compatibility():
    g = build_sl(QQ, 2)
    good = rep_defining(g).matrices
    # swapping the matrices for E21 and H1 breaks [E12, E21] = H1
    with pytest.raises(LieError):
        LieRep(g, [good[0], good[2], good[1]])
    # theta(E12) = 0 zeroes the commutator [theta(E12), theta(E21)] but not
    # the bracket term: [E12, E21] = H1 while theta(H1) != 0
    with pytest.raises(LieError, match=r"\[E12,E21\]"):
        LieRep(g, [Matrix.zero(QQ, 2, 2), good[1], good[2]])
    with pytest.raises(LieError):
        LieRep(g, good[:2])  # wrong count
    with pytest.raises(LieError):
        LieRep(g, [Matrix.zero(QQ, 2, 3)] * 3)  # not square


def test_det_theta():
    g = build_sl(QQ, 2)
    rep = rep_defining(g)
    assert det(rep.apply(g.basis_vector("H1"))) == QQ.coerce(-1)
    assert det(rep.apply(g.basis_vector("E12"))) == QQ.zero
    assert det(rep.apply([QQ.one, QQ.one, QQ.zero])) == QQ.coerce(-1)
    # ad(x) always kills x itself, so the adjoint determinant cut is zero
    ad = rep_adjoint(g)
    assert det(ad.apply([QQ.one, QQ.coerce(2), QQ.coerce(3)])) == QQ.zero


def test_rep_defining_sl10():
    # Labels stop spelling out matrix indices at n = 10: E110 is E_{1,10}.
    g = build_sl(QQ, 10)
    rep = rep_defining(g)
    e = [[0] * 10 for _ in range(10)]
    e[0][9] = 1
    assert rep.matrices[sl_root_index(g, 1, 10)] == Matrix(QQ, e)


def test_sl_labels_unique_and_stable():
    for n in range(2, 14):
        labels = sl_labels(n)
        assert len(set(labels)) == len(labels) == n * n - 1
        if n <= 10:
            # the concatenated spelling every earlier label used
            assert labels == [f"H{i}" if i == j else f"E{i}{j}"
                              for i, j in sl_basis(n)]
    eleven = sl_labels(11)
    assert eleven[sl_basis(11).index((1, 11))] == "E1_11"
    assert eleven[sl_basis(11).index((11, 1))] == "E11_1"
    assert build_sl(GF(3), 4).labels == sl_labels(4)


def test_sl_coordinates_round_trip():
    g = build_sl(QQ, 3)
    m = Matrix(QQ, [[2, 0, 1], [0, -2, 0], [0, 0, 0]])  # 2 H1 + E13
    coords = sl_coordinates(g, m)
    expected = [QQ.zero] * 8
    expected[g.index["E13"]] = QQ.one
    expected[g.index["H1"]] = QQ.coerce(2)
    assert coords == expected
    with pytest.raises(LieError):
        sl_coordinates(g, Matrix(QQ, [[1, 0], [0, -1]]))
