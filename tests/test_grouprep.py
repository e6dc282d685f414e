"""Fox calculus and twisted cohomology of presentation complexes."""

import random

import pytest

from jumploci import grouprep
from jumploci.grouprep import (FpGroup, GroupError, GroupRep, adjoint_rep,
                               d0_matrix, d1_matrix, fox_derivative,
                               free_group, free_reduce, parse_word, rep_check,
                               surface_group, tangent_dimension_rep,
                               twisted_cohomology)
from jumploci.linalg import Matrix
from jumploci.scalars import GF, QQ
from samplers import alternating_sum, sample_group_rep


def shear_pair(f):
    return (Matrix(f, [[1, 1], [0, 1]]), Matrix(f, [[1, 0], [1, 1]]))


def test_parse_word_and_reduce():
    assert parse_word(["a", "b"], "a b a^-1 b^-1") == (1, 2, -1, -2)
    assert parse_word(["a", "b"], "a a^-1") == ()
    assert free_reduce((1, -1, 2)) == (2,)
    assert free_reduce((1, 2, -2, -1)) == ()
    with pytest.raises(GroupError):
        parse_word(["a"], "c")


def test_group_builders():
    f2 = free_group(2)
    assert f2.generators == ["x1", "x2"]
    assert f2.relators == []
    assert alternating_sum((1, len(f2.generators), len(f2.relators))) == -1
    f3 = free_group(3)
    assert alternating_sum((1, len(f3.generators), len(f3.relators))) == -2

    s2 = surface_group(2)
    assert s2.generators == ["a1", "b1", "a2", "b2"]
    assert s2.relators == [(1, 2, -1, -2, 3, 4, -3, -4)]
    assert alternating_sum((1, len(s2.generators), len(s2.relators))) == -2

    with pytest.raises(GroupError):
        FpGroup(["a", "a"], [])
    with pytest.raises(GroupError):
        FpGroup(["a"], [(2,)])


def test_fox_derivative_hand_cases():
    # [DERIVED by hand] with scalar values rho(a) = 2, rho(b) = 3:
    #   d(a b a^-1 b^-1)/da = 1 - a b a^-1         -> 1 - 3 = -2
    #   d(a b a^-1 b^-1)/db = a - a b a^-1 b^-1    -> 2 - 1 = 1
    #   d(a a)/da          = 1 + a                 -> 3
    g = free_group(2)
    rep = GroupRep(g, "GL", [Matrix(QQ, [[2]]), Matrix(QQ, [[3]])])
    w = parse_word(g.generators, "x1 x2 x1^-1 x2^-1")
    assert fox_derivative(rep, w) == [Matrix(QQ, [[-2]]), Matrix(QQ, [[1]])]
    assert fox_derivative(rep, parse_word(g.generators, "x1 x1"))[0] == \
        Matrix(QQ, [[3]])


def fox_oracle(rep, word, i):
    """rho(d word / d x_{i+1}) from a walk of its own for that one generator,
    as fox_derivative computed it before it returned every derivative from a
    single walk."""
    f = rep.field
    acc = Matrix.zero(f, rep.dim, rep.dim)
    prefix = Matrix.identity(f, rep.dim)
    for letter in word:
        gen = abs(letter) - 1
        if letter > 0:
            if gen == i:
                acc = acc + prefix
            prefix = prefix @ rep.matrices[gen]
        else:
            prefix = prefix @ rep.inverses[gen]
            if gen == i:
                acc = acc - prefix
    return acc


def seeded_words(rng, n, count=12):
    """Freely reduced words over n generators, with inverse letters and
    repeated generators."""
    words = []
    while len(words) < count:
        w = free_reduce([rng.choice([-1, 1]) * rng.randint(1, n)
                         for _ in range(rng.randint(1, 14))])
        if w:
            words.append(w)
    return words


def walk_cases():
    rng = random.Random(25)
    for group in (free_group(3), surface_group(2)):
        words = seeded_words(rng, len(group.generators)) + list(group.relators)
        for field in (QQ, GF(5)):
            for target in ("SL", "Borel", "GL"):
                yield sample_group_rep(rng, group, field, target), words


def test_one_walk_matches_the_per_generator_oracle():
    inverse_letters = repeats = 0
    for rep, words in walk_cases():
        for w in words:
            inverse_letters += any(x < 0 for x in w)
            repeats += len({abs(x) for x in w}) < len(w)
            assert fox_derivative(rep, w) == [
                fox_oracle(rep, w, i)
                for i in range(len(rep.group.generators))]
    assert inverse_letters and repeats


def test_one_walk_satisfies_the_fox_identity():
    # sum_i rho(dw/dx_i) (rho(x_i) - 1) = rho(w) - 1
    for rep, words in walk_cases():
        ident = Matrix.identity(rep.field, rep.dim)
        for w in words:
            total = Matrix.zero(rep.field, rep.dim, rep.dim)
            for d, m in zip(fox_derivative(rep, w), rep.matrices):
                total = total + d @ (m - ident)
            assert total == rep.evaluate(w) - ident


def test_one_matrix_product_per_letter_and_one_walk_per_relator(monkeypatch):
    group = FpGroup(["a", "b", "c"],
                    ["a b a^-1 b^-1", "a a c^-1 b", "c^-1 c^-1 a b^-1 c"])
    rep = sample_group_rep(random.Random(3), free_group(3), QQ, "GL")
    rep = GroupRep(group, "GL", rep.matrices)
    products, walks = [], []
    matmul = Matrix.__matmul__

    def counted_matmul(a, b):
        products.append((a, b))
        return matmul(a, b)

    def counted_walk(rep, word):
        walks.append(word)
        return fox_derivative(rep, word)

    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    for r in group.relators:
        products.clear()
        fox_derivative(rep, r)
        assert len(products) == len(r)
    monkeypatch.setattr(grouprep, "fox_derivative", counted_walk)
    products.clear()
    d1_matrix(rep)
    assert walks == group.relators
    assert len(products) == sum(map(len, group.relators))


def test_rep_constructor_targets():
    f2 = free_group(2)
    with pytest.raises(GroupError):  # det 2 is not allowed in SL
        GroupRep(f2, "SL", [Matrix(QQ, [[2]]), Matrix(QQ, [[1]])])
    with pytest.raises(GroupError):  # lower-triangular entry
        GroupRep(f2, "Borel", [Matrix(QQ, [[1, 0], [1, 1]])] * 2)
    with pytest.raises(GroupError):  # Borel is a 2x2 target
        GroupRep(f2, "Borel", [Matrix.identity(QQ, 3)] * 2)
    with pytest.raises(GroupError):  # singular matrix
        GroupRep(f2, "GL", [Matrix(QQ, [[0]]), Matrix(QQ, [[1]])])
    with pytest.raises(GroupError):
        GroupRep(f2, "Frobenius", [Matrix(QQ, [[1]])] * 2)


def test_rep_check_and_evaluate():
    s1 = surface_group(1)
    a, b = shear_pair(QQ)
    bad = GroupRep(s1, "SL", [a, b])  # shears do not commute
    ok, failing = rep_check(bad)
    assert not ok and failing == [0]
    commuting = GroupRep(s1, "SL",
                         [Matrix(QQ, [[1, 1], [0, 1]]),
                          Matrix(QQ, [[1, 2], [0, 1]])])
    assert rep_check(commuting) == (True, [])
    w = parse_word(s1.generators, "a1 b1 a1^-1 b1^-1")
    assert commuting.evaluate(w) == Matrix.identity(QQ, 2)


def test_free_group_cohomology():
    f2 = free_group(2)
    # scalar local system rho = (2, 1): d0 has rank 1
    rep = GroupRep(f2, "GL", [Matrix(QQ, [[2]]), Matrix(QQ, [[1]])])
    assert twisted_cohomology(rep) == (0, 1, 0)
    # irreducible SL2 pair: no invariants at all
    rep = GroupRep(f2, "SL", list(shear_pair(QQ)))
    assert twisted_cohomology(rep) == (0, 2, 0)
    assert twisted_cohomology(rep).euler() == \
        alternating_sum((1, len(f2.generators), len(f2.relators))) * 2


def test_surface_group_classical_betti():
    s1 = surface_group(1)
    rep = GroupRep(s1, "SL", [Matrix.identity(QQ, 1)] * 2)
    assert twisted_cohomology(rep) == (1, 2, 1)
    s2 = surface_group(2)
    rep = GroupRep(s2, "SL", [Matrix.identity(QQ, 2)] * 4)
    assert twisted_cohomology(rep) == (2, 8, 2)
    assert twisted_cohomology(rep).euler() == -4


def test_twisted_cohomology_requires_satisfied_relators():
    s1 = surface_group(1)
    rep = GroupRep(s1, "SL", list(shear_pair(QQ)))
    with pytest.raises(GroupError):
        twisted_cohomology(rep)
    with pytest.raises(GroupError):
        tangent_dimension_rep(rep)


def test_borel_adjoint_matrix():
    # [DERIVED by hand] Ad([[1,1],[0,1]]) on (diag(1,-1), upper unit)
    # sends h to h - 2e and fixes e.
    f2 = free_group(1)
    rep = GroupRep(f2, "Borel", [Matrix(QQ, [[1, 1], [0, 1]])])
    ad = adjoint_rep(rep)
    assert ad.matrices[0] == Matrix(QQ, [[1, 0], [-2, 1]])
    assert ad.target == "GL" and ad.dim == 2


def test_adjoint_needs_sl_or_borel():
    f1 = free_group(1)
    rep = GroupRep(f1, "GL", [Matrix(QQ, [[2]])])
    with pytest.raises(GroupError):
        adjoint_rep(rep)


def test_adjoint_cohomology_torus():
    s1 = surface_group(1)
    rep = GroupRep(s1, "SL",
                   [Matrix(QQ, [[1, 1], [0, 1]]),
                    Matrix(QQ, [[1, 2], [0, 1]])])
    b = twisted_cohomology(rep, twist="adjoint")
    # only the upper-unit line commutes with both unipotents
    assert b.b0 == 1
    assert b.euler() == 0


def test_tangent_at_trivial_torus_rep():
    s1 = surface_group(1)
    rep = GroupRep(s1, "SL", [Matrix.identity(QQ, 2)] * 2)
    report = tangent_dimension_rep(rep)
    # adjoint twist is trivial of rank 3: Z^1 = 6, B^1 = 0
    assert report == (6, 0, 6)


def test_fixed_vector():
    # b0 counts the vectors every generator fixes: all of V for the trivial
    # pair, none for the shears (pinned with b1 in the free-group test)
    f2 = free_group(2)
    rep = GroupRep(f2, "SL", [Matrix.identity(QQ, 2)] * 2)
    assert twisted_cohomology(rep) == (2, 4, 0)


def test_fox_identity_over_prime_field():
    s2 = surface_group(2)
    a, b = shear_pair(GF(5))
    rep = GroupRep(s2, "SL", [a, b, b, a])
    assert rep_check(rep)[0]
    d0, d1 = d0_matrix(rep), d1_matrix(rep)
    assert (d1 @ d0).is_zero()
    assert twisted_cohomology(rep).euler() == \
        alternating_sum((1, len(s2.generators), len(s2.relators))) * 2
