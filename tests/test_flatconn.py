"""Flatness, the rank-one and determinant-cut loci, and exhaustive search."""

import pytest

from jumploci.cdga import Cdga
from jumploci.flatconn import (BruteForceBoundError, FlatConnection,
                               FlatConnError, NotFlatError, _scan,
                               brute_force_flat, f1_membership, is_flat,
                               lex_index, mc_residual, pi_membership, pullback,
                               tangent_dimension, weight_scale)
from jumploci.liealg import LieRep, build_abelian, build_sl, rep_defining
from jumploci.models import (build_compact_curve, build_surface_model,
                             build_torus_model, curve_inclusion)
from jumploci.scalars import GF, QQ


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
    out = pi_membership(conn(a, g, [[0, 0, 1], [0, 0, 2]]), theta)
    assert not out.member and out.det_value == QQ.coerce(-1)
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
    original = LieRep._compat_failures

    def counted(rep):
        checks.append(rep.name)
        return original(rep)

    monkeypatch.setattr(LieRep, "_compat_failures", counted)
    a = build_compact_curve(QQ, 1)
    g = build_sl(QQ, 2)
    assert tangent_dimension(conn(a, g, [[1, 0, 0], [2, 0, 0]])) == 4
    assert tangent_dimension(conn(a, g, [[0, 0, 0], [0, 0, 0]])) == 6
    assert checks == ["adjoint"]


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
    # about 4 p^3 > 2^63, so the scan refuses before it builds any array
    p = 2 ** 31 - 1
    lmat = [[1, 1]]
    qmats = [[[0, 1], [0, 0]]]
    with pytest.raises(FlatConnError, match="overflow"):
        next(_scan(lmat, qmats, p, 2, 0, 1))
