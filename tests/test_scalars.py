from fractions import Fraction

import pytest

from jumploci.scalars import (GF, QQ, ScalarError, _is_prime, field_tag,
                              same_field)


def test_rational_arithmetic():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert QQ.inv(Fraction(-4)) == Fraction(-1, 4)
    assert QQ.is_zero(QQ.sub(Fraction(7), Fraction(7)))


def test_rational_parse_and_format():
    assert QQ.parse("-3/4") == Fraction(-3, 4)
    assert QQ.parse(QQ.format(Fraction(22, 7))) == Fraction(22, 7)
    with pytest.raises(ScalarError):
        QQ.parse("2 mod 5")
    with pytest.raises(ScalarError):
        QQ.parse("x")


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_prime_field_inverses(p):
    f = GF(p)
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == f.one


def test_prime_field_parse_variants():
    f = GF(5)
    assert f.parse("7") == 2
    assert f.parse("2 mod 5") == 2
    assert f.parse("1/2") == 3  # 2 * 3 = 6 = 1 mod 5
    assert f.parse(f.format(4)) == 4
    with pytest.raises(ScalarError):
        f.parse("2 mod 7")


def test_gf_rejects_bad_moduli():
    with pytest.raises(ScalarError):
        GF(2)
    with pytest.raises(ScalarError):
        GF(9)
    with pytest.raises(ScalarError):
        GF(1)


def test_is_prime_against_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(3000) if _is_prime(n)] == \
        [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the bases 2..7 and 2..37 respectively
    assert not _is_prime(3215031751)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1)
    # a strong pseudoprime to all 13 bases 2..41: the test's bound
    with pytest.raises(ScalarError, match="bound"):
        GF(3317044064679887385961981)


def test_gf_cached_identity():
    assert GF(3) is GF(3)
    assert GF(3) is not GF(5)


def test_field_tags():
    assert field_tag(QQ) == "q"
    assert field_tag(GF(3)) == "f3"
    assert field_tag(GF(5)) == "f5"
    assert field_tag(GF(7)) == "fp:7"


def test_same_field_mismatch():
    with pytest.raises(ScalarError):
        same_field(QQ, GF(3))
    same_field(GF(3), GF(3))
