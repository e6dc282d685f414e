"""Exact coefficient fields: arbitrary-precision rationals and odd prime fields.

Every computation in this package is exact.  A "field" object bundles the
arithmetic for one of two coefficient domains:

* ``QQ`` — rationals, elements are ``fractions.Fraction`` (always normalized,
  positive denominator);
* ``GF(p)`` — integers mod an odd prime ``p < MODULUS_BOUND``, elements are
  plain ints in ``range(p)``.

p = 2 is rejected on purpose: sign conventions (graded commutativity, odd
squares) degenerate in characteristic 2 and nothing downstream supports it.

Scalars serialize as strings: ``"5"``, ``"-3/4"`` over the rationals,
``"2 mod 5"`` over GF(5).
"""

from __future__ import annotations

from fractions import Fraction
from reprlib import repr as _brief  # a bounded repr for error messages


def clip(value, width=30):
    """``str(value)``, or its two ends around '...' when that is longer
    than ``width``: a bounded echo that, unlike ``_brief``, adds no quotes."""
    text = str(value)
    if len(text) <= width:
        return text
    head = (width - 3) // 2
    return f"{text[:head]}...{text[len(text) - (width - 3 - head):]}"


class ScalarError(ValueError):
    """Raised for malformed scalars, bad moduli, or field mismatches."""


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# n < MODULUS_BOUND (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < MODULUS_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The field of rational numbers with Fraction elements."""

    name = "q"
    characteristic = 0
    zero, one = Fraction(0), Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.parse(value)
        raise ScalarError(f"cannot coerce {value!r} into the rationals")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def pow(self, a, k):
        if k < 0 and a == 0:
            raise ZeroDivisionError("negative power of zero")
        return Fraction(a) ** k

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        text = text.strip()
        if "mod" in text:
            raise ScalarError(
                f"modular scalar {_brief(text)} given for the rationals")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(f"bad rational scalar {_brief(text)}") from exc

    def format(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """Integers mod an odd prime, elements stored as ints in range(p)."""

    characteristic = None  # set per instance
    zero, one = 0, 1

    def __init__(self, p):
        if isinstance(p, int) and p >= MODULUS_BOUND:
            raise ScalarError(f"modulus {_brief(p)} is not below the "
                              f"supported bound {MODULUS_BOUND}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ScalarError(f"modulus {_brief(p)} is not prime")
        if p == 2:
            raise ScalarError("characteristic 2 is not supported")
        self.p = p
        self.characteristic = p
        self.name = f"fp:{p}"

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ScalarError(
                    f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, str):
            return self.parse(value)
        raise ScalarError(f"cannot coerce {value!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, k):
        if k < 0:
            return pow(self.inv(a), -k, self.p)
        return pow(a, k, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        text = text.strip()
        if "mod" in text:
            left, _, right = text.partition("mod")
            try:
                k, q = int(left), int(right)
            except ValueError as exc:
                raise ScalarError(
                    f"bad modular scalar {_brief(text)}") from exc
            if q != self.p:
                raise ScalarError(
                    f"scalar {_brief(text)} has modulus {_brief(q)}, field "
                    f"has {self.p}")
            return k % self.p
        # integers, and rational strings like "1/2" meaning num * den^-1 mod p
        try:
            return self.coerce(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScalarError(
                f"bad scalar {_brief(text)} for GF({self.p})") from exc

    def format(self, a):
        return f"{a % self.p} mod {self.p}"

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = Rationals()

_gf_cache = {}


def GF(p):
    """Return the (cached) prime field with p elements, p an odd prime."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_tag(tag):
    """Resolve a field tag: "q", or "fP" or "fp:P" for an odd prime P.
    A P longer than ``MODULUS_BOUND`` is refused before ``int`` reads it."""
    tag = tag.strip().lower()
    if tag == "q":
        return QQ
    if tag.startswith("fp:"):
        digits = tag[3:]
    elif tag.startswith("f") and tag[1:].isdigit():
        digits = tag[1:]
    else:
        raise ScalarError(f"unknown field tag {_brief(tag)}")
    if len(digits) > len(str(MODULUS_BOUND)):
        raise ScalarError(f"field tag {_brief(tag)} names a modulus past "
                          f"the supported bound {MODULUS_BOUND}")
    try:
        p = int(digits)
    except ValueError as exc:
        raise ScalarError(f"bad field tag {_brief(tag)}") from exc
    return GF(p)


def field_tag(field):
    if field.characteristic in (3, 5):
        return f"f{field.characteristic}"
    return field.name


def same_field(*fields):
    """Check that all arguments are the same field; raise otherwise."""
    first = fields[0]
    for f in fields[1:]:
        if f != first:
            raise ScalarError(f"mixed coefficient fields: {first!r} vs {f!r}")
    return first
