"""Exact arithmetic over prime fields GF(p) and over the rationals.

Field elements are plain canonical Python values: residues in ``[0, p)``
for GF(p) and reduced :class:`fractions.Fraction` objects for the
rationals.  A field object supplies the arithmetic, so values stay
hashable and cheap to store in sparse containers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

QUAD_PURE = "t^2-l"
QUAD_SHIFTED = "t^2+lt+1"


class FieldError(ValueError):
    """Invalid field specification or mixed-field arithmetic."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class GF:
    """The prime field GF(p), p prime, with canonical residues in [0, p)."""

    is_finite = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"gf({p}): {p} is not prime")
        self.p = p
        self.characteristic = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x) -> int:
        """Canonicalize an int, Fraction or literal string into GF(p)."""
        if isinstance(x, bool):
            raise FieldError("booleans are not field elements")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return self.div(x.numerator % self.p, x.denominator % self.p)
        if isinstance(x, str):
            text = x.strip()
            if "/" in text:
                num, den = text.split("/", 1)
                return self.div(int(num) % self.p, int(den) % self.p)
            return int(text) % self.p
        raise FieldError(f"cannot coerce {x!r} into gf({self.p})")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in gf({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return (a * self.inv(b)) % self.p

    def is_square(self, a: int) -> bool:
        a %= self.p
        if a == 0 or self.p == 2:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def format(self, a: int) -> str:
        return str(a % self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("gf", self.p))

    def __repr__(self) -> str:
        return f"gf({self.p})"


class Rationals:
    """The field of rationals; elements are reduced Fractions."""

    is_finite = False
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        if isinstance(x, bool):
            raise FieldError("booleans are not field elements")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x.strip())
        raise FieldError(f"cannot coerce {x!r} into the rationals")

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def is_square(self, a: Fraction) -> bool:
        a = Fraction(a)
        if a < 0:
            return False
        return _is_perfect_power(a.numerator, 2) and _is_perfect_power(a.denominator, 2)

    def format(self, a: Fraction) -> str:
        return str(Fraction(a))

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rationals")

    def __repr__(self) -> str:
        return "q"


QQ = Rationals()

Field = Union[GF, Rationals]


def _is_perfect_power(n: int, k: int) -> bool:
    """Whether the non-negative integer n is an exact k-th power."""
    if n < 0:
        return False
    if n in (0, 1):
        return True
    lo, hi = 0, 1
    while hi**k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo**k == n


def parse_field(text: str) -> Field:
    """Parse a field spec string: "gf(p)" for a prime field, "q" for the rationals."""
    spec = text.strip().lower()
    if spec == "q":
        return QQ
    if spec.startswith("gf(") and spec.endswith(")"):
        inner = spec[3:-1]
        try:
            p = int(inner)
        except ValueError as exc:
            raise FieldError(f"bad field spec {text!r}") from exc
        return GF(p)
    raise FieldError(f"bad field spec {text!r} (expected 'gf(p)' or 'q')")


def same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldError(f"field mismatch: {a!r} vs {b!r}")


def quadratic_irreducible(field: Field, kind: str, lam: Scalar) -> bool:
    """Whether t^2 - lam (kind "t^2-l") or t^2 + lam*t + 1 (kind "t^2+lt+1")
    has no root in the field."""
    lam = field.of(lam)
    if kind == QUAD_PURE:
        return not field.is_square(lam)
    if kind == QUAD_SHIFTED:
        if isinstance(field, GF) and field.p == 2:
            return lam % 2 == 1  # t^2+t+1 is the only irreducible case
        # odd characteristic / rationals: root exists iff the discriminant
        # lam^2 - 4 is a square
        disc = field.sub(field.mul(lam, lam), field.of(4))
        return not field.is_square(disc)
    raise ValueError(f"unknown quadratic kind {kind!r}")


def cubic_irreducible(field: Field, mu: Scalar) -> bool:
    """Whether t^3 - mu has no root in the field (degree 3: root-free means
    irreducible)."""
    mu = field.of(mu)
    if isinstance(field, GF):
        p = field.p
        if mu == 0:
            return False
        if p == 3 or p % 3 == 2:
            return False  # cubing is a bijection, every element is a cube
        return pow(mu, (p - 1) // 3, p) != 1
    frac = Fraction(mu)
    if frac < 0:
        has_root = _is_perfect_power(-frac.numerator, 3) and _is_perfect_power(
            frac.denominator, 3
        )
    else:
        has_root = _is_perfect_power(frac.numerator, 3) and _is_perfect_power(
            frac.denominator, 3
        )
    return not has_root
