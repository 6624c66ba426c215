"""Exact rational and radical arithmetic.

Everything downstream (genus bounds, remainder envelopes, hypothesis
thresholds) is computed over Fraction, never floats.  This module adds the
three pieces the standard library lacks:

* exact rational text (format_rational) and closed intervals
  (RationalInterval),
* floor integer n-th roots (exactness flagged), and
* RadicalProduct, a positive number of the shape
  scalar * b1^(1/e1) * ... * bk^(1/ek), with an exact three-way comparison
  against integers.

Comparisons are decided by raising both sides to the lcm of the root orders,
which is exact but can explode; above a digit budget a directed-rounding
enclosure built from floor roots takes over and may return UNDECIDED.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ValidationError

#: Exact comparison is attempted as long as the powered integers stay under
#: this many decimal digits.
DIGIT_BUDGET = 10**6

#: Working precision (decimal digits) of the enclosure fallback.
FALLBACK_ENCLOSURE_DIGITS = 200

_LOG10_2 = math.log10(2)

def digit_budget() -> int:
    """The digit budget of exact radical powering, DIGIT_BUDGET."""
    return DIGIT_BUDGET


def format_rational(value: Fraction | int) -> str:
    """Render as 'p/q', or just 'p' for integers; Fraction(text) reads it back."""
    if type(value) is int:
        return str(value)
    if type(value) is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fraction_approx(value: Fraction, digits: int = 20) -> str:
    """Decimal rendering of a Fraction to `digits` significant digits.

    The result is an approximation; callers must label it as such.
    """
    if digits < 1:
        raise ValidationError(f"digits must be >= 1, got {digits}")
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return str(decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator))


def integer_nth_root(x: int, n: int) -> tuple[int, bool]:
    """(floor(x**(1/n)), exact?) for x >= 0, n >= 1.  Pure integer Newton."""
    if n < 1:
        raise ValidationError(f"root order must be >= 1, got {n}")
    if x < 0:
        raise ValidationError(f"negative radicand: {x}")
    if n == 1 or x in (0, 1):
        return x, True
    if n == 2:
        r = math.isqrt(x)
        return r, r * r == x
    # Start above the true root, descend; Newton on integers converges to floor.
    r = 1 << -(-x.bit_length() // n)
    while True:
        t = ((n - 1) * r + x // r ** (n - 1)) // n
        if t >= r:
            break
        r = t
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r, r**n == x


class Comparison(Enum):
    """Outcome of an exact three-way comparison."""

    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    UNDECIDED = "undecided"

    @property
    def decided(self) -> bool:
        return self is not Comparison.UNDECIDED


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        # Coerce only what is not already exactly a Fraction (ints, strings,
        # Fraction subclasses); most callers pass Fractions.
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValidationError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def to_dict(self) -> dict:
        return {"lo": format_rational(self.lo), "hi": format_rational(self.hi)}

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


@dataclass(frozen=True)
class RadicalProduct:
    """scalar * prod_j base_j^(1/root_j) with scalar > 0, base_j >= 1.

    factors is a tuple of (base, root) pairs.  root == 1 factors are plain
    integer multipliers; they are kept as written so thresholds render the
    way they were derived.
    """

    scalar: Fraction
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if type(self.scalar) is not Fraction:
            object.__setattr__(self, "scalar", Fraction(self.scalar))
        object.__setattr__(self, "factors", tuple((int(b), int(e)) for b, e in self.factors))
        if self.scalar <= 0:
            raise ValidationError(f"radical scalar must be positive, got {self.scalar}")
        for base, root in self.factors:
            if base < 1:
                raise ValidationError(f"radical base must be >= 1, got {base}")
            if root < 1:
                raise ValidationError(f"root order must be >= 1, got {root}")

    @property
    def root_lcm(self) -> int:
        return math.lcm(1, *(root for _, root in self.factors))

    def enclosure(self, digits: int = FALLBACK_ENCLOSURE_DIGITS) -> RationalInterval:
        """Directed-rounding enclosure, relative width about 10**-digits."""
        if digits < 1:
            raise ValidationError(f"digits must be >= 1, got {digits}")
        scale = 10**digits
        lo_prod = hi_prod = 1
        for base, root in self.factors:
            # floor(scale * base^(1/root)) via an exact integer root
            r, exact = integer_nth_root(base * scale**root, root)
            lo_prod *= r
            hi_prod *= r if exact else r + 1
        denom = scale ** len(self.factors)
        return RationalInterval(
            self.scalar * Fraction(lo_prod, denom),
            self.scalar * Fraction(hi_prod, denom),
        )

    def approx(self, digits: int = 20) -> str:
        """Approximate decimal rendering to `digits` significant digits."""
        box = self.enclosure(digits + 10)
        return fraction_approx(box.midpoint, digits)

    def __str__(self) -> str:
        parts = [format_rational(self.scalar)]
        for base, root in self.factors:
            parts.append(str(base) if root == 1 else f"{base}^(1/{root})")
        return " * ".join(parts)


def _exact_digit_estimate(lhs: int, rhs: RadicalProduct) -> int:
    """Upper estimate of the decimal digits of the powered integers."""
    L = rhs.root_lcm
    p, q = rhs.scalar.numerator, rhs.scalar.denominator
    left_bits = L * (lhs.bit_length() + q.bit_length())
    right_bits = L * p.bit_length() + sum(
        (L // root) * base.bit_length() for base, root in rhs.factors
    )
    return int(max(left_bits, right_bits) * _LOG10_2) + 1


def compare_radical_exact(lhs: int, rhs: RadicalProduct) -> Comparison:
    """Decide lhs vs rhs by raising both sides to the lcm of the root orders.

    Always conclusive; may build enormous integers.  Both sides are positive,
    so x -> x^L preserves the order.
    """
    L = rhs.root_lcm
    p, q = rhs.scalar.numerator, rhs.scalar.denominator
    left = (lhs * q) ** L
    # One power per distinct base: factors often repeat a base under
    # different roots, and base**a * base**b is base**(a+b).
    exponents: dict[int, int] = {}
    for base, root in rhs.factors:
        exponents[base] = exponents.get(base, 0) + L // root
    right = p**L
    for base, exponent in exponents.items():
        right *= base**exponent
    if left < right:
        return Comparison.LESS
    if left > right:
        return Comparison.GREATER
    return Comparison.EQUAL


def compare_radical_enclosure(
    lhs: int, rhs: RadicalProduct, digits: int = FALLBACK_ENCLOSURE_DIGITS
) -> Comparison:
    """Decide lhs vs rhs from a directed enclosure of rhs.

    Returns UNDECIDED when lhs falls inside a non-degenerate enclosure,
    which can only happen when lhs is within about 10**-digits of rhs.
    """
    box = rhs.enclosure(digits)
    if lhs < box.lo:
        return Comparison.LESS
    if lhs > box.hi:
        return Comparison.GREATER
    if box.is_point and lhs == box.lo:
        return Comparison.EQUAL
    return Comparison.UNDECIDED


def compare_radical(lhs: int, rhs: RadicalProduct) -> Comparison:
    """Exact three-way comparison of a positive integer with a radical product.

    The exact powering route runs whenever the powered integers fit
    DIGIT_BUDGET digits; only past the budget does the enclosure fallback
    run, at FALLBACK_ENCLOSURE_DIGITS, and only the fallback can return
    UNDECIDED.
    """
    if not isinstance(lhs, int) or lhs < 1:
        raise ValidationError(f"lhs must be a positive integer, got {lhs!r}")
    if _exact_digit_estimate(lhs, rhs) <= DIGIT_BUDGET:
        return compare_radical_exact(lhs, rhs)
    return compare_radical_enclosure(lhs, rhs, FALLBACK_ENCLOSURE_DIGITS)
