"""Exact rational and radical arithmetic.

Everything downstream (genus bounds, remainder envelopes, hypothesis
thresholds) is computed over Fraction, never floats.  This module adds the
three pieces the standard library lacks:

* exact rational text (format_rational) and closed intervals
  (RationalInterval),
* floor integer n-th roots (exactness flagged), and
* RadicalThreshold T(m, s) = 2(s+1)/(m-1) * prod_{k=1}^{m-1} B^(1/k), with
  B = m!(s+1), and an exact three-way comparison of it against integers.

Comparisons are decided by raising both sides to L = lcm(1..m-1), which
raises the one base B to sum L/k; exact, but it can explode.  Above a digit
budget a directed-rounding enclosure built from floor roots takes over and
may return UNDECIDED.

The powers are built with `int` arithmetic (Karatsuba multiplication) while
they stay under _DECIMAL_DIGITS digits, and above that in `decimal`, whose
libmpdec multiplies huge coefficients by a number-theoretic transform in
O(n log n).  The decimal path is as exact as the int one: every operand is
an integer, the context's precision (MAX_PREC, about 10^18 digits on 64-bit
builds) exceeds any coefficient that fits in memory, and a rounding, were
one ever needed, would raise Rounded/Inexact instead of giving a verdict.
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

#: Powers estimated above this many decimal digits are built in decimal
#: (transform multiplication), smaller ones as ints (Karatsuba).  Chosen at
#: the break-even of benchmarks/bench_kernels.py's powering ladder (2-vCPU
#: Xeon VM, Python 3.11.7; int time over decimal time, three runs):
#: T(m, m+1) at lhs = floor(T) + 1 gave 0.17-0.29 at m = 8 (6.9k digits),
#: 0.27-0.41 at 9 (16k), 0.49-0.68 at 10 (59k), 0.60-0.86 at 11 (68k),
#: 2.0-3.5 at 12 (0.87M) and 2.9-3.2 at 13 (0.98M); T(7, s) at B = 210^(25k)
#: and lhs = T + 1 gave 0.61-0.69 at 48k digits, 1.03-1.08 at 96k, 1.16-1.24
#: at 144k and 1.18-1.49 at 192k.
_DECIMAL_DIGITS = 100_000

#: Exact integer arithmetic in decimal: nothing can round, and if anything
#: ever did the traps turn it into an error instead of a wrong verdict.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow],
)

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
    # Integer Newton from above stops on the floor root.  Doubling precision:
    # r is the floor root of x >> n*(K-b), and (r+1) << step starts above.
    K = -(-x.bit_length() // n)  # the root has at most K bits
    r = b = 0
    while b < K:
        step = min(max(b, 1), K - b)
        b += step
        y = x >> n * (K - b)
        r = (r + 1) << step
        while True:
            t = ((n - 1) * r + y // r ** (n - 1)) // n
            if t >= r:
                break
            r = t
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
class RadicalThreshold:
    """T(m, s) = 2(s+1)/(m-1) * prod_{k=1}^{m-1} B^(1/k), with B = m!(s+1).

    Every radical threshold of the bounds has this shape: the corollary's
    is T(r-1, s) and flag level i's is T(r-i, s_{i+1}).  It renders as the
    factor list it was derived from, roots m-1 down to 1.
    """

    m: int
    s: int

    def __post_init__(self) -> None:
        if self.m < 2 or self.s < 1:
            raise ValidationError(f"T(m, s) needs m >= 2 and s >= 1, got T({self.m}, {self.s})")

    @property
    def scalar(self) -> Fraction:
        return Fraction(2 * (self.s + 1), self.m - 1)

    @property
    def base(self) -> int:
        return math.factorial(self.m) * (self.s + 1)

    @property
    def root_lcm(self) -> int:
        return math.lcm(*range(1, self.m))

    def _root_bounds(self, digits: int) -> tuple[int, int, int]:
        """(lo, hi, d) with lo/d <= prod_k B^(1/k) <= hi/d and d = 10**(digits*(m-1))."""
        if digits < 1:
            raise ValidationError(f"digits must be >= 1, got {digits}")
        scale = 10**digits
        base = self.base
        lo = hi = 1
        for root in range(self.m - 1, 0, -1):
            # floor(scale * base^(1/root)) via an exact integer root
            r, exact = integer_nth_root(base * scale**root, root)
            lo *= r
            hi *= r if exact else r + 1
        return lo, hi, scale ** (self.m - 1)

    def enclosure(self, digits: int = FALLBACK_ENCLOSURE_DIGITS) -> RationalInterval:
        """Directed-rounding enclosure, relative width about 10**-digits."""
        lo, hi, denom = self._root_bounds(digits)
        scalar = self.scalar
        return RationalInterval(scalar * Fraction(lo, denom), scalar * Fraction(hi, denom))

    def approx(self, digits: int = 20) -> str:
        """Approximate decimal rendering to `digits` significant digits."""
        box = self.enclosure(digits + 10)
        return fraction_approx(box.midpoint, digits)

    def __str__(self) -> str:
        base = self.base
        roots = (f"{base}^(1/{root})" for root in range(self.m - 1, 1, -1))
        return " * ".join((format_rational(self.scalar), *roots, str(base)))


def _powering(lhs: int, rhs: RadicalThreshold) -> tuple[int, int, int, int, int, int]:
    """(x, p, B, L, e, digits): lhs vs rhs raised to L = lcm(1..m-1).

    lhs^L compares with T^L as x^L with p^L * B^e, where p/q is T's scalar,
    x = lhs * q and e = sum_k L/k; digits is an upper estimate of the
    decimal digits of either side.
    """
    L = rhs.root_lcm
    scalar = rhs.scalar
    p, q = scalar.numerator, scalar.denominator
    base = rhs.base
    e = sum(L // k for k in range(1, rhs.m))
    left_bits = L * (lhs.bit_length() + q.bit_length())
    right_bits = L * p.bit_length() + e * base.bit_length()
    return lhs * q, p, base, L, e, int(max(left_bits, right_bits) * _LOG10_2) + 1


def compare_radical_exact(
    lhs: int, rhs: RadicalThreshold, powering: tuple | None = None
) -> Comparison:
    """Decide lhs vs rhs by raising both sides to L = lcm(1..m-1).

    Always conclusive; may build enormous integers.  Both sides are positive,
    so x -> x^L preserves the order; T^L = p^L * B^(sum_k L/k) for scalar p/q.
    `powering` is _powering(lhs, rhs), when the caller has it already.
    """
    x, p, base, L, e, digits = powering or _powering(lhs, rhs)
    if digits > _DECIMAL_DIGITS:
        ctx = _EXACT
        left = ctx.power(decimal.Decimal(x), L)
        right = ctx.multiply(
            ctx.power(decimal.Decimal(p), L), ctx.power(decimal.Decimal(base), e)
        )
    else:
        left = x**L
        right = p**L * base**e
    if left < right:
        return Comparison.LESS
    if left > right:
        return Comparison.GREATER
    return Comparison.EQUAL


def compare_radical_enclosure(
    lhs: int, rhs: RadicalThreshold, digits: int = FALLBACK_ENCLOSURE_DIGITS
) -> Comparison:
    """Decide lhs vs rhs from a directed enclosure of rhs.

    Returns UNDECIDED when lhs falls inside a non-degenerate enclosure,
    which can only happen when lhs is within about 10**-digits of rhs.
    """
    # lhs against scalar * [lo, hi] / denom, cross-multiplied as integers
    lo, hi, denom = rhs._root_bounds(digits)
    p, q = rhs.scalar.numerator, rhs.scalar.denominator
    left = lhs * q * denom
    if left < p * lo:
        return Comparison.LESS
    if left > p * hi:
        return Comparison.GREATER
    return Comparison.EQUAL if lo == hi else Comparison.UNDECIDED


def compare_radical(lhs: int, rhs: RadicalThreshold) -> Comparison:
    """Exact three-way comparison of a positive integer with a radical threshold.

    The exact powering route runs whenever the powered integers fit
    DIGIT_BUDGET digits; only past the budget does the enclosure fallback
    run, at FALLBACK_ENCLOSURE_DIGITS, and only the fallback can return
    UNDECIDED.
    """
    if not isinstance(lhs, int) or lhs < 1:
        raise ValidationError(f"lhs must be a positive integer, got {lhs!r}")
    powering = _powering(lhs, rhs)
    if powering[-1] <= DIGIT_BUDGET:
        return compare_radical_exact(lhs, rhs, powering)
    return compare_radical_enclosure(lhs, rhs, FALLBACK_ENCLOSURE_DIGITS)
