"""Interval evaluation of the maximal genus under a flag condition.

G(r; s_1) is the Castelnuovo bound, a point.  For longer flags the
recursion

    G(r; s_1, ..., s_l) = s_1^2/(2 s_2)
                        + (s_1/(2 s_2)) * (2 G(r-1; s_2, ..., s_l) - 2 - s_2)
                        + R,    |R| <= s_2^3/(r-2)

is evaluated over exact rational intervals: the affine map has positive
slope s_1/s_2, so the inner interval maps monotonically, then widens by
the unknown-R radius.  Nothing tighter than the full +-s_2^3/(r-2) slab is
claimed at any level.  The fold runs on integer numerators over one common
denominator; each endpoint becomes a Fraction once, at the end.

The closed corollary bound, its alternative form one degree up (the two
sides of the corollary's dichotomy) and the speciality bound live here as
well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .castelnuovo import castelnuovo_bound
from .errors import ValidationError
from .exact_arith import RationalInterval, format_rational
from .flags import FlagCondition
from .hypothesis_checker import Verdict, flag_separation_verdict
from .lemma_engine import quadratic_genus_numerator


@dataclass(frozen=True)
class FlagGenusResult:
    """Genus interval plus the status of the separation hypotheses.

    The interval is computed unconditionally; hypotheses_verified records
    whether the separation checks certify it (check_flag_separation gives
    the checks themselves).  Single-degree flags have no separation
    hypotheses, so they verify vacuously.
    """

    interval: RationalInterval
    hypotheses_verified: bool

    def to_dict(self) -> dict:
        return {
            "lo": format_rational(self.interval.lo),
            "hi": format_rational(self.interval.hi),
            "hypothesesVerified": self.hypotheses_verified,
        }


def _interval(flag: FlagCondition) -> RationalInterval:
    """The recursion folded outward from the innermost level, a Castelnuovo
    point; level i (0-based) is the flag (r-i; s_{i+1}, ..., s_l).

    The endpoints are lo/den and hi/den over one positive integer den.  A
    level maps x to (s1/s2) x + s1(s1-2-s2)/(2 s2) -+ s2^3/m, m = r-i-2,
    whose common denominator with den is 2 s2 m den.
    """
    r, degrees = flag.r, flag.degrees
    l = len(degrees)
    lo = hi = castelnuovo_bound(r - l + 1, degrees[-1])
    den = 1
    for i in range(l - 2, -1, -1):
        s1, s2 = degrees[i], degrees[i + 1]
        m = r - i - 2
        offset = s1 * (s1 - 2 - s2) * m * den
        radius = 2 * s2**4 * den
        scale = 2 * m * s1
        lo, hi = scale * lo + offset - radius, scale * hi + offset + radius
        den *= 2 * s2 * m
    return RationalInterval(Fraction(lo, den), Fraction(hi, den))


def flag_genus_interval(
    flag: FlagCondition, separation: Verdict | None = None
) -> FlagGenusResult:
    """Evaluate the recursion and attach the separation hypothesis status.

    A caller that has built check_flag_separation(flag) passes its verdict
    as `separation`, so the radical thresholds are not compared again.
    """
    interval = _interval(flag)
    verified = flag.length == 1 or (separation or flag_separation_verdict(flag)) is Verdict.PASS
    return FlagGenusResult(interval, hypotheses_verified=verified)


def _corollary_form(r: int, d: int, s: int, pi: int) -> Fraction:
    """quadratic_genus_bound(d, s, pi, s^3/(r-2)) over its one denominator 2s(r-2)."""
    return Fraction(
        quadratic_genus_numerator(d, s, pi) * (r - 2) + 2 * s**4, 2 * s * (r - 2)
    )


def corollary_bound(r: int, d: int, s: int, pi: int) -> Fraction:
    """d^2/(2s) + (d/(2s))(2 pi - 2 - s) + s^3/(r-2)."""
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    return _corollary_form(r, d, s, pi)


def corollary_alternative_bound(r: int, d: int, s: int) -> Fraction:
    """The same shape one degree up, with the worst sectional genus.

    Replaces s by s+1 and pi by castelnuovo_bound(r-1, s+1): the bound for
    curves lying on no surface of degree s or less.
    """
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s + 1 < r - 1:
        raise ValidationError(f"need s+1 >= r-1 = {r - 1}, got s={s}")
    return _corollary_form(r, d, s + 1, castelnuovo_bound(r - 1, s + 1))


def speciality_bound(d: int, s: int, pi: int) -> Fraction:
    """(d + 2 pi - 2 - s)/s: exact cap on the speciality index."""
    if s < 1:
        raise ValidationError(f"section degree s must be >= 1, got {s}")
    if d < 1:
        raise ValidationError(f"degree d must be >= 1, got {d}")
    if pi < 0:
        raise ValidationError(f"sectional genus must be >= 0, got {pi}")
    return Fraction(d + 2 * pi - 2 - s, s)
