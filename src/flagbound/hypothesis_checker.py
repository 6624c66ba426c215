"""Exact evaluation of every numerical hypothesis the bounds rely on.

Three families:

* flag separation: the four growth inequalities between consecutive flag
  degrees s_i and s_{i+1} that make the recursive genus interval valid,
* corollary degree: the two d-large conditions behind the closed corollary
  bound (a radical threshold and a cubic one),
* lemma degree: the case-split floor on d for the core identity engine.

Each radical threshold is a T(m, s) (exact_arith.RadicalThreshold): flag
level i compares s_i with T(r-i, s_{i+1}) and the corollary compares d with
T(r-1, s).  All comparisons are exact.  Radical thresholds go through
compare_radical, so a verdict can be undecided only past the digit
budget; rational thresholds always decide.  Reports render each threshold
exactly and, on request, as an explicitly approximate decimal.  Callers that
need only the verdict (flag intervals, batch records, sampling) use the
*_verdict functions, which read the same thresholds, compare them as
integers and decide every rational check before any radical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ValidationError
from .exact_arith import (
    Comparison,
    RadicalThreshold,
    compare_radical,
    format_rational,
    fraction_approx,
)
from .flags import FlagCondition
from .lemma_engine import lemma_degree_threshold


class Verdict(Enum):
    PASS = "pass"
    FAIL = "fail"
    UNDECIDED = "undecided"


def _verdict(comparison: Comparison, relation: str) -> Verdict:
    if comparison is Comparison.UNDECIDED:
        return Verdict.UNDECIDED
    if relation == ">=":
        ok = comparison in (Comparison.GREATER, Comparison.EQUAL)
    elif relation == ">":
        ok = comparison is Comparison.GREATER
    else:
        raise ValidationError(f"unsupported relation {relation!r}")
    return Verdict.PASS if ok else Verdict.FAIL


def _compare_fraction(lhs: int, threshold: Fraction) -> Comparison:
    if lhs < threshold:
        return Comparison.LESS
    if lhs > threshold:
        return Comparison.GREATER
    return Comparison.EQUAL


@dataclass(frozen=True)
class HypothesisCheck:
    """One inequality: lhs relation threshold."""

    label: str
    lhs: int
    relation: str
    threshold: Fraction | RadicalThreshold
    verdict: Verdict

    @property
    def threshold_str(self) -> str:
        if isinstance(self.threshold, RadicalThreshold):
            return str(self.threshold)
        return format_rational(self.threshold)

    def threshold_approx(self, digits: int = 20) -> str:
        if isinstance(self.threshold, RadicalThreshold):
            return self.threshold.approx(digits)
        return fraction_approx(self.threshold, digits)

    def to_dict(self, digits: int = 20) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "relation": self.relation,
            "threshold": self.threshold_str,
            "thresholdApprox": self.threshold_approx(digits),
            "verdict": self.verdict.value,
        }


@dataclass(frozen=True)
class HypothesisReport:
    subject: str
    checks: tuple[HypothesisCheck, ...]

    @property
    def verdict(self) -> Verdict:
        if any(c.verdict is Verdict.FAIL for c in self.checks):
            return Verdict.FAIL
        if any(c.verdict is Verdict.UNDECIDED for c in self.checks):
            return Verdict.UNDECIDED
        return Verdict.PASS

    @property
    def passed(self) -> bool:
        return self.verdict is Verdict.PASS

    def to_dict(self, digits: int = 20) -> dict:
        return {
            "subject": self.subject,
            "verdict": self.verdict.value,
            "checks": [c.to_dict(digits) for c in self.checks],
        }


def _rational_check(label: str, lhs: int, relation: str, threshold: Fraction) -> HypothesisCheck:
    verdict = _verdict(_compare_fraction(lhs, threshold), relation)
    return HypothesisCheck(label, lhs, relation, threshold, verdict)


def _radical_check(label: str, lhs: int, radical: RadicalThreshold) -> HypothesisCheck:
    return HypothesisCheck(label, lhs, ">", radical, _verdict(compare_radical(lhs, radical), ">"))


def _radicals_verdict(pairs) -> Verdict:
    """The verdict of lhs > threshold over (lhs, threshold) pairs, as a
    report would aggregate it: FAIL at the first failure, else UNDECIDED if
    any comparison was, else PASS."""
    verdict = Verdict.PASS
    for lhs, threshold in pairs:
        comparison = compare_radical(lhs, threshold)
        if comparison is Comparison.UNDECIDED:
            verdict = Verdict.UNDECIDED
        elif comparison is not Comparison.GREATER:
            return Verdict.FAIL
    return verdict


def _separation_rationals(r: int, l: int, i: int, s_next: int) -> tuple[int, int, int, int]:
    """Level i's rational thresholds over their common denominator r-i-1,
    as (r-i-1, cubic, quadratic, quartic) numerators:

        cubic     = 8(l-1)(k^2+2k+9)(s_{i+1}+1)^3/(r-i-1),  k = l-i+1  (s_i >=)
        quadratic = (s_{i+1}+1)^2/(r-i-1) + (2r-2)(s_{i+1}+1)        (s_i >)
        quartic   = 2 s_{i+1}^4/(r-i-1)                               (s_i >)
    """
    denom = r - i - 1
    k = l - i + 1
    t = s_next + 1
    return (
        denom,
        8 * (l - 1) * (k * k + 2 * k + 9) * t**3,
        t * t + (2 * r - 2) * t * denom,
        2 * s_next**4,
    )


def check_flag_separation(flag: FlagCondition) -> HypothesisReport:
    """The four separation inequalities between each s_i and s_{i+1}.

    The first is non-strict (>=), the other three strict, matching how the
    conditions are stated (see _separation_rationals; the radical threshold
    is T(r-i, s_{i+1})); i runs over 1..l-1, where the flag invariant keeps
    r-i-1 >= 1.  The radical threshold is compared exactly.
    """
    if flag.length < 2:
        raise ValidationError("flag separation needs at least two degrees")
    r, l = flag.r, flag.length
    checks = []
    for i in range(1, l):
        s_i = flag.degrees[i - 1]
        s_next = flag.degrees[i]
        denom, cubic, quadratic, quartic = _separation_rationals(r, l, i, s_next)
        checks.append(_rational_check(f"i={i} cubic", s_i, ">=", Fraction(cubic, denom)))
        checks.append(
            _rational_check(f"i={i} quadratic", s_i, ">", Fraction(quadratic, denom))
        )
        checks.append(
            _radical_check(f"i={i} radical-product", s_i, RadicalThreshold(r - i, s_next))
        )
        checks.append(_rational_check(f"i={i} quartic", s_i, ">", Fraction(quartic, denom)))
    return HypothesisReport(subject="flagSeparation", checks=tuple(checks))


def flag_separation_verdict(flag: FlagCondition) -> Verdict:
    """check_flag_separation(flag).verdict, without building the report.

    Cheapest first: every rational threshold of every level is compared,
    by cross-multiplying with its positive denominator, before any radical
    one, and the first failure decides.
    """
    if flag.length < 2:
        raise ValidationError("flag separation needs at least two degrees")
    r, l, degrees = flag.r, flag.length, flag.degrees
    for i in range(1, l):
        denom, cubic, quadratic, quartic = _separation_rationals(r, l, i, degrees[i])
        lhs = degrees[i - 1] * denom
        if lhs < cubic or lhs <= quadratic or lhs <= quartic:
            return Verdict.FAIL
    return _radicals_verdict(
        (degrees[i - 1], RadicalThreshold(r - i, degrees[i])) for i in range(1, l)
    )


def _validate_corollary(r: int, d: int, s: int) -> None:
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    if d < 1:
        raise ValidationError(f"degree d must be >= 1, got {d}")


def _corollary_cubic(r: int, s: int) -> tuple[int, int]:
    """The cubic threshold 6(s+1)^3/(r-2) (d >) as (denominator, numerator)."""
    return r - 2, 6 * (s + 1) ** 3


def check_corollary_degree(r: int, d: int, s: int) -> HypothesisReport:
    """The two d-large conditions: d > T(r-1, s) and d > 6(s+1)^3/(r-2)."""
    _validate_corollary(r, d, s)
    denom, cubic = _corollary_cubic(r, s)
    checks = (
        _radical_check("radical-product", d, RadicalThreshold(r - 1, s)),
        _rational_check("cubic", d, ">", Fraction(cubic, denom)),
    )
    return HypothesisReport(subject="corollaryDegree", checks=checks)


def corollary_degree_verdict(r: int, d: int, s: int) -> Verdict:
    """check_corollary_degree(r, d, s).verdict, without building the report:
    the cubic threshold first, the radical one only if the cubic passes."""
    _validate_corollary(r, d, s)
    denom, cubic = _corollary_cubic(r, s)
    if d * denom <= cubic:
        return Verdict.FAIL
    return _radicals_verdict(((d, RadicalThreshold(r - 1, s)),))


def check_lemma_degree(r: int, d: int, s: int) -> HypothesisReport:
    """Case-split degree floor: d >= s^2+s(r-4)^2 (r <= 4), d > s^2-s (r >= 5)."""
    if d < 1:
        raise ValidationError(f"degree d must be >= 1, got {d}")
    threshold, relation = lemma_degree_threshold(r, s)
    check = _rational_check(f"r={r} degree floor", d, relation, Fraction(threshold))
    return HypothesisReport(subject="lemmaDegree", checks=(check,))
