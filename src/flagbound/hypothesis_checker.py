"""Exact evaluation of every numerical hypothesis the bounds rely on.

Three families:

* flag separation: the four growth inequalities between consecutive flag
  degrees s_i and s_{i+1} that make the recursive genus interval valid,
* corollary degree: the two d-large conditions behind the closed corollary
  bound (a radical product and a cubic threshold),
* lemma degree: the case-split floor on d for the core identity engine.

All comparisons are exact.  Radical thresholds go through compare_radical,
so a verdict can be undecided only past the digit budget; rational
thresholds always decide.  Reports render each threshold exactly and,
on request, as an explicitly approximate decimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ValidationError
from .exact_arith import (
    Comparison,
    RadicalProduct,
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
    threshold: Fraction | RadicalProduct
    verdict: Verdict

    @property
    def threshold_str(self) -> str:
        if isinstance(self.threshold, RadicalProduct):
            return str(self.threshold)
        return format_rational(self.threshold)

    def threshold_approx(self, digits: int = 20) -> str:
        if isinstance(self.threshold, RadicalProduct):
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


def check_flag_separation(flag: FlagCondition) -> HypothesisReport:
    """The four separation inequalities between each s_i and s_{i+1}.

    The first is non-strict (>=), the other three strict, matching how the
    conditions are stated.  The radical-product check compares s_i against

        2(s_{i+1}+1)/(r-i-1) * prod_{j=1}^{r-1-i} [(r-i)!(s_{i+1}+1)]^(1/(r-i-j))

    exactly; i runs over 1..l-1, where the flag invariant keeps r-i-1 >= 1.
    """
    if flag.length < 2:
        raise ValidationError("flag separation needs at least two degrees")
    r, l = flag.r, flag.length
    checks = []
    for i in range(1, l):
        s_i = flag.degrees[i - 1]
        s_next = flag.degrees[i]
        denom = r - i - 1
        k = l - i + 1
        cubic = Fraction(8 * (l - 1) * (k * k + 2 * k + 9) * (s_next + 1) ** 3, denom)
        checks.append(
            HypothesisCheck(
                label=f"i={i} cubic",
                lhs=s_i,
                relation=">=",
                threshold=cubic,
                verdict=_verdict(_compare_fraction(s_i, cubic), ">="),
            )
        )
        quadratic = Fraction((s_next + 1) ** 2, denom) + (2 * r - 2) * (s_next + 1)
        checks.append(
            HypothesisCheck(
                label=f"i={i} quadratic",
                lhs=s_i,
                relation=">",
                threshold=quadratic,
                verdict=_verdict(_compare_fraction(s_i, quadratic), ">"),
            )
        )
        product = RadicalProduct(
            Fraction(2 * (s_next + 1), denom),
            tuple(
                (math.factorial(r - i) * (s_next + 1), r - i - j)
                for j in range(1, r - i)
            ),
        )
        checks.append(
            HypothesisCheck(
                label=f"i={i} radical-product",
                lhs=s_i,
                relation=">",
                threshold=product,
                verdict=_verdict(compare_radical(s_i, product), ">"),
            )
        )
        quartic = Fraction(2 * s_next**4, denom)
        checks.append(
            HypothesisCheck(
                label=f"i={i} quartic",
                lhs=s_i,
                relation=">",
                threshold=quartic,
                verdict=_verdict(_compare_fraction(s_i, quartic), ">"),
            )
        )
    return HypothesisReport(subject="flagSeparation", checks=tuple(checks))


def check_corollary_degree(r: int, d: int, s: int) -> HypothesisReport:
    """The two d-large conditions: a radical product and 6(s+1)^3/(r-2)."""
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    if d < 1:
        raise ValidationError(f"degree d must be >= 1, got {d}")
    product = RadicalProduct(
        Fraction(2 * (s + 1), r - 2),
        tuple((math.factorial(r - 1) * (s + 1), r - 1 - i) for i in range(1, r - 1)),
    )
    cubic = Fraction(6 * (s + 1) ** 3, r - 2)
    checks = (
        HypothesisCheck(
            label="radical-product",
            lhs=d,
            relation=">",
            threshold=product,
            verdict=_verdict(compare_radical(d, product), ">"),
        ),
        HypothesisCheck(
            label="cubic",
            lhs=d,
            relation=">",
            threshold=cubic,
            verdict=_verdict(_compare_fraction(d, cubic), ">"),
        ),
    )
    return HypothesisReport(subject="corollaryDegree", checks=checks)


def check_lemma_degree(r: int, d: int, s: int) -> HypothesisReport:
    """Case-split degree floor: d >= s^2+s(r-4)^2 (r <= 4), d > s^2-s (r >= 5)."""
    if d < 1:
        raise ValidationError(f"degree d must be >= 1, got {d}")
    threshold, relation = lemma_degree_threshold(r, s)
    check = HypothesisCheck(
        label=f"r={r} degree floor",
        lhs=d,
        relation=relation,
        threshold=Fraction(threshold),
        verdict=_verdict(_compare_fraction(d, Fraction(threshold)), relation),
    )
    return HypothesisReport(subject="lemmaDegree", checks=(check,))
