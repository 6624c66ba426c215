import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound.errors import ValidationError
from flagbound.exact_arith import Comparison, RadicalThreshold
from flagbound.flag_recurrence import flag_genus_interval
from flagbound.flags import FlagCondition
from flagbound.hypothesis_checker import (
    HypothesisCheck,
    HypothesisReport,
    Verdict,
    check_corollary_degree,
    check_flag_separation,
    check_lemma_degree,
    corollary_degree_verdict,
    flag_separation_verdict,
)


class TestFlagSeparation:
    def test_small_flag_fails_quartic(self):
        report = check_flag_separation(FlagCondition(5, (1000, 10)))
        assert report.subject == "flagSeparation"
        assert len(report.checks) == 4
        assert report.verdict is Verdict.FAIL
        by_label = {c.label: c for c in report.checks}
        quartic = by_label["i=1 quartic"]
        assert quartic.threshold == Fraction(2 * 10**4, 3) == Fraction(20000, 3)
        assert quartic.verdict is Verdict.FAIL
        # the cubic separation also fails: 8*1*(2^2+2*2+9)*11^3/3
        assert by_label["i=1 cubic"].threshold == Fraction(8 * 17 * 1331, 3)
        assert by_label["i=1 cubic"].verdict is Verdict.FAIL

    def test_large_flag_passes(self):
        report = check_flag_separation(FlagCondition(5, (10**6, 10)))
        assert report.verdict is Verdict.PASS
        assert report.passed
        assert all(c.verdict is Verdict.PASS for c in report.checks)

    def test_relations(self):
        report = check_flag_separation(FlagCondition(5, (10**6, 10)))
        relations = [c.relation for c in report.checks]
        assert relations == [">=", ">", ">", ">"]

    def test_radical_threshold_structure(self):
        report = check_flag_separation(FlagCondition(5, (10**6, 10)))
        product = next(
            c.threshold for c in report.checks if c.label == "i=1 radical-product"
        )
        # i=1, r=5: T(4, 10) = 2*11/3 * (4!*11)^(1/3) * (4!*11)^(1/2) * 4!*11
        assert product == RadicalThreshold(4, 10)
        assert (product.scalar, product.base) == (Fraction(22, 3), 264)
        assert str(product) == "22/3 * 264^(1/3) * 264^(1/2) * 264"

    def test_three_step_flag_checks_each_gap(self):
        flag = FlagCondition(6, (10**9, 10**5, 10))
        report = check_flag_separation(flag)
        assert len(report.checks) == 8
        labels = {c.label for c in report.checks}
        assert "i=1 cubic" in labels and "i=2 quartic" in labels

    def test_single_degree_raises(self):
        with pytest.raises(ValidationError):
            check_flag_separation(FlagCondition(5, (1000,)))

    @given(st.integers(min_value=4, max_value=8), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_extremes_decide_both_ways(self, r, slack):
        s2 = r - 1 + slack
        fails = check_flag_separation(FlagCondition(r, (max(r, s2), s2)))
        # 10^13 clears every threshold in this (r, s2) range
        passes = check_flag_separation(FlagCondition(r, (10**13, s2)))
        assert fails.verdict is Verdict.FAIL
        assert passes.verdict is Verdict.PASS


class TestCorollaryDegree:
    def test_boundary_pair(self):
        # the radical threshold T(3, 3) at (r=4, s=3) sits strictly between 470 and 471
        low = check_corollary_degree(4, 470, 3)
        high = check_corollary_degree(4, 471, 3)
        radical_low = next(c for c in low.checks if c.label == "radical-product")
        radical_high = next(c for c in high.checks if c.label == "radical-product")
        assert radical_low.verdict is Verdict.FAIL
        assert radical_high.verdict is Verdict.PASS
        # cubic threshold 6*64/2 = 192 passes for both
        assert all(
            c.verdict is Verdict.PASS for c in low.checks if c.label == "cubic"
        )

    def test_whole_report(self):
        report = check_corollary_degree(4, 200, 3)
        assert report.verdict is Verdict.FAIL  # the radical threshold needs d > 470.3...
        report = check_corollary_degree(4, 10**6, 3)
        assert report.verdict is Verdict.PASS

    def test_threshold_rendering(self):
        report = check_corollary_degree(4, 471, 3)
        radical = next(c for c in report.checks if c.label == "radical-product")
        assert radical.threshold_str == "4 * 24^(1/2) * 24"
        assert radical.threshold_approx(6).startswith("470.3")
        doc = radical.to_dict(digits=6)
        assert doc["verdict"] == "pass"
        assert doc["thresholdApprox"].startswith("470.3")

    def test_validation(self):
        with pytest.raises(ValidationError):
            check_corollary_degree(2, 100, 5)
        with pytest.raises(ValidationError):
            check_corollary_degree(5, 100, 3)
        with pytest.raises(ValidationError):
            check_corollary_degree(4, 0, 3)


class TestLemmaDegree:
    @pytest.mark.parametrize(
        "r,d,s,expected",
        [
            (4, 9, 3, Verdict.PASS),  # d >= 9 inclusive
            (4, 8, 3, Verdict.FAIL),
            (3, 11, 3, Verdict.FAIL),  # needs d >= 12
            (3, 12, 3, Verdict.PASS),
            (5, 43, 7, Verdict.PASS),  # d > 42 strict
            (5, 42, 7, Verdict.FAIL),
        ],
    )
    def test_cases(self, r, d, s, expected):
        report = check_lemma_degree(r, d, s)
        assert report.subject == "lemmaDegree"
        assert report.verdict is expected

    def test_label_and_relation(self):
        report = check_lemma_degree(5, 43, 7)
        (check,) = report.checks
        assert check.label == "r=5 degree floor"
        assert check.relation == ">"
        assert check.threshold == 42


def _ceiling(threshold) -> int:
    """The least integer above every value a threshold may take."""
    if isinstance(threshold, RadicalThreshold):
        threshold = threshold.enclosure(30).hi
    return math.floor(threshold) + 1


def _level_thresholds(r: int, i: int, inner: list[int]) -> dict[str, object]:
    """Level i's thresholds by kind, read from a report on a flag whose
    degrees from s_{i+1} inward are `inner` (they depend on nothing else)."""
    flag = FlagCondition(r, (max(inner[0], r),) * i + tuple(inner))
    prefix = f"i={i} "
    return {
        c.label[len(prefix):]: c.threshold
        for c in check_flag_separation(flag).checks
        if c.label.startswith(prefix)
    }


def _assert_flag_agreement(flag: FlagCondition) -> None:
    report = check_flag_separation(flag)
    assert flag_separation_verdict(flag) is report.verdict
    assert flag_genus_interval(flag).hypotheses_verified == report.passed


@st.composite
def _boundary_flags(draw) -> FlagCondition:
    """Flags with r <= 8 and length 2..4 whose degrees clear every threshold
    but one: at one level, s_i sits on a rational threshold or one off it."""
    length = draw(st.integers(min_value=2, max_value=4))
    r = draw(st.integers(min_value=length + 1, max_value=8))
    degrees = [r - length + 1 + draw(st.integers(min_value=0, max_value=6))]
    level = draw(st.integers(min_value=1, max_value=length - 1))
    kind = draw(st.sampled_from(["cubic", "quadratic", "quartic"]))
    delta = draw(st.integers(min_value=-1, max_value=1))
    for i in range(length - 1, 0, -1):
        thresholds = _level_thresholds(r, i, degrees)
        if i == level:
            s_i = math.floor(thresholds[kind]) + delta
        else:
            s_i = max(_ceiling(t) for t in thresholds.values()) + draw(
                st.integers(min_value=0, max_value=3)
            )
        degrees.insert(0, max(s_i, degrees[0], r - i + 1))
    return FlagCondition(r, tuple(degrees))


class TestVerdictAgreement:
    """The verdict-only functions against the verdicts of the full reports."""

    @given(_boundary_flags())
    @settings(max_examples=200, deadline=None)
    def test_flag_at_rational_thresholds(self, flag):
        _assert_flag_agreement(flag)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_random_flags(self, seed):
        rng = random.Random(seed)
        r = rng.randint(3, 8)
        length = rng.randint(2, min(4, r - 1))
        degrees = [r - length + 1 + rng.randint(0, 6)]
        for i in range(length - 1, 0, -1):
            jump = rng.choice([rng.randint(0, 50), rng.randint(0, 10**6), rng.randint(0, 10**15)])
            degrees.insert(0, max(degrees[0], r - i + 1) + jump)
        _assert_flag_agreement(FlagCondition(r, tuple(degrees)))

    @pytest.mark.parametrize(
        "flag,verdict",
        [
            # level 1 of (3; s1, 2): cubic 8*17*27 = 3672 binds, and s1 >= it passes
            (FlagCondition(3, (3671, 2)), Verdict.FAIL),
            (FlagCondition(3, (3672, 2)), Verdict.PASS),
            # (3; s1, 100): quartic 2*10^8 binds over cubic 136*101^3, and s1 > it passes
            (FlagCondition(3, (2 * 10**8, 100)), Verdict.FAIL),
            (FlagCondition(3, (2 * 10**8 + 1, 100)), Verdict.PASS),
        ],
    )
    def test_binding_rational_thresholds(self, flag, verdict):
        assert check_flag_separation(flag).verdict is verdict
        _assert_flag_agreement(flag)

    @given(
        st.integers(min_value=3, max_value=8),
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=-1, max_value=1),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_corollary_at_thresholds(self, r, slack, delta, at_cubic):
        s = r - 1 + slack
        radical, cubic = (c.threshold for c in check_corollary_degree(r, 1, s).checks)
        d = max(1, (math.floor(cubic) if at_cubic else _ceiling(radical)) + delta)
        assert corollary_degree_verdict(r, d, s) is check_corollary_degree(r, d, s).verdict

    def test_corollary_cubic_is_strict(self):
        # (3; s=2): cubic 6*27/1 = 162 binds over the radical 4*3^2 = 36
        assert corollary_degree_verdict(3, 162, 2) is Verdict.FAIL
        assert corollary_degree_verdict(3, 163, 2) is Verdict.PASS

    def test_corollary_validation_matches(self):
        for args in ((2, 100, 5), (5, 100, 3), (4, 0, 3)):
            with pytest.raises(ValidationError) as verdict_error:
                corollary_degree_verdict(*args)
            with pytest.raises(ValidationError) as report_error:
                check_corollary_degree(*args)
            assert str(verdict_error.value) == str(report_error.value)

    @pytest.mark.parametrize(
        "outcomes,verdict",
        [
            ((Comparison.UNDECIDED, Comparison.LESS), Verdict.FAIL),
            ((Comparison.LESS, Comparison.UNDECIDED), Verdict.FAIL),
            ((Comparison.UNDECIDED, Comparison.GREATER), Verdict.UNDECIDED),
            ((Comparison.UNDECIDED, Comparison.UNDECIDED), Verdict.UNDECIDED),
            ((Comparison.GREATER, Comparison.EQUAL), Verdict.FAIL),
        ],
    )
    def test_radical_outcomes_aggregate_like_the_report(self, monkeypatch, outcomes, verdict):
        # every rational threshold passes, so the two radical checks decide
        flag = FlagCondition(6, (10**40, 10**9, 10))
        by_lhs = dict(zip(flag.degrees[:2], outcomes))
        monkeypatch.setattr(
            "flagbound.hypothesis_checker.compare_radical", lambda lhs, rhs: by_lhs[lhs]
        )
        assert check_flag_separation(flag).verdict is verdict
        assert flag_separation_verdict(flag) is verdict


class TestReportAggregation:
    def _check(self, verdict):
        return HypothesisCheck(
            label="x", lhs=1, relation=">", threshold=Fraction(0), verdict=verdict
        )

    def test_fail_dominates_undecided(self):
        report = HypothesisReport(
            subject="t",
            checks=(self._check(Verdict.UNDECIDED), self._check(Verdict.FAIL)),
        )
        assert report.verdict is Verdict.FAIL

    def test_undecided_dominates_pass(self):
        report = HypothesisReport(
            subject="t",
            checks=(self._check(Verdict.PASS), self._check(Verdict.UNDECIDED)),
        )
        assert report.verdict is Verdict.UNDECIDED
        assert not report.passed

    def test_all_pass(self):
        report = HypothesisReport(subject="t", checks=(self._check(Verdict.PASS),))
        assert report.passed

    def test_to_dict(self):
        report = HypothesisReport(subject="t", checks=(self._check(Verdict.PASS),))
        doc = report.to_dict()
        assert doc["subject"] == "t"
        assert doc["verdict"] == "pass"
        assert doc["checks"][0]["label"] == "x"
