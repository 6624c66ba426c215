import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound import _backend, oracle_suite
from flagbound.errors import IdentityViolationError, ValidationError
from flagbound.exact_arith import RationalInterval
from flagbound.hilbert_profiles import DeltaSequence, HilbertProfile
from flagbound.lemma_engine import LemmaInput, TermEstimates
from flagbound.oracle_suite import (
    oracle_envelope_scan,
    oracle_lemma_chain,
    oracle_point_deficiency_sum,
    oracle_weighted_deficiency_sum,
    scan_castelnuovo_equivalence,
    verify_all,
)
from flagbound.sampling import random_lemma_input


def reference_envelope_scan(r_max, s_max):
    """The envelope scan on Fraction intervals, one case at a time.

    Each piece of R gets its RationalInterval from the bounds stated in
    term_estimate_intervals' docstring; returns (cases, violations,
    tightest ratio, its first witness).
    """
    cases = 0
    violations = []
    tightest = Fraction(-1)
    witness = (0, 0)
    for r in range(4, r_max + 1):
        for s in range(r - 1, s_max + 1):
            rm2 = r - 2
            epsilon_term = RationalInterval(Fraction(-s * s, 2 * rm2), Fraction(s + 1, 2))
            point_sum = RationalInterval(0, Fraction(s**3, 3 * rm2 * rm2))
            delta_sum = RationalInterval(0, Fraction(s * s * (s - 1), 2 * rm2))
            tail = RationalInterval(0, Fraction(s**3, 2 * rm2 * rm2))
            aggregate = RationalInterval(
                epsilon_term.lo - point_sum.hi,
                epsilon_term.hi + delta_sum.hi + tail.hi,
            )
            radius = Fraction(s**3, rm2)
            cases += 1
            if not (-radius <= aggregate.lo and aggregate.hi <= radius):
                violations.append((r, s))
            ratio = max(aggregate.hi, -aggregate.lo) / radius
            if ratio > tightest:
                tightest = ratio
                witness = (r, s)
    return cases, tuple(violations), tightest, witness


def reference_binomial(n, k):
    """C(n, k) with C(n, k) = 0 whenever n < k, the genus-formula convention."""
    return math.comb(n, k) if n >= k else 0


def reference_point_deficiency_sum(r, s):
    """The point oracle on divmod and the n < k binomial."""
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    direct = _backend.deficiency_sum(s, r - 2)
    w, v = divmod(s - 1, r - 2)
    closed = reference_binomial(w, 2) * (r - 2) + w * v
    if direct != closed:
        raise IdentityViolationError(
            f"point deficiency sum mismatch at (r={r}, s={s}): "
            f"direct {direct} vs closed {closed}"
        )
    return direct


def reference_weighted_deficiency_sum(r, s):
    """The weighted oracle on divmod and the n < k binomial."""
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    direct = _backend.weighted_deficiency_sum(s, r - 2)
    w, v = divmod(s - 1, r - 2)
    closed = reference_binomial(w, 3) * (r - 2) + reference_binomial(w, 2) * v
    if direct != closed:
        raise IdentityViolationError(
            f"weighted deficiency sum mismatch at (r={r}, s={s}): "
            f"direct {direct} vs closed {closed}"
        )
    cap = Fraction(s**3, 3 * (r - 2) ** 2)
    if direct > cap:
        raise IdentityViolationError(
            f"weighted deficiency sum {direct} exceeds its cap {cap} at (r={r}, s={s})"
        )
    return direct


def outcome(oracle, r, s):
    """What one oracle call gives: its value, or its error's type and message."""
    try:
        return oracle(r, s)
    except (ValidationError, IdentityViolationError) as exc:
        return type(exc), str(exc)


def fake_estimates(monkeypatch, table):
    """Make the scan read its per-case numerators from table[(r, s)]."""

    def estimates(r, s):
        lo, hi, radius = table[(r, s)]
        return TermEstimates(lo, hi, 0, 0, 0, radius)

    monkeypatch.setattr(oracle_suite, "term_estimate_intervals", estimates)


class TestDeficiencyOracles:
    def test_point_frozen(self):
        assert oracle_point_deficiency_sum(5, 7) == 3
        assert oracle_point_deficiency_sum(4, 3) == 0
        assert oracle_point_deficiency_sum(3, 5) == 6
        assert oracle_point_deficiency_sum(4, 9) == 12

    def test_weighted_frozen(self):
        assert oracle_weighted_deficiency_sum(5, 7) == 0
        assert oracle_weighted_deficiency_sum(3, 5) == 4
        assert oracle_weighted_deficiency_sum(4, 9) == 8

    @pytest.mark.parametrize(
        "r,s,direct,message",
        [
            (4, 6, 18, None),
            (4, 6, 19, "weighted deficiency sum 19 exceeds its cap 18 at (r=4, s=6)"),
            (4, 3, 2, None),
            (4, 3, 3, "weighted deficiency sum 3 exceeds its cap 9/4 at (r=4, s=3)"),
        ],
    )
    def test_weighted_cap_boundary(self, monkeypatch, r, s, direct, message):
        # Both sides of the identity agree on `direct`, so only the cap
        # s^3/(3(r-2)^2) decides.
        monkeypatch.setattr(_backend, "weighted_deficiency_sum", lambda s, m: direct)
        # C(w,3)(r-2) + C(w,2)v with C(w,3) = direct/(r-2) and C(w,2) = 0
        monkeypatch.setattr(
            oracle_suite, "comb", lambda n, k: Fraction(direct, r - 2) if k == 3 else 0
        )
        if message is None:
            assert oracle_weighted_deficiency_sum(r, s) == direct
        else:
            with pytest.raises(IdentityViolationError) as exc:
                oracle_weighted_deficiency_sum(r, s)
            assert str(exc.value) == message

    @pytest.mark.parametrize("offset", [0, 1])
    def test_match_the_division_form_reference(self, monkeypatch, offset):
        # offset 1 moves each direct sum one off, so every case takes the
        # mismatch path and the two messages are compared
        if offset:
            for name in ("deficiency_sum", "weighted_deficiency_sum"):
                kernel = getattr(_backend, name)
                monkeypatch.setattr(_backend, name, lambda s, m, k=kernel: k(s, m) + offset)
        pairs = [
            (oracle_point_deficiency_sum, reference_point_deficiency_sum),
            (oracle_weighted_deficiency_sum, reference_weighted_deficiency_sum),
        ]
        for r in range(3, 13):
            for s in range(0, 301):
                for oracle, reference in pairs:
                    assert outcome(oracle, r, s) == outcome(reference, r, s), (oracle, r, s)

    def test_validation(self):
        with pytest.raises(ValidationError):
            oracle_point_deficiency_sum(2, 5)
        with pytest.raises(ValidationError):
            oracle_weighted_deficiency_sum(4, 2)

    def test_grid_is_silent(self):
        # a pass is just a return; the violation path raises
        for r in range(3, 8):
            for s in range(r - 1, 40):
                oracle_point_deficiency_sum(r, s)
                oracle_weighted_deficiency_sum(r, s)


class TestLemmaChain:
    def test_worked_example(self):
        inp = LemmaInput(r=5, d=50, s=7, point_profile=HilbertProfile(7, (1, 4, 7)))
        result = oracle_lemma_chain(inp)
        assert result.ok
        assert bool(result)
        assert result.truncated_sum == 168
        assert result.closed_form == 168
        assert result.diff_report() == "identity holds"

    def test_with_deltas_and_tail(self):
        inp = LemmaInput(
            r=5,
            d=52,
            s=7,
            point_profile=HilbertProfile(7, (1, 4, 7)),
            deltas=DeltaSequence((0, 1)),
            tail=(3, 1),
        )
        result = oracle_lemma_chain(inp)
        # the chain compares the truncated sum only; tails enter elsewhere
        assert result.ok

    def test_window_preconditions(self):
        # m = 1 < w+1 = 5 for this deliberately tiny degree
        inp = LemmaInput(
            r=4,
            d=10,
            s=9,
            point_profile=HilbertProfile(9, (1, 9)),
            allow_small_degree=True,
        )
        with pytest.raises(ValidationError):
            oracle_lemma_chain(inp)

    def test_random_inputs_hold(self):
        rng = random.Random(99)
        for _ in range(150):
            assert oracle_lemma_chain(random_lemma_input(rng)).ok


class TestEnvelopeScan:
    def test_small_grid(self):
        report = oracle_envelope_scan(4, 3)
        assert report.ok
        assert report.cases == 1
        assert report.violations == ()
        assert report.tightest_ratio == Fraction(79, 108)
        assert report.tightest_witness == (4, 3)

    def test_wider_grid_tightens(self):
        small = oracle_envelope_scan(4, 10)
        wide = oracle_envelope_scan(10, 60)
        assert small.ok and wide.ok
        assert wide.cases > small.cases
        assert wide.tightest_ratio >= small.tightest_ratio
        assert wide.tightest_ratio < 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            oracle_envelope_scan(3, 10)
        with pytest.raises(ValidationError):
            oracle_envelope_scan(4, 1)

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=3, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_matches_fraction_reference(self, r_max, s_max):
        report = oracle_envelope_scan(r_max, s_max)
        assert (
            report.cases,
            report.violations,
            report.tightest_ratio,
            report.tightest_witness,
        ) == reference_envelope_scan(r_max, s_max)

    @pytest.mark.parametrize("lo,hi", [(-10, 3), (-1, 10), (-10, 10)])
    def test_touching_is_inside(self, monkeypatch, lo, hi):
        fake_estimates(monkeypatch, {(4, 3): (lo, hi, 10)})
        report = oracle_envelope_scan(4, 3)
        assert report.violations == ()
        assert report.tightest_ratio == 1
        assert report.tightest_witness == (4, 3)

    @pytest.mark.parametrize("lo,hi", [(-11, 3), (-1, 11)])
    def test_one_unit_outside_is_a_violation(self, monkeypatch, lo, hi):
        fake_estimates(monkeypatch, {(4, 3): (-1, 1, 10), (4, 4): (lo, hi, 10)})
        report = oracle_envelope_scan(4, 4)
        assert report.violations == ((4, 4),)
        assert report.tightest_ratio == Fraction(11, 10)
        assert report.tightest_witness == (4, 4)

    def test_first_witness_wins_ties(self, monkeypatch):
        # 3/10 and 6/20 are the same ratio on different numerators.
        fake_estimates(monkeypatch, {(4, 3): (-1, 3, 10), (4, 4): (-2, 6, 20), (4, 5): (0, 1, 10)})
        report = oracle_envelope_scan(4, 5)
        assert report.violations == ()
        assert report.tightest_ratio == Fraction(3, 10)
        assert report.tightest_witness == (4, 3)

class TestVerifyAll:
    def test_small_battery_passes(self):
        report = verify_all(
            r_max=5,
            s_max=30,
            seeds=40,
            n_max=4,
            deg_max=60,
            flag_count=15,
            corollary_count=5,
            radical_count=25,
            rng_seed=7,
        )
        assert report.ok
        names = [row.name for row in report.rows]
        assert names == [
            "castelnuovo-equivalence",
            "point-deficiency-identity",
            "weighted-deficiency-identity",
            "remainder-envelope",
            "lemma-central-identity",
            "remainder-in-envelope",
            "acm-specialization",
            "flag-width-law",
            "corollary-dichotomy",
            "radical-route-agreement",
        ]
        for row in report.rows:
            assert row.failures == 0
            assert row.cases > 0

    def test_report_serialization(self):
        report = verify_all(
            r_max=4,
            s_max=6,
            seeds=5,
            n_max=3,
            deg_max=20,
            flag_count=3,
            corollary_count=2,
            radical_count=5,
            rng_seed=1,
        )
        doc = report.to_dict()
        assert doc["passed"] is True
        assert len(doc["rows"]) == 10
        assert all(set(r) == {"name", "cases", "failures", "passed", "detail"} for r in doc["rows"])

    def test_castelnuovo_scan_row(self):
        row = scan_castelnuovo_equivalence(4, 30)
        assert row.passed
        assert row.cases == 29 + 28 + 27
        assert row.detail == ""

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            verify_all(r_max=3)
