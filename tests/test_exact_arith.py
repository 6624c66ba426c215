import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound import exact_arith
from flagbound.errors import ValidationError
from flagbound.exact_arith import (
    Comparison,
    RadicalThreshold,
    RationalInterval,
    compare_radical,
    compare_radical_enclosure,
    compare_radical_exact,
    digit_budget,
    format_rational,
    fraction_approx,
    integer_nth_root,
)


class TestRationalFormat:
    def test_format(self):
        assert format_rational(Fraction(3, 7)) == "3/7"
        assert format_rational(Fraction(-3, 7)) == "-3/7"
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(5) == "5"
        assert format_rational(-12) == "-12"
        assert format_rational(10**40) == "1" + "0" * 40
        assert format_rational(Fraction(0)) == "0"

    @given(st.fractions(max_denominator=10**9))
    def test_round_trip(self, q):
        assert Fraction(format_rational(q)) == q

    def test_approx_is_labeled_width(self):
        assert fraction_approx(Fraction(1, 3), 5) == "0.33333"
        assert fraction_approx(Fraction(20000, 3), 20) == "6666.6666666666666667"


class TestIntegerNthRoot:
    def test_small(self):
        assert integer_nth_root(0, 3) == (0, True)
        assert integer_nth_root(1, 5) == (1, True)
        assert integer_nth_root(8, 3) == (2, True)
        assert integer_nth_root(9, 3) == (2, False)
        assert integer_nth_root(24, 2) == (4, False)
        assert integer_nth_root(10**18, 6) == (1000, True)

    def test_rejects(self):
        with pytest.raises(ValidationError):
            integer_nth_root(-1, 2)
        with pytest.raises(ValidationError):
            integer_nth_root(10, 0)

    @given(
        st.integers(min_value=0, max_value=10**40),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=300)
    def test_floor_property(self, x, n):
        r, exact = integer_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n
        assert exact == (r**n == x)

    @given(
        st.integers(min_value=2, max_value=10**250),
        st.integers(min_value=2, max_value=16),
        st.sampled_from([-1, 0, 1]),
    )
    @settings(max_examples=200)
    def test_large_near_perfect_powers(self, b, n, delta):
        # the enclosures take roots of numbers with thousands of digits
        assert integer_nth_root(b**n + delta, n) == (b - (delta < 0), delta == 0)


class TestRationalInterval:
    def test_basic(self):
        box = RationalInterval(Fraction(1, 3), Fraction(1, 2))
        assert box.width == Fraction(1, 6)
        assert box.midpoint == Fraction(5, 12)
        assert not box.is_point

    def test_point(self):
        p = RationalInterval(7, 7)
        assert p.is_point and p.width == 0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            RationalInterval(1, 0)

    def test_endpoints_become_exact_fractions(self):
        class SubFraction(Fraction):
            pass

        box = RationalInterval(-2, "7/3")
        assert (box.lo, box.hi) == (Fraction(-2), Fraction(7, 3))
        sub = RationalInterval(SubFraction(1, 2), SubFraction(3, 2))
        assert (sub.lo, sub.hi) == (Fraction(1, 2), Fraction(3, 2))
        for end in (box.lo, box.hi, sub.lo, sub.hi):
            assert type(end) is Fraction
        with pytest.raises(ValidationError):
            RationalInterval("1/2", Fraction(1, 3))

    def test_serialization(self):
        box = RationalInterval(Fraction(149900, 3), Fraction(151900, 3))
        assert box.to_dict() == {"lo": "149900/3", "hi": "151900/3"}


class TestRadicalProduct:
    # T(m, s) = 2(s+1)/(m-1) * prod_{k=1}^{m-1} B^(1/k), B = m!(s+1)
    def test_validation(self):
        with pytest.raises(ValidationError):
            RadicalThreshold(1, 3)
        with pytest.raises(ValidationError):
            RadicalThreshold(3, 0)

    def test_str(self):
        assert str(RadicalThreshold(3, 3)) == "4 * 24^(1/2) * 24"
        assert str(RadicalThreshold(2, 10)) == "22 * 22"
        assert str(RadicalThreshold(5, 10)) == "11/2 * 1320^(1/4) * 1320^(1/3) * 1320^(1/2) * 1320"

    def test_enclosure_brackets_value(self):
        box = RadicalThreshold(3, 3).enclosure(30)
        # 4 * 24^(3/2) = sqrt(221184): between 470 and 471
        assert 470 < box.lo <= box.hi < 471
        assert box.width < Fraction(1, 10**25)

    def test_enclosure_point_when_rational(self):
        # T(3, 5) = 6 * 36^(1/2) * 36 = 1296
        box = RadicalThreshold(3, 5).enclosure(10)
        assert box.is_point and box.lo == 1296

    def test_approx(self):
        assert RadicalThreshold(3, 5).approx(6) == "1296"


def _old_factor_list(m: int, s: int) -> str:
    """T(m, s) written out as a scalar and (base, root) factors, roots m-1
    down to 1, the way the general radical product rendered it."""
    base = math.factorial(m) * (s + 1)
    parts = [format_rational(Fraction(2 * (s + 1), m - 1))]
    parts += [str(base) if root == 1 else f"{base}^(1/{root})" for root in range(m - 1, 0, -1)]
    return " * ".join(parts)


def _per_factor_exact(lhs: int, rhs: RadicalThreshold) -> Comparison:
    """Both sides to the power lcm(1..m-1), the right one factor at a time."""
    m, s = rhs.m, rhs.s
    L = math.lcm(*range(1, m))
    scalar = Fraction(2 * (s + 1), m - 1)
    base = math.factorial(m) * (s + 1)
    left = (lhs * scalar.denominator) ** L
    right = scalar.numerator**L
    for root in range(1, m):
        right *= base ** (L // root)
    if left < right:
        return Comparison.LESS
    return Comparison.GREATER if left > right else Comparison.EQUAL


class TestCompareRadical:
    # The worked boundary pair: 471^2 = 221841 > 4^2 * 24^3 = 221184 > 470^2 = 220900.
    BOUNDARY = RadicalThreshold(3, 3)

    def test_boundary_pair(self):
        assert compare_radical(471, self.BOUNDARY) is Comparison.GREATER
        assert compare_radical(470, self.BOUNDARY) is Comparison.LESS

    def test_both_routes_on_boundary(self):
        for route in (compare_radical_exact, compare_radical_enclosure):
            assert route(471, self.BOUNDARY) is Comparison.GREATER
            assert route(470, self.BOUNDARY) is Comparison.LESS

    def test_equality_exact_route(self):
        rp = RadicalThreshold(3, 5)
        assert compare_radical(1296, rp) is Comparison.EQUAL
        assert compare_radical(1297, rp) is Comparison.GREATER
        assert compare_radical(1295, rp) is Comparison.LESS

    def test_repeated_base_perfect_powers(self):
        # T(3, 6k^2-1) = 6k^2 * 6k * 36k^2 = 1296k^5.  T(7, s) at
        # B = 7!(s+1) = 210^20 is 210^69/15120, rational though its roots of
        # orders 3 and 6 are not: the one base carries the exponent sum.
        cases = [(RadicalThreshold(3, 6 * k * k - 1), 1296 * k**5) for k in (1, 2, 7)]
        cases.append((RadicalThreshold(7, 210**20 // 5040 - 1), 210**69 // 15120))
        for rp, value in cases:
            assert compare_radical_exact(value, rp) is Comparison.EQUAL
            assert compare_radical_exact(value - 1, rp) is Comparison.LESS
            assert compare_radical_exact(value + 1, rp) is Comparison.GREATER

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_powering_matches_per_factor(self, m, s, k):
        # One base B raised to sum L/k is the product of the factors, each
        # raised to L/k.  Past m = 10 the powered integers run to millions of
        # digits, so there only the rendering is checked.
        rp = RadicalThreshold(m, s)
        assert str(rp) == _old_factor_list(m, s)
        if m <= 10:
            box = rp.enclosure(40)
            floor = math.floor(box.lo)
            assert floor == math.floor(box.hi)
            for lhs in (floor, floor + 1):
                assert compare_radical_exact(lhs, rp) is _per_factor_exact(lhs, rp)
        assert compare_radical_exact(4 * (s + 1) ** 2, RadicalThreshold(2, s)) is Comparison.EQUAL
        family = RadicalThreshold(3, 6 * k * k - 1)
        assert compare_radical_exact(1296 * k**5, family) is Comparison.EQUAL

    def test_equality_through_enclosure(self):
        assert compare_radical_enclosure(1296, RadicalThreshold(3, 5)) is Comparison.EQUAL
        assert compare_radical_enclosure(4 * 11**2, RadicalThreshold(2, 10)) is Comparison.EQUAL

    def test_plain_rational_comparison(self):
        # m = 2 has the single root 1: T(2, 40) = 82 * 82 = 6724
        rp = RadicalThreshold(2, 40)
        assert compare_radical(6723, rp) is Comparison.LESS
        assert compare_radical(6724, rp) is Comparison.EQUAL
        assert compare_radical(6725, rp) is Comparison.GREATER

    def test_rejects_nonpositive_lhs(self):
        with pytest.raises(ValidationError):
            compare_radical(0, self.BOUNDARY)

    def test_budget_exhaustion_falls_back(self, monkeypatch):
        # With a one-digit budget the exact route is unaffordable (and
        # stubbed out, so taking it fails the test); the 200-digit
        # enclosure still decides this comfortably.
        monkeypatch.setattr(exact_arith, "DIGIT_BUDGET", 1)
        monkeypatch.setattr(exact_arith, "compare_radical_exact", None)
        assert compare_radical(471, self.BOUNDARY) is Comparison.GREATER
        assert compare_radical(470, self.BOUNDARY) is Comparison.LESS

    def test_undecided_only_under_coarse_enclosure(self, monkeypatch):
        # T(3, 3) = 470.30; a 1-digit enclosure, [460.8, 470.4], is too
        # coarse to separate it from 470, and only then may UNDECIDED appear.
        rp = self.BOUNDARY
        assert compare_radical_enclosure(470, rp, digits=1) is Comparison.UNDECIDED
        assert compare_radical_enclosure(470, rp, digits=10) is Comparison.LESS
        assert compare_radical(470, rp) is Comparison.LESS
        monkeypatch.setattr(exact_arith, "DIGIT_BUDGET", 1)
        monkeypatch.setattr(exact_arith, "FALLBACK_ENCLOSURE_DIGITS", 1)
        assert compare_radical(470, rp) is Comparison.UNDECIDED

    def test_digit_budget_is_the_module_constant(self):
        assert digit_budget() == exact_arith.DIGIT_BUDGET == 10**6

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=10**4),
        st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_routes_agree_when_enclosure_decides(self, m, s, delta):
        rhs = RadicalThreshold(m, s)
        lhs = max(1, math.floor(rhs.enclosure(30).lo) + delta)
        exact = compare_radical_exact(lhs, rhs)
        enclosed = compare_radical_enclosure(lhs, rhs, digits=60)
        if enclosed is not Comparison.UNDECIDED:
            assert enclosed is exact


class TestPoweringArithmetic:
    # compare_radical_exact builds its powers as ints below
    # _DECIMAL_DIGITS and in an exact decimal context above it.  The parity
    # tests patch the crossover to send every comparison down one path,
    # then the other.
    def test_one_powering_plan_per_comparison(self, monkeypatch):
        # the route choice and the exact route share L, p/q, e and the estimate
        calls = []
        plan = exact_arith._powering
        monkeypatch.setattr(exact_arith, "_powering", lambda *a: calls.append(a) or plan(*a))
        assert compare_radical(471, RadicalThreshold(3, 3)) is Comparison.GREATER
        assert len(calls) == 1

    @staticmethod
    def _both_paths(monkeypatch, lhs, rhs):
        verdicts = []
        for crossover in (0, 10**18):
            monkeypatch.setattr(exact_arith, "_DECIMAL_DIGITS", crossover)
            verdicts.append(compare_radical_exact(lhs, rhs))
        return verdicts

    def test_paths_agree_around_the_floor(self, monkeypatch):
        # m = 12, 13 power to 0.8-1.0 M digits, past the crossover
        rng = random.Random(1407)
        for m in range(8, 14):
            rhs = RadicalThreshold(m, rng.randint(m, m + 2))
            floor = math.floor(rhs.enclosure(40).lo)
            for lhs in (floor, floor + 1, floor + 2):
                by_decimal, by_int = self._both_paths(monkeypatch, lhs, rhs)
                assert by_decimal is by_int
                assert by_int is (Comparison.LESS if lhs == floor else Comparison.GREATER)

    def test_paths_agree_on_a_rational_threshold_past_the_crossover(self, monkeypatch):
        # B = 7!(s+1) = 210^300 makes T(7, s) = (s+1)/3 * B^(49/20)
        # = 210^1035/15120 rational; its powered sides have about 144k digits.
        rhs = RadicalThreshold(7, 210**300 // 5040 - 1)
        value = 210**1035 // 15120
        assert exact_arith._powering(value, rhs)[-1] > exact_arith._DECIMAL_DIGITS
        for lhs, expected in (
            (value - 1, Comparison.LESS),
            (value, Comparison.EQUAL),
            (value + 1, Comparison.GREATER),
        ):
            assert self._both_paths(monkeypatch, lhs, rhs) == [expected, expected]

    def test_decimal_path_keeps_every_digit(self, monkeypatch):
        # T(2, s) = 4(s+1)^2 = 4 * 10^100002 at s+1 = 10^50001; lhs one
        # above it agrees with it in its first 100,002 digits, so a context
        # that rounded to 10^5 digits would call the two equal.
        rhs = RadicalThreshold(2, 10**50001 - 1)
        lhs = 4 * 10**100002 + 1
        assert exact_arith._powering(lhs, rhs)[-1] > exact_arith._DECIMAL_DIGITS
        assert compare_radical_exact(lhs, rhs) is Comparison.GREATER
