from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound import exact_arith
from flagbound.errors import ValidationError
from flagbound.exact_arith import (
    Comparison,
    RadicalProduct,
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
    def test_validation(self):
        with pytest.raises(ValidationError):
            RadicalProduct(Fraction(0))
        with pytest.raises(ValidationError):
            RadicalProduct(Fraction(1), ((0, 2),))
        with pytest.raises(ValidationError):
            RadicalProduct(Fraction(1), ((2, 0),))

    def test_str(self):
        rp = RadicalProduct(Fraction(4), ((24, 2), (24, 1)))
        assert str(rp) == "4 * 24^(1/2) * 24"
        assert str(RadicalProduct(Fraction(2, 3))) == "2/3"

    def test_enclosure_brackets_value(self):
        rp = RadicalProduct(Fraction(4), ((24, 2), (24, 1)))
        box = rp.enclosure(30)
        # 4 * 24^(3/2) = sqrt(221184): between 470 and 471
        assert 470 < box.lo <= box.hi < 471
        assert box.width < Fraction(1, 10**25)

    def test_enclosure_point_when_rational(self):
        box = RadicalProduct(Fraction(3), ((16, 2),)).enclosure(10)
        assert box.is_point and box.lo == 12

    def test_approx(self):
        assert RadicalProduct(Fraction(3), ((16, 2),)).approx(6) == "12"


def _per_factor_exact(lhs: int, rhs: RadicalProduct) -> Comparison:
    """Both sides to the power lcm(roots), the right one factor at a time."""
    L = rhs.root_lcm
    left = (lhs * rhs.scalar.denominator) ** L
    right = rhs.scalar.numerator**L
    for base, root in rhs.factors:
        right *= base ** (L // root)
    if left < right:
        return Comparison.LESS
    return Comparison.GREATER if left > right else Comparison.EQUAL


class TestCompareRadical:
    # The worked boundary pair: 471^2 = 221841 > 4^2 * 24^3 = 221184 > 470^2 = 220900.
    BOUNDARY = RadicalProduct(Fraction(4), ((24, 2), (24, 1)))

    def test_boundary_pair(self):
        assert compare_radical(471, self.BOUNDARY) is Comparison.GREATER
        assert compare_radical(470, self.BOUNDARY) is Comparison.LESS

    def test_both_routes_on_boundary(self):
        for route in (compare_radical_exact, compare_radical_enclosure):
            assert route(471, self.BOUNDARY) is Comparison.GREATER
            assert route(470, self.BOUNDARY) is Comparison.LESS

    def test_equality_exact_route(self):
        rp = RadicalProduct(Fraction(3), ((16, 2),))
        assert compare_radical(12, rp) is Comparison.EQUAL
        assert compare_radical(13, rp) is Comparison.GREATER
        assert compare_radical(11, rp) is Comparison.LESS

    def test_repeated_base_perfect_powers(self):
        # 64^(1/2) * 64^(1/3) * 64^(1/6) * 64 = 8 * 4 * 2 * 64, times 3/2
        rp = RadicalProduct(Fraction(3, 2), ((64, 2), (64, 3), (64, 6), (64, 1)))
        assert compare_radical_exact(6144, rp) is Comparison.EQUAL
        assert compare_radical_exact(6143, rp) is Comparison.LESS
        assert compare_radical_exact(6145, rp) is Comparison.GREATER

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=12),
        st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([2, 3, 24, 264]), st.integers(1, 10**4)),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=4,
        ),
        st.integers(min_value=-1, max_value=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_grouped_powering_matches_per_factor(self, num, den, roots, others, delta):
        # c^k under each root k, once as a perfect power and once as c^k itself
        # to a repeated base, makes the product rational and lhs lands on it.
        c = 1 + num % 7
        perfect = tuple((c**k, k) for k in roots)
        rhs = RadicalProduct(Fraction(num, den), perfect + perfect[:1] + tuple(others))
        value = num * c ** (len(roots) + 1)
        lhs = max(1, value // den + delta)
        expected = _per_factor_exact(lhs, rhs)
        assert compare_radical_exact(lhs, rhs) is expected
        if not others and value % den == 0 and delta == 0:
            assert expected is Comparison.EQUAL

    def test_equality_through_enclosure(self):
        rp = RadicalProduct(Fraction(3), ((16, 2),))
        assert compare_radical_enclosure(12, rp) is Comparison.EQUAL

    def test_plain_rational_comparison(self):
        rp = RadicalProduct(Fraction(20000, 3))
        assert compare_radical(6666, rp) is Comparison.LESS
        assert compare_radical(6667, rp) is Comparison.GREATER

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
        # sqrt(999983) = 999.9915; a 1-digit enclosure is too coarse to
        # separate it from 1000, and only then may UNDECIDED appear.
        rp = RadicalProduct(Fraction(1), ((999983, 2),))
        assert compare_radical_enclosure(1000, rp, digits=1) is Comparison.UNDECIDED
        assert compare_radical_enclosure(1000, rp, digits=10) is Comparison.GREATER
        assert compare_radical(1000, rp) is Comparison.GREATER
        monkeypatch.setattr(exact_arith, "DIGIT_BUDGET", 1)
        monkeypatch.setattr(exact_arith, "FALLBACK_ENCLOSURE_DIGITS", 1)
        assert compare_radical(1000, rp) is Comparison.UNDECIDED

    def test_digit_budget_is_the_module_constant(self):
        assert digit_budget() == exact_arith.DIGIT_BUDGET == 10**6

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=1, max_value=50),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=10**4),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_routes_agree_when_enclosure_decides(self, lhs, num, den, factors):
        rhs = RadicalProduct(Fraction(num, den), tuple(factors))
        exact = compare_radical_exact(lhs, rhs)
        enclosed = compare_radical_enclosure(lhs, rhs, digits=60)
        if enclosed is not Comparison.UNDECIDED:
            assert enclosed is exact
