import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound.castelnuovo import castelnuovo_bound
from flagbound.errors import ValidationError
from flagbound.flag_recurrence import (
    _interval,
    corollary_alternative_bound,
    corollary_bound,
    flag_genus_interval,
    speciality_bound,
)
from flagbound.flags import FlagCondition
from flagbound.hypothesis_checker import (
    Verdict,
    check_flag_separation,
    corollary_degree_verdict,
)
from flagbound.lemma_engine import quadratic_genus_bound
from flagbound.sampling import random_flag


def _fraction_fold(flag: FlagCondition) -> tuple[Fraction, Fraction]:
    """The recursion over Fraction endpoints: per level, the affine map
    x -> (s1/s2) x + s1^2/(2 s2) + (s1/(2 s2))(-2 - s2), then widening by
    s2^3/(r-i-2)."""
    r, degrees = flag.r, flag.degrees
    lo = hi = Fraction(castelnuovo_bound(r - len(degrees) + 1, degrees[-1]))
    for i in range(len(degrees) - 2, -1, -1):
        s1, s2 = degrees[i], degrees[i + 1]
        scale = Fraction(s1, s2)
        offset = Fraction(s1 * s1, 2 * s2) + Fraction(s1, 2 * s2) * (-2 - s2)
        radius = Fraction(s2**3, r - i - 2)
        lo, hi = scale * lo + offset - radius, scale * hi + offset + radius
    return lo, hi


@st.composite
def _flags(draw, max_length: int = 6) -> FlagCondition:
    """Valid flags of length 1..max_length, built innermost first."""
    length = draw(st.integers(min_value=1, max_value=max_length))
    r = draw(st.integers(min_value=length + 1, max_value=length + 6))
    jumps = draw(st.lists(st.integers(min_value=0, max_value=10**5), min_size=length, max_size=length))
    degrees = [r - length + 1 + jumps[-1]]
    for i in range(length - 2, -1, -1):
        degrees.insert(0, max(degrees[0], r - i) + jumps[i])
    return FlagCondition(r, tuple(degrees))


class TestFlagCondition:
    def test_basic(self):
        flag = FlagCondition(5, (1000, 10))
        assert flag.length == 2
        assert str(flag) == "(5; 1000, 10)"
        assert flag.peel() == FlagCondition(4, (10,))

    @pytest.mark.parametrize(
        "r,degrees",
        [
            (1, (5,)),  # ambient too small
            (5, ()),  # empty
            (5, (10, 9, 8, 7, 6)),  # length r-1 exceeded
            (5, (4,)),  # s_1 below r
            (5, (10, 3)),  # s_2 below r-1
            (5, (10, 11)),  # increasing
        ],
    )
    def test_invalid(self, r, degrees):
        with pytest.raises(ValidationError):
            FlagCondition(r, degrees)

    def test_peel_single_raises(self):
        with pytest.raises(ValidationError):
            FlagCondition(5, (10,)).peel()

    def test_maximal_length_peels_to_plane(self):
        flag = FlagCondition(4, (10, 8, 4))
        assert flag.peel().peel() == FlagCondition(2, (4,))


class TestFlagGenusInterval:
    def test_single_degree_is_point(self):
        result = flag_genus_interval(FlagCondition(5, (1000,)))
        assert result.interval.is_point
        assert result.interval.lo == castelnuovo_bound(5, 1000) == 124251
        assert result.hypotheses_verified is True

    def test_frozen_two_step(self):
        flag = FlagCondition(5, (1000, 10))
        result = flag_genus_interval(flag)
        assert result.interval.lo == Fraction(149900, 3)
        assert result.interval.hi == Fraction(151900, 3)
        assert result.hypotheses_verified is False  # separation needs a larger s_1
        assert result.hypotheses_verified == check_flag_separation(flag).passed

    def test_two_step_midpoint_is_quadratic_bound(self):
        for r, s1, s2 in [(5, 1000, 10), (4, 500, 21), (6, 10**6, 97)]:
            result = flag_genus_interval(FlagCondition(r, (s1, s2)))
            inner = castelnuovo_bound(r - 1, s2)
            assert result.interval.midpoint == quadratic_genus_bound(s1, s2, inner)
            assert result.interval.width == 2 * Fraction(s2**3, r - 2)

    def test_verified_when_degrees_separate(self):
        result = flag_genus_interval(FlagCondition(5, (10**6, 10)))
        assert result.hypotheses_verified is True

    def test_to_dict_shape(self):
        doc = flag_genus_interval(FlagCondition(5, (1000, 10))).to_dict()
        assert doc == {
            "lo": "149900/3",
            "hi": "151900/3",
            "hypothesesVerified": False,
        }

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_width_law(self, seed):
        rng = random.Random(seed)
        flag = random_flag(rng)
        result = flag_genus_interval(flag)
        if flag.length == 1:
            assert result.interval.width == 0
            return
        inner = flag_genus_interval(flag.peel())
        s1, s2 = flag.degrees[0], flag.degrees[1]
        expected = Fraction(s1, s2) * inner.interval.width + 2 * Fraction(
            s2**3, flag.r - 2
        )
        assert result.interval.width == expected

    def test_long_flag_width_law(self):
        # One level per degree: a recursive evaluation overflowed the
        # interpreter's recursion limit on a flag this long.
        r = 1500
        flag = FlagCondition(r, tuple(range(r, 1, -1)))
        assert flag.length == 1499
        outer, inner = _interval(flag), _interval(flag.peel())
        s1, s2 = flag.degrees[0], flag.degrees[1]
        assert outer.width == Fraction(s1, s2) * inner.width + 2 * Fraction(s2**3, r - 2)

    @given(_flags())
    @settings(max_examples=200, deadline=None)
    def test_interval_matches_fraction_fold(self, flag):
        interval = _interval(flag)
        assert (interval.lo, interval.hi) == _fraction_fold(flag)

    def test_long_flag_matches_fraction_fold(self):
        flag = FlagCondition(1500, tuple(range(1500, 1, -1)))
        interval = _interval(flag)
        assert (interval.lo, interval.hi) == _fraction_fold(flag)

    def test_interval_contains_affine_image_of_inner(self):
        flag = FlagCondition(6, (5000, 300, 20))
        outer = flag_genus_interval(flag).interval
        inner = flag_genus_interval(flag.peel()).interval
        s1, s2 = flag.degrees[0], flag.degrees[1]
        for pi in (inner.lo, inner.midpoint, inner.hi):
            image = Fraction(s1 * s1, 2 * s2) + Fraction(s1, 2 * s2) * (2 * pi - 2 - s2)
            assert outer.lo <= image <= outer.hi


class TestCorollaryBounds:
    def test_frozen(self):
        assert corollary_bound(5, 1000, 10, 9) == Fraction(151900, 3)
        assert corollary_alternative_bound(5, 1000, 10) == Fraction(1531141, 33)
        assert corollary_alternative_bound(4, 500, 3) == 31032

    def test_alternative_below_bound_here(self):
        # the two frozen values compared directly
        assert Fraction(1531141, 33) < Fraction(151900, 3) == Fraction(1670900, 33)

    def test_matches_quadratic_form(self):
        assert corollary_bound(5, 1000, 10, 9) == quadratic_genus_bound(
            1000, 10, 9, Fraction(10**3, 3)
        )
        assert corollary_alternative_bound(5, 1000, 10) == quadratic_genus_bound(
            1000, 11, castelnuovo_bound(4, 11), Fraction(11**3, 3)
        )

    def test_monotone_in_pi(self):
        values = [corollary_bound(5, 1000, 10, pi) for pi in range(0, 30)]
        assert values == sorted(values)
        assert values[1] - values[0] == Fraction(1000, 10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            corollary_bound(2, 100, 10, 1)
        with pytest.raises(ValidationError):
            corollary_bound(5, 100, 3, 1)
        with pytest.raises(ValidationError):
            corollary_alternative_bound(5, 100, 2)


class TestDichotomy:
    def test_frozen_case(self):
        # (4, 10^6, 3) passes the degree hypotheses (test_cli checks the
        # verdict), and there the alternative bound is strictly smaller
        binding = corollary_bound(4, 10**6, 3, 1)
        alternative = corollary_alternative_bound(4, 10**6, 3)
        assert binding == Fraction(999997000081, 6)
        assert alternative == 124999500032
        assert alternative < binding

    def test_degree_hypotheses_gate(self):
        # d = 1000 is far below the cubic threshold for (r=5, s=10), so the
        # corollary op reports the bounds without comparing them
        assert corollary_degree_verdict(5, 1000, 10) is Verdict.FAIL

    def test_regime_flips_without_hypotheses(self):
        # pushing pi up raises only the binding bound, never the alternative
        assert corollary_bound(4, 10**6, 3, 0) < corollary_bound(4, 10**6, 3, 5)
        assert corollary_alternative_bound(4, 10**6, 3) < corollary_bound(4, 10**6, 3, 0)

class TestSpeciality:
    def test_frozen(self):
        assert speciality_bound(500, 5, 5) == Fraction(503, 5)
        assert speciality_bound(50, 7, 3) == Fraction(47, 7)

    def test_doubling_identity(self):
        # d * bound == 2 * (quadratic bound with no remainder), algebraically
        for d, s, pi in [(50, 7, 3), (1000, 10, 9), (17, 4, 2)]:
            assert d * speciality_bound(d, s, pi) == 2 * quadratic_genus_bound(d, s, pi)

    def test_validation(self):
        with pytest.raises(ValidationError):
            speciality_bound(0, 5, 1)
        with pytest.raises(ValidationError):
            speciality_bound(10, 0, 1)
        with pytest.raises(ValidationError):
            speciality_bound(10, 5, -1)
