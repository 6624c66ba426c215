import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound.castelnuovo import castelnuovo_bound
from flagbound.errors import InconsistencyError, ValidationError
from flagbound.hilbert_profiles import (
    DeltaSequence,
    HilbertProfile,
    accumulate_surface_section,
    genus_sum,
    sectional_genus,
)


class TestHilbertProfile:
    def test_valid(self):
        p = HilbertProfile(7, (1, 4, 7))
        assert p.value(0) == 1
        assert p.value(2) == 7
        assert p.value(99) == 7
        assert p.saturation_index == 2

    def test_saturation_with_plateau(self):
        p = HilbertProfile(7, (1, 4, 7, 7, 7))
        assert p.saturation_index == 2

    def test_degenerate_single_point(self):
        p = HilbertProfile(1, (1,))
        assert p.saturation_index == 0

    @pytest.mark.parametrize(
        "stable,values",
        [
            (7, ()),  # empty
            (7, (2, 4, 7)),  # h(0) != 1
            (7, (1, 5, 4, 7)),  # decreasing
            (7, (1, 4, 8)),  # exceeds stable
            (7, (1, 4, 6)),  # never saturates
            (0, (1,)),  # bad stable
        ],
    )
    def test_invalid(self, stable, values):
        with pytest.raises(ValidationError):
            HilbertProfile(stable, values)

    def test_dict_round_trip(self):
        p = HilbertProfile(7, (1, 4, 7))
        assert p.to_dict() == {"stable": 7, "values": [1, 4, 7]}
        assert HilbertProfile.from_dict(p.to_dict()) == p
        with pytest.raises(ValidationError):
            HilbertProfile.from_dict({"stable": 7})
        with pytest.raises(ValidationError):
            HilbertProfile.from_dict({"stable": 7, "values": "xyz1"})


def least_point_profile(N, deg):
    """The Hilbert function min(deg, i*N + 1) of deg points spanning P^N in
    general position, up to saturation."""
    values = [1]
    while values[-1] < deg:
        values.append(min(deg, len(values) * N + 1))
    return HilbertProfile(deg, tuple(values))


class TestExtremalProfile:
    def test_genus_sum_matches_castelnuovo(self):
        # points in P^N cut from a curve in P^(N+1)
        assert genus_sum(HilbertProfile(7, (1, 4, 7))) == 3 == castelnuovo_bound(4, 7)
        assert genus_sum(HilbertProfile(7, (1, 5, 7))) == 2 == castelnuovo_bound(5, 7)

    @given(st.integers(min_value=2, max_value=8), st.data())
    @settings(max_examples=120)
    def test_genus_sum_equals_bound_one_up(self, n, data):
        deg = data.draw(st.integers(min_value=n + 1, max_value=250))
        assert genus_sum(least_point_profile(n, deg)) == castelnuovo_bound(n + 1, deg)


class TestDeltaSequence:
    def test_basic(self):
        d = DeltaSequence((0, 1, 2, 0))
        assert d.value(2) == 1
        assert d.value(99) == 0
        assert d.total == 3
        assert d.weighted_total == 0 * 0 + 1 * 1 + 2 * 2
        assert d.support_max == 3

    def test_zero(self):
        d = DeltaSequence()
        assert d.total == 0 and d.support_max == 0 and d.weighted_total == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            DeltaSequence((1, -1))
        with pytest.raises(ValidationError):
            DeltaSequence((1,)).value(0)


class TestAccumulateSurfaceSection:
    def test_frozen(self):
        prof = HilbertProfile(7, (1, 4, 7))
        assert accumulate_surface_section(prof, DeltaSequence(), 7) == (
            1, 5, 12, 19, 26, 33, 40, 47,
        )
        assert accumulate_surface_section(prof, DeltaSequence((0, 1)), 3) == (1, 5, 13, 20)

    def test_delta0_is_never_added(self):
        prof = HilbertProfile(7, (1, 4, 7))
        with_big_head = accumulate_surface_section(prof, DeltaSequence((5,)), 1)
        assert with_big_head[0] == 1  # h1(0) = h0(0), no delta contribution

    def test_rejects_degenerate_stable(self):
        with pytest.raises(ValidationError):
            accumulate_surface_section(HilbertProfile(1, (1,)), DeltaSequence(), 3)
        with pytest.raises(ValidationError):
            accumulate_surface_section(HilbertProfile(7, (1, 4, 7)), DeltaSequence(), -1)

    def test_increments_by_profile_plus_delta(self):
        prof = HilbertProfile(9, (1, 3, 5, 7, 9))
        deltas = DeltaSequence((2, 0, 1))
        acc = accumulate_surface_section(prof, deltas, 8)
        for i in range(1, 9):
            assert acc[i] - acc[i - 1] == prof.value(i) + deltas.value(i)


class TestSectionalGenus:
    def test_values(self):
        prof = HilbertProfile(7, (1, 4, 7))
        assert sectional_genus(prof, DeltaSequence()) == 3
        assert sectional_genus(prof, DeltaSequence((0, 1))) == 2
        assert sectional_genus(prof, DeltaSequence((1, 1, 1))) == 0

    def test_inconsistency(self):
        prof = HilbertProfile(7, (1, 4, 7))
        with pytest.raises(InconsistencyError):
            sectional_genus(prof, DeltaSequence((2, 2)))
