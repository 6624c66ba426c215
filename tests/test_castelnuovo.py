import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound.castelnuovo import castelnuovo_bound
from flagbound.errors import ValidationError


def oracle_bound(N, deg):
    # normative deficiency-sum definition, written independently of the package
    total = 0
    i = 1
    while True:
        h = min(deg, i * (N - 1) + 1)
        if h == deg:
            return total
        total += deg - h
        i += 1


class TestCastelnuovoBound:
    def test_frozen_values(self):
        assert castelnuovo_bound(3, 6) == 4
        assert castelnuovo_bound(5, 1000) == 124251
        assert castelnuovo_bound(4, 7) == 3
        assert castelnuovo_bound(5, 7) == 2
        assert castelnuovo_bound(4, 4) == 0
        assert castelnuovo_bound(4, 10) == 9
        assert castelnuovo_bound(4, 11) == 12

    def test_plane_curves(self):
        # N=2: the classical (d-1)(d-2)/2
        for d in range(2, 40):
            assert castelnuovo_bound(2, d) == (d - 1) * (d - 2) // 2

    def test_minimal_degree_gives_zero(self):
        for n in range(2, 10):
            assert castelnuovo_bound(n, n) == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            castelnuovo_bound(1, 5)
        with pytest.raises(ValidationError):
            castelnuovo_bound(3, 2)

    @given(st.integers(min_value=2, max_value=12), st.data())
    @settings(max_examples=200)
    def test_matches_deficiency_oracle(self, n, data):
        deg = data.draw(st.integers(min_value=n, max_value=400))
        assert castelnuovo_bound(n, deg) == oracle_bound(n, deg)

    @given(st.integers(min_value=2, max_value=9), st.data())
    @settings(max_examples=100)
    def test_nondecreasing_in_degree(self, n, data):
        deg = data.draw(st.integers(min_value=n, max_value=300))
        assert castelnuovo_bound(n, deg + 1) >= castelnuovo_bound(n, deg)


class TestQuadraticEnvelope:
    def test_dominates_bound(self):
        # castelnuovo_bound(r-1, s) <= s^2/(2(r-2)) on the working grid
        for r in range(3, 11):
            for s in range(r - 1, 120):
                assert 2 * (r - 2) * castelnuovo_bound(r - 1, s) <= s * s
