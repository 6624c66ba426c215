import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound.errors import ValidationError
from flagbound.hilbert_profiles import DeltaSequence, HilbertProfile
from flagbound.lemma_engine import (
    LemmaInput,
    acm_remainder,
    genus_from_lemma_input,
    lemma_degree_satisfied,
    lemma_degree_threshold,
    quadratic_genus_bound,
    remainder_decomposition,
    term_estimate_intervals,
)
from flagbound.sampling import random_lemma_input

WORKED = LemmaInput(
    r=5, d=50, s=7, point_profile=HilbertProfile(7, (1, 4, 7)), deltas=DeltaSequence()
)
WORKED_DELTA = LemmaInput(
    r=5, d=50, s=7, point_profile=HilbertProfile(7, (1, 4, 7)), deltas=DeltaSequence((0, 1))
)


class TestDegreeHypothesis:
    @pytest.mark.parametrize(
        "r,s,expected",
        [
            (3, 3, (12, ">=")),
            (4, 3, (9, ">=")),
            (4, 7, (49, ">=")),
            (5, 7, (42, ">")),
            (9, 20, (380, ">")),
        ],
    )
    def test_threshold(self, r, s, expected):
        assert lemma_degree_threshold(r, s) == expected

    def test_satisfied_at_boundary(self):
        # inclusive for low dimensions, strict above
        assert lemma_degree_satisfied(4, 9, 3)
        assert not lemma_degree_satisfied(4, 8, 3)
        assert not lemma_degree_satisfied(5, 42, 7)
        assert lemma_degree_satisfied(5, 43, 7)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            lemma_degree_threshold(2, 5)
        with pytest.raises(ValidationError):
            lemma_degree_threshold(5, 0)


class TestLemmaInput:
    def test_worked_example_splits(self):
        assert (WORKED.m, WORKED.eps) == (7, 0)
        assert WORKED.w == 2
        assert WORKED.s - 1 - WORKED.w * (WORKED.r - 2) == 0  # v
        assert WORKED.pi == 3

    def test_delta_variant_lowers_pi(self):
        assert WORKED_DELTA.pi == 2

    def test_profile_must_stabilize_at_s(self):
        with pytest.raises(ValidationError):
            LemmaInput(r=5, d=50, s=8, point_profile=HilbertProfile(7, (1, 4, 7)))

    def test_delta_support_window(self):
        # s - r + 2 = 4 for r=5, s=7: delta_4 must vanish
        with pytest.raises(ValidationError):
            LemmaInput(
                r=5,
                d=50,
                s=7,
                point_profile=HilbertProfile(7, (1, 4, 7)),
                deltas=DeltaSequence((0, 0, 0, 1)),
            )
        LemmaInput(
            r=5,
            d=50,
            s=7,
            point_profile=HilbertProfile(7, (1, 4, 7)),
            deltas=DeltaSequence((0, 0, 1)),
        )

    def test_degree_hypothesis_enforced(self):
        with pytest.raises(ValidationError):
            LemmaInput(r=5, d=30, s=7, point_profile=HilbertProfile(7, (1, 4, 7)))
        small = LemmaInput(
            r=5,
            d=30,
            s=7,
            point_profile=HilbertProfile(7, (1, 4, 7)),
            allow_small_degree=True,
        )
        assert small.m == 4

    def test_allow_small_degree_keeps_structural_checks(self):
        # m = 1 here, profile saturates at step 2: still rejected
        with pytest.raises(ValidationError):
            LemmaInput(
                r=5,
                d=8,
                s=7,
                point_profile=HilbertProfile(7, (1, 4, 7)),
                allow_small_degree=True,
            )

    def test_tail_validation(self):
        profile = HilbertProfile(7, (1, 4, 7))
        base = dict(r=5, d=52, s=7, point_profile=profile)  # eps=2, pi=3, w=2
        LemmaInput(**base, tail=(5, 3))
        LemmaInput(**base, tail=(5, 5))  # total exactly w * (eps + pi)
        with pytest.raises(ValidationError):
            LemmaInput(**base, tail=(5, 3, 1))  # longer than w
        with pytest.raises(ValidationError):
            LemmaInput(**base, tail=(3, 5))  # increasing
        with pytest.raises(ValidationError, match="tail head 6 exceeds"):
            LemmaInput(**base, tail=(6,))  # head above eps + pi
        with pytest.raises(ValidationError):
            LemmaInput(**base, tail=(-1,))

    def test_dict_round_trip(self):
        doc = WORKED_DELTA.to_dict()
        assert doc == {
            "r": 5,
            "d": 50,
            "s": 7,
            "pointProfile": {"stable": 7, "values": [1, 4, 7]},
            "deltas": [0, 1],
            "tail": [],
        }
        assert LemmaInput.from_dict(doc) == WORKED_DELTA

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValidationError):
            LemmaInput.from_dict({"r": 5, "d": 50})
        with pytest.raises(ValidationError):
            LemmaInput.from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "change",
        [
            {"d": 50.0},
            {"d": True},
            {"s": "7"},
            {"pointProfile": {"stable": 7, "values": [1, 4.0, 7]}},
            {"deltas": "01"},
            {"tail": [False]},
            {"allowSmallDegree": 1},
        ],
    )
    def test_from_dict_takes_json_integers_only(self, change):
        with pytest.raises(ValidationError):
            LemmaInput.from_dict({**WORKED_DELTA.to_dict(), **change})

    def test_allow_small_degree_round_trips(self):
        small = LemmaInput(
            r=5,
            d=30,
            s=7,
            point_profile=HilbertProfile(7, (1, 4, 7)),
            allow_small_degree=True,
        )
        doc = small.to_dict()
        assert doc["allowSmallDegree"] is True
        assert LemmaInput.from_dict(doc) == small


class TestRemainderDecomposition:
    def test_worked_example(self):
        dec = remainder_decomposition(WORKED)
        assert dec.epsilon_term == Fraction(1, 7)
        assert dec.point_sum_term == 0
        assert dec.delta_sum_term == 0
        assert dec.tail_term == 0
        assert dec.total == Fraction(1, 7)

    def test_delta_variant(self):
        dec = remainder_decomposition(WORKED_DELTA)
        # eps=0, pi=2: (1)(8-4)/14 = 2/7; weighted delta (2-1)*1 = 1
        assert dec.epsilon_term == Fraction(2, 7)
        assert dec.delta_sum_term == 1
        assert dec.total == Fraction(9, 7)

    def test_point_sum_counts_prestable_gaps(self):
        inp = LemmaInput(r=4, d=82, s=9, point_profile=HilbertProfile(9, (1, 4, 7, 9)))
        dec = remainder_decomposition(inp)
        # gaps 9-h at i=1,2 weighted by i-1: 0*5 + 1*2
        assert dec.point_sum_term == 2

    def test_to_dict_strings(self):
        doc = remainder_decomposition(WORKED).to_dict()
        assert doc["epsilonTerm"] == "1/7"
        assert doc["total"] == "1/7"


class TestGenusAndBound:
    def test_worked_example_exact(self):
        assert genus_from_lemma_input(WORKED) == 168
        assert quadratic_genus_bound(50, 7, 3, Fraction(1, 7)) == 168

    def test_delta_variant_exact(self):
        assert genus_from_lemma_input(WORKED_DELTA) == 162
        assert quadratic_genus_bound(50, 7, 2, Fraction(9, 7)) == 162

    def test_tail_adds_linearly(self):
        inp = LemmaInput(
            r=5, d=52, s=7, point_profile=HilbertProfile(7, (1, 4, 7)), tail=(4, 2)
        )
        base = LemmaInput(r=5, d=52, s=7, point_profile=HilbertProfile(7, (1, 4, 7)))
        assert genus_from_lemma_input(inp) == genus_from_lemma_input(base) + 6

    def test_bound_validation(self):
        with pytest.raises(ValidationError):
            quadratic_genus_bound(0, 7, 3)
        with pytest.raises(ValidationError):
            quadratic_genus_bound(50, 0, 3)
        with pytest.raises(ValidationError):
            quadratic_genus_bound(50, 7, -1)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60)
    def test_identity_on_random_inputs(self, seed):
        rng = random.Random(seed)
        inp = random_lemma_input(rng)
        dec = remainder_decomposition(inp)
        assert genus_from_lemma_input(inp) == quadratic_genus_bound(
            inp.d, inp.s, inp.pi, dec.total
        )


class TestTermEstimates:
    def test_frozen_r4_s3(self):
        est = term_estimate_intervals(4, 3)
        assert est == (-54, 48, 54, 108, 81, 324)
        den = Fraction(6 * (4 - 2) ** 2)
        assert est.epsilon_lo / den == Fraction(-9, 4)
        assert est.epsilon_hi / den == 2
        assert est.point_sum_hi / den == Fraction(27, 12)
        assert est.delta_sum_hi / den == Fraction(9, 2)
        assert est.tail_hi / den == Fraction(27, 8)
        assert est.radius / den == Fraction(27, 2)
        lo = est.epsilon_lo - est.point_sum_hi
        hi = est.epsilon_hi + est.delta_sum_hi + est.tail_hi
        assert (lo / den, hi / den) == (Fraction(-9, 2), Fraction(79, 8))
        assert Fraction(max(hi, -lo), est.radius) == Fraction(79, 108)

    def test_requires_r_at_least_4(self):
        with pytest.raises(ValidationError):
            term_estimate_intervals(3, 5)
        with pytest.raises(ValidationError):
            term_estimate_intervals(5, 3)

    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=120)
    def test_aggregate_inside_envelope(self, r, extra):
        s = r - 1 + extra
        est = term_estimate_intervals(r, s)
        rm2 = r - 2
        den = Fraction(6 * rm2 * rm2)
        assert est.epsilon_lo / den == Fraction(-s * s, 2 * rm2)
        assert est.epsilon_hi / den == Fraction(s + 1, 2)
        assert est.point_sum_hi / den == Fraction(s**3, 3 * rm2 * rm2)
        assert est.delta_sum_hi / den == Fraction(s * s * (s - 1), 2 * rm2)
        assert est.tail_hi / den == Fraction(s**3, 2 * rm2 * rm2)
        assert est.radius / den == Fraction(s**3, rm2)
        lo = est.epsilon_lo - est.point_sum_hi
        hi = est.epsilon_hi + est.delta_sum_hi + est.tail_hi
        assert -est.radius <= lo and hi <= est.radius
        assert 0 < max(hi, -lo) <= est.radius


class TestAcmRemainder:
    def test_frozen_values(self):
        assert acm_remainder(0, 7, 3, 0) == Fraction(1, 7)
        assert acm_remainder(6, 7, 1, 0) == 0
        assert acm_remainder(0, 7, 3, 2, (1,)) == Fraction(-6, 7)

    def test_matches_full_decomposition_when_deltas_vanish(self):
        dec = remainder_decomposition(WORKED)
        assert acm_remainder(WORKED.eps, WORKED.s, WORKED.pi, 0) == dec.total
        inp = LemmaInput(r=4, d=82, s=9, point_profile=HilbertProfile(9, (1, 4, 7, 9)))
        dec = remainder_decomposition(inp)
        assert acm_remainder(inp.eps, inp.s, inp.pi, 2) == dec.total

    def test_validation(self):
        with pytest.raises(ValidationError):
            acm_remainder(7, 7, 3, 0)  # eps out of range
        with pytest.raises(ValidationError):
            acm_remainder(0, 7, -1, 0)
        with pytest.raises(ValidationError):
            acm_remainder(0, 7, 3, -1)


class TestTailCap:
    def test_caps_actual_tails_under_degree_hypothesis(self):
        rng = random.Random(7)
        seen_nontrivial = 0
        for _ in range(300):
            inp = random_lemma_input(rng, with_tail=True)
            cap = inp.w * (inp.eps + inp.pi)
            assert sum(inp.tail) <= cap
            if inp.tail:
                seen_nontrivial += 1
        assert seen_nontrivial > 50
