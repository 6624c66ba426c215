"""Randomized admissible inputs for property checks.

Generators take an explicit random.Random so every scan is reproducible
from its seed.  All outputs satisfy the full validation contracts of the
types they produce; the point of the sampling is to explore the admissible
region, not to stress validation.
"""

from __future__ import annotations

import random

from .castelnuovo import castelnuovo_bound
from .errors import ValidationError
from .exact_arith import RadicalThreshold
from .flags import FlagCondition
from .hilbert_profiles import DeltaSequence, HilbertProfile, genus_sum
from .hypothesis_checker import Verdict, corollary_degree_verdict
from .lemma_engine import LemmaInput, lemma_degree_threshold


def _minimal_profile_values(r: int, s: int) -> list[int]:
    # min(s, i*(r-2) + 1) until saturation
    values = [1]
    i = 1
    while values[-1] < s:
        values.append(min(s, i * (r - 2) + 1))
        i += 1
    return values


def random_point_profile(rng: random.Random, r: int, s: int) -> HilbertProfile:
    """A profile >= the minimal one pointwise, still monotone and stable at s."""
    values = _minimal_profile_values(r, s)
    # Raise a few interior entries; never above the next entry, so the
    # sequence stays nondecreasing and the pointwise floor is preserved.
    for j in range(len(values) - 2, 0, -1):
        if rng.random() < 0.4:
            values[j] = rng.randint(values[j], values[j + 1])
    return HilbertProfile(s, tuple(values))


def random_lemma_input(
    rng: random.Random,
    r_range: tuple[int, int] = (3, 10),
    s_slack: int = 30,
    zero_deltas: bool | None = None,
    with_tail: bool | None = None,
) -> LemmaInput:
    """An admissible LemmaInput: degree hypothesis satisfied, profile above
    the pointwise minimum, deltas within support and budget, tail within
    the window and cap."""
    r = rng.randint(*r_range)
    s = rng.randint(r - 1, r - 1 + s_slack)
    profile = random_point_profile(rng, r, s)
    deficiency = genus_sum(profile)

    make_zero = rng.random() < 0.35 if zero_deltas is None else zero_deltas
    delta_values: list[int] = []
    if not make_zero:
        max_support = s - r + 1
        budget = deficiency
        length = rng.randint(0, max_support) if max_support > 0 else 0
        for _ in range(length):
            v = rng.randint(0, min(3, budget))
            budget -= v
            delta_values.append(v)
    deltas = DeltaSequence(tuple(delta_values))
    pi = deficiency - deltas.total

    threshold, relation = lemma_degree_threshold(r, s)
    d_min = threshold if relation == ">=" else threshold + 1
    d = d_min + rng.randint(0, 3 * s)

    eps = (d - 1) % s
    w = (s - 1) // (r - 2)
    make_tail = (rng.random() < 0.4) if with_tail is None else with_tail
    tail: list[int] = []
    if make_tail and w > 0 and eps + pi > 0:
        head = rng.randint(0, eps + pi)
        for _ in range(rng.randint(1, w)):
            tail.append(head)
            head = rng.randint(0, head)
    return LemmaInput(
        r=r, d=d, s=s, point_profile=profile, deltas=deltas, tail=tuple(tail)
    )


def random_flag(rng: random.Random, r_range: tuple[int, int] = (3, 10)) -> FlagCondition:
    """A valid flag with varied degree gaps, built innermost first."""
    r = rng.randint(*r_range)
    l = rng.randint(1, r - 1)
    degrees = [0] * l
    degrees[l - 1] = (r - l + 1) + rng.randint(0, 6)
    for i in range(l - 2, -1, -1):
        floor = max(degrees[i + 1], r - (i + 1) + 1)
        jump = rng.choice([0, rng.randint(0, 8), rng.randint(0, 200), rng.randint(0, 20000)])
        degrees[i] = floor + jump
    return FlagCondition(r, tuple(degrees))


def random_corollary_case(rng: random.Random) -> tuple[int, int, int, int]:
    """(r, d, s, pi) with the corollary degree hypotheses satisfied and
    pi <= castelnuovo_bound(r-1, s)."""
    r = rng.randint(3, 8)
    s = rng.randint(r - 1, r + 8)
    # above the radical threshold T(r-1, s) and the cubic 6(s+1)^3/(r-2)
    radical = int(RadicalThreshold(r - 1, s).enclosure(30).hi)
    start = max(radical, 6 * (s + 1) ** 3 // (r - 2)) + 1
    d = start + rng.randint(1, 5000)
    for _ in range(8):
        if corollary_degree_verdict(r, d, s) is Verdict.PASS:
            break
        d *= 2
    else:
        raise ValidationError(f"could not clear the degree thresholds for r={r}, s={s}")
    pi = rng.randint(0, castelnuovo_bound(r - 1, s))
    return r, d, s, pi


def random_radical_instance(rng: random.Random) -> tuple[int, RadicalThreshold]:
    """(lhs, T(m, s)) pairs with m <= 7, lhs within 2 of T.

    About one in five is an exact value, with lhs on it or one off:
    T(2, s) = 4(s+1)^2, T(3, 6k^2-1) = 1296k^5 or, rarely, T(7, s) =
    210^69/15120 at B = 210^20, whose roots of orders 3 and 6 are irrational.
    """
    if rng.random() < 0.2:
        family = rng.random()
        if family < 0.45:
            s = rng.randint(1, 600)
            rhs, exact = RadicalThreshold(2, s), 4 * (s + 1) ** 2
        elif family < 0.9:
            k = rng.randint(1, 12)
            rhs, exact = RadicalThreshold(3, 6 * k * k - 1), 1296 * k**5
        else:
            rhs, exact = RadicalThreshold(7, 210**20 // 5040 - 1), 210**69 // 15120
        return exact + rng.choice([-1, 0, 0, 1]), rhs
    rhs = RadicalThreshold(rng.randint(2, 7), rng.randint(1, 600))
    return int(rhs.enclosure(25).midpoint) + rng.randint(-2, 2), rhs  # T >= 16
