"""End-to-end acceptance battery.

Eight exact-arithmetic gates, each printing one ACCEPTANCE line so the
overall status is scannable from the test log.  Everything is seeded and
deterministic; no tolerances anywhere.
"""

import math
import random
from fractions import Fraction

import pytest
from mpmath import iv

from flagbound import _backend
from flagbound.castelnuovo import castelnuovo_bound
from flagbound.errors import IdentityViolationError
from flagbound.exact_arith import Comparison, RadicalThreshold, compare_radical
from flagbound.flag_recurrence import (
    corollary_alternative_bound,
    corollary_bound,
    flag_genus_interval,
)
from flagbound.hypothesis_checker import check_corollary_degree, check_lemma_degree
from flagbound.lemma_engine import (
    acm_remainder,
    genus_from_lemma_input,
    quadratic_genus_bound,
    remainder_decomposition,
)
from flagbound.oracle_suite import (
    oracle_envelope_scan,
    oracle_point_deficiency_sum,
    oracle_weighted_deficiency_sum,
)
from flagbound.sampling import (
    random_corollary_case,
    random_flag,
    random_lemma_input,
    random_radical_instance,
)

RNG_SEED = 8691503


def _announce(capsys, criterion: int, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE criterion-{criterion}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def lemma_inputs():
    rng = random.Random(RNG_SEED)
    return [random_lemma_input(rng) for _ in range(1000)]


def test_castelnuovo_closed_form_equals_summation_oracle(capsys):
    mismatches = []
    cases = 0
    for n in range(2, 10):
        for deg in range(n, 301):
            cases += 1
            if castelnuovo_bound(n, deg) != _backend.deficiency_sum(deg, n - 1):
                mismatches.append((n, deg))
    ok = not mismatches and cases >= 2300
    _announce(capsys, 1, ok)
    assert ok, f"{len(mismatches)} mismatches over {cases} cases: {mismatches[:5]}"


def test_deficiency_summation_identities_on_grid(capsys):
    failures = []
    for r in range(3, 11):
        for s in range(r - 1, 201):
            try:
                oracle_point_deficiency_sum(r, s)
                oracle_weighted_deficiency_sum(r, s)
            except IdentityViolationError as exc:
                failures.append((r, s, str(exc)))
    ok = not failures
    _announce(capsys, 2, ok)
    assert ok, f"identity failures: {failures[:5]}"


def test_truncated_sum_equals_quadratic_bound_on_random_inputs(capsys, lemma_inputs):
    failures = []
    for inp in lemma_inputs:
        total = remainder_decomposition(inp).total
        genus = genus_from_lemma_input(inp)
        bound = quadratic_genus_bound(inp.d, inp.s, inp.pi, total)
        if genus != bound:
            failures.append((inp.to_dict(), genus, str(bound)))
    ok = len(lemma_inputs) >= 1000 and not failures
    _announce(capsys, 3, ok)
    assert ok, f"{len(failures)} identity failures: {failures[:3]}"


def test_remainder_stays_inside_cubic_envelope(capsys, lemma_inputs):
    scan = oracle_envelope_scan(10, 200)
    failures = list(scan.violations)
    for inp in lemma_inputs:
        if not check_lemma_degree(inp.r, inp.d, inp.s).passed:
            continue
        total = remainder_decomposition(inp).total
        if abs(total) > Fraction(inp.s**3, inp.r - 2):
            failures.append(("random", inp.to_dict()))
    ok = scan.ok and len(failures) == 0
    _announce(capsys, 4, ok)
    assert ok, f"envelope violations: {failures[:5]}"


def test_flag_interval_width_follows_affine_law(capsys):
    rng = random.Random(RNG_SEED + 1)
    failures = []
    for _ in range(200):
        flag = random_flag(rng)
        result = flag_genus_interval(flag)
        if flag.length == 1:
            expected = castelnuovo_bound(flag.r, flag.degrees[0])
            if not (result.interval.is_point and result.interval.lo == expected):
                failures.append(str(flag))
            continue
        inner = flag_genus_interval(flag.peel())
        s1, s2 = flag.degrees[0], flag.degrees[1]
        width = Fraction(s1, s2) * inner.interval.width + 2 * Fraction(
            s2**3, flag.r - 2
        )
        if result.interval.width != width:
            failures.append(str(flag))
    ok = not failures
    _announce(capsys, 5, ok)
    assert ok, f"width law failures: {failures[:5]}"


def test_alternative_bound_sits_strictly_below_corollary_bound(capsys):
    rng = random.Random(RNG_SEED + 2)
    failures = []
    for _ in range(50):
        r, d, s, pi = random_corollary_case(rng)
        if not check_corollary_degree(r, d, s).passed:
            failures.append((r, d, s, pi, "degree hypotheses not met"))
            continue
        if not corollary_alternative_bound(r, d, s) < corollary_bound(r, d, s, pi):
            failures.append((r, d, s, pi, "comparison"))
    ok = not failures
    _announce(capsys, 6, ok)
    assert ok, f"dichotomy failures: {failures[:5]}"


def _directed_enclosure_verdict(lhs: int, rhs: RadicalThreshold):
    """Independent 200-digit check with outward-rounded interval power of
    T(m, s) = 2(s+1)/(m-1) * prod_{k=1}^{m-1} (m!(s+1))^(1/k)."""
    total = iv.mpf(2 * (rhs.s + 1)) / iv.mpf(rhs.m - 1)
    base = iv.mpf(math.factorial(rhs.m) * (rhs.s + 1))
    for root in range(1, rhs.m):
        total *= base ** (iv.mpf(1) / iv.mpf(root))
    if lhs > total.b:
        return Comparison.GREATER
    if lhs < total.a:
        return Comparison.LESS
    if total.a == total.b and lhs == total.a:
        return Comparison.EQUAL
    return None  # enclosure straddles lhs: inconclusive at this precision


def test_radical_comparisons_match_directed_rounding_oracle(capsys):
    iv.dps = 200
    rng = random.Random(RNG_SEED + 3)
    failures = []
    boundary = RadicalThreshold(3, 3)  # 4 * 24^(1/2) * 24
    if compare_radical(471, boundary) is not Comparison.GREATER:
        failures.append("boundary 471")
    if compare_radical(470, boundary) is not Comparison.LESS:
        failures.append("boundary 470")
    conclusive = 0
    for _ in range(500):
        lhs, rhs = random_radical_instance(rng)
        verdict = compare_radical(lhs, rhs)
        oracle = _directed_enclosure_verdict(lhs, rhs)
        if oracle is None:
            continue
        conclusive += 1
        if verdict is not oracle:
            failures.append((lhs, str(rhs), verdict.value, oracle.value))
    ok = not failures and conclusive > 400
    _announce(capsys, 7, ok)
    assert ok, f"{len(failures)} disagreements ({conclusive} conclusive): {failures[:5]}"


def test_zero_delta_remainder_matches_specialized_form(capsys, lemma_inputs):
    failures = []
    cases = 0
    for inp in lemma_inputs:
        if inp.deltas.total != 0:
            continue
        cases += 1
        dec = remainder_decomposition(inp)
        specialized = acm_remainder(
            inp.eps, inp.s, inp.pi, int(dec.point_sum_term), inp.tail
        )
        if specialized != dec.total:
            failures.append(inp.to_dict())
    ok = cases > 0 and not failures
    _announce(capsys, 8, ok)
    assert ok, f"specialization failures over {cases} cases: {failures[:3]}"
