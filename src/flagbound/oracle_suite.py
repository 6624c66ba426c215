"""Brute-force re-derivation of every closed-form identity the bounds use.

The oracles are the normative truth: each one computes a quantity by direct
summation and independently by the closed form, and raising on mismatch is
a build-stopping defect, not a user error.  They ship in the library (not
just the test tree) and back the CLI `verify` verb, so the identities are
user-runnable.

verify_all assembles the full battery: fixed-grid equivalence scans,
randomized lemma-chain and envelope checks, the flag-interval width law,
the corollary dichotomy, and agreement of the two internal radical
comparison routes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import _backend
from .castelnuovo import castelnuovo_bound
from .errors import IdentityViolationError, ValidationError
from .exact_arith import (
    Comparison,
    RadicalThreshold,
    compare_radical_enclosure,
    compare_radical_exact,
    format_rational,
)
from .flag_recurrence import (
    corollary_alternative_bound,
    corollary_bound,
    flag_genus_interval,
)
from .hilbert_profiles import accumulate_surface_section
from .hypothesis_checker import check_lemma_degree
from .lemma_engine import (
    LemmaInput,
    acm_remainder,
    genus_from_lemma_input,
    quadratic_genus_bound,
    remainder_decomposition,
    term_estimate_intervals,
)
from .sampling import (
    random_corollary_case,
    random_flag,
    random_lemma_input,
    random_radical_instance,
)


def oracle_point_deficiency_sum(r: int, s: int) -> int:
    """sum_{i>=1} (s - min(s, i(r-2)+1)) vs the closed form C(w,2)(r-2) + w*v.

    s - 1 = w(r-2) + v with 0 <= v < r-2; r >= 3 and s >= r-1 make w >= 1,
    where math.comb already gives C(w, k) = 0 for w < k.  Both sides computed
    independently; raises IdentityViolationError on any mismatch and
    returns the common value otherwise.
    """
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    direct = _backend.deficiency_sum(s, r - 2)
    w, v = divmod(s - 1, r - 2)
    closed = comb(w, 2) * (r - 2) + w * v
    if direct != closed:
        raise IdentityViolationError(
            f"point deficiency sum mismatch at (r={r}, s={s}): "
            f"direct {direct} vs closed {closed}"
        )
    return direct


def oracle_weighted_deficiency_sum(r: int, s: int) -> int:
    """sum (i-1)(s - min(s, i(r-2)+1)) vs C(w,3)(r-2) + C(w,2)v, plus the
    cubic cap s^3/(3(r-2)^2).

    w, v as in oracle_point_deficiency_sum: s - 1 = w(r-2) + v, w >= 1.
    """
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    direct = _backend.weighted_deficiency_sum(s, r - 2)
    w, v = divmod(s - 1, r - 2)
    closed = comb(w, 3) * (r - 2) + comb(w, 2) * v
    if direct != closed:
        raise IdentityViolationError(
            f"weighted deficiency sum mismatch at (r={r}, s={s}): "
            f"direct {direct} vs closed {closed}"
        )
    if 3 * (r - 2) ** 2 * direct > s**3:
        cap = Fraction(s**3, 3 * (r - 2) ** 2)
        raise IdentityViolationError(
            f"weighted deficiency sum {direct} exceeds its cap {cap} at (r={r}, s={s})"
        )
    return direct


@dataclass(frozen=True)
class LemmaChainResult:
    """Both sides of the truncated-sum identity, computed independently."""

    inp: LemmaInput
    truncated_sum: int
    closed_form: Fraction

    @property
    def ok(self) -> bool:
        return self.truncated_sum == self.closed_form

    def __bool__(self) -> bool:
        return self.ok

    def diff_report(self) -> str:
        if self.ok:
            return "identity holds"
        return (
            f"truncated sum {self.truncated_sum} != closed form "
            f"{format_rational(self.closed_form)} "
            f"(diff {format_rational(self.truncated_sum - self.closed_form)}) "
            f"for input {self.inp.to_dict()}"
        )


def oracle_lemma_chain(inp: LemmaInput) -> LemmaChainResult:
    """Check sum_{i=1..m} (d - h1(i)) against the expanded closed form

        (ms/2)(m-1) + m*eps + m*pi - sum_i (i-1)(s - h0(i) - delta_i)

    with both sides computed by different routes.  Requires the window
    conditions m >= w+1 and m >= s-r+2 under which the expansion is valid.
    """
    m, s = inp.m, inp.s
    if m < inp.w + 1:
        raise ValidationError(f"chain oracle needs m >= w+1, got m={m}, w={inp.w}")
    if m < s - inp.r + 2:
        raise ValidationError(
            f"chain oracle needs m >= s-r+2 = {s - inp.r + 2}, got m={m}"
        )
    # h1 from its definition, not through the summation kernel that
    # genus_from_lemma_input uses
    h1 = accumulate_surface_section(inp.point_profile, inp.deltas, m)
    left = sum(inp.d - h for h in h1[1:])
    span = max(len(inp.point_profile.values) - 1, len(inp.deltas.values))
    correction = sum(
        (i - 1) * (s - inp.point_profile.value(i) - inp.deltas.value(i))
        for i in range(1, span + 1)
    )
    right = Fraction(m * s * (m - 1), 2) + m * inp.eps + m * inp.pi - correction
    return LemmaChainResult(inp=inp, truncated_sum=left, closed_form=right)


@dataclass(frozen=True)
class EnvelopeScanReport:
    """Grid scan of the remainder envelope |aggregate| <= s^3/(r-2)."""

    cases: int
    violations: tuple[tuple[int, int], ...]
    tightest_ratio: Fraction
    tightest_witness: tuple[int, int]

    @property
    def ok(self) -> bool:
        return not self.violations


def oracle_envelope_scan(r_max: int, s_max: int) -> EnvelopeScanReport:
    """Scan 4 <= r <= r_max, r-1 <= s <= s_max.

    Envelope violations are findings, reported with their witness (r, s),
    not crashes; the tightest ratio observed is always reported.
    """
    if r_max < 4:
        raise ValidationError(f"envelope scan needs r_max >= 4, got {r_max}")
    cases = 0
    violations = []
    # The tightest ratio reach/radius so far, as an integer pair; radius > 0.
    best_reach, best_radius = -1, 1
    witness = (0, 0)
    for r in range(4, r_max + 1):
        for s in range(r - 1, s_max + 1):
            est = term_estimate_intervals(r, s)
            cases += 1
            lo = est.epsilon_lo - est.point_sum_hi
            hi = est.epsilon_hi + est.delta_sum_hi + est.tail_hi
            radius = est.radius
            if not (-radius <= lo and hi <= radius):
                violations.append((r, s))
            reach = max(hi, -lo)
            if reach * best_radius > best_reach * radius:
                best_reach, best_radius = reach, radius
                witness = (r, s)
    if cases == 0:
        raise ValidationError(f"empty scan grid: r_max={r_max}, s_max={s_max}")
    return EnvelopeScanReport(
        cases=cases,
        violations=tuple(violations),
        tightest_ratio=Fraction(best_reach, best_radius),
        tightest_witness=witness,
    )


@dataclass(frozen=True)
class ScanRow:
    """One verification battery line: how many cases, how many failed."""

    name: str
    cases: int
    failures: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[ScanRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_dict(self) -> dict:
        return {"passed": self.ok, "rows": [row.to_dict() for row in self.rows]}


def scan_castelnuovo_equivalence(n_max: int = 9, deg_max: int = 300) -> ScanRow:
    """Closed-form bound vs deficiency-sum oracle on 2 <= N <= n_max."""
    cases = failures = 0
    detail = ""
    for n in range(2, n_max + 1):
        for deg in range(n, deg_max + 1):
            cases += 1
            if castelnuovo_bound(n, deg) != _backend.deficiency_sum(deg, n - 1):
                failures += 1
                if not detail:
                    detail = f"first mismatch at (N={n}, deg={deg})"
    return ScanRow("castelnuovo-equivalence", cases, failures, detail)


def _scan_summation_identities(r_max: int, s_max: int) -> tuple[ScanRow, ScanRow]:
    point_cases = point_failures = 0
    weighted_cases = weighted_failures = 0
    point_detail = weighted_detail = ""
    for r in range(3, r_max + 1):
        for s in range(r - 1, s_max + 1):
            point_cases += 1
            try:
                oracle_point_deficiency_sum(r, s)
            except IdentityViolationError as exc:
                point_failures += 1
                point_detail = point_detail or str(exc)
            weighted_cases += 1
            try:
                oracle_weighted_deficiency_sum(r, s)
            except IdentityViolationError as exc:
                weighted_failures += 1
                weighted_detail = weighted_detail or str(exc)
    return (
        ScanRow("point-deficiency-identity", point_cases, point_failures, point_detail),
        ScanRow(
            "weighted-deficiency-identity", weighted_cases, weighted_failures, weighted_detail
        ),
    )


def _scan_lemma_batch(seeds: int, rng: random.Random) -> tuple[ScanRow, ScanRow, ScanRow]:
    identity_failures = envelope_failures = acm_failures = 0
    acm_cases = 0
    identity_detail = envelope_detail = acm_detail = ""
    for _ in range(seeds):
        inp = random_lemma_input(rng)
        decomposition = remainder_decomposition(inp)
        genus = genus_from_lemma_input(inp)
        bound = quadratic_genus_bound(inp.d, inp.s, inp.pi, decomposition.total)
        chain = oracle_lemma_chain(inp)
        if genus != bound or not chain.ok:
            identity_failures += 1
            identity_detail = identity_detail or (
                f"genus {genus} vs bound {format_rational(bound)}; {chain.diff_report()}"
            )
        if check_lemma_degree(inp.r, inp.d, inp.s).passed:
            radius = Fraction(inp.s**3, inp.r - 2)
            if abs(decomposition.total) > radius:
                envelope_failures += 1
                envelope_detail = envelope_detail or (
                    f"|R| = {format_rational(abs(decomposition.total))} exceeds "
                    f"{format_rational(radius)} for {inp.to_dict()}"
                )
        if inp.deltas.total == 0 and inp.deltas.support_max == 0:
            acm_cases += 1
            specialized = acm_remainder(
                inp.eps,
                inp.s,
                inp.pi,
                int(decomposition.point_sum_term),
                inp.tail,
            )
            if specialized != decomposition.total:
                acm_failures += 1
                acm_detail = acm_detail or (
                    f"acm form {format_rational(specialized)} vs "
                    f"{format_rational(decomposition.total)} for {inp.to_dict()}"
                )
    return (
        ScanRow("lemma-central-identity", seeds, identity_failures, identity_detail),
        ScanRow("remainder-in-envelope", seeds, envelope_failures, envelope_detail),
        ScanRow("acm-specialization", acm_cases, acm_failures, acm_detail),
    )


def _scan_flag_width_law(count: int, rng: random.Random) -> ScanRow:
    failures = 0
    detail = ""
    for _ in range(count):
        flag = random_flag(rng)
        result = flag_genus_interval(flag)
        if flag.length == 1:
            point = castelnuovo_bound(flag.r, flag.degrees[0])
            ok = result.interval.is_point and result.interval.lo == point
        else:
            inner = flag_genus_interval(flag.peel())
            s1, s2 = flag.degrees[0], flag.degrees[1]
            expected = Fraction(s1, s2) * inner.interval.width + Fraction(
                2 * s2**3, flag.r - 2
            )
            ok = result.interval.width == expected
        if not ok:
            failures += 1
            detail = detail or f"width law fails for {flag}"
    return ScanRow("flag-width-law", count, failures, detail)


def _scan_corollary_dichotomy(count: int, rng: random.Random) -> ScanRow:
    failures = 0
    detail = ""
    for _ in range(count):
        # random_corollary_case has already certified the degree hypotheses
        r, d, s, pi = random_corollary_case(rng)
        if not corollary_alternative_bound(r, d, s) < corollary_bound(r, d, s, pi):
            failures += 1
            detail = detail or (
                f"alternative bound not below the corollary bound at "
                f"(r={r}, d={d}, s={s}, pi={pi})"
            )
    return ScanRow("corollary-dichotomy", count, failures, detail)


def _scan_radical_routes(count: int, rng: random.Random) -> ScanRow:
    # The library's two independent decision routes must agree whenever the
    # enclosure route is conclusive; the worked boundary pair is pinned.
    failures = 0
    detail = ""
    boundary = RadicalThreshold(3, 3)
    if compare_radical_exact(471, boundary) is not Comparison.GREATER:
        failures += 1
        detail = "boundary pair: 471 should exceed 4 * 24^(1/2) * 24"
    if compare_radical_exact(470, boundary) is not Comparison.LESS:
        failures += 1
        detail = detail or "boundary pair: 470 should fall below 4 * 24^(1/2) * 24"
    for _ in range(count):
        lhs, rhs = random_radical_instance(rng)
        exact = compare_radical_exact(lhs, rhs)
        enclosed = compare_radical_enclosure(lhs, rhs)
        if enclosed is not Comparison.UNDECIDED and enclosed is not exact:
            failures += 1
            detail = detail or (
                f"route disagreement on {lhs} vs {rhs}: "
                f"exact {exact.value}, enclosure {enclosed.value}"
            )
    return ScanRow("radical-route-agreement", count + 2, failures, detail)


def verify_all(
    r_max: int = 10,
    s_max: int = 200,
    seeds: int = 1000,
    n_max: int = 9,
    deg_max: int = 300,
    flag_count: int = 200,
    corollary_count: int = 50,
    radical_count: int = 500,
    rng_seed: int = 20260814,
) -> VerificationReport:
    """Run the whole battery and return one row per identity family."""
    if r_max < 4:
        raise ValidationError(f"verification grid needs r_max >= 4, got {r_max}")
    if n_max < 2 or deg_max < 2:
        raise ValidationError(f"empty castelnuovo grid: n_max={n_max}, deg_max={deg_max}")
    counts = {
        "seeds": seeds,
        "flag_count": flag_count,
        "corollary_count": corollary_count,
        "radical_count": radical_count,
    }
    for name, count in counts.items():
        if count < 0:
            raise ValidationError(f"{name} must be >= 0, got {count}")
    rng = random.Random(rng_seed)
    rows = [scan_castelnuovo_equivalence(n_max, deg_max)]
    rows.extend(_scan_summation_identities(r_max, s_max))
    envelope = oracle_envelope_scan(r_max, s_max)
    rows.append(
        ScanRow(
            "remainder-envelope",
            envelope.cases,
            len(envelope.violations),
            f"tightest ratio {format_rational(envelope.tightest_ratio)} at "
            f"(r={envelope.tightest_witness[0]}, s={envelope.tightest_witness[1]})"
            + (f"; violations {envelope.violations[:5]}" if envelope.violations else ""),
        )
    )
    rows.extend(_scan_lemma_batch(seeds, rng))
    rows.append(_scan_flag_width_law(flag_count, rng))
    rows.append(_scan_corollary_dichotomy(corollary_count, rng))
    rows.append(_scan_radical_routes(radical_count, rng))
    return VerificationReport(rows=tuple(rows))
