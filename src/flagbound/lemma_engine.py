"""The quadratic genus bound and its remainder decomposition.

For a curve of degree d whose general hyperplane section has degree s and
sectional genus pi, the bound has the shape

    d**2/(2s) + (d/(2s))*(2*pi - 2 - s) + R

where R splits into four named pieces computed from the section data:

    R = epsilon_term - point_sum_term + delta_sum_term + tail_term

      epsilon_term   = (1+eps)*(s+1-eps-2*pi) / (2s)
      point_sum_term = sum_{i>=1} (i-1)*(s - h0(i))
      delta_sum_term = sum_{i>=1} (i-1)*delta_i
      tail_term      = sum of the supplied tail deficiencies

The central identity, checked exactly by oracle_suite and the test grid:
the truncated deficiency sum sum_{i=1..m} (d - h1(i)) plus the tail equals
the quadratic bound evaluated at this R.  It holds algebraically whenever
the point profile saturates by step m and the deltas vanish past m; both
are enforced by LemmaInput.

Term-by-term estimate intervals and the aggregate envelope |R| <= s^3/(r-2)
are produced by term_estimate_intervals, as integer numerators over the one
denominator 6(r-2)^2; the all-deltas-zero specialization of R by
acm_remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import _backend
from .errors import InconsistencyError, ValidationError
from .exact_arith import format_rational
from .fields import BOOL, INT, INTS, OBJECT, read_fields
from .hilbert_profiles import (
    DeltaSequence,
    HilbertProfile,
    sectional_genus,
)


def lemma_degree_threshold(r: int, s: int) -> tuple[int, str]:
    """(threshold, relation) of the degree hypothesis: d relation threshold.

    Ambient dimension 3 or 4: d >= s**2 + s*(r-4)**2; dimension >= 5:
    d > s**2 - s.
    """
    if r < 3:
        raise ValidationError(f"ambient dimension r must be >= 3, got {r}")
    if s < 1:
        raise ValidationError(f"section degree s must be >= 1, got {s}")
    if r <= 4:
        return s * s + s * (r - 4) ** 2, ">="
    return s * s - s, ">"


def lemma_degree_satisfied(r: int, d: int, s: int) -> bool:
    threshold, relation = lemma_degree_threshold(r, s)
    return d >= threshold if relation == ">=" else d > threshold


_LEMMA_FIELDS = {
    "r": INT,
    "d": INT,
    "s": INT,
    "pointProfile": OBJECT,
    "deltas": INTS,
    "tail": INTS,
    "allowSmallDegree": BOOL,
}
_LEMMA_DEFAULTS = {"deltas": [], "tail": [], "allowSmallDegree": False}


@dataclass(frozen=True)
class LemmaInput:
    """Everything the bound needs about one curve.

    r: ambient dimension; d: curve degree; s: section degree;
    point_profile: Hilbert profile of the hyperplane-section points
    (stable value s); deltas: correction sequence, vanishing for
    i >= s - r + 2; tail: deficiencies d - h(i) for i = m+1, ..., m+w.

    The sectional genus pi is always derived from (point_profile, deltas),
    never taken as input, so the bundle cannot be internally inconsistent.

    allow_small_degree skips only the degree hypothesis; the structural
    requirements that make the truncated identity exact (profile saturation
    by step m, delta support within m) are always enforced.
    """

    r: int
    d: int
    s: int
    point_profile: HilbertProfile
    deltas: DeltaSequence = field(default_factory=DeltaSequence)
    tail: tuple[int, ...] = ()
    allow_small_degree: bool = False
    m: int = field(init=False, repr=False)
    eps: int = field(init=False, repr=False)
    w: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail", tuple(int(t) for t in self.tail))
        if self.r < 3:
            raise ValidationError(f"ambient dimension r must be >= 3, got {self.r}")
        if self.s < self.r - 1:
            raise ValidationError(
                f"section degree s={self.s} below the nondegeneracy floor r-1={self.r - 1}"
            )
        if self.d < 1:
            raise ValidationError(f"degree d must be >= 1, got {self.d}")
        # d - 1 = m*s + eps, and s - 1 = w*(r-2) + v with 0 <= v < r-2
        m, eps = divmod(self.d - 1, self.s)
        w = (self.s - 1) // (self.r - 2)
        for name, value in (("m", m), ("eps", eps), ("w", w)):
            object.__setattr__(self, name, value)
        if self.point_profile.stable != self.s:
            raise ValidationError(
                f"point profile stabilizes at {self.point_profile.stable}, expected s={self.s}"
            )
        support = self.deltas.support_max
        if support > self.s - self.r + 1:
            raise ValidationError(
                f"delta_{support} > 0 but deltas must vanish for i >= {self.s - self.r + 2}"
            )
        if not self.allow_small_degree and not lemma_degree_satisfied(self.r, self.d, self.s):
            threshold, relation = lemma_degree_threshold(self.r, self.s)
            raise ValidationError(
                f"degree hypothesis fails: need d {relation} {threshold}, got d={self.d}"
            )
        # Truncation window: everything the truncated sum sees must settle
        # by step m, or the closed form provably diverges from the sum.
        if self.point_profile.saturation_index > m:
            raise ValidationError(
                f"profile saturates at step {self.point_profile.saturation_index} > m={m}"
            )
        if support > m:
            raise ValidationError(f"delta support reaches {support} > m={m}")
        self._validate_tail()
        # Forces the InconsistencyError now if deltas overshoot the profile.
        self.pi

    def _validate_tail(self) -> None:
        if len(self.tail) > self.w:
            raise ValidationError(f"tail has {len(self.tail)} entries, window allows {self.w}")
        previous = None
        for idx, t in enumerate(self.tail):
            if t < 0:
                raise ValidationError(f"tail entries must be >= 0, got {t}")
            if previous is not None and t > previous:
                raise ValidationError(
                    f"tail must be nonincreasing, rises {previous} -> {t} at position {idx}"
                )
            previous = t
        if self.tail:
            head_cap = self.eps + self.pi  # d - h(m) = eps + pi
            if self.tail[0] > head_cap:
                raise ValidationError(
                    f"tail head {self.tail[0]} exceeds the step-m deficiency {head_cap}"
                )
            # at most w nonincreasing entries, head <= head_cap: total <= w * head_cap

    @cached_property
    def pi(self) -> int:
        """Sectional genus, from the deficiency identity."""
        return sectional_genus(self.point_profile, self.deltas)

    def to_dict(self) -> dict:
        out = {
            "r": self.r,
            "d": self.d,
            "s": self.s,
            "pointProfile": self.point_profile.to_dict(),
            "deltas": list(self.deltas.values),
            "tail": list(self.tail),
        }
        if self.allow_small_degree:
            out["allowSmallDegree"] = True
        return out

    @classmethod
    def from_dict(cls, data: object) -> "LemmaInput":
        r, d, s, profile, deltas, tail, allow_small_degree = read_fields(
            data, _LEMMA_FIELDS, "lemma input", _LEMMA_DEFAULTS
        )
        return cls(
            r=r,
            d=d,
            s=s,
            point_profile=HilbertProfile.from_dict(profile),
            deltas=DeltaSequence(tuple(deltas)),
            tail=tuple(tail),
            allow_small_degree=allow_small_degree,
        )


@dataclass(frozen=True)
class RemainderDecomposition:
    """The four signed pieces of R and their total; only epsilon_term (and
    so the total) can be fractional, the three sums are integers."""

    epsilon_term: Fraction
    point_sum_term: int
    delta_sum_term: int
    tail_term: int
    total: Fraction

    def to_dict(self) -> dict:
        return {
            "epsilonTerm": format_rational(self.epsilon_term),
            "pointSumTerm": format_rational(self.point_sum_term),
            "deltaSumTerm": format_rational(self.delta_sum_term),
            "tailTerm": format_rational(self.tail_term),
            "total": format_rational(self.total),
        }


def remainder_decomposition(inp: LemmaInput) -> RemainderDecomposition:
    """Assemble R piece by piece from validated input data."""
    s, eps, pi = inp.s, inp.eps, inp.pi
    epsilon_term = Fraction((1 + eps) * (s + 1 - eps - 2 * pi), 2 * s)
    point_sum = sum((i - 1) * (s - h) for i, h in enumerate(inp.point_profile.values) if i >= 1)
    delta_sum = inp.deltas.weighted_total
    tail_term = sum(inp.tail)
    return RemainderDecomposition(
        epsilon_term=epsilon_term,
        point_sum_term=point_sum,
        delta_sum_term=delta_sum,
        tail_term=tail_term,
        total=epsilon_term + (delta_sum + tail_term - point_sum),
    )


def quadratic_genus_numerator(d: int, s: int, pi: int) -> int:
    """d*(d + 2*pi - 2 - s): the remainder-free quadratic bound times 2s."""
    if s < 1:
        raise ValidationError(f"section degree s must be >= 1, got {s}")
    if d < 1:
        raise ValidationError(f"degree d must be >= 1, got {d}")
    if pi < 0:
        raise ValidationError(f"sectional genus must be >= 0, got {pi}")
    return d * (d + 2 * pi - 2 - s)


def quadratic_genus_bound(d: int, s: int, pi: int, remainder: Fraction | int = 0) -> Fraction:
    """d**2/(2s) + (d/(2s))*(2*pi - 2 - s) + remainder, exactly."""
    return Fraction(quadratic_genus_numerator(d, s, pi), 2 * s) + remainder


def genus_from_lemma_input(inp: LemmaInput) -> int:
    """sum_{i=1..m} (d - h1(i)) plus the tail, by direct accumulation.

    h1 is the surface-level section count accumulated from the point
    profile and deltas.  Equals quadratic_genus_bound(d, s, pi, R.total)
    exactly; oracle_suite re-proves that on randomized inputs.
    """
    acc, last = _backend.truncated_section_sum(
        inp.d, inp.m, list(inp.point_profile.values), list(inp.deltas.values)
    )
    if last > inp.d:
        # Unreachable for validated inputs: d - h1(m) = eps + pi >= 0.
        raise InconsistencyError(
            f"section count h1({inp.m}) = {last} exceeds the degree {inp.d}"
        )
    return acc + sum(inp.tail)


class TermEstimates(NamedTuple):
    """Bounds on R's pieces as integer numerators over 6(r-2)^2.

    Only the nonzero endpoints are kept: epsilon_term lies in
    [epsilon_lo, epsilon_hi], and point_sum, delta_sum and tail each lie in
    [0, their *_hi]; radius is the envelope s^3/(r-2).
    """

    epsilon_lo: int
    epsilon_hi: int
    point_sum_hi: int
    delta_sum_hi: int
    tail_hi: int
    radius: int


def term_estimate_intervals(r: int, s: int) -> TermEstimates:
    """Closed intervals bounding each R piece, for r >= 4, s >= r-1.

    epsilon_term in [-s^2/(2(r-2)), (s+1)/2]; point_sum in
    [0, s^3/(3(r-2)^2)]; delta_sum in [0, s^2(s-1)/(2(r-2))]; tail in
    [0, s^3/(2(r-2)^2)].  The aggregate follows R's sign pattern
    (point_sum enters negatively) and stays within +-s^3/(r-2).  Every
    endpoint and the radius are returned as integer numerators over the one
    denominator 6(r-2)^2, so a caller compares them without Fractions.
    """
    if r < 4:
        raise ValidationError(f"term estimates require r >= 4, got {r}")
    if s < r - 1:
        raise ValidationError(f"need s >= r-1 = {r - 1}, got {s}")
    rm2 = r - 2
    s2 = s * s
    s3 = s2 * s
    return TermEstimates(
        epsilon_lo=-3 * s2 * rm2,
        epsilon_hi=3 * (s + 1) * rm2 * rm2,
        point_sum_hi=2 * s3,
        delta_sum_hi=3 * s2 * (s - 1) * rm2,
        tail_hi=3 * s3,
        radius=6 * s3 * rm2,
    )


def acm_remainder(
    eps: int, s: int, pi: int, surface_genus: int, tail: tuple[int, ...] = ()
) -> Fraction:
    """R for a section with all deltas zero.

    surface_genus is the subtracted middle term; when the deltas of a full
    LemmaInput vanish it coincides with the weighted point sum, and this
    reproduces remainder_decomposition(...).total exactly.
    """
    if s < 1:
        raise ValidationError(f"section degree s must be >= 1, got {s}")
    if not 0 <= eps <= s - 1:
        raise ValidationError(f"eps must satisfy 0 <= eps <= s-1, got eps={eps}, s={s}")
    if pi < 0:
        raise ValidationError(f"sectional genus must be >= 0, got {pi}")
    if surface_genus < 0:
        raise ValidationError(f"surface genus must be >= 0, got {surface_genus}")
    return (
        Fraction((1 + eps) * (s + 1 - eps - 2 * pi), 2 * s)
        - surface_genus
        + sum(int(t) for t in tail)
    )
