"""Hilbert function profiles of hyperplane-section points and delta sequences.

A HilbertProfile stores h(0), h(1), ..., h(T) for the points cut on a curve
by a general hyperplane; it starts at 1, never decreases, and ends at the
stable value s (the section degree).  A DeltaSequence stores the correction
terms delta_1, delta_2, ... that measure how far the curve's surface-level
section counts sit above the plain partial sums of the point profile.

The deficiency identity links the two to the sectional genus pi:

    pi = sum_{i>=1} (s - h(i)) - sum_{i>=1} delta_i

so a delta sequence whose total exceeds the profile's deficiency sum is
contradictory and is rejected, not clamped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InconsistencyError, ValidationError
from .fields import INT, INTS, read_fields


_PROFILE_FIELDS = {"stable": INT, "values": INTS}


@dataclass(frozen=True)
class HilbertProfile:
    """Eventually-constant nondecreasing profile h(0)=1, ..., h(T)=stable."""

    stable: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.stable < 1:
            raise ValidationError(f"stable value must be >= 1, got {self.stable}")
        if not self.values:
            raise ValidationError("profile needs at least the value h(0)")
        if self.values[0] != 1:
            raise ValidationError(f"h(0) must be 1, got {self.values[0]}")
        for i in range(1, len(self.values)):
            if self.values[i] < self.values[i - 1]:
                raise ValidationError(
                    f"profile decreases at i={i}: {self.values[i - 1]} -> {self.values[i]}"
                )
        if any(v > self.stable for v in self.values):
            raise ValidationError("profile exceeds its stable value")
        if self.values[-1] != self.stable:
            raise ValidationError(
                f"profile must reach its stable value {self.stable}, ends at {self.values[-1]}"
            )

    def value(self, i: int) -> int:
        """h(i), extended by the stable value past the stored range."""
        if i < 0:
            raise ValidationError(f"step index must be >= 0, got {i}")
        return self.values[i] if i < len(self.values) else self.stable

    @property
    def saturation_index(self) -> int:
        """Smallest T with h(T) = stable."""
        for i, v in enumerate(self.values):
            if v == self.stable:
                return i
        raise AssertionError("unreachable: profile ends at stable")

    def to_dict(self) -> dict:
        return {"stable": self.stable, "values": list(self.values)}

    @classmethod
    def from_dict(cls, data: object) -> "HilbertProfile":
        stable, values = read_fields(data, _PROFILE_FIELDS, "profile object")
        return cls(stable, tuple(values))


def genus_sum(profile: HilbertProfile) -> int:
    """sum_{i>=1} (stable - h(i)); terms vanish once the profile saturates."""
    return sum(profile.stable - v for v in profile.values[1:])


@dataclass(frozen=True)
class DeltaSequence:
    """Nonnegative integers delta_1, ..., delta_K (index 1-based, delta_0 = 0)."""

    values: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        for idx, v in enumerate(self.values, start=1):
            if v < 0:
                raise ValidationError(f"delta_{idx} must be >= 0, got {v}")

    def value(self, i: int) -> int:
        """delta_i for i >= 1, zero past the stored range."""
        if i < 1:
            raise ValidationError(f"delta index must be >= 1, got {i}")
        return self.values[i - 1] if i <= len(self.values) else 0

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def weighted_total(self) -> int:
        """sum_{i>=1} (i - 1) * delta_i."""
        return sum((i - 1) * v for i, v in enumerate(self.values, start=1))

    @property
    def support_max(self) -> int:
        """Largest i with delta_i > 0, or 0 for the zero sequence."""
        for i in range(len(self.values), 0, -1):
            if self.values[i - 1] > 0:
                return i
        return 0


def accumulate_surface_section(
    point_profile: HilbertProfile, deltas: DeltaSequence, upto: int
) -> tuple[int, ...]:
    """Surface-level section counts h1(0..upto) from the point data.

    h1(i) = sum_{j<=i} (h0(j) + delta_j) with delta_0 = 0.  The degenerate
    stable value 1 is rejected: a curve section has s >= 2 points.
    """
    if point_profile.stable < 2:
        raise ValidationError("surface sections need a point profile with stable value >= 2")
    if upto < 0:
        raise ValidationError(f"upto must be >= 0, got {upto}")
    out = []
    acc = 0
    for i in range(upto + 1):
        acc += point_profile.value(i)
        if i >= 1:
            acc += deltas.value(i)
        out.append(acc)
    return tuple(out)


def sectional_genus(point_profile: HilbertProfile, deltas: DeltaSequence) -> int:
    """pi = genus_sum(profile) - total(deltas), via the deficiency identity.

    Raises InconsistencyError when the delta total exceeds the deficiency
    sum (the data would force a negative genus).
    """
    deficiency = genus_sum(point_profile)
    excess = deltas.total
    if excess > deficiency:
        raise InconsistencyError(
            f"delta total {excess} exceeds the profile deficiency sum {deficiency}"
        )
    return deficiency - excess
