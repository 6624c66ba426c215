"""Kernel selection: compiled int64 fast path with a pure-Python fallback.

The compiled module (flagbound._kernels, built from _kernels.pyx) is used
when it imported cleanly, FLAGBOUND_PURE is unset, and a conservative bound
shows every intermediate fits in int64.  Otherwise the arbitrary-precision
twins in _kernels_py run.  Both implementations are tested against each
other; results are identical, only speed differs.
"""

from __future__ import annotations

import os

from . import _kernels_py as pure
from .errors import ValidationError

_FORCED_PURE = os.environ.get("FLAGBOUND_PURE", "").strip() not in ("", "0")

compiled = None
if not _FORCED_PURE:
    try:
        from . import _kernels as compiled  # type: ignore[no-redef]
    except ImportError:
        compiled = None

# Conservative int64 headroom: intermediates stay below 2**62.
_INT62 = 2**62
_STABLE_CAP = 2**31  # deficiency_sum result < stable**2
_WEIGHTED_STABLE_CAP = 2**20  # weighted result < stable**3


def backend_name() -> str:
    return "compiled" if compiled is not None else "pure"


def _check_modulus(modulus: int) -> None:
    # Below 1 the terms never saturate: the compiled loop would not end.
    if modulus < 1:
        raise ValidationError(f"modulus must be >= 1, got {modulus}")


def deficiency_sum(stable: int, modulus: int) -> int:
    """sum_{i>=1} (stable - min(stable, i*modulus + 1))."""
    _check_modulus(modulus)
    if compiled is not None and stable <= _STABLE_CAP and modulus <= _INT62:
        return compiled.deficiency_sum(stable, modulus)
    return pure.deficiency_sum(stable, modulus)


def weighted_deficiency_sum(stable: int, modulus: int) -> int:
    """sum_{i>=1} (i - 1) * (stable - min(stable, i*modulus + 1))."""
    _check_modulus(modulus)
    if compiled is not None and stable <= _WEIGHTED_STABLE_CAP and modulus <= _INT62:
        return compiled.weighted_deficiency_sum(stable, modulus)
    return pure.weighted_deficiency_sum(stable, modulus)


def truncated_section_sum(
    d: int, m: int, point_values: list[int], deltas: list[int]
) -> tuple[int, int]:
    """(sum_{i=1..m} (d - h1(i)), h1(m)); point_values must be nondecreasing."""
    if compiled is not None and 0 <= d < _INT62:
        # point_values nondecreasing, so its last entry bounds them all
        h1_cap = (m + 1) * point_values[-1] + sum(deltas)
        if h1_cap < _INT62 and m * (d + h1_cap) < _INT62:
            return compiled.truncated_section_sum(d, m, point_values, deltas)
    return pure.truncated_section_sum(d, m, point_values, deltas)
