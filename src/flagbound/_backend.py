"""The summation kernels, on Python's arbitrary-precision integers.

The two deficiency sums are direct summations over their terms (the oracle
battery checks the closed forms against them), but the loop over the terms
runs inside `range`, `accumulate` and `sum` rather than as Python bytecode.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import ValidationError


def backend_name() -> str:
    return "pure"


def _check_modulus(modulus: int) -> None:
    # Below 1 the terms never saturate: range() would raise or sum nothing.
    if modulus < 1:
        raise ValidationError(f"modulus must be >= 1, got {modulus}")


def deficiency_sum(stable: int, modulus: int) -> int:
    """sum_{i>=1} (stable - min(stable, i*modulus + 1))."""
    _check_modulus(modulus)
    # the positive terms stable - i*modulus - 1 for i = 1, 2, ...
    return sum(range(stable - modulus - 1, 0, -modulus))


def weighted_deficiency_sum(stable: int, modulus: int) -> int:
    """sum_{i>=1} (i - 1) * (stable - min(stable, i*modulus + 1))."""
    _check_modulus(modulus)
    # the sum of the suffix sums of the terms for i >= 2, so term i is
    # counted i - 1 times
    return sum(accumulate(reversed(range(stable - 2 * modulus - 1, 0, -modulus))))


def truncated_section_sum(
    d: int, m: int, point_values: list[int], deltas: list[int]
) -> tuple[int, int]:
    """(sum_{i=1..m} (d - h1(i)), h1(m)).

    h1 is the running sum of point values (extended by their last entry)
    plus deltas (delta_0 = 0).
    """
    top = len(point_values) - 1
    stable = point_values[top]
    n_deltas = len(deltas)
    acc = 0
    h1 = point_values[0]
    for i in range(1, m + 1):
        h1 += point_values[i] if i <= top else stable
        if i <= n_deltas:
            h1 += deltas[i - 1]
        acc += d - h1
    return acc, h1
