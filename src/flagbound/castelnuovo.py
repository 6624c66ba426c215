"""Castelnuovo's bound and the minimal Hilbert function of spanning points.

For deg points spanning P^N the Hilbert function is at least

    h(i) >= min(deg, i*N + 1),

and the maximal genus of a nondegenerate degree-deg curve in P^N is

    pi(deg, N) = C(m, 2)*(N - 1) + m*eps,   deg - 1 = m*(N - 1) + eps.

The closed form and the deficiency-sum form sum_{i>=1} (deg - min(deg, i*(N-1)+1))
agree everywhere; oracle_suite re-proves that on a grid at every verify run.
"""

from __future__ import annotations

from math import comb

from .errors import ValidationError


def min_point_hilbert(N: int, deg: int, i: int) -> int:
    """Minimal Hilbert function value min(deg, i*N + 1) at step i >= 0.

    Saturates (reaches deg) at i = w when v == 0 and at i = w + 1 when
    v > 0, where deg - 1 = w*N + v.
    """
    if N < 2:
        raise ValidationError(f"points must span P^N with N >= 2, got N={N}")
    if deg < 1:
        raise ValidationError(f"point count must be >= 1, got {deg}")
    if i < 0:
        raise ValidationError(f"step index must be >= 0, got {i}")
    return min(deg, i * N + 1)


def castelnuovo_bound(N: int, deg: int) -> int:
    """Maximal genus of a nondegenerate curve of degree deg in P^N."""
    if N < 2:
        raise ValidationError(f"ambient dimension N must be >= 2, got {N}")
    if deg < N:
        raise ValidationError(f"nondegenerate curves need deg >= N, got deg={deg}, N={N}")
    m, eps = divmod(deg - 1, N - 1)
    return comb(m, 2) * (N - 1) + m * eps

