"""Castelnuovo's bound.

The maximal genus of a nondegenerate degree-deg curve in P^N is

    pi(deg, N) = C(m, 2)*(N - 1) + m*eps,   deg - 1 = m*(N - 1) + eps.

The closed form and the deficiency-sum form sum_{i>=1} (deg - min(deg, i*(N-1)+1)),
over the least Hilbert function min(deg, i*(N-1)+1) of deg points spanning
a hyperplane, agree everywhere; oracle_suite re-proves that on a grid at
every verify run.
"""

from __future__ import annotations

from math import comb

from .errors import ValidationError


def castelnuovo_bound(N: int, deg: int) -> int:
    """Maximal genus of a nondegenerate curve of degree deg in P^N."""
    if N < 2:
        raise ValidationError(f"ambient dimension N must be >= 2, got {N}")
    if deg < N:
        raise ValidationError(f"nondegenerate curves need deg >= N, got deg={deg}, N={N}")
    m, eps = divmod(deg - 1, N - 1)
    return comb(m, 2) * (N - 1) + m * eps

