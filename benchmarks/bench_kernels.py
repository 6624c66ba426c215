"""Time the summation kernels of `flagbound._backend` and radical powering.

Runs each kernel on a ladder of problem sizes and prints the per-call time,
one row per kernel and size.  Then times `exact_arith.compare_radical_exact`
on both of its arithmetic paths, int and decimal, one row per threshold:
T(m, m+1) for m = 8-13 at lhs = floor(T) + 1, and T(7, s) at B = 210^(25k)
for k = 4, 8, 12, 16 with lhs = T + 1, whose powered sides step through the
crossover between the two paths (`exact_arith._DECIMAL_DIGITS`).  A
powering row is the best of min(3, --repeat) single calls.  Run it from the
root of a checkout with the sources on the path:

    PYTHONPATH=src python benchmarks/bench_kernels.py --repeat 2000

End-to-end numbers come from `flagbench/run.py`.
"""

from __future__ import annotations

import argparse
import math
import time

from flagbound import _backend, exact_arith
from flagbound.exact_arith import RadicalThreshold, compare_radical_exact


def _time_call(fn, args, repeat: int) -> float:
    # one warm-up, then best-of-3 batches to damp scheduler noise
    fn(*args)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeat):
            fn(*args)
        best = min(best, (time.perf_counter() - start) / repeat)
    return best


def _powering_cases() -> list[tuple[str, RadicalThreshold, int]]:
    """(label, T, lhs) for each powering row."""
    cases = []
    for m in range(8, 14):
        rhs = RadicalThreshold(m, m + 1)
        cases.append((f"T({m}, {m + 1})", rhs, math.floor(rhs.enclosure(40).lo) + 1))
    for k in (4, 8, 12, 16):
        # B = 7!(s+1) = 210^(25k): T(7, s) = 210^(245k/4)/15120, an integer
        rhs = RadicalThreshold(7, 210 ** (25 * k) // 5040 - 1)
        cases.append((f"T(7), B=210^{25 * k}", rhs, 210 ** (245 * k // 4) // 15120 + 1))
    return cases


def _time_powering(lhs: int, rhs: RadicalThreshold, crossover: int, calls: int) -> float:
    saved = exact_arith._DECIMAL_DIGITS
    exact_arith._DECIMAL_DIGITS = crossover
    try:
        best = float("inf")
        for _ in range(calls):
            start = time.perf_counter()
            compare_radical_exact(lhs, rhs)
            best = min(best, time.perf_counter() - start)
    finally:
        exact_arith._DECIMAL_DIGITS = saved
    return best


def _truncated_args(s: int, m: int) -> tuple:
    profile = list(range(1, s, max(1, s // 8)))
    if profile[-1] != s:
        profile.append(s)
    d = m * s + s // 2 + 1
    return (d, m, profile, [1, 0, 2])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=1000, help="calls per timing batch")
    args = parser.parse_args()

    cases = [
        ("deficiency_sum", (2_000, 3)),
        ("deficiency_sum", (200_000, 7)),
        ("weighted_deficiency_sum", (2_000, 3)),
        ("weighted_deficiency_sum", (200_000, 7)),
        ("truncated_section_sum", _truncated_args(50, 400)),
        ("truncated_section_sum", _truncated_args(900, 5_000)),
    ]

    header = f"{'kernel':<28} {'args':<24} {'per call':>12}"
    print(header)
    print("-" * len(header))
    for name, call_args in cases:
        label = str(call_args if len(call_args) == 2 else call_args[:2] + ("...",))
        elapsed = _time_call(getattr(_backend, name), call_args, args.repeat)
        print(f"{name:<28} {label:<24} {elapsed * 1e6:>10.2f}us")

    print()
    header = (
        f"{'powering':<22} {'threshold':<16} {'digits':>8} "
        f"{'int':>10} {'decimal':>10} {'int/dec':>8}"
    )
    print(header)
    print("-" * len(header))
    for label, rhs, lhs in _powering_cases():
        digits = exact_arith._powering(lhs, rhs)[-1]
        by_int = _time_powering(lhs, rhs, 10**18, min(3, args.repeat))
        by_decimal = _time_powering(lhs, rhs, 0, min(3, args.repeat))
        print(
            f"{'compare_radical_exact':<22} {label:<16} {digits:>8} {by_int * 1e3:>8.2f}ms "
            f"{by_decimal * 1e3:>8.2f}ms {by_int / by_decimal:>8.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
