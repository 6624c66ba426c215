"""Time the summation kernels of `flagbound._backend`.

Runs each kernel on a ladder of problem sizes and prints the per-call time,
one row per kernel and size.  Run it from the root of a checkout with the
sources on the path:

    PYTHONPATH=src python benchmarks/bench_kernels.py --repeat 2000

End-to-end numbers come from `flagbench/run.py`.
"""

from __future__ import annotations

import argparse
import time

from flagbound import _backend


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
