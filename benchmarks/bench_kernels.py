"""Compare the compiled summation kernels against the pure-Python twins.

Runs each kernel on a ladder of problem sizes through both implementations
and prints per-call timings with the speedup, one row per kernel and size.
Run it from the root of a checkout with the sources on the path:

    PYTHONPATH=src python benchmarks/bench_kernels.py --repeat 2000

The compiled column appears only when the extension `flagbound._kernels`
has been built (for example by `pip install -e .`); otherwise only the pure
numbers are shown.  End-to-end numbers come from `flagbench/run.py`.
"""

from __future__ import annotations

import argparse
import time

from flagbound import _kernels_py as pure

try:
    from flagbound import _kernels as compiled
except ImportError:
    compiled = None


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

    if compiled is None:
        print("compiled kernels unavailable; showing pure-Python timings only")
    header = f"{'kernel':<28} {'args':<24} {'pure':>12} {'compiled':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name, call_args in cases:
        pure_fn = getattr(pure, name)
        label = str(call_args if len(call_args) == 2 else call_args[:2] + ("...",))
        pure_t = _time_call(pure_fn, call_args, args.repeat)
        if compiled is None:
            print(f"{name:<28} {label:<24} {pure_t * 1e6:>10.2f}us {'-':>12} {'-':>9}")
            continue
        comp_fn = getattr(compiled, name)
        expect = pure_fn(*call_args)
        got = comp_fn(*call_args)
        if got != expect:
            raise SystemExit(f"kernel disagreement in {name}{call_args}: {got} != {expect}")
        comp_t = _time_call(comp_fn, call_args, args.repeat)
        print(
            f"{name:<28} {label:<24} {pure_t * 1e6:>10.2f}us "
            f"{comp_t * 1e6:>10.2f}us {pure_t / comp_t:>8.1f}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
