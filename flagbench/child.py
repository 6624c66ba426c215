"""The workload process: one closed-loop client driving flagbound in-process.

Started by run.py, never by hand.  One thread; each call into flagbound is a
`flagbound.cli.main([...])` invocation:

* batch workloads: `batch --input -` over one generated NDJSON chunk per
  call.  stdin is a feed that hands the program the next line only when it
  asks for it, after the previous output line was written, and notes the
  time; stdout is a sink that notes when each output line ends.  The
  difference is the record's latency.
* verify-grid: `verify --format json` with the generated parameters.

Inputs are generated (untimed) between calls; only the calls are timed.
One untimed warm-up call on a tiny input comes first.  Calls continue until their summed time reaches --seconds, or, with --calls,
exactly that many calls run (the traced replay of an untraced run).

On a shared host the machine's speed drifts by tens of percent over seconds
and minutes.  So a fixed reference task (stdlib only, independent of
flagbound) is timed after set-up, after every call and, in batch-radical,
before every record; run.py scales each timing by the reference times
around it.  The task resembles the work it gauges: interpreted Fraction
arithmetic for set-up, batch-light and verify-grid, big-integer
multiplication for batch-radical.  Probe time inside a call is subtracted
from the call's time.

Modes: `run` (untraced), `trace` (spans recorded), `probe` (set-up only).
Results go to files in --workdir; the process prints nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from array import array
from fractions import Fraction
from time import perf_counter

import gen


# Both tasks take some 15-25 ms on a 2-vCPU Xeon: long enough that their
# own jitter stays small next to the drift they gauge.


def fraction_task() -> None:
    """Reference work like the interpreter-bound workloads: harmonic sums."""
    for _ in range(4):
        acc = Fraction(0)
        for i in range(1, 1200):
            acc += Fraction(1, i)


def bigint_task() -> None:
    """Reference work like exact radical powering: big-integer products."""
    big = 3**100_000
    for _ in range(2):
        big * big
        big * (big + 1)


REFERENCE_TASKS = {"fraction": fraction_task, "bigint": bigint_task}
#: Which reference task gauges each workload's calls.
WORKLOAD_REFERENCE = {"batch-light": "fraction", "batch-radical": "bigint", "verify-grid": "fraction"}


def probe(task) -> float:
    """Time one reference task.  The collector is held off meanwhile, so the
    task never pays for the garbage the program left behind."""
    gc.disable()
    try:
        start = perf_counter()
        task()
        return perf_counter() - start
    finally:
        gc.enable()


class Feed:
    """stdin stand-in: yields one NDJSON line per request and notes when.

    before_each, if given, runs before a line is handed over, outside the
    record's latency.
    """

    def __init__(self, lines: list[str], sent: array, before_each=None) -> None:
        self._lines = iter(lines)
        self._sent = sent
        self._before_each = before_each

    def __iter__(self):
        return self

    def __next__(self) -> str:
        line = next(self._lines)
        if self._before_each is not None:
            self._before_each()
        self._sent.append(perf_counter())
        return line


class Sink:
    """stdout stand-in: keeps the text and notes when each line ends."""

    def __init__(self, done: array) -> None:
        self.parts: list[str] = []
        self._done = done

    def write(self, text: str) -> int:
        self.parts.append(text)
        for _ in range(text.count("\n")):
            self._done.append(perf_counter())
        return len(text)

    def flush(self) -> None:
        pass


#: Input index of the untimed warm-up call, always at tiny size.
WARMUP = -1


def input_path(workdir: str, workload: str, index: int) -> str:
    ext = "json" if workload == "verify-grid" else "ndjson"
    return os.path.join(workdir, f"in-{index:05d}.{ext}")


def ensure_input(workdir: str, workload: str, seed: int, index: int, tiny: bool) -> str:
    """Write input `index` for the workload unless an earlier pass did."""
    tiny = tiny or index == WARMUP
    path = input_path(workdir, workload, index)
    if os.path.exists(path):
        return path
    if workload == "batch-light":
        text = gen.to_ndjson(gen.light_chunk(seed, index, 100 if tiny else gen.LIGHT_CHUNK))
    elif workload == "batch-radical":
        rs = gen.RADICAL_R_TINY if tiny else gen.RADICAL_R
        text = gen.to_ndjson(gen.radical_round(seed, index, rs))
    else:
        text = json.dumps(gen.verify_params(seed, tiny))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def load_input(path: str, workload: str):
    with open(path, encoding="utf-8") as fh:
        if workload == "verify-grid":
            return json.load(fh)
        return fh.readlines()


def _import_flagbound(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import flagbound
    import flagbound.cli

    if not os.path.abspath(flagbound.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"flagbound imported from {flagbound.__file__}, not from {src}")
    return flagbound


def _settings(flagbound) -> dict:
    from flagbound.exact_arith import digit_budget

    return {
        "backend": flagbound.backend_name(),
        "digit_budget": digit_budget(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _call_batch(cli, lines: list[str], sent: array, done: array, before_each) -> tuple[int, float, str]:
    sink = Sink(done)
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = Feed(lines, sent, before_each), sink
    try:
        start = perf_counter()
        code = cli.main(["batch", "--input", "-"])
        wall = perf_counter() - start
    finally:
        sys.stdin, sys.stdout = saved
    return code, wall, "".join(sink.parts)


def _call_verify(cli, params: dict) -> tuple[int, float, str]:
    sink = Sink(array("d"))
    saved = sys.stdout
    sys.stdout = sink
    try:
        start = perf_counter()
        code = cli.main(gen.verify_argv(params))
        wall = perf_counter() - start
    finally:
        sys.stdout = saved
    return code, wall, "".join(sink.parts)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("run", "trace", "probe"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--calls", type=int, default=None)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True, help="result JSON file")
    args = ap.parse_args()
    workload, workdir = args.workload, args.workdir

    first = ensure_input(workdir, workload, args.seed, 0, args.tiny)
    # set-up: import flagbound and load the first input
    setup_start = perf_counter()
    flagbound = _import_flagbound(args.root)
    data = load_input(first, workload)
    setup_s = perf_counter() - setup_start
    result = {
        "setup_s": setup_s,
        "setup_probes": [probe(fraction_task), probe(fraction_task)],
        "settings": _settings(flagbound),
    }
    if args.mode == "probe":
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return

    from flagbound import cli

    # one untimed call first, so lazy set-up inside the program is not timed
    warm = load_input(ensure_input(workdir, workload, args.seed, WARMUP, True), workload)
    if workload == "verify-grid":
        _call_verify(cli, warm)
    else:
        _call_batch(cli, warm, array("d"), array("d"), None)

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    task = REFERENCE_TASKS[WORKLOAD_REFERENCE[workload]]

    def gauge() -> float:
        return probe(task)

    if tracer is not None:
        # probe time is a harness span, not the caller's self time
        gauge = tracer.harness(gauge)

    tag = args.mode
    calls = []
    measured = 0.0
    index = 0
    result["first_probe"] = gauge()
    with open(os.path.join(workdir, f"lat-{tag}.bin"), "wb") as lat_fh:
        while (measured < args.seconds) if args.calls is None else (index < args.calls):
            if index > 0:
                data = load_input(ensure_input(workdir, workload, args.seed, index, args.tiny), workload)
            inner: list[float] = []
            if workload == "verify-grid":
                code, wall, text = _call_verify(cli, data)
                latency = array("d", [wall])
                records = 1
            else:
                # batch-radical records run for up to a second: gauge each one
                before_each = (lambda: inner.append(gauge())) if workload == "batch-radical" else None
                sent, done = array("d"), array("d")
                code, wall, text = _call_batch(cli, data, sent, done, before_each)
                latency = array("d", (b - a for a, b in zip(sent, done)))
                records = len(data)
            net = wall - sum(inner)
            after = gauge()
            latency.tofile(lat_fh)
            with open(os.path.join(workdir, f"out-{tag}-{index:05d}"), "w", encoding="utf-8") as fh:
                fh.write(text)
            calls.append({
                "index": index, "records": records, "wall_s": net, "exit": code,
                "inner_probes": inner, "after_probe": after,
            })
            measured += net
            index += 1
    result["calls"] = calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.dump(os.path.join(workdir, "spans.bin"))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
