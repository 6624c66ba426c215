"""flagbound benchmark: one command per workload run.

    python3 flagbench/run.py --workload batch-light --seed 1 --seconds 20 --trace 0

Run from the root of a flagbound checkout (the directory holding src/).
Each run starts the workload in a process of its own (child.py), one
closed-loop client without extra threads, then checks every output against
check.py's independent recomputation.

--trace 0 prints the end-to-end metrics, measured with tracing off:
    setup_s      median of 15 set-ups (import flagbound + load the inputs)
    ops_per_s    ops completed per second
    op_p50_us    median op latency;  op_p99_us  its 99th percentile
    verdict_s    time from a CLI call to its exit code
    peak_rss_mb  the workload process's maximum resident set
An op is one NDJSON record for batch-* and one verify call for verify-grid;
a call is one `flagbound batch` chunk or one `flagbound verify` run.
failed_ratio (failed / attempted ops) is printed too and is carried by the
result's `attempted` and `failed` fields.

On a shared host other tenants slow the machine by tens of percent, in
bursts of seconds and in phases of minutes.  The workload process therefore times
a fixed stdlib-only reference task (child.REFERENCE_TASKS) after set-up,
after every call and, in batch-radical, before every record.  Each timing
is scaled by the task's nominal time (REFERENCE_S) over the mean of the
reference times around it, so times read as at one fixed machine speed and
the drift, which slows both alike, cancels.  Raw call time and the mean scale
factor are printed in the notes line.

--trace 1 runs the workload untraced as above, then replays its first calls
(a quarter of the run's call time, at least one call) with spans recorded
(spans.py), and prints the per-layer metrics of that replay plus the
tracing overhead: traced minus untraced call time over the same calls.

The last stdout line is the JSON result.  The program's own settings are
pinned: FLAGBOUND_PURE and FLAGBOUND_DIGIT_BUDGET are removed from the
workload's environment, and the backend, digit budget, Python version and
CPU count in force are printed with every result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import check
from child import WORKLOAD_REFERENCE, input_path, load_input
from spans import METRICS as LAYER_METRICS
from spans import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-light", "batch-radical", "verify-grid")
#: Nominal reference task times: typical on the 2-vCPU Xeon VM (Python 3.11)
#: the benchmark was tuned on.  They fix the speed results are quoted at.
REFERENCE_S = {"fraction": 0.016, "bigint": 0.022}
#: Set-ups measured before and after the workload process, on top of its own.
SETUP_PROBES = (7, 7)
PINNED_ENV = ("FLAGBOUND_PURE", "FLAGBOUND_DIGIT_BUDGET")
#: Every run must end well inside three minutes.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """The run cannot produce a result."""


def percentile(samples, q: int) -> float:
    """q-th percentile, interpolated between the order statistics around it."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def scale(probes, task: str = "fraction") -> float:
    """Factor that maps a time measured between these reference times to
    the reference speed."""
    return REFERENCE_S[task] / statistics.fmean(probes)


def scaled_calls(calls: list[dict], latencies: list[list[float]], first_probe: float, task: str):
    """(scaled call times, scaled op latencies) of one pass.

    A record is scaled by the reference times just before and after it when
    the pass gauged every record, else by those around its call.  The rest
    of a call's time (argument parsing, I/O between records) is scaled by the
    reference times around the call.
    """
    call_times, op_times = [], []
    before = first_probe
    for call, lat in zip(calls, latencies):
        after = call["after_probe"]
        call_factor = scale((before, after), task)
        inner = call["inner_probes"]
        if inner:
            factors = [scale(pair, task) for pair in zip(inner, inner[1:] + [after])]
        else:
            factors = [call_factor] * len(lat)
        ops = [t * f for t, f in zip(lat, factors)]
        op_times += ops
        call_times.append(sum(ops) + (call["wall_s"] - sum(lat)) * call_factor)
        before = after
    return call_times, op_times


class Run:
    def __init__(self, args: argparse.Namespace, root: str) -> None:
        self.args = args
        self.root = root
        self.workdir = os.path.join(
            root, ".flagbench-work", f"{args.workload}-s{args.seed}-p{os.getpid()}"
        )
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
        self.env["PYTHONHASHSEED"] = "0"
        self.cleared = [k for k in PINNED_ENV if k in os.environ]

    def child(self, mode: str, out: str, **extra) -> dict:
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--mode", mode,
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--workdir", self.workdir,
            "--root", self.root,
            "--out", os.path.join(self.workdir, out),
        ]
        if self.args.tiny:
            cmd.append("--tiny")
        for key, value in extra.items():
            cmd += [f"--{key}", str(value)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunError("out of time before the workload process started")
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=self.root, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"workload process ({mode}) exceeded the run deadline") from exc
        if proc.returncode != 0:
            raise RunError(f"workload process ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(os.path.join(self.workdir, out), encoding="utf-8") as fh:
            return json.load(fh)

    def latencies(self, tag: str) -> list[float]:
        samples = array("d")
        path = os.path.join(self.workdir, f"lat-{tag}.bin")
        with open(path, "rb") as fh:
            samples.frombytes(fh.read())
        return list(samples)

    def output(self, tag: str, index: int) -> str:
        with open(os.path.join(self.workdir, f"out-{tag}-{index:05d}"), encoding="utf-8") as fh:
            return fh.read()

    def check(self, result: dict, tag: str) -> tuple[int, list[str]]:
        """(ops attempted, mismatch descriptions) over every call of a pass."""
        attempted, problems = 0, []
        oracle = check.RadicalOracle()
        verified: dict[str, list[str]] = {}
        for call in result["calls"]:
            index = call["index"]
            data = load_input(input_path(self.workdir, self.args.workload, index), self.args.workload)
            text = self.output(tag, index)
            if self.args.workload == "verify-grid":
                if text not in verified:
                    rows, verified[text] = check.check_verify(data, call["exit"], text)
                else:
                    rows = len(check.expected_verify_cases(data))
                attempted += rows
                problems += [f"call {index}: {p}" for p in verified[text]]
            else:
                lines = [line for line in data if line.strip()]
                attempted += len(lines)
                found = check.check_batch(lines, text.splitlines(), oracle)
                problems += [f"call {index}: {p}" for p in found]
        return attempted, problems

    def settings_line(self, result: dict) -> str:
        s = result["settings"]
        cleared = ",".join(self.cleared) if self.cleared else "none set"
        return (
            f"settings backend={s['backend']} digit_budget={s['digit_budget']} "
            f"python={s['python']} nproc={s['nproc']} cleared_env={cleared}"
        )

    def scaled_pass(self, result: dict, tag: str) -> tuple[list[int], list[float], list[float]]:
        """(records per call, scaled call times, scaled op latencies) of a pass."""
        records = [c["records"] for c in result["calls"]]
        flat = self.latencies(tag)
        latencies, start = [], 0
        for n in records:
            latencies.append(flat[start:start + n])
            start += n
        task = WORKLOAD_REFERENCE[self.args.workload]
        return records, *scaled_calls(result["calls"], latencies, result["first_probe"], task)

    def end_to_end(self) -> tuple[dict, list[str], int, list[str]]:
        before, after = SETUP_PROBES
        setups = [self.child("probe", f"probe-a{i}.json") for i in range(before)]
        main = self.child("run", "run.json", seconds=self.args.seconds)
        setups.append(main)
        setups += [self.child("probe", f"probe-b{i}.json") for i in range(after)]
        records, call_times, op_times = self.scaled_pass(main, "run")
        metrics = {
            "setup_s": statistics.median(p["setup_s"] * scale(p["setup_probes"]) for p in setups),
            "ops_per_s": sum(records) / sum(call_times),
            "op_p50_us": statistics.median(op_times) * 1e6,
            "op_p99_us": percentile(op_times, 99) * 1e6,
            "verdict_s": statistics.median(call_times),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        raw_s = sum(c["wall_s"] for c in main["calls"])
        notes = [
            self.settings_line(main),
            f"{sum(records)} ops in {len(records)} calls; call time {raw_s:.3f} s raw, "
            f"{sum(call_times):.3f} s at reference speed (scale factor "
            f"{sum(call_times) / raw_s:.3f}); setup_s over {len(setups)} set-ups",
        ]
        attempted, problems = self.check(main, "run")
        return metrics, notes, attempted, problems

    def per_layer(self) -> tuple[dict, list[str], int, list[str]]:
        plain = self.child("run", "run.json", seconds=self.args.seconds)
        # a quarter of the run keeps the span arrays to tens of megabytes
        replay, covered = 0, 0.0
        while replay < len(plain["calls"]) and (replay == 0 or covered < self.args.seconds / 4):
            covered += plain["calls"][replay]["wall_s"]
            replay += 1
        plain["calls"] = plain["calls"][:replay]
        traced = self.child("trace", "trace.json", calls=replay)
        traced_raw_s = sum(c["wall_s"] for c in traced["calls"])
        metrics = layer_metrics(os.path.join(self.workdir, "spans.bin"), traced_raw_s)
        plain_s = sum(self.scaled_pass(plain, "run")[1])
        traced_s = sum(self.scaled_pass(traced, "trace")[1])
        metrics["trace.traced_s"] = traced_s
        metrics["trace.untraced_s"] = plain_s
        metrics["trace.overhead_s"] = traced_s - plain_s
        notes = [
            self.settings_line(traced),
            f"traced replay of {len(traced['calls'])} calls at reference speed: {traced_s:.3f} s "
            f"traced, {plain_s:.3f} s untraced, overhead {traced_s - plain_s:+.3f} s "
            f"({(traced_s / plain_s - 1) * 100:+.1f}%); shares are of {traced_raw_s:.3f} s raw traced time",
        ]
        attempted, problems = self.check(traced, "trace")
        for call in plain["calls"]:
            if self.output("run", call["index"]) != self.output("trace", call["index"]):
                problems.append(f"call {call['index']}: traced output differs from untraced")
        return metrics, notes, attempted, problems

    def execute(self) -> int:
        os.makedirs(self.workdir)
        try:
            if self.args.trace:
                units = LAYER_METRICS
                metrics, notes, attempted, problems = self.per_layer()
            else:
                units = END_TO_END
                metrics, notes, attempted, problems = self.end_to_end()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(self.workdir))
            except OSError:
                pass  # another run still has its directory there
        a = self.args
        print(f"flagbench workload={a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace}")
        for note in notes:
            print(note)
        for name, unit in units.items():
            print(f"{name:<30} {metrics[name]:>16.6g} {unit}")
        failed = min(len(problems), attempted)
        print(f"{'failed_ratio':<30} {failed / attempted:>16.6g} ratio ({failed} of {attempted} ops)")
        for problem in problems[:20]:
            print(f"MISMATCH {problem}")
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the harness self-test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flagbound", "__init__.py")):
        print(f"error: {root} holds no flagbound source tree (src/flagbound)", file=sys.stderr)
        return 2
    try:
        return Run(args, root).execute()
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
