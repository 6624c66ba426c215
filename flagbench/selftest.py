"""Self-test of the benchmark harness.

    python3 flagbench/selftest.py

Run from the root of a flagbound checkout.  It checks that

* every workload runs at tiny size with tracing off and on, and prints a
  result line with exactly the declared metrics and no failures;
* the checker accepts the program's real outputs and flags each kind of
  deliberately wrong output (a changed bound, a flipped verdict, an
  undecided verdict, ok:false, a missing line, a wrong verify case count);
* run.py refuses to run, printing no result, in a directory that holds only
  the benchmark and no flagbound source tree.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
from child import Sink  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import METRICS  # noqa: E402

ROOT = os.getcwd()
failures: list[str] = []


def expect(ok: bool, label: str) -> None:
    print(("PASS " if ok else "FAIL ") + label)
    if not ok:
        failures.append(label)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "flagbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_workloads() -> None:
    for workload in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, METRICS)):
            label = f"{workload} trace={trace}"
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
            metrics = result["metrics"]
            expect(list(metrics) == list(units)
                   and all(metrics[k]["unit"] == u for k, u in units.items())
                   and all(isinstance(metrics[k]["value"], (int, float)) for k in units),
                   f"{label}: exactly the declared metrics, with units")


def _program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from flagbound import cli

    return cli


def _call(cli, argv: list[str], stdin_lines: list[str] | None = None) -> tuple[int, str]:
    from array import array

    sink = Sink(array("d"))
    saved = sys.stdin, sys.stdout
    sys.stdout = sink
    if stdin_lines is not None:
        sys.stdin = iter(stdin_lines)
    try:
        code = cli.main(argv)
    finally:
        sys.stdin, sys.stdout = saved
    return code, "".join(sink.parts)


def _mutations(out: dict) -> list[tuple[str, dict]]:
    """Deliberately wrong variants of one correct output line."""
    result = out["result"]
    wrong = []
    for key in ("bound", "alternativeBound", "lo", "hi", "genus"):
        if key in result:
            value = result[key]
            bumped = value + 1 if isinstance(value, int) else check.fmt(Fraction(value) + 1)
            wrong.append((f"{key}+1", {"ok": True, "result": dict(result, **{key: bumped})}))
    if "degreeHypotheses" in result:
        flipped = "fail" if result["degreeHypotheses"] == "pass" else "pass"
        wrong.append(("flipped verdict", {"ok": True, "result": dict(result, degreeHypotheses=flipped)}))
        wrong.append(("undecided verdict",
                      {"ok": True, "result": dict(result, degreeHypotheses="undecided")}))
    if "hypothesesVerified" in result:
        wrong.append(("flipped verified",
                      {"ok": True, "result": dict(result, hypothesesVerified=not result["hypothesesVerified"])}))
    if "identityHolds" in result:
        wrong.append(("identity false", {"ok": True, "result": dict(result, identityHolds=False)}))
    wrong.append(("ok false", {"ok": False, "error": "injected", "input": ""}))
    return wrong


def check_checker() -> None:
    cli = _program()
    oracle = check.RadicalOracle()
    records = gen.light_chunk(7, 0, 200) + gen.radical_round(7, 0, gen.RADICAL_R_TINY)
    lines = gen.to_ndjson(records).splitlines(keepends=True)
    code, text = _call(cli, ["batch", "--input", "-"], lines)
    outputs = text.splitlines()
    expect(code == 0 and not check.check_batch(lines, outputs, oracle),
           f"checker accepts the program's {len(lines)} real batch outputs")
    seen_ops = set()
    for i, record in enumerate(records):
        if record["op"] in seen_ops:
            continue
        seen_ops.add(record["op"])
        for label, bad in _mutations(json.loads(outputs[i])):
            corrupted = outputs[:i] + [json.dumps(bad)] + outputs[i + 1:]
            found = check.check_batch(lines, corrupted, oracle)
            expect(len(found) == 1, f"checker flags {record['op']} output with {label}")
    found = check.check_batch(lines, outputs[:-1], oracle)
    expect(len(found) == 1, "checker flags a missing output line")
    expect(len(seen_ops) == 5, f"mutations covered all five ops ({sorted(seen_ops)})")

    params = gen.verify_params(7, tiny=True)
    code, text = _call(cli, gen.verify_argv(params))
    rows, found = check.check_verify(params, code, text)
    expect(rows == 10 and not found, "checker accepts the program's real verify output")
    doc = json.loads(text)
    doc["rows"][0]["cases"] += 1
    expect(len(check.check_verify(params, 0, json.dumps(doc))[1]) == 1,
           "checker flags a verify row with a wrong case count")
    doc = json.loads(text)
    doc["rows"][3]["failures"], doc["rows"][3]["passed"], doc["passed"] = 1, False, False
    expect(len(check.check_verify(params, 2, json.dumps(doc))[1]) == 2,
           "checker flags a failing verify row and the failed verdict")


def check_refuses_without_source() -> None:
    bare = os.path.join(ROOT, ".flagbench-work", f"selftest-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "flagbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench(bare, "batch-light", 0)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_result,
               f"refuses without a source tree (exit {proc.returncode}, no result line)")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_checker()
    check_refuses_without_source()
    check_workloads()
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
