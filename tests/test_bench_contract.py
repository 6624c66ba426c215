"""The benchmark harness in flagbench/ still finds what it reads in the package.

flagbench/child.py reads the settings it prints from the package, and
flagbench/spans.py wraps layer functions and constructors by name and counts
the spans per name.  A deleted or renamed name there either crashes the
harness or silently turns a per-layer metric into 0.  The check runs in a
subprocess, because Tracer.install() rebinds module globals that no other
test should see.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import io, json, os, sys, tempfile
from time import perf_counter

root = sys.argv[1]
sys.path.insert(0, os.path.join(root, "flagbench"))
import child, spans

flagbound = child._import_flagbound(root)
settings = child._settings(flagbound)
from flagbound import cli

tracer = spans.Tracer()
tracer.install()
records = [
    {"op": "castelnuovo", "N": 4, "deg": 12},
    {"op": "flag", "r": 3, "degrees": [4000, 2]},
    {"op": "lemma", "input": {"r": 5, "d": 50, "s": 7,
                              "pointProfile": {"stable": 7, "values": [1, 4, 7]}}},
    {"op": "corollary", "r": 4, "d": 1000000, "s": 3, "pi": 1},
    {"op": "speciality", "d": 100, "s": 10, "pi": 5},
]
saved = sys.stdin, sys.stdout
sys.stdin = io.StringIO("".join(json.dumps(rec) + "\n" for rec in records))
sys.stdout = io.StringIO()
start = perf_counter()
try:
    codes = [
        cli.main(["batch"]),
        cli.main(["verify", "--grid", "5,20", "--castelnuovo-grid", "3,20", "--seeds", "3",
                  "--flags", "2", "--corollary-cases", "1", "--radicals", "2"]),
    ]
finally:
    sys.stdin, sys.stdout = saved
traced_s = perf_counter() - start
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "spans.bin")
    tracer.dump(path)
    metrics = spans.layer_metrics(path, traced_s)
print(json.dumps({"codes": codes, "settings": settings, "metrics": metrics}))
"""

#: per-layer counts that read spans or counters by a package name
NAMED_COUNTS = (
    "cli.records",
    "flag_recurrence.calls",
    "hypothesis_checker.checks",
    "exact_arith.compares",
    "exact_arith.exact_route",
    "exact_arith.enclosure_route",
    "exact_arith.root_lcm_max",
    "lemma_engine.inputs",
    "lemma_engine.envelopes",
    "kernels.calls",
    "kernels.trips",
    "oracle_suite.cases",
    "castelnuovo.calls",
    "trace.spans",
)


def test_harness_reads_the_package():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0]
    assert out["settings"]["backend"] == "pure"
    assert out["settings"]["digit_budget"] == 10**6
    metrics = out["metrics"]
    assert [name for name in NAMED_COUNTS if not metrics[name] > 0] == []
    assert metrics["cli.records"] == 5
