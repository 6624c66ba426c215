"""Span tracing around flagbound's layer boundaries, and the per-layer metrics.

Tracer.install() wraps the public functions of each layer module (plus the
per-record entry point of the CLI and the constructors that count inputs)
and rebinds every name that refers to the original, including the copies
other modules took with `from ... import`.  Each call records one span:
name, start, end and parent span, kept in flat arrays in memory and written
out once at the end of the run.  A few counters that spans cannot express
(kernel loop trips, root orders, verdicts) are read from arguments and
return values.

layer_metrics() turns a span file into the per-layer numbers.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

#: flagbound module -> layer name used in the metric names.
LAYERS = {
    "cli": "cli",
    "flag_recurrence": "flag_recurrence",
    "hypothesis_checker": "hypothesis_checker",
    "exact_arith": "exact_arith",
    "lemma_engine": "lemma_engine",
    "hilbert_profiles": "hilbert_profiles",
    "_backend": "kernels",
    "_kernels_py": "kernels",
    "_kernels": "kernels",
    "oracle_suite": "oracle_suite",
    "sampling": "sampling",
    "castelnuovo": "castelnuovo",
    "harness": "harness",
}
#: Private names that are layer boundaries all the same.
_EXTRA = {"cli": ("_batch_eval",)}
#: Constructors whose calls count inputs: module -> class names.
_CLASSES = {
    "lemma_engine": ("LemmaInput",),
    "hilbert_profiles": ("HilbertProfile", "DeltaSequence"),
}
KERNELS = ("deficiency_sum", "weighted_deficiency_sum", "truncated_section_sum")

#: Per-layer metrics and their units, in report order.
METRICS = {
    "cli.records": "count",
    "cli.self_s": "s",
    "flag_recurrence.calls": "count",
    "flag_recurrence.self_s": "s",
    "hypothesis_checker.checks": "count",
    "hypothesis_checker.undecided": "count",
    "hypothesis_checker.self_s": "s",
    "exact_arith.compares": "count",
    "exact_arith.exact_route": "count",
    "exact_arith.enclosure_route": "count",
    "exact_arith.exact_s": "s",
    "exact_arith.enclosure_s": "s",
    "exact_arith.exact_share": "ratio",
    "exact_arith.root_lcm_max": "order",
    "exact_arith.decided_ratio": "ratio",
    "lemma_engine.inputs": "count",
    "lemma_engine.envelopes": "count",
    "lemma_engine.self_s": "s",
    "hilbert_profiles.self_s": "s",
    "kernels.calls": "count",
    "kernels.trips": "count",
    "kernels.busy_s": "s",
    "kernels.busy_share": "ratio",
    "kernels.compiled_share": "ratio",
    "oracle_suite.cases": "count",
    "oracle_suite.self_s": "s",
    "sampling.self_s": "s",
    "castelnuovo.calls": "count",
    "castelnuovo.self_s": "s",
    "trace.spans": "count",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


def _kernel_trips(name: str, args: tuple) -> int:
    # loop iterations the kernel performs, from its arguments alone
    if name == "truncated_section_sum":
        return max(args[1], 0)
    stable, modulus = args[0], args[1]
    return max((stable - 2) // modulus, 0) if stable >= 2 else 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {
            "kernels.trips": 0,
            "exact_arith.root_lcm_max": 0,
            "exact_arith.decided": 0,
            "hypothesis_checker.checks": 0,
            "hypothesis_checker.undecided": 0,
            "oracle_suite.cases": 0,
        }
        self._stack = [-1]

    def _wrap(self, qualname: str, fn, after=None):
        name_id = len(self.names)
        self.names.append(qualname)
        name_of, parent_of, start, end = self.name_of, self.parent_of, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent_of.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def harness(self, fn):
        """Wrap a benchmark function, so its time is nobody's self time."""
        return self._wrap(f"harness.{fn.__name__}", fn)

    def _after(self, module: str, name: str):
        counters = self.counters
        if module == "_backend" and name in KERNELS:
            def after(args, result):
                counters["kernels.trips"] += _kernel_trips(name, args)
            return after
        if module == "exact_arith" and name == "compare_radical":
            def after(args, result):
                counters["exact_arith.root_lcm_max"] = max(
                    counters["exact_arith.root_lcm_max"], args[1].root_lcm
                )
                counters["exact_arith.decided"] += result.decided
            return after
        if module == "hypothesis_checker" and name.startswith("check_"):
            def after(args, result):
                counters["hypothesis_checker.checks"] += len(result.checks)
                counters["hypothesis_checker.undecided"] += sum(
                    c.verdict.value == "undecided" for c in result.checks
                )
            return after
        if module == "oracle_suite" and name == "verify_all":
            def after(args, result):
                counters["oracle_suite.cases"] += sum(row.cases for row in result.rows)
            return after
        return None

    def install(self) -> None:
        """Wrap every layer function and rebind all references to it."""
        replace: dict[int, object] = {}
        for short in LAYERS:
            module = sys.modules.get(f"flagbound.{short}")
            if module is None:
                continue
            for name, obj in list(vars(module).items()):
                wanted = (not name.startswith("_")) or name in _EXTRA.get(short, ())
                own = getattr(obj, "__module__", None) == module.__name__
                if wanted and own and callable(obj) and not inspect.isclass(obj):
                    replace[id(obj)] = self._wrap(f"{short}.{name}", obj, self._after(short, name))
            for cls_name in _CLASSES.get(short, ()):
                cls = getattr(module, cls_name)
                cls.__init__ = self._wrap(f"{short}.{cls_name}", cls.__init__)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "flagbound" or mod_name.startswith("flagbound.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def dump(self, path: str) -> None:
        """Write spans and counters: a JSON header line, then the arrays."""
        header = {"names": self.names, "count": len(self.start), "counters": self.counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_of, self.parent_of, self.start, self.end):
                column.tofile(fh)


def load_spans(path: str) -> tuple[dict, array, array, array, array]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        columns = []
        for code in ("i", "i", "d", "d"):
            column = array(code)
            column.fromfile(fh, n)
            columns.append(column)
    return (header, *columns)


def layer_metrics(path: str, traced_s: float) -> dict[str, float]:
    """Per-layer metrics from a span file; shares are of traced_s, the
    traced pass's call time as measured."""
    header, name_of, parent_of, start, end = load_spans(path)
    names = header["names"]
    counters = header["counters"]
    n = len(start)
    duration = array("d", (end[i] - start[i] for i in range(n)))
    child_time = array("d", bytes(8 * n))
    for i in range(n):
        p = parent_of[i]
        if p >= 0:
            child_time[p] += duration[i]
    layer_of = [LAYERS[q.split(".", 1)[0]] for q in names]
    self_s = dict.fromkeys(set(LAYERS.values()), 0.0)
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    layer_calls = dict.fromkeys(set(LAYERS.values()), 0)
    for i in range(n):
        nid = name_of[i]
        layer = layer_of[nid]
        self_s[layer] += duration[i] - child_time[i]
        layer_calls[layer] += 1
        q = names[nid]
        calls[q] = calls.get(q, 0) + 1
        inclusive[q] = inclusive.get(q, 0.0) + duration[i]

    def count(*qualnames: str) -> int:
        return sum(calls.get(q, 0) for q in qualnames)

    def total(*qualnames: str) -> float:
        return sum(inclusive.get(q, 0.0) for q in qualnames)

    kernel_names = tuple(f"_backend.{k}" for k in KERNELS)
    compiled = count(*(f"_kernels.{k}" for k in KERNELS))
    pure = count(*(f"_kernels_py.{k}" for k in KERNELS))
    compares = count("exact_arith.compare_radical")
    exact_s = total("exact_arith.compare_radical_exact")
    busy_s = total(*kernel_names)
    return {
        "cli.records": count("cli._batch_eval"),
        "cli.self_s": self_s["cli"],
        "flag_recurrence.calls": layer_calls["flag_recurrence"],
        "flag_recurrence.self_s": self_s["flag_recurrence"],
        "hypothesis_checker.checks": counters["hypothesis_checker.checks"],
        "hypothesis_checker.undecided": counters["hypothesis_checker.undecided"],
        "hypothesis_checker.self_s": self_s["hypothesis_checker"],
        "exact_arith.compares": compares,
        "exact_arith.exact_route": count("exact_arith.compare_radical_exact"),
        "exact_arith.enclosure_route": count("exact_arith.compare_radical_enclosure"),
        "exact_arith.exact_s": exact_s,
        "exact_arith.enclosure_s": total("exact_arith.compare_radical_enclosure"),
        "exact_arith.exact_share": exact_s / traced_s,
        "exact_arith.root_lcm_max": counters["exact_arith.root_lcm_max"],
        "exact_arith.decided_ratio": counters["exact_arith.decided"] / compares if compares else 1.0,
        "lemma_engine.inputs": count("lemma_engine.LemmaInput"),
        "lemma_engine.envelopes": count("lemma_engine.term_estimate_intervals"),
        "lemma_engine.self_s": self_s["lemma_engine"],
        "hilbert_profiles.self_s": self_s["hilbert_profiles"],
        "kernels.calls": count(*kernel_names),
        "kernels.trips": counters["kernels.trips"],
        "kernels.busy_s": busy_s,
        "kernels.busy_share": busy_s / traced_s,
        "kernels.compiled_share": compiled / (compiled + pure) if compiled + pure else 0.0,
        "oracle_suite.cases": counters["oracle_suite.cases"],
        "oracle_suite.self_s": self_s["oracle_suite"],
        "sampling.self_s": self_s["sampling"],
        "castelnuovo.calls": layer_calls["castelnuovo"],
        "castelnuovo.self_s": self_s["castelnuovo"],
        "trace.spans": n,
    }
