"""Command-line surface.

Single computations, newline-delimited JSON batch evaluation, and the
verification battery.  All numerics are exact; decimal fields are labeled
approximate and exist only for display.

Exit codes: 0 success, 1 validation error (including unmet hypotheses on
input), 2 identity or envelope violation, 3 undecided exact comparison.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .castelnuovo import castelnuovo_bound
from .errors import FlagboundError, IdentityViolationError, ValidationError
from .exact_arith import format_rational
from .fields import INT, INTS, OBJECT, read_fields
from .flag_recurrence import (
    corollary_alternative_bound,
    corollary_bound,
    flag_genus_interval,
    speciality_bound,
)
from .flags import FlagCondition
from .hypothesis_checker import (
    Verdict,
    check_corollary_degree,
    check_flag_separation,
    check_lemma_degree,
    corollary_degree_verdict,
)
from .lemma_engine import (
    LemmaInput,
    genus_from_lemma_input,
    quadratic_genus_bound,
    remainder_decomposition,
)
from .oracle_suite import verify_all


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; route through the validation path
    def error(self, message):
        raise ValidationError(message)


def _flatten(doc: dict, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            items.extend(_flatten(v, key + "."))
        elif isinstance(v, list):
            if v and all(isinstance(x, dict) for x in v):
                for i, x in enumerate(v):
                    items.extend(_flatten(x, f"{key}[{i}]."))
            else:
                items.append((key, "[" + ", ".join(str(x) for x in v) + "]"))
        else:
            items.append((key, v))
    return items


def _scalar_str(v: object) -> str:
    if isinstance(v, str):
        return v
    return json.dumps(v)


def _emit(doc: dict, fmt: str, table_lines: list[str] | None = None) -> None:
    if fmt == "json":
        print(json.dumps(doc, separators=(",", ":")))
    elif fmt == "csv":
        flat = _flatten(doc)
        import csv as _csv

        writer = _csv.writer(sys.stdout)
        writer.writerow([k for k, _ in flat])
        writer.writerow([_scalar_str(v) for _, v in flat])
    else:
        if table_lines is not None:
            for line in table_lines:
                print(line)
        else:
            flat = _flatten(doc)
            width = max((len(k) for k, _ in flat), default=0)
            for k, v in flat:
                print(f"{k.ljust(width)} = {_scalar_str(v)}")


def _report_table(report_dict: dict) -> list[str]:
    lines = [f"subject            = {report_dict['subject']}"]
    lines.append(f"verdict            = {report_dict['verdict']}")
    for check in report_dict["checks"]:
        lines.append(
            f"[{check['verdict']:>9}] {check['label']}: {check['lhs']} "
            f"{check['relation']} {check['threshold']} "
            f"(approx {check['thresholdApprox']})"
        )
    return lines


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ValidationError(f"{what}: {exc}") from exc


# The five ops that a verb and a batch record share.  Each takes the op's
# fields and returns the batch result; the verbs add their echoed inputs,
# table lines and exit codes on top.  Layer functions are called by their
# module-global names, so a rebinding of those names reaches every caller.


def _castelnuovo(N: int, deg: int) -> dict:
    return {"bound": castelnuovo_bound(N, deg)}


def _flag(r: int, degrees: list[int]) -> dict:
    return flag_genus_interval(FlagCondition(r, tuple(degrees))).to_dict()


def _lemma(data: dict) -> dict:
    inp = LemmaInput.from_dict(data)
    decomposition = remainder_decomposition(inp)
    genus = genus_from_lemma_input(inp)
    bound = quadratic_genus_bound(inp.d, inp.s, inp.pi, decomposition.total)
    if genus != bound:
        raise IdentityViolationError(f"genus {genus} != bound {format_rational(bound)}")
    return {
        "r": inp.r,
        "d": inp.d,
        "s": inp.s,
        "m": inp.m,
        "eps": inp.eps,
        "pi": inp.pi,
        "remainder": decomposition.to_dict(),
        "genus": genus,
        "bound": format_rational(bound),
        "identityHolds": True,  # a mismatch raised above
    }


def _corollary(r: int, d: int, s: int, pi: int, dichotomy: bool = False) -> dict:
    """The batch result; with dichotomy, also whether the alternative bound
    is strictly less, when the degree hypotheses pass."""
    bound = corollary_bound(r, d, s, pi)
    alternative = corollary_alternative_bound(r, d, s)
    verdict = corollary_degree_verdict(r, d, s)
    result = {
        "bound": format_rational(bound),
        "alternativeBound": format_rational(alternative),
        "degreeHypotheses": verdict.value,
    }
    if dichotomy and verdict is Verdict.PASS:
        result["alternativeStrictlyLess"] = alternative < bound
    return result


def _speciality(d: int, s: int, pi: int) -> dict:
    return {"bound": format_rational(speciality_bound(d, s, pi))}


#: op -> (its fields and their kinds, the function of them giving the result)
_OPS = {
    "castelnuovo": ({"N": INT, "deg": INT}, _castelnuovo),
    "flag": ({"r": INT, "degrees": INTS}, _flag),
    "lemma": ({"input": OBJECT}, _lemma),
    "corollary": ({"r": INT, "d": INT, "s": INT, "pi": INT}, _corollary),
    "speciality": ({"d": INT, "s": INT, "pi": INT}, _speciality),
}


def _status(result: dict) -> int:
    """Exit code of an answered op: 3 for an undecided degree verdict, else 0."""
    return 3 if result.get("degreeHypotheses") == Verdict.UNDECIDED.value else 0


def _echo(args, op: str) -> dict:
    return {name: getattr(args, name) for name in _OPS[op][0]}


def _cmd_castelnuovo(args) -> int:
    result = _castelnuovo(args.N, args.deg)
    _emit({**_echo(args, "castelnuovo"), **result}, args.format, [f"bound = {result['bound']}"])
    return 0


def _cmd_flag(args) -> int:
    if args.format != "table":
        _emit(_flag(args.r, args.degrees), args.format)
        return 0
    # The table renders every separation check, so the verdict is read from
    # that one report instead of being decided a second time.
    flag = FlagCondition(args.r, tuple(args.degrees))
    report = check_flag_separation(flag) if flag.length > 1 else None
    result = flag_genus_interval(flag, report and report.verdict).to_dict()
    lines = [
        f"flag                = {flag}",
        f"lo                  = {result['lo']}",
        f"hi                  = {result['hi']}",
        f"hypothesesVerified  = {json.dumps(result['hypothesesVerified'])}",
    ]
    if report is not None:
        lines.extend(_report_table(report.to_dict(args.digits)))
    _emit(result, args.format, lines)
    return 0


def _read_json_source(path: str) -> object:
    if path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {path}: {exc}") from exc
    return _load_json(raw, f"invalid JSON in {path}")


def _cmd_lemma(args) -> int:
    _emit(_lemma(_read_json_source(args.input)), args.format)
    return 0


def _cmd_corollary(args) -> int:
    # The bound is meaningful arithmetic for any valid (r, d, s, pi); the
    # degree hypotheses gate only the dichotomy comparison, so their status
    # is reported instead of refusing to compute.
    result = _corollary(args.r, args.d, args.s, args.pi, dichotomy=True)
    _emit({**_echo(args, "corollary"), **result}, args.format)
    return _status(result)


def _cmd_speciality(args) -> int:
    result = _speciality(args.d, args.s, args.pi)
    _emit({**_echo(args, "speciality"), **result}, args.format, [f"bound = {result['bound']}"])
    return 0


def _cmd_hypotheses(args) -> int:
    if args.subject == "flag":
        report = check_flag_separation(FlagCondition(args.r, tuple(args.degrees)))
    elif args.subject == "corollary":
        report = check_corollary_degree(args.r, args.d, args.s)
    else:
        report = check_lemma_degree(args.r, args.d, args.s)
    doc = report.to_dict(args.digits)
    _emit(doc, args.format, _report_table(doc))
    return 3 if report.verdict is Verdict.UNDECIDED else 0


def _parse_pair(text: str, label: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{label} must be two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValidationError(f"{label} must be two comma-separated integers, got {text!r}") from exc


def _cmd_verify(args) -> int:
    r_max, s_max = _parse_pair(args.grid, "--grid")
    n_max, deg_max = _parse_pair(args.castelnuovo_grid, "--castelnuovo-grid")
    report = verify_all(
        r_max=r_max,
        s_max=s_max,
        seeds=args.seeds,
        n_max=n_max,
        deg_max=deg_max,
        flag_count=args.flags,
        corollary_count=args.corollary_cases,
        radical_count=args.radicals,
        rng_seed=args.seed,
    )
    doc = report.to_dict()
    lines = []
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        lines.append(
            f"[{status}] {row.name:<28} cases={row.cases:<6} failures={row.failures}"
            + (f"  ({row.detail})" if row.detail else "")
        )
    lines.append("overall: " + ("PASS" if report.ok else "FAIL"))
    _emit(doc, args.format, lines)
    return 0 if report.ok else 2


def _batch_eval(record: object) -> dict:
    """The result of one parsed batch record; raises when it is refused."""
    if type(record) is not dict:
        raise ValidationError(f"batch record must be an object, got {type(record).__name__}")
    op = record.get("op")
    if type(op) is not str or op not in _OPS:
        raise ValidationError(f"unknown batch op {op!r}")
    fields, evaluate = _OPS[op]
    return evaluate(*read_fields(record, fields, f"batch op {op!r}"))


def _cmd_batch(args) -> int:
    if args.input == "-":
        stream = sys.stdin
        close = False
    else:
        try:
            stream = open(args.input, "r", encoding="utf-8")
        except OSError as exc:
            raise ValidationError(f"cannot read {args.input}: {exc}") from exc
        close = True
    codes = set()
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                result = _batch_eval(_load_json(line, "invalid JSON"))
                text = json.dumps({"ok": True, "result": result}, separators=(",", ":"))
                codes.add(_status(result))
            except Exception as exc:  # one record never ends the stream
                codes.add(2 if isinstance(exc, IdentityViolationError) else 1)
                error = str(exc)
                if not isinstance(exc, FlagboundError):
                    error = f"{type(exc).__name__}: {error}"
                text = json.dumps(
                    {"ok": False, "error": error, "input": line}, separators=(",", ":")
                )
            print(text)
    finally:
        if close:
            stream.close()
    # the gravest kind seen: identity violation, then undecided, then failure
    return next((code for code in (2, 3, 1) if code in codes), 0)


def _options(digits: bool, nested: bool = False) -> argparse.ArgumentParser:
    # nested variants are for the subjects of `hypotheses`, whose defaults
    # would otherwise clobber values already parsed by the outer command
    default = (lambda v: argparse.SUPPRESS) if nested else (lambda v: v)
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument(
        "--format", choices=("table", "json", "csv"), default=default("table"),
        help="output format (default: table)",
    )
    if digits:
        options.add_argument(
            "--digits", type=int, default=default(20),
            help="significant digits for approximate decimal renderings (default: 20)",
        )
    return options


def _add_op(sub, op: str, func, options: argparse.ArgumentParser, help: str) -> None:
    """A verb whose positional arguments are the op's integer fields."""
    p = sub.add_parser(op, parents=[options], help=help)
    for name, kind in _OPS[op][0].items():
        if kind == INTS:
            p.add_argument(name, type=int, nargs="+", metavar="S")
        else:
            p.add_argument(name, type=int)
    p.set_defaults(func=func)


@functools.cache
def _build_parser() -> _Parser:
    # Built on the first main() call and kept: parse_args returns a fresh
    # Namespace each time, and the _cmd_* functions look up the layer
    # functions when called, so nothing of one call reaches the next.
    plain = _options(digits=False)
    rendered = _options(digits=True)
    rendered_nested = _options(digits=True, nested=True)

    parser = _Parser(prog="flagbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    _add_op(sub, "castelnuovo", _cmd_castelnuovo, plain, "maximal genus in P^N")
    _add_op(sub, "flag", _cmd_flag, rendered, "genus interval under a flag condition")

    p = sub.add_parser("lemma", parents=[plain], help="remainder decomposition and genus")
    p.add_argument("--input", required=True, help="JSON file with the lemma input ('-' for stdin)")
    p.set_defaults(func=_cmd_lemma)

    _add_op(sub, "corollary", _cmd_corollary, plain, "closed quadratic bound and dichotomy")
    _add_op(sub, "speciality", _cmd_speciality, plain, "speciality index bound")

    p = sub.add_parser("hypotheses", parents=[rendered], help="evaluate hypothesis inequalities")
    hyp = p.add_subparsers(dest="subject", required=True)
    ph = hyp.add_parser("flag", parents=[rendered_nested])
    ph.add_argument("r", type=int)
    ph.add_argument("degrees", type=int, nargs="+", metavar="S")
    ph = hyp.add_parser("corollary", parents=[rendered_nested])
    ph.add_argument("r", type=int)
    ph.add_argument("d", type=int)
    ph.add_argument("s", type=int)
    ph = hyp.add_parser("lemma", parents=[rendered_nested])
    ph.add_argument("r", type=int)
    ph.add_argument("d", type=int)
    ph.add_argument("s", type=int)
    p.set_defaults(func=_cmd_hypotheses)

    p = sub.add_parser("verify", parents=[plain], help="run the identity battery")
    p.add_argument("--grid", default="10,200", help="rMax,sMax for identity scans (default 10,200)")
    p.add_argument(
        "--castelnuovo-grid", default="9,300", help="nMax,degMax for the bound scan (default 9,300)"
    )
    p.add_argument("--seeds", type=int, default=1000, help="randomized lemma inputs (default 1000)")
    p.add_argument("--flags", type=int, default=200, help="random flags for the width law")
    p.add_argument("--corollary-cases", type=int, default=50)
    p.add_argument("--radicals", type=int, default=500)
    p.add_argument("--seed", type=int, default=20260814, help="RNG seed")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("batch", help="evaluate newline-delimited JSON records")
    p.add_argument("--input", default="-", help="NDJSON file (default stdin)")
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except IdentityViolationError as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 2
    except FlagboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
