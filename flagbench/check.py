"""Independent output checker.

Every expected value is recomputed here from the paper's formulas, without
calling flagbound:

* castelnuovo bounds by direct deficiency summation;
* speciality, corollary and alternative bounds with Fraction;
* flag intervals from a midpoint recursion plus the width law
  width(r; s1, s2, ...) = (s1/s2) * width(r-1; s2, ...) + 2 s2^3/(r-2);
* lemma genus by direct summation of d - h1(i), with identityHolds required;
* radical verdicts against an mpmath interval oracle whose precision grows
  until the enclosure excludes the degree;
* verify rows against the case counts the grid implies, and the envelope
  scan's tightest ratio recomputed from the term estimates.

Each check returns a list of mismatch strings; an empty list means correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from mpmath import iv

from gen import castelnuovo_direct

_MAX_ORACLE_DIGITS = 4000


def fmt(value: Fraction | int) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def quadratic_bound(d: int, s: int, pi: int, remainder: Fraction) -> Fraction:
    """d^2/(2s) + (d/(2s))(2 pi - 2 - s) + R."""
    return Fraction(d * d, 2 * s) + Fraction(d, 2 * s) * (2 * pi - 2 - s) + remainder


class RadicalOracle:
    """Decides d > c * prod base^(1/k) with mpmath interval arithmetic.

    Enclosures are memoized per (threshold, precision), so repeated
    thresholds in a stream cost one evaluation.
    """

    def __init__(self) -> None:
        self._boxes: dict = {}

    def _box(self, scale: Fraction, base: int, orders: tuple[int, ...]):
        # call with iv.dps set; the key includes it
        key = (scale, base, orders, iv.dps)
        box = self._boxes.get(key)
        if box is None:
            box = iv.mpf(scale.numerator) / iv.mpf(scale.denominator)
            for k in orders:
                box *= iv.mpf(base) ** (iv.mpf(1) / iv.mpf(k))
            self._boxes[key] = box
        return box

    def exceeds(self, d: int, scale: Fraction, base: int, orders: tuple[int, ...]) -> bool:
        # d must convert to an interval exactly, so the precision covers its digits
        digits = len(str(d)) + 30
        saved = iv.dps
        try:
            while digits <= _MAX_ORACLE_DIGITS:
                iv.dps = digits
                box = self._box(scale, base, orders)
                if d > box.b:
                    return True
                if d < box.a:
                    return False
                digits *= 4
        finally:
            iv.dps = saved
        # Only an exact tie survives: settle it with integers.
        lcm = math.lcm(*orders)
        left = (d * scale.denominator) ** lcm
        right = scale.numerator**lcm * base ** sum(lcm // k for k in orders)
        return left > right


def _corollary_pass(oracle: RadicalOracle, r: int, d: int, s: int) -> bool:
    radical = oracle.exceeds(
        d, Fraction(2 * (s + 1), r - 2), math.factorial(r - 1) * (s + 1), tuple(range(1, r - 1))
    )
    return radical and d > Fraction(6 * (s + 1) ** 3, r - 2)


def _flag_separated(oracle: RadicalOracle, r: int, degrees: list[int]) -> bool:
    length = len(degrees)
    for i in range(1, length):
        s_i, s_next = degrees[i - 1], degrees[i]
        denom = r - i - 1
        k = length - i + 1
        if s_i < Fraction(8 * (length - 1) * (k * k + 2 * k + 9) * (s_next + 1) ** 3, denom):
            return False
        if s_i <= Fraction((s_next + 1) ** 2, denom) + (2 * r - 2) * (s_next + 1):
            return False
        if s_i <= Fraction(2 * s_next**4, denom):
            return False
        if not oracle.exceeds(
            s_i,
            Fraction(2 * (s_next + 1), denom),
            math.factorial(r - i) * (s_next + 1),
            tuple(range(1, r - i)),
        ):
            return False
    return True


def _flag_mid_width(r: int, degrees: list[int]) -> tuple[Fraction, Fraction]:
    if len(degrees) == 1:
        return Fraction(castelnuovo_direct(r, degrees[0])), Fraction(0)
    mid, width = _flag_mid_width(r - 1, degrees[1:])
    s1, s2 = degrees[0], degrees[1]
    offset = Fraction(s1 * s1, 2 * s2) + Fraction(s1, 2 * s2) * (-2 - s2)
    return Fraction(s1, s2) * mid + offset, Fraction(s1, s2) * width + Fraction(2 * s2**3, r - 2)


def _lemma_expected(inp: dict) -> dict:
    r, d, s = inp["r"], inp["d"], inp["s"]
    values = inp["pointProfile"]["values"]
    deltas = inp.get("deltas", [])
    tail = inp.get("tail", [])
    m, eps = divmod(d - 1, s)
    pi = sum(s - v for v in values[1:]) - sum(deltas)
    genus = 0
    h1 = values[0]
    for i in range(1, m + 1):
        h1 += values[i] if i < len(values) else s
        h1 += deltas[i - 1] if i <= len(deltas) else 0
        genus += d - h1
    genus += sum(tail)
    epsilon_term = Fraction((1 + eps) * (s + 1 - eps - 2 * pi), 2 * s)
    point_sum = sum((i - 1) * (s - v) for i, v in enumerate(values) if i >= 1)
    delta_sum = sum((i - 1) * v for i, v in enumerate(deltas, start=1))
    total = epsilon_term - point_sum + delta_sum + sum(tail)
    return {
        "r": r, "d": d, "s": s, "m": m, "eps": eps, "pi": pi,
        "remainder": {
            "epsilonTerm": fmt(epsilon_term),
            "pointSumTerm": fmt(point_sum),
            "deltaSumTerm": fmt(delta_sum),
            "tailTerm": fmt(sum(tail)),
            "total": fmt(total),
        },
        "genus": genus,
        "bound": fmt(quadratic_bound(d, s, pi, total)),
        "identityHolds": True,
    }


def expected_result(record: dict, oracle: RadicalOracle) -> dict:
    """The result object a correct `batch` evaluation returns for `record`."""
    op = record["op"]
    if op == "castelnuovo":
        return {"bound": castelnuovo_direct(record["N"], record["deg"])}
    if op == "speciality":
        d, s, pi = record["d"], record["s"], record["pi"]
        return {"bound": fmt(Fraction(d + 2 * pi - 2 - s, s))}
    if op == "corollary":
        r, d, s, pi = record["r"], record["d"], record["s"], record["pi"]
        up = castelnuovo_direct(r - 1, s + 1)
        return {
            "bound": fmt(quadratic_bound(d, s, pi, Fraction(s**3, r - 2))),
            "alternativeBound": fmt(quadratic_bound(d, s + 1, up, Fraction((s + 1) ** 3, r - 2))),
            "degreeHypotheses": "pass" if _corollary_pass(oracle, r, d, s) else "fail",
        }
    if op == "flag":
        r, degrees = record["r"], record["degrees"]
        mid, width = _flag_mid_width(r, degrees)
        verified = len(degrees) == 1 or _flag_separated(oracle, r, degrees)
        return {"lo": fmt(mid - width / 2), "hi": fmt(mid + width / 2), "hypothesesVerified": verified}
    if op == "lemma":
        return _lemma_expected(record["input"])
    raise ValueError(f"unknown op {op!r}")


def check_batch(input_lines: list[str], output_lines: list[str], oracle: RadicalOracle) -> list[str]:
    """Mismatches between a batch call's outputs and the expected results.

    One entry per failed record: ok:false, an undecided verdict, a missing
    output, or any field that differs from the independent recomputation.
    """
    problems = [f"record {i}: no output" for i in range(len(output_lines), len(input_lines))]
    if len(output_lines) > len(input_lines):
        problems.append(f"{len(output_lines) - len(input_lines)} output lines too many")
    for i, (raw_in, raw_out) in enumerate(zip(input_lines, output_lines)):
        record = json.loads(raw_in)
        try:
            out = json.loads(raw_out)
        except json.JSONDecodeError:
            problems.append(f"record {i}: output is not JSON: {raw_out[:200]!r}")
            continue
        if out.get("ok") is not True:
            problems.append(f"record {i}: ok is not true: {raw_out[:200]}")
            continue
        expected = expected_result(record, oracle)
        if out.get("result") != expected:
            problems.append(
                f"record {i} ({record['op']}): got {json.dumps(out.get('result'))[:300]}, "
                f"expected {json.dumps(expected)[:300]}"
            )
    return problems


def expected_verify_cases(params: dict) -> dict[str, int | None]:
    """Case count of each verify row implied by the grid; None when the count
    depends on the battery's own random draws."""
    r_max, s_max = params["grid"]
    n_max, deg_max = params["castelnuovo_grid"]
    identity = sum(s_max - r + 2 for r in range(3, r_max + 1))
    return {
        "castelnuovo-equivalence": sum(deg_max - n + 1 for n in range(2, n_max + 1)),
        "point-deficiency-identity": identity,
        "weighted-deficiency-identity": identity,
        "remainder-envelope": sum(s_max - r + 2 for r in range(4, r_max + 1)),
        "lemma-central-identity": params["seeds"],
        "remainder-in-envelope": params["seeds"],
        "acm-specialization": None,
        "flag-width-law": params["flags"],
        "corollary-dichotomy": params["corollary_cases"],
        "radical-route-agreement": params["radicals"] + 2,
    }


def tightest_envelope(r_max: int, s_max: int) -> tuple[Fraction, int, int]:
    """Largest |aggregate R| / (s^3/(r-2)) over the envelope grid, first witness."""
    best, witness = Fraction(-1), (0, 0)
    for r in range(4, r_max + 1):
        rm2 = r - 2
        for s in range(r - 1, s_max + 1):
            lo = Fraction(-s * s, 2 * rm2) - Fraction(s**3, 3 * rm2 * rm2)
            hi = Fraction(s + 1, 2) + Fraction(s * s * (s - 1), 2 * rm2) + Fraction(s**3, 2 * rm2 * rm2)
            ratio = max(hi, -lo) / Fraction(s**3, rm2)
            if ratio > best:
                best, witness = ratio, (r, s)
    return best, witness[0], witness[1]


def check_verify(params: dict, exit_code: int, output: str) -> tuple[int, list[str]]:
    """(rows attempted, mismatches) for one `flagbound verify --format json` call."""
    expected = expected_verify_cases(params)
    try:
        doc = json.loads(output)
    except json.JSONDecodeError:
        return len(expected), [f"verify output is not JSON: {output[:200]!r}"]
    problems = []
    if exit_code != 0 or doc.get("passed") is not True:
        problems.append(f"verify verdict: exit {exit_code}, passed {doc.get('passed')}")
    rows = {row["name"]: row for row in doc.get("rows", [])}
    for name, cases in expected.items():
        row = rows.get(name)
        if row is None:
            problems.append(f"row {name}: missing")
            continue
        if row["failures"] != 0 or row["passed"] is not True:
            problems.append(f"row {name}: {row['failures']} failures")
        if cases is None:
            # random draws decide it; a small battery can draw none
            if not 0 <= row["cases"] <= params["seeds"]:
                problems.append(f"row {name}: {row['cases']} cases outside 0..{params['seeds']}")
        elif row["cases"] != cases:
            problems.append(f"row {name}: {row['cases']} cases, grid implies {cases}")
    extra = sorted(set(rows) - set(expected))
    if extra:
        problems.append(f"unexpected rows {extra}")
    envelope = rows.get("remainder-envelope")
    if envelope is not None:
        ratio, r, s = tightest_envelope(*params["grid"])
        want = f"tightest ratio {fmt(ratio)} at (r={r}, s={s})"
        if envelope["detail"] != want:
            problems.append(f"row remainder-envelope: detail {envelope['detail']!r}, expected {want!r}")
    return len(expected), problems
