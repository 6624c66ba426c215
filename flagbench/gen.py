"""Seeded input generators for the benchmark workloads.

Deliberately independent of flagbound (flagbound.sampling included): a change
to the library's own samplers must not move the benchmark's inputs.  Only the
standard library is used, so the workload process imports nothing extra.

Every generator is a pure function of (seed, index): the same seed always
yields the same NDJSON records, and a claim can be re-checked on a held-out
seed by passing another one.
"""

from __future__ import annotations

import functools
import json
import math
import random
from decimal import ROUND_FLOOR, Decimal, localcontext

#: batch-light: records per `flagbound batch` call.
LIGHT_CHUNK = 1000
#: batch-radical: ambient dimensions of the heavy records.  With the default
#: digit budget, exact powering runs up to r = 14 (near cases) and the
#: enclosure route from r = 15; far cases at r = 14 already exceed the budget.
RADICAL_R = tuple(range(9, 17))
#: Reduced range used by the harness self-test (skips the ~1 s powerings).
RADICAL_R_TINY = (9, 10, 11, 12, 15, 16)

#: verify-grid parameters besides the seed (flagbound verify flags).  The
#: scans run to larger degrees than the CLI defaults (s <= 400 instead of
#: 200, deg <= 550 instead of 300) in the lowest dimensions, where the
#: summation loops are longest, and the randomized counts are cut to a
#: hundredth.  The kernels then carry most of a call, and a call stays under
#: a tenth of a second: a run makes some 250 of them, enough for a 99th
#: percentile, and the reference probes between calls follow the machine.
VERIFY_GRID = {"grid": (4, 400), "castelnuovo_grid": (3, 550)}
VERIFY_GRID_TINY = {"grid": (4, 100), "castelnuovo_grid": (3, 150)}
VERIFY_COUNTS = {"seeds": 10, "flags": 3, "corollary_cases": 1, "radicals": 5}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds hash through sha512, so streams are stable across processes
    return random.Random(f"{workload}:{seed}:{index}")


@functools.lru_cache(maxsize=4096)
def castelnuovo_direct(n: int, deg: int) -> int:
    """Castelnuovo's bound by direct deficiency summation (no closed form)."""
    step = n - 1
    return sum(deg - (i * step + 1) for i in range(1, (deg - 2) // step + 1))


def radical_threshold(r: int, s: int) -> Decimal:
    """2(s+1)/(r-2) * prod_{k=1}^{r-2} ((r-1)!(s+1))^(1/k), to 100 digits.

    Only used to place degrees near the threshold; verdicts are judged by the
    interval oracle in check.py, never by this value.
    """
    with localcontext() as ctx:
        ctx.prec = 100
        base = Decimal(math.factorial(r - 1) * (s + 1))
        value = Decimal(2 * (s + 1)) / Decimal(r - 2)
        for k in range(1, r - 1):
            value *= base ** (Decimal(1) / Decimal(k))
        return +value


def _floor(value: Decimal) -> int:
    return int(value.to_integral_value(rounding=ROUND_FLOOR))


def _approx_radical(m: int, s: int) -> float:
    """Float estimate of 2(s+1)/(m-1) * prod_{k=1}^{m-1} (m!(s+1))^(1/k).

    m = r-1 gives the corollary's radical threshold, m = r-i the i-th flag
    separation one (with s = s_{i+1}); good enough to place degrees around it.
    """
    log_b = math.log(math.factorial(m) * (s + 1))
    return math.exp(math.log(2 * (s + 1) / (m - 1)) + sum(log_b / k for k in range(1, m)))


def _separation_floor(r: int, i: int, length: int, s_next: int) -> float:
    # float estimate of the largest of the four separation thresholds
    denom = r - i - 1
    k = length - i + 1
    cubic = 8 * (length - 1) * (k * k + 2 * k + 9) * (s_next + 1) ** 3 / denom
    quadratic = (s_next + 1) ** 2 / denom + (2 * r - 2) * (s_next + 1)
    quartic = 2 * s_next**4 / denom
    return max(cubic, quadratic, _approx_radical(r - i, s_next), quartic)


def _light_castelnuovo(rng: random.Random) -> dict:
    n = rng.randint(3, 9)
    return {"op": "castelnuovo", "N": n, "deg": rng.randint(n, 1500)}


def _light_speciality(rng: random.Random) -> dict:
    return {
        "op": "speciality",
        "d": rng.randint(1, 5000),
        "s": rng.randint(2, 60),
        "pi": rng.randint(0, 600),
    }


def _light_corollary(rng: random.Random) -> dict:
    r = rng.randint(3, 8)
    s = rng.randint(r - 1, r + 8)
    floor = max(_approx_radical(r - 1, s), 6 * (s + 1) ** 3 / (r - 2))
    # half below, half above the degree hypotheses
    d = max(1, int(floor * 2.0 ** rng.uniform(-3, 3)))
    pi = rng.randint(0, castelnuovo_direct(r - 1, s))
    return {"op": "corollary", "r": r, "d": d, "s": s, "pi": pi}


def _light_flag(rng: random.Random) -> dict:
    r = rng.randint(3, 8)
    length = rng.randint(1, min(r - 1, 4))
    degrees = [0] * length
    degrees[-1] = rng.randint(r - length + 1, r - length + 8)
    for i in range(length - 1, 0, -1):
        s_next = degrees[i]
        floor = max(s_next, r - i + 1)
        if s_next <= 1000 and rng.random() < 0.3:
            # clear every separation threshold, so some flags verify
            degrees[i - 1] = max(floor, int(_separation_floor(r, i, length, s_next) * rng.uniform(1.01, 4)))
        else:
            degrees[i - 1] = floor + int(10 ** rng.uniform(0, 4))
    return {"op": "flag", "r": r, "degrees": degrees}


def _light_lemma(rng: random.Random) -> dict:
    r = rng.randint(3, 9)
    s = rng.randint(r - 1, r + 12)
    values = [1]
    while values[-1] < s:
        values.append(min(s, len(values) * (r - 2) + 1))
    for j in range(len(values) - 2, 0, -1):
        if rng.random() < 0.4:
            values[j] = rng.randint(values[j], values[j + 1])
    deficiency = sum(s - v for v in values[1:])
    deltas: list[int] = []
    if rng.random() < 0.6:
        room = deficiency
        for _ in range(rng.randint(0, s - r + 1)):
            v = rng.randint(0, min(3, room))
            room -= v
            deltas.append(v)
    pi = deficiency - sum(deltas)
    if r <= 4:
        d_min = s * s + s * (r - 4) ** 2
    else:
        d_min = s * s - s + 1
    d = d_min + rng.randint(0, 3 * s)
    eps = (d - 1) % s
    w = (s - 1) // (r - 2)
    tail: list[int] = []
    if w > 0 and eps + pi > 0 and rng.random() < 0.4:
        head = rng.randint(0, eps + pi)
        for _ in range(rng.randint(1, w)):
            tail.append(head)
            head = rng.randint(0, head)
    return {
        "op": "lemma",
        "input": {
            "r": r,
            "d": d,
            "s": s,
            "pointProfile": {"stable": s, "values": values},
            "deltas": deltas,
            "tail": tail,
        },
    }


_LIGHT_OPS = (_light_castelnuovo, _light_flag, _light_lemma, _light_corollary, _light_speciality)


def light_chunk(seed: int, index: int, size: int = LIGHT_CHUNK) -> list[dict]:
    """batch-light: `size` cheap records, all five ops mixed.

    r <= 9 everywhere and r <= 8 where radicals appear, so no radical has a
    root order above lcm(1..6) = 60 and exact powering stays small.
    """
    rng = _rng("batch-light", seed, index)
    return [rng.choice(_LIGHT_OPS)(rng) for _ in range(size)]


def radical_round(seed: int, index: int, rs: tuple[int, ...] = RADICAL_R) -> list[dict]:
    """batch-radical: one shuffled round with every stratum exactly once.

    Strata are r x {corollary, flag} x {near, far}: near degrees sit a few
    hundred above the radical threshold, far ones 16..999 times above it.
    Flags are (r; s1, s2), whose i=1 radical check is the corollary's with
    s = s2.  Fixed strata keep the round's cost steady from seed to seed.
    """
    rng = _rng("batch-radical", seed, index)
    records = []
    for r in rs:
        for op in ("corollary", "flag"):
            for place in ("near", "far"):
                s = rng.randint(r - 1, r + 1)
                threshold = radical_threshold(r, s)
                if place == "near":
                    d = _floor(threshold) + 1 + rng.randint(0, 999)
                else:
                    d = _floor(threshold * rng.randint(16, 999))
                if op == "corollary":
                    pi = rng.randint(0, castelnuovo_direct(r - 1, s))
                    records.append({"op": op, "r": r, "d": d, "s": s, "pi": pi})
                else:
                    records.append({"op": op, "r": r, "degrees": [d, s]})
    rng.shuffle(records)
    return records


def verify_params(seed: int, tiny: bool = False) -> dict:
    """verify-grid: the enlarged battery, with the workload seed as RNG seed."""
    grid = VERIFY_GRID_TINY if tiny else VERIFY_GRID
    return {**{k: list(v) for k, v in grid.items()}, **VERIFY_COUNTS, "seed": seed}


def verify_argv(params: dict) -> list[str]:
    """The `flagbound verify` command line for a parameter set."""
    return [
        "verify",
        "--format", "json",
        "--grid", "{},{}".format(*params["grid"]),
        "--castelnuovo-grid", "{},{}".format(*params["castelnuovo_grid"]),
        "--seeds", str(params["seeds"]),
        "--flags", str(params["flags"]),
        "--corollary-cases", str(params["corollary_cases"]),
        "--radicals", str(params["radicals"]),
        "--seed", str(params["seed"]),
    ]


def to_ndjson(records: list[dict]) -> str:
    return "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
