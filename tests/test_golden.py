"""Golden outputs: SHA-256 of the exit code and stdout of fixed CLI calls.

The digests pin every byte the verbs, `batch` and `verify` print, so a
refactor that is meant to leave the output alone is checked against the
output itself, not against a re-statement of it.  A digest is taken over
f"{code}\\n{stdout}".  To re-pin after an intended output change, print
`_digest(*CASES[key])` for the changed keys and copy the values below.
"""

import hashlib
import io
import json
import sys

import pytest

from flagbound import cli

VERIFY = [
    "verify", "--format", "json",
    "--grid", "4,60", "--castelnuovo-grid", "3,80",
    "--seeds", "50", "--flags", "20", "--corollary-cases", "5", "--radicals", "30",
]

_RECORDS = [
    {"op": "castelnuovo", "N": 4, "deg": 12},
    {"op": "castelnuovo", "N": 1, "deg": 12},
    {"op": "flag", "r": 5, "degrees": [1000, 10]},
    {"op": "flag", "r": 3, "degrees": [4000, 2]},
    {"op": "flag", "r": 4, "degrees": [9]},
    {
        "op": "lemma",
        "input": {
            "r": 5, "d": 50, "s": 7,
            "pointProfile": {"stable": 7, "values": [1, 4, 7]},
            "deltas": [0, 1], "tail": [],
        },
    },
    {
        "op": "lemma",
        "input": {
            "r": 3, "d": 60, "s": 5,
            "pointProfile": {"stable": 5, "values": [1, 3, 5]},
            "tail": [2, 1], "allowSmallDegree": True,
        },
    },
    {"op": "corollary", "r": 4, "d": 10**6, "s": 3, "pi": 1},
    {"op": "corollary", "r": 5, "d": 1000, "s": 10, "pi": 9},
    {"op": "corollary", "r": 12, "d": 10**20, "s": 12, "pi": 3},
    {"op": "corollary", "r": 12, "d": 10**30, "s": 12, "pi": 3},
    {"op": "speciality", "d": 100, "s": 10, "pi": 5},
]
BATCH = "".join(json.dumps(rec) + "\n" for rec in _RECORDS) + (
    '{"op": "flag", "r": 5,\n'
    '{"op": "nope"}\n'
    '{"op": "castelnuovo", "N": true, "deg": 5}\n'
    "[1, 2]\n"
)

#: case -> (argv, stdin)
CASES = {
    **{f"verify-seed-{seed}": (VERIFY + ["--seed", str(seed)], None) for seed in range(1, 6)},
    "batch": (["batch"], BATCH),
    "hypotheses-flag": (["hypotheses", "flag", "5", "1000000", "1000", "10", "--digits", "30"], None),
    "hypotheses-corollary": (["hypotheses", "corollary", "12", "100000000000000000000000000", "12", "--digits", "30"], None),
    "hypotheses-lemma": (["hypotheses", "lemma", "5", "50", "7", "--digits", "30"], None),
    "flag-table": (["flag", "--format", "table", "--digits", "30", "6", "10000000", "20000", "30", "3"], None),
    # Both radical routes: r = 13 powers exactly just under the digit
    # budget, r = 16 is past it and takes the enclosure route.
    "hypotheses-corollary-exact-edge": (["hypotheses", "--digits", "30", "corollary", "13", str(10**31), "13"], None),
    "hypotheses-corollary-enclosure": (["hypotheses", "--digits", "30", "corollary", "16", str(10**49), "16"], None),
    "hypotheses-flag-r10": (["hypotheses", "--digits", "30", "flag", "10", str(10**80), str(10**17), "20"], None),
    # A passing flag whose one radical check powers to about 0.9 M digits,
    # in decimal arithmetic; the table's verdict comes from its report.
    "flag-table-r13": (["flag", "--format", "table", "--digits", "30", "13", str(10**31), "13"], None),
}

DIGESTS = {
    "batch": "eb5a460a7bf99800b223bec32657de7d66c445a036f620e884a09cafe5f852ff",
    "flag-table": "9576cb2557d105695f1c4a7b5d14eae6b9d29c65d7627421d0b2bc83e5c270c9",
    "flag-table-r13": "b4dce34ee0b44e6ecbb29ed1816c680277941e3d9025db193a941bb140c81dff",
    "hypotheses-corollary-enclosure": "cd3814681562513af3c56c2ce43a8022b8e29c44098838efb5dea258ae5addf8",
    "hypotheses-corollary-exact-edge": "88c0e947c51cbdd5663da991c9fd7f2cb2f980943941ef509e99a8ca68c83eab",
    "hypotheses-corollary": "75b29d9d7b874038b5fae8f0dbb918a62331bd99c75ed24bc59c1611ae889298",
    "hypotheses-flag-r10": "54dd1772eb7b599528e30fad147f60dc1078cac6b51cad6edc35ff5fba224e82",
    "hypotheses-flag": "bfbf336a5c67310724ee45f24fe7c3b545afa562005a9194e56fd185416dd951",
    "hypotheses-lemma": "50179073f86483f64c7714822aff078393ff4ab8ac34a728454b3d649c5f274a",
    "verify-seed-1": "9c16bea612fa0cf00a02680d3404ab9fb6edb7b6c9ec9a2758c144d5e6c91ff4",
    "verify-seed-2": "e8e5c22a5001de1b8933a2c71267e272f0fd6bf71c985e83a40747759d0e92a9",
    "verify-seed-3": "c3b3fbb1c5ad7a39bebd87a74a8328d0dca8a8a3727122783725ed7648031e4a",
    "verify-seed-4": "106470922935c676c74524640961d89266b96c1aa1ce9bd1a1b5b09f231b2a49",
    "verify-seed-5": "b33dfecc78d944ad91398d183fd255df915b88609ffe57d59da45d756b6c1504",
}


def _digest(argv, stdin):
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin or "")
    sys.stdout = out
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdin, sys.stdout = saved
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(CASES))
def test_output_is_pinned(key):
    assert _digest(*CASES[key]) == DIGESTS[key]
