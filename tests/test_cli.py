import io
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagbound import cli
from flagbound.cli import main
from flagbound.exact_arith import Comparison

WORKED_LEMMA = {
    "r": 5,
    "d": 50,
    "s": 7,
    "pointProfile": {"stable": 7, "values": [1, 4, 7]},
    "deltas": [0, 1],
    "tail": [],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCastelnuovo:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "castelnuovo", "5", "1000")
        assert code == 0
        assert out == "bound = 124251\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "castelnuovo", "--format", "json", "3", "6")
        assert code == 0
        assert json.loads(out) == {"N": 3, "deg": 6, "bound": 4}

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "castelnuovo", "--format", "csv", "3", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",") == ["N", "deg", "bound"]
        assert lines[1].split(",") == ["3", "6", "4"]

    def test_validation_exit(self, capsys):
        code, _, err = run(capsys, "castelnuovo", "1", "6")
        assert code == 1
        assert "error:" in err

    def test_bad_argv_exit(self, capsys):
        code, _, err = run(capsys, "castelnuovo", "three", "6")
        assert code == 1
        assert "error:" in err


class TestFlag:
    def test_exact_json(self, capsys):
        code, out, _ = run(capsys, "flag", "--format", "json", "5", "1000", "10")
        assert code == 0
        assert out == '{"lo":"149900/3","hi":"151900/3","hypothesesVerified":false}\n'

    def test_json_values_parse_exactly(self, capsys):
        _, out, _ = run(capsys, "flag", "--format", "json", "5", "1000", "10")
        doc = json.loads(out)
        assert Fraction(doc["lo"]) == Fraction(149900, 3)
        assert Fraction(doc["hi"]) == Fraction(151900, 3)

    def test_single_degree_table(self, capsys):
        code, out, _ = run(capsys, "flag", "5", "1000")
        assert code == 0
        assert "lo                  = 124251" in out
        assert "hypothesesVerified  = true" in out

    def test_table_includes_hypothesis_rows(self, capsys):
        _, out, _ = run(capsys, "flag", "5", "1000", "10")
        assert "flag                = (5; 1000, 10)" in out
        assert "i=1 quartic" in out
        assert "approx" in out

    @pytest.mark.parametrize(
        "comparison,verified", [(None, "true"), (Comparison.UNDECIDED, "false")]
    )
    def test_table_compares_each_radical_once(self, capsys, monkeypatch, comparison, verified):
        # the verdict comes from the report the table renders
        from flagbound import hypothesis_checker

        calls = []
        compare = hypothesis_checker.compare_radical

        def counted(lhs, rhs):
            calls.append((lhs, rhs))
            return comparison or compare(lhs, rhs)

        monkeypatch.setattr(hypothesis_checker, "compare_radical", counted)
        _, out, _ = run(capsys, "flag", "5", "1000000", "10")
        assert len(calls) == 1
        assert f"hypothesesVerified  = {verified}" in out


class TestLemma:
    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(WORKED_LEMMA))
        code, out, _ = run(capsys, "lemma", "--format", "json", "--input", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 7 and doc["eps"] == 0 and doc["pi"] == 2
        assert doc["genus"] == 162
        assert doc["bound"] == "162"
        assert doc["identityHolds"] is True
        assert doc["remainder"]["total"] == "9/7"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(WORKED_LEMMA)))
        code, out, _ = run(capsys, "lemma", "--format", "json", "--input", "-")
        assert code == 0
        assert json.loads(out)["genus"] == 162

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "lemma", "--input", "/nonexistent/x.json")
        assert code == 1
        assert "cannot read" in err

    def test_invalid_payload(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"r": 5, "d": 50}))
        code, _, err = run(capsys, "lemma", "--input", str(path))
        assert code == 1
        assert "malformed lemma input" in err

    def test_table_format(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(WORKED_LEMMA))
        code, out, _ = run(capsys, "lemma", "--input", str(path))
        assert code == 0
        rows = dict(
            (k.strip(), v.strip())
            for k, v in (line.split(" = ", 1) for line in out.strip().splitlines())
        )
        assert rows["remainder.total"] == "9/7"
        assert rows["genus"] == "162"
        assert rows["identityHolds"] == "true"


class TestCorollary:
    def test_hypotheses_pass(self, capsys):
        code, out, _ = run(
            capsys, "corollary", "--format", "json", "4", "1000000", "3", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == "999997000081/6"
        assert doc["alternativeBound"] == "124999500032"
        assert doc["degreeHypotheses"] == "pass"
        assert doc["alternativeStrictlyLess"] is True

    def test_hypotheses_fail_still_reports(self, capsys):
        code, out, _ = run(capsys, "corollary", "--format", "json", "5", "1000", "10", "9")
        assert code == 0
        doc = json.loads(out)
        assert doc["degreeHypotheses"] == "fail"
        assert "alternativeStrictlyLess" not in doc
        assert Fraction(doc["bound"]) == Fraction(151900, 3)
        assert Fraction(doc["alternativeBound"]) == Fraction(1531141, 33)

    def test_undecided_maps_to_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "flagbound.hypothesis_checker.compare_radical",
            lambda *a, **k: Comparison.UNDECIDED,
        )
        code, out, _ = run(capsys, "corollary", "--format", "json", "4", "1000000", "3", "1")
        assert code == 3
        assert json.loads(out)["degreeHypotheses"] == "undecided"


class TestSpeciality:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "speciality", "500", "5", "5")
        assert code == 0
        assert out == "bound = 503/5\n"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "speciality", "--format", "json", "50", "7", "3")
        assert json.loads(out)["bound"] == "47/7"


class TestHypotheses:
    def test_lemma_subject(self, capsys):
        code, out, _ = run(capsys, "hypotheses", "--format", "json", "lemma", "5", "43", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["subject"] == "lemmaDegree"
        assert doc["verdict"] == "pass"
        assert doc["checks"][0]["relation"] == ">"

    def test_nested_format_flag(self, capsys):
        # format option accepted after the nested subject as well
        code, out, _ = run(capsys, "hypotheses", "lemma", "5", "42", "7", "--format", "json")
        assert code == 0
        assert json.loads(out)["verdict"] == "fail"

    def test_flag_subject_table(self, capsys):
        code, out, _ = run(capsys, "hypotheses", "flag", "5", "1000000", "10")
        assert code == 0
        assert "verdict            = pass" in out

    def test_corollary_subject(self, capsys):
        code, out, _ = run(
            capsys, "hypotheses", "corollary", "4", "471", "3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        radical = next(c for c in doc["checks"] if c["label"] == "radical-product")
        assert radical["threshold"] == "4 * 24^(1/2) * 24"

    def test_undecided_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "flagbound.hypothesis_checker.compare_radical",
            lambda *a, **k: Comparison.UNDECIDED,
        )
        code, out, _ = run(capsys, "hypotheses", "corollary", "4", "471", "3")
        assert code == 3


class TestVerify:
    ARGS = (
        "verify",
        "--grid", "4,10",
        "--castelnuovo-grid", "3,20",
        "--seeds", "8",
        "--flags", "4",
        "--corollary-cases", "2",
        "--radicals", "6",
        "--seed", "3",
    )

    def test_table(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert out.count("[PASS]") == 10
        assert out.strip().endswith("overall: PASS")

    def test_json(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert len(doc["rows"]) == 10

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "verify", "--grid", "10")
        assert code == 1
        assert "--grid" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seeds", "-3", "seeds must be >= 0, got -3"),
            ("--flags", "-1", "flag_count must be >= 0, got -1"),
            ("--corollary-cases", "-1", "corollary_count must be >= 0, got -1"),
            ("--radicals", "-1", "radical_count must be >= 0, got -1"),
            ("--castelnuovo-grid", "9,1", "empty castelnuovo grid: n_max=9, deg_max=1"),
            ("--castelnuovo-grid", "1,5", "empty castelnuovo grid: n_max=1, deg_max=5"),
        ],
    )
    def test_refuses_negative_counts_and_empty_grids(self, capsys, flag, value, message):
        args = list(self.ARGS)
        args[args.index(flag) + 1] = value
        code, out, err = run(capsys, *args)
        assert code == 1
        assert out == ""
        assert message in err


class TestOneParser:
    """main() builds its parser once per process; no call sees another's."""

    def test_calls_match_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        chunk = tmp_path / "chunk.ndjson"
        chunk.write_text(
            "\n".join(
                [
                    SPECIALITY_LINE,
                    json.dumps({"op": "castelnuovo", "N": 5, "deg": 1000}),
                    json.dumps({"op": "corollary", "r": 4, "d": 471, "s": 3, "pi": 1}),
                    json.dumps({"op": "flag", "r": 5, "degrees": [1000, 10]}),
                    json.dumps({"op": "castelnuovo", "N": 1}),
                ]
            )
            + "\n"
        )
        verify = (*TestVerify.ARGS, "--format", "json")
        calls = [
            verify,
            verify,
            ("batch", "--input", str(chunk)),
            ("hypotheses", "--digits", "5", "corollary", "4", "471", "3"),
            ("hypotheses", "corollary", "4", "471", "3"),
            ("hypotheses", "flag", "--format", "json", "5", "1000", "10"),
            ("castelnuovo", "x", "5"),
            ("castelnuovo", "5", "1000"),
        ]
        cli._build_parser.cache_clear()
        cached = [run(capsys, *argv) for argv in calls]
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(calls) - 1)

        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in calls]
        assert cached == fresh

        assert cached[0][1] == cached[1][1]
        assert json.loads(cached[0][1])["passed"] is True
        assert "(approx 470.30)" in cached[3][1]
        assert "(approx 470.30203061437019485)" in cached[4][1]
        assert cached[6][0] == 1
        assert cached[6][2] == "error: argument N: invalid int value: 'x'\n"
        assert cached[7] == (0, "bound = 124251\n", "")


class TestBatch:
    def test_mixed_records(self, tmp_path, capsys):
        lines = [
            json.dumps({"op": "castelnuovo", "N": 5, "deg": 1000}),
            json.dumps({"op": "flag", "r": 5, "degrees": [1000, 10]}),
            json.dumps({"op": "lemma", "input": WORKED_LEMMA}),
            json.dumps({"op": "corollary", "r": 4, "d": 10**6, "s": 3, "pi": 1}),
            json.dumps({"op": "speciality", "d": 500, "s": 5, "pi": 5}),
            json.dumps({"op": "nope"}),
            "{not json",
        ]
        path = tmp_path / "batch.ndjson"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 1  # at least one record failed
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert len(docs) == 7
        assert docs[0] == {"ok": True, "result": {"bound": 124251}}
        assert docs[1]["result"]["lo"] == "149900/3"
        assert docs[2]["result"]["genus"] == 162
        assert docs[3]["result"]["degreeHypotheses"] == "pass"
        assert docs[4]["result"]["bound"] == "503/5"
        assert docs[5]["ok"] is False and "unknown batch op" in docs[5]["error"]
        assert docs[6]["ok"] is False and "invalid JSON" in docs[6]["error"]

    def test_all_good_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "batch.ndjson"
        path.write_text(json.dumps({"op": "castelnuovo", "N": 3, "deg": 6}) + "\n\n")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 0
        assert json.loads(out) == {"ok": True, "result": {"bound": 4}}

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO(json.dumps({"op": "speciality", "d": 50, "s": 7, "pi": 3}))
        )
        code, out, _ = run(capsys, "batch")
        assert code == 0
        assert json.loads(out)["result"]["bound"] == "47/7"

    def test_missing_fields(self, tmp_path, capsys):
        path = tmp_path / "batch.ndjson"
        path.write_text(json.dumps({"op": "corollary", "r": 4}) + "\n")
        code, out, _ = run(capsys, "batch", "--input", str(path))
        assert code == 1
        doc = json.loads(out)
        assert "missing fields" in doc["error"]



SPECIALITY_LINE = json.dumps({"op": "speciality", "d": 50, "s": 7, "pi": 3})
SPECIALITY_ANSWER = {"ok": True, "result": {"bound": "47/7"}}


def run_batch(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "batch")
    return code, [json.loads(line) for line in out.splitlines()]


class TestBatchStrictRecords:
    """Records that once ended the stream or were silently coerced."""

    @pytest.mark.parametrize(
        "line",
        [
            '{"op":"castelnuovo","N":[1],"deg":5}',
            '{"op":"flag","r":5,"degrees":7}',
            '{"op":"castelnuovo","N":5,"deg":1e400}',
            '{"op":"castelnuovo","N":5,"deg":' + "1" * 5001 + "}",
            '{"op":"castelnuovo","N":5.9,"deg":1000}',
            '{"op":"castelnuovo","N":5,"deg":"1000"}',
            '{"op":"speciality","d":50,"s":7,"pi":true}',
            json.dumps(
                {"op": "lemma", "input": {**WORKED_LEMMA, "d": 30, "allowSmallDegree": "no"}}
            ),
            '{"op":[1]}',
        ],
        ids=[
            "list-for-int",
            "int-for-list",
            "float-overflow",
            "5001-digit-int",
            "float",
            "numeric-string",
            "bool-for-int",
            "string-for-bool",
            "list-op",
        ],
    )
    def test_refused_and_stream_goes_on(self, capsys, monkeypatch, line):
        code, docs = run_batch(capsys, monkeypatch, line + "\n" + SPECIALITY_LINE + "\n")
        assert code == 1
        assert len(docs) == 2
        assert docs[0]["ok"] is False and docs[0]["input"] == line
        assert docs[1] == SPECIALITY_ANSWER

    def test_field_error_names_field_and_type(self, capsys, monkeypatch):
        _, docs = run_batch(capsys, monkeypatch, '{"op":"castelnuovo","N":5.9,"deg":1000}')
        assert docs[0]["error"] == (
            "malformed batch op 'castelnuovo': field 'N' must be an integer, got float"
        )

    def test_allow_small_degree_accepts_a_json_bool(self, capsys, monkeypatch):
        record = {"op": "lemma", "input": {**WORKED_LEMMA, "d": 30, "allowSmallDegree": True}}
        code, docs = run_batch(capsys, monkeypatch, json.dumps(record))
        assert code == 0
        assert docs[0]["ok"] is True

    def test_unexpected_error_is_named(self, capsys, monkeypatch):
        def boom(N, deg):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr("flagbound.cli.castelnuovo_bound", boom)
        line = json.dumps({"op": "castelnuovo", "N": 5, "deg": 1000})
        code, docs = run_batch(capsys, monkeypatch, line + "\n" + SPECIALITY_LINE)
        assert code == 1
        assert docs[0]["error"] == "OverflowError: int too large to convert to float"
        assert docs[1] == SPECIALITY_ANSWER


class TestBatchExitCodes:
    FAILED = json.dumps({"op": "nope"})
    UNDECIDED = json.dumps({"op": "corollary", "r": 4, "d": 10**6, "s": 3, "pi": 1})
    VIOLATED = json.dumps({"op": "lemma", "input": WORKED_LEMMA})

    @pytest.fixture
    def faults(self, monkeypatch):
        monkeypatch.setattr(
            "flagbound.hypothesis_checker.compare_radical",
            lambda *a, **k: Comparison.UNDECIDED,
        )
        monkeypatch.setattr("flagbound.cli.genus_from_lemma_input", lambda inp: -1)

    @pytest.mark.parametrize(
        "lines,expected",
        [
            ((SPECIALITY_LINE,), 0),
            ((FAILED, SPECIALITY_LINE), 1),
            ((FAILED, UNDECIDED), 3),
            ((UNDECIDED, VIOLATED, FAILED), 2),
            ((VIOLATED,), 2),
        ],
    )
    def test_gravest_kind_wins(self, capsys, monkeypatch, faults, lines, expected):
        code, docs = run_batch(capsys, monkeypatch, "\n".join(lines))
        assert code == expected
        assert len(docs) == len(lines)

    def test_undecided_record_is_answered(self, capsys, monkeypatch, faults):
        _, docs = run_batch(capsys, monkeypatch, self.UNDECIDED)
        assert docs[0]["ok"] is True
        assert docs[0]["result"]["degreeHypotheses"] == "undecided"

    def test_undecided_flag_is_not_verified(self, capsys, monkeypatch, faults):
        # every rational separation threshold passes; only the radical is undecided
        line = json.dumps({"op": "flag", "r": 5, "degrees": [10**6, 10]})
        code, docs = run_batch(capsys, monkeypatch, line + "\n" + self.UNDECIDED)
        assert docs[0]["result"]["hypothesesVerified"] is False
        assert docs[1]["result"]["degreeHypotheses"] == "undecided"
        assert code == 3

    def test_identity_violation_is_reported(self, capsys, monkeypatch, faults):
        _, docs = run_batch(capsys, monkeypatch, self.VIOLATED)
        assert docs[0]["ok"] is False
        assert docs[0]["error"] == "genus -1 != bound 162"


# Integers stay small: a record's cost grows without bound in r (a corollary
# record builds r-2 radical factors of (r-1)!), so large ones would stall the
# test, not break the stream.
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=12),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=12), max_size=4),
    st.lists(st.one_of(st.booleans(), st.floats(), st.text(max_size=2)), max_size=2),
)
_LEMMA_INPUTS = st.fixed_dictionaries(
    {},
    optional={
        **dict.fromkeys(("r", "d", "s", "deltas", "tail", "allowSmallDegree"), _VALUES),
        "pointProfile": st.fixed_dictionaries({}, optional={"stable": _VALUES, "values": _VALUES}),
    },
)
_RECORDS = st.fixed_dictionaries(
    {"op": st.sampled_from(["castelnuovo", "flag", "lemma", "corollary", "speciality", "nope"])},
    optional={
        **dict.fromkeys(("N", "deg", "r", "degrees", "d", "s", "pi"), _VALUES),
        "input": st.one_of(_LEMMA_INPUTS, _VALUES),
    },
)
_LINES = st.one_of(_RECORDS.map(json.dumps), st.text(max_size=30))


@given(st.lists(_LINES, min_size=1, max_size=5))
@settings(deadline=None)
def test_batch_answers_every_line(lines):
    text = "\n".join(lines)
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(text), io.StringIO()
    try:
        code = main(["batch"])
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    expected = [line.strip() for line in text.split("\n") if line.strip()]
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == len(expected)
    for doc, line in zip(docs, expected):
        assert doc["ok"] is True or doc["input"] == line
    assert code in (0, 1, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ("castelnuovo", "--digit-budget", "5", "5", "1000"),
        ("hypotheses", "corollary", "4", "471", "3", "--digit-budget", "5"),
        ("castelnuovo", "--digits", "5", "5", "1000"),
        ("speciality", "--digits", "5", "500", "5", "5"),
        ("batch", "--format", "json"),
        ("batch", "--digits", "5"),
    ],
)
def test_ignored_options_are_gone(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "unrecognized arguments" in err
