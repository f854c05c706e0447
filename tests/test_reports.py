import argparse
import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from closurelab.cli import build_parser, main
from closurelab.experiments import INPUT_BYTE_LIMIT, SCHEMAS, ConfigError, run_experiment
from closurelab.polynomials import PARSE_TEXT_LIMIT
from closurelab.reports import (
    ExperimentReport,
    ReportMismatchError,
    diff_reports,
)


class TestDeterminism:
    def test_byte_identical_reruns(self):
        a = run_experiment("tower-verify", {"max_level": 2})
        b = run_experiment("tower-verify", {"max_level": 2})
        assert a.to_json() == b.to_json()
        assert a.fingerprint() == b.fingerprint()

    def test_seeded_randomized_experiment_is_deterministic(self):
        a = run_experiment("tower-trace", {"pairs": 10, "seed": 4})
        b = run_experiment("tower-trace", {"pairs": 10, "seed": 4})
        assert a.to_json() == b.to_json()


class TestDiff:
    def test_self_diff_empty(self):
        r = run_experiment("tower-verify", {"max_level": 1})
        assert diff_reports(r, r) == []

    def test_single_alteration_named(self):
        r = run_experiment("tower-verify", {"max_level": 1})
        other = ExperimentReport(r.experiment, r.config, json.loads(json.dumps(r.checks)))
        other.checks[1]["status"] = "fail"
        diffs = diff_reports(r, other)
        assert len(diffs) == 1
        assert diffs[0]["check"] == r.checks[1]["name"]

    def test_version_excluded_from_fingerprint(self):
        r = run_experiment("tower-verify", {"max_level": 1})
        other = ExperimentReport.from_dict(r.to_dict())
        other.engine_version = "99.0.0"
        assert diff_reports(r, other) == []
        assert r.fingerprint() == other.fingerprint()

    def test_mismatched_experiments_rejected(self):
        a = run_experiment("tower-verify", {"max_level": 1})
        b = run_experiment("tower-trace", {"pairs": 1})
        with pytest.raises(ReportMismatchError):
            diff_reports(a, b)


class TestConfigValidation:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            run_experiment("nope", {})

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="unknown config fields.*max_lvl"):
            run_experiment("tower-verify", {"max_lvl": 2})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="field 'max_level'"):
            run_experiment("tower-verify", {"max_level": 99})

    def test_nonprime_p_rejected(self):
        with pytest.raises(ConfigError, match="field 'p'"):
            run_experiment("padic", {"p": 9})


class TestCli:
    def test_pass_exit_code_and_report_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["tower-verify", "--max-level", "1", "--report", str(path)])
        assert code == 0
        body = json.loads(path.read_text())
        assert body["experiment"] == "tower-verify"
        assert all(c["status"] == "pass" for c in body["checks"])

    @pytest.mark.parametrize("where", ["missing_directory", "path_is_a_directory"])
    def test_unwritable_report_path_is_a_config_error(self, tmp_path, capsys, where):
        path = tmp_path / "no" / "such" / "x.json" if where == "missing_directory" else tmp_path
        code = main(["tower-verify", "--max-level", "1", "--report", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_text_format(self, capsys):
        code = main(["tower-verify", "--max-level", "1", "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "fingerprint:" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["charp", "--p", "9"],
            ["tower-verify", "--max-level", "7"],
            ["tower-colon", "--max-level", "6"],
            ["tower-trace", "--pairs", "0"],
            ["charp", "--e-max", "5"],
            ["charp", "--p", "29", "--e-max", "4"],
            ["charp", "--p", "101"],
            ["charp", "--p", "262139", "--e-max", "1", "--deg-bound", "0"],
            # 2^61 - 1 and 2^127 - 1: the bound is tested before primality
            ["charp", "--p", str(2 ** 61 - 1)],
            ["charp", "--p", str(2 ** 127 - 1)],
            ["padic", "--p", str(2 ** 127 - 1)],
            ["isogeny", "--p", "3"],
            ["padic", "--precision", "9"],
            ["tower-verify", "--max-level", "abc"],
            ["isogeny", "--check", "foo"],
        ],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
    )
    def test_config_error_exit_code(self, capsys, argv):
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_padic_answers_a_61_bit_prime_at_once(self, capsys):
        """2^61 - 1 is below padic's bound: it is certified prime by
        Miller-Rabin, not by trial division, and the run finishes."""
        start = time.perf_counter()
        assert main(["padic", "--p", str(2 ** 61 - 1), "--samples", "2"]) == 0
        assert time.perf_counter() - start < 2
        assert json.loads(capsys.readouterr().out)["config"]["p"] == 2 ** 61 - 1

    def test_charp_accepts_the_largest_prime_below_the_limit(self, capsys, monkeypatch):
        # no golden multiplier is recorded for p = 97, so the run exits 1
        monkeypatch.delenv("CLOSURELAB_RECORD", raising=False)
        assert main(["charp", "--p", "97", "--e-max", "2"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["config"]["p"] == 97
        assert {c["name"].split("/")[0] for c in body["checks"]} == {"p97"}

    def test_flags_come_from_the_schemas(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, schema in SCHEMAS.items():
            flags = {
                opt
                for action in subparsers.choices[name]._actions
                for opt in action.option_strings
                if opt not in ("-h", "--help")
            }
            expected = {"--" + field.replace("_", "-") for field in schema} | {"--report", "--format"}
            assert flags == expected, name

    def test_diff_subcommand(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["tower-verify", "--max-level", "1", "--report", str(p1)]) == 0
        assert main(["tower-verify", "--max-level", "1", "--report", str(p2)]) == 0
        assert main(["diff", str(p1), str(p2)]) == 0

    def test_diff_detects_discrepancy(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["tower-verify", "--max-level", "1", "--report", str(p1)])
        data = json.loads(p1.read_text())
        data["checks"][0]["status"] = "fail"
        p2.write_text(json.dumps(data))
        assert main(["diff", str(p1), str(p2)]) == 1

    @pytest.mark.parametrize(
        "document",
        [
            None,
            b"{not json",
            b"\xff\xfe",
            b"[]",
            b'{"experiment": "x", "config": {}}',
            b'{"experiment": "x", "config": {}, "checks": "abc"}',
            b'{"experiment": "x", "config": {}, "checks": [1]}',
            b'{"experiment": "x", "config": {}, "checks": [{"name": 1}]}',
            b'{"experiment": "y", "config": {}, "checks": []}',
        ],
        ids=[
            "missing_file",
            "bad_json",
            "not_utf8",
            "list_document",
            "no_checks",
            "non_list_checks",
            "non_object_check",
            "non_string_name",
            "other_experiment",
        ],
    )
    def test_bad_report_document_is_a_config_error(self, tmp_path, capsys, document):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"experiment": "x", "config": {}, "checks": [{"name": "c"}]}))
        if document is not None:
            bad.write_bytes(document)
        for argv in (["diff", str(good), str(bad)], ["diff", str(bad), str(good)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error:")
            assert captured.out == ""

    @pytest.mark.parametrize("field", ["experiment", "config", "checks"])
    def test_missing_field_is_named_with_its_file(self, tmp_path, capsys, field):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        report = {"experiment": "x", "config": {}, "checks": [{"name": "c"}]}
        good.write_text(json.dumps(report))
        del report[field]
        bad.write_text(json.dumps(report))
        with pytest.raises(ValueError, match=f"report lacks field '{field}'"):
            ExperimentReport.from_dict(report)
        assert main(["diff", str(bad), str(good)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: report lacks field '{field}'\n"

    def test_padic_input_document(self, tmp_path):
        doc = tmp_path / "input.json"
        doc.write_text(json.dumps({"alpha": "x*y + 5*y^2", "oracle": {"mode": "adversarial", "seed": 2}}))
        report = tmp_path / "out.json"
        code = main(["padic", "--p", "5", "--precision", "3", "--input", str(doc), "--report", str(report)])
        assert code == 0
        body = json.loads(report.read_text())
        assert any(c["name"].startswith("input_alpha/") for c in body["checks"])

    def test_one_parse_budget_for_the_whole_document(self, tmp_path, capsys):
        """alpha and the scripted steps draw on one parse budget: each text
        below fits alone, and together they pass it."""
        big = "(1+x+y+z)^32"
        step = {"a": big, "b": "0", "c": "0"}
        path = tmp_path / "input.json"

        def run(doc):
            path.write_text(json.dumps(doc))
            capsys.readouterr()
            code = main(["padic", "--p", "5", "--precision", "2", "--samples", "0", "--input", str(path)])
            return code, capsys.readouterr().err

        assert run({"alpha": f"x*{big}", "oracle": {"mode": "adversarial"}}) == (0, "")
        # the step parses, and is then refused as a wrong representation
        code, err = run({"alpha": "x", "oracle": {"mode": "scripted", "steps": [step]}})
        assert code == 2 and "OracleInconsistencyError" in err
        code, err = run({"alpha": f"x*{big}", "oracle": {"mode": "scripted", "steps": [step]}})
        assert code == 2 and "term operations" in err

    def test_input_file_is_read_up_to_its_byte_limit(self, tmp_path, capsys):
        """A document of exactly INPUT_BYTE_LIMIT bytes is read; one byte
        more is refused before it is parsed."""
        path = tmp_path / "input.json"
        doc = json.dumps({"alpha": "x"}).encode()
        argv = ["padic", "--p", "5", "--precision", "2", "--samples", "0", "--input", str(path)]
        path.write_bytes(doc + b" " * (INPUT_BYTE_LIMIT - len(doc)))
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        path.write_bytes(doc + b" " * (INPUT_BYTE_LIMIT + 1 - len(doc)))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: padic: bad input document: ValueError: the document passes {INPUT_BYTE_LIMIT} bytes\n"
        )
        assert captured.out == ""

    def test_any_document_within_the_parse_budget_is_read(self, tmp_path, capsys):
        """The most bytes a document within PARSE_TEXT_LIMIT can take: every
        text character a 12-byte surrogate-pair escape, as many one-character
        steps as the budget admits, indented; it is read, and only then fails
        to parse."""
        steps = (PARSE_TEXT_LIMIT - 1) // 3
        char = "\U0001F600"
        alpha = char * (PARSE_TEXT_LIMIT - 3 * steps)
        doc = {"alpha": alpha, "oracle": {"mode": "scripted", "steps": [dict.fromkeys("abc", char)] * steps}}
        body = json.dumps(doc, indent=2).encode()
        assert body.count(b"\\ud83d\\ude00") == PARSE_TEXT_LIMIT
        assert len(body) <= INPUT_BYTE_LIMIT
        path = tmp_path / "input.json"
        path.write_bytes(body)
        assert main(["padic", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: padic: bad input document: PolyParseError")

    @pytest.mark.parametrize(
        "document",
        [
            None,
            "{not json",
            {"alpha": "x $ y"},
            {"oracle": {"mode": "honest"}},
            {"alpha": "z^2"},
            [],
            {"alpha": 5},
            {"alpha": "x", "oracle": []},
            {"alpha": "x", "oracle": {"mode": "scripted", "steps": 5}},
            {"alpha": "x", "oracle": {"mode": "scripted", "steps": [{"a": 1}]}},
            {"alpha": "x", "oracle": {"mode": "adversarial", "seed": []}},
            {"alpha": "x^600000*y"},
            {"alpha": "x^300000*x^300000"},
            {"alpha": "(x+y)^500000"},
            {"alpha": "x*(1+x+y+z)^32 + y*(1+x+y+z)^32"},
            {"alpha": "x*(1+x+y+z)^32", "oracle": {"mode": "scripted", "steps": [{"a": "(1+x+y+z)^32", "b": "0", "c": "0"}]}},
            {"alpha": "x" + " + x" * 5000},
            {"alpha": "x*z^3000"},
        ],
        ids=[
            "missing_file",
            "bad_json",
            "unparsable_alpha",
            "no_alpha",
            "alpha_outside_xy",
            "list_document",
            "non_string_alpha",
            "non_object_oracle",
            "non_list_steps",
            "non_string_step",
            "non_integer_seed",
            "exponent_past_the_field",
            "product_past_the_field",
            "power_of_a_sum_past_the_limit",
            "document_past_the_term_budget",
            "steps_past_the_shared_term_budget",
            "text_past_the_character_budget",
            "degree_past_the_limit",
        ],
    )
    def test_bad_padic_input_is_a_config_error(self, tmp_path, capsys, document):
        path = tmp_path / "input.json"
        if document is not None:
            path.write_text(document if isinstance(document, str) else json.dumps(document))
        assert main(["padic", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestPinnedFingerprints:
    """Default-configuration fingerprints; a change to any of them is a
    change to the mathematics the report records."""

    PINNED = {
        "tower-verify": "067cfab9e04927e73997b26f10c97a43131727045acc720580cbc1bfcb585374",
        "tower-colon": "5b3c6a018001ab07f73bcffb76587af6e3c3ddbdfad2358944c8fcb06e362123",
        "isogeny": "c8b2c6acf12a96810a19060a4823e7f60b28c527fce41cac92258dba250cb04c",
        "padic": "a26c67452daf52b827b1c8d7153f38df96ea333d50832f74871dc2e7ad90acc9",
        "charp --p 7": "974051447e60ae7309b56bc0df2090085320437e6742c6c285fb4c14a95195cc",
        "tower-trace --pairs 10": "08ae18a7bb80dc7e057b7090465e423c652ea6b7024f1dd0e3db02e238d14a28",
        # perfbench's tower-deep op: products of up to 82 terms over Q(zeta_9)
        "tower-colon --max-level 5": "63f622c944e870aa02c1303052a09b07fbed1a2957b3a7bd3a7d140efb1b5880",
        # perfbench's charp-matrix op (every p) and its padic-stress op at seed 53
        "charp --p 0 --e-max 2 --deg-bound 3": "efc77164058fffbdeaa3777540705057c6a8ca17430bb7afef03cdb083d98eb5",
        "padic --precision 8 --samples 20 --seed 53": "4942a02e36cb93a60d5f84c5a1d6f0187fc1db745ae45275d16840847a3a8566",
        # every experiment at its defaults, seed 0
        "all": "2f311f5d7111a9ae606f433400f2bd82028d74e875b3e475a315a24cc519f6d5",
    }

    @pytest.mark.parametrize("command", list(PINNED), ids=lambda c: c.replace(" --", "_").replace(" ", "_"))
    def test_default_fingerprint(self, capsys, command):
        assert main(command.split()) == 0
        assert json.loads(capsys.readouterr().out)["fingerprint"] == self.PINNED[command]

    # non-default charp runs, each of which exits 1: every one lacks a
    # recorded golden multiplier, and the --deg-bound 0 runs also fail on the
    # merits (no unit multiplier exists at p = 1 mod 3)
    PINNED_FAILING = {
        "charp --p 7 --e-max 3": "a5401919df869decb687d350584e711ae967e9e3a58cd5df30b9f1427d661294",
        "charp --p 13 --e-max 3": "90813a417b25269069d299cc9b5c8d342bcf9ab279ed684ab500a8e594f787e2",
        "charp --p 7 --e-max 4": "10e447eb93cbb20195f62430cc71c287497d23361e281af1d0fb15a48d6e660e",
        "charp --p 5 --e-max 4": "6b8a3ad530fbaa835fdab89de7e6383b4a975a79a257bea0b03376cf6ec5df97",
        "charp --p 2 --e-max 4": "7b809708c52ebc777191d1d3520b7b66f81ba31f490b41ccd5d5126bf501927a",
        "charp --p 7 --e-max 2 --deg-bound 0": "8b760cb78699de4cdf0352042099f3d53951662be19c662acfce01c5e1e68462",
        "charp --p 13 --e-max 2 --deg-bound 0": "71d35fdf52e8a3d8b9790a6a6770319cfc5e6540a6fa3dcc4a59e1ef27314fbd",
        "charp --p 7 --e-max 3 --deg-bound 0": "a82e0589dd6075ccae1b786b3706db9c53912192676a052443a5c1ef4c6e0802",
        "charp --p 13 --e-max 3 --deg-bound 0": "768a0a235746cc7583f579bcb3fb166ea7842df9a168e4854e5efc2b6c9d8549",
        "charp --p 7 --e-max 4 --deg-bound 0": "1a2af0e754b4aeeb7a5c79f39df83dc34308ea6f3a40ed69c741827663949985",
        "charp --p 13 --e-max 4": "2c776e4f3a9a7a3d5170b1d6a21ee06512b11dc4c63d67b096126db519ff6940",
        "charp --p 0 --e-max 4 --deg-bound 6": "586d22d36d5193a083d8b91f144ee2f3ac7f932862d594a313bc1a71d3264d74",
        # with --deg-bound 0 the multiplier is 1 or none, so this report
        # holds only what the closed form of NF(z^(2q)) decides
        "charp --p 0 --e-max 4 --deg-bound 0": "bcab574add7314099e476b2ca05bc4ea513c8ca10cb49788562052063c04dcec",
    }

    @pytest.mark.parametrize(
        "command", list(PINNED_FAILING), ids=lambda c: c.replace(" --", "_").replace(" ", "_")
    )
    def test_failing_charp_fingerprint(self, capsys, monkeypatch, command):
        # a recording run would freeze the missing golden fixtures in place
        monkeypatch.delenv("CLOSURELAB_RECORD", raising=False)
        assert main(command.split()) == 1
        assert json.loads(capsys.readouterr().out)["fingerprint"] == self.PINNED_FAILING[command]


class TestGoldenFixtures:
    def test_recorded_multiplier_matches(self):
        report = run_experiment("charp", {"p": 7})
        golden = [c for c in report.checks if c["name"] == "p7/golden_multiplier"]
        assert golden and golden[0]["status"] == "pass"
        assert golden[0]["golden"] == "match"

    def test_fixture_mismatch_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLOSURELAB_FIXTURES", str(tmp_path))
        (tmp_path / "charp_p7_emax2_deg3.json").write_text(
            json.dumps({"multiplier": "y", "degree": 1})
        )
        report = run_experiment("charp", {"p": 7})
        golden = [c for c in report.checks if c["name"] == "p7/golden_multiplier"][0]
        assert golden["status"] == "fail"
        assert not report.passed

    def test_missing_fixture_fails_without_record_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CLOSURELAB_FIXTURES", str(tmp_path))
        monkeypatch.delenv("CLOSURELAB_RECORD", raising=False)
        report = run_experiment("charp", {"p": 7})
        golden = [c for c in report.checks if c["name"] == "p7/golden_multiplier"][0]
        assert golden["status"] == "fail"


# ---------------------------------------------------------------------------
# the command-line contract over generated inputs

_EXPONENTS = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from(["33", "500000", "524288", "-1", "1/2", "2.5", "x", ""]),
)
_ATOMS = st.one_of(
    st.sampled_from(["x", "y", "z", "t", "w", "xy", "1/2", "3/0", "9" * 5000]),
    st.integers(-30, 30).map(str),
)


@st.composite
def _poly_texts(draw, depth=2):
    """Polynomial text over good and foreign names, with huge, negative and
    non-integer exponents, sums nested up to ``depth`` deep."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            if depth and draw(st.booleans()):
                base = "(" + draw(_poly_texts(depth - 1)) + ")"
            else:
                base = draw(_ATOMS)
            if draw(st.booleans()):
                base += "^" + draw(_EXPONENTS)
            factors.append(base)
        terms.append("*".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - "])) + term
    return text


_TEXTS = st.one_of(_poly_texts(), st.text(alphabet="xyzw0123456789+-*^()/ .", max_size=20))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5))
_STEPS = st.lists(st.fixed_dictionaries({k: st.one_of(_TEXTS, _SCALARS) for k in "abc"}), max_size=3)
_ORACLES = st.one_of(
    st.fixed_dictionaries({"mode": st.sampled_from(["honest", "adversarial", "scripted", "other"])}),
    st.fixed_dictionaries({"mode": st.just("adversarial"), "seed": _SCALARS}),
    st.fixed_dictionaries({"mode": st.just("scripted"), "steps": _STEPS}),
    _SCALARS,
)


def _dump(doc):
    return json.dumps(doc).encode()


_PADIC_DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"alpha": _TEXTS}).map(_dump),
    st.fixed_dictionaries({"alpha": st.one_of(_TEXTS, _SCALARS), "oracle": _ORACLES}).map(_dump),
    st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=5).map(_dump),
    st.binary(max_size=20),
)
_CHECKS = st.lists(st.fixed_dictionaries({"name": st.sampled_from(["c", "d"]), "status": _SCALARS}))
_DIFF_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(
        {
            "experiment": st.one_of(st.just("x"), _SCALARS),
            "config": st.one_of(st.just({}), _SCALARS),
            "checks": st.one_of(_CHECKS, _SCALARS),
        }
    ).map(_dump),
    st.binary(max_size=20),
)


def _flags(command, **fields):
    """argv for ``command`` with a flag per field strategy, each maybe left out."""
    flags = [
        st.one_of(st.just([]), values.map(lambda v, f=field: ["--" + f.replace("_", "-"), str(v)]))
        for field, values in fields.items()
    ]
    return st.tuples(*flags).map(lambda parts: [command] + sum(parts, []))


_CHEAP_RUNS = st.one_of(
    _flags("tower-verify", max_level=st.integers(1, 3)),
    _flags("tower-trace", pairs=st.integers(1, 10), seed=st.integers()),
    _flags("isogeny", p=st.just(2), n=st.integers(1, 2)),
    _flags(
        "padic",
        p=st.sampled_from([2, 5, 7, 11, 13]),
        precision=st.integers(1, 4),
        samples=st.integers(0, 3),
        seed=st.integers(),
    ),
)
# the whole schema and past it: the matrix, every prime below the limit,
# the limit's neighbours, a prime whose powers leave the exponent range
_CHARP_RUNS = _flags(
    "charp",
    p=st.one_of(st.sampled_from([0, 2, 5, 7, 13, 29, 97, 101, 262139]), st.integers(-3, 120), st.just("x")),
    e_max=st.one_of(st.integers(0, 5), st.just("two")),
    deg_bound=st.integers(-1, 7),
)


def _padic_input(body, *flags):
    return ["padic", *flags, "--input", "@input.json"], {"input.json": body}


@st.composite
def _invocations(draw):
    """(argv, files): a command line and the documents it reads, by name;
    an argument ``@name`` stands for that file in a scratch directory, and
    ``@`` alone for the directory."""
    kind = draw(st.sampled_from(["padic_input", "diff", "cheap", "charp"]))
    if kind == "padic_input":
        p, precision = draw(st.sampled_from(["2", "5", "7"])), draw(st.sampled_from(["1", "2", "3"]))
        return _padic_input(draw(_PADIC_DOCUMENTS), "--p", p, "--precision", precision, "--samples", "0")
    if kind == "diff":
        files = {"left.json": draw(_DIFF_DOCUMENTS), "right.json": draw(_DIFF_DOCUMENTS)}
        return ["diff", "@left.json", "@right.json"], files
    argv = draw(_CHEAP_RUNS if kind == "cheap" else _CHARP_RUNS)
    output = draw(st.sampled_from([[], ["--format", "text"], ["--report", "@report.json"], ["--report", "@"]]))
    return argv + output, {}


class TestCliContract:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(case=_invocations())
    @example(case=_padic_input(_dump({"alpha": "(" * 3000 + "x" + ")" * 3000})))
    @example(case=_padic_input(_dump({"alpha": "-" * 3000 + "x"})))
    @example(case=_padic_input(_dump({"alpha": "(x+y)^500000"})))
    @example(case=_padic_input(_dump({"alpha": "x*(1+x+y+z)^32 + y*(1+x+y+z)^32"})))
    @example(case=_padic_input(_dump({"alpha": "x^300000*x^300000"})))
    @example(case=_padic_input(_dump({"alpha": "3/0*x"})))
    @example(case=_padic_input(_dump({"alpha": "1/2*x"})))
    @example(case=_padic_input(b"[" * 100000))
    @example(case=_padic_input(b"{}" + b" " * (INPUT_BYTE_LIMIT - 1)))
    @example(case=(["diff", "@left.json", "@right.json"], {"left.json": b"[" * 100000, "right.json": b"{}"}))
    def test_exit_codes_and_error_lines(self, tmp_path, monkeypatch, case):
        """Every run exits 0, 1 or 2 without a traceback, and exit 2 comes
        with exactly one ``error:`` or ``config error:`` line."""
        # a recording run would freeze missing golden fixtures in place
        monkeypatch.delenv("CLOSURELAB_RECORD", raising=False)
        argv, files = case
        for name, body in files.items():
            (tmp_path / name).write_bytes(body)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.count("\n") == 1
            assert err.startswith(("error:", "config error:"))
        else:
            assert err == ""
