import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import closurelab
from closurelab import charp
from closurelab.cli import main
from closurelab.experiments import GOLDEN, INPUT_BYTE_LIMIT, SCHEMAS, ConfigError, run_experiment
from closurelab.polynomials import EXP_LIMIT, PARSE_TEXT_LIMIT
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


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    experiment=st.text(max_size=12),
    config=st.dictionaries(st.text(max_size=6), _json_values, max_size=4),
    checks=st.lists(
        st.fixed_dictionaries(
            {"name": st.text(max_size=8), "status": st.sampled_from(["pass", "fail"])},
            optional={"value": _json_values},
        ),
        max_size=4,
    ),
)
def test_serialization_matches_the_document_serialized_whole(experiment, config, checks):
    """``to_json``, which serializes the checks once for the fingerprint
    and the body, and ``fingerprint`` give the bytes of the canonical JSON
    of the whole document and the SHA-256 of the canonical JSON of the
    fingerprinted fields, as each was computed when it serialized its own
    dict; names and values include quotes, escapes and non-ASCII text."""
    report = ExperimentReport(experiment, config, checks)
    core = {"experiment": experiment, "config": config, "checks": checks}
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    whole = dict(core, engine_version=report.engine_version, fingerprint=digest)
    assert report.fingerprint() == digest
    assert report.to_json() == json.dumps(whole, sort_keys=True, separators=(",", ":"))


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
        other = ExperimentReport.from_dict(json.loads(r.to_json()))
        other.engine_version = "99.0.0"
        assert diff_reports(r, other) == []
        assert r.fingerprint() == other.fingerprint()

    def test_mismatched_experiments_rejected(self):
        a = run_experiment("tower-verify", {"max_level": 1})
        b = run_experiment("tower-trace", {"pairs": 1})
        with pytest.raises(ReportMismatchError):
            diff_reports(a, b)

    def test_reordered_checks_differ(self):
        """Checks [p, q] against [q, p]: every check is unchanged, so the
        one entry is the two name sequences."""
        p, q = _check("p", "pass"), _check("q", "pass")
        diffs = diff_reports(_synthetic([p, q]), _synthetic([q, p]))
        assert diffs == [{"field": "check_names", "left": ["p", "q"], "right": ["q", "p"]}]

    def test_a_repeated_name_keeps_its_failed_check(self):
        """[p: fail, p: pass] against [p: pass]: the name sequences differ,
        the first p's changed to pass, and the second p is left only."""
        diffs = diff_reports(
            _synthetic([_check("p", "fail"), _check("p", "pass")]), _synthetic([_check("p", "pass")])
        )
        assert diffs == [
            {"field": "check_names", "left": ["p", "p"], "right": ["p"]},
            {"check": "p", "changed": {"status": ("fail", "pass")}},
            {"check": "p", "left": _check("p", "pass"), "right": None},
        ]

    def test_a_repeated_name_compares_by_occurrence(self):
        """[p: fail, p: pass] against [p: pass, p: pass]: the same names,
        and the first occurrences differ."""
        left = _synthetic([_check("p", "fail"), _check("p", "pass")])
        right = _synthetic([_check("p", "pass"), _check("p", "pass")])
        assert diff_reports(left, right) == [{"check": "p", "changed": {"status": ("fail", "pass")}}]

    @settings(max_examples=200, deadline=None)
    @given(
        left=st.lists(st.tuples(st.sampled_from("pqr"), st.sampled_from(["pass", "fail"])), max_size=4),
        right=st.lists(st.tuples(st.sampled_from("pqr"), st.sampled_from(["pass", "fail"])), max_size=4),
    )
    def test_empty_exactly_when_the_checks_are_equal(self, left, right):
        a = _synthetic([_check(*c) for c in left])
        b = _synthetic([_check(*c) for c in right])
        assert (diff_reports(a, b) == []) == (left == right) == (a.fingerprint() == b.fingerprint())


def _check(name: str, status: str) -> dict:
    return {"name": name, "status": status}


def _synthetic(checks: list) -> ExperimentReport:
    """A tower-verify report with the given checks and nothing run."""
    return ExperimentReport("tower-verify", {"max_level": 1}, checks)


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

    @pytest.mark.parametrize("where", ["missing_directory", "path_is_a_directory", "empty_path"])
    def test_unwritable_report_path_is_a_config_error(self, tmp_path, capsys, where):
        path = {
            "missing_directory": tmp_path / "no" / "such" / "x.json",
            "path_is_a_directory": tmp_path,
            "empty_path": "",
        }[where]
        code = main(["tower-verify", "--max-level", "1", "--report", str(path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
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

    def test_charp_accepts_the_largest_prime_below_the_limit(self, capsys):
        # no golden multiplier is recorded for p = 97, so the run exits 1
        assert main(["charp", "--p", "97", "--e-max", "2"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["config"]["p"] == 97
        assert {c["name"].split("/")[0] for c in body["checks"]} == {"p97"}

    @pytest.mark.parametrize(
        "p, e_max, deg_bound, refused",
        [
            # the largest p^e_max below 2^19 at each e_max, then the next prime
            (79, 3, 6, False),
            (83, 3, 0, True),
            (23, 4, 6, False),
            (29, 4, 0, True),
            (97, 3, 3, True),
            (97, 4, 3, True),
        ],
    )
    def test_charp_refuses_unreachable_exponents_up_front(self, capsys, monkeypatch, p, e_max, deg_bound, refused):
        """A configuration whose Frobenius powers would leave the packed
        exponent range exits 2 with one line before any arithmetic; its
        neighbour below the limit runs (and exits 1: no golden value)."""
        argv = ["charp", "--p", str(p), "--e-max", str(e_max), "--deg-bound", str(deg_bound)]
        if refused:
            monkeypatch.setattr(charp, "contrast_row", lambda *a, **k: pytest.fail("arithmetic ran"))
        assert main(argv) == (2 if refused else 1)
        captured = capsys.readouterr()
        if refused:
            assert captured.out == ""
            assert captured.err == (
                f"config error: charp: p = {p} with e_max = {e_max} and deg_bound = {deg_bound} "
                f"may form exponents up to {p ** e_max + deg_bound}, past the packed limit {EXP_LIMIT - 1}\n"
            )
        else:
            assert captured.err == ""
            assert json.loads(captured.out)["config"] == {"p": p, "e_max": e_max, "deg_bound": deg_bound}

    def test_flags_come_from_the_schemas(self, capsys):
        """Each experiment accepts a flag per schema field, --report and
        --format, and its --help names exactly those, each with its
        description and default."""
        for name, schema in SCHEMAS.items():
            expected = {
                "--" + field.replace("_", "-"): (description, default)
                for field, (default, _, _, description) in schema.items()
            }
            expected["--report"] = ("write the report to this file", "stdout")
            expected["--format"] = ("json or text", "json")
            # the flags are read left to right, so each is accepted before
            # --help is reached; an unknown one exits 2 first
            argv = [name] + [a for flag in expected for a in (flag, "text")] + ["--help"]
            assert main(argv) == 0, name
            captured = capsys.readouterr()
            assert captured.err == ""
            lines = {line.split()[0]: line for line in captured.out.splitlines() if line.startswith("  --")}
            assert set(lines) == set(expected), name
            for flag, (description, default) in expected.items():
                assert f"{description} (default: {default})" in lines[flag], (name, flag)
            assert main([name, "--no-such-flag", "1", "--help"]) == 2
            capsys.readouterr()

    def test_help_lists_the_commands(self, capsys):
        for argv in (["--help"], ["-h"]):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            commands = [line.split()[0] for line in captured.out.splitlines() if line.startswith("  ")]
            assert commands == list(SCHEMAS) + ["diff"]
        assert main(["diff", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: closurelab diff LEFT RIGHT\n")

    def test_importing_the_cli_leaves_argparse_out(self):
        """The command line is parsed without argparse.  pytest imports
        argparse itself, so a fresh interpreter without site checks."""
        src = str(pathlib.Path(closurelab.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import closurelab.cli; sys.exit('argparse' in sys.modules)"
        assert subprocess.run([sys.executable, "-I", "-S", "-c", code]).returncode == 0

    def test_flag_grammar(self, capsys):
        """--flag VALUE and --flag=VALUE, a value that starts with '-', and
        the last of a repeated flag wins."""
        assert main(["tower-trace", "--pairs", "1", "--seed", "-5", "--pairs=2", "--format=json"]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {"pairs": 2, "seed": -5}

    @pytest.mark.parametrize(
        "argv",
        [
            ["charp", "--bogus", "1"],
            ["charp", "--p"],
            ["charp", "--format", "xml"],
            ["nope"],
            [],
            ["diff", "left.json"],
            ["diff", "a.json", "b.json", "c.json"],
            ["charp", "--e-m", "2"],
            ["charp", "7"],
        ],
        ids=[
            "unknown_flag",
            "flag_without_value",
            "bad_format",
            "unknown_command",
            "missing_command",
            "diff_with_one_path",
            "diff_with_three_paths",
            "abbreviated_flag",
            "stray_argument",
        ],
    )
    def test_malformed_command_line_is_one_error_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

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
        "left, right",
        [
            ([("p", "pass"), ("q", "pass")], [("q", "pass"), ("p", "pass")]),
            ([("p", "fail"), ("p", "pass")], [("p", "pass")]),
        ],
        ids=["reordered", "repeated_name"],
    )
    def test_diff_exits_1_for_checks_that_differ(self, tmp_path, capsys, left, right):
        """Reports whose check lists differ in order or in a repeated name
        diff to exit 1, and the printed diff names every check."""
        paths = []
        for side, checks in (("left", left), ("right", right)):
            path = tmp_path / f"{side}.json"
            path.write_text(_synthetic([_check(*c) for c in checks]).to_json())
            paths.append(str(path))
        capsys.readouterr()
        assert main(["diff", *paths]) == 1
        out = json.loads(capsys.readouterr().out)
        assert {"field": "check_names", "left": [n for n, _ in left], "right": [n for n, _ in right]} in out
        assert main(["diff", paths[0], paths[0]]) == 0

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
        "document, key",
        [
            ({"alpha": "x", "oracel": {"mode": "scripted", "steps": []}}, "oracel"),
            ({"alpha": "x", "oracle": {"mode": "adversarial", "sead": 4}}, "sead"),
            ({"alpha": "x", "oracle": {"mode": "scripted", "steps": [{"a": "x", "b": "0", "c": "0", "d": "0"}]}}, "d"),
        ],
        ids=["misspelt_oracle", "misspelt_seed", "unknown_step_key"],
    )
    def test_unknown_input_key_is_named(self, tmp_path, capsys, document, key):
        """A misspelt key is refused, not read as its default."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(document))
        assert main(["padic", "--samples", "0", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: padic: bad input document:")
        assert f"unknown key {key!r}" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

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
        # every level's identities, through level 6 (deeper than any workload)
        "tower-verify --max-level 6": "4d657803dabdc0d60e8de9710ed85a6bb99c762fbcb74b8854f6c778311e4236",
        "tower-colon": "5b3c6a018001ab07f73bcffb76587af6e3c3ddbdfad2358944c8fcb06e362123",
        "isogeny": "c8b2c6acf12a96810a19060a4823e7f60b28c527fce41cac92258dba250cb04c",
        # the digit lifting of membership_digits at one and at three digits
        "isogeny --n 1": "20cadebced912ece0d3d70d821483177f2afe7b12df971408b363dc3e487d09e",
        "isogeny --n 3": "54b86308094fb1b923e72d08e6d8570be97d52f51071d6c92e53a14c317022e8",
        "padic": "a26c67452daf52b827b1c8d7153f38df96ea333d50832f74871dc2e7ad90acc9",
        "charp --p 7": "974051447e60ae7309b56bc0df2090085320437e6742c6c285fb4c14a95195cc",
        "tower-trace --pairs 10": "08ae18a7bb80dc7e057b7090465e423c652ea6b7024f1dd0e3db02e238d14a28",
        # perfbench's tower-deep op: products of up to 82 terms over Q(zeta_9)
        "tower-colon --max-level 5": "63f622c944e870aa02c1303052a09b07fbed1a2957b3a7bd3a7d140efb1b5880",
        # perfbench's charp-matrix op (every p) and its padic-stress op at
        # seeds 53 and 0; the random draws of a seeded run must not change
        "charp --p 0 --e-max 2 --deg-bound 3": "efc77164058fffbdeaa3777540705057c6a8ca17430bb7afef03cdb083d98eb5",
        "padic --precision 8 --samples 20 --seed 53": "4942a02e36cb93a60d5f84c5a1d6f0187fc1db745ae45275d16840847a3a8566",
        "padic --precision 8 --samples 20 --seed 0": "e8ed49fc465045a9c92787b7cabc7d75b3034a6aa8f8e0c445c26054705a9089",
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
    def test_failing_charp_fingerprint(self, capsys, command):
        assert main(command.split()) == 1
        assert json.loads(capsys.readouterr().out)["fingerprint"] == self.PINNED_FAILING[command]


class TestGoldenFixtures:
    def test_recorded_multiplier_matches(self):
        report = run_experiment("charp", {"p": 7})
        golden = [c for c in report.checks if c["name"] == "p7/golden_multiplier"]
        assert golden and golden[0]["status"] == "pass"
        assert golden[0]["golden"] == "match"

    def test_fixture_mismatch_detected(self, monkeypatch):
        monkeypatch.setitem(GOLDEN, "charp_p7_emax2_deg3", {"multiplier": "y", "degree": 1})
        report = run_experiment("charp", {"p": 7})
        golden = [c for c in report.checks if c["name"] == "p7/golden_multiplier"][0]
        assert golden["status"] == "fail"
        assert golden["golden"] == "mismatch"
        assert golden["expected"] == {"multiplier": "y", "degree": 1}
        assert golden["actual"] == {"multiplier": "x", "degree": 1}
        assert not report.passed

    def test_missing_fixture_fails_without_record_flag(self, monkeypatch):
        monkeypatch.delitem(GOLDEN, "charp_p7_emax2_deg3")
        report = run_experiment("charp", {"p": 7})
        golden = [c for c in report.checks if c["name"] == "p7/golden_multiplier"][0]
        assert golden == {"name": "p7/golden_multiplier", "status": "fail", "golden": "missing fixture"}

    def test_the_environment_records_nothing(self, tmp_path, capsys, monkeypatch):
        """The golden values are a constant table: an unpinned configuration
        fails its golden check whatever the environment says, and the run
        writes no file."""
        stray = tmp_path / "fixtures"
        stray.write_text("not a directory\n")
        monkeypatch.setenv("CLOSURELAB_RECORD", "1")
        monkeypatch.setenv("CLOSURELAB_FIXTURES", str(stray))
        assert main(["charp", "--p", "7", "--e-max", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        pinned = TestPinnedFingerprints.PINNED_FAILING["charp --p 7 --e-max 3"]
        assert json.loads(captured.out)["fingerprint"] == pinned
        assert stray.read_text() == "not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["fixtures"]


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


def _schema_flags(command):
    return ["--" + field.replace("_", "-") for field in SCHEMAS[command]] + ["--report", "--format"]


@st.composite
def _malformed(draw):
    """A command line the parser refuses before any experiment runs: an
    unknown flag, a flag with no value, a bad --format, an unknown or
    missing command, diff without exactly two paths, an abbreviated flag."""
    commands = [*SCHEMAS, "diff", "--help", "-h"]
    kind = draw(st.sampled_from(["unknown_flag", "no_value", "format", "command", "diff", "abbreviation"]))
    if kind == "command":
        return draw(st.one_of(st.just([]), st.text(max_size=8).filter(lambda c: c not in commands).map(lambda c: [c])))
    if kind == "diff":
        return ["diff", *draw(st.sampled_from([[], ["@left.json"], ["@left.json"] * 3]))]
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    flags = _schema_flags(name)
    if kind == "unknown_flag":
        flag = draw(st.text(max_size=8).map(lambda t: "--" + t.partition("=")[0]).filter(lambda f: f not in flags + ["--help"]))
        return [name, flag, "1"]
    if kind == "no_value":
        return [name, draw(st.sampled_from(flags))]
    if kind == "format":
        return [name, "--format", draw(st.text(max_size=6).filter(lambda f: f not in ("json", "text")))]
    prefixes = [flag[:k] for flag in flags for k in range(3, len(flag)) if flag[:k] not in flags]
    return [name, draw(st.sampled_from(prefixes)), "2"]


def _padic_input(body, *flags):
    return ["padic", *flags, "--input", "@input.json"], {"input.json": body}


@st.composite
def _invocations(draw):
    """(argv, files): a command line and the documents it reads, by name;
    an argument ``@name`` stands for that file in a scratch directory, and
    ``@`` alone for the directory."""
    kind = draw(st.sampled_from(["padic_input", "diff", "cheap", "charp", "malformed"]))
    if kind == "malformed":
        return draw(_malformed()), {"left.json": b"{}"}
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
    @example(case=_padic_input(_dump({"alpha": "x", "oracel": {"mode": "scripted", "steps": []}})))
    @example(case=_padic_input(_dump({"alpha": "x", "oracle": {"mode": "adversarial", "sead": 4}})))
    @example(case=_padic_input(b"{}" + b" " * (INPUT_BYTE_LIMIT - 1)))
    @example(case=(["diff", "@left.json", "@right.json"], {"left.json": b"[" * 100000, "right.json": b"{}"}))
    def test_exit_codes_and_error_lines(self, tmp_path, case):
        """Every run exits 0, 1 or 2 without a traceback, and exit 2 comes
        with exactly one ``error:`` or ``config error:`` line."""
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
