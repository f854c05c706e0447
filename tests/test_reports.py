import argparse
import json

import pytest

from closurelab.cli import build_parser, main
from closurelab.experiments import SCHEMAS, ConfigError, run_experiment
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
        assert capsys.readouterr().err.startswith("config error:")

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

    def test_padic_input_document(self, tmp_path):
        doc = tmp_path / "input.json"
        doc.write_text(json.dumps({"alpha": "x*y + 5*y^2", "oracle": {"mode": "adversarial", "seed": 2}}))
        report = tmp_path / "out.json"
        code = main(["padic", "--p", "5", "--precision", "3", "--input", str(doc), "--report", str(report)])
        assert code == 0
        body = json.loads(report.read_text())
        assert any(c["name"].startswith("input_alpha/") for c in body["checks"])

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
        ],
    )
    def test_bad_padic_input_is_a_config_error(self, tmp_path, capsys, document):
        path = tmp_path / "input.json"
        if document is not None:
            path.write_text(document if isinstance(document, str) else json.dumps(document))
        assert main(["padic", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
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
    }

    @pytest.mark.parametrize("command", list(PINNED), ids=lambda c: c.replace(" --", "_").replace(" ", "_"))
    def test_default_fingerprint(self, capsys, command):
        assert main(command.split()) == 0
        assert json.loads(capsys.readouterr().out)["fingerprint"] == self.PINNED[command]


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
