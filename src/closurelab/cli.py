"""Command-line front end.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 configuration
error, a --report path that cannot be written or a ``diff`` input that is
not a report.  Reports go to stdout or --report, as canonical JSON or as
text.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import SCHEMAS, ConfigError, run_experiment
from .reports import ExperimentReport, diff_reports

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2


_SUMMARIES = {
    "tower-verify": "exact identity checks for tower levels",
    "tower-colon": "low-valuation colon certificates and z^2 membership",
    "tower-trace": "group-average retraction properties",
    "charp": "Frobenius and tight closure tests",
    "isogeny": "Hesse doubling lift and membership mod p^n",
    "padic": "successive approximation on the truncated model",
    "all": "run every experiment with defaults",
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per experiment with a --<field> flag per schema field.

    Flags hand the raw text to the experiment's validator, which casts it
    and checks its bound; an unset flag leaves the schema default."""
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="Exact verification experiments: Fermat cubic tower, "
        "characteristic-p closures, Hesse doubling, p-adic approximation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, schema in SCHEMAS.items():
        sp = subs.add_parser(name, help=_SUMMARIES[name])
        for field, (default, _, _, description) in schema.items():
            sp.add_argument(
                "--" + field.replace("_", "-"),
                dest=field,
                default=None,
                help=f"{description} (default: {default})",
            )
        sp.add_argument("--report", metavar="PATH", help="write the report to this file")
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = subs.add_parser("diff", help="structural diff of two report files")
    sp.add_argument("left")
    sp.add_argument("right")

    return parser


def _read_report(path: str) -> ExperimentReport:
    """The report in a ``diff`` input file; any failure is a ValueError
    that starts with the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return ExperimentReport.from_dict(json.load(fh))
    # ValueError covers bad JSON, text that is not UTF-8 and a document
    # that is not a report; RecursionError JSON nested past the interpreter's
    # recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "diff":
        try:
            diffs = diff_reports(_read_report(args.left), _read_report(args.right))
        # reports of different experiments raise ReportMismatchError
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        print(json.dumps(diffs, indent=2, sort_keys=True))
        return EXIT_PASS if not diffs else EXIT_CHECK_FAILED

    config = {}
    for field in SCHEMAS[args.command]:
        value = getattr(args, field)
        if value is not None:
            config[field] = value
    try:
        report = run_experiment(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    body = report.to_json() + "\n" if args.format == "json" else report.to_text()
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    else:
        sys.stdout.write(body)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
