"""Command-line front end.

Grammar::

    closurelab <experiment> [--<field> VALUE]... [--report PATH] [--format json|text]
    closurelab diff LEFT RIGHT
    closurelab [<command>] --help

Each experiment takes one ``--<field>`` flag per field of its schema in
``experiments.SCHEMAS`` (underscores written as dashes), plus ``--report``
and ``--format``.  Flags are spelled in full, as ``--flag VALUE`` or
``--flag=VALUE``.  The token after a flag is its value even when it starts
with ``-`` (``--seed -5``), and of a repeated flag the last one wins.  A
field's text goes to the experiment's validator unchanged, which casts it
and checks its bound; an unset flag leaves the schema default.  Help goes
to stdout and exits 0.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 a malformed
command line, a configuration error, a --report path that cannot be
written or a ``diff`` input that is not a report.  Exit 2 comes with one
``error:`` or ``config error:`` line on stderr.  Reports go to stdout or
--report, as canonical JSON or as text.
"""

from __future__ import annotations

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
    "diff": "structural diff of two report files",
}

_HELP_FLAGS = ("--help", "-h")
_FORMATS = ("json", "text")


class UsageError(Exception):
    """A malformed command line; the message says what is wrong."""


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _table(rows) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "".join(f"  {left.ljust(width)}{right}\n" for left, right in rows)


def _help(command: str | None) -> str:
    """The help text for ``command``, or for the program when it is None."""
    if command is None:
        return (
            "usage: closurelab <command> [--<flag> VALUE]...\n\n"
            "Exact verification experiments: Fermat cubic tower, characteristic-p\n"
            "closures, Hesse doubling, p-adic approximation.\n\n"
            "commands:\n" + _table(_SUMMARIES.items()) + "\n"
            "'closurelab <command> --help' lists the command's flags.\n"
        )
    if command == "diff":
        return f"usage: closurelab diff LEFT RIGHT\n\n{_SUMMARIES['diff']}\n"
    rows = [
        (_flag(field) + " VALUE", f"{description} (default: {default})")
        for field, (default, _, _, description) in SCHEMAS[command].items()
    ]
    rows.append(("--report PATH", "write the report to this file (default: stdout)"))
    rows.append(("--format FORMAT", "json or text (default: json)"))
    return f"usage: closurelab {command} [--<flag> VALUE]...\n\n{_SUMMARIES[command]}\n\nflags:\n" + _table(rows)


def _parse(argv: list) -> tuple:
    """(command, values) for a command line, or ("help", text) when it asks
    for help.  For an experiment, values maps each given field, "report"
    and "format" to its text; for ``diff`` it is the two paths.  A malformed
    line raises UsageError."""
    if not argv:
        raise UsageError(f"no command given; choose from {', '.join(_SUMMARIES)}")
    command, rest = argv[0], argv[1:]
    if command in _HELP_FLAGS:
        return "help", _help(None)
    if command not in _SUMMARIES:
        raise UsageError(f"unknown command {command!r}; choose from {', '.join(_SUMMARIES)}")
    if command == "diff":
        if any(arg in _HELP_FLAGS for arg in rest):
            return "help", _help(command)
        if len(rest) != 2:
            raise UsageError(f"diff takes two report paths, got {len(rest)}")
        return command, rest

    keys = {_flag(field): field for field in SCHEMAS[command]}
    keys["--report"], keys["--format"] = "report", "format"
    values = {}
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP_FLAGS:
            return "help", _help(command)
        flag, eq, value = token.partition("=")
        if flag not in keys:
            what = f"flag {flag!r}" if token.startswith("-") else f"argument {token!r}"
            raise UsageError(f"{command}: unknown {what}; the flags are {', '.join(keys)}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{command}: {flag} needs a value")
        values[keys[flag]] = value
    if values.get("format", "json") not in _FORMATS:
        raise UsageError(f"{command}: --format must be json or text, got {values['format']!r}")
    return command, values


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
    try:
        command, values = _parse(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if command == "help":
        sys.stdout.write(values)
        return EXIT_PASS

    if command == "diff":
        left, right = values
        try:
            diffs = diff_reports(_read_report(left), _read_report(right))
        # reports of different experiments raise ReportMismatchError
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
        print(json.dumps(diffs, indent=2, sort_keys=True))
        return EXIT_PASS if not diffs else EXIT_CHECK_FAILED

    report_path = values.pop("report", None)
    fmt = values.pop("format", "json")
    try:
        report = run_experiment(command, values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    body = report.to_json() + "\n" if fmt == "json" else report.to_text()
    if report_path is not None:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    else:
        sys.stdout.write(body)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
