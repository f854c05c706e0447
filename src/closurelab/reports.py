"""Experiment reports with canonical serialization and fingerprints.

Reports are JSON-compatible documents; every exact value is rendered as a
fraction or polynomial string, never a float.  The fingerprint is a SHA-256
over the canonical serialization of everything except the engine version,
so two runs with identical inputs produce byte-identical bodies and reports
from different engine versions still compare equal when the results agree.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from . import __version__ as ENGINE_VERSION

_FINGERPRINT_FIELDS = ("experiment", "config", "checks")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ReportMismatchError(ValueError):
    """diff_reports was handed reports of different experiments."""


class ExperimentReport:
    def __init__(self, experiment: str, config: dict, checks: list):
        self.experiment = experiment
        self.config = config
        self.checks = checks
        self.engine_version = ENGINE_VERSION

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def fingerprint(self) -> str:
        return self._fingerprint(canonical_json(self.checks))

    def _fingerprint(self, checks: str) -> str:
        """The fingerprint from the checks' canonical JSON: SHA-256 of the
        canonical JSON of the fingerprinted fields (keys sorted), fed to
        the hash in pieces rather than joined first."""
        digest = hashlib.sha256(b'{"checks":')
        digest.update(checks.encode("utf-8"))
        digest.update(f',"config":{canonical_json(self.config)},"experiment":'.encode("utf-8"))
        digest.update(f"{canonical_json(self.experiment)}}}".encode("utf-8"))
        return digest.hexdigest()

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "checks": self.checks,
            "engine_version": self.engine_version,
            "fingerprint": self.fingerprint(),
        }

    def to_json(self) -> str:
        """``canonical_json(self.to_dict())``, with the checks serialized
        once for both the fingerprint and the body, which is one join."""
        checks = canonical_json(self.checks)
        return "".join((
            '{"checks":', checks,
            ',"config":', canonical_json(self.config),
            ',"engine_version":', canonical_json(self.engine_version),
            ',"experiment":', canonical_json(self.experiment),
            ',"fingerprint":"', self._fingerprint(checks), '"}',
        ))

    def to_text(self) -> str:
        lines = [f"experiment: {self.experiment}"]
        for key in sorted(self.config):
            lines.append(f"  config {key} = {self.config[key]}")
        for c in self.checks:
            status = "PASS" if c["status"] == "pass" else "FAIL"
            extras = {k: v for k, v in c.items() if k not in ("name", "status")}
            tail = "" if not extras else "  " + canonical_json(extras)
            lines.append(f"[{status}] {c['name']}{tail}")
        lines.append(f"fingerprint: {self.fingerprint()}")
        lines.append(f"engine: {self.engine_version}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        """Raises ValueError for a document that is not a report, naming
        the first missing field."""
        if not isinstance(data, dict):
            raise ValueError("a report must be a JSON object")
        for field in _FINGERPRINT_FIELDS:
            if field not in data:
                raise ValueError(f"report lacks field {field!r}")
        checks = data["checks"]
        if not isinstance(checks, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str) for c in checks
        ):
            raise ValueError("report checks must be objects with a string 'name'")
        report = cls(data["experiment"], data["config"], checks)
        report.engine_version = data.get("engine_version", ENGINE_VERSION)
        return report


def _by_occurrence(checks: list) -> dict:
    """Each check keyed by its name and the number of earlier checks of
    that name, so a repeated name keeps every one of its checks."""
    seen = Counter()
    keyed = {}
    for c in checks:
        name = c["name"]
        keyed[name, seen[name]] = c
        seen[name] += 1
    return keyed


def diff_reports(a: ExperimentReport, b: ExperimentReport) -> list:
    """Structural differences between two reports of the same experiment.

    Empty iff the fingerprints match; the engine version is excluded.  When
    the sequences of check names differ (a check added, dropped, repeated or
    moved), one entry gives both sequences.  Each check is then compared
    with the check of the same name and occurrence on the other side (the
    first ``p`` with the first ``p``), in order of name."""
    if a.experiment != b.experiment:
        raise ReportMismatchError(
            f"cannot diff {a.experiment!r} against {b.experiment!r}"
        )
    diffs = []
    if a.config != b.config:
        diffs.append({"field": "config", "left": a.config, "right": b.config})
    names_a = [c["name"] for c in a.checks]
    names_b = [c["name"] for c in b.checks]
    if names_a != names_b:
        diffs.append({"field": "check_names", "left": names_a, "right": names_b})
    keyed_a, keyed_b = _by_occurrence(a.checks), _by_occurrence(b.checks)
    for key in sorted(set(keyed_a) | set(keyed_b)):
        ca, cb = keyed_a.get(key), keyed_b.get(key)
        if ca is None or cb is None:
            diffs.append({"check": key[0], "left": ca, "right": cb})
        elif ca != cb:
            fields = sorted(set(ca) | set(cb))
            changed = {f: (ca.get(f), cb.get(f)) for f in fields if ca.get(f) != cb.get(f)}
            diffs.append({"check": key[0], "changed": changed})
    return diffs
