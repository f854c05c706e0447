"""One benchmark op: a fresh interpreter that runs ``closurelab <argv>``.

Usage: ``python3 perfbench/child.py '<json spec>'`` with the spec keys
``argv`` (the closurelab command line), ``trace`` (bool) and ``op_id``.

The op imports ``closurelab.cli`` from the checkout's ``src`` directory,
calls ``cli.main(argv)`` with the report captured, recomputes the report's
fingerprint independently of the package, and prints one JSON line to its
real standard output.  Every ``lru_cache`` starts cold, as on the command
line.  Clock readings use ``time.monotonic``, which is system-wide on Linux,
so the parent can subtract its spawn time from ``ready``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def recomputed_fingerprint(report: dict) -> str:
    """SHA-256 over the canonical JSON of the fingerprinted fields, written
    here from the report format rather than taken from the package."""
    core = {k: report[k] for k in ("experiment", "config", "checks")}
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    from closurelab import cli

    ready = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"closurelab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    out = {"ready": ready}
    if spec.get("argv") is None:  # a set-up probe
        print(json.dumps(out))
        return 0

    tracer = before = None
    if spec["trace"]:
        import layers  # this script's directory is on sys.path

        before = layers.snapshot()
        tracer = layers.Tracer(spec["op_id"])
        tracer.install()

    captured = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(captured):
        rc = cli.main(list(spec["argv"]))  # looked up now: wrapped when tracing
    report = json.loads(captured.getvalue())
    out.update(
        rc=rc,
        fingerprint=report.get("fingerprint"),
        recomputed=recomputed_fingerprint(report),
        all_passed=all(c.get("status") == "pass" for c in report["checks"]),
    )
    out["run_s"] = time.monotonic() - t0

    if tracer is not None:
        tracer.uninstall()
        out["restore_errors"] = layers.changed_since(before)
        out["totals"] = tracer.totals
        out["unbound"] = tracer.unbound
        out["caches"] = tracer.cache_stats()
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
