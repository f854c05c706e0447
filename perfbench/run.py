"""closurelab benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload colon-elim --seed 0 --seconds 30 --trace 0

Closed loop, one client: each op is one ``closurelab <experiment> ...``
invocation in a fresh interpreter (``perfbench/child.py``), started through
``perfbench/launcher.py`` only after the previous op has ended.  The runner,
the launcher and the ops are pinned to one CPU, where the runner also
measures the machine's speed (see "machine-speed calibration" below).
Plain ops share no cache across processes: every ``lru_cache`` in the
package starts cold in every op, as it does on the command line.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` alternates plain and traced ops and reports the per-layer
metrics, the tracing overhead, and fails if a traced op's fingerprint
differs from the plain one.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable table.  The full record (run stamp,
every op, the spans of traced ops) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 6  # timed set-up probes per run, after one untimed warm-up
TRACE_SLOWDOWN = 4  # a traced op may take this many times the plain limit
RUN_DEADLINE_S = 165.0  # no op may end later than this after the start


@dataclass(frozen=True)
class Workload:
    argv: tuple  # closurelab command line; "{seed}" is replaced by --seed
    limit_s: float  # an op that runs longer is killed and counts as failed

    @property
    def seeded(self) -> bool:
        return "{seed}" in self.argv

    def command(self, seed: int) -> list:
        return [a.replace("{seed}", str(seed)) for a in self.argv]


# Why each workload exists is in BENCHMARK.json and README.md.  Per-op limits
# are about ten times the op's run time on the reference machine.
WORKLOADS = {
    "colon-elim": Workload(("tower-colon",), 10.0),
    "tower-deep": Workload(("tower-colon", "--max-level", "5"), 45.0),
    "charp-matrix": Workload(("charp", "--p", "0", "--e-max", "2", "--deg-bound", "3"), 60.0),
    "padic-stress": Workload(("padic", "--precision", "8", "--samples", "20", "--seed", "{seed}"), 30.0),
}


# ---------------------------------------------------------------------------
# machine-speed calibration
#
# The reference machine's speed drifts by 10-40 % within seconds, differently on each
# of its two vCPUs, and the drift is shared by all pure-Python work on a
# vCPU.  The runner, the launcher and every op are pinned to one CPU, and
# the runner measures that CPU's speed with a fixed stdlib-only kernel in
# two ways: a batch of long kernel runs before every spawn and after the
# last, and a short kernel every 100 ms from a thread, which preempts the op
# for about 1 % of its time and so sees speed changes during long ops.  Each
# spawn's times are multiplied by the geometric mean of the two speed
# factors (reference time over measured median).  The kernel never touches
# closurelab, so a change to the package cannot move it.  Kernel times are
# thread CPU times, so the two runner threads do not inflate each other's.

BATCH_ITERATIONS = 3000
BATCH_REPEATS = 3
MICRO_ITERATIONS = 250
MICRO_PERIOD_S = 0.1
# Median kernel times on the reference machine (2-core VM, Python 3.11.7).
BATCH_REF_S = 0.0190
MICRO_REF_S = 0.0012


def kernel(iterations: int) -> float:
    """Thread CPU seconds for a fixed mix of Fraction sums, tuple keys,
    dict updates and sorted/max with a key."""
    t0 = time.thread_time()
    table = {}
    acc = Fraction(0)
    for i in range(1, iterations):
        acc += Fraction(i % 7, i % 11 + 1)
        key = (i % 13, i % 17, i % 19)
        table[key] = table.get(key, 0) + i
        if i % 500 == 0:
            max(sorted(table.items()), key=lambda kv: (kv[1], kv[0]))
    return time.thread_time() - t0


class MicroSampler(threading.Thread):
    """Times the short kernel every MICRO_PERIOD_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []  # (time.monotonic at start, thread CPU seconds)
        self._stopped = threading.Event()

    def run(self):
        while not self._stopped.wait(MICRO_PERIOD_S):
            self.samples.append((time.monotonic(), kernel(MICRO_ITERATIONS)))

    def stop(self):
        self._stopped.set()
        self.join()


# ---------------------------------------------------------------------------
# one op


@dataclass
class Op:
    traced: bool
    ok: bool = False
    reason: str = ""
    setup_s: float | None = None
    run_s: float | None = None
    wall_s: float = 0.0
    rss_mib: float | None = None
    fingerprint: str | None = None
    payload: dict | None = None
    started: float = 0.0  # time.monotonic at spawn
    batch: int = 0  # index of the kernel batch taken before this spawn


class Runner:
    """Starts ops through ``launcher.py``, all pinned to one CPU, and
    calibrates them; ``factor`` is valid after ``close``."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.launcher = subprocess.Popen(
            [sys.executable, "-E", "-S", str(BENCH_DIR / "launcher.py")],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.batches = [self._batch()]
        self.micro = MicroSampler()
        self.micro.start()

    @staticmethod
    def _batch() -> list:
        return [kernel(BATCH_ITERATIONS) for _ in range(BATCH_REPEATS)]

    def close(self):
        self.micro.stop()
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, spec: dict, limit_s: float, traced: bool = False) -> Op:
        argv = [sys.executable, "-E", str(CHILD), json.dumps(spec)]
        self.launcher.stdin.write(json.dumps({"argv": argv, "limit_s": limit_s}) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        op = read_reply(reply, limit_s, traced)
        op.batch = len(self.batches) - 1
        self.batches.append(self._batch())
        return op

    def factor(self, op: Op) -> float:
        """Speed factor of one spawn: the batches around it and the short
        kernels during it; the batches alone for a spawn too short to hold
        a short kernel."""
        f_batch = BATCH_REF_S / statistics.median(self.batches[op.batch] + self.batches[op.batch + 1])
        during = [d for t, d in self.micro.samples if op.started <= t <= op.started + op.wall_s]
        if not during:
            return f_batch
        return math.sqrt(f_batch * MICRO_REF_S / statistics.median(during))


def read_reply(reply: dict, limit_s: float, traced: bool) -> Op:
    """Turn a launcher reply into an Op; an op that did not run to a result
    is marked failed with the reason."""
    op = Op(traced=traced, started=reply["started"])
    op.wall_s = reply["ended"] - reply["started"]
    op.rss_mib = reply["maxrss_kib"] / 1024.0
    if reply["timed_out"]:
        op.reason = f"over the {limit_s:.1f} s limit"
        return op
    if reply["status"] != 0:
        tail_lines = reply["err"].strip().splitlines()[-3:]
        op.reason = f"child exited {reply['status']}: {' | '.join(tail_lines)}"
        return op
    try:
        op.payload = json.loads(reply["out"].strip().splitlines()[-1])
    except (ValueError, IndexError):
        op.reason = "child printed no result"
        return op
    op.setup_s = op.payload["ready"] - reply["started"]
    op.run_s = op.payload.get("run_s")
    op.fingerprint = op.payload.get("recomputed")
    op.ok = True
    return op


def judge(op: Op, expected: str | None) -> None:
    """Mark an op failed unless the report is the pinned, passing one."""
    p = op.payload
    if not op.ok:
        return
    problems = []
    if p["rc"] != 0:
        problems.append(f"closurelab exited {p['rc']}")
    if not p["all_passed"]:
        problems.append("a report check failed")
    if p["fingerprint"] != p["recomputed"]:
        problems.append("reported fingerprint differs from the recomputed one")
    if expected is not None and p["recomputed"] != expected:
        problems.append(f"fingerprint {p['recomputed'][:12]} != pinned {expected[:12]}")
    if p.get("restore_errors"):
        problems.append(f"wrappers not restored: {p['restore_errors'][:3]}")
    if problems:
        op.ok = False
        op.reason = "; ".join(problems)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list) -> tuple:
    """(percentile, value, samples beyond it): the highest nearest-rank
    percentile with at least ten samples above it, or the maximum (p100)
    when the run has too few samples for that."""
    xs = sorted(values)
    n = len(xs)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def median_or_none(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# run stamp


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "closurelab").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    wl = WORKLOADS[workload]
    return {
        "workload": workload,
        "command": ["closurelab"] + wl.command(seed),
        "seed": seed,
        "seed_use": "drives --seed" if wl.seeded else "ignored: fixed by the mathematics",
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "clients": 1,
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(ops: list, probes: list, runner: Runner) -> tuple:
    """End-to-end values in reference-speed seconds, and notes holding the
    raw (unscaled) figures."""
    good = [op for op in ops if op.ok]
    run = [op.run_s * runner.factor(op) for op in good]
    pct, tail_value, beyond = tail(run) if run else (100, None, 0)
    setup_ops = [op for op in probes + ops if op.setup_s is not None]
    setups = [op.setup_s * runner.factor(op) for op in setup_ops]
    busy = sum(op.wall_s * runner.factor(op) for op in ops)
    raw_busy = sum(op.wall_s for op in ops)
    values = {
        "run_s": median_or_none(run),
        "run_s_tail": tail_value,
        "ops_per_s": len(good) / busy if busy > 0 else None,
        "setup_s": median_or_none(setups),
        "peak_rss_mib": median_or_none([op.rss_mib for op in good]),
        "fail_frac": (len(ops) - len(good)) / len(ops) if ops else None,
    }
    raw_run = median_or_none([op.run_s for op in good])
    raw_setup = median_or_none([op.setup_s for op in setup_ops])
    notes = {
        "run_s": f"n={len(run)}, raw {raw_run:.4f} s" if run else "n=0",
        "run_s_tail": f"p{pct}, n={len(run)}, {beyond} beyond",
        "ops_per_s": f"{len(good)} ops in {raw_busy:.2f} s raw",
        "setup_s": f"n={len(setups)}, raw {raw_setup:.4f} s" if setups else "n=0",
        "peak_rss_mib": "child ru_maxrss via wait4",
        "fail_frac": f"{len(ops) - len(good)}/{len(ops)}",
    }
    return values, notes


def per_layer(plain: list, traced: list) -> tuple:
    good = [op for op in traced if op.ok]
    values, notes = {}, {}
    if not good:
        return values, notes
    layers = {}
    for op in good:
        for layer, fields in op.payload["totals"].items():
            for field, v in fields.items():
                layers.setdefault((layer, field), []).append(v)
    for (layer, field), vs in layers.items():
        values[f"{layer}.{field}"] = statistics.fmean(vs) if field != "self_s" else statistics.median(vs)
    for layer in {layer for layer, _ in layers}:
        calls = values.get(f"{layer}.calls", 0)
        if f"{layer}.zero" in values:
            values[f"{layer}.zero_frac"] = values[f"{layer}.zero"] / calls if calls else 0.0
        if f"{layer}.basis_size" in values:
            values[f"{layer}.basis_size"] = values[f"{layer}.basis_size"] / calls if calls else 0.0
    for group in good[0].payload["caches"]:
        hits = sum(op.payload["caches"][group]["hits"] for op in good)
        misses = sum(op.payload["caches"][group]["misses"] for op in good)
        values[f"{group}.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
        notes[f"{group}.hit_frac"] = f"{hits} hits, {misses} misses over {len(good)} ops"
    unbound = sorted({u for op in good for u in op.payload["unbound"]})
    if unbound:
        notes["unbound"] = f"not found in the package, read 0: {unbound}"
    plain_run = median_or_none([op.run_s for op in plain if op.ok])
    traced_run = statistics.median(op.run_s for op in good)
    values["trace.plain_run_s"] = plain_run
    values["trace.traced_run_s"] = traced_run
    values["trace.overhead_s"] = traced_run - plain_run if plain_run is not None else None
    notes["trace.overhead_s"] = f"{len([o for o in plain if o.ok])} plain, {len(good)} traced ops"
    return values, notes


# ---------------------------------------------------------------------------


def measure(runner: Runner, args, command: list, limit_s: float, expected: str | None):
    """Set-up probes, then the closed loop.  Returns (probes, plain ops,
    traced ops), or Nones when closurelab cannot even be imported."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    # set-up probes: spawn, import closurelab, exit; the first one may
    # compile bytecode in a fresh checkout and is not timed
    probes = []
    for i in range(SETUP_PROBES + 1):
        probe = runner.spawn({"argv": None}, limit_s=30.0)
        if not probe.ok:
            print(f"error: set-up probe failed: {probe.reason}", file=sys.stderr)
            return None, None, None
        if i:
            probes.append(probe)

    plain, traced = [], []
    loop_start = time.monotonic()
    n = 0
    while True:
        now = time.monotonic()
        # stop once another op would end past the window by more than half
        # an op, so that a run lasts about --seconds whatever the op length
        typical = statistics.median(op.wall_s for op in plain) if plain else 0.0
        if n and now - loop_start + typical / 2 >= args.seconds and (not args.trace or (plain and traced)):
            break
        want_trace = bool(args.trace) and n % 2 == 1
        if deadline - now <= 1.0:
            break
        limit = min(limit_s * (TRACE_SLOWDOWN if want_trace else 1), deadline - now)
        op = runner.spawn({"argv": command, "trace": want_trace, "op_id": n}, limit, traced=want_trace)
        if expected is None:  # unpinned seed: every op must agree with the first
            judge(op, next((o.fingerprint for o in plain + traced if o.ok), None))
        else:
            judge(op, expected)
        (traced if want_trace else plain).append(op)
        n += 1
    return probes, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "closurelab" / "cli.py").is_file():
        print(f"error: no closurelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pins = json.loads((BENCH_DIR / "pins.json").read_text())[args.workload]
    wl = WORKLOADS[args.workload]
    expected = pins.get(str(args.seed)) if wl.seeded else pins["*"]
    command = wl.command(args.seed)
    runner = Runner()
    try:
        probes, plain, traced = measure(runner, args, command, wl.limit_s, expected)
    finally:
        runner.close()
    if probes is None:
        return 2
    ops = plain + traced

    if args.trace:
        plain_fps = {op.fingerprint for op in plain if op.ok}
        for op in traced:
            if op.ok and op.fingerprint not in plain_fps:
                op.ok, op.reason = False, "traced fingerprint differs from the plain run"
        values, notes = per_layer(plain, traced)
    else:
        values, notes = end_to_end(plain, probes, runner)

    failed = sum(not op.ok for op in ops)
    metrics, missing = {}, []
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    correct = failed == 0 and not missing

    record = {
        "stamp": stamp(args.workload, args.seed, args.seconds, bool(args.trace)),
        "expected_fingerprint": expected,
        "fingerprints": sorted({op.fingerprint for op in ops if op.fingerprint}),
        "values": values,
        "notes": notes,
        "ops": [
            {k: getattr(op, k) for k in ("traced", "ok", "reason", "setup_s", "run_s", "wall_s", "rss_mib", "batch")}
            for op in ops
        ],
        "setup_probes_s": [p.setup_s for p in probes],
        "kernel_ref_s": {"batch": BATCH_REF_S, "micro": MICRO_REF_S},
        "kernel_batches_s": runner.batches,
        "micro_kernel_s": runner.micro.samples,
        "speed_factors": [runner.factor(op) for op in ops],
        "spans": [span for op in traced if op.payload for span in op.payload.get("spans", ())],
        "span_fields": ["span_id", "name", "start", "end", "parent_id", "op_id"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    s = record["stamp"]
    print(
        f"# {args.workload}: {' '.join(s['command'])}  seed={args.seed} ({s['seed_use']})  "
        f"python {s['python']}  nproc {s['nproc']}  commit {s['commit'][:12]}"
    )
    print(f"# fingerprints {[fp[:12] for fp in record['fingerprints']]}, pinned {str(expected)[:12]}")
    shown = [(m["name"], m["unit"]) for m in wanted]
    if not args.trace:
        shown.append(("fail_frac", "ratio"))
    for name, unit in shown:
        v = values.get(name)
        text = "missing" if v is None else f"{v:.6g}"
        print(f"{name:44s} {text:>14s} {unit:8s} {notes.get(name, '')}")
    for op in ops:
        if not op.ok:
            print(f"# failed op ({'traced' if op.traced else 'plain'}): {op.reason}")
    if missing:
        print(f"# metrics not measured: {missing}")
    if "unbound" in notes:
        print(f"# traced callables {notes['unbound']}")
    print(f"# record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
