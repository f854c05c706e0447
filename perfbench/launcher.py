"""Small process that starts benchmark children and reports their rusage.

A child's ``ru_maxrss`` also counts the memory of the process it was forked
from: Linux folds the old address space's high-water mark into it at
``exec``.  The runner (run.py) holds 20 MiB or more, about what a
closurelab op needs, so children started directly from it would report the
runner's size.  This
launcher imports only ``os``, ``sys``, ``json``, ``selectors`` and ``time``
and runs without ``site``, so its own high-water mark stays near that of a
bare interpreter, below any op.

Protocol: one JSON request per line on stdin, ``{"argv": [...],
"limit_s": seconds}``; one JSON reply per line on stdout with ``started``
and ``ended`` (``time.monotonic``), ``status`` (exit code, negative for a
signal), ``timed_out``, ``maxrss_kib``, ``out`` and ``err``.  A child that
outlives its limit is killed.  End of input ends the launcher.
"""

import json
import os
import selectors
import sys
import time


def run_child(argv: list, limit_s: float) -> dict:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    started = time.monotonic()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    os.close(out_w)
    os.close(err_w)
    chunks = {out_r: [], err_r: []}
    timed_out = False
    deadline = started + limit_s
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, 9)
                break
            for key, _ in sel.select(timeout=remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    os.close(out_r)
    os.close(err_r)
    _, status, usage = os.wait4(pid, 0)
    return {
        "started": started,
        "ended": time.monotonic(),
        "status": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "maxrss_kib": usage.ru_maxrss,
        "out": b"".join(chunks[out_r]).decode("utf-8", "replace"),
        "err": b"".join(chunks[err_r]).decode("utf-8", "replace"),
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_child(request["argv"], request["limit_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
