"""One measured run of a workload, in a fresh Python process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and one BLAS thread.
It imports heislab, builds the command list, then calls
``heislab.cli.main`` on every command in turn (one client, closed loop)
and repeats whole rounds of the list until ``--seconds`` have passed.
It writes the exit code and wall time of every command to
``<out>/result.json``; ``run.py`` checks the output files afterwards.

With ``--setup-only`` it stops where the first command would start and
writes only the set-up time.  ``--launched`` is the parent's
``time.monotonic()`` just before it started this process, so set-up
covers interpreter start, imports, the command list and the output
directories.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from pathlib import Path

import heislab.cli

import workloads


def _call(argv: list) -> tuple[object, str]:
    """Exit code (or the exception) of one in-process CLI call, and its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = heislab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception as exc:  # an uncaught error fails this command only
            rc = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    cmds = workloads.build(args.workload, args.seed)
    out = Path(args.out)
    for cmd in cmds:
        (out / "r0" / cmd.id).mkdir(parents=True, exist_ok=True)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        (out / "setup.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    records = []  # per command: round, id, exit code, wall seconds
    start = time.perf_counter()
    rnd = 0
    while True:
        for cmd in cmds:
            cmd_dir = out / f"r{rnd}" / cmd.id
            inside = tracer.inside_s if tracer else 0.0
            t0 = time.perf_counter()
            rc, text = _call([cmd.argv[0], "--out-dir", str(cmd_dir), *cmd.argv[1:]])
            dt = time.perf_counter() - t0
            if tracer:
                tracer.command_done(dt, inside)
            records.append({"round": rnd, "id": cmd.id, "rc": rc, "wall_s": dt,
                            "output": text[-400:] if rc != 0 else ""})
        rnd += 1
        if time.perf_counter() - start >= args.seconds:
            break
    timed_s = time.perf_counter() - start

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "rounds": rnd,
        "timed_s": timed_s,
        "peak_rss_mib": max(own, children) / 1024.0,  # ru_maxrss is in KiB
        "commands": records,
    }
    if tracer:
        result["per_layer"] = tracer.report(rnd)
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
