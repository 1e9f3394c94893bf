"""Benchmark entry point: one run of one workload, one JSON line of results.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/heislab``.  The run
starts a fresh Python process (``runner.py``) with one BLAS thread that
calls ``heislab.cli.main`` on a fixed list of commands until
``--seconds`` have passed, in whole rounds of the list.  Then every
command's output files are checked against ``oracle`` (the first round)
or compared byte for byte with the first round (later rounds).  A
command fails when it exits non-zero or its output fails its check; an
output that fails its check also makes ``correct`` false.

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Set-up time is
the median over several fresh processes.
"""

from __future__ import annotations

import os

# one BLAS thread here and in every process started from here
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4  # set-up-only processes, besides the measured one
RUNNER_TIMEOUT_S = 150
OUT_ROOT = ".perfbench_out"
FAILED_MS = 1e12  # op_p50_ms when more than half the commands fail


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _start(root: Path, args, out: Path, setup_only: bool) -> None:
    argv = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        argv.append("--setup-only")
    launched = time.monotonic()
    subprocess.run(argv + ["--launched", repr(launched)], cwd=root, env=_child_env(root),
                   check=True, timeout=RUNNER_TIMEOUT_S)


def _outputs(cmd_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(cmd_dir.iterdir())
            if p.name != "run_record.json"}


def _verify(cmds: list, records: list, out: Path) -> tuple[list, bool]:
    """Pass/fail of every record, and whether all outputs of exit-0 commands are right."""
    # imported only after the measured process has ended: a child started
    # by fork and exec inherits the parent's peak RSS in ru_maxrss, and
    # numpy and scipy here would raise it above what heislab itself uses
    import checks

    by_id = {c.id: c for c in cmds}
    first = {}  # command id -> (passed, files) of round 0
    passed = []
    correct = True
    for rec in records:
        cmd = by_id[rec["id"]]
        cmd_dir = out / f"r{rec['round']}" / cmd.id
        if rec["rc"] != 0:
            print(f"failed: {cmd.id} round {rec['round']} exit {rec['rc']}: "
                  f"{rec['output'].strip()[-200:]}", file=sys.stderr)
            passed.append(False)
            continue
        if rec["round"] == 0:
            try:
                problems = checks.CHECKS[cmd.check](cmd.params, cmd_dir)
            except Exception:  # an unreadable output is a wrong output
                problems = [traceback.format_exc(limit=3)]
            first[cmd.id] = (not problems, _outputs(cmd_dir))
        elif cmd.id in first:
            ok0, files0 = first[cmd.id]
            problems = [] if ok0 else ["round 0 failed its check"]
            if _outputs(cmd_dir) != files0:
                problems.append("output bytes differ from round 0")
        else:
            problems = ["round 0 of this command did not exit 0"]
        if problems:
            correct = False
            print(f"wrong output: {cmd.id} round {rec['round']}: {problems}", file=sys.stderr)
        passed.append(not problems)
    return passed, correct


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "heislab" / "cli.py").is_file():
        print("error: run from the root of a heislab checkout (no src/heislab/cli.py)",
              file=sys.stderr)
        return 2
    out = root / OUT_ROOT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probe = out / f"setup{i}"
            _start(root, args, probe, setup_only=True)
            setups.append(json.loads((probe / "setup.json").read_text())["setup_s"])
    run_dir = out / "run"
    _start(root, args, run_dir, setup_only=False)
    result = json.loads((run_dir / "result.json").read_text())
    records = result["commands"]

    cmds = workloads.build(args.workload, args.seed)
    passed, correct = _verify(cmds, records, run_dir)
    attempted = len(records)
    failed = passed.count(False)

    if args.trace:
        metrics = result["per_layer"]
    else:
        setups.append(result["setup_s"])
        times = sorted(r["wall_s"] if ok else float("inf") for r, ok in zip(records, passed))
        p50 = statistics.median(times)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / result["timed_s"], "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * p50 if p50 != float("inf") else FAILED_MS,
                          "unit": "ms"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    print(f"{args.workload}: seed {args.seed}, {result['rounds']} round(s) of {len(cmds)} "
          f"commands in {result['timed_s']:.3f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
