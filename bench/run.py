"""The repository benchmark: one workload, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Runs the workload in a fresh child process (``bench/workloads.py``), whose
process tree -- pool workers and HTTP server included -- is reaped with
``os.wait4`` for its peak memory.  Prints every metric by name with its
unit, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--out`` also writes the full schema-versioned result.
Exits 0 only when every operation passed its oracle.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import spans
from workloads import WORKLOADS, child_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RESULT_SCHEMA = "repro-bench/1"

#: A workload child that runs longer than this is killed with its process
#: group and the run fails, so that a run always ends within 180 s.
CHILD_DEADLINE_S = 170.0


def _git_rev() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _run_child(cmd: List[str], env: Dict[str, str]) -> tuple:
    """Run the workload child in its own process group; ``(exit code, rusage)``."""
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, start_new_session=True)
    deadline = time.monotonic() + CHILD_DEADLINE_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the child left behind
    except ProcessLookupError:
        pass
    return proc.returncode, usage


def end_to_end(child: dict, usage) -> Dict[str, tuple]:
    """End-to-end metrics ``name -> (value, unit)`` of an untraced run."""
    return {
        "setup_s": (statistics.median(child["setup_samples_s"]), "s"),
        "op_p50_ms": (child["latency_ms"]["p50"], "ms"),
        # ru_maxrss is in KiB; wait4 reports the max over the reaped tree
        "peak_rss_mib": (usage.ru_maxrss / 1024.0, "MiB"),
    }


def reported_extras(child: dict) -> Dict[str, tuple]:
    """Printed and stored with every run, but not part of the result line."""
    extra = {"ops": (child["attempted"], "count"),
             "window_s": (child["window_s"], "s")}
    for key, value in child["latency_ms"].items():
        if key.startswith("p") and key != "p50":
            extra[f"op_{key}_ms"] = (value, "ms")
    return extra


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="write the full result JSON here")
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (the benchmark's own test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        cmd = [sys.executable, str(BENCH / "workloads.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--run-dir", str(run_dir)] + (["--tiny"] if args.tiny else [])
        code, usage = _run_child(cmd, child_env())
        result_path = run_dir / "result.json"
        if code != 0 or not result_path.is_file():
            print(f"bench: workload {args.workload} exited with {code}", file=sys.stderr)
            return 3
        child = json.loads(result_path.read_text())
        trace = spans.merge(run_dir / "trace") if args.trace else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace is not None:
        metrics = spans.layer_metrics(trace, child)
        # the traced median against the untraced one is the measured
        # tracing overhead; trace.overhead_pct is the calibrated estimate
        extras = {"op_p50_ms": (child["latency_ms"]["p50"], "ms"),
                  "trace.self_violations": (trace["violations"], "count"),
                  "trace.processes": (len(trace["pids"]), "count")}
    else:
        metrics = end_to_end(child, usage)
        extras = {}
    extras.update(reported_extras(child))

    correct = child["failed"] == 0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {child['attempted']}  failed {child['failed']}")
    for failure in child["failures"]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:24} {value:>14.6g} {unit}")

    as_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    if args.out:
        doc = {
            "schema": RESULT_SCHEMA,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "git_rev": _git_rev(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "numpy": child["numpy"],
            "numba": child["numba"],
            "correct": correct,
            "attempted": child["attempted"],
            "failed": child["failed"],
            "failures": child["failures"],
            "metrics": as_json,
            "extras": {n: {"value": v, "unit": u} for n, (v, u) in extras.items()},
            "setup_samples_s": child["setup_samples_s"],
            "ops": child["ops"],
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": as_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
