"""Benchmark of the degenwave laboratory.

    python3 perfbench/run.py --workload spectral|observe|carleman|cli \
        --seed 20250810 --seconds 10 --trace 0|1

Run from the root of a checkout; degenwave is imported from its `src/`.
Each run is a closed loop: one caller, operations in a fixed order.  The
set-up is timed in several fresh interpreters (`worker.py --setup-only`)
and once more in the measuring worker; `setup_s` is their median.  The
last line of standard output is one JSON object: correct, attempted,
failed and the end-to-end metrics (`--trace 0`) or the per-layer metrics
derived from spans (`--trace 1`).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectral", "observe", "carleman", "cli")
SETUP_PROBES = 6  # extra fresh-interpreter set-ups per run, besides the measuring worker's
DEADLINE_S = 170.0  # the whole run, probes included


class RunError(Exception):
    pass


def run_worker(argv, deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed READY, rest of stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = None
        while ready is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise RunError("worker exceeded the run deadline during set-up")
            line = proc.stdout.readline()
            if not line:
                raise RunError(f"worker exited during set-up with code {proc.wait()}")
            if line.strip() == "READY":
                ready = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker exceeded the run deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return ready, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    package = ROOT / "src" / "degenwave"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no degenwave sources under {package}", file=sys.stderr)
        return 2
    # the python build: byte-compile once, so that no timed import compiles
    if not compileall.compile_dir(str(package), quiet=1):
        print("perfbench: degenwave does not byte-compile", file=sys.stderr)
        return 2

    runs = ROOT / ".perfbench_runs"
    scratch = runs / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scratch", str(scratch)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [run_worker([*common, "--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        spans = ["--spans", str(runs / f"trace-{args.workload}-seed{args.seed}.jsonl")] if args.trace else []
        ready, out = run_worker(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace), *spans], deadline)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = json.loads(out.strip().splitlines()[-1])

    for name, value in result["per_layer"].items():
        if value:
            print(f"  {name:48s} {value:14.6g} {tracing.PER_LAYER[name][0]}", file=sys.stderr)
    for wrong in result["wrong"]:
        print(f"perfbench: WRONG {wrong}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": v, "unit": tracing.PER_LAYER[name][0]}
                   for name, v in result["per_layer"].items()}
        overhead = statistics.median(result["traced_wall_s"]) - statistics.median(result["wall_s"])
        metrics[tracing.OVERHEAD] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median([*setups, ready]), "unit": "s"},
            "wall_s": {"value": statistics.median(result["wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
