"""One run of one workload in a fresh interpreter.

Imports degenwave from the checkout's `src/`, builds the workload's shared
inputs, prints READY (the parent times set-up up to that line), then runs
whole passes until `--seconds` have elapsed and prints one JSON object.
With `--trace 1` the passes alternate untraced and traced (tracemalloc on),
at least one of each, and the spans are written to `--spans`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    rec = tracing.Recorder(args.workload)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import degenwave

    rec.add("cli.import", start, time.perf_counter(), op="import", pass_index=-1)
    if not Path(degenwave.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: degenwave imported from {degenwave.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    setup = workloads.Pass(rec, -1)
    inputs = workload.setup(setup)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = workloads.Pass(rec, len(passes), traced)
        if traced:
            tracemalloc.start()
        try:
            workload.run_pass(p, inputs)
        finally:
            if traced:
                tracemalloc.stop()
        passes.append(p)
        done = time.perf_counter() - t0 >= args.seconds
        if done and (not args.trace or len(passes) >= 2):
            break

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "wrong": [w for p in passes for w in p.wrong],
        "wall_s": [p.wall for p in untraced],
        "traced_wall_s": [p.wall for p in traced],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        # per-layer times come from untraced passes, so tracemalloc's cost
        # shows only in the overhead
        "per_layer": tracing.derive(rec.spans, [p.index for p in untraced]),
    }
    if args.spans is not None:
        rec.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
