"""Spans around the benchmark's calls into degenwave, and the per-layer
metrics derived from them.

A span is one call the benchmark makes into a module's public function:
name ("<module>.<function>", or "cli.<subcommand>" for a CLI process),
start and end (seconds since the worker started), parent ("setup" or
"pass<i>"), workload, operation id, an optional variant key (truncation,
level, or known fault) and attributes (work counts, tracemalloc peak).
Spans are kept in memory and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path


class Recorder:
    """In-memory span list of one worker process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._t0 = time.perf_counter()

    def add(self, name, start, end, *, op, pass_index, key=None, attrs=None):
        self.spans.append({
            "name": name,
            "start": start - self._t0,
            "end": end - self._t0,
            "parent": "setup" if pass_index < 0 else f"pass{pass_index}",
            "workload": self.workload,
            "op": op,
            "pass": pass_index,
            "key": key,
            "attrs": dict(attrs or {}),
        })

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _fault(span) -> bool:
    return bool(span["attrs"].get("fault"))


def per_call(name, key=None, scale=1.0, per="calls"):
    """Median over calls (set-up included) of one call's duration, divided
    by a work count."""
    def derive(spans, passes):
        return _median([
            _dur(s) / s["attrs"].get(per, 1) * scale
            for s in spans
            if s["name"] == name and s["key"] == key and (s["pass"] < 0 or s["pass"] in passes)
        ])
    return derive


def peak_alloc(name):
    """Largest tracemalloc peak over the calls of one function, in MB; only
    passes run under tracemalloc record one."""
    def derive(spans, passes):
        return max((s["attrs"].get("alloc_mb", 0.0) for s in spans if s["name"] == name), default=0.0)
    return derive


def per_pass(reduce):
    """Median over passes of reduce(spans of that pass), skipping empty passes."""
    def derive(spans, passes):
        values = []
        for p in passes:
            value = reduce([s for s in spans if s["pass"] == p])
            if value is not None:
                values.append(value)
        return _median(values)
    return derive


def rate(attr, scale=1.0):
    """Work count per second of the calls that report it (faults excluded)."""
    def reduce(spans):
        sel = [s for s in spans if attr in s["attrs"] and not _fault(s)]
        return sum(s["attrs"][attr] for s in sel) * scale / sum(map(_dur, sel)) if sel else None
    return per_pass(reduce)


def total_time(*names):
    def reduce(spans):
        sel = [s for s in spans if s["name"] in names and not _fault(s)]
        return sum(map(_dur, sel)) if sel else None
    return per_pass(reduce)


def total_attr(attr):
    def reduce(spans):
        sel = [s for s in spans if attr in s["attrs"]]
        return float(sum(s["attrs"][attr] for s in sel)) if sel else None
    return per_pass(reduce)


def median_time(select):
    def reduce(spans):
        sel = [_dur(s) for s in spans if select(s) and not _fault(s)]
        return _median(sel) if sel else None
    return per_pass(reduce)


# name -> (unit, better, derivation).  Layers: the package's modules, with
# cli, reports and package import together.  A metric whose calls a
# workload does not make reads 0 on that workload.
PER_LAYER = {
    "radial.solve_radial_basis_s": ("s", "lower", per_call("radial.solve_radial_basis")),
    "radial.refine_smallest_eigenpair_ms": ("ms", "lower", per_call("radial.refine_smallest_eigenpair", scale=1e3)),
    "hardy.critical_truncated_constant_ms": ("ms", "lower", per_call("hardy.critical_truncated_constant", scale=1e3)),
    "hardy.best_subcritical_constant_ms": ("ms", "lower", per_call("hardy.best_subcritical_constant", scale=1e3)),
    "hardy.blowup_rate_fit_ms": ("ms", "lower", per_call("hardy.blowup_rate_fit", scale=1e3)),
    "params.validate_carleman_params_ms": ("ms", "lower", per_call("params.validate_carleman_params", scale=1e3)),
    "waves.random_state_ms": ("ms", "lower", per_call("waves.random_state", scale=1e3)),
    "waves.full_trace_norm_closed_ms": ("ms", "lower", per_call("waves.full_trace_norm_closed", scale=1e3)),
    "waves.energy_series_ms": ("ms", "lower", per_call("waves.energy_series", scale=1e3)),
    "observability.observability_ratio_s.n32": ("s", "lower", per_call("observability.observability_ratio", key="n32")),
    "observability.observability_ratio_s.n48": ("s", "lower", per_call("observability.observability_ratio", key="n48")),
    "observability.observability_ratio_peak_alloc_mb": ("MB", "lower", peak_alloc("observability.observability_ratio")),
    "observability.hidden_trace_stability_s": ("s", "lower", per_call("observability.hidden_trace_stability")),
    "observability.high_mode_obstruction_scan_ms": ("ms", "lower", per_call("observability.high_mode_obstruction_scan", scale=1e3)),
    "carleman.conjugation_residual_ns_per_point.l0": ("ns/point", "lower", per_call("carleman.conjugation_residual", key="l0", scale=1e9, per="points")),
    "carleman.conjugation_residual_ns_per_point.l1": ("ns/point", "lower", per_call("carleman.conjugation_residual", key="l1", scale=1e9, per="points")),
    "carleman.conjugation_residual_ns_per_point.l2": ("ns/point", "lower", per_call("carleman.conjugation_residual", key="l2", scale=1e9, per="points")),
    "carleman.conjugation_residual_peak_alloc_mb": ("MB", "lower", peak_alloc("carleman.conjugation_residual")),
    "carleman.component_integrals_s": ("s", "lower", per_call("carleman.carleman_component_integrals")),
    "carleman.constant_scan_s": ("s", "lower", per_call("carleman.carleman_constant_scan")),
    "cli.import_s": ("s", "lower", per_call("cli.import")),
    "cli.spectrum_s": ("s", "lower", per_call("cli.spectrum")),
    "cli.simulate_s": ("s", "lower", per_call("cli.simulate")),
    "cli.hardy_s": ("s", "lower", per_call("cli.hardy")),
    "cli.carleman-check_s": ("s", "lower", per_call("cli.carleman-check")),
    "cli.observability_s": ("s", "lower", per_call("cli.observability")),
    "cli.validate-params_s": ("s", "lower", per_call("cli.validate-params")),
    "reports.artifact_bytes": ("bytes", "lower", total_attr("artifact_bytes")),
    # workload-level rates, one pass at a time
    "eigenpairs_per_s": ("1/s", "higher", rate("eigenpairs")),
    "hardy_constants_per_s": ("1/s", "higher", rate("constants")),
    "ensemble_members_per_s": ("1/s", "higher", rate("members")),
    "obs_ratio_s": ("s", "lower", median_time(lambda s: s["name"] == "observability.observability_ratio")),
    "residual_mpoints_per_s": ("Mpoint/s", "higher", rate("points", scale=1e-6)),
    "components_s": ("s", "lower", total_time("carleman.carleman_component_integrals", "carleman.carleman_constant_scan")),
    "cli_command_s": ("s", "lower", median_time(lambda s: "command" in s["attrs"])),
}

OVERHEAD = "trace.overhead_s"


def derive(spans, passes) -> dict[str, float]:
    """Every per-layer metric: times from the set-up and `passes`,
    allocation peaks from whichever passes ran under tracemalloc."""
    chosen = sorted(set(passes))
    return {name: float(fn(spans, chosen)) for name, (_, _, fn) in PER_LAYER.items()}
