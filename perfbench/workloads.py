"""The four workloads: shared inputs (set-up) and one pass of operations.

Every call goes to a public name of degenwave, with the arguments the CLI
and the acceptance tests use.  A pass is a fixed list of operations run in
a fixed order by one caller; `Pass.op` times each call, records its span
and checks its output with `checks`.  The seed reaches the program only
through its seeded functions (`random_state`, `hidden_trace_stability`, the
CLI `--seed`); spectral and carleman have no seeded inputs.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import degenwave as dw
import numpy as np

import checks


class Pass:
    """One pass (or the set-up, index -1): runs, times and checks operations."""

    def __init__(self, recorder, index: int, traced: bool = False):
        self.recorder = recorder
        self.index = index
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.wrong: list[str] = []

    def op(self, name, call, check=None, *, key=None, fault=None, attrs=None):
        """Run one operation.

        An exception from `call` counts the operation failed.  `fault`
        names a known fault of the program: while it reports one, the
        operation counts failed and its output is not checked further.
        Any other disagreement found by `check` marks the run incorrect.
        """
        op_id = f"{self.index}:{self.attempted}"
        self.attempted += 1
        if self.traced:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # an operation that raises counts failed
            end = time.perf_counter()
            self.failed += 1
            self.wall += end - start
            self.recorder.add(name, start, end, op=op_id, pass_index=self.index, key=key,
                              attrs={"error": f"{type(exc).__name__}: {exc}"})
            print(f"perfbench: {name} [{key}] failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        end = time.perf_counter()
        self.wall += end - start
        span = dict(attrs(result) if callable(attrs) else attrs or {})
        if self.traced:
            span["alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        reason = fault(result) if fault else None
        if reason:
            self.failed += 1
            span["fault"] = reason
        elif check is not None:
            try:
                check(result)
            except Exception as exc:  # any error inside a check is a wrong output
                self.wrong.append(f"{name} [{key}]: {type(exc).__name__}: {exc}")
        self.recorder.add(name, start, end, op=op_id, pass_index=self.index, key=key, attrs=span)
        return result


# ---------------------------------------------------------------------------
# spectral: radial, hardy and params
# ---------------------------------------------------------------------------


class Spectral:
    ALPHAS = (0.3, 0.5, 0.7)
    N, G, K = 8192, 2.0, 256
    # eigenvalues checked against mpmath: the low end, where the first-cell
    # misfit dominates, and octaves up to K, where P1 dispersion does
    CHECK_KS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256)
    DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)
    SUB_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
    SUB_NS = (512, 2048, 8192)
    GATE_ALPHA = 0.5

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self, p: Pass):
        meshes = {N: p.op("radial.build_graded_mesh", lambda N=N: dw.build_graded_mesh(N, 3.0))
                  for N in self.SUB_NS}
        refine_mats = p.op("radial.assemble_weighted_system", lambda: dw.assemble_weighted_system(
            meshes[8192], p=0.5, q=0.0, bc="dirichlet-dirichlet"))
        gate = [
            (d0, frac * checks.beta_max(self.GATE_ALPHA, d0))
            for d0 in np.linspace(0.002, 0.031, 10)
            for frac in np.linspace(0.1, 1.0, 10)
        ]
        return {"meshes": meshes, "refine_mats": refine_mats, "gate": gate}

    def run_pass(self, p: Pass, inp) -> None:
        for a in self.ALPHAS:
            p.op("radial.solve_radial_basis",
                 lambda a=a: dw.solve_radial_basis(a, N=self.N, g=self.G, k_max=self.K),
                 lambda b, a=a: checks.eigenvalues(a, self.N, self.G, b.rho, self.CHECK_KS),
                 attrs={"eigenpairs": self.K})
        p.op("radial.refine_smallest_eigenpair",
             lambda: dw.refine_smallest_eigenpair(inp["refine_mats"]),
             lambda r: checks.consistent_smallest_eigenvalue(0.5, 8192, 3.0, r[0]))
        for bc in ("mixed", "dirichlet"):
            for d in self.DELTAS:
                p.op("hardy.critical_truncated_constant",
                     lambda d=d, bc=bc: dw.critical_truncated_constant(d, bc=bc, method="direct", N=8192),
                     lambda r, d=d, bc=bc: checks.critical_constant(d, bc, 8192, r.numerical_best_constant),
                     attrs={"constants": 1})
        p.op("hardy.blowup_rate_fit",
             lambda: dw.blowup_rate_fit(list(self.DELTAS), bc="mixed", method="direct", N=8192),
             lambda fit: checks.blowup_slope(fit.slope),
             attrs={"constants": len(self.DELTAS)})
        for a in self.SUB_ALPHAS:
            constants = []
            for N in self.SUB_NS:
                rep = p.op("hardy.best_subcritical_constant",
                           lambda a=a, N=N: dw.best_subcritical_constant(a, mesh=inp["meshes"][N]),
                           attrs={"constants": 1})
                constants.append(rep.numerical_best_constant if rep else math.nan)
            # the monotonicity check spans the three meshes of one alpha
            if all(math.isfinite(c) for c in constants):
                try:
                    checks.subcritical_constants(a, constants)
                except checks.CheckFailed as exc:
                    p.wrong.append(f"hardy.best_subcritical_constant: {exc}")
        p.op("params.validate_carleman_params", lambda: self._gate(inp["gate"]), checks.horizon_gate,
             attrs={"calls": 2 * len(inp["gate"])})

    def _gate(self, points):
        """Accept at T* (1 + 1e-6) and reject at T* (1 - 1e-6), T* from the closed form."""
        outcomes = []
        for d0, beta in points:
            t_star = checks.horizon_threshold(d0, beta)
            domain = dw.DomainSpec(d0)
            dw.validate_carleman_params(self.GATE_ALPHA, domain, beta=beta, T=t_star * (1 + 1e-6))
            try:
                dw.validate_carleman_params(self.GATE_ALPHA, domain, beta=beta, T=t_star * (1 - 1e-6))
                rejected = False
            except dw.TimeTooShort:
                rejected = True
            outcomes.append((d0, beta, True, rejected))
        return outcomes


# ---------------------------------------------------------------------------
# observe: waves and observability
# ---------------------------------------------------------------------------


class Observe:
    DELTA0 = 0.01
    ENSEMBLE = 100

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self._full_ref = None

    def setup(self, p: Pass):
        basis = p.op("radial.solve_radial_basis",
                     lambda: dw.solve_radial_basis(0.5, N=2048, g=2.0, k_max=64),
                     attrs={"eigenpairs": 64})
        return {"basis": basis, "domain": dw.DomainSpec(self.DELTA0),
                "T": dw.default_horizon(self.DELTA0)}

    def full_trace_reference(self, state, T):
        # the datum is the same in every pass of a run: integrate it once
        if self._full_ref is None:
            self._full_ref = checks.full_trace_quadrature(state, T)
        return self._full_ref

    def run_pass(self, p: Pass, inp) -> None:
        basis, domain, T, seed = inp["basis"], inp["domain"], inp["T"], self.seed
        p.op("observability.high_mode_obstruction_scan",
             lambda: dw.high_mode_obstruction_scan([8, 16, 32, 64], T, domain, basis=basis),
             lambda s: checks.obstruction(s.slope, s.remedied_max_over_min))
        s16 = p.op("waves.random_state", lambda: dw.random_state(basis, 16, 16, seed),
                   lambda s: checks.random_datum(s, 16, basis.rho))
        p.op("waves.energy_series",
             lambda: (dw.energy_series(s16, np.linspace(0.0, T, 1001)), dw.data_norms(s16)),
             lambda r: checks.energy_history(s16, r[0].total, r[1]))
        p.op("observability.hidden_trace_stability",
             lambda: dw.hidden_trace_stability(basis, seed, self.ENSEMBLE, (16, 16), T),
             lambda r: checks.hidden_trace(r[0].ratios, r[1].ratios, r[2]),
             attrs={"members": 2 * self.ENSEMBLE})
        s32 = p.op("waves.random_state", lambda: dw.random_state(basis, 32, 32, seed, member=0),
                   lambda s: checks.random_datum(s, 32, basis.rho))
        full = p.op("waves.full_trace_norm_closed", lambda: dw.full_trace_norm_closed(s32, T),
                    lambda v: checks.full_trace(v, self.full_trace_reference(s32, T)))
        p.op("observability.observability_ratio", lambda: dw.observability_ratio(s32, domain, T),
             lambda r: checks.observability_record(r, s32, full), key="n32")
        s48 = p.op("waves.random_state", lambda: dw.random_state(basis, 48, 48, seed, member=0),
                   lambda s: checks.random_datum(s, 48, basis.rho, leading=s32))
        p.op("observability.observability_ratio", lambda: dw.observability_ratio(s48, domain, T),
             lambda r: checks.observability_record(r, s48), key="n48")


# ---------------------------------------------------------------------------
# carleman: the conjugation residual and the component integrals
# ---------------------------------------------------------------------------


class Carleman:
    # the three shapes conjugation_order_study visits from this base; the
    # finest theta-r plane (4608 x 48) is past 200k points
    BASE = (1152, 12, 64)
    LEVELS = 3

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self, p: Pass):
        def params(lam, s):
            return p.op("params.validate_carleman_params", lambda: dw.validate_carleman_params(
                0.5, dw.DomainSpec(0.03), beta=0.0149, T=40.0, lam=lam, s=s))
        return {
            "params": params(0.5, 2.0),
            "params_f1": params(2.0, 8.0),
            "solution": p.op("carleman.bessel_mode", lambda: dw.SmoothModalSolution(
                0.5, (dw.bessel_mode(0.5, 1, 1, a=1.0, b=0.3),))),
        }

    def run_pass(self, p: Pass, inp) -> None:
        sol, params = inp["solution"], inp["params"]
        norms = []
        for lvl in range(self.LEVELS):
            shape = tuple(c * 2**lvl for c in self.BASE)
            rep = p.op("carleman.conjugation_residual",
                       lambda shape=shape: dw.conjugation_residual(sol, params, shape=shape, r_min=0.1),
                       lambda r: checks.finite_positive("residual", r.residual_norm),
                       key=f"l{lvl}", attrs={"points": math.prod(shape)})
            norms.append(rep.residual_norm if rep else math.nan)
        if all(math.isfinite(n) for n in norms):
            try:
                checks.residual_order(norms)
            except checks.CheckFailed as exc:
                p.wrong.append(f"carleman.conjugation_residual: {exc}")
        p.op("carleman.carleman_component_integrals",
             lambda: dw.carleman_component_integrals(sol, params), checks.components)
        p.op("carleman.carleman_constant_scan",
             lambda: dw.carleman_constant_scan(sol, params, [2.0, 4.0]),
             lambda scan: [checks.components(c) for c in scan])
        # F1: at lam=2, s=8 the log offset 2 s e^(2 lam) = 873.6 exceeds 700,
        # so the rescale is by inf: three components come back inf and
        # rhs_commutator nan.  Counted failed while any component is not finite.
        p.op("carleman.carleman_component_integrals",
             lambda: dw.carleman_component_integrals(sol, inp["params_f1"]), checks.components,
             key="F1", fault=checks.nonfinite_components)


# ---------------------------------------------------------------------------
# cli: every subcommand as its own process
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    returncode: int
    stderr: str
    out: Path
    artifact_bytes: int


class Cli:
    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.root = Path(__file__).resolve().parent.parent

    def setup(self, p: Pass):
        return {}

    def run(self, out: Path, argv) -> CliResult:
        shutil.rmtree(out, ignore_errors=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("DEGENWAVE_")}
        env["PYTHONPATH"] = str(self.root / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "degenwave.cli", *argv, "--out", str(out)],
            env=env, cwd=self.root, capture_output=True, text=True, timeout=120,
        )
        size = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        return CliResult(proc.returncode, proc.stderr, out, size)

    def commands(self):
        """(name, argv, check, fault) for each operation of a pass."""
        seed = ["--seed", str(self.seed)]
        return [
            ("spectrum", ["spectrum", "--alpha", "0.5", "--n", "2048"], cli_spectrum, None),
            ("simulate", ["simulate", "--alpha", "0.5", "--n-max", "8", "--k-max", "8", *seed], cli_simulate, None),
            ("hardy", ["hardy", "--critical", "--scan", "1e-1,1e-2,1e-3,1e-4"], cli_hardy_scan, None),
            ("hardy", ["hardy"], cli_hardy_subcritical, None),
            ("carleman-check", ["carleman-check"], cli_carleman, None),
            ("observability", ["observability", "--mode", "obstruction"], cli_obstruction, None),
            ("observability", ["observability", "--mode", "ensemble", "--size", "100", *seed], cli_ensemble, None),
            ("observability", ["observability", "--mode", "ratio", *seed], cli_ratio, None),
            ("validate-params", ["validate-params", "--delta0", "0.01", "--beta", "0.005",
                                 "--t-horizon", "50"], cli_params, None),
            # F2: the command exits 0, yet reports.write_json emits Infinity
            # for the non-finite components of F1.  Counted failed while an
            # artifact fails a strict parse or the exit code is not 0.
            ("carleman-check", ["carleman-check", "--lam", "2", "--s", "8"], cli_carleman, cli_fault),
        ]

    def run_pass(self, p: Pass, inp) -> None:
        for i, (name, argv, check, fault) in enumerate(self.commands()):
            out = self.scratch / f"cli{i}"
            p.op(f"cli.{name}", lambda argv=argv, out=out: self.run(out, argv), check,
                 key="F2" if fault else None, fault=fault,
                 attrs=lambda r, name=name: {"command": name, "artifact_bytes": r.artifact_bytes})


def _cli_ok(r: CliResult) -> dict:
    """Exit code 0 and every artifact strictly parseable; JSON docs by name."""
    checks.require(r.returncode == 0, f"exit code {r.returncode}: {r.stderr.strip()[-300:]}")
    docs = {}
    for f in sorted(r.out.iterdir()):
        if f.suffix == ".json":
            docs[f.name] = checks.strict_json(f)
            checks.require(docs[f.name].get("format_version") is not None, f"{f.name}: no format_version")
        elif f.suffix == ".csv":
            checks.strict_csv(f)
    return docs


def cli_fault(r: CliResult) -> str | None:
    try:
        _cli_ok(r)
    except checks.CheckFailed as exc:
        return str(exc)
    return None


def cli_spectrum(r: CliResult) -> None:
    _cli_ok(r)
    rows = checks.strict_csv(r.out / "spectrum.csv")
    checks.require([int(x["k"]) for x in rows] == list(range(1, 9)), "spectrum rows are not k = 1..8")
    checks.eigenvalues(0.5, 2048, 2.0, [float(x["rho"]) for x in rows], range(1, 9))


def cli_simulate(r: CliResult) -> None:
    docs = _cli_ok(r)
    energy = np.array([float(x["E"]) for x in checks.strict_csv(r.out / "energy.csv")])
    drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    checks.require(drift <= 1e-12, f"energy drift {drift:.3e} > 1e-12")
    tr = docs["trace.json"]["result"]
    checks.finite_positive("restricted trace", tr["restricted_trace_norm_sq"])
    checks.finite_positive("interior norm", tr["interior_norm_sq"])
    checks.require(tr["restricted_trace_norm_sq"] <= tr["full_trace_norm_sq"], "restricted trace > full trace")


def cli_hardy_scan(r: CliResult) -> None:
    docs = _cli_ok(r)
    for row in checks.strict_csv(r.out / "hardy_scan.csv"):
        checks.critical_constant(float(row["delta"]), row["bc"], int(row["N"]), float(row["C_numerical"]))
    checks.blowup_slope(docs["hardy.json"]["result"]["blowup_fit"]["slope"])


def cli_hardy_subcritical(r: CliResult) -> None:
    rep = _cli_ok(r)["hardy.json"]["result"]
    c = rep["numerical_best_constant"]
    checks.require(0.0 < c < 4.0 / (1.0 - rep["alpha"]) ** 2, f"subcritical constant {c} outside (0, bound)")


def cli_carleman(r: CliResult) -> None:
    doc = _cli_ok(r)["carleman.json"]["result"]
    rel = doc["residual"]["relative"]
    checks.require(math.isfinite(rel) and 0.0 < rel < 1.0, f"relative residual {rel}")
    for c in (*checks.COMPONENTS, "chat"):
        checks.finite_positive(c, doc["integrals"][c])


def cli_obstruction(r: CliResult) -> None:
    scan = _cli_ok(r)["obstruction.json"]["result"]
    checks.obstruction(scan["slope"], scan["remedied_max_over_min"])


def cli_ensemble(r: CliResult) -> None:
    doc = _cli_ok(r)["ensemble.json"]["result"]
    checks.hidden_trace(doc["base"]["ratios"], doc["doubled"]["ratios"], doc["max_increase"])


def cli_ratio(r: CliResult) -> None:
    rec = _cli_ok(r)["ratio.json"]["result"]
    for key in ("E0", "trace_restricted", "interior_term", "ratio"):
        checks.finite_positive(key, rec[key])
    ratio = rec["E0"] / (rec["trace_restricted"] + rec["interior_term"])
    checks.require(abs(rec["ratio"] - ratio) <= 1e-12 * ratio, f"ratio {rec['ratio']} vs {ratio}")


def cli_params(r: CliResult) -> None:
    doc = _cli_ok(r)["params.json"]["result"]
    t_star = checks.horizon_threshold(doc["delta0"], doc["beta"])
    checks.require(doc["T"] > t_star, f"T = {doc['T']} not above T* = {t_star}")
    checks.require(0.0 < doc["epsilon"] < doc["T"] / 16.0, f"epsilon {doc['epsilon']} outside (0, T/16)")
    checks.require(0.0 < doc["gamma_hat"] < 0.5 * doc["gamma"], "gamma_hat outside (0, gamma/2)")
    checks.require(0.0 < doc["A1"] < doc["A0"] < 1.0, "absorption constants not 0 < A1 < A0 < 1")


WORKLOADS = {"spectral": Spectral, "observe": Observe, "carleman": Carleman, "cli": Cli}
