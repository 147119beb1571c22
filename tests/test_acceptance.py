"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.  Each criterion
records its measured values and its gates in the acceptance ledger before
it asserts; `--acceptance-ledger PATH` writes them (tests/ledger.py).
"""

import math
import time

import numpy as np
import pytest

from degenwave.carleman import conjugation_order_study
from degenwave.errors import TimeTooShort
from degenwave.hardy import (
    best_subcritical_constant,
    blowup_rate_fit,
    critical_truncated_constant,
    subcritical_bound,
)
from degenwave.observability import (
    default_beta,
    default_horizon,
    hidden_trace_stability,
    high_mode_obstruction_scan,
)
from degenwave.params import (
    DomainSpec,
    beta_upper_bound,
    observation_time_threshold,
    validate_carleman_params,
)
from degenwave.radial import (
    assemble_weighted_system,
    build_graded_mesh,
    build_log_mesh,
    elliptic_identity_residual,
    refine_smallest_eigenpair,
    solve_eigenpairs,
    solve_radial_basis,
)
from degenwave.waves import energy, energy_series, random_state

from oracles import shooting_eigenvalue


def report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS - {text}")


def test_criterion_01_critical_mixed_constant(ledger):
    start = time.perf_counter()
    cases = [
        (math.exp(-math.pi), 4.0),
        (0.01, 4.0 / math.pi**2 * math.log(100.0) ** 2),
    ]
    gates = {"relative_error_below": 5e-3, "elapsed_s_below": 10.0}
    constants = []
    errs = []
    for delta, exact in cases:
        rep = critical_truncated_constant(delta, bc="mixed", method="direct", N=4096)
        constants.append(rep.numerical_best_constant)
        errs.append(abs(rep.numerical_best_constant - exact) / exact)
    elapsed = time.perf_counter() - start
    ledger.record(
        1, {"constants": constants, "relative_errors": errs}, gates, timing={"elapsed_s": elapsed}
    )
    for (delta, _), rel in zip(cases, errs):
        assert rel < gates["relative_error_below"], f"delta={delta}: relative error {rel}"
    assert elapsed < gates["elapsed_s_below"], (
        f"runtime {elapsed:.2f}s exceeds seconds-per-delta budget"
    )
    report(1, f"mixed constants off by {max(errs):.2e} rel (<=0.5%) [timing: {elapsed:.2f}s]")


def test_criterion_02_critical_dirichlet_constant(ledger):
    gates = {
        "relative_error_below": 5e-3, "mixed_over_dirichlet": 4.0, "ratio_distance_below": 0.04
    }
    errs = []
    ratios = []
    for delta in (math.exp(-math.pi), 0.01):
        exact = 1.0 / math.pi**2 * math.log(delta) ** 2
        dirich = critical_truncated_constant(delta, bc="dirichlet", method="direct", N=4096)
        mixed = critical_truncated_constant(delta, bc="mixed", method="direct", N=4096)
        errs.append(abs(dirich.numerical_best_constant - exact) / exact)
        ratios.append(mixed.numerical_best_constant / dirich.numerical_best_constant)
    ledger.record(2, {"relative_errors": errs, "mixed_over_dirichlet": ratios}, gates)
    for rel, ratio in zip(errs, ratios):
        assert rel < gates["relative_error_below"]
        assert abs(ratio - gates["mixed_over_dirichlet"]) < gates["ratio_distance_below"]
    report(2, f"dirichlet constants off by {max(errs):.2e}, mixed/dirichlet = {ratios[-1]:.4f}")


def test_criterion_03_blowup_rate(ledger):
    gates = {"slope": 2.0, "slope_distance_at_most": 0.05}
    fit = blowup_rate_fit([1e-1, 1e-2, 1e-3, 1e-4], bc="mixed", method="direct", N=8192)
    ledger.record(3, {"slope": fit.slope, "r_squared": fit.r_squared}, gates)
    assert abs(fit.slope - gates["slope"]) <= gates["slope_distance_at_most"], f"slope {fit.slope}"
    report(3, f"log-log blow-up slope = {fit.slope:.4f} (2.00 +- 0.05), r^2 = {fit.r_squared:.6f}")


def test_criterion_04_subcritical_hardy(ledger):
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    gates = {"violations": 0, "bound_factor": 1.0 + 1e-6}
    rng = np.random.default_rng(20250810)
    mesh = build_graded_mesh(2048, 2.0)
    worst_margin = math.inf
    found = {"violations": [], "min_margins": [], "constants": [], "bounds": []}
    for alpha in alphas:
        mats = assemble_weighted_system(mesh, p=alpha, q=alpha - 2.0, bc="dirichlet-left-only")
        bound = subcritical_bound(alpha)
        X = rng.standard_normal((1000, mats.n_dof))
        md, me = mats.md_dof, mats.me_dof
        kd, ke = mats.kd_dof, mats.ke_dof
        lhs = np.einsum("ij,j,ij->i", X, md, X) + 2.0 * np.einsum(
            "ij,j,ij->i", X[:, :-1], me, X[:, 1:]
        )
        rhs = np.einsum("ij,j,ij->i", X, kd, X) + 2.0 * np.einsum(
            "ij,j,ij->i", X[:, :-1], ke, X[:, 1:]
        )
        found["violations"].append(int(np.count_nonzero(lhs > bound * rhs)))
        found["min_margins"].append(float(np.min(bound * rhs / lhs)))
        found["constants"].append([
            best_subcritical_constant(
                alpha, mesh=build_graded_mesh(N, 3.0)
            ).numerical_best_constant
            for N in (512, 2048, 8192)
        ])
        found["bounds"].append(bound)
    ledger.record(4, found, gates)
    for alpha, violations, margin, constants, bound in zip(alphas, *found.values()):
        assert violations == gates["violations"], f"alpha={alpha}: {violations} violations"
        worst_margin = min(worst_margin, margin)
        assert constants[0] < constants[1] < constants[2], f"alpha={alpha}: {constants}"
        assert constants[2] < bound * gates["bound_factor"], (
            f"alpha={alpha}: {constants[2]} vs {bound}"
        )
    report(4, f"0 violations in 5000 draws; constants monotone below bounds "
              f"(min random margin {worst_margin:.1f}x)")


def test_criterion_05_eigensolver_oracles(ledger):
    gates = {"laplacian_relative_at_most": 1e-4, "shooting_relative_at_most": 1e-5}
    # alpha -> 0 limit against the classical Dirichlet Laplacian
    mesh = build_graded_mesh(2048, 1.0)
    mats = assemble_weighted_system(mesh, p=1e-12, q=0.0, bc="dirichlet-dirichlet")
    rhos = solve_eigenpairs(mats, 5).rho
    rels = [abs(rho - (k * math.pi) ** 2) / (k * math.pi) ** 2 for k, rho in enumerate(rhos, 1)]
    worst = max(rels)
    # alpha = 0.5 against the independent shooting oracle, 5 significant digits
    rho_shoot = shooting_eigenvalue(0.5, k=1)
    mesh = build_graded_mesh(8192, 3.0)
    mats = assemble_weighted_system(mesh, p=0.5, q=0.0, bc="dirichlet-dirichlet")
    rho_fem, _ = refine_smallest_eigenpair(mats)
    rel = abs(rho_fem - rho_shoot) / rho_shoot
    ledger.record(
        5,
        {
            "laplacian_relative": rels,
            "rho_fem": rho_fem,
            "rho_shoot": rho_shoot,
            "shooting_relative": rel,
        },
        gates,
    )
    for k, rel_k in enumerate(rels, 1):
        assert rel_k <= gates["laplacian_relative_at_most"], f"k={k}: rel {rel_k}"
    assert rel <= gates["shooting_relative_at_most"], (
        f"shooting mismatch: {rho_fem} vs {rho_shoot} (rel {rel})"
    )
    report(5, f"Laplacian limit off by {worst:.2e}; shooting mismatch {rel:.2e} "
              f"(rho_1 = {rho_fem:.7g} vs {rho_shoot:.7g})")


def test_criterion_06_elliptic_identity(ledger):
    gates = {"relative_residual_at_most": 1e-6}
    basis = solve_radial_basis(0.5, N=8192, g=2.0, k_max=4)
    residuals = [
        elliptic_identity_residual(basis, mu, coeffs).relative_residual
        for mu, coeffs in [
            (math.pi**2, [1.0]),
            (math.pi**2, [1.0, -0.7, 0.3]),
            ((2.0 * math.pi) ** 2, [0.5, 0.5, 0.0, -1.0]),
        ]
    ]
    ledger.record(6, {"relative_residuals": residuals}, gates)
    worst = max(residuals)
    for residual in residuals:
        assert residual <= gates["relative_residual_at_most"], f"residual {residual}"
    report(6, f"elliptic identity residual <= {worst:.2e} at N = 8192")


def test_criterion_07_energy_conservation(basis05_k64, ledger):
    gates = {"drift_at_most": 1e-12}
    state = random_state(basis05_k64, 16, 16, seed=77)
    e0 = energy(state)
    series = energy_series(state, np.linspace(0.0, 44.0, 1001))
    drift = float(np.max(np.abs(series.total - e0)) / e0)
    ledger.record(7, {"energy": e0, "drift": drift}, gates)
    assert drift <= gates["drift_at_most"], f"drift {drift}"
    report(7, f"max relative energy drift {drift:.2e} over 1000 samples")


def test_criterion_08_conjugation_identity(carleman_params, bessel_solution, ledger):
    gates = {"order": 2.0, "order_distance_at_most": 0.1, "finest_relative_at_most": 1e-3}
    reports_, mean_order = conjugation_order_study(
        bessel_solution, carleman_params, base_shape=(1728, 18, 96), levels=3, r_min=0.1
    )
    finest = reports_[-1]
    ledger.record(
        8,
        {
            "mean_order": mean_order,
            "residual_norms": [r.residual_norm for r in reports_],
            "reference_norms": [r.reference_norm for r in reports_],
            "relative": [r.relative for r in reports_],
        },
        gates,
    )
    assert abs(mean_order - gates["order"]) <= gates["order_distance_at_most"], (
        f"order {mean_order}"
    )
    assert finest.relative <= gates["finest_relative_at_most"], (
        f"finest relative residual {finest.relative}"
    )
    report(8, f"FD order {mean_order:.3f} (2.0 +- 0.1); finest residual "
              f"{finest.relative:.2e} of ||exp(s sigma) h||")


def test_criterion_09_high_mode_obstruction(basis05_k64, domain001, ledger):
    gates = {"slope_at_least": 1.9, "slope_at_most": 2.1, "remedied_max_over_min_at_most": 10.0}
    T = default_horizon(domain001.delta0)
    scan = high_mode_obstruction_scan([8, 16, 32, 64], T, domain001, basis=basis05_k64)
    ledger.record(
        9,
        {
            "slope": scan.slope,
            "pure_ratios": scan.pure_ratios,
            "remedied_ratios": scan.remedied_ratios,
            "remedied_max_over_min": scan.remedied_max_over_min,
        },
        gates,
    )
    assert gates["slope_at_least"] <= scan.slope <= gates["slope_at_most"], f"slope {scan.slope}"
    assert scan.remedied_max_over_min <= gates["remedied_max_over_min_at_most"], (
        f"spread {scan.remedied_max_over_min}"
    )
    report(9, f"pure-trace slope {scan.slope:.4f}; remedied ratio max/min "
              f"{scan.remedied_max_over_min:.3f} (<= 10)")


def test_criterion_10_hidden_trace_stability(basis05_k64, ledger):
    gates = {"increase_at_most": 0.05}
    T = default_horizon(0.01)
    base, doubled, increase = hidden_trace_stability(
        basis05_k64, 20250810, 100, (16, 16), T
    )
    ledger.record(
        10,
        {
            "base_ratios": base.ratios,
            "doubled_ratios": doubled.ratios,
            "base_max": base.max_ratio,
            "doubled_max": doubled.max_ratio,
            "increase": increase,
        },
        gates,
    )
    assert increase <= gates["increase_at_most"], f"ensemble max increased by {increase:.2%}"
    report(10, f"ensemble max {base.max_ratio:.4f} -> {doubled.max_ratio:.4f} "
               f"under truncation doubling ({increase:+.2%})")


def test_criterion_11_parameter_gate(ledger):
    gates = {"checked": 100, "relative_margin": 1e-6}
    alpha = 0.5
    d0_grid = np.linspace(0.002, 0.031, 10)
    frac_grid = np.linspace(0.1, 1.0, 10)
    margin = gates["relative_margin"]
    thresholds = []
    for d0 in d0_grid:
        for frac in frac_grid:
            beta = frac * beta_upper_bound(alpha, d0)
            t_star = observation_time_threshold(d0, beta)
            domain = DomainSpec(d0)
            validate_carleman_params(alpha, domain, beta=beta, T=t_star * (1 + margin))
            with pytest.raises(TimeTooShort):
                validate_carleman_params(alpha, domain, beta=beta, T=t_star * (1 - margin))
            thresholds.append(t_star)
    ledger.record(11, {"checked": len(thresholds), "thresholds": thresholds}, gates)
    assert len(thresholds) == gates["checked"]
    report(11, "validator accepts exactly T > max{4/sqrt(delta0), sqrt(8/beta)} "
               "on a 100-point boundary scan")
