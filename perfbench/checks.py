"""Independent checks of the program's outputs.

Every reference here is computed apart from degenwave: Bessel zeros come
from mpmath, the critical Hardy constants and the horizon threshold from
their closed forms, trace norms from a dense Gauss-Legendre time
quadrature.  Where no reference value exists the check asserts a property
the method must have (monotonicity, an upper bound, an order of
convergence).  Tolerances follow from the known error of the method, never
from today's output.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def finite_positive(name: str, value: float) -> None:
    require(math.isfinite(value) and value > 0.0, f"{name} = {value!r} is not finite and positive")


# ---------------------------------------------------------------------------
# Radial eigenvalues
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def bessel_eigenvalue_ref(alpha: float, k: int) -> float:
    """rho_k = ((2-alpha)/2 j_{nu,k})^2, nu = (1-alpha)/(2-alpha), from mpmath."""
    import mpmath  # imported here, not with the workload, to keep it out of set-up time

    nu = mpmath.mpf(1.0 - alpha) / mpmath.mpf(2.0 - alpha)
    j = mpmath.besseljzero(nu, k)
    return float(((2.0 - alpha) / 2.0 * j) ** 2)


def graded_p1_tolerance(alpha: float, N: int, g: float, rho: float) -> float:
    """Relative eigenvalue error bound of P1 on the mesh r_i = (i/N)^g.

    Two sources: the first cell, where R ~ r^(1-alpha) is not linear,
    contributes O(N^(-g(1-alpha))); the widest cell (width ~ g/N next to
    r = 1) contributes the P1 dispersion error rho h^2 / 12.  The factor 2
    covers the O(1) constant of the first term.
    """
    return 2.0 * N ** (-g * (1.0 - alpha)) + rho * (g / N) ** 2 / 12.0


def eigenvalues(alpha: float, N: int, g: float, rho, ks) -> None:
    """Lumped eigenvalues rho[k-1] against the Bessel closed form."""
    for k in ks:
        ref = bessel_eigenvalue_ref(alpha, k)
        rel = abs(float(rho[k - 1]) - ref) / ref
        tol = graded_p1_tolerance(alpha, N, g, ref)
        require(rel <= tol, f"alpha={alpha} k={k}: rho {rho[k - 1]!r} vs {ref!r} (rel {rel:.3e} > {tol:.3e})")


def consistent_smallest_eigenvalue(alpha: float, N: int, g: float, rho: float) -> None:
    """The consistent-mass P1 eigenvalue is a Rayleigh-Ritz upper bound."""
    ref = bessel_eigenvalue_ref(alpha, 1)
    tol = graded_p1_tolerance(alpha, N, g, ref)
    require(ref * (1.0 - 1e-12) <= rho <= ref * (1.0 + tol),
            f"consistent rho_1 {rho!r} not in [{ref!r}, {ref * (1.0 + tol)!r}]")


# ---------------------------------------------------------------------------
# Hardy constants and the horizon gate
# ---------------------------------------------------------------------------


def critical_exact(delta: float, bc: str) -> float:
    return (4.0 if bc == "mixed" else 1.0) / math.pi**2 * math.log(delta) ** 2


def critical_constant(delta: float, bc: str, N: int, value: float) -> None:
    """The discrete constant is a lower bound of the exact one.

    The geometric mesh of (delta, 1) is uniform in x = -ln r with step
    |ln delta| / N, so the P1 eigenvalue error is O((|ln delta| / N)^2).
    """
    exact = critical_exact(delta, bc)
    lo = exact * (1.0 - (math.log(delta) / N) ** 2)
    require(lo <= value <= exact * (1.0 + 1e-9),
            f"{bc} delta={delta}: {value!r} not in [{lo!r}, {exact!r}]")


def subcritical_constants(alpha: float, constants) -> None:
    """Best discrete constants grow with N and stay below 4/(1-alpha)^2."""
    bound = 4.0 / (1.0 - alpha) ** 2
    require(all(a < b for a, b in zip(constants, constants[1:])),
            f"alpha={alpha}: constants not increasing in N: {constants}")
    require(0.0 < constants[0] and constants[-1] < bound,
            f"alpha={alpha}: constants {constants} not in (0, {bound})")


def blowup_slope(slope: float) -> None:
    require(abs(slope - 2.0) <= 0.05, f"blow-up slope {slope!r} not 2 +- 0.05")


def horizon_threshold(delta0: float, beta: float) -> float:
    return max(4.0 / math.sqrt(delta0), math.sqrt(8.0 / beta))


def beta_max(alpha: float, delta0: float) -> float:
    return 0.5 * min((2.0 - alpha) ** 2 / 8.0, delta0)


def horizon_gate(outcomes) -> None:
    """outcomes: (delta0, beta, accepted above T*, rejected below T*) per point."""
    for d0, beta, accepted, rejected in outcomes:
        require(accepted, f"delta0={d0} beta={beta}: rejected at T* (1 + 1e-6)")
        require(rejected, f"delta0={d0} beta={beta}: accepted at T* (1 - 1e-6)")


# ---------------------------------------------------------------------------
# Waves and observability
# ---------------------------------------------------------------------------


def random_datum(state, n: int, rho, leading=None) -> None:
    """A seeded n x n datum: finite, with omega^2 = (m pi)^2 + rho_k, and
    extending `leading` (a datum of the same seed at a smaller truncation)."""
    require(state.a.shape == state.b.shape == (n, n), f"datum shape {state.a.shape} is not {(n, n)}")
    require(bool(np.all(np.isfinite(state.a)) and np.all(np.isfinite(state.b))), "datum not finite")
    omega_sq = (np.arange(1, n + 1)[:, None] * math.pi) ** 2 + np.asarray(rho)[None, :n]
    require(bool(np.allclose(state.omega_sq, omega_sq, rtol=1e-15, atol=0.0)), "omega^2 is not (m pi)^2 + rho_k")
    if leading is not None:
        m = leading.a.shape[0]
        require(bool(np.array_equal(state.a[:m, :m], leading.a) and np.array_equal(state.b[:m, :m], leading.b)),
                f"the {n}x{n} datum does not extend the {m}x{m} one")


def modal_energy(state) -> float:
    """E = (1/4) sum (b^2 + omega^2 a^2): sine and radial orthonormality."""
    return 0.25 * float(np.sum(state.b**2 + state.omega_sq * state.a**2))


def energy_history(state, total, data_norms) -> None:
    """Energy conserved to roundoff and E(0) equal to half the data norms."""
    e0 = modal_energy(state)
    half_norms = 0.5 * (data_norms[0] + data_norms[1])
    require(abs(total[0] - e0) <= 1e-13 * e0, f"E(0) {total[0]!r} vs modal energy {e0!r}")
    require(abs(half_norms - e0) <= 1e-13 * e0, f"half data norms {half_norms!r} vs E(0) {e0!r}")
    drift = float(np.max(np.abs(np.asarray(total) - e0)) / e0)
    require(drift <= 1e-12, f"energy drift {drift:.3e} > 1e-12")


def _gauss_panels(T: float, max_freq: float, order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes on (0, T), each panel at most 1 radian
    of the fastest oscillation, so the rule is exact to roundoff."""
    panels = max(1, int(math.ceil(max_freq * T)))
    x, w = np.polynomial.legendre.leggauss(order)
    h = T / panels
    left = np.arange(panels) * h
    nodes = (left[:, None] + 0.5 * h * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * w, panels)
    return nodes, weights


def full_trace_quadrature(state, T: float) -> float:
    """int_0^T int_0^1 (d_r phi(theta, 1, t))^2 dtheta dt by dense quadrature.

    The theta integral uses int_0^1 sin(n pi x) sin(m pi x) dx = delta_nm / 2;
    the time integral is a composite Gauss-Legendre rule.
    """
    flux = np.asarray(state.basis.flux[: state.k_max])
    t, w = _gauss_panels(T, 2.0 * float(state.omega.max()))
    total = 0.0
    for n in range(state.n_max):
        om = state.omega[n][:, None]
        phase = om * t[None, :]
        amp = state.a[n][:, None] * np.cos(phase) + (state.b[n] / state.omega[n])[:, None] * np.sin(phase)
        trace_n = flux @ amp
        total += 0.5 * float(np.dot(trace_n**2, w))
    return total


def full_trace(value: float, reference: float) -> None:
    require(abs(value - reference) <= 1e-9 * reference,
            f"full trace {value!r} vs quadrature {reference!r}")


def obstruction(slope: float, remedied_max_over_min: float) -> None:
    require(1.9 <= slope <= 2.1, f"obstruction slope {slope!r} not in [1.9, 2.1]")
    require(remedied_max_over_min <= 10.0, f"remedied ratio spread {remedied_max_over_min!r} > 10")


def hidden_trace(base_ratios, doubled_ratios, increase: float) -> None:
    for r in (*base_ratios, *doubled_ratios):
        finite_positive("ensemble ratio", r)
    own = max(doubled_ratios) / max(base_ratios) - 1.0
    require(abs(own - increase) <= 1e-12, f"reported increase {increase!r} vs {own!r}")
    require(increase <= 0.05, f"hidden-trace increase {increase:.2%} > 5%")


def observability_record(record, state, full_trace_value: float | None = None) -> None:
    e0 = modal_energy(state)
    require(abs(record.E0 - e0) <= 1e-13 * e0, f"E0 {record.E0!r} vs {e0!r}")
    require(not record.degenerate, "nonzero datum flagged degenerate")
    finite_positive("restricted trace", record.trace_restricted)
    finite_positive("interior term", record.interior_term)
    ratio = e0 / (record.trace_restricted + record.interior_term)
    require(abs(record.ratio - ratio) <= 1e-12 * ratio, f"ratio {record.ratio!r} vs {ratio!r}")
    if full_trace_value is not None:
        require(record.trace_restricted <= full_trace_value * (1.0 + 1e-12),
                f"restricted trace {record.trace_restricted!r} > full {full_trace_value!r}")


# ---------------------------------------------------------------------------
# Carleman
# ---------------------------------------------------------------------------


def residual_order(residual_norms) -> float:
    """Residuals fall level to level at observed order 2 +- 0.1."""
    norms = [float(x) for x in residual_norms]
    for n in norms:
        finite_positive("residual norm", n)
    require(all(a > b for a, b in zip(norms, norms[1:])), f"residual not falling: {norms}")
    order = float(np.mean([math.log2(a / b) for a, b in zip(norms, norms[1:])]))
    require(abs(order - 2.0) <= 0.1, f"observed order {order:.4f} not 2 +- 0.1")
    return order


COMPONENTS = ("lhs_gradient", "lhs_zero_order", "rhs_trace", "rhs_interior", "rhs_commutator")


def nonfinite_components(integrals) -> str | None:
    """Names of the components that are not finite, or None."""
    bad = [c for c in COMPONENTS if not math.isfinite(getattr(integrals, c))]
    return ", ".join(bad) if bad else None


def components(integrals) -> None:
    for c in (*COMPONENTS, "chat"):
        finite_positive(c, getattr(integrals, c))


# ---------------------------------------------------------------------------
# CLI artifacts
# ---------------------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(path: Path) -> dict:
    """Parse a JSON artifact, rejecting NaN and Infinity."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailed(f"{Path(path).name}: {exc}") from exc


def strict_csv(path: Path) -> list[dict]:
    """Parse a CSV artifact (comment lines skipped); every float cell finite."""
    lines = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    require(len(rows) > 0, f"{Path(path).name}: no rows")
    for row in rows:
        for key, cell in row.items():
            try:
                x = float(cell)
            except ValueError:
                continue
            require(math.isfinite(x), f"{Path(path).name}: {key} = {cell}")
    return rows
