"""Independent oracles used by the tests.

These deliberately avoid the package's finite element path: eigenvalues
come from adaptive ODE shooting with a regular-singular series start, and
reference integrals come from adaptive quadrature.  Optimized kernels are
checked against their plain first versions, kept here unchanged; the closed
form Carleman band half-width is checked against the grid certificate that
the validator used to search with, and the derivatives of the Carleman
weight come from sympy, which only the tests that need them import.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from degenwave.carleman import (
    ComponentIntegrals,
    ConjugationReport,
    SmoothModalSolution,
    _residual_axes,
    _sigma_factors,
    _tiles,
)
from degenwave.errors import ConvergenceFailure, DivergentWeight
from degenwave.params import (
    CarlemanParams,
    CutoffSpec,
    _smoothstep,
    theta_cutoff,
    theta_strips,
    time_cutoff,
)
from degenwave.radial import RadialMesh, WeightedMatrices
from degenwave.waves import (
    TraceReport,
    _trapezoid_weights,
    cosine_overlap_matrix,
    data_norms,
    random_state,
    sine_overlap_matrix,
)


def _series_start(alpha: float, rho: float, r0: float) -> tuple[float, float]:
    """Frobenius series R = sum a_j r^{(1-alpha)+j(2-alpha)} truncated at r0.

    Returns (R(r0), r0^alpha R'(r0)); the flux variable keeps the ODE system
    regular through the degenerate origin.
    """
    two_a = 2.0 - alpha
    a_j = 1.0
    e_j = 1.0 - alpha
    val = 0.0
    flux = 0.0
    for j in range(1, 60):
        val += a_j * r0**e_j
        flux += a_j * e_j * r0 ** (e_j + alpha - 1.0)
        e_next = (1.0 - alpha) + j * two_a
        a_j = -rho * a_j / (e_next * (j * two_a))
        e_j = e_next
        if abs(a_j) * r0**e_j < 1e-300:
            break
    return val, flux


def shooting_boundary_value(alpha: float, rho: float, r0: float = 1e-12) -> float:
    """R(1; rho) for the solution vanishing at r = 0 like r^(1-alpha)."""
    y0 = _series_start(alpha, rho, r0)

    def rhs(r, y):
        return [y[1] * r**-alpha, -rho * y[0]]

    sol = solve_ivp(
        rhs, (r0, 1.0), list(y0), method="DOP853", rtol=1e-11, atol=1e-14
    )
    return float(sol.y[0, -1])


def shooting_eigenvalue(alpha: float, k: int = 1, rho_max: float = 400.0) -> float:
    """k-th Dirichlet eigenvalue of -(r^alpha R')' = rho R on (0, 1) by shooting."""
    grid = np.arange(0.5, rho_max, 1.0)
    vals = [shooting_boundary_value(alpha, rho) for rho in grid[: 60 * k]]
    crossings = [
        (grid[i], grid[i + 1])
        for i in range(len(vals) - 1)
        if vals[i] * vals[i + 1] < 0.0
    ]
    if len(crossings) < k:
        raise RuntimeError("shooting scan found too few sign changes")
    lo, hi = crossings[k - 1]
    return float(
        brentq(lambda rho: shooting_boundary_value(alpha, rho), lo, hi, xtol=1e-10)
    )


def quad_power_integral(f, a: float, b: float, weight_exp: float) -> float:
    """Adaptive quadrature of r^weight_exp * f(r)^2 on (a, b)."""
    val, _ = quad(lambda r: r**weight_exp * f(r) ** 2, a, b, limit=400)
    return val


def _trapezoid(a: float, b: float, intervals: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite trapezoidal rule on (a, b)."""
    x = np.linspace(a, b, intervals + 1)
    w = np.full(x.size, (b - a) / intervals)
    w[[0, -1]] *= 0.5
    return x, w


def _theta_grams(orders: np.ndarray, intervals, n_theta: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal sine and cosine overlap matrices summed over theta intervals."""
    sines = np.zeros((orders.size, orders.size))
    cosines = np.zeros((orders.size, orders.size))
    for a, b in intervals:
        theta, w = _trapezoid(a, b, n_theta)
        s = np.sin(np.outer(orders, theta))
        c = np.cos(np.outer(orders, theta))
        sines += (s * w) @ s.T
        cosines += (c * w) @ c.T
    return sines, cosines


def trapezoid_observation_norms(
    state, T: float, delta0: float, n_theta: int = 256, n_theta_top: int = 8192
) -> tuple[float, float, float]:
    """Full trace, restricted trace and interior norm by the trapezoidal rule.

    Time: max(4096, ceil(16 w_max T / pi)) intervals, doubled once.  Theta:
    a trapezoid per interval, n_theta on each lateral strip and n_theta_top
    on the restricted top segment; the whole top side uses sine
    orthogonality.  Radius: the basis' consistent Gram matrix, eigenvalues
    and boundary fluxes.
    """
    n_max, k_max = state.a.shape
    basis = state.basis
    samples = 2 * max(4096, int(np.ceil(16.0 * float(state.omega.max()) * T / np.pi)))
    t, w_t = _trapezoid(0.0, T, samples)
    phase = state.omega.reshape(-1, 1) * t
    amp = state.a.reshape(-1, 1) * np.cos(phase) + (state.b / state.omega).reshape(-1, 1) * np.sin(phase)
    vel = state.b.reshape(-1, 1) * np.cos(phase) - (state.a * state.omega).reshape(-1, 1) * np.sin(phase)

    orders = np.arange(1, n_max + 1) * np.pi
    trace = np.einsum("nkt,k->nt", amp.reshape(n_max, k_max, -1), basis.flux[:k_max])
    top, _ = _theta_grams(orders, [(delta0, 1.0 - delta0)], n_theta_top)
    full = 0.5 * float(np.sum(trace**2 * w_t))
    restricted = float(np.einsum("nt,nm,mt,t->", trace, top, trace, w_t))

    c = 4.0 * delta0
    strips = [(0.0, 1.0)] if c >= 0.5 else [(0.0, c), (1.0 - c, 1.0)]
    g_s, g_c = _theta_grams(orders, strips, n_theta)
    gram = basis.consistent_gram(basis.k_max)[:k_max, :k_max]
    w_amp = ((amp * w_t) @ amp.T).reshape(n_max, k_max, n_max, k_max)
    w_vel = ((vel * w_t) @ vel.T).reshape(n_max, k_max, n_max, k_max)
    interior = (
        np.einsum("nkml,nm,kl->", w_vel, g_s, gram)
        + np.einsum("nkml,nm,kl->", w_amp, np.outer(orders, orders) * g_c, gram)
        + np.einsum("nkml,nm,kl->", w_amp, g_s, np.diag(basis.rho[:k_max]) + gram)
    )
    return full, restricted, float(interior)


#: float64 entries per time-kernel array in one block of all_pairs_observation_norms
_ALL_PAIRS_BLOCK_ELEMENTS = 2**18


def _trig_integrals(w: np.ndarray, T: float) -> tuple[np.ndarray, np.ndarray]:
    """int_0^T cos(w t) dt = sin(wT)/w and int_0^T sin(w t) dt = (1 - cos(wT))/w.

    Where |w| T < 1e-8 the quotients are replaced by their w -> 0 limits
    T - w^2 T^3 / 6 and w T^2 / 2.
    """
    wt = w * T
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.sin(wt) / w
        vers = (1.0 - np.cos(wt)) / w
    small = np.abs(w) * T < 1e-8
    w_small = w[small]
    sinc[small] = T - w_small**2 * T**3 / 6.0
    vers[small] = 0.5 * w_small * T**2
    return sinc, vers


def time_kernels(w: np.ndarray, T: float, one, other):
    """Exact int_0^T of cos cos, cos sin, sin cos and sin sin of (w_i t, w_j t).

    The four-kernel form the laboratory first integrated time with: mode i
    runs over w[one] and mode j over w[other], two index expressions that
    broadcast against each other, and all four kernels come from the sum
    and difference frequencies.
    """
    sinc_dif, vers_dif = _trig_integrals(w[one] - w[other], T)
    sinc_tot, vers_tot = _trig_integrals(w[one] + w[other], T)
    return (
        0.5 * (sinc_dif + sinc_tot),
        0.5 * (vers_tot - vers_dif),
        0.5 * (vers_tot + vers_dif),
        0.5 * (sinc_dif - sinc_tot),
    )


def pair_weights(kernels, c: np.ndarray, s: np.ndarray, one, other) -> np.ndarray:
    """int_0^T u_i(t) u_j(t) dt for u = c cos(w t) + s sin(w t), indexed as in the kernels."""
    cc, cs, sc, ss = kernels
    return c[one] * (c[other] * cc + s[other] * cs) + s[one] * (c[other] * sc + s[other] * ss)


def four_kernel_trace_gramian(flux: np.ndarray, omega: np.ndarray, T: float) -> np.ndarray:
    """Blocks G_n = [[F cc F, F cs F], [F sc F, F ss F]] of the full-side trace form."""
    cc, cs, sc, ss = time_kernels(omega, T, np.s_[:, :, None], np.s_[:, None, :])
    flux = np.tile(flux[: omega.shape[1]], 2)
    return np.block([[cc, cs], [sc, ss]]) * np.outer(flux, flux)


def _summed_strips_overlap(n_max: int, strips, kind: str) -> np.ndarray:
    build = sine_overlap_matrix if kind == "sine" else cosine_overlap_matrix
    out = np.zeros((n_max, n_max))
    for a, b in strips:
        out += build(n_max, a, b)
    return out


def pair_weight_full_trace_norm(state, T: float) -> float:
    """Full-side squared trace norm as first written: one pair-weight tensor per order."""
    flux = state.basis.flux[: state.k_max]
    w = state.omega
    one, other = np.s_[:, :, None], np.s_[:, None, :]
    kernels = time_kernels(w, T, one, other)
    pair = pair_weights(kernels, state.a, state.b / w, one, other)
    return 0.5 * float(np.einsum("nkl,k,l->", pair, flux, flux))


def per_member_ensemble_ratios(basis, seed: int, size: int, truncation, T: float) -> list[float]:
    """Hidden-trace ratios of a seeded ensemble, one member at a time, as first written."""
    n_max, k_max = truncation
    ratios = []
    for member in range(size):
        state = random_state(basis, n_max, k_max, seed, member=member)
        h1w, l2 = data_norms(state)
        ratios.append(pair_weight_full_trace_norm(state, T) / (h1w + l2))
    return ratios


def all_pairs_observation_norms(state, T: float, delta0: float) -> TraceReport:
    """observation_norms as first written: every pair of sine orders, no parity split.

    Each lateral strip's overlaps are evaluated and summed, and the time
    kernels are built for one block of orders against all orders.
    """
    n_max, k_max = state.n_max, state.k_max
    basis = state.basis
    flux = basis.flux[:k_max]
    gram = basis.consistent_gram(k_max)
    strips = theta_strips(delta0)
    strip_sines = _summed_strips_overlap(n_max, strips, "sine")
    mu = np.arange(1, n_max + 1) * math.pi
    # amplitude form: theta factor j pairs with radial factor j
    theta_amp = np.stack(
        [
            sine_overlap_matrix(n_max, delta0, 1.0 - delta0),  # restricted trace
            np.outer(mu, mu) * _summed_strips_overlap(n_max, strips, "cosine"),  # (d_theta phi)^2
            strip_sines,  # r^alpha (d_r phi)^2 + phi^2
        ],
        axis=-1,
    )
    radial_amp = np.stack(
        [np.outer(flux, flux), gram, np.diag(basis.rho[:k_max]) + gram], axis=-1
    ).reshape(k_max * k_max, 3)

    w = state.omega
    restricted = 0.0
    interior = 0.0
    block = max(1, _ALL_PAIRS_BLOCK_ELEMENTS // (n_max * k_max * k_max))
    every = np.s_[None, :, None, :]
    for lo in range(0, n_max, block):
        rows = np.s_[lo : lo + block, None, :, None]
        kernels = time_kernels(w, T, rows, every)  # (block, n_max, k_max, k_max)
        amp_pairs = pair_weights(kernels, state.a, state.b / w, rows, every)
        vel_pairs = pair_weights(kernels, state.b, -state.a * w, rows, every)  # phi_t
        del kernels
        amp_nm = (amp_pairs.reshape(-1, k_max * k_max) @ radial_amp).reshape(-1, n_max, 3)
        vel_nm = (vel_pairs.reshape(-1, k_max * k_max) @ gram.ravel()).reshape(-1, n_max)
        terms = np.sum(amp_nm * theta_amp[lo : lo + block], axis=(0, 1))
        restricted += float(terms[0])
        interior += float(terms[1] + terms[2] + np.sum(vel_nm * strip_sines[lo : lo + block]))
    return TraceReport(
        full_trace_norm_sq=pair_weight_full_trace_norm(state, T),
        restricted_trace_norm_sq=restricted,
        interior_norm_sq=interior,
    )


def _xi_spatial_range(alpha: float, grid_per_unit: int) -> tuple[float, float]:
    """Min and max of theta^2 + r^(2-alpha) over a spatial certification grid."""
    n = max(2, grid_per_unit)
    axis = np.linspace(0.0, 1.0, n + 1)
    spatial = axis[:, None] ** 2 + axis[None, :] ** (2.0 - alpha)
    return float(spatial.min()), float(spatial.max())


def _band_certified(
    alpha: float,
    beta: float,
    T: float,
    gamma_hat: float,
    epsilon: float,
    grid_per_unit: int,
    spatial_range: tuple[float, float] | None = None,
) -> bool:
    """Grid check of the two band conditions on xi for a candidate epsilon.

    Outer bands (0, 2*epsilon) and (T - 2*epsilon, T): xi <= -2*gamma_hat
    everywhere.  Center band |t - T/2| <= epsilon: xi >= -gamma_hat
    everywhere.  Band endpoints are always included, so the check is
    conservative under refinement (xi is monotone in |t - T/2|).
    """
    lo, hi = spatial_range or _xi_spatial_range(alpha, grid_per_unit)
    t0 = 0.5 * T

    def tgrid(a: float, b: float) -> np.ndarray:
        n = max(2, int(math.ceil((b - a) * grid_per_unit)))
        return np.linspace(a, b, n + 1)

    for a, b in ((0.0, 2.0 * epsilon), (T - 2.0 * epsilon, T)):
        xi_max = hi - beta * (tgrid(a, b) - t0) ** 2
        if not np.all(xi_max <= -2.0 * gamma_hat):
            return False
    xi_min = lo - beta * (tgrid(t0 - epsilon, t0 + epsilon) - t0) ** 2
    return bool(np.all(xi_min >= -gamma_hat))


def symbolic_weight():
    """sigma = exp(lam xi) in sympy, every coordinate and parameter a symbol.

    Returns ((theta, r, t), (alpha, lam, s, beta, t0), sigma) with
    xi = theta^2 + r^(2-alpha) - beta (t - t0)^2.
    """
    import sympy as sp

    theta, t = sp.symbols("theta t", real=True)
    r, alpha, lam, s, beta, t0 = sp.symbols("r alpha lam s beta t0", positive=True)
    xi = theta**2 + r ** (2 - alpha) - beta * (t - t0) ** 2
    return (theta, r, t), (alpha, lam, s, beta, t0), sp.exp(lam * xi)


def weight_derivatives(params: CarlemanParams, theta, r, t) -> dict[str, np.ndarray]:
    """sigma and its first and second derivatives along each axis, at the points.

    Keys "sigma", "sigma_x" and "sigma_xx" for x in "th", "r", "t": sympy
    differentiates `symbolic_weight` at the parameters of `params`, so no
    formula is shared with the package.
    """
    import sympy as sp

    coords, (alpha, lam, _, beta, t0), sigma = symbolic_weight()
    sigma = sigma.subs({alpha: params.alpha, lam: params.lam, beta: params.beta, t0: params.t0})
    exprs = {"sigma": sigma}
    for name, x in zip(("th", "r", "t"), coords):
        exprs[f"sigma_{name}"] = sp.diff(sigma, x)
        exprs[f"sigma_{name}{name}"] = sp.diff(sigma, x, 2)
    return {key: sp.lambdify(coords, e, "numpy")(theta, r, t) for key, e in exprs.items()}


def mode_amplitude(m, t):
    """amp(t) = a cos(omega t) + (b / omega) sin(omega t) of one exact mode."""
    return m.a * np.cos(m.omega * t) + m.b / m.omega * np.sin(m.omega * t)


def mode_velocity(m, t):
    """amp'(t) = -a omega sin(omega t) + b cos(omega t) of one exact mode."""
    return -m.a * m.omega * np.sin(m.omega * t) + m.b * np.cos(m.omega * t)


def modal_sum(
    solution: SmoothModalSolution, theta, r, t, time_part: str, angular: str, radial: str
) -> np.ndarray:
    """A modal field evaluated pointwise, one mode at a time, as first written.

    time_part "amp" or "vel", angular and radial "value" or "deriv": for
    example ("amp", "value", "deriv") is phi_r.
    """
    theta = np.asarray(theta, dtype=float)
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    out = None
    for m in solution.modes:
        tp = mode_amplitude(m, t) if time_part == "amp" else mode_velocity(m, t)
        ang = np.sin(m.n * math.pi * theta)
        if angular == "deriv":
            ang = m.n * math.pi * np.cos(m.n * math.pi * theta)
        rad = m.radial(r) if radial == "value" else m.radial_deriv(r)
        term = tp * ang * rad
        out = term if out is None else out + term
    return 0.0 if out is None else out


def two_band_cutoff(spec: CutoffSpec, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A plateau cutoff and its first two derivatives as first written: the
    plateau and the off-support set, then each transition band on its own."""
    x = np.asarray(x, dtype=float)
    a, b = spec.rise
    c, d = spec.fall
    val = np.where((x >= b) & (x <= c), 1.0, 0.0)
    d1 = np.zeros_like(val)
    d2 = np.zeros_like(val)

    up = (x > a) & (x < b)
    if np.any(up):
        w = b - a
        s, ds, dds = _smoothstep((x[up] - a) / w)
        val[up] = s
        d1[up] = ds / w
        d2[up] = dds / w**2
    down = (x > c) & (x < d)
    if np.any(down):
        w = d - c
        s, ds, dds = _smoothstep((d - x[down]) / w)
        val[down] = s
        d1[down] = -ds / w
        d2[down] = dds / w**2
    return val, d1, d2


def slab_conjugation_residual(
    solution: SmoothModalSolution,
    params: CarlemanParams,
    shape: tuple[int, int, int] = (768, 96, 512),
    r_min: float = 0.1,
    zeta: CutoffSpec | None = None,
    kcut: CutoffSpec | None = None,
    t_chunk: int = 0,
) -> ConjugationReport:
    """The conjugation residual as first written: whole-theta t-slabs.

    Reference for the tiled kernel in `degenwave.carleman`: every slab-sized
    temporary is materialized and the four operator pieces P1+, P2+, P1-,
    P2- are formed separately, exactly as the identity reads.
    """
    alpha = params.alpha
    lam, s, beta = params.lam, params.s, params.beta
    theta, r, t = _residual_axes(params, shape, r_min, params.T)
    h_theta = theta[1] - theta[0]
    h_r = r[1] - r[0]
    h_t = t[1] - t[0]
    zeta = zeta or theta_cutoff(params.delta0)
    kcut = kcut or time_cutoff(params.epsilon, params.T)

    zv, zd1, zd2 = two_band_cutoff(zeta, theta)
    two_a = 2.0 - alpha
    r_pow = r**two_a
    r_alpha = r**alpha
    r_alpha_m1 = alpha * r ** (alpha - 1.0)
    quad_rad = two_a**2 * r_pow

    th_c = theta[1:-1][:, None, None]
    zv_c = zv[1:-1][:, None, None]
    r_c = r[1:-1][None, :, None]
    r_alpha_c = r_alpha[1:-1][None, :, None]
    r_alpha_m1_c = r_alpha_m1[1:-1][None, :, None]

    acc_res = 0.0
    acc_ref = 0.0
    if t_chunk <= 0:
        # slabs of ~1.6M points keep every temporary cache-resident
        t_chunk = max(4, int(1.6e6 / (theta.size * r.size)))

    # sigma = exp(lam xi) factorizes over the three axes; only exp(s sigma)
    # needs a full-volume transcendental per chunk
    sig_theta = np.exp(lam * theta**2)
    sig_r = np.exp(lam * r_pow)

    for lo in range(1, t.size - 1, t_chunk):
        hi = min(lo + t_chunk, t.size - 1)
        slab = slice(lo - 1, hi + 1)
        ts = t[slab]
        kv, kd1, kd2 = two_band_cutoff(kcut, ts)

        phi = modal_sum(
            solution, theta[:, None, None], r[None, :, None], ts[None, None, :],
            "amp", "value", "value",
        )
        sig_t = np.exp(-lam * beta * (ts - params.t0) ** 2)
        sigma = sig_theta[:, None, None] * (sig_r[:, None] * sig_t[None, :])[None, :, :]
        esig = np.exp(s * sigma)
        eta = esig * ((zv[:, None] * kv[None, :])[:, None, :] * phi)

        # second-order centered differences, sliced to the common interior
        eta_tt = (eta[:, :, 2:] - 2.0 * eta[:, :, 1:-1] + eta[:, :, :-2])[1:-1, 1:-1, :] / h_t**2
        eta_t = (eta[:, :, 2:] - eta[:, :, :-2])[1:-1, 1:-1, :] / (2.0 * h_t)
        eta_thth = (eta[2:] - 2.0 * eta[1:-1] + eta[:-2])[:, 1:-1, 1:-1] / h_theta**2
        eta_th = (eta[2:] - eta[:-2])[:, 1:-1, 1:-1] / (2.0 * h_theta)
        eta_rr = (eta[:, 2:] - 2.0 * eta[:, 1:-1] + eta[:, :-2])[1:-1, :, 1:-1] / h_r**2
        eta_r = (eta[:, 2:] - eta[:, :-2])[1:-1, :, 1:-1] / (2.0 * h_r)

        sig_i = sigma[1:-1, 1:-1, 1:-1]
        eta_i = eta[1:-1, 1:-1, 1:-1]
        ts_i = ts[1:-1][None, None, :]
        xi_t = -2.0 * beta * (ts_i - params.t0)
        sigma_t = lam * sig_i * xi_t
        b = xi_t**2 - (4.0 * th_c**2 + quad_rad[1:-1][None, :, None])

        p1_plus = eta_tt - (eta_thth + r_alpha_c * eta_rr + r_alpha_m1_c * eta_r)
        p2_plus = s**2 * lam**2 * sig_i**2 * b * eta_i
        p1_minus = 2.0 * s * (
            -eta_t * sigma_t
            + lam * sig_i * (2.0 * th_c * eta_th + two_a * r_c * eta_r)
        )
        p2_minus = s * eta_i * ((4.0 - alpha + 2.0 * beta) * lam * sig_i - lam**2 * sig_i * b)

        phi_i = phi[1:-1, 1:-1, 1:-1]
        points = (theta[1:-1][:, None, None], r[1:-1][None, :, None], ts[1:-1][None, None, :])
        phi_t = modal_sum(solution, *points, "vel", "value", "value")
        phi_th = modal_sum(solution, *points, "amp", "deriv", "value")
        kv_i = kv[1:-1][None, None, :]
        kd1_i = kd1[1:-1][None, None, :]
        kd2_i = kd2[1:-1][None, None, :]
        h_src = (
            2.0 * zv_c * kd1_i * phi_t
            + zv_c * kd2_i * phi_i
            - 2.0 * kv_i * zd1[1:-1][:, None, None] * phi_th
            - kv_i * zd2[1:-1][:, None, None] * phi_i
        )
        lhs = esig[1:-1, 1:-1, 1:-1] * h_src

        diff = lhs - (p1_plus + p2_plus + p1_minus + p2_minus)
        acc_res += float(np.sum(diff**2))
        acc_ref += float(np.sum(lhs**2))

    vol = h_theta * h_r * h_t
    res = math.sqrt(acc_res * vol)
    ref = math.sqrt(acc_ref * vol)
    return ConjugationReport(
        residual_norm=res,
        reference_norm=ref,
        relative=res / max(ref, np.finfo(float).tiny),
        shape=shape,
        spacings=(h_theta, h_r, h_t),
        r_min=r_min,
    )


def _pointwise_region_integrals(
    solution: SmoothModalSolution,
    params: CarlemanParams,
    theta_lo: float,
    theta_hi: float,
    n_theta: int,
    n_r: int,
    n_t: int,
    log_offset: float,
    with_cutoffs: bool,
    zeta: CutoffSpec,
    kcut: CutoffSpec,
) -> dict[str, float]:
    """Tensor quadrature of the weighted integrands over one theta interval.

    Every field and the weight sigma = exp(lam xi) are evaluated pointwise
    on slabs of eight theta rows, and the integrands are formed point by
    point, exactly as the identity reads.
    """
    alpha, lam, s = params.alpha, params.lam, params.s
    theta = np.linspace(theta_lo, theta_hi, n_theta + 1)
    w_th = _trapezoid_weights(n_theta, (theta_hi - theta_lo) / n_theta)
    hr = 1.0 / n_r
    r = (np.arange(n_r) + 0.5) * hr
    t = np.linspace(0.0, params.T, n_t + 1)
    w_t = _trapezoid_weights(n_t, params.T / n_t)
    zv, zd1, _ = two_band_cutoff(zeta, theta)
    kv, kd1, kd2 = two_band_cutoff(kcut, t)
    r3 = r[None, :, None]
    r_alpha = r3**alpha

    sums = np.zeros(2)
    jt = slice(None)
    for i0 in range(0, theta.size, 8):
        ith = slice(i0, i0 + 8)
        th3, t3 = theta[ith, None, None], t[None, None, jt]
        # sigma = exp(lam xi) at every point of the tile, from xi itself
        xi = th3**2 + r3 ** (2.0 - alpha) - params.beta * (t3 - params.t0) ** 2
        sigma = np.exp(lam * xi)
        # e^{2 s sigma - log_offset} times the theta and t rule weights
        weight = np.exp(2.0 * s * sigma - log_offset)
        weight *= (w_th[ith, None] * w_t[None, jt])[:, None, :]

        phi = modal_sum(solution, th3, r3, t3, "amp", "value", "value")
        phi_t = modal_sum(solution, th3, r3, t3, "vel", "value", "value")
        phi_th = modal_sum(solution, th3, r3, t3, "amp", "deriv", "value")
        phi_r = modal_sum(solution, th3, r3, t3, "amp", "value", "deriv")
        if with_cutoffs:
            # psi = k zeta phi; its derivatives overwrite those of phi
            kz = (zv[ith, None] * kv[None, jt])[:, None, :]
            phi_t *= kz
            phi_t += (zv[ith, None] * kd1[None, jt])[:, None, :] * phi
            phi_th *= kz
            phi_th += (zd1[ith, None] * kv[None, jt])[:, None, :] * phi
            phi_r *= kz
            phi *= kz
            grad_sq = phi_t**2 + phi_th**2 + r_alpha * phi_r**2
            sums += (
                np.vdot(sigma * grad_sq, weight),
                np.vdot(sigma * sigma * sigma * phi**2, weight),
            )
        else:
            interior = s**2 * phi**2 + phi_th**2 + r_alpha * phi_r**2 + phi_t**2
            commutator = (kd1[None, None, jt] * phi_t + kd2[None, None, jt] * phi) ** 2
            sums += (np.vdot(interior, weight), np.vdot(commutator, weight))
    sums *= hr
    if with_cutoffs:
        return {
            "lhs_gradient": s * lam * float(sums[0]),
            "lhs_zero_order": s**3 * lam**3 * float(sums[1]),
        }
    return {"rhs_interior": float(sums[0]), "rhs_commutator": float(sums[1])}


def pointwise_component_integrals(
    solution: SmoothModalSolution,
    params: CarlemanParams,
    n_theta: int = 192,
    n_r: int = 128,
    n_t: int = 384,
) -> ComponentIntegrals:
    """The component integrals as first written: pointwise integrands per tile.

    Reference for `degenwave.carleman.carleman_component_integrals`, which
    contracts the weight over r against radial pair products instead.
    """
    d0 = params.delta0
    lam, s = params.lam, params.s
    zeta = theta_cutoff(d0)
    kcut = time_cutoff(params.epsilon, params.T)

    # global peak of 2 s sigma: xi is maximal at (theta, r, t) = (1, 1, t0)
    sigma_max = math.exp(lam * 2.0)
    log_offset = 2.0 * s * sigma_max

    lhs = _pointwise_region_integrals(
        solution, params, 3.0 * d0, 1.0 - 3.0 * d0, n_theta, n_r, n_t,
        log_offset, True, zeta, kcut,
    )
    strip = {"rhs_interior": 0.0, "rhs_commutator": 0.0}
    for lo, hi in ((0.0, 4.0 * d0), (1.0 - 4.0 * d0, 1.0)):
        part = _pointwise_region_integrals(
            solution, params, lo, hi, max(32, n_theta // 4), n_r, n_t,
            log_offset, False, zeta, kcut,
        )
        strip["rhs_interior"] += part["rhs_interior"]
        strip["rhs_commutator"] += part["rhs_commutator"]

    # restricted top-side trace: s l int sigma (d_r phi)^2, no exponential
    theta = np.linspace(d0, 1.0 - d0, n_theta + 1)
    w_th = _trapezoid_weights(n_theta, (1.0 - 2.0 * d0) / n_theta)
    t = np.linspace(0.0, params.T, n_t + 1)
    w_t = _trapezoid_weights(n_t, params.T / n_t)
    xi_top = theta[:, None] ** 2 + 1.0 - params.beta * (t[None, :] - params.t0) ** 2
    sigma_top = np.exp(lam * xi_top)
    tr = 0.0
    for m in solution.modes:
        ang = np.sin(m.n * math.pi * theta[:, None])
        tr = tr + mode_amplitude(m, t[None, :]) * ang * m.flux_at_1
    rhs_trace = s * lam * float(np.sum(sigma_top * tr**2 * w_th[:, None] * w_t[None, :]))

    denom = rhs_trace * math.exp(-log_offset) + strip["rhs_interior"] + strip["rhs_commutator"]
    chat = (lhs["lhs_gradient"] + lhs["lhs_zero_order"]) / max(denom, np.finfo(float).tiny)
    scale = math.exp(log_offset) if log_offset < 700.0 else math.inf
    return ComponentIntegrals(
        lhs_gradient=lhs["lhs_gradient"] * scale,
        lhs_zero_order=lhs["lhs_zero_order"] * scale,
        rhs_trace=rhs_trace,
        rhs_interior=strip["rhs_interior"] * scale,
        rhs_commutator=strip["rhs_commutator"] * scale,
        chat=chat,
        s=s,
        lam=lam,
        log_offset=log_offset,
    )


# below this exponent exp(x) is subnormal (about -708.4)
_LOG_TINY = math.log(np.finfo(float).tiny)


def unskipped_contracted_weight_tiles(
    params: CarlemanParams, theta: np.ndarray, w_th: np.ndarray, r: np.ndarray, t: np.ndarray,
    w_t: np.ndarray, rows: np.ndarray, log_offset: float,
):
    """`degenwave.carleman._contracted_weight_tiles` with a subnormal flush.

    Every tile is yielded, and every tile flushes its subnormal weights
    element by element, as the kernel once did; a drop-in replacement, so
    that `carleman_component_integrals` run on it gives the values of a
    loop that counts subnormal weights as exactly zero.
    """
    flat = rows.reshape(-1, r.size)
    sig_theta, sig_r, sig_t = _sigma_factors(params, theta, r, t)
    for ith, jt in _tiles(theta.size, r.size, t.size, 0):
        weight = sig_theta[ith, None, None] * (sig_r[:, None] * sig_t[None, jt])[None, :, :]
        weight *= 2.0 * params.s
        weight -= log_offset
        weight[weight < _LOG_TINY] = -np.inf
        np.exp(weight, out=weight)
        g = np.matmul(flat, weight)  # (theta, row, t)
        g *= (w_th[ith, None] * w_t[None, jt])[:, None, :]
        g = np.moveaxis(g, 1, 0).reshape(rows.shape[:-1] + (g.shape[0], g.shape[2]))
        yield ith, jt, g


def one_sided_flux(mesh: RadialMesh, R: np.ndarray) -> float:
    """Second-order one-sided derivative at the right endpoint.

    Differentiates the quadratic through the last three nodes; valid on
    nonuniform meshes.
    """
    r2, r1, r0 = mesh.nodes[-3], mesh.nodes[-2], mesh.nodes[-1]
    f2, f1, f0 = R[-3], R[-2], R[-1]
    h1 = r0 - r1
    h2 = r0 - r2
    return float(f0 * (1.0 / h1 + 1.0 / h2) - f1 * h2 / (h1 * (h2 - h1)) + f2 * h1 / (h2 * (h2 - h1)))


def _variational_flux(mats: WeightedMatrices, full: np.ndarray, rho: float) -> float:
    """Boundary derivative at the right endpoint by variational recovery.

    Tests the eigen-equation against the boundary hat function: the residual
    of the last full row equals r^p R' there.  Falls back to a one-sided
    difference when the recovered value is not finite.
    """
    kd, ke, md, me = mats.kd, mats.ke, mats.md, mats.me
    k_row = ke[-1] * full[-2] + kd[-1] * full[-1]
    m_row = me[-1] * full[-2] + md[-1] * full[-1]
    flux = (k_row - rho * m_row) / mats.mesh.nodes[-1] ** mats.p
    if not math.isfinite(flux):  # pragma: no cover - defensive
        return one_sided_flux(mats.mesh, full)
    return float(flux)


def stebz_stein_eigenpairs(
    mats: WeightedMatrices, k_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lumped eigensolver before its calls were split over threads.

    Reference for `degenwave.radial.solve_eigenpairs` at k_max <= 64, where
    its bisection is a single chunk: one f2py `dstebz` call for the whole
    request, f2py `dstein` once per eigenvalue, then Cholesky QR in the
    lumped inner product.  Returns (rho, R, flux), R holding one full nodal
    vector per row.
    """
    from scipy.linalg import blas, lapack

    n = mats.n_dof
    d_lump = mats.lumped
    sqrt_d = np.sqrt(d_lump)
    diag = mats.kd_dof / d_lump
    off = np.zeros(max(n - 1, 1))
    off[: n - 1] = mats.ke_dof / (sqrt_d[:-1] * sqrt_d[1:])

    m, w, iblock, isplit, info = lapack.dstebz(diag, off, 2, 0.0, 1.0, 1, k_max, 0.0, "B")
    if info != 0 or m != k_max:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"dstebz returned info {info}, {m} of {k_max} values")
    z = np.empty((k_max, n))
    one_block = np.empty(n, dtype=iblock.dtype)
    for row, j in enumerate(np.argsort(w[:m], kind="stable")):
        one_block[0] = iblock[j]
        vec, info = lapack.dstein(diag, off, w[j : j + 1], one_block, isplit)
        if info != 0:  # pragma: no cover - LAPACK failure
            raise ConvergenceFailure(f"dstein returned info {info} at {row}")
        z[row] = vec[:, 0]

    gram = blas.dsyrk(1.0, z.T, trans=1, lower=1)
    chol, info = lapack.dpotrf(gram, lower=1, overwrite_a=1)
    if info != 0:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"dpotrf returned info {info}")
    blas.dtrsm(1.0, chol, z.T, side=1, lower=1, trans_a=1, overwrite_b=1)

    R = np.zeros((k_max, mats.mesh.nodes.size))
    x = R[:, mats.i0 : mats.i1]
    np.divide(z, sqrt_d, out=x)
    first = np.argmax(x != 0.0, axis=1)
    R *= np.where(x[np.arange(k_max), first] < 0.0, -1.0, 1.0)[:, None]
    rho = np.array([mats.stiffness_product(xj, xj) for xj in x])
    flux = np.array([_variational_flux(mats, full, rj) for full, rj in zip(R, rho)])
    return rho, R, flux


def banded_refine_smallest_eigenpair(mats: WeightedMatrices) -> tuple[float, np.ndarray]:
    """Consistent inverse iteration as first written, with scipy's solveh_banded.

    Reference for `degenwave.radial.refine_smallest_eigenpair`: the same
    iteration and stopping rules, but every step solves the tridiagonal
    stiffness afresh through `scipy.linalg.solveh_banded` (LAPACK dptsv,
    that is dpttrf and dpttrs on each call, with a finite check of both
    operands).
    """
    n = mats.n_dof
    ab = np.zeros((2, n))
    ab[0, 1:] = mats.ke_dof
    ab[1, :] = mats.kd_dof
    x = np.ones(n)
    rho_old = np.inf
    change_old = np.inf
    stalls = 0
    for it in range(400):
        y = scipy.linalg.solveh_banded(ab, mats.mass_action(x))
        nrm = math.sqrt(y @ mats.mass_action(y))
        if nrm == 0.0:  # pragma: no cover - degenerate start
            raise ConvergenceFailure("inverse iteration collapsed to zero")
        x = y / nrm
        rho = float(x @ mats.stiffness_action(x))
        change = abs(rho - rho_old)
        if change <= 1e-10 * abs(rho):
            return rho, x
        if it >= 3 and change >= change_old:
            stalls += 1
            if stalls >= 3:
                return rho, x
        else:
            stalls = 0
        rho_old, change_old = rho, change
    raise ConvergenceFailure("consistent inverse iteration did not converge in 400 steps")


def capsule_lapack(name: str):
    """LAPACK or BLAS routine `name` as the solver bound it before it took
    numpy's own OpenBLAS: the C function pointer that scipy's extension
    scipy.linalg.cython_lapack (or cython_blas) exports in its __pyx_capi__
    capsules, bound with ctypes.  These are C wrappers over scipy's 32-bit
    OpenBLAS: every argument is a pointer, integers are C ints, and no
    hidden character lengths follow.
    """
    import ctypes

    from scipy.linalg import cython_blas, cython_lapack

    capsules = cython_lapack.__pyx_capi__
    capsule = capsules[name] if name in capsules else cython_blas.__pyx_capi__[name]
    # typed copies of the C API functions; ctypes.pythonapi's own stay untouched
    get_name = ctypes.pythonapi["PyCapsule_GetName"]
    get_name.argtypes, get_name.restype = [ctypes.py_object], ctypes.c_char_p
    get_pointer = ctypes.pythonapi["PyCapsule_GetPointer"]
    get_pointer.argtypes, get_pointer.restype = [ctypes.py_object, ctypes.c_char_p], ctypes.c_void_p
    signature = get_name(capsule)  # "void (char *, int *, ...)"
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * signature.count(b"*"))
    return prototype(get_pointer(capsule, signature))


def capsule_eigenpairs(
    mats: WeightedMatrices, k_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lumped eigensolver through scipy's capsules (`capsule_lapack`).

    Reference for `degenwave.radial.solve_eigenpairs`, whose calls it makes
    one after the other on one thread: dstebz per chunk of 64 indices,
    dstein once per eigenvalue into the dof slots of R, then Cholesky QR in
    place (dsyrk, dpotrf, dtrsm with the row length of R as leading
    dimension).  Returns (rho, R, flux), R holding one full nodal vector per
    row.
    """
    import ctypes

    byref = ctypes.byref
    n = mats.n_dof
    sqrt_d = np.sqrt(mats.lumped)
    diag = mats.kd_dof / mats.lumped
    off = np.zeros(max(n - 1, 1))
    off[: n - 1] = mats.ke_dof / (sqrt_d[:-1] * sqrt_d[1:])

    c_n, c_one = ctypes.c_int(n), ctypes.c_int(1)
    c_vl, c_vu, c_tol = ctypes.c_double(0.0), ctypes.c_double(1.0), ctypes.c_double(0.0)
    w, blocks = np.empty(k_max), np.empty(k_max, dtype=np.intc)
    vals, block = np.empty(n), np.empty(n, dtype=np.intc)
    isplit = np.empty(n, dtype=np.intc)
    work, iwork = np.empty(5 * n), np.empty(3 * n, dtype=np.intc)
    il, iu, m, nsplit, ifail, info = (ctypes.c_int() for _ in range(6))
    stebz = capsule_lapack("dstebz")
    for lo in range(0, k_max, 64):
        hi = min(lo + 64, k_max)
        il.value, iu.value = lo + 1, hi
        stebz(
            b"I", b"B", byref(c_n), byref(c_vl), byref(c_vu), byref(il), byref(iu),
            byref(c_tol), diag.ctypes, off.ctypes, byref(m), byref(nsplit),
            vals.ctypes, block.ctypes, isplit.ctypes, work.ctypes, iwork.ctypes, byref(info),
        )
        if info.value != 0 or m.value != hi - lo:  # pragma: no cover - LAPACK failure
            raise ConvergenceFailure(f"dstebz returned info {info.value}, {m.value} values")
        order = np.argsort(vals[: m.value], kind="stable")
        w[lo:hi] = vals[order]
        blocks[lo:hi] = block[order]

    R = np.zeros((k_max, mats.mesh.nodes.size))
    x = R[:, mats.i0 : mats.i1]
    stein = capsule_lapack("dstein")
    for row in range(k_max):
        stein(
            byref(c_n), diag.ctypes, off.ctypes, byref(c_one), w[row:].ctypes,
            blocks[row:].ctypes, isplit.ctypes, x[row].ctypes, byref(c_n),
            work.ctypes, iwork.ctypes, byref(ifail), byref(info),
        )
        if info.value != 0:  # pragma: no cover - LAPACK failure
            raise ConvergenceFailure(f"dstein returned info {info.value} at {row}")

    c_k, c_unit, c_zero = ctypes.c_int(k_max), ctypes.c_double(1.0), ctypes.c_double(0.0)
    c_ld = ctypes.c_int(R.shape[1])
    gram = np.zeros((k_max, k_max), order="F")
    capsule_lapack("dsyrk")(
        b"L", b"T", byref(c_k), byref(c_n), byref(c_unit), x.ctypes, byref(c_ld),
        byref(c_zero), gram.ctypes, byref(c_k),
    )
    capsule_lapack("dpotrf")(b"L", byref(c_k), gram.ctypes, byref(c_k), byref(info))
    if info.value != 0:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"dpotrf returned info {info.value}")
    capsule_lapack("dtrsm")(
        b"R", b"L", b"T", b"N", byref(c_n), byref(c_k), byref(c_unit), gram.ctypes,
        byref(c_k), x.ctypes, byref(c_ld),
    )

    rho = np.empty(k_max)
    for j, xj in enumerate(x):
        xj /= sqrt_d
        if xj[np.argmax(xj != 0.0)] < 0.0:
            R[j] *= -1.0
        rho[j] = mats.stiffness_product(xj, xj)
    flux = np.array([_variational_flux(mats, full, rj) for full, rj in zip(R, rho)])
    return rho, R, flux


def capsule_refine_smallest_eigenpair(mats: WeightedMatrices) -> tuple[float, np.ndarray]:
    """Consistent inverse iteration through scipy's capsules (`capsule_lapack`).

    Reference for `degenwave.radial.refine_smallest_eigenpair`: the
    stiffness factored once by dpttrf, each step solved by dpttrs, and the
    stopping rules of `banded_refine_smallest_eigenpair`.
    """
    import ctypes

    byref = ctypes.byref
    n = mats.n_dof
    c_n, c_one, info = ctypes.c_int(n), ctypes.c_int(1), ctypes.c_int()
    d, e = mats.kd_dof.copy(), mats.ke_dof.copy()
    capsule_lapack("dpttrf")(byref(c_n), d.ctypes, e.ctypes, byref(info))
    if info.value != 0:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"dpttrf returned info {info.value}")
    solve = capsule_lapack("dpttrs")
    x = np.ones(n)
    rho_old = np.inf
    change_old = np.inf
    stalls = 0
    for it in range(400):
        y = mats.mass_action(x)
        solve(byref(c_n), byref(c_one), d.ctypes, e.ctypes, y.ctypes, byref(c_n), byref(info))
        x = y / math.sqrt(y @ mats.mass_action(y))
        rho = float(x @ mats.stiffness_action(x))
        change = abs(rho - rho_old)
        if change <= 1e-10 * abs(rho):
            return rho, x
        if it >= 3 and change >= change_old:
            stalls += 1
            if stalls >= 3:
                return rho, x
        else:
            stalls = 0
        rho_old, change_old = rho, change
    raise ConvergenceFailure("consistent inverse iteration did not converge in 400 steps")


def mgs_eigenpairs(
    mats: WeightedMatrices, k_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lumped eigensolver as first written: eigh_tridiagonal plus MGS.

    Reference for `degenwave.radial.solve_eigenpairs`: one `stebz`/`stein`
    call for the whole request, then modified Gram-Schmidt in the lumped
    inner product, one eigenpair at a time.  Returns the arrays
    (rho, R, flux, weighted_energy), R holding one full nodal vector per row.
    """
    n = mats.n_dof
    if not 1 <= k_max <= n:
        raise ValueError(f"k_max must lie in [1, {n}], got {k_max}")
    d_lump = mats.lumped
    if np.any(d_lump <= 0.0):
        raise DivergentWeight("lumped mass must be positive on all dofs")
    sqrt_d = np.sqrt(d_lump)
    diag = mats.kd_dof / d_lump
    off = mats.ke_dof / (sqrt_d[:-1] * sqrt_d[1:])
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, k_max - 1), lapack_driver="stebz"
        )
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"tridiagonal eigensolver failed: {exc}") from exc

    x = vecs / sqrt_d[:, None]
    # modified Gram-Schmidt in the lumped inner product; bisection+stein can
    # lose orthogonality only for pathologically clustered eigenvalues, but
    # the invariant is cheap to enforce unconditionally
    for j in range(k_max):
        for i in range(j):
            x[:, j] -= (x[:, i] * d_lump) @ x[:, j] * x[:, i]
        nrm = math.sqrt((x[:, j] * d_lump) @ x[:, j])
        if nrm == 0.0:
            raise ConvergenceFailure(f"inverse iteration returned a null vector at {j}")
        x[:, j] /= nrm

    rho = np.empty(k_max)
    R = np.zeros((k_max, mats.mesh.nodes.size))  # zero off the dof window
    flux = np.empty(k_max)
    for j in range(k_max):
        xj = x[:, j]
        nz = np.flatnonzero(xj)
        if nz.size and xj[nz[0]] < 0.0:
            xj = -xj
        # bisection locates eigenvalues only to ~eps * ||T||, which the huge
        # near-origin diagonal entries can make coarse; the Rayleigh quotient
        # of the computed eigenvector is second-order accurate in its
        # residual and restores near-machine eigenvalues
        rho[j] = mats.stiffness_product(xj, xj)  # x is unit-norm in the lumped mass
        R[j, mats.i0 : mats.i1] = xj
        flux[j] = _variational_flux(mats, R[j], rho[j])
    return rho, R, flux, rho.copy()
