"""Carleman weight machinery: the weight on tensor grids and grid checks.

The weight exponent is xi = theta^2 + r^(2-alpha) - beta (t - t0)^2 and
sigma = exp(lambda xi).  This module evaluates sigma from its one-axis
factors, measures the conjugation identity exp(s sigma) h = P+ eta + P- eta
for eta = exp(s sigma) psi as a finite-difference residual on a tensor
grid, whose kernel carries the derivatives of sigma in fused closed form,
and computes the named component integrals of the observability-producing
estimate, on one grid for a single s and for an empirical constant scan.

Exact smooth modal solutions (Bessel radial profiles) are used wherever a
residual is differentiated numerically: second-order convergence of the
centered stencils needs four bounded derivatives, which the piecewise
linear eigenvectors of the solver cannot offer.

Modes, sigma and both cutoffs are products of one-axis factors, which the
kernels evaluate once per axis per call.  Both kernels walk theta x t in
the tiles of one walker, `_tiles` (with a one-point halo for the residual's
stencils), and a tile carries only the weight exp(s sigma) and the
residual's stencil.  The weighted quadratures contract each tile's weight
over r against radial pair products (R_i R_j, r^alpha R_i' R_j') and reduce
the result against (theta, t) products of the angular, temporal and cutoff
factors, walking the core once and the two lateral strips, joined into one
theta axis, once.

The residual skips work whose result is exactly zero, so no sum moves by
a bit for it: the tiles on which the cutoffs vanish, and its source term
exp(s sigma) h on the tiles that meet no cutoff band, where h = 0
identically.  The residual spreads its tiles over one thread per CPU
the process may use.  Each thread keeps its tile intermediates in buffers
allocated once per call and forms the sums of squares with einsum, so the
residual makes no BLAS call (and wakes no BLAS thread pool); the per-tile
sums are added in tile order, so the result does not depend on the number
of threads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ._threads import deal
from .errors import (
    DegenerateCellTouched,
    GridMismatch,
    InsufficientData,
    NonFiniteReport,
    ParameterOutOfRange,
)
from .params import (
    CarlemanParams,
    _real,
    _reals,
    _whole,
    eval_cutoff,
    theta_cutoff,
    theta_strips,
    time_cutoff,
)
from .radial import bessel_radial_mode
from .waves import _rotate, _trapezoid_weights

__all__ = [
    "SmoothMode",
    "SmoothModalSolution",
    "ConjugationReport",
    "ComponentIntegrals",
    "build_weight_field",
    "bessel_mode",
    "conjugation_residual",
    "conjugation_order_study",
    "carleman_component_integrals",
    "carleman_constant_scan",
]


# ---------------------------------------------------------------------------
# Exact smooth modal solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMode:
    """One separated mode amp(t) sin(n pi theta) R(r) with exact radial profile.

    A mode keeps the alpha, radial index k and amplitudes a, b it is given
    and the sine order n as an int, and derives the k-th Bessel profile R of
    `bessel_radial_mode` at alpha, its derivative, its flux R'(1) and the
    frequency omega = sqrt((n pi)^2 + rho_k) whenever it is made, by
    `dataclasses.replace` too, so no mode carries a frequency that is not
    its profile's.  amp(t) = a cos(omega t) + (b/omega) sin(omega t).

    Raises:
        ParameterOutOfRange: n or k not an integer or below 1 (sin(n pi theta)
            vanishes at theta = 1 only for an integer n), alpha outside (0, 1),
            or an amplitude a or b that is not a finite real number.
    """

    alpha: float
    n: int
    k: int
    a: float
    b: float
    omega: float = field(init=False)
    radial: Callable[[np.ndarray], np.ndarray] = field(init=False)
    radial_deriv: Callable[[np.ndarray], np.ndarray] = field(init=False)
    flux_at_1: float = field(init=False)

    def __post_init__(self) -> None:
        n = _whole(self.n, "sine order n", minimum=1)
        _real(self.a, "a")
        _real(self.b, "b")
        rho, R, dR, flux = bessel_radial_mode(self.alpha, self.k)
        derived = (n, math.sqrt((n * math.pi) ** 2 + rho), R, dR, flux)
        for name, value in zip(("n", "omega", "radial", "radial_deriv", "flux_at_1"), derived):
            object.__setattr__(self, name, value)


def bessel_mode(alpha: float, n: int, k: int, a: float = 1.0, b: float = 0.0) -> SmoothMode:
    """Exact eigenmode with the k-th Bessel radial profile and sine order n;
    raises what `SmoothMode` raises."""
    return SmoothMode(alpha, n, k, a, b)


@dataclass(frozen=True)
class SmoothModalSolution:
    """Finite superposition of exact modes; solves the wave equation pointwise.

    Each mode separates as amp(t) sin(n pi theta) R(r).  The solution is
    exposed only through its one-axis factors: each `*_factors` method
    evaluates one axis and its derivative for every mode (mode axis first),
    and a field is the sum over modes of a product of one factor per axis.
    """

    alpha: float
    modes: tuple[SmoothMode, ...]

    def __post_init__(self) -> None:
        if not self.modes:
            raise ParameterOutOfRange("a modal solution needs at least one mode")
        if any(m.alpha != self.alpha for m in self.modes):
            raise ParameterOutOfRange(f"every mode must be built at alpha {self.alpha}")

    def angular_factors(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """sin(n pi theta) and its theta-derivative, one row per mode."""
        theta = np.asarray(theta, dtype=float)
        k = np.array([m.n * math.pi for m in self.modes]).reshape((-1,) + (1,) * theta.ndim)
        return np.sin(k * theta), k * np.cos(k * theta)

    def radial_factors(self, r) -> tuple[np.ndarray, np.ndarray]:
        """R(r) and R'(r), one row per mode."""
        rad = np.stack([m.radial(r) for m in self.modes])
        return rad, np.stack([m.radial_deriv(r) for m in self.modes])

    def temporal_factors(self, t) -> tuple[np.ndarray, np.ndarray]:
        """amp(t) and its time derivative, one row per mode."""
        t = np.asarray(t, dtype=float)
        a, b, w = (
            np.array([getattr(m, key) for m in self.modes]).reshape((-1,) + (1,) * t.ndim)
            for key in ("a", "b", "omega")
        )
        return _rotate(a, b, w, t)


# ---------------------------------------------------------------------------
# Cache-sized tiles of the tensor grid
# ---------------------------------------------------------------------------

# Points per theta x t tile, halo included (r is never split), in the 3-D
# kernels below: small enough that each tile-sized temporary stays in cache.
_TILE_ELEMENTS = 65536

# Points a tile runs along t, the contiguous axis, halo excluded, where the
# grid and the point budget allow.
_T_RUN = 64


def _tiles(n_theta: int, n_r: int, n_t: int, halo: int) -> Iterator[tuple[slice, slice]]:
    """Walk a (n_theta, n_r, n_t) grid in theta x t tiles.

    The tiles partition the points halo .. n - 1 - halo of the theta and t
    axes; each (theta slice, t slice) reaches `halo` points further on both
    sides and, with the whole r axis, holds at most _TILE_ELEMENTS points.
    A tile runs _T_RUN points along t, halo excluded, wherever the t axis
    and that budget allow, and about as many along theta as along t
    otherwise.  The residual's stencils take a halo of 1, the quadratures 0.
    """
    rim = 2 * halo
    per_plane = max(1, _TILE_ELEMENTS // n_r)
    square = math.isqrt(per_plane) - rim
    run_t = min(n_t - rim, max(1, square, min(_T_RUN, per_plane // (1 + rim) - rim)))
    run_theta = max(1, per_plane // (run_t + rim) - rim)
    for i0 in range(halo, n_theta - halo, run_theta):
        ith = slice(i0 - halo, min(i0 + run_theta, n_theta - halo) + halo)
        for j0 in range(halo, n_t - halo, run_t):
            yield ith, slice(j0 - halo, min(j0 + run_t, n_t - halo) + halo)


def _sigma_factors(
    params: CarlemanParams, theta: np.ndarray, r: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The axis factors of sigma = exp(lam theta^2) exp(lam r^(2-alpha)) exp(-lam beta (t-t0)^2)."""
    lam = params.lam
    return (
        np.exp(lam * theta**2),
        np.exp(lam * r ** (2.0 - params.alpha)),
        np.exp(-lam * params.beta * (t - params.t0) ** 2),
    )


def build_weight_field(
    params: CarlemanParams, theta: np.ndarray, r: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """sigma on the tensor grid theta x r x t, shaped (n_theta, n_r, n_t).

    Raises:
        GridMismatch: an axis that is not a one-dimensional array of finite
            real numbers.
    """
    axes = []
    for name, axis in (("theta", theta), ("r", r), ("t", t)):
        axis = _reals(axis, name, GridMismatch)
        if axis.ndim != 1:
            raise GridMismatch(f"{name} must be a one-dimensional array, got shape {axis.shape}")
        axes.append(axis)
    sig_theta, sig_r, sig_t = _sigma_factors(params, *axes)
    return sig_theta[:, None, None] * (sig_r[:, None] * sig_t[None, :])[None, :, :]


# ---------------------------------------------------------------------------
# Conjugation identity residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugationReport:
    """Discrete L2 residual of exp(s sigma) h = P+ eta + P- eta."""

    residual_norm: float
    reference_norm: float
    relative: float
    shape: tuple[int, int, int]
    spacings: tuple[float, float, float]
    r_min: float


def _residual_axes(
    params: CarlemanParams, shape: tuple[int, int, int], r_min: float, T: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_theta, n_r, n_t = shape
    _real(r_min, "r_min", below=1)
    d0 = params.delta0
    theta = np.linspace(d0, 1.0 - d0, n_theta + 1)
    hr = (1.0 - r_min) / n_r
    r = r_min + (np.arange(n_r) + 0.5) * hr
    if r[0] - hr <= 0.0:
        raise DegenerateCellTouched(
            "radial stencil would reach r <= 0; raise r_min or the resolution"
        )
    t = np.linspace(0.0, T, n_t + 1)
    # the cutoff transition bands (delta0 wide in theta, epsilon wide in t)
    # carry the largest derivatives; below two cells the stencils miss them
    cells = (d0 / (theta[1] - theta[0]), params.epsilon / (t[1] - t[0]))
    if min(cells) < 2.0:
        raise GridMismatch(
            f"shape {shape} puts {cells[0]:.3g} theta cells across the delta0-wide cutoff "
            f"band and {cells[1]:.3g} t cells across the epsilon-wide one; each needs at least 2"
        )
    return theta, r, t


def _second_diff_into(out: np.ndarray, hi, twice_mid, lo, scale) -> None:
    """(hi - twice_mid + lo) * scale written into out, in the stencil's own order;
    scale is 1/h^2, times any coefficient the difference meets."""
    np.subtract(hi, twice_mid, out=out)
    out += lo
    out *= scale


def _grid_shape(shape, minima) -> tuple[int, ...]:
    """Grid sizes as ints, each at least its minimum: an integral float is that
    integer, anything else refused."""
    return tuple(
        _whole(n, f"grid size in {tuple(shape)}", GridMismatch, minimum=least)
        for n, least in zip(shape, minima)
    )


def _check_same_alpha(solution: SmoothModalSolution, params: CarlemanParams) -> None:
    """The modal profiles and the weight must belong to one degeneracy exponent."""
    if solution.alpha != params.alpha:
        raise ParameterOutOfRange(
            f"solution built at alpha {solution.alpha}, weight parameters at alpha {params.alpha}"
        )


def conjugation_residual(
    solution: SmoothModalSolution,
    params: CarlemanParams,
    shape: tuple[int, int, int] = (768, 96, 512),
    r_min: float = 0.1,
) -> ConjugationReport:
    """Finite-difference residual of the conjugation identity on a tensor grid.

    psi = k(t) zeta(theta) phi with phi an exact modal solution, so
    h = 2 zeta k' phi_t + zeta k'' phi - 2 k zeta' phi_theta - k zeta'' phi
    is analytic; eta = exp(s sigma) psi is differentiated by second-order
    centered stencils while every sigma factor is analytic.  The norm is
    taken over (delta0, 1-delta0) x (r_min, 1) x (0, T) with the radial grid
    staggered by half a cell; r_min is held fixed across resolutions so that
    convergence ratios compare norms over one and the same domain (the
    radial profiles behave like r^(1-alpha) at the degenerate end, whose
    unbounded higher derivatives would otherwise contaminate the order).

    The grid is walked in cache-sized theta x t tiles with a one-cell halo
    (`_tiles`); the modal, cutoff and weight factors are evaluated
    once per axis, so a tile builds eta and exp(s sigma) h from slices of
    them, and the operator pieces are fused:
    P1- = 2 s lam sigma (-xi_t eta_t + 2 theta eta_theta + (2-alpha) r eta_r)
    and P2+ + P2- = s lam sigma (s lam sigma b + (4 - alpha + 2 beta) - lam b) eta,
    with xi_t = -2 beta (t - t0) and b = xi_t^2 - (4 theta^2 + (2-alpha)^2 r^(2-alpha)).
    A tile on whose theta or t slice the cutoff and its derivatives vanish
    has eta = h = 0 and adds exactly nothing, so it is skipped.  A tile
    that meets neither cutoff band, where zeta', zeta'', k' and k'' all
    vanish on its slices, has h = 0 identically, so exp(s sigma) h is
    exactly +-0 there: the tile forms only its stencil, and adds the sum of
    its squares to the residual and exactly 0 to the reference, the sums
    that building and subtracting that zero would give.  The stencil's
    constants are folded into its coefficients (1/h^2, r^alpha/h_r^2, and s
    into the weight's theta factor).  The tiles left are dealt round-robin
    to one thread per CPU the process may use (at most one per tile).  Each
    thread writes every (theta, r, t) intermediate into buffers it allocates
    once, and forms the tile's sums of squares with einsum, so the loop
    makes no BLAS call; the per-tile sums are added in tile order, which
    makes the result independent of the number of threads.

    Raises:
        ParameterOutOfRange: solution.alpha differs from params.alpha, or
            r_min is not finite or is at least 1.
        GridMismatch: a grid size is not an integer, an axis has no
            interior point, or the theta or t spacing leaves fewer than two
            cells across a cutoff band.
        DegenerateCellTouched: the radial stencil reaches r <= 0.
        NonFiniteReport: the weight's peak 2 s e^(2 lam) is 700 or more, the
            rule of the component integrals: exp(s sigma) overflows once
            s e^(2 lam) passes about 709.8, and its squares well before;
            refused before any tile is walked.
    """
    _check_same_alpha(solution, params)
    # each axis needs an interior point: 2 theta and t cells, 3 r midpoints
    shape = _grid_shape(shape, (2, 3, 2))
    _log_offset(params.lam, params.s)
    alpha = params.alpha
    lam, s, beta = params.lam, params.s, params.beta
    theta, r, t = _residual_axes(params, shape, r_min, params.T)
    h_theta = theta[1] - theta[0]
    h_r = r[1] - r[0]
    h_t = t[1] - t[0]
    zeta = eval_cutoff(theta_cutoff(params.delta0), theta)
    kcut = eval_cutoff(time_cutoff(params.epsilon, params.T), t)
    zv, zd1, zd2 = zeta
    kv, kd1, kd2 = kcut
    sin, dsin = solution.angular_factors(theta)
    rad = solution.radial_factors(r)[0]
    amp, vel = solution.temporal_factors(t)
    sig_theta, sig_r, sig_t = _sigma_factors(params, theta, r, t)
    sig_rt = sig_r[:, None] * sig_t[None, :]
    s_sig_theta = s * sig_theta
    slam_sig_theta = (s * lam) * sig_theta

    # A tile skips where the cutoff and its derivatives vanish on its whole
    # theta or t slice, and forms h only where a cutoff derivative does not
    # vanish on the slices that h takes.  Each theta plane of a tile is one
    # contiguous (r, t) row; its interior r rows, with every t of the tile,
    # form a segment in which the theta, r and t neighbours lie a plane, a t
    # row and one point away.  The work arrays are (theta, segment) shaped, so they also hold
    # the tile's two t halo columns, whose values are discarded (their t
    # neighbours wrap into the adjacent r row); every interior point gets
    # exactly the operations of a (theta, r, t) evaluation.
    z_live = np.any(zeta, axis=0)
    k_live = np.any(kcut, axis=0)
    z_band = np.any(zeta[1:], axis=0)
    k_band = np.any(kcut[1:], axis=0)
    tiles = [
        (ith, jt)
        for ith, jt in _tiles(theta.size, r.size, t.size, 1)
        if z_live[ith].any() and k_live[jt].any()
    ]
    sourced = [
        z_band[ith.start + 1 : ith.stop - 1].any() or k_band[jt].any() for ith, jt in tiles
    ]
    n_r = r.size
    widths = [(ith.stop - ith.start, jt.stop - jt.start) for ith, jt in tiles]
    halo_size = max((n_i * n_r * n_j for n_i, n_j in widths), default=0)
    core_size = max(((n_i - 2) * (n_r - 2) * n_j for n_i, n_j in widths), default=0)

    # coefficients at the interior points, radial ones repeated along each
    # tile width and (r, t) ones per t slice; the 1/(2h) of each first
    # difference and the 1/h^2 of each second one are folded into the
    # coefficient it meets
    two_a = 2.0 - alpha
    r_c = r[1:-1]
    radial_coefs = (
        r_c**alpha / h_r**2,
        alpha * r_c ** (alpha - 1.0) / (2.0 * h_r),
        two_a * r_c / h_r,
    )
    radial = {n_j: [np.repeat(c, n_j) for c in radial_coefs] for n_j in {n_j for _, n_j in widths}}
    quad_r = two_a**2 * r_c**two_a
    xi_t = -2.0 * beta * (t - params.t0)
    xi_t_sq = xi_t**2
    drift_t_coef = xi_t / h_t
    columns = {
        start: (
            np.ascontiguousarray(sig_rt[:, jt]).reshape(-1),
            np.tile(drift_t_coef[jt], n_r - 2),
            # the (r, t) part of b, xi_t^2 - (2-alpha)^2 r^(2-alpha)
            (xi_t_sq[None, jt] - quad_r[:, None]).reshape(-1),
        )
        for start, jt in {jt.start: jt for _, jt in tiles}.items()
    }
    drift_th_coef = 2.0 * theta / h_theta
    theta_sq4 = 4.0 * theta**2
    inv_th2, inv_t2 = 1.0 / h_theta**2, 1.0 / h_t**2
    zero_order = 4.0 - alpha + 2.0 * beta
    sums = np.zeros((len(tiles), 2))

    def run(first: int, step: int) -> None:
        """Tiles first, first + step, ... into their rows of sums."""
        halo_buf = np.empty((2, halo_size))
        core_buf = np.empty((4, core_size))
        for k in range(first, len(tiles), step):
            ith, jt = tiles[k]
            ith_c = slice(ith.start + 1, ith.stop - 1)
            n_i, n_j = widths[k]
            plane, span = n_r * n_j, (n_r - 2) * n_j
            esig, eta = (b[: n_i * plane].reshape(n_i, plane) for b in halo_buf)
            lap, work, drift, total = (
                b[: (n_i - 2) * span].reshape(n_i - 2, span) for b in core_buf
            )
            rr_coef, lap_r, drift_r = radial[n_j]
            sig_plane, drift_t, b_rt = columns[jt.start]

            # eta = exp(s sigma) sum_m R_m(r) zeta k sin_m amp_m
            np.multiply(s_sig_theta[ith, None], sig_plane, out=esig)
            np.exp(esig, out=esig)
            q = sin[:, ith, None] * amp[:, None, jt]
            q *= zv[ith, None] * kv[None, jt]
            np.einsum("mr,mit->irt", rad, q, out=eta.reshape(n_i, n_r, n_j))
            eta *= esig
            core = eta[1:-1, n_j : n_j + span]
            th_hi, th_lo = eta[2:, n_j : n_j + span], eta[:-2, n_j : n_j + span]
            r_hi, r_lo = eta[1:-1, 2 * n_j :], eta[1:-1, :span]
            t_hi, t_lo = eta[1:-1, n_j + 1 : n_j + 1 + span], eta[1:-1, n_j - 1 : n_j - 1 + span]

            # P1+ = eta_tt - (eta_thth + r^alpha eta_rr + alpha r^(alpha-1) eta_r);
            # each second difference is (hi - 2 eta) + lo, then times its scale,
            # with the 2 eta that all three share held in total until eta_tt
            # replaces it
            np.multiply(core, 2.0, out=total)
            _second_diff_into(lap, th_hi, total, th_lo, inv_th2)
            _second_diff_into(work, r_hi, total, r_lo, rr_coef)
            lap += work
            np.subtract(r_hi, r_lo, out=drift)  # 2 h_r eta_r
            np.multiply(lap_r, drift, out=work)
            lap += work
            _second_diff_into(total, t_hi, total, t_lo, inv_t2)
            total -= lap

            # P1- = 2 s lam sigma (-xi_t eta_t + 2 theta eta_th + (2-alpha) r eta_r)
            slam_sigma = lap
            np.multiply(slam_sig_theta[ith_c, None], sig_plane[n_j : n_j + span], out=slam_sigma)
            drift *= drift_r
            np.subtract(th_hi, th_lo, out=work)
            work *= drift_th_coef[ith_c, None]
            drift += work
            np.subtract(t_hi, t_lo, out=work)
            work *= drift_t
            drift -= work
            drift *= slam_sigma
            total += drift

            # P2+ + P2- = s lam sigma (s lam sigma b + (4 - alpha + 2 beta) - lam b) eta
            # with b = (xi_t^2 - (2-alpha)^2 r^(2-alpha)) - 4 theta^2
            np.subtract(b_rt, theta_sq4[ith_c, None], out=work)
            np.subtract(slam_sigma, lam, out=drift)
            drift *= work
            drift += zero_order
            drift *= slam_sigma
            drift *= core
            total += drift
            if not sourced[k]:
                # h = 0: the residual is -total and the reference exactly 0
                res = total.reshape(n_i - 2, n_r - 2, n_j)[:, :, 1:-1]
                sums[k] = np.einsum("irt,irt->", res, res), 0.0
                continue

            # exp(s sigma) h = exp(s sigma) sum_m R_m(r) h_m with, from the exact
            # derivatives of phi, h_m = 2 zeta k' sin_m vel_m
            # + (zeta k'' - k zeta'') sin_m amp_m - 2 k zeta' sin_m' amp_m
            amp_j = amp[:, None, jt]
            h = sin[:, ith_c, None] * vel[:, None, jt]
            h *= 2.0 * zv[ith_c, None] * kd1[None, jt]
            h += (zv[ith_c, None] * kd2[None, jt] - kv[None, jt] * zd2[ith_c, None]) * (
                sin[:, ith_c, None] * amp_j
            )
            h -= (2.0 * kv[None, jt] * zd1[ith_c, None]) * (dsin[:, ith_c, None] * amp_j)
            lhs = work
            np.einsum("mr,mit->irt", rad[:, 1:-1], h, out=lhs.reshape(n_i - 2, n_r - 2, n_j))
            lhs *= esig[1:-1, n_j : n_j + span]

            np.subtract(lhs, total, out=total)
            res, ref = (a.reshape(n_i - 2, n_r - 2, n_j)[:, :, 1:-1] for a in (total, lhs))
            sums[k] = np.einsum("irt,irt->", res, res), np.einsum("irt,irt->", ref, ref)

    deal(len(tiles), run)

    # in tile order, whichever thread formed each sum
    acc_res = 0.0
    acc_ref = 0.0
    for res, ref in sums.tolist():
        acc_res += res
        acc_ref += ref
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


def conjugation_order_study(
    solution: SmoothModalSolution,
    params: CarlemanParams,
    base_shape: tuple[int, int, int],
    levels: int = 3,
    r_min: float = 0.1,
) -> tuple[list[ConjugationReport], float]:
    """Residuals under uniform grid halving and the mean observed order.

    Raises:
        InsufficientData: fewer than 2 levels, which give no order, or a
            level count that is not an integer.
    """
    levels = _whole(levels, "level count", InsufficientData, minimum=2)
    reports = [
        conjugation_residual(
            solution, params, shape=tuple(c * 2**lvl for c in base_shape), r_min=r_min
        )
        for lvl in range(levels)
    ]
    orders = [
        math.log2(reports[i].residual_norm / reports[i + 1].residual_norm)
        for i in range(levels - 1)
    ]
    return reports, float(np.mean(orders))


# ---------------------------------------------------------------------------
# Component integrals of the coercive estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentIntegrals:
    """Named integrals of the estimate, with the empirical quotient C-hat."""

    lhs_gradient: float  # s l int sigma [(psi_t)^2 + A grad psi . grad psi] e^{2 s sigma}
    lhs_zero_order: float  # s^3 l^3 int sigma^3 psi^2 e^{2 s sigma}
    rhs_trace: float  # s l int sigma (d_r phi)^2 on the restricted top segment
    rhs_interior: float  # int_omega (s^2 phi^2 + A grad phi . grad phi + phi_t^2) e^{2 s sigma}
    rhs_commutator: float  # int_omega (k' phi_t + k'' phi)^2 e^{2 s sigma}
    chat: float
    s: float
    lam: float
    log_offset: float  # peak of 2 s sigma subtracted inside the quadratures


def _contracted_weight_tiles(
    params: CarlemanParams, theta: np.ndarray, w_th: np.ndarray, r: np.ndarray, t: np.ndarray,
    w_t: np.ndarray, rows: np.ndarray, log_offset: float,
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Per theta x t tile, (theta slice, t slice, g) with g[..., i, j] the sum over r
    of e^{2 s sigma - log_offset} times each of `rows` (radial functions stacked
    before their last axis), times the theta and t rule weights at (theta_i, t_j).

    The tiles are those of `_tiles` without a halo: they partition theta x t.
    log_offset is below 700, so every exponent 2 s sigma - log_offset lies
    above -700 and no weight is subnormal.
    """
    flat = rows.reshape(-1, r.size)
    sig_theta, sig_r, sig_t = _sigma_factors(params, theta, r, t)
    two_s = 2.0 * params.s
    for ith, jt in _tiles(theta.size, r.size, t.size, 0):
        weight = sig_theta[ith, None, None] * (sig_r[:, None] * sig_t[None, jt])[None, :, :]
        weight *= two_s
        weight -= log_offset
        np.exp(weight, out=weight)
        g = np.matmul(flat, weight)  # (theta, row, t)
        g *= (w_th[ith, None] * w_t[None, jt])[:, None, :]
        g = np.moveaxis(g, 1, 0).reshape(rows.shape[:-1] + (g.shape[0], g.shape[2]))
        yield ith, jt, g


def _log_offset(lam: float, s: float) -> float:
    """The peak 2 s e^(2 lam) of 2 s sigma, at (theta, r, t) = (1, 1, t0).

    Raises:
        NonFiniteReport: the peak is 700 or more, where the rescale by
            exp(log_offset) would overflow.  From 2 lam = 700 on, e^(2 lam)
            counts as inf without being formed (math.exp overflows past
            709.78), and any s > 0 keeps the peak inf.
    """
    log_offset = 2.0 * s * (math.exp(lam * 2.0) if lam < 350.0 else math.inf)
    if not log_offset < 700.0:
        raise NonFiniteReport(
            f"the weight's peak 2 s e^(2 lam) = {log_offset:.6g} at lam = {lam}, s = {s} "
            "is 700 or more: the components would overflow"
        )
    return log_offset


def _pair_sum(f: np.ndarray, g: np.ndarray) -> float:
    """sum over modes m, n and (theta, t) of f_m f_n g_mn."""
    return float(np.einsum("mij,nij,mnij->", f, f, g))


def _trapezoid_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the trapezoid rule with n intervals on (lo, hi)."""
    return np.linspace(lo, hi, n + 1), _trapezoid_weights(n, (hi - lo) / n)


def carleman_component_integrals(
    solution: SmoothModalSolution,
    params: CarlemanParams,
    n_theta: int = 192,
    n_r: int = 128,
    n_t: int = 384,
) -> ComponentIntegrals:
    """Compute every named integral of the estimate for one modal solution.

    The left side lives on the core (3 delta0, 1 - 3 delta0) x (0, 1) with
    psi = k zeta phi; the right side carries the restricted top-side trace
    term (no exponential factor), the interior term over the lateral strip
    pair, and the temporal cutoff commutator term.  All exponentially
    weighted quadratures share one log-space offset so the reported
    quotient is formed from overflow-safe mantissas.

    Quadrature is trapezoid in theta and t and midpoint in r (the radial
    grid is staggered because A grad phi . grad phi ~ r^{-alpha} is
    integrable but unbounded at the degenerate side); the regions share
    the r and t axes and their factors.  The two lateral strips' theta
    rules join into one axis, so the core and the strips are each walked
    once in the halo-free tiles of `_tiles`.

    Raises:
        ParameterOutOfRange: solution.alpha differs from params.alpha.
        GridMismatch: a grid size is not an integer, an axis has no cell,
            or the t spacing leaves fewer than two cells across the
            epsilon-wide cutoff band.
        NonFiniteReport: the offset 2 s e^(2 lam) is 700 or more, so that
            the rescale by exp(log_offset) would overflow; refused before
            any tile is walked.
    """
    _check_same_alpha(solution, params)
    shape = _grid_shape((n_theta, n_r, n_t), (1, 1, 1))
    n_theta, n_r, n_t = shape
    # the residual's rule: below two t cells across the cutoff's transition
    # band the t rule misses it (at n_t = 1 no node lies inside the cutoff)
    t_cells = params.epsilon / (params.T / n_t)
    if t_cells < 2.0:
        raise GridMismatch(
            f"grid {shape} puts {t_cells:.3g} t cells across the epsilon-wide cutoff band; "
            "it needs at least 2"
        )
    d0 = params.delta0
    alpha, lam, s = params.alpha, params.lam, params.s
    log_offset = _log_offset(lam, s)
    zeta = theta_cutoff(d0)
    kcut = time_cutoff(params.epsilon, params.T)

    # axes and factors shared by every region: r midpoints, t trapezoid
    hr = 1.0 / n_r
    r = (np.arange(n_r) + 0.5) * hr
    t, w_t = _trapezoid_rule(0.0, params.T, n_t)
    kv, kd1, kd2 = eval_cutoff(kcut, t)
    amp, vel = solution.temporal_factors(t)
    rad, drad = solution.radial_factors(r)
    # radial pair products R_m R_n and r^alpha R_m' R_n', shaped (M, M, n_r)
    rr = rad[:, None, :] * rad[None, :, :]
    dd = r**alpha * drad[:, None, :] * drad[None, :, :]

    # left side on the core, the plateau of zeta, psi = k zeta phi; sigma = sig_theta sig_r sig_t
    # splits off the contraction, its radial factor going into the rows
    theta, w_th = _trapezoid_rule(zeta.rise[1], zeta.fall[0], n_theta)
    zv, zd1, _ = eval_cutoff(zeta, theta)
    sin, dsin = solution.angular_factors(theta)
    sig_theta, sig_r, sig_t = _sigma_factors(params, theta, r, t)
    rows = np.stack([sig_r * rr, sig_r * dd, sig_r**3 * rr])
    lhs_gradient = lhs_zero_order = 0.0
    for ith, jt, g in _contracted_weight_tiles(params, theta, w_th, r, t, w_t, rows, log_offset):
        kz = zv[ith, None] * kv[None, jt]
        phi = sin[:, ith, None] * amp[:, None, jt]
        psi_t = kz * sin[:, ith, None] * vel[:, None, jt] + zv[ith, None] * kd1[None, jt] * phi
        psi_th = kz * dsin[:, ith, None] * amp[:, None, jt] + zd1[ith, None] * kv[None, jt] * phi
        psi = phi * kz
        sig_2d = sig_theta[ith, None] * sig_t[None, jt]
        g[:2] *= sig_2d
        g[2] *= sig_2d**3
        lhs_gradient += _pair_sum(psi_t, g[0]) + _pair_sum(psi_th, g[0]) + _pair_sum(psi, g[1])
        lhs_zero_order += _pair_sum(psi, g[2])

    # right side over the lateral strip pair, psi = phi: the nodes and
    # weights of both strips' rules join into one theta axis
    strips = [_trapezoid_rule(lo, hi, max(32, n_theta // 4)) for lo, hi in theta_strips(d0)]
    theta, w_th = (np.concatenate(axis) for axis in zip(*strips))
    sin, dsin = solution.angular_factors(theta)
    rows = np.stack([rr, dd])
    rhs_interior = rhs_commutator = 0.0
    for ith, jt, g in _contracted_weight_tiles(params, theta, w_th, r, t, w_t, rows, log_offset):
        phi = sin[:, ith, None] * amp[:, None, jt]
        phi_t = sin[:, ith, None] * vel[:, None, jt]
        phi_th = dsin[:, ith, None] * amp[:, None, jt]
        rhs_interior += s**2 * _pair_sum(phi, g[0]) + _pair_sum(phi, g[1])
        rhs_interior += _pair_sum(phi_th, g[0]) + _pair_sum(phi_t, g[0])
        commutator = kd1[jt] * phi_t + kd2[jt] * phi
        rhs_commutator += _pair_sum(commutator, g[0])

    lhs_gradient *= s * lam * hr
    lhs_zero_order *= s**3 * lam**3 * hr
    rhs_interior *= hr
    rhs_commutator *= hr

    # restricted top-side trace: s l int sigma (d_r phi)^2, no exponential
    theta, w_th = _trapezoid_rule(d0, 1.0 - d0, n_theta)
    sig_theta, sig_r, sig_t = _sigma_factors(params, theta, np.ones(1), t)
    sigma_top = sig_theta[:, None] * (sig_r * sig_t)[None, :]
    flux = np.array([m.flux_at_1 for m in solution.modes])
    tr = np.einsum("m,mi,mj->ij", flux, solution.angular_factors(theta)[0], amp)
    rhs_trace = s * lam * float(np.sum(sigma_top * tr**2 * w_th[:, None] * w_t[None, :]))

    denom = rhs_trace * math.exp(-log_offset) + rhs_interior + rhs_commutator
    chat = (lhs_gradient + lhs_zero_order) / max(denom, np.finfo(float).tiny)
    scale = math.exp(log_offset)
    return ComponentIntegrals(
        lhs_gradient=lhs_gradient * scale,
        lhs_zero_order=lhs_zero_order * scale,
        rhs_trace=rhs_trace,
        rhs_interior=rhs_interior * scale,
        rhs_commutator=rhs_commutator * scale,
        chat=chat,
        s=s,
        lam=lam,
        log_offset=log_offset,
    )


def carleman_constant_scan(
    solution: SmoothModalSolution,
    params: CarlemanParams,
    s_values: Sequence[float],
    **grid: int,
) -> list[ComponentIntegrals]:
    """Empirical quotient C-hat over an s-scan at fixed lambda.

    Each s is one `carleman_component_integrals` call, on the grid that
    `grid` (n_theta, n_r, n_t) names and on that function's defaults
    otherwise, so the entry at params.s is that call's result bit for bit.

    Raises:
        NonPositiveInput: an s value is not positive and finite.
        NonFiniteReport: 2 s e^(2 lam) is 700 or more for an s value,
            before any s is solved.
    """
    records = [dataclasses.replace(params, s=s) for s in s_values]
    for p in records:  # every s is refused or admitted before the first solve
        _log_offset(p.lam, p.s)
    return [carleman_component_integrals(solution, p, **grid) for p in records]
