"""Semi-analytic evolution of the degenerate wave equation in separated form.

States are truncated double expansions over sin(n*pi*theta) * R_k(r) with
R_k the computed radial eigenfunctions; each mode evolves exactly as a
harmonic oscillator of frequency omega_nk = sqrt((n*pi)^2 + rho_k), so time
evolution carries no discretization error and energy conservation is a pure
roundoff statement.  Boundary traces on the top side r = 1 and interior
observation norms over the lateral strips are quadratic forms in the modal
data y = (a, b/omega) with exact factors: theta factors are closed-form
overlaps, radial factors exact element integrals, and time factors exact
pair integrals.  Every modal amplitude solves u'' = -omega^2 u, so a pair
integral over (0, T) is a Wronskian difference at the two ends divided by
omega_j^2 - omega_i^2: one rotation to t = T per mode and a few flops per
pair, with a direct formula over the sum and difference frequencies for
the few near-resonant pairs, the diagonal among them.

The whole top side couples only modes of the same sine order, so one
datum's form is the sum of the same-order pair integrals of its own ends
(full_trace_norm_closed).  The trace Gramian of 2k x 2k blocks G_n is
built only for seeded ensembles (_ensemble_ratios), where one block serves
a whole chunk of members.
The restricted segment and the lateral strips are mirror symmetric under
theta -> 1 - theta, which multiplies sin(n pi theta) by (-1)^(n+1); their
overlaps vanish for n + m odd, so observation_norms assembles the odd and
the even sine orders apart, each in blocks of orders so that memory stays
bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .errors import GridMismatch, NonPositiveInput, TruncationTooSmall
from .params import _real, _reals, _whole, theta_strips
from .radial import RadialBasis

__all__ = [
    "ModalCoefficients",
    "EnergyReport",
    "TraceReport",
    "modal_state",
    "project_initial_data",
    "random_state",
    "evolve",
    "duhamel_forcing",
    "energy",
    "energy_series",
    "data_norms",
    "full_trace_norm_closed",
    "observation_norms",
    "sine_overlap_matrix",
    "cosine_overlap_matrix",
]

#: side length of the master coefficient block behind seeded random data;
#: truncations are slices of it so that doubling extends the same datum
RANDOM_CAP = 64


@dataclass(frozen=True)
class ModalCoefficients:
    """Truncated modal state: amplitudes a, velocities b, frequencies omega.

    a[n-1, k-1] multiplies sin(n*pi*theta) R_k(r); omega_sq stores
    (n*pi)^2 + rho_k exactly and omega its square root.
    """

    basis: RadialBasis
    a: np.ndarray
    b: np.ndarray
    omega: np.ndarray
    omega_sq: np.ndarray

    @property
    def n_max(self) -> int:
        return self.a.shape[0]

    @property
    def k_max(self) -> int:
        return self.a.shape[1]


def _order_pair(pair, name: str) -> tuple[int, int]:
    """A mode (n, k) or a truncation (n_max, k_max) as two ints: an integral
    float is that integer.

    Raises:
        TruncationTooSmall: pair is not a pair, or an entry that is not an
            integer or is below 1.
    """
    try:
        n, k = pair
    except (TypeError, ValueError):
        raise TruncationTooSmall(f"{name} must be a pair of integers, got {pair!r}") from None
    return (
        _whole(n, f"sine order of {name} {pair!r}", TruncationTooSmall, minimum=1),
        _whole(k, f"radial order of {name} {pair!r}", TruncationTooSmall, minimum=1),
    )


def _frequencies(basis: RadialBasis, n_max: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    if k_max > basis.k_max:
        raise TruncationTooSmall(
            f"k_max = {k_max} exceeds the {basis.k_max} computed eigenpairs"
        )
    mu = (np.arange(1, n_max + 1) * math.pi) ** 2
    omega_sq = mu[:, None] + basis.rho[None, :k_max]
    return np.sqrt(omega_sq), omega_sq


def modal_state(
    basis: RadialBasis,
    n_max: int,
    k_max: int,
    amplitudes: Mapping[tuple[int, int], float] | np.ndarray | None = None,
    velocities: Mapping[tuple[int, int], float] | np.ndarray | None = None,
) -> ModalCoefficients:
    """Assemble a state from explicit modal dictionaries or coefficient arrays.

    Raises:
        TruncationTooSmall: a truncation order that is not an integer or is
            out of range, or a mode key that is not a pair of integers or
            lies outside the truncation.
        GridMismatch: an array that is not one of finite real numbers or
            has the wrong shape, or a coefficient that is not a finite real
            number.
    """
    n_max, k_max = _order_pair((n_max, k_max), "truncation")
    omega, omega_sq = _frequencies(basis, n_max, k_max)

    def to_array(entries, name: str) -> np.ndarray:
        if entries is None:
            return np.zeros((n_max, k_max))
        if isinstance(entries, Mapping):
            arr = np.zeros((n_max, k_max))
            for key, val in entries.items():
                n, k = _order_pair(key, "mode")
                if n > n_max or k > k_max:
                    raise TruncationTooSmall(f"mode ({n}, {k}) outside truncation")
                arr[n - 1, k - 1] = _real(val, f"{name} of mode {(n, k)}", GridMismatch)
            return arr
        arr = _reals(entries, name, GridMismatch)
        if arr.shape != (n_max, k_max):
            raise GridMismatch(f"coefficient array must have shape {(n_max, k_max)}")
        return arr

    return ModalCoefficients(
        basis=basis, a=to_array(amplitudes, "amplitude"), b=to_array(velocities, "velocity"),
        omega=omega, omega_sq=omega_sq,
    )


def _trapezoid_weights(intervals: int, h: float) -> np.ndarray:
    """Composite trapezoidal weights on intervals + 1 equispaced nodes of step h."""
    w = np.full(intervals + 1, h)
    w[[0, -1]] = 0.5 * h
    return w


def project_initial_data(
    phi0: Callable | Mapping[tuple[int, int], float] | None,
    phi1: Callable | Mapping[tuple[int, int], float] | None,
    basis: RadialBasis,
    n_max: int,
    k_max: int,
) -> ModalCoefficients:
    """Project initial position/velocity fields onto the truncated modal basis.

    Fields may be callables phi(theta, r) (evaluated on the tensor grid of a
    uniform partition of theta into 2048 cells and the radial mesh nodes) or
    explicit modal dictionaries {(n, k): coefficient}.  Angular integrals use
    the uniform trapezoidal rule, which is exact for sine polynomials below
    the grid Nyquist order; radial products use the discrete mass inner
    product, so basis elements project to exact unit coefficients.

    Raises:
        TruncationTooSmall: a truncation order that is not an integer or is
            out of range, or a mode key that is not a pair of integers or
            lies outside the truncation.
        GridMismatch: a field callable whose values are not finite real
            numbers on the (theta, r) grid, or a modal coefficient that is
            not a finite real number.
    """
    n_theta = 2048
    n_max, k_max = _order_pair((n_max, k_max), "truncation")
    omega, omega_sq = _frequencies(basis, n_max, k_max)
    # R vanishes off the dof window, so the radial product needs only its nodes
    mats = basis.mats
    dof = slice(mats.i0, mats.i1)
    nodes = basis.mesh.nodes

    def project(field) -> np.ndarray:
        if field is None:
            return np.zeros((n_max, k_max))
        if isinstance(field, Mapping):
            return modal_state(basis, n_max, k_max, amplitudes=field).a
        theta = np.linspace(0.0, 1.0, n_theta + 1)
        w_theta = _trapezoid_weights(n_theta, 1.0 / n_theta)
        vals = _reals(field(theta[:, None], nodes[None, :]), "field values", GridMismatch)
        if vals.shape != (theta.size, nodes.size):
            raise GridMismatch("field callable must broadcast on (theta, r) grids")
        sines = np.sin(np.outer(np.arange(1, n_max + 1) * math.pi, theta))
        c = 2.0 * (sines * w_theta) @ vals  # (n_max, n_nodes)
        return (c[:, dof] * mats.lumped) @ basis.R[:k_max, dof].T

    return ModalCoefficients(
        basis=basis, a=project(phi0), b=project(phi1), omega=omega, omega_sq=omega_sq
    )


#: damping (n^2 + k^2)^-1 of the master block, n and k from 1 to RANDOM_CAP
_RANDOM_DAMP = 1.0 / (
    np.arange(1, RANDOM_CAP + 1)[:, None] ** 2 + np.arange(1, RANDOM_CAP + 1)[None, :] ** 2
)


def _random_coefficients(seed: int, members, n_max: int, k_max: int) -> np.ndarray:
    """Damped random coefficients (a, b) of seeded data, shape (2, len(members), n_max, k_max).

    The stream of member j is seeded by [seed, members[j]], or by [seed]
    alone where members[j] is None.  Its first 2 RANDOM_CAP^2 standard
    normals, read as (2, RANDOM_CAP, RANDOM_CAP), are the master block of a
    and b, and a truncation reads only its prefix of
    RANDOM_CAP^2 + (n_max - 1) RANDOM_CAP + k_max normals; only that
    prefix is drawn, into one buffer that every member reuses.

    Raises:
        TruncationTooSmall: a truncation above RANDOM_CAP, before any draw.
    """
    if max(n_max, k_max) > RANDOM_CAP:
        raise TruncationTooSmall(f"random data capped at truncation {RANDOM_CAP}")
    raw = np.empty(2 * RANDOM_CAP**2)
    master = raw.reshape(2, RANDOM_CAP, RANDOM_CAP)[:, :n_max, :k_max]
    prefix = raw[: RANDOM_CAP**2 + (n_max - 1) * RANDOM_CAP + k_max]
    out = np.empty((2, len(members), n_max, k_max))
    for j, member in enumerate(members):
        rng = np.random.default_rng([seed] if member is None else [seed, member])
        rng.standard_normal(out=prefix)
        out[:, j] = master
    out *= _RANDOM_DAMP[:n_max, :k_max]
    return out


def random_state(
    basis: RadialBasis,
    n_max: int,
    k_max: int,
    seed: int,
    member: int | None = None,
) -> ModalCoefficients:
    """Seeded random datum with standard normal coefficients damped by (n^2+k^2)^-1.

    Coefficients are slices of a fixed 64 x 64 master block, the first
    normals of the datum's stream, so enlarging the truncation extends the
    same datum with new damped modes instead of redrawing it.  Only the
    prefix of the stream that the truncation reads is drawn.

    Raises:
        ParameterOutOfRange: a seed or member that is negative or not an integer.
        TruncationTooSmall: a truncation above RANDOM_CAP or not an integer.
    """
    n_max, k_max = _order_pair((n_max, k_max), "truncation")
    seed = _whole(seed, "seed", minimum=0)
    if member is not None:
        member = _whole(member, "member", minimum=0)
    omega, omega_sq = _frequencies(basis, n_max, k_max)
    a, b = _random_coefficients(seed, [member], n_max, k_max)[:, 0]
    return ModalCoefficients(basis=basis, a=a, b=b, omega=omega, omega_sq=omega_sq)


def _rotate(a, b, w, t) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic rotation of data (a, b) at frequency w over time t.

    Returns amp(t) = a cos wt + (b/w) sin wt and its derivative
    -a w sin wt + b cos wt, the time dependence of every separated mode.
    """
    # w t is not kept: one fewer live (modes x times) temporary
    c, s = np.cos(w * t), np.sin(w * t)
    return a * c + b / w * s, -a * w * s + b * c


def evolve(state: ModalCoefficients, t: float) -> ModalCoefficients:
    """Exact free evolution to time t (per-mode rotation, no time stepping).

    Raises:
        GridMismatch: t is not a finite real number.
    """
    _real(t, "t", GridMismatch)
    a, b = _rotate(state.a, state.b, state.omega, t)
    return replace(state, a=a, b=b)


def duhamel_forcing(
    state: ModalCoefficients, f_hat: np.ndarray, dt: float, t: float
) -> ModalCoefficients:
    """Free evolution to t plus the forced response of per-mode samples f_hat.

    f_hat[n-1, k-1, i] samples the modal forcing at s = i*dt; t must land on
    that grid.  The Duhamel convolutions int sin(w(t-s))/w f ds and
    int cos(w(t-s)) f ds are evaluated by the trapezoidal rule, second-order
    in dt for smooth forcing.

    Raises:
        GridMismatch: f_hat not an array of finite real numbers or of the
            wrong shape, dt not positive and finite, or t not a finite point
            of the forcing grid.
    """
    f_hat = _reals(f_hat, "forcing samples f_hat", GridMismatch)
    if f_hat.ndim != 3 or f_hat.shape[:2] != state.a.shape:
        raise GridMismatch("forcing samples must have shape (n_max, k_max, steps+1)")
    _real(dt, "dt", GridMismatch, above=0)
    _real(t, "t", GridMismatch)
    j = int(round(t / dt))
    if j < 0 or j >= f_hat.shape[2] or abs(t - j * dt) > 1e-9 * max(dt, 1.0):
        raise GridMismatch(f"t = {t} does not lie on the forcing grid")
    free = evolve(state, t)
    if j == 0:
        return free
    s_grid = np.arange(j + 1) * dt
    w_trap = _trapezoid_weights(j, dt)
    w = state.omega[..., None]
    phase = w * (t - s_grid)
    f = f_hat[:, :, : j + 1]
    amp_forced = np.sum(np.sin(phase) / w * f * w_trap, axis=-1)
    vel_forced = np.sum(np.cos(phase) * f * w_trap, axis=-1)
    return replace(free, a=free.a + amp_forced, b=free.b + vel_forced)


def energy(state: ModalCoefficients) -> float:
    """Total energy (1/2) int (phi_t)^2 + A grad phi . grad phi dz.

    By the sine and discrete radial orthogonality this is the diagonal form
    (1/4) sum velocity^2 + omega^2 amplitude^2.
    """
    return 0.25 * float(np.sum(state.b**2 + state.omega_sq * state.a**2))


@dataclass(frozen=True)
class EnergyReport:
    """Sampled energy history with its kinetic/potential split."""

    times: np.ndarray
    total: np.ndarray
    kinetic: np.ndarray
    potential: np.ndarray


def energy_series(state: ModalCoefficients, times: np.ndarray) -> EnergyReport:
    """Energy, kinetic, and potential parts sampled at the given times.

    Raises:
        GridMismatch: times that are not real numbers, or a time that is
            nan or infinite.
    """
    times = _reals(times, "times", GridMismatch)
    amp, vel = _rotate(state.a[..., None], state.b[..., None], state.omega[..., None], times)
    kinetic = 0.25 * np.sum(vel**2, axis=(0, 1))
    potential = 0.25 * np.sum(state.omega_sq[..., None] * amp**2, axis=(0, 1))
    return EnergyReport(
        times=times, total=kinetic + potential, kinetic=kinetic, potential=potential
    )


def data_norms(state: ModalCoefficients) -> tuple[float, float]:
    """Squared weighted-gradient norm of phi0 and squared L2 norm of phi1."""
    h1w = 0.5 * float(np.sum(state.omega_sq * state.a**2))
    l2 = 0.5 * float(np.sum(state.b**2))
    return h1w, l2


# ---------------------------------------------------------------------------
# Angular overlap integrals
# ---------------------------------------------------------------------------


def _trig_overlaps(n_max: int, a: float, b: float, sign: float) -> np.ndarray:
    """int_a^b of sin sin (sign -1) or cos cos (sign +1) of (n pi t, m pi t), closed form.

    Both products are (cos((n-m) pi t) + sign cos((n+m) pi t)) / 2, whose
    antiderivatives are evaluated at the two ends.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    dif = (n[:, None] - n[None, :]) * math.pi
    tot = (n[:, None] + n[None, :]) * math.pi

    def anti(theta: float) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.sin(dif * theta) / (2.0 * dif) + sign * (np.sin(tot * theta) / (2.0 * tot))
        np.fill_diagonal(
            out, 0.5 * theta + sign * (np.sin(2.0 * n * math.pi * theta) / (4.0 * n * math.pi))
        )
        return out

    return anti(b) - anti(a)


def sine_overlap_matrix(n_max: int, a: float, b: float) -> np.ndarray:
    """Exact integrals int_a^b sin(n pi t) sin(m pi t) dt for n, m <= n_max.

    The closed form subtracts two antiderivatives, which cancel on short
    intervals: over (0, c) both are near c / 2 while the entries are of
    order (n pi)(m pi) c^3 / 3.  Where n_max pi (b - a) <= 1 the integrand
    instead goes through 8-point Gauss-Legendre, which integrates its
    frequencies, at most 1 on the rescaled interval (-1, 1), to within
    1e-17 of (b - a) and sums products of sines that keep their relative
    accuracy.

    Raises:
        ParameterOutOfRange: n_max not an integer of at least 1, or an end
            that is not a finite real number.
    """
    n_max = _whole(n_max, "n_max", minimum=1)
    _real(a, "a")
    _real(b, "b")
    if n_max * math.pi * (b - a) <= 1.0:
        x, w = np.polynomial.legendre.leggauss(8)
        half = 0.5 * (b - a)
        n = np.arange(1, n_max + 1, dtype=float)
        s = np.sin(np.outer(n * math.pi, 0.5 * (a + b) + half * x))
        # s_n s_m w is bitwise symmetric in (n, m), and so is its sum
        return half * (s[:, None, :] * s[None, :, :] * w).sum(axis=-1)
    return _trig_overlaps(n_max, a, b, -1.0)


def cosine_overlap_matrix(n_max: int, a: float, b: float) -> np.ndarray:
    """Exact integrals int_a^b cos(n pi t) cos(m pi t) dt for n, m <= n_max.

    Raises:
        ParameterOutOfRange: n_max not an integer of at least 1, or an end
            that is not a finite real number.
    """
    n_max = _whole(n_max, "n_max", minimum=1)
    _real(a, "a")
    _real(b, "b")
    return _trig_overlaps(n_max, a, b, 1.0)


def _strips_overlap(n_max: int, delta0: float, kind: str) -> np.ndarray:
    """Sine or cosine overlaps summed over the lateral strips of theta_strips(delta0).

    Two strips are mirror images under theta -> 1 - theta, which multiplies
    the product of orders n and m by (-1)^(n+m): the pair sums to twice the
    left strip for n + m even and to zero for n + m odd.  Only the left
    strip is evaluated, whose phases stay small, so short strips keep their
    accuracy near theta = 1 as well.
    """
    build = sine_overlap_matrix if kind == "sine" else cosine_overlap_matrix
    (a, b), *mirror = theta_strips(delta0)
    out = build(n_max, a, b)
    if mirror:
        n = np.arange(n_max)
        out *= np.where((n[:, None] + n[None, :]) % 2 == 0, 2.0, 0.0)
    return out


def _theta_factors(n_max: int, delta0: float) -> np.ndarray:
    """Theta factors of the amplitude forms of observation_norms, shape (n_max, n_max, 3).

    Factor j pairs with radial factor j: the restricted top segment
    (delta0, 1 - delta0); the strip cosines weighted by (n pi)(m pi) for
    (d_theta phi)^2; the strip sines for r^alpha (d_r phi)^2 + phi^2, which
    also weight (phi_t)^2.  Every one is mirror symmetric, so its entries
    vanish for n + m odd.
    """
    mu = np.arange(1, n_max + 1) * math.pi
    return np.stack(
        [
            sine_overlap_matrix(n_max, delta0, 1.0 - delta0),
            np.outer(mu, mu) * _strips_overlap(n_max, delta0, "cosine"),
            _strips_overlap(n_max, delta0, "sine"),
        ],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# Exact time pair integrals for f = 0 evolutions
# ---------------------------------------------------------------------------

#: float64 entries per pair array in one block of observation_norms, and per
#: stacked-data array in one chunk of an ensemble; about four arrays of this
#: size are live at once, so a block peaks near 8 MB (tracemalloc puts a
#: 48 x 48 call at 9 MB)
_BLOCK_ELEMENTS = 2**18

#: pairs with |w_i - w_j| T below this take the direct formula of
#: _direct_pair_integrals, the diagonal among them; above it the rounding
#: error of the Wronskian quotient, about eps / (2 |w_i - w_j|) for unit
#: data, stays below eps T / 2
_NEAR_RESONANCE = 1.0


def _two_product(a, b):
    """fl(a b) and its exact rounding error a b - fl(a b), by Dekker's splitting."""

    def halves(x):
        scaled = 134217729.0 * x  # 2^27 + 1: two halves of 26 significant bits
        hi = scaled - (scaled - x)
        return hi, x - hi

    product = a * b
    (a_hi, a_lo), (b_hi, b_lo) = halves(a), halves(b)
    return product, ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _ends(u0: np.ndarray, du0: np.ndarray, w: np.ndarray, T: float) -> tuple[np.ndarray, ...]:
    """(u, u') at t = 0 and at t = T of the solutions of u'' = -w^2 u with data (u0, du0).

    One rotation per mode.  The phase w T is rounded by up to half an ulp,
    an error the pair integrals would amplify by w / |w_i - w_j|; its exact
    residual (Dekker's product) corrects cos and sin to first order, so the
    ends belong to the stored frequencies w.  A phase of 2^53 or more is
    rounded by up to a whole radian (half its ulp of 2), where cos and sin
    of it carry no digit, so such a horizon is refused.

    Raises:
        NonPositiveInput: T not positive and finite.
        ParameterOutOfRange: max(w) T is 2^53 or more.
    """
    _real(T, "observation horizon T", NonPositiveInput, above=0)
    _real(np.max(w) * T, f"phase max(omega) T at T = {T}", below=2.0**53)
    phase, residual = _two_product(w, T)
    cos, sin = np.cos(phase), np.sin(phase)
    cos, sin = cos - residual * sin, sin + residual * cos
    return u0, du0, u0 * cos + du0 / w * sin, du0 * cos - u0 * w * sin


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


def _direct_pair_integrals(wi, wj, T: float, families) -> list[np.ndarray]:
    """int_0^T u_i u_j dt for u = c cos(w t) + s sin(w t), elementwise.

    A family is the (c_i, s_i, c_j, s_j) of its pairs.  Products of cos and
    sin of (w_i t, w_j t) are half sums of cos and sin of the sum and
    difference frequencies, whose integrals stay exact as w_i - w_j tends
    to 0; the families share them.
    """
    sinc_dif, vers_dif = _trig_integrals(wi - wj, T)
    sinc_tot, vers_tot = _trig_integrals(wi + wj, T)
    return [
        0.5 * (
            ci * (cj * (sinc_dif + sinc_tot) + sj * (vers_tot - vers_dif))
            + si * (cj * (vers_tot + vers_dif) + sj * (sinc_dif - sinc_tot))
        )
        for ci, si, cj, sj in families
    ]


def _pair_integrals(
    w: np.ndarray, T: float, families, rows=np.s_[...], cols=np.s_[...]
) -> list[np.ndarray]:
    """Exact int_0^T u_i u_j dt for each family of solutions of u'' = -w^2 u.

    A family is the (u(0), u'(0), u(T), u'(T)) of _ends, one entry per mode
    of w.  Mode i runs over the last axis of w[rows] and mode j over the
    last axis of w[cols]; the leading axes broadcast, and the pairs come
    out with shape (..., i, j).  The Wronskian identity
    d/dt (u_i' u_j - u_i u_j') = (w_j^2 - w_i^2) u_i u_j gives

        int_0^T u_i u_j dt = [u_i' u_j - u_i u_j']_0^T / (w_j^2 - w_i^2),

    whose numerator is a product of (..., i, 4) and (..., 4, j) stacks of
    the ends.  The near-resonant pairs, |w_i - w_j| T below
    _NEAR_RESONANCE, are gathered and take _direct_pair_integrals instead.
    The families share the denominator and the gathered pairs.
    """

    def mode_i(x):
        return x[rows][..., :, None]

    def mode_j(x):
        return x[cols][..., None, :]

    wi, wj = mode_i(w), mode_j(w)
    gap = wj - wi
    near = np.abs(gap) < _NEAR_RESONANCE / T
    with np.errstate(divide="ignore"):
        inverse = 1.0 / (gap * (wj + wi))  # w_j^2 - w_i^2, to rounding
    del gap
    near = np.unravel_index(np.flatnonzero(near), near.shape)

    modes = np.arange(w.size).reshape(w.shape)  # flat index of each mode
    i_near, j_near = (
        np.broadcast_to(side(modes), inverse.shape)[near] for side in (mode_i, mode_j)
    )
    wi_near, wj_near = w.take(i_near), w.take(j_near)
    near_pairs = _direct_pair_integrals(
        wi_near, wj_near, T,
        [(u0.take(i_near), du0.take(i_near) / wi_near, u0.take(j_near), du0.take(j_near) / wj_near)
         for u0, du0, _, _ in families],
    )
    out = []
    for (u0, du0, uT, duT), direct in zip(families, near_pairs):
        left = np.stack([x[rows] for x in (duT, -uT, -du0, u0)], axis=-1)
        right = np.stack([x[cols] for x in (uT, duT, u0, du0)], axis=-2)
        with np.errstate(invalid="ignore"):  # 0 * inf on the diagonal
            pairs = (left @ right) * inverse
        pairs[near] = direct
        out.append(pairs)
    return out


# ---------------------------------------------------------------------------
# Boundary trace and interior observation norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    """Squared trace norms on the top side and the interior observation norm."""

    full_trace_norm_sq: float
    restricted_trace_norm_sq: float
    interior_norm_sq: float


def _trace_gramian(basis: RadialBasis, omega: np.ndarray, T: float) -> np.ndarray:
    """Blocks G_n of the full-side trace form over (0, T), shape (n_max, 2k, 2k).

    G_n is the time integral of v v^T for v = F (cos, sin)(omega_n t) and
    F = diag(R_k'(1)), so it is symmetric positive semidefinite; the
    squared trace norm of data y_n = (a_n, b_n / omega_n) is
    (1/2) sum_n y_n^T G_n y_n.  cos(omega t) and sin(omega t) solve
    u'' = -omega^2 u with data (1, 0) and (0, omega), so the entries are
    the pair integrals of _pair_integrals: the Wronskian quotient, which
    here is the angle-addition form, and the direct formula for the
    near-resonant pairs, among them each cos-sin pair of one mode.
    """
    w = np.tile(omega, 2)
    ones, zeros = np.ones_like(omega), np.zeros_like(omega)
    u0 = np.concatenate((ones, zeros), axis=1)
    du0 = np.concatenate((zeros, omega), axis=1)
    (pairs,) = _pair_integrals(w, T, (_ends(u0, du0, w, T),))
    flux = np.tile(basis.flux[: omega.shape[1]], 2)
    return pairs * np.outer(flux, flux)


def _ensemble_ratios(
    basis: RadialBasis, seed: int, size: int, truncations, T: float
) -> list[np.ndarray]:
    """Full-side trace norms against the data norms of seeded members, per truncation.

    Member j is the damped random datum random_state(basis, n_max, k_max,
    seed, member=j) for j below size; its ratio is the squared trace norm
    over the squared data norm (weighted-gradient part of phi0 plus L2
    part of phi1), and each truncation gets the array of its members'
    ratios.  Time integration is exact, so the ratios carry no quadrature
    error.  The trace Gramian of each truncation is built once: a single
    datum contracts its own ends instead (full_trace_norm_closed), which is
    cheaper for one datum but several times slower, member by member, than
    one block per order applied to a whole chunk.  Chunk by chunk, so that
    the stacked data stay within _BLOCK_ELEMENTS at the largest
    truncation, the members are drawn once at that truncation, and every
    truncation reads its slice of them: the data y = (a, b / omega) and
    the data norms are array operations over the chunk, and
    (1/2) sum_n y_n^T G_n y_n is one batched product per sine order.

    Raises:
        TruncationTooSmall: a truncation above RANDOM_CAP or beyond the
            basis, before any draw.
    """
    n_big = max(n for n, _ in truncations)
    k_big = max(k for _, k in truncations)
    forms = []
    for n_max, k_max in truncations:
        omega, omega_sq = _frequencies(basis, n_max, k_max)
        forms.append((omega, omega_sq, _trace_gramian(basis, omega, T)))
    chunk = max(1, _BLOCK_ELEMENTS // (n_big * 2 * k_big))
    ratios = [[] for _ in truncations]
    for lo in range(0, size, chunk):
        a_big, b_big = _random_coefficients(seed, range(lo, min(lo + chunk, size)), n_big, k_big)
        for (omega, omega_sq, gramian), out in zip(forms, ratios):
            n_max, k_max = omega.shape
            a, b = a_big[:, :n_max, :k_max], b_big[:, :n_max, :k_max]
            y = np.empty((n_max, len(a), 2 * k_max))  # y[n, member] = (a_n, b_n / omega_n)
            y[..., :k_max] = a.swapaxes(0, 1)
            np.divide(b.swapaxes(0, 1), omega[:, None], out=y[..., k_max:])
            h1w = 0.5 * np.sum((omega_sq * a**2).reshape(len(a), -1), axis=1)
            l2 = 0.5 * np.sum((b**2).reshape(len(b), -1), axis=1)
            trace = 0.5 * np.einsum("nmi,nmi->m", y @ gramian, y)
            out.append(trace / (h1w + l2))
    return [np.concatenate(chunks) for chunks in ratios]


def full_trace_norm_closed(state: ModalCoefficients, T: float) -> float:
    """Exact squared L2 norm over (0, T) of the normal derivative on the top side.

    The normal derivative is sum amp_nk(t) sin(n pi theta) R_k'(1), and
    sine orthogonality on the whole side leaves only the pairs of one sine
    order, each with theta factor 1/2: the form is half the sum over n, k, l
    of R_k'(1) R_l'(1) int_0^T amp_nk amp_nl dt.  Those (n, k, l) pair
    integrals come from the datum's own ends in one _pair_integrals call;
    the trace Gramian, whose blocks would cost 2k x 2k pairs per order, is
    left to ensembles, where one block serves many data.

    Raises:
        NonPositiveInput: T not positive and finite.
        ParameterOutOfRange: the phase max(omega) T is 2^53 or more.
    """
    w = state.omega
    (pairs,) = _pair_integrals(w, T, (_ends(state.a, state.b, w, T),))
    flux = state.basis.flux[: state.k_max]
    per_order = pairs.reshape(state.n_max, -1) @ np.outer(flux, flux).ravel()
    return 0.5 * float(np.sum(per_order))


def observation_norms(state: ModalCoefficients, T: float, delta0: float) -> TraceReport:
    """Exact trace and interior observation norms of the free evolution over (0, T).

    The normal derivative on the top side r = 1 is
    sum amp_nk(t) sin(n pi theta) R_k'(1); its squared L2 norm is taken over
    the whole side and over the restricted segment (delta0, 1 - delta0).
    The interior norm integrates
    (phi_t)^2 + (d_theta phi)^2 + r^alpha (d_r phi)^2 + phi^2 over the
    lateral strips [(0, 4 delta0) + (1 - 4 delta0, 1)] x (0, 1).

    Each is a quadratic form over mode pairs whose factors are exact: time
    by pair integrals, theta by sine and cosine overlaps, and radius by
    element integrals (the consistent Gram matrix and the eigenvalues
    rho_k).  The whole side is full_trace_norm_closed, from the same-order
    pairs alone; the segment and the strips come from
    _segment_and_strip_norms, which callers that read only those two (the
    observability ratio) call alone.  They are mirror symmetric, so their
    theta factors vanish between odd and even sine orders: the two parity
    classes are assembled apart, which halves the pairs.  Each class
    rotates its data to t = T once per mode; the amplitudes and the
    velocities phi_t, whose derivative is -omega^2 times the amplitude,
    then give their pair integrals by the Wronskian identity of
    _pair_integrals, with the direct formula for the near-resonant pairs.
    The pairs are formed for one block of orders
    against all orders of the class at a time, so memory stays bounded at
    large truncations.

    Raises:
        ParameterOutOfRange: delta0 is nan or outside (0, 1/2), where the
            segment (delta0, 1 - delta0) or the strips are empty or reversed,
            or the phase max(omega) T is 2^53 or more.
        NonPositiveInput: T not positive and finite.
    """
    restricted, interior = _segment_and_strip_norms(state, T, delta0)
    return TraceReport(
        full_trace_norm_sq=full_trace_norm_closed(state, T),
        restricted_trace_norm_sq=restricted,
        interior_norm_sq=interior,
    )


def _segment_and_strip_norms(
    state: ModalCoefficients, T: float, delta0: float
) -> tuple[float, float]:
    """The restricted trace and interior norms of observation_norms, in that order.

    Raises:
        ParameterOutOfRange: delta0 is nan or outside (0, 1/2).
        NonPositiveInput: T not positive and finite.
    """
    _real(delta0, "delta0", above=0, below=0.5)
    n_max, k_max = state.n_max, state.k_max
    basis = state.basis
    flux = basis.flux[:k_max]
    gram = basis.consistent_gram(k_max)
    theta_amp = _theta_factors(n_max, delta0)
    radial_amp = np.stack(
        [np.outer(flux, flux), gram, np.diag(basis.rho[:k_max]) + gram], axis=-1
    ).reshape(k_max * k_max, 3)

    restricted = 0.0
    interior = 0.0
    for parity in range(min(2, n_max)):
        cls = np.s_[parity::2]  # sine orders n = parity + 1, parity + 3, ...
        w, w_sq = state.omega[cls], state.omega_sq[cls]
        amp = _ends(state.a[cls], state.b[cls], w, T)
        u0, du0, uT, duT = amp
        vel = (du0, -w_sq * u0, duT, -w_sq * uT)  # phi_t: u' solves u'' = -w^2 u too
        theta_cls = theta_amp[cls, cls]
        n_cls = w.shape[0]
        block = max(1, _BLOCK_ELEMENTS // (n_cls * k_max * k_max))
        for lo in range(0, n_cls, block):
            # (block, n_cls, k_max, k_max) each
            amp_pairs, vel_pairs = _pair_integrals(
                w, T, (amp, vel), np.s_[lo : lo + block, None], np.s_[None]
            )
            amp_nm = (amp_pairs.reshape(-1, k_max * k_max) @ radial_amp).reshape(-1, n_cls, 3)
            vel_nm = (vel_pairs.reshape(-1, k_max * k_max) @ gram.ravel()).reshape(-1, n_cls)
            theta_block = theta_cls[lo : lo + block]
            terms = np.sum(amp_nm * theta_block, axis=(0, 1))
            restricted += float(terms[0])
            interior += float(terms[1] + terms[2] + np.sum(vel_nm * theta_block[..., 2]))
    return restricted, interior
