"""Semi-analytic evolution of the degenerate wave equation in separated form.

States are truncated double expansions over sin(n*pi*theta) * R_k(r) with
R_k the computed radial eigenfunctions; each mode evolves exactly as a
harmonic oscillator of frequency omega_nk = sqrt((n*pi)^2 + rho_k), so time
evolution carries no discretization error and energy conservation is a pure
roundoff statement.  Boundary traces on the top side r = 1 and interior
observation norms over the lateral strips are quadratic forms in the modal
data y = (a, b/omega) with exact factors: theta factors are sine and
cosine overlaps, all from one kernel (_trig_overlaps: closed form, or
Gauss-Legendre for sines on short intervals); radial factors are exact
element integrals, the eigenvalues rho_k and the basis's consistent Gram
(RadialBasis.gram, formed once per basis, of which a truncation reads its
leading block); and time factors are exact pair integrals.  Every modal
amplitude solves u'' = -omega^2 u, so a pair integral over (0, T) is a
Wronskian difference at the two ends divided by omega_j^2 - omega_i^2: one
rotation to t = T per mode and a few flops per pair, with a direct formula
over the sum and difference frequencies for the few near-resonant pairs,
the diagonal among them.  Every form finds its near pairs the same way:
one sorted search over the frequencies of each class of modes that pair
(_near_windows), read out and integrated in bounded chunks (_near_pairs,
_direct_pair_integrals).

The whole top side couples only modes of the same sine order, so one
datum's form is the sum of the same-order pair integrals of its own ends
(full_trace_norm_closed).  The trace Gramian of 2k x 2k blocks G_n is
built only for seeded ensembles (_ensemble_ratios), where one block serves
a whole chunk of members.
The restricted segment and the lateral strips are mirror symmetric under
theta -> 1 - theta, which multiplies sin(n pi theta) by (-1)^(n+1); their
overlaps vanish for n + m odd, so observation_norms assembles the odd and
the even sine orders apart.  Each form is symmetric in the two modes of a
pair, so only its half is formed: a block of orders meets the orders of
its class from its own first one on, and the pairs past its own orders
count twice.  Blocks keep memory bounded; the theta overlaps take the
sines of the 2n - 1 difference and sum frequencies only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
]

#: side length of the master coefficient block behind seeded random data;
#: truncations are slices of it so that doubling extends the same datum
RANDOM_CAP = 64


@dataclass(frozen=True)
class ModalCoefficients:
    """Truncated modal state: amplitudes a, velocities b, frequencies omega.

    a[n-1, k-1] multiplies sin(n*pi*theta) R_k(r).  A state keeps the basis,
    a and b it is given and derives omega_sq = (n*pi)^2 + rho_k exactly and
    omega, its square root, whenever it is made, by `dataclasses.replace`
    too, so its frequencies always match its basis and cannot be passed.

    Raises:
        GridMismatch: a and b are not 2-D numpy arrays of finite real
            numbers of one shape.
        TruncationTooSmall: more radial orders than the basis computed.
    """

    basis: RadialBasis
    a: np.ndarray
    b: np.ndarray
    omega: np.ndarray = field(init=False)
    omega_sq: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        a, b = self.a, self.b
        if not all(isinstance(x, np.ndarray) for x in (a, b)) or a.ndim != 2 or b.shape != a.shape:
            raise GridMismatch("amplitudes a and velocities b must be 2-D arrays of one shape")
        _real(a, "amplitudes a", GridMismatch)
        _real(b, "velocities b", GridMismatch)
        for name, value in zip(("omega", "omega_sq"), _frequencies(self.basis, *a.shape)):
            object.__setattr__(self, name, value)

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


def _within_basis(basis: RadialBasis, k_max: int) -> None:
    if k_max > basis.k_max:
        raise TruncationTooSmall(f"k_max = {k_max} exceeds the {basis.k_max} computed eigenpairs")


def _frequencies(basis: RadialBasis, n_max: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    _within_basis(basis, k_max)
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
        arr = _reals(entries, name, GridMismatch, finite=False)  # the state checks finiteness
        if arr.shape != (n_max, k_max):
            raise GridMismatch(f"coefficient array must have shape {(n_max, k_max)}")
        return arr

    return ModalCoefficients(
        basis=basis, a=to_array(amplitudes, "amplitude"), b=to_array(velocities, "velocity")
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
    # refused before projecting: R[:k_max] past the basis would be short
    _within_basis(basis, k_max)
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

    return ModalCoefficients(basis=basis, a=project(phi0), b=project(phi1))


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
        TruncationTooSmall: a truncation above RANDOM_CAP, past the basis or not an integer.
    """
    n_max, k_max = _order_pair((n_max, k_max), "truncation")
    seed = _whole(seed, "seed", minimum=0)
    if member is not None:
        member = _whole(member, "member", minimum=0)
    a, b = _random_coefficients(seed, [member], n_max, k_max)[:, 0]
    return ModalCoefficients(basis=basis, a=a, b=b)


def _rotate(a, b, w, t) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic rotation of data (a, b) at frequency w over time t.

    Returns amp(t) = a cos wt + (b/w) sin wt and its derivative
    -a w sin wt + b cos wt, the time dependence of every separated mode.
    a, b and w share their leading axis, that of the modes.
    """
    # in three arrays of the result's shape: the phase becomes cos, and
    # b cos joins the velocity one mode row at a time, so no fourth is made
    amp = np.multiply(w, t)
    sin = np.sin(amp)
    np.cos(amp, out=amp)
    vel = np.multiply(-a * w, sin)
    for i in range(len(vel)):
        vel[i] += b[i] * amp[i]
    amp *= a
    sin *= b / w
    amp += sin
    return amp, vel


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
    # squared in place, within the rotation's three (modes x times) arrays
    vel *= vel
    amp *= amp
    amp *= state.omega_sq[..., None]
    kinetic = 0.25 * np.sum(vel, axis=(0, 1))
    potential = 0.25 * np.sum(amp, axis=(0, 1))
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
    """int_a^b of sin sin (sign -1) or cos cos (sign +1) of (n pi t, m pi t), n, m <= n_max.

    Both products are (cos((n-m) pi t) + sign cos((n+m) pi t)) / 2, whose
    antiderivatives are evaluated at the two ends.  Their terms depend on
    n - m or on n + m alone, so each end takes the sines of the 2 n_max - 1
    difference and the 2 n_max - 1 sum frequencies and gathers them into
    Toeplitz and Hankel form, entry for entry the same floats as on the
    whole n_max x n_max grid.

    For sines the two antiderivatives cancel on short intervals: over
    (0, c) both are near c / 2 while the entries are of order
    (n pi)(m pi) c^3 / 3.  Where n_max pi (b - a) <= 1 the sine products
    instead go through 8-point Gauss-Legendre, which integrates their
    frequencies, at most 1 on the rescaled interval (-1, 1), to within
    1e-17 of (b - a) and sums products of sines that keep their relative
    accuracy.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    if sign < 0 and n_max * math.pi * (b - a) <= 1.0:
        x, w = np.polynomial.legendre.leggauss(8)
        half = 0.5 * (b - a)
        s = np.sin(np.outer(n * math.pi, 0.5 * (a + b) + half * x))
        # s_n s_m w is bitwise symmetric in (n, m), and so is its sum
        return half * (s[:, None, :] * s[None, :, :] * w).sum(axis=-1)
    dif = np.arange(1 - n_max, n_max, dtype=float) * math.pi  # (n - m) pi
    tot = np.arange(2, 2 * n_max + 1, dtype=float) * math.pi  # (n + m) pi
    idx = np.arange(n_max)
    toeplitz = idx[:, None] - idx[None, :] + (n_max - 1)
    hankel = idx[:, None] + idx[None, :]

    def anti(theta: float) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (np.sin(dif * theta) / (2.0 * dif))[toeplitz] + (
                sign * (np.sin(tot * theta) / (2.0 * tot))
            )[hankel]
        np.fill_diagonal(
            out, 0.5 * theta + sign * (np.sin(2.0 * n * math.pi * theta) / (4.0 * n * math.pi))
        )
        return out

    return anti(b) - anti(a)


def _strips_overlap(n_max: int, delta0: float, sign: float) -> np.ndarray:
    """The overlaps _trig_overlaps(sign) summed over the strips of theta_strips(delta0).

    Two strips are mirror images under theta -> 1 - theta, which multiplies
    the product of orders n and m by (-1)^(n+m): the pair sums to twice the
    left strip for n + m even and to zero for n + m odd.  Only the left
    strip is evaluated, whose phases stay small, so short strips keep their
    accuracy near theta = 1 as well.
    """
    (a, b), *mirror = theta_strips(delta0)
    out = _trig_overlaps(n_max, a, b, sign)
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
            _trig_overlaps(n_max, delta0, 1.0 - delta0, -1.0),
            np.outer(mu, mu) * _strips_overlap(n_max, delta0, 1.0),
            _strips_overlap(n_max, delta0, -1.0),
        ],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# Exact time pair integrals for f = 0 evolutions
# ---------------------------------------------------------------------------

#: float64 entries per stacked-data array in one chunk of an ensemble; a
#: block of _segment_and_strip_norms keeps its two pair buffers within a
#: quarter of this each, near half a megabyte, so that they stay in cache
_BLOCK_ELEMENTS = 2**18

#: about the candidates of one chunk of _near_pairs, and so the most
#: near-resonant pairs that one evaluation of the direct formula takes
_NEAR_CHUNK = _BLOCK_ELEMENTS // 16

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
    """int_0^T cos(w t) dt = sin(wT)/w and int_0^T sin(w t) dt = 2 sin(wT/2)^2/w.

    The versine form keeps its relative accuracy for small w T, where
    (1 - cos(wT))/w cancels.  At w = 0 the quotients take their limits T
    and 0.
    """
    wt = w * T
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.sin(wt) / w
        vers = 2.0 * np.sin(0.5 * wt) ** 2 / w
    zero = w == 0.0
    sinc[zero] = T
    vers[zero] = 0.0
    return sinc, vers


def _direct_pair_integrals(wi, wj, T: float, ci, si, cj, sj) -> np.ndarray:
    """int_0^T u_i u_j dt for u = c cos(w t) + s sin(w t), elementwise.

    Products of cos and sin of (w_i t, w_j t) are half sums of cos and sin
    of the sum and difference frequencies, whose integrals stay exact as
    w_i - w_j tends to 0.  The coefficients may carry a leading family
    axis, over which the frequency integrals broadcast.
    """
    sinc_dif, vers_dif = _trig_integrals(wi - wj, T)
    sinc_tot, vers_tot = _trig_integrals(wi + wj, T)
    return 0.5 * (
        ci * (cj * (sinc_dif + sinc_tot) + sj * (vers_tot - vers_dif))
        + si * (cj * (vers_tot + vers_dif) + sj * (sinc_dif - sinc_tot))
    )


@dataclass(frozen=True)
class _NearWindows:
    """Where the near-resonant partners of each mode lie.

    sorted_modes lists the modes class by class in increasing frequency,
    and the partners of mode i lie at the sorted positions lo[i] up to
    hi[i] (excluded).
    """

    w: np.ndarray  # flat frequencies
    sorted_modes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    width: float  # _NEAR_RESONANCE / T


def _near_windows(w: np.ndarray, classes: np.ndarray, T: float) -> _NearWindows:
    """One sorted search for the pairs |w_i - w_j| T < _NEAR_RESONANCE of each class.

    w holds the frequencies of the modes and classes their labels
    (integers from 0); modes pair only within their class.  The keys
    w + class * shift lay the classes end to end with gaps wider than any
    window, so one sort and one searchsorted find the upper end of every
    window.  q lies above p in the window of p exactly when p lies below q
    in the window of q, so the lower end of p counts the upper ends up to
    p.  The windows reach 4 / T, capped at 4 (spread of w + 1), past which
    a window holds its whole class, plus eight spacings of the largest
    key: more than the rounding of the keys can take from a gap whose
    rounded value is below 1 / T.  So they hold every near pair, and
    _near_pairs keeps the pairs that pass that elementwise test.
    """
    width = _NEAR_RESONANCE / T
    span = w.max() - w.min()
    reach = 4.0 * min(width, span + 1.0)
    keys = w + classes * (2.0 * span + 4.0 * reach + 1.0)
    sorted_modes = np.argsort(keys)
    keys = keys[sorted_modes]
    hi = np.searchsorted(keys, keys + (reach + 8.0 * np.spacing(keys[-1])), side="right")
    lo = np.cumsum(np.bincount(hi, minlength=hi.size))[: hi.size]  # count of hi_q <= p
    rank = np.empty_like(sorted_modes)
    rank[sorted_modes] = np.arange(rank.size)
    return _NearWindows(w, sorted_modes, lo[rank], hi[rank], width)


def _near_pairs(windows: _NearWindows):
    """The near-resonant pairs (i, j), i <= j, of the modes of windows.

    Each unordered pair comes once, from its lower mode, the diagonal
    among them, in increasing i.  They are yielded in chunks of modes
    whose windows hold about _NEAR_CHUNK candidates, so that memory stays
    bounded where every pair is near.
    """
    lo = windows.lo
    counts = windows.hi - lo
    ends = np.cumsum(counts)  # of each mode's candidates
    cuts = [0, *np.searchsorted(ends, range(_NEAR_CHUNK, ends[-1], _NEAR_CHUNK)), lo.size]
    w = windows.w
    for a, b in zip(cuts, cuts[1:]):
        if a == b:  # one mode's window spans several chunks
            continue
        n = counts[a:b]
        offsets = lo[a:b] - ends[a:b] + n + (ends[a - 1] if a else 0)
        i = np.repeat(np.arange(a, b), n)
        j = windows.sorted_modes[np.arange(i.size) + np.repeat(offsets, n)]
        keep = (j >= i) & (np.abs(w[j] - w[i]) < windows.width)
        yield i[keep], j[keep]


def _pair_integrals(w: np.ndarray, T: float, ends) -> np.ndarray:
    """Exact int_0^T u_i u_j dt for the solutions of u'' = -w^2 u in each class of w.

    ends is the (u(0), u'(0), u(T), u'(T)) of _ends, one entry per mode of
    w; modes i and j run over the last axis, the leading axes are classes,
    and the pairs come out with shape (..., i, j).  The Wronskian identity
    d/dt (u_i' u_j - u_i u_j') = (w_j^2 - w_i^2) u_i u_j gives

        int_0^T u_i u_j dt = [u_i' u_j - u_i u_j']_0^T / (w_j^2 - w_i^2),

    whose numerator is a product of (..., i, 4) and (..., 4, j) stacks of
    the ends.  The near-resonant pairs of _near_pairs take
    _direct_pair_integrals instead, one evaluation for (i, j) and (j, i).
    """
    u0, du0, uT, duT = ends
    m = w.shape[-1]
    windows = _near_windows(w.ravel(), np.arange(w.size) // m, T)
    left = np.stack((duT, -uT, -du0, u0), axis=-1)
    right = np.stack((uT, duT, u0, du0), axis=-2)
    wi, wj = w[..., :, None], w[..., None, :]
    pairs = left @ right
    with np.errstate(divide="ignore", invalid="ignore"):  # the diagonal, replaced below
        pairs /= wj - wi
        pairs /= wj + wi
    u0, du0, w = u0.ravel(), du0.ravel(), windows.w
    flat = pairs.reshape(-1)
    for i, j in _near_pairs(windows):
        direct = _direct_pair_integrals(
            w[i], w[j], T, u0[i], du0[i] / w[i], u0[j], du0[j] / w[j]
        )
        flat[i * m + j % m] = direct
        flat[j * m + i % m] = direct
    return pairs


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
    pairs = _pair_integrals(w, T, _ends(u0, du0, w, T))
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
    pairs = _pair_integrals(w, T, _ends(state.a, state.b, w, T))
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
    classes are assembled apart, which halves the pairs.  The data are
    rotated to t = T once per mode; the amplitudes and the velocities
    phi_t, whose derivative is -omega^2 times the amplitude, then give
    their pair integrals by the Wronskian identity, with the direct formula
    for the near-resonant pairs.  Each form is symmetric in the two modes
    of a pair, so a block of orders is formed only against the orders of
    its class from its own on, which halves the pairs again and keeps
    memory bounded at large truncations.

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

    The sine orders are put in their parity classes, odd then even, and
    within a class each norm is sum_ij W_ij int_0^T u_i u_j dt over the
    modes i = (n, k) and j = (m, l), with W a theta (n, m) factor times a
    radial (k, l) factor.  Apart from the near-resonant pairs, the pair
    integral is the rank-4 Wronskian numerator sum_p left_p[i] right_p[j]
    times the quotient Q_ij = 1 / (w_j^2 - w_i^2).  So each block of
    orders forms Q once for both families, amplitudes and velocities,
    zeroes its near pairs by flat index, takes one Hadamard product
    Q * gram, and contracts both with the numerator stacks: the flux of
    the trace is folded into its stacks, and the rho_k of the interior
    lives on the pairs of one radial order.  W and the pair integrals are
    symmetric under (n, k) <-> (m, l), so a block of row orders meets only
    the columns from its first order on, and a pair past the block's own
    orders counts twice.  The near pairs come from one sorted search and
    take _direct_pair_integrals, each unordered pair once, in chunks.

    Raises:
        ParameterOutOfRange: delta0 is nan or outside (0, 1/2), or the
            phase max(omega) T is 2^53 or more.
        NonPositiveInput: T not positive and finite.
    """
    _real(delta0, "delta0", above=0, below=0.5)
    n_max, k_max = state.n_max, state.k_max
    basis = state.basis
    flux = basis.flux[:k_max]
    gram = basis.gram[:k_max, :k_max]
    rho = basis.rho[:k_max]
    # radial factors: the trace's flux products; gram, which goes with both
    # strip factors of the amplitudes and the strip sines of the
    # velocities; rho_k, which goes with the strip sines of the amplitudes
    radial = np.stack((np.outer(flux, flux), gram, np.diag(rho)), axis=-1)
    order = np.concatenate((np.arange(0, n_max, 2), np.arange(1, n_max, 2)))  # odd n first
    odd = (n_max + 1) // 2
    theta = _theta_factors(n_max, delta0)[np.ix_(order, order)]
    # theta factors of the trace, of the amplitudes' gram part (both strip
    # factors) and of the strip sines' rest
    weights = np.stack((theta[..., 0], theta[..., 1] + theta[..., 2], theta[..., 2]), axis=-1)

    w, w_sq = state.omega[order], state.omega_sq[order]
    u0, du0, uT, duT = _ends(state.a[order], state.b[order], w, T)
    # numerator stacks (order, p, k): the amplitudes, then the velocities
    # phi_t, whose ends are (u', -w^2 u)
    wu0, wuT = w_sq * u0, w_sq * uT
    left = np.array((duT, -uT, -du0, u0, -wuT, -duT, wu0, du0)).transpose(1, 0, 2).copy()
    right = np.array((uT, duT, u0, du0, duT, -wuT, du0, -wu0)).transpose(1, 0, 2).copy()
    trace_left, trace_right = left[:, :4] * flux, right[:, :4] * flux
    # (c or s, family, mode) with u = c cos(w t) + s sin(w t)
    coefs = np.array(((u0, du0), (du0 / w, -wu0 / w))).reshape(2, 2, -1)
    flat_w = w.ravel()
    windows = _near_windows(flat_w, np.arange(flat_w.size) >= odd * k_max, T)
    forms = np.zeros((3, n_max, n_max))  # per pair of orders, as weighted by weights
    near = np.zeros(2)

    def add_near(i, j):
        (ci, si), (cj, sj) = coefs[..., i], coefs[..., j]
        amp, vel = _direct_pair_integrals(flat_w[i], flat_w[j], T, ci, si, cj, sj)
        (n_i, k_i), (n_j, k_j) = np.divmod(i, k_max), np.divmod(j, k_max)
        t = weights[n_i, n_j] * (2.0 - (i == j))[:, None]  # each unordered pair once
        r = radial[k_i, k_j]
        near[0] += t[:, 0] @ (r[:, 0] * amp)
        near[1] += t[:, 1] @ (r[:, 1] * amp) + t[:, 2] @ (r[:, 2] * amp + r[:, 1] * vel)

    gram_row = np.tile(gram, odd)  # gram[k, l] at (k, (m, l))
    # (k, order, p) and (k, p, order): the rho part pairs one k with itself
    rho_left, rho_right = (left[:, :4] * rho).transpose(2, 0, 1), right[:, :4].transpose(2, 1, 0)
    twice = np.ones((n_max, n_max))
    # row blocks of orders, each against the orders of its class from its
    # own first one on: as many orders as keep a block within
    # _BLOCK_ELEMENTS / 4 pairs, at least one, so the narrower blocks down
    # the triangle take more orders
    blocks = []
    for start, stop in ((0, odd), (odd, n_max))[: min(2, n_max)]:
        lo = start
        while lo < stop:
            hi = min(stop, lo + max(1, _BLOCK_ELEMENTS // (4 * (stop - lo) * k_max * k_max)))
            blocks.append((lo, hi, stop))
            lo = hi
    buffers = np.empty((2, max((hi - lo) * (stop - lo) for lo, hi, stop in blocks) * k_max**2))
    # the near pairs in increasing i, integrated as they come; each block
    # takes those of its rows off the front of the queue to zero them
    stream = _near_pairs(windows)
    queue_i = queue_j = np.empty(0, dtype=np.intp)
    # the diagonal pairs divide by zero; they are near and zeroed
    with np.errstate(divide="ignore"):
        for lo, hi, stop in blocks:
            first, last, width = lo * k_max, hi * k_max, (stop - lo) * k_max
            # off the block's own orders each pair stands for its mirror too
            twice[lo:hi, hi:stop] = 2.0
            quot = buffers[0, : (last - first) * width].reshape(-1, width)
            quot_gram = buffers[1, : quot.size].reshape(-1, width)
            wi, wj = flat_w[first:last, None], flat_w[first : stop * k_max]
            np.subtract(wj, wi, out=quot)
            np.add(wj, wi, out=quot_gram)
            quot *= quot_gram
            np.divide(1.0, quot, out=quot)
            while not queue_i.size or queue_i[-1] < last:
                chunk = next(stream, None)
                if chunk is None:
                    break
                add_near(*chunk)
                queue_i = np.concatenate((queue_i, chunk[0]))
                queue_j = np.concatenate((queue_j, chunk[1]))
            cut = np.searchsorted(queue_i, last)
            i, j, queue_i, queue_j = queue_i[:cut], queue_j[:cut], queue_i[cut:], queue_j[cut:]
            mirror = j < last
            flat = quot.reshape(-1)
            flat[(i - first) * width + (j - first)] = 0.0
            flat[(j[mirror] - first) * width + (i[mirror] - first)] = 0.0
            matrix = (hi - lo, k_max, width)
            np.multiply(quot.reshape(matrix), gram_row[:, :width], out=quot_gram.reshape(matrix))

            pml = (hi - lo, -1, stop - lo, k_max)
            trace = np.matmul(trace_left[lo:hi], quot.reshape(matrix)).reshape(pml)
            strip = np.matmul(left[lo:hi], quot_gram.reshape(matrix))
            same_k = np.matmul(rho_left[:, lo:hi], rho_right[..., lo:stop])
            block = forms[:, lo:hi, lo:stop]
            np.einsum("npml,mpl->nm", trace, trace_right[lo:stop], out=block[0])
            np.einsum(
                "nfpml,mfpl->fnm",
                strip.reshape(hi - lo, 2, 4, stop - lo, k_max),
                right[lo:stop].reshape(stop - lo, 2, 4, k_max),
                out=block[1:],
            )
            block[2] += np.einsum("knm,nmk->nm", same_k, np.diagonal(quot.reshape(pml), 0, 1, 3))
    restricted, amp_gram, rest = np.einsum("fnm,nmf,nm->f", forms, weights, twice)
    return float(restricted + near[0]), float(amp_gram + rest + near[1])
