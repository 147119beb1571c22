"""Scalar parameters and smooth cutoff functions for the degenerate wave model.

The diffusion matrix is diag(1, r^alpha) on the unit square with coordinates
z = (theta, r).  This module owns the degeneracy exponent, the interior /
boundary region bookkeeping driven by the corner margin delta0, the Carleman
weight parameters (lambda, s, beta, t0, T) together with their derived
admissibility data (gamma, gamma_hat, epsilon, A0, A1), each in closed form,
and the two smooth cutoffs: the angular plateau cutoff and the temporal
plateau cutoff.  All types are immutable; all functions are pure.

It also holds the package's input gates, the only place that tests an
argument's type, finiteness or range.  `_whole` takes a count (an integer,
or a float with an integral value) and an optional lower bound; `_real`
takes a real number, or a numpy array of them such as a time grid, checks
that it is finite and, optionally, inside an open interval or beyond one
bound; `_reals` is the one rule that turns an array argument (a number, a
numpy array or nested sequences) into a float array, refusing text,
ragged and non-numeric input and, unless told otherwise, non-finite
entries.  Each caller names the argument and passes the error class it
raises, so a refused input always raises a `DegenWaveError` subclass that
names it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BetaOutOfRange, NonPositiveInput, ParameterOutOfRange, TimeTooShort

__all__ = [
    "DegeneracyParams",
    "DomainSpec",
    "theta_strips",
    "CarlemanParams",
    "beta_upper_bound",
    "observation_time_threshold",
    "validate_carleman_params",
    "CutoffSpec",
    "theta_cutoff",
    "time_cutoff",
    "eval_cutoff",
]


def _whole(
    value, name: str, error: type[Exception] = ParameterOutOfRange, minimum: int | None = None
) -> int:
    """value as an int: an integer, or a float with an integral value, at least minimum.

    Orders, seeds and grid sizes count things, so 1.5 (or nan) is refused
    with `error` instead of being truncated or reaching numpy as a float.
    """
    if not (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise error(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if minimum is not None and count < minimum:
        least = "non-negative" if minimum == 0 else f"at least {minimum}"
        raise error(f"{name} must be {least}, got {count}")
    return count


def _real(
    value,
    name: str,
    error: type[Exception] = ParameterOutOfRange,
    *,
    above: float | None = None,
    below: float | None = None,
    least: float | None = None,
):
    """value as a float, or an array of them as given, refused with `error`
    unless it is finite and beyond the bounds given: above and below are
    strict, least is inclusive.

    A real number is an int, a float or a numpy scalar (not a string); an
    array is a numpy array of a numeric dtype, every element checked.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        x = value
    elif isinstance(value, numbers.Real):
        x = float(value)
    else:
        raise error(f"{name} must be a real number, got {value!r}")
    rules = [(np.isfinite(x), "be finite")]
    if above is not None and below is not None:
        rules.append(((x > above) & (x < below), f"lie in ({above}, {below})"))
    elif above is not None:
        rules.append((x > above, f"exceed {above}"))
    elif below is not None:
        rules.append((x < below, f"be below {below}"))
    if least is not None:
        rules.append((x >= least, f"be at least {least}"))
    for ok, rule in rules:
        if not np.all(ok):
            bad = x if np.ndim(x) == 0 else x[~ok].flat[0]
            raise error(f"{name} must {rule}, got {bad}")
    return x


def _reals(
    value, name: str, error: type[Exception] = ParameterOutOfRange, *, finite: bool = True
) -> np.ndarray:
    """value as a new float array, refused with `error` unless it is a real
    number, a numpy array of a numeric dtype, or nested sequences of real
    numbers of one shape; every element must be finite unless finite is False.
    """
    try:
        x = np.asarray(value)
    except ValueError:  # sequences of unequal lengths
        raise error(f"{name} must be an array of real numbers, got a ragged sequence") from None
    if x.dtype.kind not in "iuf":
        raise error(f"{name} must be an array of real numbers, got {x.dtype} entries")
    x = x.astype(float)
    return _real(x, name, error) if finite else x


@dataclass(frozen=True)
class DegeneracyParams:
    """Degeneracy exponent alpha of the radial weight r^alpha, 0 < alpha < 1.

    The critical case alpha = 1 enters only through the truncated
    Hardy-Poincare constants, which take no alpha.
    """

    alpha: float

    def __post_init__(self) -> None:
        _real(self.alpha, "alpha", above=0, below=1)


@dataclass(frozen=True)
class DomainSpec:
    """Corner margin delta0 and the regions it derives on the unit square.

    The observation strip pair near the lateral sides is
    [(0, 4*delta0) + (1-4*delta0, 1)] x (0, 1), the localized core is
    (delta0, 1-delta0) x (0, 1), and the restricted top observation segment
    is (delta0, 1-delta0) x {1}.
    """

    delta0: float

    def __post_init__(self) -> None:
        _real(self.delta0, "delta0", above=0, below=1 / 32)


def theta_strips(delta0: float) -> tuple[tuple[float, float], ...]:
    """Lateral observation strips as disjoint theta intervals.

    For delta0 >= 1/8 the two strips meet or overlap and are merged; the
    admissible range delta0 < 1/32 always yields two disjoint strips, but the
    merged form keeps region-exhaustion diagnostics well defined.
    """
    c = 4.0 * _real(delta0, "delta0", above=0)
    if c >= 0.5:
        return ((0.0, 1.0),)
    return ((0.0, c), (1.0 - c, 1.0))


@dataclass(frozen=True)
class CarlemanParams:
    """Validated Carleman weight parameters and their derived quantities.

    gamma certifies the endpoint sign condition of the weight exponent
    xi = theta^2 + r^(2-alpha) - beta*(t - t0)^2; gamma_hat and epsilon
    certify the two-sided band conditions used to remove the auxiliary
    terminal constraint, and A0 = exp(-lambda*gamma_hat),
    A1 = exp(-2*lambda*gamma_hat) are the absorption constants.
    """

    alpha: float
    delta0: float
    beta: float
    T: float
    lam: float
    s: float
    t0: float
    gamma: float
    gamma_hat: float
    epsilon: float
    A0: float
    A1: float

    def __post_init__(self) -> None:
        _real(self.epsilon, "epsilon", above=0, below=_real(self.T, "T") / 16.0)
        _real(self.gamma_hat, "gamma_hat", above=0, below=0.5 * self.gamma)
        if not self.A1 < self.A0:
            raise ParameterOutOfRange("A1 < A0 must hold")


_UNIT_ROUNDOFF = 0.5 * float(np.finfo(float).eps)


def beta_upper_bound(alpha: float, delta0: float) -> float:
    """Supremum of the admissible curvature interval for beta."""
    DegeneracyParams(alpha)
    _real(delta0, "delta0", above=0)
    return 0.5 * min((2.0 - alpha) ** 2 / 8.0, delta0)


def observation_time_threshold(delta0: float, beta: float) -> float:
    """Minimal admissible observation horizon max{4/sqrt(delta0), sqrt(8/beta)}."""
    _real(delta0, "delta0", NonPositiveInput, above=0)
    _real(beta, "beta", NonPositiveInput, above=0)
    return max(4.0 * delta0 ** -0.5, math.sqrt(8.0 / beta))


def validate_carleman_params(
    alpha: float,
    domain: DomainSpec,
    beta: float,
    T: float,
    lam: float = 1.0,
    s: float = 2.0,
) -> CarlemanParams:
    """Validate raw weight parameters and derive the admissibility package.

    gamma is set to half its maximal admissible value,
    gamma = (min{delta0, beta} T^2 - 8)/8, and gamma_hat = gamma/4.  On the
    unit square theta^2 + r^(2-alpha) spans exactly [0, 2] and both band
    conditions on xi are monotone in |t - T/2|, so the largest admissible
    band half-width is the closed form
    min{sqrt(gamma_hat/beta), (T/2 - sqrt((2 + 2 gamma_hat)/beta))/2, T/16};
    epsilon is that value with the cap just below T/16, shrunk by 0.999.
    Both bounds are positive whenever gamma_hat is, that is above the
    threshold beta T^2 > 8.

    Raises:
        NonPositiveInput: a raw scalar is not positive and finite, or
            A1 = exp(-2 lam gamma_hat) < A0 = exp(-lam gamma_hat) fails in
            floating point.
        BetaOutOfRange: beta outside (0, min{(2-alpha)^2/8, delta0}/2].
        TimeTooShort: T at or below the observation threshold, or so close
            to it (about 1e-11 relative) that gamma_hat is too small to
            certify the band conditions against their own rounding.
    """
    DegeneracyParams(alpha)
    delta0 = domain.delta0
    for name, value in (("beta", beta), ("T", T), ("lambda", lam), ("s", s)):
        _real(value, name, NonPositiveInput, above=0)
    bmax = beta_upper_bound(alpha, delta0)
    # the endpoint beta = bmax is admitted: every derived quantity stays
    # well defined there, and the canonical configuration delta0 = 0.01,
    # beta = 0.005 sits exactly on it
    if beta > bmax:
        raise BetaOutOfRange(f"beta = {beta} must not exceed {bmax}")
    threshold = observation_time_threshold(delta0, beta)
    if not T > threshold:
        raise TimeTooShort(f"T = {T} must exceed {threshold}")

    gamma = (min(delta0, beta) * T * T - 8.0) / 8.0
    gamma_hat = 0.25 * gamma
    # The band conditions below compare xi = theta^2 + r^(2-alpha)
    # - beta (t - t0)^2, of magnitude at most X = 2 + beta T^2/4, with
    # -gamma_hat and -2 gamma_hat.  Forming t - t0, its square, the product
    # with beta, the sum, and gamma_hat itself each err by at most a few
    # units u = 2^-53 of X, less than 16 u X in all.  Shrinking epsilon by
    # 0.999 leaves every band a slack of at least (1 - 0.999^2) gamma_hat
    # > gamma_hat/1000 (the center band is the tightest; the outer slack is
    # 0.012 gamma_hat root/(T/2 + root) >= 0.004 gamma_hat, because
    # root^2 = T^2/16 + 3/(2 beta) puts root in [T/4, T/2]).  Unless that
    # slack exceeds 16 u X, the conditions hold only to rounding.
    if not gamma_hat > 16000.0 * _UNIT_ROUNDOFF * (2.0 + 0.25 * beta * T * T):
        raise TimeTooShort(
            f"T = {T} is within rounding of the threshold {threshold}: "
            f"gamma_hat = {gamma_hat} cannot certify the band conditions"
        )
    # center band |t - T/2| <= epsilon: xi >= -beta epsilon^2 >= -gamma_hat;
    # outer bands within 2 epsilon of 0 or T:
    # xi <= 2 - beta (T/2 - 2 epsilon)^2 <= -2 gamma_hat.  beta <= delta0/2
    # gives T^2/4 - (2 + 2 gamma_hat)/beta = 6 gamma_hat/beta, so the outer
    # bound is written without the cancellation in T/2 - sqrt(...)
    root = math.sqrt((2.0 + 2.0 * gamma_hat) / beta)
    epsilon = 0.999 * min(
        math.sqrt(gamma_hat / beta),
        3.0 * gamma_hat / (beta * (0.5 * T + root)),
        T / 16.0 * (1.0 - 1e-9),
    )
    A0 = math.exp(-lam * gamma_hat)
    A1 = math.exp(-2.0 * lam * gamma_hat)
    if not A1 < A0:
        raise NonPositiveInput(
            f"A1 = exp(-2 lam gamma_hat) < A0 = exp(-lam gamma_hat) fails in "
            f"floating point at lam = {lam}, gamma_hat = {gamma_hat}"
        )

    return CarlemanParams(
        alpha=alpha,
        delta0=delta0,
        beta=beta,
        T=T,
        lam=lam,
        s=s,
        t0=0.5 * T,
        gamma=gamma,
        gamma_hat=gamma_hat,
        epsilon=epsilon,
        A0=A0,
        A1=A1,
    )


# ---------------------------------------------------------------------------
# Smooth cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffSpec:
    """A C-infinity plateau cutoff built from the exp(-1/x) mollifier ramp.

    Zero on (-inf, rise[0]] and [fall[1], +inf), one on [rise[1], fall[0]],
    with smooth monotone ramps on the two transition bands.
    """

    rise: tuple[float, float]
    fall: tuple[float, float]

    def __post_init__(self) -> None:
        a, b, c, d = (_real(end, "cutoff band end") for end in (*self.rise, *self.fall))
        if not a < b <= c < d:
            raise ParameterOutOfRange("cutoff bands must satisfy rise < plateau < fall")


def theta_cutoff(delta0: float) -> CutoffSpec:
    """Angular cutoff: 1 on (3*delta0, 1-3*delta0), 0 off (2*delta0, 1-2*delta0)."""
    _real(delta0, "delta0", above=0, below=1 / 32)
    return CutoffSpec(
        rise=(2.0 * delta0, 3.0 * delta0),
        fall=(1.0 - 3.0 * delta0, 1.0 - 2.0 * delta0),
    )


def time_cutoff(epsilon: float, T: float) -> CutoffSpec:
    """Temporal cutoff: 1 on (2*epsilon, T-2*epsilon), 0 off (epsilon, T-epsilon)."""
    _real(epsilon, "epsilon", above=0, below=_real(T, "T") / 16.0)
    return CutoffSpec(
        rise=(epsilon, 2.0 * epsilon),
        fall=(T - 2.0 * epsilon, T - epsilon),
    )


def _smoothstep(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-1/x) smoothstep S on [0, 1] with first and second derivatives.

    S = g(x) / (g(x) + g(1-x)) with g(x) = exp(-1/x); all three outputs are
    exact 0/1 (resp. 0) outside (0, 1), and 0 at nan.  Underflow of g near
    the endpoints reproduces the exact limit values, so no clamping is needed.
    """
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xi = np.where(inside, x, 0.5)  # dummy abscissa keeps exp() finite
    with np.errstate(under="ignore"):
        u = np.exp(-1.0 / xi)
        v = np.exp(-1.0 / (1.0 - xi))
        du = u / xi**2
        dv = v / (1.0 - xi) ** 2
        ddu = u * (1.0 - 2.0 * xi) / xi**4
        ddv = v * (1.0 - 2.0 * (1.0 - xi)) / (1.0 - xi) ** 4
        den = u + v
        s = u / den
        num1 = du * v + u * dv
        ds = num1 / den**2
        # d/dx of v(x) = g(1-x) is -g'(1-x); sign bookkeeping is folded in here
        num2 = ddu * v - u * ddv
        dden = du - dv
        dds = (num2 * den - 2.0 * num1 * dden) / den**3
    s = np.where(inside, s, np.where(x >= 1.0, 1.0, 0.0))
    ds = np.where(inside, ds, 0.0)
    dds = np.where(inside, dds, 0.0)
    return s, ds, dds


def eval_cutoff(
    spec: CutoffSpec, x: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate a cutoff and its first two derivatives; total on the real line.

    The cutoff is the product S((x - a)/(b - a)) S((d - x)/(d - c)) of a
    rising and a falling smoothstep, rise = (a, b) and fall = (c, d), and
    its derivatives follow by the product rule.  Outside its own band each
    factor is exactly 0 or 1 with exactly zero derivatives, and each is 1 on
    the other's band (b <= c), so plateau and off-support values are exactly
    1 and 0 with zero derivatives, and value * (1 - value) vanishes
    identically outside the two bands.

    Raises:
        ParameterOutOfRange: x is not a real number or an array of them
            (infinities and nan are admitted).
    """
    x = _reals(x, "x", finite=False)
    a, b = spec.rise
    c, d = spec.fall
    rise, rise1, rise2 = _smoothstep((x - a) / (b - a))
    fall, fall1, fall2 = _smoothstep((d - x) / (d - c))
    rise1, rise2 = rise1 / (b - a), rise2 / (b - a) ** 2
    fall1, fall2 = -fall1 / (d - c), fall2 / (d - c) ** 2
    val = rise * fall
    d1 = rise1 * fall + rise * fall1
    d2 = rise2 * fall + 2.0 * rise1 * fall1 + rise * fall2
    return val, d1, d2
