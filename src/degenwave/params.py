"""Scalar parameters and smooth cutoff functions for the degenerate wave model.

The diffusion matrix is diag(1, r^alpha) on the unit square with coordinates
z = (theta, r).  This module owns the degeneracy exponent, the interior /
boundary region bookkeeping driven by the corner margin delta0, the Carleman
weight parameters (lambda, s, beta, t0, T) together with their derived
admissibility data (gamma, gamma_hat, epsilon, A0, A1), each in closed form,
and the two smooth cutoffs: the angular plateau cutoff and the temporal
plateau cutoff.  All types are immutable; all functions are pure.

It also holds the package's input gates, the only place that tests an
argument's type, finiteness or range.  Each gate takes one kind of input.
`_whole` takes a count (an integer, or a float with an integral value) and
an optional lower bound; `_real` takes one real number, never an array,
checks that it is finite and, optionally, inside an open interval or
beyond one bound; `_reals` is the one rule that turns an array argument (a
number, a numpy array or nested sequences) into a float array, refusing
text, ragged and non-numeric input, input of another rank than the one
asked for and, unless told otherwise, non-finite entries.  `_entries`
takes a sequence argument whose entries are checked one by one (a grid
shape, a cutoff band, a scan): it accepts a tuple, a list or a 1-D numpy
array with an exact number of entries, or with at least one, refuses a
number, a string, a mapping or any other container, and hands the entries
unchanged to the gates above.  Each caller names the argument and passes
the error class it raises, so a refused input always raises a
`DegenWaveError` subclass that names it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

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
) -> float:
    """value as a float, refused with `error` unless it is a finite real
    number beyond the bounds given: above and below are strict, least is
    inclusive.

    A real number is an int, a float or a numpy scalar; not a string, and
    not a numpy array, a 0-d one included: an argument that takes an array
    goes through `_reals`.
    """
    if not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    x = float(value)
    rules = [(math.isfinite(x), "be finite")]
    if above is not None and below is not None:
        rules.append((above < x < below, f"lie in ({above}, {below})"))
    elif above is not None:
        rules.append((x > above, f"exceed {above}"))
    elif below is not None:
        rules.append((x < below, f"be below {below}"))
    if least is not None:
        rules.append((x >= least, f"be at least {least}"))
    for ok, rule in rules:
        if not ok:
            raise error(f"{name} must {rule}, got {x}")
    return x


def _reals(
    value, name: str, error: type[Exception] = ParameterOutOfRange, *,
    finite: bool = True, ndim: int | None = None,
) -> np.ndarray:
    """value as a new float array, refused with `error` unless it is a real
    number, a numpy array of a numeric dtype, or nested sequences of real
    numbers of one shape, with ndim axes if ndim is given; every element
    must be finite unless finite is False.
    """
    try:
        x = np.asarray(value)
    except ValueError:  # sequences of unequal lengths
        raise error(f"{name} must be an array of real numbers, got a ragged sequence") from None
    if x.dtype.kind not in "iuf":
        raise error(f"{name} must be an array of real numbers, got {x.dtype} entries")
    if ndim is not None and x.ndim != ndim:
        raise error(f"{name} must be a {ndim}-D array, got shape {x.shape}")
    if finite and not (ok := np.isfinite(x)).all():
        raise error(f"{name} must be finite, got {x[~ok].flat[0]}")
    return x.astype(float)


def _entries(
    value, name: str, error: type[Exception] = ParameterOutOfRange, *, size: int | None = None
) -> tuple:
    """The entries of value as a tuple, refused with `error` unless value is
    a tuple, a list or a 1-D numpy array with exactly size entries, or with
    at least one if size is None.  The entries themselves are not checked:
    each goes on to another gate.
    """
    if not (isinstance(value, (tuple, list)) or isinstance(value, np.ndarray) and value.ndim == 1):
        raise error(f"{name} must be a tuple, a list or a 1-D array, got {value!r}")
    if len(value) != (size or max(len(value), 1)):
        raise error(f"{name} must hold {size or 'one or more'} entries, got {len(value)}")
    return tuple(value)


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
    """Carleman weight parameters and the admissibility data they derive.

    A record keeps the alpha, delta0, beta, T, lambda and s it is given,
    checks them, and derives the rest in closed form whenever it is made,
    by `dataclasses.replace` too, so no record holds an inadmissible value
    and no derived field can go stale or be passed.  The record sets
    t0 = T/2 and gamma to half its maximal admissible value,
    gamma = (min{delta0, beta} T^2 - 8)/8, which certifies the endpoint
    sign condition of the weight exponent
    xi = theta^2 + r^(2-alpha) - beta*(t - t0)^2; gamma_hat = gamma/4 and
    epsilon certify the two-sided band conditions used to remove the
    auxiliary terminal constraint, and A0 = exp(-lambda*gamma_hat),
    A1 = exp(-2*lambda*gamma_hat) are the absorption constants.  On the
    unit square theta^2 + r^(2-alpha) spans exactly [0, 2] and both band
    conditions on xi are monotone in |t - T/2|, so the largest admissible
    band half-width is the closed form
    min{sqrt(gamma_hat/beta), (T/2 - sqrt((2 + 2 gamma_hat)/beta))/2, T/16};
    epsilon is that value with the cap just below T/16, shrunk by 0.999.
    Both bounds are positive whenever gamma_hat is, that is above the
    threshold beta T^2 > 8.

    Raises:
        ParameterOutOfRange: alpha outside (0, 1) or delta0 outside
            (0, 1/32).
        NonPositiveInput: beta, T, lambda or s is not positive and finite,
            or A1 < A0 fails in floating point.
        BetaOutOfRange: beta above min{(2-alpha)^2/8, delta0}/2.
        TimeTooShort: T at or below the observation threshold, or so close
            to it (about 1e-11 relative) that gamma_hat is too small to
            certify the band conditions against their own rounding.
    """

    alpha: float
    delta0: float
    beta: float
    T: float
    lam: float
    s: float
    t0: float = field(init=False)
    gamma: float = field(init=False)
    gamma_hat: float = field(init=False)
    epsilon: float = field(init=False)
    A0: float = field(init=False)
    A1: float = field(init=False)

    def __post_init__(self) -> None:
        DegeneracyParams(self.alpha)
        delta0 = DomainSpec(self.delta0).delta0
        given = (("beta", self.beta), ("T", self.T), ("lambda", self.lam), ("s", self.s))
        beta, T, lam, _ = (_real(value, name, NonPositiveInput, above=0) for name, value in given)
        bmax = beta_upper_bound(self.alpha, delta0)
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
        derived = (0.5 * T, gamma, gamma_hat, epsilon, A0, A1)
        for name, value in zip(("t0", "gamma", "gamma_hat", "epsilon", "A0", "A1"), derived):
            object.__setattr__(self, name, value)


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
    """The weight record of raw parameters on a domain.

    `CarlemanParams` checks them and derives the admissibility package in
    closed form; it raises what that record raises.
    """
    return CarlemanParams(alpha, domain.delta0, beta, T, lam, s)


# ---------------------------------------------------------------------------
# Smooth cutoffs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutoffSpec:
    """A C-infinity plateau cutoff built from the exp(-1/x) mollifier ramp.

    Zero on (-inf, rise[0]] and [fall[1], +inf), one on [rise[1], fall[0]],
    with smooth monotone ramps on the two transition bands.  A spec keeps
    each band as the tuple of two floats its gates return, whatever
    sequence it is given, so specs hash and compare by their ends.

    Raises:
        ParameterOutOfRange: rise or fall is not a tuple, a list or a 1-D
            array of two finite real numbers, or the ends are out of order.
    """

    rise: tuple[float, float]
    fall: tuple[float, float]

    def __post_init__(self) -> None:
        ends = (*_entries(self.rise, "rise", size=2), *_entries(self.fall, "fall", size=2))
        a, b, c, d = (_real(end, "cutoff band end") for end in ends)
        if not a < b <= c < d:
            raise ParameterOutOfRange("cutoff bands must satisfy rise < plateau < fall")
        object.__setattr__(self, "rise", (a, b))
        object.__setattr__(self, "fall", (c, d))


def theta_cutoff(delta0: float) -> CutoffSpec:
    """Angular cutoff: 1 on (3*delta0, 1-3*delta0), 0 off (2*delta0, 1-2*delta0).

    Raises:
        ParameterOutOfRange: delta0 outside (0, 1/32), as `DomainSpec` gates it.
    """
    DomainSpec(delta0)
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
