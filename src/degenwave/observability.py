"""Observability experiments: ratio ensembles and the high-mode obstruction.

The estimate under test bounds the conserved initial energy E(0) by the
squared normal-derivative trace on the restricted top segment plus an
interior remainder over the lateral strips.  No constant is available in
closed form, so acceptance is phrased through boundedness of empirical
ratios over seeded ensembles; the scan over pure high tangential modes
R_1(r) sin(n pi theta) cos(omega_n t) is the designed negative control:
their energy grows like (n pi)^2 while the top-side trace stays bounded, so
the pure-trace ratio diverges with slope 2 in log-log, and only the
interior term restores boundedness.  Every observation term comes from the
exact forms of waves, and the full side only where it is read: scanned
modes through observation_norms, whose full side is the same-order pair
integrals of the mode's own ends; single data through the restricted trace
and interior norms alone, the two the ratio reads; ensembles draw each
member once, at the largest truncation, and apply the trace Gramian of each
truncation to its slice (waves._ensemble_ratios).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NonPositiveInput, ParameterOutOfRange, TimeTooShort
from .params import DomainSpec, _real, _whole, observation_time_threshold
from .radial import RadialBasis
from .waves import (
    ModalCoefficients,
    _ensemble_ratios,
    _order_pair,
    _segment_and_strip_norms,
    energy,
    modal_state,
    observation_norms,
)

__all__ = [
    "ObservabilityRecord",
    "ObstructionScan",
    "EnsembleStats",
    "default_beta",
    "default_horizon",
    "observability_ratio",
    "high_mode_obstruction_scan",
    "hidden_trace_stability",
]


def default_beta(delta0: float) -> float:
    """A curvature just inside its admissible interval (0, delta0/2)."""
    return 0.499 * _real(delta0, "delta0", NonPositiveInput, above=0)


def default_horizon(delta0: float) -> float:
    """1.1 times the smallest horizon the sufficient condition admits at default_beta."""
    return 1.1 * observation_time_threshold(delta0, default_beta(delta0))


@dataclass(frozen=True)
class ObservabilityRecord:
    """One datum's energy, observation terms, and their quotient."""

    E0: float
    trace_restricted: float
    interior_term: float
    ratio: float
    degenerate: bool
    T: float
    delta0: float


def observability_ratio(
    state: ModalCoefficients,
    domain: DomainSpec,
    T: float,
) -> ObservabilityRecord:
    """E(0) against restricted trace plus interior remainder for one datum.

    Zero data are flagged degenerate (the quotient is 0/0).  The horizon is
    gated by the closed-form sufficient condition at default_beta.  Only the
    two norms the quotient reads are formed; the full top side is not.

    Raises:
        TimeTooShort: T not finite, or at or below the admissible threshold.
        ParameterOutOfRange: the phase max(omega) T is 2^53 or more.
    """
    threshold = observation_time_threshold(domain.delta0, default_beta(domain.delta0))
    _real(T, "T", TimeTooShort, above=threshold)
    e0 = energy(state)
    restricted, interior = _segment_and_strip_norms(state, T, domain.delta0)
    denom = restricted + interior
    degenerate = denom == 0.0
    return ObservabilityRecord(
        E0=e0,
        trace_restricted=restricted,
        interior_term=interior,
        ratio=math.nan if degenerate else e0 / denom,
        degenerate=degenerate,
        T=T,
        delta0=domain.delta0,
    )


@dataclass(frozen=True)
class ObstructionScan:
    """Log-log behavior of the pure-trace ratio over high tangential modes."""

    n_values: tuple[int, ...]
    pure_ratios: tuple[float, ...]  # E(0) / full-side trace
    remedied_ratios: tuple[float, ...]  # E(0) / (restricted trace + interior)
    slope: float
    remedied_max_over_min: float


def high_mode_obstruction_scan(
    n_values,
    T: float,
    domain: DomainSpec,
    basis: RadialBasis,
) -> ObstructionScan:
    """Scan the modes R_1 sin(n pi theta) cos(omega_n t) over tangential orders.

    The pure ratio uses the full top side: per mode it is
    (omega_n^2/4) / [|R_1'(1)|^2 (1/2)(T/2 + sin(2 omega_n T)/(4 omega_n))],
    growing like (n pi)^2.  The remedied ratio adds the restricted-segment
    trace and the interior term and stays bounded.  All three norms of each
    mode come from observation_norms, with R_1 the ground mode of basis.
    The slope is fitted through distinct orders only, so each order may be
    listed once.

    Raises:
        InsufficientData: fewer than 4 distinct orders or a span below one
            decade.
        ParameterOutOfRange: an order that is not an integer, or one listed
            more than once, or a phase omega_n T of 2^53 or more.
        NonPositiveInput: T not positive and finite.
    """
    ns = [_whole(n, "tangential order") for n in n_values]
    if len(set(ns)) < 4 or max(ns) < 8 * min(ns):
        raise InsufficientData("need at least 4 distinct orders spanning a decade")
    if len(set(ns)) < len(ns):
        raise ParameterOutOfRange(f"each order may be listed once, got {ns}")
    pure = []
    remedied = []
    for n in ns:
        state = modal_state(basis, n, 1, amplitudes={(n, 1): 1.0})
        e0 = energy(state)
        norms = observation_norms(state, T, domain.delta0)
        pure.append(e0 / norms.full_trace_norm_sq)
        remedied.append(e0 / (norms.restricted_trace_norm_sq + norms.interior_norm_sq))

    slope = float(np.polyfit(np.log(ns), np.log(pure), 1)[0])
    return ObstructionScan(
        n_values=tuple(ns),
        pure_ratios=tuple(pure),
        remedied_ratios=tuple(remedied),
        slope=slope,
        remedied_max_over_min=max(remedied) / min(remedied),
    )


@dataclass(frozen=True)
class EnsembleStats:
    """Hidden-trace ratio statistics over one seeded random ensemble."""

    seed: int
    size: int
    n_max: int
    k_max: int
    T: float
    ratios: tuple[float, ...]
    max_ratio: float
    mean_ratio: float


def hidden_trace_stability(
    basis: RadialBasis,
    seed: int,
    size: int,
    truncation: tuple[int, int],
    T: float,
) -> tuple[EnsembleStats, EnsembleStats, float]:
    """Ensemble maxima at a truncation and at its doubling; relative increase.

    Random data extend consistently under doubling (same master coefficient
    block), so the comparison isolates the effect of the added high modes.
    Each member is drawn once, at the doubling, and both truncations read
    it.

    Raises:
        ParameterOutOfRange: size below 1 or not an integer, a seed that
            is negative or not an integer, or a phase max(omega) T of 2^53
            or more at the doubling; all before any member is drawn.
        NonPositiveInput: T not positive and finite.
        TruncationTooSmall: a truncation that is not a pair, an order that
            is not an integer, or the doubling above RANDOM_CAP.
    """
    n_max, k_max = _order_pair(truncation, "truncation")
    size = _whole(size, "ensemble size", minimum=1)
    seed = _whole(seed, "seed", minimum=0)
    truncations = ((n_max, k_max), (2 * n_max, 2 * k_max))
    base, doubled = (
        EnsembleStats(
            seed=seed,
            size=size,
            n_max=n,
            k_max=k,
            T=T,
            ratios=tuple(float(x) for x in arr),
            max_ratio=float(arr.max()),
            mean_ratio=float(arr.mean()),
        )
        for (n, k), arr in zip(truncations, _ensemble_ratios(basis, seed, size, truncations, T))
    )
    increase = doubled.max_ratio / base.max_ratio - 1.0
    return base, doubled, increase
