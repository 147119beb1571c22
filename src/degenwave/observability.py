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
truncation, built only here, to its slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, NonPositiveInput, ParameterOutOfRange, TimeTooShort
from .params import DomainSpec, _real, _whole, observation_time_threshold
from .radial import RadialBasis
from .waves import (
    _BLOCK_ELEMENTS,
    ModalCoefficients,
    _frequencies,
    _random_coefficients,
    _segment_and_strip_norms,
    _trace_gramian,
    _truncation,
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
            more than once.
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


def _ensemble_stats(
    basis: RadialBasis,
    seed: int,
    size: int,
    truncations,
    T: float,
) -> list[EnsembleStats]:
    """Full-side trace norms against the data energy norms, at each truncation.

    Each member is a seeded damped random datum; the ratio is the squared
    trace norm over the squared data norm (weighted-gradient part of phi0
    plus L2 part of phi1).  Time integration is exact, so the statistics
    carry no quadrature error.  The trace Gramian of each truncation is
    built once, the one place it is built: a single datum contracts its
    own ends instead (full_trace_norm_closed), which is cheaper for one
    datum but several times slower, member by member, than one block per
    order applied to a whole chunk.  Chunk by chunk, so that
    the stacked data stay within a fixed element budget at the largest
    truncation, the members are drawn once at that truncation, and every
    truncation reads its slice of them: the data y = (a, b / omega) and
    the data norms are array operations over the chunk, and
    (1/2) sum_n y_n^T G_n y_n is one batched product per sine order.

    Raises:
        ParameterOutOfRange: size below 1 or not an integer, or a seed that
            is negative or not an integer.
    """
    size = _whole(size, "ensemble size", minimum=1)
    seed = _whole(seed, "seed", minimum=0)
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
            out.extend(trace / (h1w + l2))
    stats = []
    for (n_max, k_max), member_ratios in zip(truncations, ratios):
        arr = np.asarray(member_ratios)
        stats.append(EnsembleStats(
            seed=seed,
            size=size,
            n_max=n_max,
            k_max=k_max,
            T=T,
            ratios=tuple(float(x) for x in arr),
            max_ratio=float(arr.max()),
            mean_ratio=float(arr.mean()),
        ))
    return stats


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
        ParameterOutOfRange: size below 1 or not an integer, or a seed that
            is negative or not an integer.
        TruncationTooSmall: the doubling above RANDOM_CAP, or an order
            that is not an integer.
    """
    truncation = _truncation(*truncation)
    doubled_trunc = (2 * truncation[0], 2 * truncation[1])
    base, doubled = _ensemble_stats(basis, seed, size, (truncation, doubled_trunc), T)
    increase = doubled.max_ratio / base.max_ratio - 1.0
    return base, doubled, increase
