"""Hardy-Poincare best constants: subcritical inequality and critical blow-up.

Two families of radial quotients are computed as extreme generalized
eigenvalues of weighted stiffness/mass pencils:

* subcritical, on (0, 1) with weight pair (r^alpha, r^(alpha-2)) and a
  Dirichlet condition at the degenerate end; the best constant stays below
  4/(1-alpha)^2 and approaches it under refinement without attaining it;

* critical (alpha = 1), on the truncated interval (delta, 1) with weight
  pair (r, 1/r); the best constant is exactly 4/pi^2 |ln delta|^2 when only
  u(1) = 0 is imposed and 1/pi^2 |ln delta|^2 for Dirichlet at both ends,
  blowing up logarithmically as delta -> 0.

The maximal Rayleigh quotient is the reciprocal of the smallest eigenvalue
of the pencil with the roles of the two forms fixed as (stiffness, mass).
That eigenvalue comes from consistent inverse iteration; the reported
constant is the consistent-mass Rayleigh quotient of its eigenvector, so
it is a true quotient of an admissible discrete function and can never
exceed the continuous best constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DeltaOutOfRange, InsufficientData, ParameterOutOfRange
from .params import DegeneracyParams, _real
from .radial import (
    RadialMesh,
    assemble_weighted_system,
    build_graded_mesh,
    build_log_mesh,
    build_uniform_mesh,
    refine_smallest_eigenpair,
)

__all__ = [
    "HardyReport",
    "BlowupFit",
    "subcritical_bound",
    "best_subcritical_constant",
    "critical_truncated_constant",
    "exact_critical_constant",
    "blowup_rate_fit",
]


def subcritical_bound(alpha: float) -> float:
    """The subcritical Hardy constant 4/(1-alpha)^2."""
    DegeneracyParams(alpha)
    return 4.0 / (1.0 - alpha) ** 2


@dataclass(frozen=True)
class HardyReport:
    """Best-constant computation result with its reference value."""

    kind: str  # "subcritical" or "critical"
    bc: str
    numerical_best_constant: float
    reference_constant: float
    ratio: float
    mesh_n: int
    alpha: float | None = None
    delta: float | None = None
    method: str | None = None


def _best_constant(mats) -> float:
    """Maximal Rayleigh quotient int w_q u^2 / int w_p (u')^2 of one pencil.

    The value is the consistent Rayleigh quotient of the vector that
    consistent inverse iteration returns (a certified lower bound of the
    continuous best constant).
    """
    return 1.0 / refine_smallest_eigenpair(mats)[0]


def best_subcritical_constant(alpha: float, mesh: RadialMesh | None = None) -> HardyReport:
    """Best discrete constant of the subcritical inequality on a given mesh.

    Only u(0) = 0 is imposed, so u(1) is free.
    """
    bound = subcritical_bound(alpha)
    mesh = mesh or build_graded_mesh(4096, 3.0)
    bc = "dirichlet-left-only"
    mats = assemble_weighted_system(mesh, p=alpha, q=alpha - 2.0, bc=bc)
    c = _best_constant(mats)
    return HardyReport(
        kind="subcritical",
        bc=bc,
        numerical_best_constant=c,
        reference_constant=bound,
        ratio=c / bound,
        mesh_n=mesh.n_cells,
        alpha=alpha,
    )


def exact_critical_constant(delta: float, bc: str = "mixed") -> float:
    """Exact truncated critical constant: (4/pi^2) ln^2(delta), or (1/pi^2) ln^2(delta).

    `bc="mixed"` keeps u(delta) free with u(1) = 0; `bc="dirichlet"`
    constrains both ends.
    """
    _real(delta, "delta", DeltaOutOfRange, above=0, below=1)
    factor = 4.0 if bc == "mixed" else 1.0 if bc == "dirichlet" else None
    if factor is None:
        raise ParameterOutOfRange(f"unknown critical bc kind: {bc!r}")
    return factor / math.pi**2 * math.log(delta) ** 2


def critical_truncated_constant(
    delta: float,
    bc: str = "mixed",
    method: str = "direct",
    N: int = 4096,
) -> HardyReport:
    """Best constant of the critical truncated inequality on (delta, 1).

    direct method: pencil with weights (r, 1/r) on a geometric mesh of
    (delta, 1), the mixed condition realized by leaving the node at delta
    unconstrained (natural condition).  log-transform method: substitute
    x = -ln r, solve the unweighted problem on (0, L), L = |ln delta|, where
    the mixed condition becomes a left Dirichlet one.  Both return 1/mu_1.

    Raises:
        DeltaOutOfRange: delta outside (0, 1).
        ParameterOutOfRange: an unknown bc or method.
    """
    exact = exact_critical_constant(delta, bc)
    if method == "direct":
        mesh = build_log_mesh(N, delta)
        fem_bc = "dirichlet-right-only" if bc == "mixed" else "dirichlet-dirichlet"
        mats = assemble_weighted_system(mesh, p=1.0, q=-1.0, bc=fem_bc)
    elif method == "log-transform":
        mesh = build_uniform_mesh(N, 0.0, abs(math.log(delta)))
        fem_bc = "dirichlet-left-only" if bc == "mixed" else "dirichlet-dirichlet"
        mats = assemble_weighted_system(mesh, p=0.0, q=0.0, bc=fem_bc)
    else:
        raise ParameterOutOfRange(f"unknown method: {method!r}")
    c = _best_constant(mats)
    return HardyReport(
        kind="critical",
        bc=bc,
        numerical_best_constant=c,
        reference_constant=exact,
        ratio=c / exact,
        mesh_n=mesh.n_cells,
        delta=delta,
        method=method,
    )


@dataclass(frozen=True)
class BlowupFit:
    """Log-log fit of the critical constant against |ln delta|."""

    slope: float
    intercept: float
    r_squared: float
    deltas: tuple[float, ...]
    constants: tuple[float, ...]


def blowup_rate_fit(
    deltas: Sequence[float],
    bc: str = "mixed",
    method: str = "direct",
    N: int = 8192,
) -> BlowupFit:
    """Least-squares slope of ln C against ln |ln delta| over a delta scan.

    The exact constants are pure squares of |ln delta|, so the slope
    estimates the blow-up exponent 2.  Each constant is computed by
    `critical_truncated_constant` with the given bc, method and N.

    Raises:
        DeltaOutOfRange: a delta outside (0, 1).
        InsufficientData: fewer than 4 deltas or a span below two decades.
    """
    return _fit_blowup(
        deltas,
        lambda d: critical_truncated_constant(d, bc=bc, method=method, N=N).numerical_best_constant,
    )


def _fit_blowup(deltas: Sequence[float], constant: Callable[[float], float]) -> BlowupFit:
    """Check the scan, then fit ln constant(delta) against ln |ln delta|.

    `constant` is called once per delta, in order, only after the scan
    passes its checks.
    """
    ds = [_real(d, "delta", DeltaOutOfRange, above=0, below=1) for d in deltas]
    if len(ds) < 4:
        raise InsufficientData("need at least 4 truncation values")
    if max(ds) / min(ds) < 100.0:
        raise InsufficientData("truncation values must span at least two decades")
    cs = [constant(d) for d in ds]
    x = np.log(np.abs(np.log(ds)))
    y = np.log(cs)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return BlowupFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        deltas=tuple(ds),
        constants=tuple(float(c) for c in cs),
    )
