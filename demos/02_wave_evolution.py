"""Demo 2: exact modal evolution, energy conservation, and observation norms.

Projects a smooth initial bump onto the separated basis, evolves it
semi-analytically (no time-stepping error), verifies that the energy drift
is pure roundoff, and evaluates the top-side trace norms and the interior
observation norm exactly in time.
"""

import numpy as np

from degenwave import (
    energy,
    energy_series,
    evolve,
    observation_norms,
    project_initial_data,
    solve_radial_basis,
)

T = 44.0
DELTA0 = 0.01

basis = solve_radial_basis(0.5, N=2048, g=2.0, k_max=12)
state = project_initial_data(
    lambda th, r: th * (1.0 - th) * r * (1.0 - r),
    lambda th, r: np.sin(2 * np.pi * th) * r * (1.0 - r) ** 2,
    basis,
    n_max=12,
    k_max=12,
)

print(f"initial energy E(0) = {energy(state):.10f}")
series = energy_series(state, np.linspace(0.0, T, 1001))
drift = np.max(np.abs(series.total - energy(state))) / energy(state)
print(f"max relative energy drift over 1000 samples: {drift:.2e}")

snap = evolve(state, T / 3.0)
print(f"state at t = T/3: kinetic fraction "
      f"{0.25 * np.sum(snap.b**2) / energy(snap):.3f}")

norms = observation_norms(state, T, DELTA0)
print("\nsquared top-side trace norms over (0, T):")
print(f"  full side   : {norms.full_trace_norm_sq:.8f}")
print(f"  restricted  : {norms.restricted_trace_norm_sq:.8f}")
print(f"\ninterior observation norm over the lateral strips: {norms.interior_norm_sq:.8f}")
print(f"E(0) / (restricted trace + interior) = "
      f"{energy(state) / (norms.restricted_trace_norm_sq + norms.interior_norm_sq):.6f}")
