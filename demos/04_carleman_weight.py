"""Demo 4: the anisotropic weight machinery and its conjugation identity.

Derives admissible weight parameters (curvature window, horizon threshold,
certified band half-width), evaluates the weight sigma = exp(lambda xi)
with xi = theta^2 + r^(2-alpha) - beta (t - t0)^2 at one point, then
measures the conjugation identity exp(s sigma) h = P+ eta + P- eta as
a finite-difference residual whose norm falls at second order under grid
halving, and reports the named component integrals of the coercive
estimate with an empirical quotient scan in s.
"""

import numpy as np

from degenwave import (
    DomainSpec,
    SmoothModalSolution,
    bessel_mode,
    carleman_component_integrals,
    carleman_constant_scan,
    build_weight_field,
    conjugation_residual,
    validate_carleman_params,
)

params = validate_carleman_params(
    alpha=0.5, domain=DomainSpec(0.03), beta=0.0149, T=40.0, lam=0.5, s=2.0
)
print("derived weight parameters:")
print(f"  gamma = {params.gamma:.4f}  gamma_hat = {params.gamma_hat:.4f}  "
      f"epsilon = {params.epsilon:.4f} (cap T/16 = {params.T / 16:.4f})")
print(f"  A0 = {params.A0:.4f}  A1 = {params.A1:.4f}")

sigma = build_weight_field(params, [0.3], [0.4], [12.0])[0, 0, 0]
print("\nweight at (theta, r, t) = (0.3, 0.4, 12):")
print(f"  xi = {np.log(sigma) / params.lam:+.5f}   sigma = {sigma:.5f}")

solution = SmoothModalSolution(0.5, (bessel_mode(0.5, n=1, k=1, a=1.0, b=0.3),))

print("\nconjugation identity residual under grid halving:")
prev = None
for shape in ((432, 12, 48), (864, 24, 96), (1728, 48, 192)):
    rep = conjugation_residual(solution, params, shape=shape, r_min=0.1)
    order = "" if prev is None else f"   order {np.log2(prev / rep.residual_norm):.3f}"
    print(f"  shape {shape}: residual {rep.residual_norm:10.4f}   "
          f"relative {rep.relative:.2e}{order}")
    prev = rep.residual_norm

print("\ncomponent integrals of the estimate (single mode):")
ci = carleman_component_integrals(solution, params, n_theta=128, n_r=96, n_t=256)
for name in ("lhs_gradient", "lhs_zero_order", "rhs_trace", "rhs_interior",
             "rhs_commutator"):
    print(f"  {name:15s} = {getattr(ci, name):.6e}")
print(f"  empirical quotient C-hat = {ci.chat:.4f}")

print("\nquotient across an s-scan (boundedness, no certified constant):")
for rec in carleman_constant_scan(solution, params, [2.0, 4.0, 8.0],
                                  n_theta=96, n_r=64, n_t=160):
    print(f"  s = {rec.s:4.1f}: C-hat = {rec.chat:.4f}")
