"""Demo 1: the degenerate radial eigenproblem -d/dr(r^alpha dR/dr) = rho R.

Solves the weighted Sturm-Liouville problem on (0, 1) with Dirichlet ends
for a few exponents, checks the computed eigenvalues and boundary fluxes
against the closed-form Bessel expressions and against the classical
Laplacian limit alpha -> 0, and prints the eigenpair table at alpha = 0.5.
"""

import math

from degenwave import (
    assemble_weighted_system,
    bessel_radial_mode,
    build_graded_mesh,
    solve_eigenpairs,
    solve_radial_basis,
)

print("== classical limit: alpha -> 0 reproduces the Dirichlet Laplacian ==")
mesh = build_graded_mesh(2048, 1.0)
mats = assemble_weighted_system(mesh, p=1e-12, q=0.0, bc="dirichlet-dirichlet")
for k, rho in enumerate(solve_eigenpairs(mats, 5).rho, start=1):
    exact = (k * math.pi) ** 2
    print(f"  k={k}: rho = {rho:12.6f}   (k pi)^2 = {exact:12.6f}   "
          f"rel = {abs(rho - exact) / exact:.2e}")

print("\n== weighted problem at alpha = 0.5 against Bessel closed forms ==")
basis = solve_radial_basis(0.5, N=4096, g=2.0, k_max=4)
for k in range(1, 5):
    rho_exact, _, _, flux_exact = bessel_radial_mode(0.5, k)
    print(f"  k={k}: rho = {basis.rho[k-1]:11.6f} vs {rho_exact:11.6f}   "
          f"R'(1) = {basis.flux[k-1]:9.5f} vs {flux_exact:9.5f}")

print("\n== ground eigenvalue across the degeneracy range ==")
for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
    b = solve_radial_basis(alpha, N=2048, g=2.0, k_max=1)
    print(f"  alpha = {alpha:.1f}: rho_1 = {b.rho[0]:9.5f}   R_1'(1) = {b.flux[0]:9.5f}")

print("\n== eigenpair table at alpha = 0.5 (N = 4096, grading 2) ==")
print("  k          rho     flux_at_1")
for k, (rho, flux) in enumerate(zip(basis.rho, basis.flux), start=1):
    print(f"  {k}  {rho:11.6f}  {flux:12.8f}")
