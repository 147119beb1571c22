import ctypes
import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from degenwave import _threads, radial
from degenwave.carleman import bessel_mode
from degenwave.errors import (
    ConvergenceFailure,
    DivergentWeight,
    InvalidMeshSpec,
    ParameterOutOfRange,
    TruncationTooSmall,
)
from degenwave.radial import (
    RadialMesh,
    _bessel_root,
    _bessel_triple,
    assemble_weighted_system,
    bessel_radial_mode,
    build_graded_mesh,
    build_log_mesh,
    build_uniform_mesh,
    elliptic_identity_residual,
    refine_smallest_eigenpair,
    solve_eigenpairs,
    solve_radial_basis,
)
from degenwave.waves import random_state

from ledger import BASIS_CASES
from oracles import (
    banded_refine_smallest_eigenpair,
    capsule_eigenpairs,
    capsule_refine_smallest_eigenpair,
    mgs_eigenpairs,
    one_sided_flux,
    quad_power_integral,
    stebz_stein_eigenpairs,
)


class TestMeshes:
    def test_uniform_nodes(self):
        mesh = build_graded_mesh(4, 1.0)
        assert np.allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_graded_nodes(self):
        mesh = build_graded_mesh(4, 2.0)
        assert np.allclose(mesh.nodes, [0.0, 0.0625, 0.25, 0.5625, 1.0])

    def test_too_few_cells(self):
        with pytest.raises(InvalidMeshSpec):
            build_graded_mesh(1, 1.0)

    def test_grading_below_one(self):
        with pytest.raises(InvalidMeshSpec):
            build_graded_mesh(8, 0.5)

    def test_log_mesh_geometric(self):
        mesh = build_log_mesh(8, 0.01)
        ratios = mesh.nodes[1:] / mesh.nodes[:-1]
        assert np.allclose(ratios, ratios[0])
        assert mesh.nodes[0] == pytest.approx(0.01)
        assert mesh.nodes[-1] == pytest.approx(1.0)

    def test_nonmonotone_rejected(self):
        with pytest.raises(InvalidMeshSpec):
            RadialMesh(np.array([0.0, 0.5, 0.4, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_nodes_rejected(self, bad):
        with pytest.raises(InvalidMeshSpec, match="finite"):
            RadialMesh(np.array([0.0, 0.5, bad]))
        with pytest.raises(InvalidMeshSpec, match="finite"):
            RadialMesh(np.array([0.0, bad, 1.0]))

    @pytest.mark.parametrize("g", [math.nan, math.inf])
    def test_non_finite_grading_rejected(self, g):
        # nan once gave all-nan nodes
        with pytest.raises(InvalidMeshSpec, match="grading"):
            build_graded_mesh(8, g)

    def test_infinite_uniform_interval_rejected(self):
        # once gave the nodes [nan, inf, inf, inf, inf]
        with pytest.raises(InvalidMeshSpec, match="finite"):
            build_uniform_mesh(4, 0.0, math.inf)


class TestAssembly:
    def test_textbook_unweighted_matrices(self):
        mesh = build_graded_mesh(4, 1.0)
        mats = assemble_weighted_system(mesh, p=0.0, q=0.0, bc="dirichlet-dirichlet")
        h = 0.25
        assert np.allclose(mats.kd_dof, 2.0 / h)
        assert np.allclose(mats.ke_dof, -1.0 / h)
        assert np.allclose(mats.md_dof, 4.0 * h / 6.0)
        assert np.allclose(mats.me_dof, h / 6.0)

    def test_weighted_stiffness_closed_form(self):
        alpha = 0.5
        mesh = build_graded_mesh(8, 2.0)
        mats = assemble_weighted_system(mesh, p=alpha, q=0.0, bc="dirichlet-dirichlet")
        a, b = mesh.nodes[3], mesh.nodes[4]
        expected = (b ** (alpha + 1) - a ** (alpha + 1)) / ((alpha + 1) * (b - a) ** 2)
        # the (3,4) off-diagonal entry is minus the single-cell integral
        assert mats.ke[3] == pytest.approx(-expected, rel=1e-14)

    def test_mass_against_quadrature(self):
        alpha = 0.5
        mesh = build_graded_mesh(64, 2.0)
        mats = assemble_weighted_system(
            mesh, p=alpha, q=alpha - 2.0, bc="dirichlet-left-only"
        )
        # quadratic form of the hat interpolant of u(r) = r on the dofs
        x = mesh.nodes[mats.i0 : mats.i1]
        val = mats.mass_product(x, x)
        ref = quad_power_integral(lambda r: r, 0.0, 1.0, alpha - 2.0)
        assert val == pytest.approx(ref, rel=1e-3)

    def test_singular_mass_needs_left_dirichlet(self):
        mesh = build_graded_mesh(16, 1.0)
        with pytest.raises(DivergentWeight):
            assemble_weighted_system(mesh, p=0.5, q=-0.5, bc="dirichlet-right-only")

    def test_mass_exponent_lower_limit(self):
        mesh = build_graded_mesh(16, 1.0)
        with pytest.raises(DivergentWeight):
            assemble_weighted_system(mesh, p=0.5, q=-2.0, bc="dirichlet-left-only")
        assemble_weighted_system(mesh, p=0.5, q=-1.9, bc="dirichlet-left-only")

    def test_divergent_stiffness(self):
        mesh = build_graded_mesh(16, 1.0)
        with pytest.raises(DivergentWeight):
            assemble_weighted_system(mesh, p=-1.0, q=0.0, bc="dirichlet-dirichlet")

    def test_underflowing_cells_raise_without_warnings(self):
        # from delta = 1e-300 the first cells are so short that h^2 underflows
        mesh = build_log_mesh(64, 1e-300)
        assert np.diff(mesh.nodes)[0] ** 2 == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergentWeight, match="not all finite"):
                assemble_weighted_system(mesh, p=1.0, q=-1.0, bc="dirichlet-dirichlet")

    def test_truncated_mesh_admits_any_weight(self):
        mesh = build_log_mesh(16, 0.1)
        mats = assemble_weighted_system(mesh, p=1.0, q=-1.0, bc="dirichlet-right-only")
        assert np.all(np.isfinite(mats.lumped))


class TestEigenpairs:
    def test_laplacian_limit(self):
        # alpha -> 0: classical Dirichlet Laplacian eigenvalues
        mesh = build_graded_mesh(512, 1.0)
        mats = assemble_weighted_system(mesh, p=1e-13, q=0.0, bc="dirichlet-dirichlet")
        basis = solve_eigenpairs(mats, 3)
        for k, rho in enumerate(basis.rho, 1):
            assert rho == pytest.approx((k * math.pi) ** 2, rel=1e-4)

    def test_orthonormality_and_rayleigh(self, basis05):
        mats = basis05.mats
        lump = mats.lumped
        dof = basis05.R[:, mats.i0 : mats.i1]
        gram = (dof * lump) @ dof.T
        assert np.max(np.abs(gram - np.eye(basis05.k_max))) < 1e-10
        # normalization itself is explicit division, exact to a few ulp
        assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-12
        for k in range(basis05.k_max):
            x = dof[k]
            rayleigh = mats.stiffness_product(x, x) / float((x * lump) @ x)
            assert abs(rayleigh - basis05.rho[k]) <= 1e-10 * basis05.rho[k]

    def test_eigenvalues_increasing_and_positive(self, basis05):
        assert basis05.rho[0] > 0.0
        assert np.all(np.diff(basis05.rho) > 0.0)

    def test_ground_flux_negative(self, basis05):
        assert basis05.flux[0] < 0.0

    def test_flux_against_bessel_and_one_sided(self, basis05):
        for k in (1, 2):
            _, _, _, flux_exact = bessel_radial_mode(0.5, k)
            fem = basis05.flux[k - 1]
            assert fem == pytest.approx(flux_exact, rel=2e-4)
            fallback = one_sided_flux(basis05.mesh, basis05.R[k - 1])
            assert fallback == pytest.approx(flux_exact, rel=1e-3)

    def test_eigenvalues_against_bessel(self, basis05):
        for k in (1, 2, 3):
            assert basis05.rho[k - 1] == pytest.approx(
                bessel_radial_mode(0.5, k)[0], rel=3e-4
            )

    @pytest.mark.parametrize("alpha,k", [(0.3, 1), (0.5, 1), (0.5, 2), (0.8, 1)])
    def test_bessel_mode_derivative_and_flux(self, alpha, k):
        rho, R, dR, flux = bessel_radial_mode(alpha, k)
        r = np.linspace(0.1, 0.95, 200)
        h = 1e-6
        fd = (R(r + h) - R(r - h)) / (2 * h)
        assert np.allclose(dR(r), fd, rtol=1e-7, atol=1e-7 * np.max(np.abs(fd)))
        assert dR(np.array([1.0]))[0] == pytest.approx(flux, rel=1e-12)
        assert abs(R(np.array([1.0]))[0]) < 1e-12  # Dirichlet end
        # the profile solves the radial equation pointwise
        mid = np.linspace(0.2, 0.9, 50)
        lhs = -((mid + h) ** alpha * dR(mid + h) - (mid - h) ** alpha * dR(mid - h)) / (2 * h)
        assert np.allclose(lhs, rho * R(mid), rtol=1e-6)

    def test_k_max_bounds(self, basis05):
        with pytest.raises(ValueError):
            solve_eigenpairs(basis05.mats, basis05.mats.n_dof + 1)
        with pytest.raises(ParameterOutOfRange):
            solve_eigenpairs(basis05.mats, 0)

    @pytest.mark.parametrize("k_max", [8.5, math.nan, "8"])
    def test_k_max_not_an_integer(self, k_max):
        # 8.5 once died in np.empty with a bare TypeError
        with pytest.raises(ParameterOutOfRange, match="integer"):
            solve_radial_basis(0.5, N=256, g=2.0, k_max=k_max)

    def test_integral_float_k_max_is_that_integer(self):
        as_float = solve_radial_basis(0.5, N=256, g=2.0, k_max=8.0)
        as_int = solve_radial_basis(0.5, N=256, g=2.0, k_max=8)
        assert as_float.rho.tobytes() == as_int.rho.tobytes()
        assert as_float.R.tobytes() == as_int.R.tobytes()

    def test_underflowing_boundary_weight_is_divergent(self):
        # r^4 underflows to 0 on (0, 1e-100): the recovered flux would be 0/0
        mats = assemble_weighted_system(
            build_uniform_mesh(8, 0.0, 1e-100), p=4.0, q=0.0, bc="dirichlet-dirichlet"
        )
        with pytest.raises(DivergentWeight, match="boundary flux"):
            solve_eigenpairs(mats, 3)

    def test_one_sided_flux_reference(self):
        errs = []
        for n in (256, 512):
            mesh = build_uniform_mesh(n, 0.0, 1.0)
            vals = np.sin(math.pi * mesh.nodes)
            errs.append(abs(one_sided_flux(mesh, vals) + math.pi))
        assert errs[1] < 2e-4
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)  # second order

    def test_consistent_refinement_matches_bessel(self):
        mesh = build_graded_mesh(2048, 3.0)
        mats = assemble_weighted_system(mesh, p=0.5, q=0.0, bc="dirichlet-dirichlet")
        rho, _ = refine_smallest_eigenpair(mats)
        assert rho == pytest.approx(bessel_radial_mode(0.5, 1)[0], rel=3e-5)

    def test_spec_example_precision_at_grading_two(self):
        # the g = 2 mesh is corner-limited to O(1/N): about 4 digits at
        # N = 8192 (see the decisions ledger); grading 3 restores 5 digits
        basis = solve_radial_basis(0.5, N=8192, g=2.0, k_max=1)
        assert basis.rho[0] == pytest.approx(bessel_radial_mode(0.5, 1)[0], rel=1e-4)

    def test_cauchy_convergence_order(self):
        # |rho(2N) - rho(N)| shrinks at empirical order >= 1.8 once the
        # grading resolves the corner branch (g = 4 at alpha = 0.5); the
        # consistent-pencil path is the stable solver in that regime
        rhos = []
        for N in (256, 512, 1024, 2048):
            mesh = build_graded_mesh(N, 4.0)
            mats = assemble_weighted_system(mesh, p=0.5, q=0.0, bc="dirichlet-dirichlet")
            rhos.append(refine_smallest_eigenpair(mats)[0])
        diffs = [abs(rhos[i + 1] - rhos[i]) for i in range(len(rhos) - 1)]
        orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert min(orders) >= 1.8

    def test_ground_eigenvalue_continuous_in_alpha(self):
        rhos = [
            solve_radial_basis(a, N=512, g=2.0, k_max=1).rho[0]
            for a in np.linspace(0.1, 0.9, 9)
        ]
        diffs = np.diff(rhos)
        assert np.all(diffs < 0.0)  # decreasing toward the strongly degenerate end
        assert np.max(np.abs(diffs)) < 2.5  # no jumps at fixed mesh


@pytest.fixture(scope="module")
def wide_basis():
    """The widest basis of the benchmark: alpha 0.5, N 8192, g 2, k 256."""
    return solve_radial_basis(0.5, N=8192, g=2.0, k_max=256)


def _max_eigen_residual(mats, rho, R):
    """max_j ||K x_j - rho_j D x_j|| / (rho_j ||D x_j||) in the lumped pencil."""
    x = R[:, mats.i0 : mats.i1]
    dx = mats.lumped * x
    res = radial._tridiag_matvec(mats.kd_dof, mats.ke_dof, x) - rho[:, None] * dx
    return float(np.max(np.linalg.norm(res, axis=1) / (rho * np.linalg.norm(dx, axis=1))))


class TestLumpedSolver:
    """Per-eigenvalue inverse iteration with one Cholesky QR, against MGS."""

    @pytest.mark.parametrize("name", ["basis05_k64", "wide_basis"])
    def test_matches_gram_schmidt_oracle(self, name, request):
        basis = request.getfixturevalue(name)
        rho, R = mgs_eigenpairs(basis.mats, basis.k_max)[:2]
        assert np.max(np.abs(basis.rho - rho) / rho) <= 1e-10
        assert np.max(np.abs(basis.R - R)) <= 1e-10 * np.max(np.abs(R))

    def test_matches_oracle_at_grading_three(self):
        basis = solve_radial_basis(0.5, N=2048, g=3.0, k_max=64)
        rho, R = mgs_eigenpairs(basis.mats, 64)[:2]
        assert np.max(np.abs(basis.rho - rho) / rho) <= 1e-10
        assert _max_eigen_residual(basis.mats, basis.rho, basis.R) <= 1.01 * _max_eigen_residual(
            basis.mats, rho, R
        )

    def test_lumped_orthonormality_at_k256(self, wide_basis):
        mats = wide_basis.mats
        dof = wide_basis.R[:, mats.i0 : mats.i1]
        gram = (dof * mats.lumped) @ dof.T
        assert np.max(np.abs(gram - np.eye(256))) <= 1e-13

    def test_single_dof(self):
        mats = assemble_weighted_system(build_uniform_mesh(2), 0.5, 0.0, "dirichlet-dirichlet")
        basis = solve_eigenpairs(mats, 1)
        assert basis.alpha == 0.5 and basis.R.shape == (1, 3)
        assert basis.rho[0] == pytest.approx(mats.kd_dof[0] / mats.lumped[0], rel=1e-15)
        assert basis.R[0, 1] > 0.0 and basis.R[0, 0] == basis.R[0, 2] == 0.0

    def test_memory_bound(self, monkeypatch):
        # the one-call stein path with Gram-Schmidt peaked at 51.1 MB here;
        # each of the eight threads holds its own LAPACK work arrays
        monkeypatch.setattr(_threads, "cpu_workers", lambda: 8)
        solve_radial_basis(0.5, N=512, g=2.0, k_max=8)
        tracemalloc.start()
        try:
            solve_radial_basis(0.5, N=8192, g=2.0, k_max=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 49e6

    def test_wide_solve_holds_one_basis_array(self):
        # dstein once filled a (k, n) array of its own that was then copied
        # into R: the peak was 2.07 times the basis
        solve_radial_basis(0.5, N=512, g=2.0, k_max=8)
        tracemalloc.start()
        try:
            basis = solve_radial_basis(0.5, N=8192, g=2.0, k_max=256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * basis.R.nbytes

    @pytest.mark.parametrize(
        "bc,constrained",
        [("dirichlet-dirichlet", [0, -1]), ("dirichlet-left-only", [0]),
         ("dirichlet-right-only", [-1])],
    )
    def test_constrained_columns_are_zero(self, bc, constrained):
        mats = assemble_weighted_system(build_graded_mesh(512, 2.0), 0.5, 0.0, bc)
        basis = solve_eigenpairs(mats, 70)
        assert basis.R.shape == (70, 513)
        assert np.all(basis.R[:, constrained] == 0.0)
        assert np.all(basis.R[:, mats.i0 : mats.i1][:, [0, -1]] != 0.0)

    def test_stein_failure_is_convergence_failure(self, monkeypatch, basis05):
        fail_lapack(monkeypatch, "dstein")
        with pytest.raises(ConvergenceFailure, match="dstein"):
            solve_eigenpairs(basis05.mats, 4)

    def test_stein_failure_in_a_helper_thread(self, monkeypatch, basis05):
        monkeypatch.setattr(_threads, "cpu_workers", lambda: 2)
        fail_lapack(monkeypatch, "dstein", helpers_only=True)
        threads = threading.active_count()
        with pytest.raises(ConvergenceFailure, match="dstein"):
            solve_eigenpairs(basis05.mats, 4)
        assert threading.active_count() == threads

    def test_stebz_failure_is_convergence_failure(self, monkeypatch, basis05):
        fail_lapack(monkeypatch, "dstebz")
        with pytest.raises(ConvergenceFailure, match="dstebz"):
            solve_eigenpairs(basis05.mats, 4)

    def test_potrf_failure_is_convergence_failure(self, monkeypatch, basis05):
        fail_lapack(monkeypatch, "dpotrf")
        with pytest.raises(ConvergenceFailure, match="dpotrf"):
            solve_eigenpairs(basis05.mats, 4)

    def test_no_f2py_bisection_or_inverse_iteration(self, monkeypatch, basis05):
        """The f2py wrappers hold the GIL; the solver binds numpy's OpenBLAS instead."""

        def f2py(*args, **kwargs):
            raise AssertionError("the solver called an f2py LAPACK wrapper")

        for name in ("dstebz", "dstein"):
            monkeypatch.setattr(scipy.linalg.lapack, name, f2py)
        basis = solve_eigenpairs(basis05.mats, 100)
        assert np.all(np.diff(basis.rho) > 0.0)

    @pytest.mark.parametrize(
        "alpha,N,g,k_max", [(0.5, 2048, 2.0, 16), (0.5, 2048, 2.0, 64), (0.3, 8192, 2.0, 64),
                            (0.7, 512, 3.0, 1), (0.99, 1024, 2.0, 33)],
    )
    def test_single_chunk_matches_one_call_solver(self, alpha, N, g, k_max):
        """Up to 64 pairs the bisection is one chunk: the same calls as before the
        split, so the same bits."""
        basis = solve_radial_basis(alpha, N=N, g=g, k_max=k_max)
        rho, R, flux = stebz_stein_eigenpairs(basis.mats, k_max)
        assert basis.rho.tobytes() == rho.tobytes()
        assert basis.R.tobytes() == R.tobytes()
        assert basis.flux.tobytes() == flux.tobytes()

    @pytest.mark.parametrize("alpha,N,k_max", BASIS_CASES)
    def test_matches_capsule_binding_bitwise(self, alpha, N, k_max):
        """numpy's ILP64 OpenBLAS gives the bits of scipy's capsules, which
        the solver bound before."""
        basis = solve_radial_basis(alpha, N=N, g=2.0, k_max=k_max)
        rho, R, flux = capsule_eigenpairs(basis.mats, k_max)
        assert basis.rho.tobytes() == rho.tobytes()
        assert basis.R.tobytes() == R.tobytes()
        assert basis.flux.tobytes() == flux.tobytes()

    def test_worker_invariance(self, monkeypatch):
        """Chunks of 64, 64 and 22 values; every call writes its own slots."""
        mats = solve_radial_basis(0.5, N=2048, g=2.0, k_max=1).mats
        results = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(_threads, "cpu_workers", lambda w=workers: w)
                basis = solve_eigenpairs(mats, 150)
                results.add((basis.rho.tobytes(), basis.R.tobytes(), basis.flux.tobytes()))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 1


def _log_mesh_pencil(delta, N, bc):
    """The direct critical pencil of `critical_truncated_constant`."""
    return assemble_weighted_system(build_log_mesh(N, delta), p=1.0, q=-1.0, bc=bc)


class TestConsistentRefinement:
    """The once-factored stiffness against solveh_banded at every step."""

    @pytest.mark.parametrize(
        "make_mats",
        [
            # criterion 2: delta e^-pi and 0.01, both boundary conditions, N 4096
            *[
                lambda d=d, bc=bc: _log_mesh_pencil(d, 4096, bc)
                for d in (math.exp(-math.pi), 0.01)
                for bc in ("dirichlet-right-only", "dirichlet-dirichlet")
            ],
            # criterion 3: the mixed blow-up scan at N 8192
            *[lambda d=d: _log_mesh_pencil(d, 8192, "dirichlet-right-only")
              for d in (1e-1, 1e-2, 1e-3, 1e-4)],
            # the subcritical Hardy pencil on a graded mesh
            lambda: assemble_weighted_system(
                build_graded_mesh(2048, 3.0), p=0.3, q=-1.7, bc="dirichlet-left-only"
            ),
            # the benchmark's refinement pencil
            lambda: assemble_weighted_system(
                build_graded_mesh(8192, 3.0), p=0.5, q=0.0, bc="dirichlet-dirichlet"
            ),
        ],
        ids=[
            *[f"crit2-{d}-{bc}" for d in ("e-pi", "0.01") for bc in ("mixed", "dirichlet")],
            *[f"crit3-1e-{k}" for k in range(1, 5)],
            "subcritical-g3",
            "benchmark-N8192-g3",
        ],
    )
    def test_matches_banded_oracle_bitwise(self, make_mats):
        mats = make_mats()
        rho, x = refine_smallest_eigenpair(mats)
        rho_ref, x_ref = banded_refine_smallest_eigenpair(mats)
        assert float(rho).hex() == float(rho_ref).hex()
        assert x.tobytes() == x_ref.tobytes()

    def test_matches_capsule_binding_bitwise(self):
        mats = _log_mesh_pencil(1e-4, 4096, "dirichlet-right-only")
        rho, x = refine_smallest_eigenpair(mats)
        rho_ref, x_ref = capsule_refine_smallest_eigenpair(mats)
        assert float(rho).hex() == float(rho_ref).hex()
        assert x.tobytes() == x_ref.tobytes()

    def test_single_dof(self):
        """solveh_banded rejected the empty off-diagonal of a 1 x 1 pencil."""
        mats = assemble_weighted_system(build_uniform_mesh(2), 0.5, 0.0, "dirichlet-dirichlet")
        rho, x = refine_smallest_eigenpair(mats)
        assert rho == pytest.approx(mats.kd_dof[0] / mats.md_dof[0], rel=1e-15)
        assert x[0] == pytest.approx(1.0 / math.sqrt(mats.md_dof[0]), rel=1e-15)

    def test_pttrf_failure_is_convergence_failure(self, monkeypatch):
        fail_lapack(monkeypatch, "dpttrf")
        mats = assemble_weighted_system(build_graded_mesh(64, 2.0), 0.5, 0.0, "dirichlet-dirichlet")
        with pytest.raises(ConvergenceFailure, match="dpttrf"):
            refine_smallest_eigenpair(mats)

    def test_indefinite_stiffness_is_convergence_failure(self):
        mats = assemble_weighted_system(build_uniform_mesh(8), 0.0, 0.0, "dirichlet-dirichlet")
        flipped = dataclasses.replace(mats, kd=-mats.kd)
        with pytest.raises(ConvergenceFailure, match="dpttrf"):
            refine_smallest_eigenpair(flipped)


def fail_lapack(monkeypatch, name, helpers_only=False):
    """Make radial's LAPACK routine `name` report info = 1 after it runs,
    only in helper threads if asked."""
    bind = radial._lapack
    routine = bind(name)
    # info is the last pointer; the hidden character lengths follow it
    info = routine.argtypes.count(ctypes.c_void_p) - 1

    def call(*args):
        routine(*args)
        if not helpers_only or threading.current_thread() is not threading.main_thread():
            ctypes.c_int64.from_address(args[info]).value = 1

    # bound like the real routine, so the solver's arguments convert the same way
    failing = ctypes.CFUNCTYPE(None, *routine.argtypes)(call)
    monkeypatch.setattr(radial, "_lapack", lambda n: failing if n == name else bind(n))


class TestBesselRoots:
    """Closed-form eigenvalues against mpmath's independent Bessel zeros."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_roots_against_mpmath(self, alpha):
        nu = (1.0 - alpha) / (2.0 - alpha)
        for k in (1, 2, 3, 5, 8, 13, 21, 34, 64):
            ref = mpmath.besseljzero(mpmath.mpf(nu), k)
            root = _bessel_root(nu, k)
            assert abs(root - ref) <= 1e-14 * ref, (alpha, k)
            exact = (mpmath.mpf(2.0 - alpha) / 2 * ref) ** 2
            assert abs(bessel_radial_mode(alpha, k)[0] - exact) <= 1e-14 * exact, (alpha, k)

    @pytest.mark.parametrize("alpha", [1e-6, 0.1, 0.5, 0.9, 0.999999])
    def test_mode_root_to_the_ulp(self, monkeypatch, alpha):
        """The zero behind bessel_radial_mode, near both ends of its bracket
        ((k - 1/2) pi, k pi) as alpha nears 0 and 1."""
        roots = []
        bisect = radial._bessel_root

        def recorded(nu, k):
            roots.append((nu, k, bisect(nu, k)))
            return roots[-1][2]

        monkeypatch.setattr(radial, "_bessel_root", recorded)
        for k in (*range(1, 9), 32, 128):
            bessel_radial_mode(alpha, k)
        assert len(roots) == 10
        with mpmath.workdps(30):
            for nu, k, root in roots:
                ref = mpmath.besseljzero(mpmath.mpf(nu), k)
                assert abs(root - ref) <= 5e-16 * ref, (alpha, k)

    @pytest.mark.parametrize("k", [1.5, math.nan, "2"])
    def test_non_integral_index_rejected(self, k):
        # k 1.5 once gave rho 12.49, between rho_1 = 4.739 and rho_2 = 20.47
        with pytest.raises(ParameterOutOfRange, match="integer"):
            bessel_radial_mode(0.5, k)

    def test_integral_float_index_is_that_integer(self):
        # guard: the check refuses fractions only
        assert bessel_radial_mode(0.5, 2.0)[0] == bessel_radial_mode(0.5, 2)[0]

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2, -0.3])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ParameterOutOfRange, match="alpha"):
            bessel_radial_mode(alpha, 1)
        with pytest.raises(ParameterOutOfRange, match="alpha"):
            bessel_mode(alpha, 1, 1)


def bessel_envelope(j, x):
    """max(|J|, min(1, sqrt(2/(pi x)))): the size against which an absolute
    error of J near its zeros and its large-x oscillation is judged."""
    return max(abs(j), min(1.0, math.sqrt(2.0 / (math.pi * x))))


# arguments near 0, on both sides of the switches at x = 2 and x = 25, and
# up to the 128th zero
BESSEL_ARGS = [
    1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.7, 1.5, 1.999999, 2.0, 2.000001, 2.5, 4.0, 7.3,
    11.9, 16.0, 19.5, 23.0, 24.999999, 25.0, 25.000001, 27.5, 33.3, 47.0, 80.0, 150.0,
    260.0, 333.3, 398.0, 128 * math.pi,
]


class TestBesselFunctions:
    """J_{nu-1}, J_nu, J_{nu+1} of the closed-form modes against mpmath."""

    @pytest.mark.parametrize("alpha", [1e-6, 0.1, 0.5, 0.9, 0.999999])
    def test_orders_against_mpmath(self, alpha):
        nu = (1.0 - alpha) / (2.0 - alpha)
        x = np.array(BESSEL_ARGS)
        got = _bessel_triple(nu, x)
        assert got.shape == (3, x.size)
        scalar = np.array([_bessel_triple(nu, xi) for xi in BESSEL_ARGS]).T
        with mpmath.workdps(30):
            for d, order in enumerate(mpmath.mpf(nu) + shift for shift in (-1, 0, 1)):
                for i, xi in enumerate(BESSEL_ARGS):
                    ref = mpmath.besselj(order, mpmath.mpf(xi))
                    tol = 2e-14 * bessel_envelope(float(ref), xi)
                    for value in (got[d, i], scalar[d, i]):
                        assert abs(value - ref) <= tol, (alpha, d, xi, value)

    def test_edges_of_the_domain(self):
        nu = 1.0 / 3.0
        vals = _bessel_triple(nu, np.array([0.0, -1.0, math.nan]))
        assert vals[:, 0].tolist() == [math.inf, 0.0, 0.0]
        assert np.isnan(vals[:, 1:]).all()
        assert [float(v) for v in _bessel_triple(nu, 0.0)] == [math.inf, 0.0, 0.0]
        assert all(math.isnan(v) for v in _bessel_triple(nu, -1.0))

    @pytest.mark.parametrize(
        "alpha, k", [(1e-6, 1), (0.1, 128), (0.5, 3), (0.9, 40), (0.999999, 8)]
    )
    def test_mode_profile_against_mpmath(self, alpha, k):
        """R and R' at a few radii against the closed form in mpmath, with
        mpmath's own zero; the rounding of j r^((2-alpha)/2) moves J by
        ulps of that argument, hence the tolerance grows with it."""
        _, R, dR, _ = bessel_radial_mode(alpha, k)
        r = np.array([1e-12, 1e-3, 0.1, 0.37, 0.5, 0.9, 0.999])
        got_r, got_dr = R(r), dR(r)
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha)
            nu = (1 - a) / (2 - a)
            j = mpmath.besseljzero(nu, k)
            c = mpmath.sqrt(2 - a) / abs(mpmath.besselj(nu + 1, j))
            p = (2 - a) / 2
            for i, ri in enumerate(r):
                rm = mpmath.mpf(ri)
                z = j * rm**p
                j_nu, j_down = mpmath.besselj(nu, z), mpmath.besselj(nu - 1, z)
                tol = 1e-14 * (1.0 + float(z))
                scale = float(c * rm ** ((1 - a) / 2))
                assert abs(got_r[i] - c * rm ** ((1 - a) / 2) * j_nu) <= (
                    tol * scale * bessel_envelope(float(j_nu), float(z))
                ), (alpha, k, ri)
                scale = float(c * j * p * rm ** (mpmath.mpf(0.5) - a))
                assert abs(got_dr[i] - c * j * p * rm ** (mpmath.mpf(0.5) - a) * j_down) <= (
                    tol * scale * bessel_envelope(float(j_down), float(z))
                ), (alpha, k, ri)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_derivative_at_the_axis(self, alpha):
        """R ~ r^(1-alpha) is positive near r = 0, so R' -> +inf there."""
        _, R, dR, _ = bessel_radial_mode(alpha, 2)
        r = np.array([0.0, 1e-12])
        assert R(r)[0] == 0.0 and R(r)[1] > 0.0
        d = dR(r)
        assert d[0] == math.inf
        assert 0.0 < d[1] < math.inf
        # the leading term (1 - alpha) R(r)/r of R' near the axis
        assert d[1] == pytest.approx((1.0 - alpha) * R(r)[1] / 1e-12, rel=1e-6)


class TestConsistentGram:
    def test_block_product_matches_per_vector_loop(self, basis05_k64):
        mats = basis05_k64.mats
        dof = basis05_k64.R[:, mats.i0 : mats.i1]
        loop = dof @ np.array([mats.mass_action(x) for x in dof]).T
        gram = basis05_k64.gram
        assert gram.shape == (64, 64)
        assert np.max(np.abs(gram - loop)) <= 1e-14 * np.max(np.abs(loop))

    def test_leading_block(self, basis05_k64):
        """A truncation's block of the Gram against the product of its own k rows."""
        mats = basis05_k64.mats
        for k in (1, 5, 16, 48, 64):
            dof = basis05_k64.R[:k, mats.i0 : mats.i1]
            product = dof @ mats.mass_action(dof).T
            lead = basis05_k64.gram[:k, :k]
            assert np.max(np.abs(lead - product)) <= 1e-15 * np.max(np.abs(product)), k

    def test_formed_once_and_read_only(self, basis05):
        gram = basis05.gram
        assert basis05.gram is gram
        with pytest.raises(ValueError, match="read-only"):
            gram[0, 0] = 1.0

    def test_truncation_outside_the_basis_rejected(self, basis05):
        # a state reads the Gram's leading block, so no state may reach past it
        with pytest.raises(TruncationTooSmall, match="k_max = 17 exceeds the 16 computed"):
            random_state(basis05, 2, 17, seed=1)
        # nor may a state built by hand, which is refused when it is made
        wide = np.zeros((2, 17))
        with pytest.raises(TruncationTooSmall, match="k_max = 17 exceeds the 16 computed"):
            dataclasses.replace(random_state(basis05, 2, 16, seed=1), a=wide, b=wide)


class TestEllipticIdentity:
    def test_eigenfunction_with_zero_tangential(self, basis05):
        rep = elliptic_identity_residual(basis05, 0.0, [1.0])
        assert rep.relative_residual <= 1e-14
        # both sides reduce to the squared stiffness action norm ~ rho_1^2
        assert rep.lhs == pytest.approx(basis05.rho[0] ** 2, rel=1e-5)

    def test_eigenfunction_with_pi_squared(self, basis05):
        rep = elliptic_identity_residual(basis05, math.pi**2, [1.0])
        assert rep.relative_residual <= 1e-6

    def test_mixture(self, basis05):
        # lumping-consistency residual is O(h^2): ~1e-6 at N = 2048, and the
        # acceptance suite pins 1e-6 at N = 8192
        rep = elliptic_identity_residual(basis05, math.pi**2, [1.0, -0.7, 0.3])
        assert rep.relative_residual <= 1e-5

    def test_too_many_coefficients(self, basis05):
        with pytest.raises(ValueError):
            elliptic_identity_residual(basis05, 0.0, np.ones(basis05.k_max + 1))
