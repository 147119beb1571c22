import math

import numpy as np
import pytest

from degenwave.errors import DeltaOutOfRange, InsufficientData, ParameterOutOfRange
from degenwave.hardy import (
    _fit_blowup,
    best_subcritical_constant,
    blowup_rate_fit,
    critical_truncated_constant,
    exact_critical_constant,
    subcritical_bound,
)
from degenwave.radial import assemble_weighted_system, build_graded_mesh


def hardy_sides(u, alpha, mesh=None):
    """Both sides int r^(alpha-2) u^2 and int r^alpha (u')^2 of the subcritical
    inequality for the interpolant of u, which vanishes at r = 0, through the
    weighted forms of the subcritical pencil (exact for piecewise-linear u)."""
    mesh = mesh or build_graded_mesh(2048, 2.0)
    mats = assemble_weighted_system(mesh, p=alpha, q=alpha - 2.0, bc="dirichlet-left-only")
    vals = u(mesh.nodes) if callable(u) else u
    x = vals[mats.i0 : mats.i1]
    return mats.mass_product(x, x), mats.stiffness_product(x, x)


class TestSubcriticalCheck:
    def test_zero_function(self):
        assert hardy_sides(lambda r: 0.0 * r, 0.5) == (0.0, 0.0)

    def test_polynomial_closed_form(self):
        # u = r(1-r), alpha = 1/2: int r^(-3/2) u^2 = 16/105 and
        # int r^(1/2) (u')^2 = 22/105 by beta-function integrals
        lhs, rhs = hardy_sides(lambda r: r * (1.0 - r), 0.5)
        assert lhs == pytest.approx(16.0 / 105.0, rel=1e-5)
        assert rhs == pytest.approx(22.0 / 105.0, rel=1e-5)
        assert subcritical_bound(0.5) == pytest.approx(16.0)
        assert lhs <= subcritical_bound(0.5) * rhs

    def test_near_singular_margin_shrinks(self):
        smooth_lhs, smooth_rhs = hardy_sides(lambda r: r * (1.0 - r), 0.5)
        spiky_lhs, spiky_rhs = hardy_sides(lambda r: r**0.9, 0.5)
        assert spiky_lhs <= subcritical_bound(0.5) * spiky_rhs
        assert spiky_rhs / spiky_lhs < smooth_rhs / smooth_lhs

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_no_violations_on_random_vectors(self, alpha):
        mesh = build_graded_mesh(512, 2.0)
        bound = subcritical_bound(alpha)
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.standard_normal(mesh.nodes.size)
            u[0] = 0.0
            lhs, rhs = hardy_sides(u, alpha, mesh)
            assert lhs <= bound * rhs


class TestBestSubcriticalConstant:
    def test_below_bound_and_monotone(self):
        values = [
            best_subcritical_constant(
                0.5, mesh=build_graded_mesh(N, 3.0)
            ).numerical_best_constant
            for N in (512, 2048)
        ]
        assert values[0] < values[1] < subcritical_bound(0.5)

    def test_alpha_one_tenth(self):
        rep = best_subcritical_constant(0.1, mesh=build_graded_mesh(1024, 3.0))
        assert rep.numerical_best_constant < 4.0 / 0.81


class TestExactCriticalConstant:
    def test_reference_points(self):
        assert exact_critical_constant(math.exp(-math.pi), "mixed") == pytest.approx(4.0)
        assert exact_critical_constant(math.exp(-math.pi), "dirichlet") == pytest.approx(1.0)

    def test_vanishes_as_delta_to_one(self):
        assert exact_critical_constant(1.0 - 1e-9, "mixed") < 1e-15

    def test_delta_out_of_range(self):
        for bad in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(DeltaOutOfRange):
                exact_critical_constant(bad, "mixed")

    def test_unknown_bc(self):
        with pytest.raises(ParameterOutOfRange):
            exact_critical_constant(0.1, "noflux")


class TestCriticalTruncatedConstant:
    @pytest.mark.parametrize("kwargs", [{"bc": "noflux"}, {"method": "shooting"}])
    def test_unknown_bc_or_method(self, kwargs):
        with pytest.raises(ParameterOutOfRange):
            critical_truncated_constant(0.1, N=64, **kwargs)

    @pytest.mark.parametrize("bc,expect", [("mixed", 4.0), ("dirichlet", 1.0)])
    def test_log_pi_reference(self, bc, expect):
        rep = critical_truncated_constant(math.exp(-math.pi), bc=bc, N=1024)
        assert rep.numerical_best_constant == pytest.approx(expect, rel=5e-3)

    def test_delta_one_percent(self):
        rep = critical_truncated_constant(0.01, bc="mixed", N=2048)
        assert rep.reference_constant == pytest.approx(
            4.0 / math.pi**2 * math.log(100.0) ** 2
        )
        assert abs(rep.ratio - 1.0) < 5e-3

    @pytest.mark.parametrize("delta", [1e-1, 1e-4])
    def test_methods_agree(self, delta):
        direct = critical_truncated_constant(delta, bc="mixed", method="direct", N=4096)
        logt = critical_truncated_constant(
            delta, bc="mixed", method="log-transform", N=4096
        )
        diff = abs(
            direct.numerical_best_constant - logt.numerical_best_constant
        ) / direct.reference_constant
        assert diff < 5e-3

    def test_mixed_to_dirichlet_ratio(self):
        mixed = critical_truncated_constant(1e-3, bc="mixed", N=2048)
        dirich = critical_truncated_constant(1e-3, bc="dirichlet", N=2048)
        ratio = mixed.numerical_best_constant / dirich.numerical_best_constant
        assert ratio == pytest.approx(4.0, rel=1e-2)

    def test_delta_out_of_range(self):
        with pytest.raises(DeltaOutOfRange):
            critical_truncated_constant(1.5)


class TestBlowupRateFit:
    def test_exact_constants_fit_perfectly(self):
        fit = _fit_blowup([1e-1, 1e-2, 1e-3, 1e-4], exact_critical_constant)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_numerical_slope(self):
        fit = blowup_rate_fit([1e-1, 1e-2, 1e-3, 1e-4], bc="mixed", N=2048)
        assert 1.95 <= fit.slope <= 2.05

    def test_dirichlet_intercept_shift(self):
        deltas = [1e-1, 1e-2, 1e-3, 1e-4]
        mixed = _fit_blowup(deltas, lambda d: exact_critical_constant(d, "mixed"))
        dirich = _fit_blowup(deltas, lambda d: exact_critical_constant(d, "dirichlet"))
        assert dirich.slope == pytest.approx(mixed.slope, abs=1e-10)
        assert mixed.intercept - dirich.intercept == pytest.approx(math.log(4.0))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            blowup_rate_fit([1e-1, 1e-2, 1e-3])
        with pytest.raises(InsufficientData):
            blowup_rate_fit([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("bad", [0.0, -1e-2, 1.0, math.nan])
    def test_delta_outside_range_solves_nothing(self, bad):
        # a zero delta once divided by zero in the span check
        solved = []
        with pytest.raises(DeltaOutOfRange):
            _fit_blowup([bad, 1e-2, 1e-3, 1e-4], solved.append)
        assert solved == []
        with pytest.raises(DeltaOutOfRange):
            blowup_rate_fit([bad, 1e-2, 1e-3, 1e-4])
