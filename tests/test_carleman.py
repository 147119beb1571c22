import collections
import dataclasses
import math
import resource
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    modal_sum,
    pointwise_component_integrals,
    slab_conjugation_residual,
    symbolic_weight,
    weight_derivatives,
)

from degenwave import _threads, carleman
from degenwave.carleman import (
    SmoothMode,
    SmoothModalSolution,
    bessel_mode,
    build_weight_field,
    carleman_component_integrals,
    carleman_constant_scan,
    conjugation_order_study,
    conjugation_residual,
)
from degenwave.errors import (
    DegenerateCellTouched,
    GridMismatch,
    InsufficientData,
    NonFiniteReport,
    NonPositiveInput,
    ParameterOutOfRange,
)
from degenwave.params import (
    DomainSpec,
    eval_cutoff,
    theta_cutoff,
    time_cutoff,
    validate_carleman_params,
)
from degenwave.radial import bessel_radial_mode


def symbolic_wave(u, coords, alpha):
    """u_tt - Div(diag(1, r^alpha) grad u) of a sympy expression."""
    import sympy as sp

    theta, r, t = coords
    return sp.diff(u, t, 2) - sp.diff(u, theta, 2) - sp.diff(r**alpha * sp.diff(u, r), r)


class TestWeightPackage:
    """The weight and the algebra of the conjugated operator, against sympy."""

    def test_origin_at_center_time(self, carleman_params):
        p = carleman_params
        assert build_weight_field(p, [0.0], [0.0], [p.t0]).tolist() == [[[1.0]]]

    def test_far_corner_at_center_time(self, carleman_params):
        p = carleman_params
        sigma = build_weight_field(p, [1.0], [1.0], [p.t0])[0, 0, 0]
        assert sigma == pytest.approx(math.exp(2.0 * p.lam), rel=1e-15)

    def test_weight_field_matches_symbolic_sigma(self, carleman_params):
        p = carleman_params
        theta, r, t = np.linspace(0.0, 1.0, 5), np.linspace(0.25, 1.0, 4), np.linspace(0.0, p.T, 3)
        sigma = build_weight_field(p, theta, r, t)
        assert sigma.shape == (5, 4, 3)
        expect = weight_derivatives(p, theta[:, None, None], r[None, :, None], t)["sigma"]
        assert np.allclose(sigma, expect, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "axes",
        [
            (0.5, 0.5, 1.0),
            ([math.inf], [0.5], [1.0]),
            ([0.5], [math.nan], [1.0]),
            ([0.5], [0.5], [-math.inf]),
            ([[0.5]], [0.5], [1.0]),
            ([0.5], ["0.5"], [1.0]),
            ([0.5], [0.5], [True]),
        ],
        ids=["scalars", "theta-inf", "r-nan", "t-minus-inf", "theta-2d", "r-text", "t-bool"],
    )
    def test_axis_not_a_finite_real_vector_rejected(self, carleman_params, axes):
        # scalars once died with a bare IndexError; theta = [inf] gave an inf field
        with pytest.raises(GridMismatch):
            build_weight_field(carleman_params, *axes)

    def test_integer_axes_are_those_reals(self, carleman_params):
        p = carleman_params
        assert np.array_equal(
            build_weight_field(p, [0, 1], np.array([1]), [20]),
            build_weight_field(p, [0.0, 1.0], [1.0], [20.0]),
        )

    def test_zero_order_identities(self):
        import sympy as sp

        coords, (alpha, lam, _, beta, t0), sigma = symbolic_weight()
        theta, r, t = coords
        b = 4 * beta**2 * (t - t0) ** 2 - (4 * theta**2 + (2 - alpha) ** 2 * r ** (2 - alpha))
        # (sigma_t)^2 - A grad sigma . grad sigma = lam^2 sigma^2 b
        grad_sq = sp.diff(sigma, theta) ** 2 + r**alpha * sp.diff(sigma, r) ** 2
        assert sp.simplify(sp.diff(sigma, t) ** 2 - grad_sq - lam**2 * sigma**2 * b) == 0
        # sigma_tt - Div(A grad sigma) = (lam^2 b - (4 - alpha + 2 beta) lam) sigma
        anti = symbolic_wave(sigma, coords, alpha)
        assert sp.simplify(anti - (lam**2 * b - (4 - alpha + 2 * beta) * lam) * sigma) == 0

    def test_conjugation_identity_exact(self):
        """exp(s sigma)(psi_tt - Div(A grad psi)) = (P1+ + P1- + P2+ + P2-) eta
        exactly, for psi = exp(-s sigma) eta with eta any smooth function and
        P1-, P2+ + P2- in the fused forms that conjugation_residual evaluates."""
        import sympy as sp

        coords, (alpha, lam, s, beta, t0), sigma = symbolic_weight()
        theta, r, t = coords
        eta = sp.Function("eta")(*coords)
        xi_t = -2 * beta * (t - t0)
        b = xi_t**2 - (4 * theta**2 + (2 - alpha) ** 2 * r ** (2 - alpha))
        p1_plus = symbolic_wave(eta, coords, alpha)
        p1_minus = 2 * s * lam * sigma * (
            -xi_t * sp.diff(eta, t) + 2 * theta * sp.diff(eta, theta)
            + (2 - alpha) * r * sp.diff(eta, r)
        )
        p2 = s * lam * sigma * (s * lam * sigma * b + (4 - alpha + 2 * beta) - lam * b) * eta
        lhs = sp.exp(s * sigma) * symbolic_wave(sp.exp(-s * sigma) * eta, coords, alpha)
        assert sp.simplify(lhs - (p1_plus + p1_minus + p2)) == 0


class TestPSplittingCompleteness:
    def test_conjugated_operator_identity(self, carleman_params):
        """P1+ + P2+ + P1- + P2- applied to eta reproduces
        exp(s sigma) (d_tt - Div A grad)(exp(-s sigma) eta) for smooth eta."""
        alpha = 0.5
        p = carleman_params
        lam, s, beta = p.lam, p.s, p.beta
        n = 48
        theta = np.linspace(0.2, 0.8, n)
        r = np.linspace(0.3, 0.9, n)
        t = np.linspace(8.0, 24.0, n)
        h_th, h_r, h_t = theta[1] - theta[0], r[1] - r[0], t[1] - t[0]
        TH, RR, TT = theta[:, None, None], r[None, :, None], t[None, None, :]

        eta = np.sin(2.0 * TH + 0.3) * np.cos(1.3 * RR) * np.exp(-((TT - 16.0) / 6.0) ** 2)
        xi = TH**2 + RR ** (2.0 - alpha) - beta * (TT - p.t0) ** 2
        sigma = np.exp(lam * xi)
        esig = np.exp(s * sigma)
        psi = eta / esig

        def wave_op(u):
            u_tt = (u[:, :, 2:] - 2 * u[:, :, 1:-1] + u[:, :, :-2])[1:-1, 1:-1] / h_t**2
            u_thth = (u[2:] - 2 * u[1:-1] + u[:-2])[:, 1:-1, 1:-1] / h_th**2
            u_rr = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2])[1:-1, :, 1:-1] / h_r**2
            u_r = (u[:, 2:] - u[:, :-2])[1:-1, :, 1:-1] / (2 * h_r)
            rc = r[1:-1][None, :, None]
            return u_tt - (u_thth + rc**alpha * u_rr + alpha * rc ** (alpha - 1.0) * u_r)

        lhs = esig[1:-1, 1:-1, 1:-1] * wave_op(psi)

        eta_tt = (eta[:, :, 2:] - 2 * eta[:, :, 1:-1] + eta[:, :, :-2])[1:-1, 1:-1] / h_t**2
        eta_t = (eta[:, :, 2:] - eta[:, :, :-2])[1:-1, 1:-1] / (2 * h_t)
        eta_thth = (eta[2:] - 2 * eta[1:-1] + eta[:-2])[:, 1:-1, 1:-1] / h_th**2
        eta_th = (eta[2:] - eta[:-2])[:, 1:-1, 1:-1] / (2 * h_th)
        eta_rr = (eta[:, 2:] - 2 * eta[:, 1:-1] + eta[:, :-2])[1:-1, :, 1:-1] / h_r**2
        eta_r = (eta[:, 2:] - eta[:, :-2])[1:-1, :, 1:-1] / (2 * h_r)

        thc = theta[1:-1][:, None, None]
        rc = r[1:-1][None, :, None]
        tc = t[1:-1][None, None, :]
        sig = sigma[1:-1, 1:-1, 1:-1]
        eta_i = eta[1:-1, 1:-1, 1:-1]
        xi_t = -2.0 * beta * (tc - p.t0)
        b = xi_t**2 - (4.0 * thc**2 + (2.0 - alpha) ** 2 * rc ** (2.0 - alpha))

        p1_plus = eta_tt - (eta_thth + rc**alpha * eta_rr + alpha * rc ** (alpha - 1.0) * eta_r)
        p2_plus = s**2 * lam**2 * sig**2 * b * eta_i
        p1_minus = 2.0 * s * (
            -eta_t * lam * sig * xi_t
            + lam * sig * (2.0 * thc * eta_th + (2.0 - alpha) * rc * eta_r)
        )
        p2_minus = s * eta_i * ((4.0 - alpha + 2.0 * beta) * lam * sig - lam**2 * sig * b)
        rhs = p1_plus + p2_plus + p1_minus + p2_minus

        scale = np.sqrt(np.mean(lhs**2))
        err = np.sqrt(np.mean((lhs - rhs) ** 2)) / scale
        assert err < 0.02  # pure finite-difference discrepancy

    def test_identity_with_analytic_derivatives(self, carleman_params):
        """The fused P+ eta + P- eta equals exp(s sigma)(psi_tt - Div(A grad psi))
        to roundoff when every derivative of eta = exp(s sigma) psi is exact:
        the product rule runs through the derivatives of sigma that sympy takes."""
        alpha = 0.5
        p = carleman_params
        lam, s, beta = p.lam, p.s, p.beta
        rng = np.random.default_rng(8)
        th, r, t = rng.uniform([0.05, 0.05, 1.0], [0.95, 0.95, p.T - 1.0], size=(1000, 3)).T

        # psi = sin(2 theta + 0.3) cos(1.3 r) g(t), g = exp(-((t - 16)/6)^2)
        ang, d_ang = np.sin(2.0 * th + 0.3), 2.0 * np.cos(2.0 * th + 0.3)
        rad, d_rad = np.cos(1.3 * r), -1.3 * np.sin(1.3 * r)
        g = np.exp(-(((t - 16.0) / 6.0) ** 2))
        d_g = -2.0 * (t - 16.0) / 36.0 * g
        dd_g = (-2.0 / 36.0 + (2.0 * (t - 16.0) / 36.0) ** 2) * g
        psi = ang * rad * g
        psi_t, psi_tt = ang * rad * d_g, ang * rad * dd_g
        psi_th, psi_thth = d_ang * rad * g, -4.0 * psi
        psi_r, psi_rr = ang * d_rad * g, -1.69 * psi

        w = weight_derivatives(p, th, r, t)
        esig = np.exp(s * w["sigma"])

        def first(sig_1, psi_1):
            return esig * (s * sig_1 * psi + psi_1)

        def second(sig_1, sig_2, psi_1, psi_2):
            return esig * (
                (s * sig_1) ** 2 * psi + s * sig_2 * psi + 2.0 * s * sig_1 * psi_1 + psi_2
            )

        eta = esig * psi
        eta_t = first(w["sigma_t"], psi_t)
        eta_tt = second(w["sigma_t"], w["sigma_tt"], psi_t, psi_tt)
        eta_th = first(w["sigma_th"], psi_th)
        eta_thth = second(w["sigma_th"], w["sigma_thth"], psi_th, psi_thth)
        eta_r = first(w["sigma_r"], psi_r)
        eta_rr = second(w["sigma_r"], w["sigma_rr"], psi_r, psi_rr)

        # the algebra of conjugation_residual: P1+, fused P1-, fused P2+ + P2-
        xi_t = -2.0 * beta * (t - p.t0)
        b = xi_t**2 - (4.0 * th**2 + (2.0 - alpha) ** 2 * r ** (2.0 - alpha))
        slam_sigma = s * lam * w["sigma"]
        p1_plus = eta_tt - (eta_thth + r**alpha * eta_rr + alpha * r ** (alpha - 1.0) * eta_r)
        p1_minus = 2.0 * slam_sigma * (
            -xi_t * eta_t + 2.0 * th * eta_th + (2.0 - alpha) * r * eta_r
        )
        p2 = slam_sigma * (slam_sigma * b + (4.0 - alpha + 2.0 * beta) - lam * b) * eta

        lhs = esig * (psi_tt - (psi_thth + r**alpha * psi_rr + alpha * r ** (alpha - 1.0) * psi_r))
        err = np.linalg.norm(p1_plus + p1_minus + p2 - lhs) / np.linalg.norm(lhs)
        assert err <= 1e-10


def two_mode_solution():
    return SmoothModalSolution(
        0.5, (bessel_mode(0.5, 1, 1, a=1.0, b=0.3), bessel_mode(0.5, 2, 3, a=-0.4, b=0.2))
    )


def counted_radial_solution(calls, monkeypatch):
    """two_mode_solution with each mode's radial and radial_deriv counting
    its calls, keyed by the mode's index."""
    built = iter(range(2))

    def counted(key, f):
        def wrapped(r):
            calls[key] += 1
            return f(r)

        return wrapped

    def counted_profile(alpha, k):
        rho, R, dR, flux = bessel_radial_mode(alpha, k)
        i = next(built)
        return rho, counted(("R", i), R), counted(("dR", i), dR), flux

    monkeypatch.setattr(carleman, "bessel_radial_mode", counted_profile)
    return two_mode_solution()


class TestModalSolution:
    def test_mode_derives_its_profile(self):
        mode = SmoothMode(0.5, 1, 1, 1.0, 0.3)
        assert float.hex(mode.omega) == "0x1.e93b86ae76a5ap+1"
        assert float.hex(mode.flux_at_1) == "-0x1.5545e6b6c76a9p+1"
        # a replaced radial index gets its own profile and frequency
        r = np.linspace(0.0, 1.0, 5)
        moved, fresh = dataclasses.replace(mode, k=2), bessel_mode(0.5, 1, 2, a=1.0, b=0.3)
        assert (moved.omega, moved.flux_at_1) == (fresh.omega, fresh.flux_at_1)
        assert np.array_equal(moved.radial(r), fresh.radial(r))

    @pytest.mark.parametrize("name", ["omega", "radial", "radial_deriv", "flux_at_1"])
    def test_derived_fields_cannot_be_passed(self, name):
        mode = SmoothMode(0.5, 1, 1, 1.0, 0.3)
        with pytest.raises(TypeError):
            SmoothMode(0.5, 1, 1, 1.0, 0.3, **{name: getattr(mode, name)})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(mode, **{name: getattr(mode, name)})

    # a sine order of 1.5 once gave a "solution" that is -1 at theta = 1
    @pytest.mark.parametrize(
        "bad", [{"n": 0}, {"n": -1}, {"k": 0}, {"k": -2}, {"n": 1.5}, {"k": 1.5}]
    )
    def test_degenerate_mode_rejected(self, bad):
        with pytest.raises(ParameterOutOfRange):
            bessel_mode(0.5, **({"n": 1, "k": 1} | bad))

    @pytest.mark.parametrize(
        "bad",
        [{"a": math.nan}, {"a": math.inf}, {"b": -math.inf}, {"b": math.nan}, {"a": "1"}],
        ids=["a-nan", "a-inf", "b-minus-inf", "b-nan", "a-text"],
    )
    def test_non_finite_amplitude_rejected(self, bad):
        # a = nan once gave a mode whose every integral and residual was nan
        with pytest.raises(ParameterOutOfRange) as info:
            bessel_mode(0.5, 1, 1, **bad)
        assert type(info.value) is ParameterOutOfRange
        assert str(info.value).startswith(next(iter(bad)))

    def test_empty_superposition_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            SmoothModalSolution(0.5, ())

    def test_mode_records_its_alpha(self):
        assert bessel_mode(0.3, 1, 2).alpha == 0.3

    @pytest.mark.parametrize("alphas", [(0.9, (0.5,)), (0.5, (0.5, 0.3))])
    def test_modes_at_another_alpha_rejected(self, alphas):
        alpha, mode_alphas = alphas
        modes = tuple(bessel_mode(a, 1, 1) for a in mode_alphas)
        with pytest.raises(ParameterOutOfRange, match="alpha"):
            SmoothModalSolution(alpha, modes)

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda sol, p: conjugation_residual(sol, p, shape=(96, 16, 48)),
            lambda sol, p: carleman_component_integrals(sol, p, n_theta=32, n_r=16, n_t=32),
        ],
        ids=["residual", "integrals"],
    )
    def test_kernels_reject_solution_at_another_alpha(self, carleman_params, kernel):
        sol = SmoothModalSolution(0.9, (bessel_mode(0.9, 1, 1, a=1.0, b=0.3),))
        with pytest.raises(ParameterOutOfRange, match="alpha"):
            kernel(sol, carleman_params)

    def test_fields_match_pointwise_sum(self):
        """Products of one factor per axis, summed over modes, are the
        mode-by-mode pointwise fields phi, phi_t, phi_theta and phi_r."""
        sol = two_mode_solution()
        th = np.linspace(0.0, 1.0, 7)[:, None, None]
        r = np.linspace(0.05, 1.0, 5)[None, :, None]
        t = np.linspace(0.0, 9.0, 6)[None, None, :]
        amp, vel = sol.temporal_factors(t)
        sin, dsin = sol.angular_factors(th)
        rad, drad = sol.radial_factors(r)
        for factors, parts in (
            ((amp, sin, rad), ("amp", "value", "value")),
            ((vel, sin, rad), ("vel", "value", "value")),
            ((amp, dsin, rad), ("amp", "deriv", "value")),
            ((amp, sin, drad), ("amp", "value", "deriv")),
        ):
            assert all(f.shape[0] == 2 for f in factors)
            got = np.sum(factors[0] * factors[1] * factors[2], axis=0)
            assert got.shape == (7, 5, 6)
            assert np.array_equal(got, modal_sum(sol, th, r, t, *parts))
        # scalar arguments give one value per mode
        assert [f.shape for f in sol.angular_factors(0.3)] == [(2,), (2,)]


class TestConjugationResidual:
    def test_zero_solution(self, carleman_params):
        sol = SmoothModalSolution(0.5, (bessel_mode(0.5, 1, 1, a=0.0, b=0.0),))
        rep = conjugation_residual(sol, carleman_params, shape=(96, 16, 48))
        assert rep.residual_norm == 0.0
        assert rep.relative == 0.0

    def test_identity_tends_to_pde_residual_as_s_vanishes(
        self, carleman_params, bessel_solution
    ):
        # as s -> 0 the conjugation becomes trivial and only the wave-operator
        # stencil error of psi = k zeta phi remains; s = 0 itself is refused
        small, smaller, rep = (
            conjugation_residual(
                bessel_solution, dataclasses.replace(carleman_params, s=s), shape=(384, 24, 96)
            )
            for s in (1e-6, 1e-9, carleman_params.s)
        )
        assert small.residual_norm == pytest.approx(smaller.residual_norm, rel=1e-5)
        assert 0.0 < smaller.residual_norm < rep.residual_norm

    def test_residual_second_order(self, carleman_params, bessel_solution):
        r1 = conjugation_residual(bessel_solution, carleman_params, shape=(576, 12, 48))
        r2 = conjugation_residual(bessel_solution, carleman_params, shape=(1152, 24, 96))
        order = math.log2(r1.residual_norm / r2.residual_norm)
        assert 1.6 <= order <= 2.3  # the acceptance suite pins 2.0 +- 0.1

    def test_two_mode_superposition(self, carleman_params):
        sol = SmoothModalSolution(
            0.5,
            (bessel_mode(0.5, 1, 1, a=1.0, b=0.3), bessel_mode(0.5, 2, 2, a=-0.4, b=0.2)),
        )
        rep = conjugation_residual(sol, carleman_params, shape=(768, 24, 128))
        assert rep.relative < 0.05

    def test_degenerate_cell_guard(self, carleman_params, bessel_solution):
        with pytest.raises(DegenerateCellTouched):
            conjugation_residual(
                bessel_solution, carleman_params, shape=(64, 8, 16), r_min=-0.1
            )

    @pytest.mark.parametrize("r_min", [1.0, 1.5, math.nan, math.inf])
    def test_r_min_at_or_past_the_boundary(self, carleman_params, bessel_solution, r_min):
        # 1.0 once gave relative = nan and 1.5 a bare math domain error
        with pytest.raises(ParameterOutOfRange, match="r_min"):
            conjugation_residual(bessel_solution, carleman_params, shape=(576, 12, 48), r_min=r_min)

    @pytest.mark.parametrize("case", ["one_mode", "two_modes", "s_small"])
    def test_matches_slab_kernel(self, carleman_params, bessel_solution, case):
        shape = {"one_mode": (576, 12, 48), "two_modes": (768, 24, 128), "s_small": (384, 24, 96)}[case]
        params, sol = carleman_params, bessel_solution
        if case == "two_modes":
            sol = SmoothModalSolution(
                0.5,
                (bessel_mode(0.5, 1, 1, a=1.0, b=0.3), bessel_mode(0.5, 2, 2, a=-0.4, b=0.2)),
            )
        if case == "s_small":  # a weight within 1e-8 of 1
            params = dataclasses.replace(carleman_params, s=1e-9)
        tiled = conjugation_residual(sol, params, shape=shape)
        slab = slab_conjugation_residual(sol, params, shape=shape)
        assert tiled.residual_norm == pytest.approx(slab.residual_norm, rel=1e-12)
        assert tiled.reference_norm == pytest.approx(slab.reference_norm, rel=1e-12)

    def test_tile_invariance(self, carleman_params, bessel_solution, monkeypatch):
        shape = (96, 16, 160)  # interior 95 x 16 x 159 points
        monkeypatch.setattr(carleman, "_TILE_ELEMENTS", 161 * 161 * 16)
        assert len(list(carleman._tiles(97, 16, 161, 1))) == 1
        one_tile = conjugation_residual(bessel_solution, carleman_params, shape=shape)
        # 8 x 64 interior points per tile, ragged 7 and 31 at the far edges
        monkeypatch.setattr(carleman, "_TILE_ELEMENTS", 10 * 16 * 66)
        tiles = list(carleman._tiles(97, 16, 161, 1))
        assert {ith.stop - ith.start - 2 for ith, _ in tiles} == {8, 7}
        assert {jt.stop - jt.start - 2 for _, jt in tiles} == {64, 31}
        tiled = conjugation_residual(bessel_solution, carleman_params, shape=shape)
        assert tiled.residual_norm == pytest.approx(one_tile.residual_norm, rel=1e-13)
        assert tiled.reference_norm == pytest.approx(one_tile.reference_norm, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        halo=st.sampled_from([0, 1]),
        n_theta=st.integers(min_value=3, max_value=130),
        n_r=st.integers(min_value=1, max_value=200),
        n_t=st.integers(min_value=3, max_value=130),
        budget=st.integers(min_value=1, max_value=1 << 17),
    )
    def test_tiles_partition_the_plane(self, halo, n_theta, n_r, n_t, budget):
        """Guard: with or without a halo, the tiles cover each theta x t point
        in halo .. n - 1 - halo exactly once, and their slices stay in bounds."""
        covered = np.zeros((n_theta, n_t), dtype=int)
        with mock.patch.object(carleman, "_TILE_ELEMENTS", budget):
            for ith, jt in carleman._tiles(n_theta, n_r, n_t, halo):
                assert 0 <= ith.start and ith.stop <= n_theta and ith.step is None
                assert 0 <= jt.start and jt.stop <= n_t and jt.step is None
                assert ith.stop - ith.start > 2 * halo and jt.stop - jt.start > 2 * halo
                covered[ith.start + halo : ith.stop - halo, jt.start + halo : jt.stop - halo] += 1
        inner = np.zeros_like(covered)
        inner[halo : n_theta - halo, halo : n_t - halo] = 1
        assert np.array_equal(covered, inner)

    def test_tiles_run_along_t(self):
        # the finest benchmark level: 18 theta x 64 t interior points per tile
        tiles = list(carleman._tiles(4609, 48, 257, 1))
        assert {jt.stop - jt.start - 2 for _, jt in tiles} == {64, 63}
        assert max((ith.stop - ith.start) * 48 * (jt.stop - jt.start) for ith, jt in tiles) <= (
            carleman._TILE_ELEMENTS
        )

    def test_worker_invariance(self, carleman_params, monkeypatch):
        """The per-tile sums are added in tile order, whichever thread formed them;
        a lost or doubled tile would move the norms."""
        monkeypatch.setattr(carleman, "_TILE_ELEMENTS", 10 * 16 * 66)
        sol = two_mode_solution()
        norms = set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3, 8):
                monkeypatch.setattr(_threads, "cpu_workers", lambda w=workers: w)
                rep = conjugation_residual(sol, carleman_params, shape=(96, 16, 160))
                norms.add((rep.residual_norm.hex(), rep.reference_norm.hex()))
        finally:
            sys.setswitchinterval(interval)
        assert len(norms) == 1

    def test_helper_thread_failure_reaches_the_caller(
        self, carleman_params, bessel_solution, monkeypatch
    ):
        second_diff = carleman._second_diff_into

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("in a helper thread")
            second_diff(*args)

        monkeypatch.setattr(carleman, "_second_diff_into", failing)
        monkeypatch.setattr(_threads, "cpu_workers", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="helper"):
            conjugation_residual(bessel_solution, carleman_params, shape=(576, 12, 48))
        assert threading.active_count() == threads

    def test_skipped_tiles_match_slab_kernel(self, carleman_params, bessel_solution, monkeypatch):
        # 1 x 2 interior points per tile: the cutoffs vanish on whole tiles at both
        # ends of theta and of t, and those tiles are skipped
        monkeypatch.setattr(carleman, "_TILE_ELEMENTS", 3 * 16 * 4)
        shape = (96, 16, 48)
        p = carleman_params
        theta, r, t = carleman._residual_axes(p, shape, 0.1, p.T)
        zeta = np.any(eval_cutoff(theta_cutoff(p.delta0), theta), axis=0)
        kcut = np.any(eval_cutoff(time_cutoff(p.epsilon, p.T), t), axis=0)
        tiles = list(carleman._tiles(theta.size, r.size, t.size, 1))
        assert any(not zeta[ith].any() for ith, _ in tiles)
        assert any(not kcut[jt].any() for _, jt in tiles)
        tiled = conjugation_residual(bessel_solution, carleman_params, shape=shape)
        slab = slab_conjugation_residual(bessel_solution, carleman_params, shape=shape)
        assert tiled.residual_norm == pytest.approx(slab.residual_norm, rel=1e-12)
        assert tiled.reference_norm == pytest.approx(slab.reference_norm, rel=1e-12)

    def test_source_only_on_tiles_that_meet_a_cutoff_band(
        self, carleman_params, bessel_solution, monkeypatch
    ):
        """At the finest benchmark level 444 of the 960 live tiles lie off both
        cutoff bands, where h = 0; only the other 516 build exp(s sigma) h."""
        shape = (4608, 48, 256)
        p = carleman_params
        theta, r, t = carleman._residual_axes(p, shape, 0.1, p.T)
        zeta = np.asarray(eval_cutoff(theta_cutoff(p.delta0), theta))
        kcut = np.asarray(eval_cutoff(time_cutoff(p.epsilon, p.T), t))
        live = [
            (ith, jt)
            for ith, jt in carleman._tiles(theta.size, r.size, t.size, 1)
            if np.any(zeta[0][ith]) and np.any(kcut[0][jt])
        ]
        banded = [
            (ith, jt) for ith, jt in live if np.any(zeta[1:, ith]) or np.any(kcut[1:, jt])
        ]
        assert (len(live), len(banded)) == (960, 516)
        einsum, sourced = np.einsum, []

        def counted(subscripts, *operands, **kwargs):
            # the contraction of h over the modes runs on the interior r points
            if subscripts == "mr,mit->irt" and operands[0].shape[1] == r.size - 2:
                sourced.append(operands[1].shape)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        conjugation_residual(bessel_solution, p, shape=shape)
        assert len(sourced) == 516

    def test_no_blas_call(self, carleman_params, monkeypatch):
        def blas(*args, **kwargs):
            raise AssertionError("the residual called a BLAS routine")

        for name in ("vdot", "dot", "matmul"):
            monkeypatch.setattr(np, name, blas)
        monkeypatch.setattr(_threads, "cpu_workers", lambda: 2)
        rep = conjugation_residual(two_mode_solution(), carleman_params, shape=(576, 12, 48))
        assert 0.0 < rep.residual_norm < rep.reference_norm

    def test_minor_page_faults(self, carleman_params, bessel_solution):
        """Buffers allocated once per call, not fresh temporaries per tile."""
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        conjugation_residual(bessel_solution, carleman_params, shape=(4608, 48, 256))
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20_000

    @pytest.mark.parametrize("shape", [(2, 24, 96), (60, 16, 48), (864, 24, 24), (63, 16, 32)])
    def test_unresolved_cutoff_band(self, carleman_params, bessel_solution, shape):
        with pytest.raises(GridMismatch, match="cutoff band"):
            conjugation_residual(bessel_solution, carleman_params, shape=shape)

    def test_two_cells_across_each_band_suffice(self, carleman_params, bessel_solution):
        # 2.01 theta cells across the delta0 band, 2.06 t cells across the epsilon band
        rep = conjugation_residual(bessel_solution, carleman_params, shape=(63, 16, 33))
        assert 0.0 < rep.relative < math.inf

    def test_memory_bound(self, carleman_params, bessel_solution, monkeypatch):
        monkeypatch.setattr(_threads, "cpu_workers", lambda: 8)
        tracemalloc.start()
        try:
            conjugation_residual(bessel_solution, carleman_params, shape=(2304, 24, 128))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    def test_memory_bound_at_finest_benchmark_level(
        self, carleman_params, bessel_solution, monkeypatch
    ):
        """A whole-grid (theta, t) array at this level would be 9.5 MB per copy;
        each of the eight threads holds its own tile buffers."""
        monkeypatch.setattr(_threads, "cpu_workers", lambda: 8)
        tracemalloc.start()
        try:
            conjugation_residual(bessel_solution, carleman_params, shape=(4608, 48, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    @pytest.mark.parametrize(
        "shape,r_min",
        [((1, 24, 96), 0.1), ((96, 2, 48), 0.5), ((864, 24, 1), 0.1), ((0, 24, 96), 0.1)],
    )
    def test_axis_without_interior_points(self, carleman_params, bessel_solution, shape, r_min):
        with pytest.raises(GridMismatch):
            conjugation_residual(bessel_solution, carleman_params, shape=shape, r_min=r_min)

    @pytest.mark.parametrize("shape", [(864.5, 24, 96), (864, math.nan, 96), (864, 24, "96")])
    def test_grid_size_not_an_integer(self, carleman_params, bessel_solution, shape):
        # 864.5 once died in np.linspace with a bare TypeError
        with pytest.raises(GridMismatch, match="integer"):
            conjugation_residual(bessel_solution, carleman_params, shape=shape)

    def test_integral_float_grid_sizes(self, carleman_params, bessel_solution):
        as_ints = conjugation_residual(bessel_solution, carleman_params, shape=(864, 24, 96))
        as_floats = conjugation_residual(
            bessel_solution, carleman_params, shape=(864.0, np.float64(24.0), 96.0)
        )
        assert as_floats == as_ints
        assert all(type(n) is int for n in as_floats.shape)

    def test_radial_factors_once_per_call(self, carleman_params, monkeypatch):
        calls = collections.Counter()
        sol = counted_radial_solution(calls, monkeypatch)
        for budget in (97 * 16 * 49, 10 * 16 * 10):
            monkeypatch.setattr(carleman, "_TILE_ELEMENTS", budget)
            calls.clear()
            conjugation_residual(sol, carleman_params, shape=(96, 16, 48))
            assert calls == {("R", 0): 1, ("R", 1): 1, ("dR", 0): 1, ("dR", 1): 1}

    @pytest.mark.parametrize("lam, s", [(30.0, 2.0), (400.0, 2.0), (2.0, 8.0)])
    def test_overflowing_weight_peak_refused_before_any_tile(
        self, bessel_solution, monkeypatch, lam, s
    ):
        """exp(s sigma) overflows once s e^(2 lam) passes about 709.8: at lam 30
        the residual once came back nan with a stream of RuntimeWarnings, and
        at lam 2, s 8 a relative residual of 1.7e12.  The integrals' rule
        2 s e^(2 lam) >= 700 now refuses it before any tile is walked."""

        def walked(*args):
            raise AssertionError("a residual tile was walked")

        monkeypatch.setattr(carleman, "_tiles", walked)
        params = validate_carleman_params(0.5, DomainSpec(0.03), beta=0.0149, T=40.0, lam=lam, s=s)
        with pytest.raises(NonFiniteReport, match="700"):
            conjugation_residual(bessel_solution, params, shape=(864, 24, 96))

    @pytest.mark.parametrize("levels", [1, 0, -1])
    def test_order_study_needs_two_levels(self, carleman_params, bessel_solution, monkeypatch, levels):
        # one level once solved a residual and returned the order nan
        solved = []
        monkeypatch.setattr(carleman, "conjugation_residual", lambda *a, **k: solved.append(a))
        with pytest.raises(InsufficientData):
            conjugation_order_study(bessel_solution, carleman_params, (96, 16, 48), levels=levels)
        assert solved == []

    @pytest.mark.parametrize("levels", [2.5, math.nan, "3"])
    def test_order_study_level_count_not_an_integer(
        self, carleman_params, bessel_solution, monkeypatch, levels
    ):
        # 2.5 once died in range() with a bare TypeError
        solved = []
        monkeypatch.setattr(carleman, "conjugation_residual", lambda *a, **k: solved.append(a))
        with pytest.raises(InsufficientData, match="integer"):
            conjugation_order_study(bessel_solution, carleman_params, (96, 16, 48), levels=levels)
        assert solved == []

    def test_order_study_integral_float_level_count(self, carleman_params, bessel_solution):
        as_float = conjugation_order_study(bessel_solution, carleman_params, (96, 16, 48), 2.0)
        assert as_float == conjugation_order_study(bessel_solution, carleman_params, (96, 16, 48), 2)


class TestComponentIntegrals:
    def test_zero_solution(self, carleman_params):
        sol = SmoothModalSolution(0.5, (bessel_mode(0.5, 1, 1, a=0.0, b=0.0),))
        out = carleman_component_integrals(sol, carleman_params, n_theta=48, n_r=32, n_t=64)
        assert out.lhs_gradient == 0.0
        assert out.lhs_zero_order == 0.0
        assert out.rhs_trace == 0.0

    def test_negative_s_refused(self, carleman_params, bessel_solution):
        # once lhs_gradient -8.35, rhs_trace -69.0 and chat -inf, without an error
        with pytest.raises(NonPositiveInput, match="s must exceed 0"):
            carleman_component_integrals(
                bessel_solution, dataclasses.replace(carleman_params, s=-2.0),
                n_theta=48, n_r=32, n_t=96,
            )

    def test_tile_invariance(self, carleman_params, bessel_solution, monkeypatch):
        grid = dict(n_theta=48, n_r=32, n_t=64)
        # one tile each for the 49 x 65 core and the 66 x 65 joined strips
        monkeypatch.setattr(carleman, "_TILE_ELEMENTS", 66 * 65 * 32)
        assert len(list(carleman._tiles(49, 32, 65, 0))) == len(list(carleman._tiles(66, 32, 65, 0))) == 1
        one_tile = carleman_component_integrals(bessel_solution, carleman_params, **grid)
        # 10 x 64 x 32 tiles: both grids end ragged along theta and t
        monkeypatch.setattr(carleman, "_TILE_ELEMENTS", 10 * 64 * 32)
        tiles = list(carleman._tiles(49, 32, 65, 0)) + list(carleman._tiles(66, 32, 65, 0))
        assert {ith.stop - ith.start for ith, _ in tiles} == {10, 9, 6}
        assert {jt.stop - jt.start for _, jt in tiles} == {64, 1}
        tiled = carleman_component_integrals(bessel_solution, carleman_params, **grid)
        for field in (
            "lhs_gradient", "lhs_zero_order", "rhs_trace", "rhs_interior",
            "rhs_commutator", "chat",
        ):
            assert getattr(tiled, field) == pytest.approx(getattr(one_tile, field), rel=1e-13)

    def test_memory_bound(self, carleman_params, bessel_solution):
        tracemalloc.start()
        try:
            carleman_component_integrals(bessel_solution, carleman_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    @pytest.mark.parametrize("case", ["defaults", "two_modes", "s_small"])
    def test_matches_pointwise_oracle(self, carleman_params, bessel_solution, case):
        params, sol = carleman_params, bessel_solution
        if case == "two_modes":
            sol = two_mode_solution()
        if case == "s_small":  # a weight within 1e-8 of 1
            params = dataclasses.replace(carleman_params, s=1e-9)
        got = carleman_component_integrals(sol, params)
        expect = pointwise_component_integrals(sol, params)
        for field in dataclasses.fields(got):
            assert getattr(got, field.name) == pytest.approx(
                getattr(expect, field.name), rel=1e-13, abs=0.0
            ), field.name

    def test_radial_factors_once_per_call(self, carleman_params, monkeypatch):
        calls = collections.Counter()
        sol = counted_radial_solution(calls, monkeypatch)
        grid = dict(n_theta=48, n_r=32, n_t=64)
        for budget in (49 * 32 * 65, 10 * 32 * 10):
            monkeypatch.setattr(carleman, "_TILE_ELEMENTS", budget)
            calls.clear()
            carleman_component_integrals(sol, carleman_params, **grid)
            assert calls == {("R", 0): 1, ("R", 1): 1, ("dR", 0): 1, ("dR", 1): 1}

    def test_quadrature_refinement(self, carleman_params, bessel_solution):
        coarse = carleman_component_integrals(
            bessel_solution, carleman_params, n_theta=96, n_r=64, n_t=192
        )
        fine = carleman_component_integrals(
            bessel_solution, carleman_params, n_theta=192, n_r=128, n_t=384
        )
        for name in (
            "lhs_gradient", "lhs_zero_order", "rhs_trace", "rhs_interior",
            "rhs_commutator",
        ):
            c, f = getattr(coarse, name), getattr(fine, name)
            assert c == pytest.approx(f, rel=5e-3)

    def test_trace_term_against_separated_quadrature(
        self, carleman_params, bessel_solution
    ):
        """The trace integrand separates: check against two 1D adaptive quads."""
        from scipy.integrate import quad

        p = carleman_params
        mode = bessel_solution.modes[0]
        lam, s, beta, d0 = p.lam, p.s, p.beta, p.delta0
        omega, flux = mode.omega, mode.flux_at_1

        theta_part, _ = quad(
            lambda th: math.exp(lam * th**2) * math.sin(mode.n * math.pi * th) ** 2,
            d0, 1.0 - d0,
        )
        time_part, _ = quad(
            lambda t: math.exp(-lam * beta * (t - p.t0) ** 2)
            * (mode.a * math.cos(omega * t) + mode.b / omega * math.sin(omega * t)) ** 2,
            0.0, p.T, limit=400,
        )
        expected = s * lam * flux**2 * math.exp(lam) * theta_part * time_part
        out = carleman_component_integrals(
            bessel_solution, carleman_params, n_theta=256, n_r=32, n_t=2048
        )
        assert out.rhs_trace == pytest.approx(expected, rel=1e-4)

    def test_zero_order_term_against_gauss_quadrature(
        self, carleman_params, bessel_solution
    ):
        """Rebuild the psi^2 integrand independently under a Gauss rule."""
        from numpy.polynomial.legendre import leggauss

        p = carleman_params
        alpha, lam, s, beta, d0 = p.alpha, p.lam, p.s, p.beta, p.delta0

        def axis(a, b, n):
            x, w = leggauss(n)
            return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

        th, w_th = axis(3.0 * d0, 1.0 - 3.0 * d0, 96)
        r, w_r = axis(0.0, 1.0, 64)
        t, w_t = axis(0.0, p.T, 256)
        TH, RR, TT = th[:, None, None], r[None, :, None], t[None, None, :]
        zv = eval_cutoff(theta_cutoff(d0), th)[0][:, None, None]
        kv = eval_cutoff(time_cutoff(p.epsilon, p.T), t)[0][None, None, :]
        psi = kv * zv * modal_sum(bessel_solution, TH, RR, TT, "amp", "value", "value")
        sigma = np.exp(lam * (TH**2 + RR ** (2.0 - alpha) - beta * (TT - p.t0) ** 2))
        log_offset = 2.0 * s * math.exp(2.0 * lam)
        integrand = s**3 * lam**3 * sigma**3 * psi**2 * np.exp(2.0 * s * sigma - log_offset)
        wvol = w_th[:, None, None] * w_r[None, :, None] * w_t[None, None, :]
        expected = float(np.sum(integrand * wvol)) * math.exp(log_offset)
        out = carleman_component_integrals(
            bessel_solution, carleman_params, n_theta=256, n_r=128, n_t=768
        )
        assert out.lhs_zero_order == pytest.approx(expected, rel=2e-3)

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("lam, s", [(0.5, 2.0), (1.0, 3.0), (2.0, 6.0)])
    def test_skipped_weight_tiles_change_no_bit(self, bessel_solution, monkeypatch, lam, s, modes):
        """Guard: a flush of subnormal weights would change no bit, since on
        every grid the kernel walks the smallest exponent 2 s min(sigma) -
        log_offset lies above ln(tiny) (at lam 2, s 6 the offset is 655)."""
        params = validate_carleman_params(
            0.5, DomainSpec(0.03), beta=0.0149, T=40.0, lam=lam, s=s
        )
        sol = bessel_solution if modes == 1 else two_mode_solution()
        kernel = carleman._contracted_weight_tiles
        lowest = []

        def spy(params, theta, w_th, r, t, w_t, rows, log_offset):
            factors = carleman._sigma_factors(params, theta, r, t)
            sigma_min = math.prod(float(f.min()) for f in factors)
            lowest.append(2.0 * params.s * sigma_min - log_offset)
            yield from kernel(params, theta, w_th, r, t, w_t, rows, log_offset)

        monkeypatch.setattr(carleman, "_contracted_weight_tiles", spy)
        out = carleman_component_integrals(sol, params)
        assert len(lowest) == 2  # the core and the strip pair
        assert -out.log_offset <= min(lowest)
        assert min(lowest) > math.log(np.finfo(float).tiny)

    def test_admitted_weights_are_never_subnormal(self):
        """Every weight e^(2 s sigma - log_offset) is a normal float: sigma > 0
        keeps each exponent above -log_offset, and the refusal keeps
        log_offset below 700, under -ln(tiny), about 708.4."""
        largest = math.nextafter(700.0, 0.0)
        assert carleman._log_offset(0.0, largest / 2.0) == largest
        with pytest.raises(NonFiniteReport, match="700"):
            carleman._log_offset(0.0, 350.0)
        assert math.exp(-700.0) >= np.finfo(float).tiny

    def test_overflowing_weight_peak_refused_before_any_tile(
        self, carleman_params, bessel_solution, monkeypatch
    ):
        """Known fault F1 (lam 2, s 8, offset 2 s e^(2 lam) = 873.6) once came
        back with three components inf and the commutator nan; an offset of
        700 or more is now refused before any tile is walked, also where
        e^(2 lam) itself would overflow (lam 400), and for a scan before its
        first s is solved."""

        def walked(*args):
            raise AssertionError("a weight tile was walked")

        monkeypatch.setattr(carleman, "_contracted_weight_tiles", walked)
        domain = DomainSpec(0.03)
        for lam, s in [(2.0, 8.0), (400.0, 2.0)]:
            params = validate_carleman_params(0.5, domain, beta=0.0149, T=40.0, lam=lam, s=s)
            with pytest.raises(NonFiniteReport, match="700"):
                carleman_component_integrals(bessel_solution, params)
        with pytest.raises(NonFiniteReport):
            carleman_constant_scan(bessel_solution, carleman_params, [2.0, 1e200])

    @pytest.mark.parametrize(
        "grid",
        [
            (48, 0, 64), (0, 32, 64), (48, 32, 0), (48, -4, 64), (48, 32, 1), (48, 32, 32),
            (48.5, 32, 64), (48, math.nan, 64), (48, 32, 64.25),
        ],
        ids=[
            "n_r-0", "n_theta-0", "n_t-0", "n_r-negative", "n_t-1", "n_t-32",
            "n_theta-fraction", "n_r-nan", "n_t-fraction",
        ],
    )
    def test_grid_checked(self, carleman_params, bessel_solution, grid):
        # once a bare ZeroDivisionError or ValueError, and at n_t 1 (no t node
        # inside the cutoff) or 32 (1.998 t cells across its band) a quotient
        n_theta, n_r, n_t = grid
        with pytest.raises(GridMismatch):
            carleman_component_integrals(
                bessel_solution, carleman_params, n_theta=n_theta, n_r=n_r, n_t=n_t
            )

    def test_integral_float_grid_sizes(self, carleman_params, bessel_solution):
        grid = dict(n_theta=48, n_r=32, n_t=64)
        as_ints = carleman_component_integrals(bessel_solution, carleman_params, **grid)
        as_floats = carleman_component_integrals(
            bessel_solution, carleman_params, **{key: float(n) for key, n in grid.items()}
        )
        assert dataclasses.astuple(as_floats) == dataclasses.astuple(as_ints)

    def test_two_t_cells_across_the_band_suffice(self, carleman_params, bessel_solution):
        # guard: 2.06 t cells across the epsilon band, as for the residual
        out = carleman_component_integrals(
            bessel_solution, carleman_params, n_theta=48, n_r=32, n_t=33
        )
        assert 0.0 < out.chat < math.inf

    def test_scan_entry_at_base_s_is_the_integrals(self, carleman_params, bessel_solution):
        # once 3.55198... from the scan's own coarser grid against 3.55270...
        p = carleman_params
        scan = carleman_constant_scan(bessel_solution, p, [p.s])
        base = carleman_component_integrals(bessel_solution, p)
        assert dataclasses.astuple(scan[0]) == dataclasses.astuple(base)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_scan_rejects_nonpositive_s(self, carleman_params, bessel_solution, bad):
        with pytest.raises(NonPositiveInput):
            carleman_constant_scan(
                bessel_solution, carleman_params, [2.0, bad], n_theta=32, n_r=16, n_t=32
            )

    def test_scan_bounded(self, carleman_params, bessel_solution):
        scan = carleman_constant_scan(
            bessel_solution, carleman_params, [2.0, 4.0, 8.0],
            n_theta=64, n_r=48, n_t=128,
        )
        chats = [c.chat for c in scan]
        assert all(np.isfinite(c) and c > 0.0 for c in chats)
        assert max(chats) / min(chats) < 50.0
