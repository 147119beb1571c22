import dataclasses
import math

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from oracles import (
    all_pairs_observation_norms,
    blocked_full_trace_norm,
    blocked_segment_and_strip_norms,
    four_kernel_trace_gramian,
    grid_trig_overlaps,
    pair_weight_full_trace_norm,
    single_mode_forms,
    term_magnitudes,
    trapezoid_observation_norms,
)

from degenwave import waves
from degenwave.observability import default_beta, default_horizon, observability_ratio
from degenwave.errors import GridMismatch, ParameterOutOfRange, TruncationTooSmall
from degenwave.params import DomainSpec, observation_time_threshold, theta_strips
from degenwave.radial import bessel_radial_mode, solve_radial_basis
from degenwave.waves import (
    RANDOM_CAP,
    data_norms,
    duhamel_forcing,
    energy,
    energy_series,
    evolve,
    full_trace_norm_closed,
    modal_state,
    observation_norms,
    project_initial_data,
    random_state,
)

T_HORIZON = 44.0


def interp_mode(basis, k):
    """Radial eigenvector as a callable via linear interpolation."""

    def f(r):
        r = np.asarray(r, dtype=float)
        return np.interp(r.ravel(), basis.mesh.nodes, basis.R[k - 1]).reshape(r.shape)

    return f


def gramian_full_trace_norm(state, T):
    """Full-side squared trace norm as an ensemble applies it: (1/2) sum_n y_n^T G_n y_n."""
    gramian = waves._trace_gramian(state.basis, state.omega, T)
    y = np.concatenate((state.a, state.b / state.omega), axis=1)  # y_n = (a_n, b_n / omega_n)
    return 0.5 * float(np.einsum("ni,nij,nj->", y, gramian, y))


class TestProjection:
    def test_basis_element_round_trip(self, basis05):
        r1 = interp_mode(basis05, 1)
        st = project_initial_data(
            lambda th, r: np.sin(math.pi * th) * r1(r), None, basis05, 4, 4
        )
        assert st.a[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(st.a).sum() - abs(st.a[0, 0]) < 1e-10
        assert np.all(st.b == 0.0)

    def test_velocity_projection(self, basis05):
        r1 = interp_mode(basis05, 1)
        st = project_initial_data(
            None, lambda th, r: np.sin(2 * math.pi * th) * r1(r), basis05, 4, 4
        )
        assert st.b[1, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(st.b).sum() - abs(st.b[1, 0]) < 1e-10

    def test_smooth_data_reconstruction_converges(self, basis05):
        phi0 = lambda th, r: th * (1.0 - th) * r * (1.0 - r)
        errors = []
        for trunc in (2, 4, 8, 16):
            st = project_initial_data(phi0, None, basis05, trunc, trunc)
            # Parseval defect: ||phi0||^2 - sum of squared coefficients / 2
            theta = np.linspace(0.0, 1.0, 513)[:, None]
            nodes = basis05.mesh.nodes[None, :]
            vals = phi0(theta, nodes)
            lump = np.zeros(basis05.mesh.nodes.size)
            mats = basis05.mats
            lump[:] = mats.md
            lump[:-1] += mats.me
            lump[1:] += mats.me
            w_theta = np.full(513, 1.0 / 512)
            w_theta[[0, -1]] = 0.5 / 512
            norm_sq = float((vals**2 * lump[None, :] * w_theta[:, None]).sum())
            errors.append(norm_sq - 0.5 * np.sum(st.a**2))
        assert all(e > -1e-12 for e in errors)  # Bessel-type inequality
        assert errors[-1] < 0.02 * errors[0]

    def test_callable_field_past_the_grid_nyquist_order_refused(self):
        """The theta rule samples 2048 cells: sin(2047 pi theta) R_1 once
        projected to +1 at order 2047 and -1 at order 2049, and
        sin(2048 pi theta) R_1 to all zeros."""
        basis = solve_radial_basis(0.5, N=64, g=2.0, k_max=2)
        r1 = interp_mode(basis, 1)
        field = lambda n: lambda th, r: np.sin(n * math.pi * th) * r1(r)
        for n_max in (2048, 2049):
            for phi0, phi1 in ((field(2047), None), (None, field(2048))):
                with pytest.raises(TruncationTooSmall, match="Nyquist order 2048"):
                    project_initial_data(phi0, phi1, basis, n_max, 1)
        below = project_initial_data(field(2047), None, basis, 2047, 1)
        assert below.a[2046, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(below.a[:2046]).max() < 1e-10
        # a modal dictionary is not sampled, so it takes any truncation
        modes = project_initial_data({(2049, 1): 0.5}, {(1, 1): 1.0}, basis, 2049, 1)
        assert modes.a[2048, 0] == 0.5 and modes.b[0, 0] == 1.0

    def test_modal_dictionary_input(self, basis05):
        st = project_initial_data({(2, 3): 1.5}, {(1, 1): -0.5}, basis05, 4, 4)
        assert st.a[1, 2] == 1.5
        assert st.b[0, 0] == -0.5

    @pytest.mark.parametrize("key", ["amplitudes", "velocities"])
    @pytest.mark.parametrize(
        "entries",
        [
            {(1, 1): math.nan},
            {(2, 1): math.inf},
            {(1, 2): -math.inf},
            {(1, 1): "1"},
            [[0.0, math.nan], [0.0, 0.0]],
            np.array([[0.0, 0.0], [-math.inf, 0.0]]),
        ],
        ids=["mapping-nan", "mapping-inf", "mapping-minus-inf", "mapping-text", "list-nan",
             "array-minus-inf"],
    )
    def test_non_finite_coefficients_rejected(self, basis05, key, entries):
        # a nan amplitude once gave a state whose every energy and norm was nan
        with pytest.raises(GridMismatch, match="finite|real number"):
            modal_state(basis05, 2, 2, **{key: entries})

    def test_truncation_errors(self, basis05):
        with pytest.raises(TruncationTooSmall):
            modal_state(basis05, 4, basis05.k_max + 1)
        with pytest.raises(TruncationTooSmall):
            modal_state(basis05, 4, 4, amplitudes={(5, 1): 1.0})

    @pytest.mark.parametrize(
        "make",
        [
            lambda basis, modes: modal_state(basis, 2, 2, amplitudes=modes),
            lambda basis, modes: modal_state(basis, 2, 2, velocities=modes),
            lambda basis, modes: project_initial_data(modes, None, basis, 2, 2),
        ],
        ids=["amplitudes", "velocities", "project_initial_data"],
    )
    @pytest.mark.parametrize(
        "key", [(1.5, 1), (1, math.nan), (1, "1"), (0, 1), 1, (1, 1, 1), "11"],
        ids=["fractional", "nan", "text", "zero", "count", "triple", "text-pair"],
    )
    def test_mode_key_not_a_pair_of_counts_rejected(self, basis05, make, key):
        # once numpy's bare IndexError, or a bare TypeError for a key that is no pair
        with pytest.raises(TruncationTooSmall):
            make(basis05, {key: 1.0})

    def test_integral_float_mode_key_is_that_mode(self, basis05):
        as_float = modal_state(basis05, 2, 2, amplitudes={(2.0, np.float64(1.0)): 1.0})
        assert np.array_equal(as_float.a, modal_state(basis05, 2, 2, amplitudes={(2, 1): 1.0}).a)

    @pytest.mark.parametrize("member", [None, 3])
    def test_negative_seed_rejected(self, basis05, member):
        with pytest.raises(ParameterOutOfRange):
            random_state(basis05, 4, 4, seed=-1, member=member)

    @pytest.mark.parametrize(
        "seed, member", [(1.5, None), (math.nan, None), (2, 1.5), ("2", None)]
    )
    def test_non_integer_seed_rejected(self, basis05, seed, member):
        # once numpy's bare TypeError: seed must be integer
        with pytest.raises(ParameterOutOfRange, match="integer"):
            random_state(basis05, 4, 4, seed=seed, member=member)

    def test_integral_float_seed_is_that_integer(self, basis05):
        as_float = random_state(basis05, 4, 4, seed=2.0, member=np.float64(3.0))
        as_int = random_state(basis05, 4, 4, seed=2, member=3)
        assert np.array_equal(as_float.a, as_int.a) and np.array_equal(as_float.b, as_int.b)

    @pytest.mark.parametrize(
        "make",
        [
            lambda basis, n, k: random_state(basis, n, k, 1),
            lambda basis, n, k: modal_state(basis, n, k),
            lambda basis, n, k: project_initial_data(None, None, basis, n, k),
        ],
        ids=["random_state", "modal_state", "project_initial_data"],
    )
    @pytest.mark.parametrize("n_max, k_max", [(4.5, 4), (4, 4.5), (4, math.nan)])
    def test_non_integral_truncation_rejected(self, basis05, make, n_max, k_max):
        # once a bare TypeError from numpy
        with pytest.raises(TruncationTooSmall, match="integer"):
            make(basis05, n_max, k_max)

    def test_integral_float_truncation_is_that_integer(self, basis05):
        as_float = random_state(basis05, 4.0, np.float64(4.0), 1)
        as_int = random_state(basis05, 4, 4, 1)
        assert np.array_equal(as_float.a, as_int.a) and np.array_equal(as_float.b, as_int.b)
        assert modal_state(basis05, 4.0, 4).a.shape == (4, 4)

    def test_negative_member_rejected(self, basis05):
        # once numpy's bare ValueError from default_rng
        with pytest.raises(ParameterOutOfRange, match="member must be non-negative"):
            random_state(basis05, 4, 4, seed=1, member=-1)


class TestEvolution:
    def test_identity_at_zero(self, basis05):
        st = random_state(basis05, 4, 4, seed=1)
        st0 = evolve(st, 0.0)
        assert np.allclose(st0.a, st.a, atol=0.0)
        assert np.allclose(st0.b, st.b, atol=0.0)

    def test_half_period_single_mode(self, basis05):
        st = modal_state(basis05, 2, 2, amplitudes={(1, 1): 1.0})
        w = st.omega[0, 0]
        half = evolve(st, math.pi / w)
        assert half.a[0, 0] == pytest.approx(-1.0, rel=1e-14)
        assert abs(half.b[0, 0]) < 1e-12

    def test_linearity(self, basis05):
        s1 = random_state(basis05, 4, 4, seed=2)
        s2 = random_state(basis05, 4, 4, seed=3)
        c1, c2 = 1.3, -0.4
        combo = modal_state(
            basis05, 4, 4, amplitudes=c1 * s1.a + c2 * s2.a, velocities=c1 * s1.b + c2 * s2.b
        )
        t = 17.3
        e_combo = evolve(combo, t)
        e1, e2 = evolve(s1, t), evolve(s2, t)
        assert np.allclose(e_combo.a, c1 * e1.a + c2 * e2.a, atol=1e-12)
        assert np.allclose(e_combo.b, c1 * e1.b + c2 * e2.b, atol=1e-12)

    def test_frequencies_strictly_increasing(self, basis05):
        st = modal_state(basis05, 6, 6)
        assert np.all(np.diff(st.omega, axis=0) > 0.0)
        assert np.all(np.diff(st.omega, axis=1) > 0.0)
        mu = (np.arange(1, 7) * math.pi) ** 2
        assert np.array_equal(st.omega_sq, mu[:, None] + basis05.rho[None, :6])

    def test_energy_values(self, basis05):
        st = modal_state(basis05, 1, 1, amplitudes={(1, 1): 1.0})
        assert energy(st) == pytest.approx(st.omega[0, 0] ** 2 / 4.0, rel=1e-14)
        kin = modal_state(basis05, 1, 1, velocities={(1, 1): 1.0})
        assert energy(kin) == pytest.approx(0.25, rel=1e-14)
        assert energy(modal_state(basis05, 2, 2)) == 0.0

    def test_energy_conservation(self, basis05):
        st = random_state(basis05, 8, 8, seed=11)
        e0 = energy(st)
        series = energy_series(st, np.linspace(0.0, T_HORIZON, 1001))
        drift = np.max(np.abs(series.total - e0)) / e0
        assert drift <= 1e-12

    def test_energy_series_memory(self, basis05):
        st = random_state(basis05, 16, 16, seed=11)
        times = np.linspace(0.0, T_HORIZON, 1001)
        array = st.a.size * times.nbytes  # one (modes x times) array
        tracemalloc.start()
        try:
            energy_series(st, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.1 arrays measured: cos, sin and the velocity, and one mode
        # row's b cos
        assert peak <= 3.2 * array

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, basis05, t):
        # evolve once returned nan coefficients without a warning, and
        # energy_series nan energies with only numpy's RuntimeWarning
        st = random_state(basis05, 4, 4, seed=1)
        with pytest.raises(GridMismatch, match="finite"):
            evolve(st, t)
        with pytest.raises(GridMismatch, match="finite"):
            energy_series(st, [0.0, t, 1.0])
        with pytest.raises(GridMismatch, match="finite"):
            duhamel_forcing(st, np.zeros((4, 4, 11)), 0.1, t)

    def test_data_norms_equal_twice_energy(self, basis05):
        st = random_state(basis05, 6, 6, seed=4)
        h1w, l2 = data_norms(st)
        assert h1w + l2 == pytest.approx(2.0 * energy(st), rel=1e-14)

    def test_parseval(self, basis05):
        st = random_state(basis05, 6, 6, seed=5)
        at_t = evolve(st, 3.7)
        # reconstruct on the tensor grid and integrate discretely
        theta = np.linspace(0.0, 1.0, 2049)
        w_theta = np.full(theta.size, 1.0 / 2048)
        w_theta[[0, -1]] *= 0.5
        sines = np.sin(np.outer(np.arange(1, 7) * math.pi, theta))
        mats = basis05.mats
        lump = mats.md.copy()
        lump[:-1] += mats.me
        lump[1:] += mats.me
        field = np.einsum("nk,nt,kr->tr", at_t.a, sines, basis05.R[:6])
        norm_sq = float((field**2 * lump[None, :] * w_theta[:, None]).sum())
        assert norm_sq == pytest.approx(0.5 * np.sum(at_t.a**2), rel=1e-10)


class TestDuhamel:
    def test_zero_forcing_equals_evolve(self, basis05):
        st = random_state(basis05, 3, 3, seed=6)
        f = np.zeros((3, 3, 101))
        t = 50 * 0.04
        forced = duhamel_forcing(st, f, 0.04, t)
        free = evolve(st, t)
        assert np.allclose(forced.a, free.a, atol=0.0)

    def test_constant_forcing_second_order(self, basis05):
        st = modal_state(basis05, 1, 1)
        w = st.omega[0, 0]
        c = 0.7
        t_end = 2.0
        errs = []
        for steps in (1000, 2000):
            dt = t_end / steps
            f = np.full((1, 1, steps + 1), c)
            out = duhamel_forcing(st, f, dt, t_end)
            exact = c * (1.0 - math.cos(w * t_end)) / w**2
            errs.append(abs(out.a[0, 0] - exact))
        assert errs[1] < 1e-5
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_resonant_forcing(self, basis05):
        st = modal_state(basis05, 1, 1)
        w = st.omega[0, 0]
        steps = 4000
        t_end = 2.0
        dt = t_end / steps
        s_grid = np.arange(steps + 1) * dt
        f = np.cos(w * s_grid)[None, None, :]
        out = duhamel_forcing(st, f, dt, t_end)
        assert out.a[0, 0] == pytest.approx(t_end * math.sin(w * t_end) / (2 * w), abs=1e-6)

    def test_grid_mismatch(self, basis05):
        st = modal_state(basis05, 2, 2)
        with pytest.raises(GridMismatch):
            duhamel_forcing(st, np.zeros((3, 3, 11)), 0.1, 0.5)
        with pytest.raises(GridMismatch):
            duhamel_forcing(st, np.zeros((2, 2, 11)), 0.1, 0.5678)

    @pytest.mark.parametrize(
        "dt, t", [(math.inf, 0.5), (math.nan, 0.5), (0.1, math.nan), (0.1, math.inf)],
        ids=["dt-inf", "dt-nan", "t-nan", "t-inf"],
    )
    def test_non_finite_step_or_time(self, basis05, dt, t):
        # once the free evolution without the forcing (dt inf), a bare
        # ValueError (dt or t nan) or a bare OverflowError (t inf)
        st = modal_state(basis05, 2, 2)
        with pytest.raises(GridMismatch):
            duhamel_forcing(st, np.ones((2, 2, 11)), dt, t)


class TestBoundaryTrace:
    def test_zero_state(self, basis05):
        st = modal_state(basis05, 2, 2)
        rep = observation_norms(st, T_HORIZON, 0.01)
        assert rep.full_trace_norm_sq == 0.0
        assert rep.restricted_trace_norm_sq == 0.0

    def test_single_mode_closed_form(self, basis05):
        st = modal_state(basis05, 1, 1, amplitudes={(1, 1): 1.0})
        w = st.omega[0, 0]
        flux = basis05.flux[0]
        expect = flux**2 * 0.5 * (T_HORIZON / 2 + math.sin(2 * w * T_HORIZON) / (4 * w))
        rep = observation_norms(st, T_HORIZON, 0.01)
        assert rep.full_trace_norm_sq == pytest.approx(expect, rel=1e-12)
        assert full_trace_norm_closed(st, T_HORIZON) == pytest.approx(expect, rel=1e-12)

    def test_restricted_approaches_full(self, basis05):
        st = random_state(basis05, 4, 4, seed=8)
        rep = observation_norms(st, T_HORIZON, 1e-7)
        assert rep.restricted_trace_norm_sq == pytest.approx(
            rep.full_trace_norm_sq, rel=1e-5
        )

    def test_restricted_below_full(self, basis05):
        st = random_state(basis05, 6, 6, seed=9)
        rep = observation_norms(st, T_HORIZON, 0.01)
        assert 0.0 < rep.restricted_trace_norm_sq <= rep.full_trace_norm_sq

    @pytest.mark.parametrize("delta0", [math.nan, -0.1, 0.0, 0.5, 0.6])
    def test_delta0_outside_range_rejected(self, basis05, delta0):
        # once a negative interior norm, or a restricted trace above the full one
        st = random_state(basis05, 4, 4, seed=8)
        with pytest.raises(ParameterOutOfRange):
            observation_norms(st, 10.0, delta0)

    @pytest.mark.parametrize("shape", [(1, 1), (12, 12), (17, 9), (48, 48), (64, 64)])
    def test_full_side_matches_trace_gramian(self, basis05_k64, shape):
        """The datum's same-order pairs against the ensemble's trace Gramian."""
        st = random_state(basis05_k64, *shape, seed=18)
        expect = gramian_full_trace_norm(st, T_HORIZON)
        assert full_trace_norm_closed(st, T_HORIZON) == pytest.approx(expect, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_full_side_of_scanned_modes(self, basis05_k64, n):
        """The obstruction scan's modes R_1 sin(n pi theta) cos(omega_n t)."""
        st = modal_state(basis05_k64, n, 1, amplitudes={(n, 1): 1.0})
        expect = gramian_full_trace_norm(st, T_HORIZON)
        assert full_trace_norm_closed(st, T_HORIZON) == pytest.approx(expect, rel=1e-14, abs=0.0)

    def test_trapezoid_agrees_with_closed_form(self, basis05):
        st = random_state(basis05, 4, 4, seed=10)
        exact = observation_norms(st, T_HORIZON, 0.01)
        full, restricted, _ = trapezoid_observation_norms(st, T_HORIZON, 0.01)
        assert full == pytest.approx(exact.full_trace_norm_sq, rel=1e-5)
        assert restricted == pytest.approx(exact.restricted_trace_norm_sq, rel=1e-5)


class TestTraceGramian:
    @settings(max_examples=40, deadline=None)
    @given(
        n_max=st_.integers(1, 6),
        k_max=st_.integers(1, 16),
        T=st_.floats(0.05, 400.0),
    )
    def test_blocks_symmetric_positive_semidefinite(self, basis05, n_max, k_max, T):
        omega = modal_state(basis05, n_max, k_max).omega
        gramian = waves._trace_gramian(basis05, omega, T)
        assert gramian.shape == (n_max, 2 * k_max, 2 * k_max)
        for block in gramian:
            scale = np.abs(block).max()
            assert np.abs(block - block.T).max() <= 1e-15 * scale
            eig = np.linalg.eigvalsh(block)
            assert eig[0] >= -1e-12 * eig[-1]

    @pytest.mark.parametrize("shape", [(1, 1), (6, 5), (12, 16)])
    def test_matches_pair_weight_oracle(self, basis05, shape):
        st = random_state(basis05, *shape, seed=16)
        expect = pair_weight_full_trace_norm(st, T_HORIZON)
        assert full_trace_norm_closed(st, T_HORIZON) == pytest.approx(expect, rel=1e-13)
        assert gramian_full_trace_norm(st, T_HORIZON) == pytest.approx(expect, rel=1e-13)


class TestInteriorNorm:
    def test_zero_state(self, basis05):
        st = modal_state(basis05, 2, 2)
        assert observation_norms(st, T_HORIZON, 0.01).interior_norm_sq == 0.0

    def test_region_exhaustion(self, basis05):
        st = modal_state(basis05, 1, 1, amplitudes={(1, 1): 1.0})
        w = st.omega[0, 0]
        val = observation_norms(st, T_HORIZON, 0.2499999).interior_norm_sq
        g11 = basis05.gram[0, 0]
        amp_int = T_HORIZON / 2 + math.sin(2 * w * T_HORIZON) / (4 * w)
        expect = 2.0 * T_HORIZON * energy(st) + 0.5 * amp_int * g11
        assert val == pytest.approx(expect, rel=1e-5)

    def test_strip_measure_scaling(self, basis05):
        st = modal_state(basis05, 1, 1, amplitudes={(1, 1): 1.0})
        small = observation_norms(st, T_HORIZON, 0.001).interior_norm_sq
        double = observation_norms(st, T_HORIZON, 0.002).interior_norm_sq
        assert small > 0.0
        assert small / double == pytest.approx(0.5, rel=0.05)

    def test_trapezoid_matches_closed_form(self, basis05):
        st = random_state(basis05, 4, 4, seed=13)
        exact = observation_norms(st, T_HORIZON, 0.01).interior_norm_sq
        _, _, quad = trapezoid_observation_norms(st, T_HORIZON, 0.01)
        assert quad == pytest.approx(exact, rel=1e-5)


class TestSingleModeClosedForms:
    """One separated mode against the closed forms of oracles.single_mode_forms:
    an oracle of every observation form built from elementary integrals."""

    @pytest.mark.parametrize(
        "n, k, a, b, T, delta0",
        [
            (1, 1, 1.0, 0.0, 44.04, 0.01), (3, 2, 0.7, -1.3, 10.0, 0.02),
            (8, 5, -0.4, 2.5, T_HORIZON, 0.005), (17, 16, 1.1, 0.6, 100.0, 0.03),
            (2, 3, 0.0, 1.0, 1.5, 0.1), (64, 1, 1.0, 0.3, 44.04, 0.01),
        ],
    )
    def test_observation_norms(self, basis05, n, k, a, b, T, delta0):
        st = modal_state(basis05, n, k, amplitudes={(n, k): a}, velocities={(n, k): b})
        exact = single_mode_forms(
            n, st.omega[-1, -1], a, b, T, delta0,
            basis05.flux[k - 1], basis05.gram[k - 1, k - 1], basis05.rho[k - 1],
        )
        rep = observation_norms(st, T, delta0)
        assert rep.full_trace_norm_sq == pytest.approx(exact["full"], rel=1e-13)
        assert rep.restricted_trace_norm_sq == pytest.approx(exact["restricted"], rel=1e-13)
        assert rep.interior_norm_sq == pytest.approx(exact["interior"], rel=1e-13)

    @staticmethod
    def table(alpha, remainder):
        """E(0) over the full-side trace plus a remainder for the exact grazing
        modes (n, 1), data (1, 0), at delta0 = 0.01 and T = default_horizon(0.01)."""
        T = default_horizon(0.01)
        rho, _, _, flux = bessel_radial_mode(alpha, 1)
        ratios = {}
        for n in (1, 16, 64, 1024):
            omega = math.sqrt((n * math.pi) ** 2 + rho)
            forms = single_mode_forms(n, omega, 1.0, 0.0, T, 0.01, flux, 1.0, rho)
            ratios[n] = 0.25 * omega**2 / (forms["full"] + forms[remainder])
        return T, flux, ratios

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("remainder", ["phi_sq_square", "phi_sq_strips"])
    def test_l2_remainder_ratio_grows_like_n_squared(self, alpha, remainder):
        # past n = 1 the ratio is n^2 pi^2 / (T (R'(1)^2 + m)) to within
        # rho / (n pi)^2, with m = 1 (the square) or 2 c = 8 delta0 (the strips)
        T, flux, ratios = self.table(alpha, remainder)
        m = 1.0 if remainder == "phi_sq_square" else 0.08
        for n in (16, 64, 1024):
            assert ratios[n] / n**2 == pytest.approx(math.pi**2 / (T * (flux**2 + m)), rel=1e-2)
        assert ratios[1024] > 1e4

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_theta_derivative_remainder_keeps_the_ratio_bounded(self, alpha):
        # the ratio tends to 1 / (2 c T), c = 4 delta0, and stays below twice that
        T, _, ratios = self.table(alpha, "phi_theta_sq_strips")
        limit = 1.0 / (2.0 * 0.04 * T)
        assert max(ratios.values()) < 2.0 * limit
        assert ratios[1024] == pytest.approx(limit, rel=1e-2)


class TestBlockedAssembly:
    def test_block_invariance(self, basis05, monkeypatch):
        st = random_state(basis05, 12, 12, seed=14)
        # a block takes _BLOCK_ELEMENTS // (4 * k_max^2 * c) orders, c the
        # orders of its class from its own first one on
        monkeypatch.setattr(waves, "_BLOCK_ELEMENTS", 4 * 6 * 6 * 12 * 12)
        one_block = observation_norms(st, T_HORIZON, 0.01)
        # each parity class holds 6 of the 12 sine orders: four orders per
        # block split every class into a block of 4 and a ragged block of 2
        monkeypatch.setattr(waves, "_BLOCK_ELEMENTS", 4 * 4 * 6 * 12 * 12)
        blocked = observation_norms(st, T_HORIZON, 0.01)
        assert blocked.full_trace_norm_sq == one_block.full_trace_norm_sq
        for field in ("restricted_trace_norm_sq", "interior_norm_sq"):
            assert getattr(blocked, field) == pytest.approx(
                getattr(one_block, field), rel=1e-13
            )

    @pytest.mark.parametrize("shape", [(12, 12), (17, 9), (1, 12)])
    @pytest.mark.parametrize("orders_per_block", [None, 2])
    def test_matches_all_pairs_oracle(self, basis05, monkeypatch, shape, orders_per_block):
        n_max, k_max = shape
        st = random_state(basis05, n_max, k_max, seed=17)
        expect = all_pairs_observation_norms(st, T_HORIZON, 0.01)
        if orders_per_block is not None:  # ragged blocks in each parity class
            odd = (n_max + 1) // 2
            monkeypatch.setattr(
                waves, "_BLOCK_ELEMENTS", 4 * orders_per_block * odd * k_max * k_max
            )
        got = observation_norms(st, T_HORIZON, 0.01)
        for field in ("full_trace_norm_sq", "restricted_trace_norm_sq", "interior_norm_sq"):
            assert getattr(got, field) == pytest.approx(getattr(expect, field), rel=1e-13)

    @pytest.mark.parametrize("delta0", [1e-7, 1e-4, 1e-3, 0.01, 0.013, 0.03, 0.0312, 0.2499999])
    def test_theta_factors_vanish_across_parity(self, delta0):
        """The parity split drops the n + m odd entries; they must be roundoff."""
        n_max = 17
        factors = waves._theta_factors(n_max, delta0)
        n = np.arange(n_max)
        cross = (n[:, None] + n[None, :]) % 2 == 1
        for j in range(3):
            factor = factors[..., j]
            assert np.abs(factor[cross]).max() <= 1e-15 * np.abs(factor).max()

    @pytest.mark.parametrize("delta0", [1e-3, 0.01, 0.013])
    def test_strip_overlaps_against_extended_precision(self, delta0):
        n_max = 9
        factors = waves._theta_factors(n_max, delta0)
        mu = np.arange(1, n_max + 1) * math.pi
        for sign, got in ((1, factors[..., 1] / np.outer(mu, mu)), (-1, factors[..., 2])):
            ref = sum(mp_overlap_matrix(n_max, a, b, sign) for a, b in theta_strips(delta0))
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_memory_bound(self, basis05_k64):
        st = random_state(basis05_k64, 48, 48, seed=15)
        tracemalloc.start()
        try:
            observation_norms(st, T_HORIZON, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 3.2 MB measured: two block buffers of 2^16 pairs, no trace Gramian
        assert peak <= 30e6

    def test_memory_bound_where_every_pair_is_near(self, basis05_k64):
        """At T = 1e-6 every pair is near-resonant: the near pairs are found
        and integrated in chunks, so memory stays within the same bound."""
        st = random_state(basis05_k64, 64, 64, seed=15)
        tracemalloc.start()
        try:
            observation_norms(st, 1e-6, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 13 MB measured
        assert peak <= 30e6


def mp_pair_integral(wi, wj, u0i, du0i, u0j, du0j, T) -> float:
    """int_0^T u_i u_j dt for the solutions of u'' = -w^2 u with data (u0, du0), to 40 digits.

    u = u0 cos(w t) + (du0 / w) sin(w t); the products of cos and sin go
    through the sum and difference frequencies, exact at this precision.
    """
    with mpmath.workdps(40):
        wi, wj, T = mpmath.mpf(wi), mpmath.mpf(wj), mpmath.mpf(T)
        ci, si = mpmath.mpf(u0i), mpmath.mpf(du0i) / wi
        cj, sj = mpmath.mpf(u0j), mpmath.mpf(du0j) / wj

        def integrals(f):  # int_0^T cos(f t) dt, int_0^T sin(f t) dt
            if f == 0:
                return T, mpmath.mpf(0)
            return mpmath.sin(f * T) / f, (1 - mpmath.cos(f * T)) / f

        sinc_dif, vers_dif = integrals(wi - wj)
        sinc_tot, vers_tot = integrals(wi + wj)
        cc, ss = (sinc_dif + sinc_tot) / 2, (sinc_dif - sinc_tot) / 2
        cs, sc = (vers_tot - vers_dif) / 2, (vers_tot + vers_dif) / 2
        return float(ci * (cj * cc + sj * cs) + si * (cj * sc + sj * ss))


def pair_integrals(w, u0, du0, T):
    """The laboratory's pair integrals of the solutions with data (u0, du0), one class."""
    return waves._pair_integrals(w, T, waves._ends(u0, du0, w, T))


#: absolute bound on a pair integral with O(1) coefficients, in units of T:
#: the worst case measured is 3e-16 T; rounding the phase w T without its
#: residual in waves._ends leaves 2.4e-13 T just above the near threshold
PAIR_TOLERANCE = 1e-14


class TestPairIntegralsAgainstExtendedPrecision:
    """The Wronskian quotient and its near-pair fallback against 40-digit mpmath."""

    def test_diagonal_and_threshold_neighbours(self, basis05_k64):
        T = default_horizon(0.01)
        top = float(modal_state(basis05_k64, 64, 64).omega.max())
        # |w_i - w_j| T just below and just above _NEAR_RESONANCE, on both sides
        offsets = np.array([0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, -(1 - 1e-9), -(1 + 1e-9)])
        w = top + offsets * waves._NEAR_RESONANCE / T
        rng = np.random.default_rng(0)
        u0, du0 = rng.standard_normal(w.size), w * rng.standard_normal(w.size)
        got = pair_integrals(w, u0, du0, T)
        for i in range(w.size):
            for j in range(w.size):
                ref = mp_pair_integral(w[i], w[j], u0[i], du0[i], u0[j], du0[j], T)
                assert abs(got[i, j] - ref) <= PAIR_TOLERANCE * T

    def test_far_pairs_at_the_top_frequency(self, basis05_k64):
        T = default_horizon(0.01)
        w = modal_state(basis05_k64, 64, 64).omega.ravel()
        rng = np.random.default_rng(1)
        u0, du0 = rng.standard_normal(w.size), w * rng.standard_normal(w.size)
        # the top mode and every seventh of the 4096, as one class
        modes = np.unique(np.r_[np.argmax(w), 0 : w.size : 7])
        top = int(np.argmax(w[modes]))
        got = pair_integrals(w[modes], u0[modes], du0[modes], T)[top]
        i = modes[top]
        for got_j, j in zip(got, modes):
            ref = mp_pair_integral(w[i], w[j], u0[i], du0[i], u0[j], du0[j], T)
            assert abs(got_j - ref) <= PAIR_TOLERANCE * T

    @pytest.mark.parametrize("k_max", [16, 1])  # with one radial mode every pair is near
    def test_trace_gramian_basis_pairs(self, basis05, k_max):
        T = T_HORIZON
        omega = modal_state(basis05, 16, k_max).omega[[0, 15]]  # lowest and highest order
        gramian = waves._trace_gramian(basis05, omega, T)
        flux = np.tile(basis05.flux[:k_max], 2)
        for n in range(2):
            w = np.tile(omega[n], 2)
            u0 = np.repeat([1.0, 0.0], k_max)  # cos, then sin
            du0 = np.concatenate((np.zeros(k_max), omega[n]))
            for i in range(2 * k_max):
                for j in range(i, 2 * k_max):
                    ref = mp_pair_integral(w[i], w[j], u0[i], du0[i], u0[j], du0[j], T)
                    weight = flux[i] * flux[j]
                    assert abs(gramian[n, i, j] - ref * weight) <= PAIR_TOLERANCE * T * abs(weight)

    @pytest.mark.parametrize("T", [1e-6, default_horizon(0.01)], ids=["T-1e-6", "default-horizon"])
    def test_state_pairs_to_roundoff(self, basis05, T):
        """Every pair of a 3x2 state as one class, within 1e-14 of the
        Cauchy-Schwarz scale sqrt(int u_i^2 int u_j^2).  At T = 1e-6 every
        pair takes the direct formula, whose sine integral (1 - cos(wT))/w
        once cancelled to 1e-11 relative."""
        st = random_state(basis05, 3, 2, seed=2)
        w, u0, du0 = st.omega.ravel(), st.a.ravel(), st.b.ravel()
        got = pair_integrals(w, u0, du0, T)
        ref = np.array([
            [mp_pair_integral(w[i], w[j], u0[i], du0[i], u0[j], du0[j], T) for j in range(w.size)]
            for i in range(w.size)
        ])
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)


class TestAgainstFourKernelOracle:
    """The Wronskian path against the four-kernel form time was first integrated with."""

    @settings(max_examples=50, deadline=None)
    @given(
        n_max=st_.integers(1, 24),
        k_max=st_.integers(1, 24),
        T=st_.floats(1.0, 60.0, exclude_min=True, exclude_max=True),
        delta0=st_.floats(1e-4, 0.24, exclude_min=True, exclude_max=True),
        seed=st_.integers(0, 2**16),
    )
    def test_norms_and_gramian(self, basis05_k64, n_max, k_max, T, delta0, seed):
        st = random_state(basis05_k64, n_max, k_max, seed)
        got = observation_norms(st, T, delta0)
        expect = all_pairs_observation_norms(st, T, delta0)
        for field in ("full_trace_norm_sq", "restricted_trace_norm_sq", "interior_norm_sq"):
            assert getattr(got, field) == pytest.approx(getattr(expect, field), rel=1e-12)
        gramian = waves._trace_gramian(basis05_k64, st.omega, T)
        oracle = four_kernel_trace_gramian(basis05_k64.flux, st.omega, T)
        scale = np.abs(oracle).max(axis=(1, 2))
        assert np.all(np.abs(gramian - oracle).max(axis=(1, 2)) <= 1e-12 * scale)


def norms_of(report):
    return (report.full_trace_norm_sq, report.restricted_trace_norm_sq, report.interior_norm_sq)


class TestSymmetricHalfAgainstBlockedReference:
    """The symmetric half of each form against the blocked path it replaced.

    The reference (tests/oracles.py) forms every block of sine orders
    against its whole parity class and scans each block for near pairs.
    Differences are measured against the sum of the terms' magnitudes,
    which is the norm itself unless the terms cancel: the two paths sum in
    different orders, so where the terms cancel they agree to that scale,
    not to the norm.  Where that sum is within WELL_CONDITIONED of the
    norm, they agree within 1e-14 of the norm as well.  The four-kernel
    oracle carries its own rounding at the level of 1e-13 where delta0 is
    1e-4 (its mirrored strip near theta = 1 and its uncorrected phases),
    with the blocked path as well as without it; there it is held to
    1e-12 of the magnitude sum only.
    """

    WELL_CONDITIONED = 4.0

    def close(self, got, ref, scale, tol):
        assert abs(got - ref) <= tol * scale
        if scale <= self.WELL_CONDITIONED * abs(ref):
            assert abs(got - ref) <= 1e-14 * abs(ref)

    @settings(max_examples=20, deadline=None)
    @given(
        n_max=st_.one_of(
            st_.just(1), st_.integers(1, 24).map(lambda n: 2 * n - 1), st_.integers(1, 48)
        ),
        k_max=st_.one_of(st_.just(1), st_.integers(1, 48)),
        delta0=st_.sampled_from([1e-4, 0.013, 0.2]),
        log_T=st_.floats(-6.0, 3.0),
        seed=st_.integers(0, 2**16),
    )
    def test_norms(self, basis05_k64, n_max, k_max, delta0, log_T, seed):
        T = 10.0**log_T
        st = random_state(basis05_k64, n_max, k_max, seed)
        got = norms_of(observation_norms(st, T, delta0))
        scale = norms_of(term_magnitudes(st, T, delta0))
        restricted, interior = blocked_segment_and_strip_norms(st, T, delta0)
        reference = (blocked_full_trace_norm(st, T), restricted, interior)
        for g, ref, s in zip(got, reference, scale):
            self.close(g, ref, s, 1e-14)
        assert full_trace_norm_closed(st, T) == got[0]
        for g, ref, s in zip(got, norms_of(all_pairs_observation_norms(st, T, delta0)), scale):
            if delta0 < 1e-3:
                assert abs(g - ref) <= 1e-12 * s
            else:
                self.close(g, ref, s, 1e-14)
        if delta0 < 1 / 32 and T > observation_time_threshold(delta0, default_beta(delta0)):
            record = observability_ratio(st, DomainSpec(delta0), T)
            assert (record.trace_restricted, record.interior_term) == got[1:]
            assert abs(record.trace_restricted - restricted) <= 1e-14 * scale[1]
            assert abs(record.interior_term - interior) <= 1e-14 * scale[2]


class TestNearPairs:
    """The sorted search finds exactly the pairs of the elementwise test."""

    @staticmethod
    def found(w, classes, T):
        """Flat keys i * size + j of the pairs _near_pairs yields, in its order."""
        keys = []
        for i, j in waves._near_pairs(w, classes, T):
            assert np.all(i <= j)
            keys.append(i * w.size + j)
        return np.concatenate(keys)

    @staticmethod
    def brute(w, classes, T):
        mask = (classes[:, None] == classes[None, :]) & (np.abs(w[:, None] - w[None, :]) < 1.0 / T)
        return np.flatnonzero(np.triu(mask))

    def check(self, w, classes, T):
        found = self.found(w, classes, T)
        assert np.all(np.diff(found // w.size) >= 0)  # in increasing i
        assert np.array_equal(np.sort(found), self.brute(w, classes, T))

    @pytest.mark.parametrize("shape", [(1, 1), (7, 9), (16, 16), (33, 5), (48, 48)])
    @pytest.mark.parametrize("T", [1e-6, 0.3, 44.0, 1e3, 1e9])
    def test_parity_and_order_classes(self, basis05_k64, shape, T):
        omega = modal_state(basis05_k64, *shape).omega
        w = omega.ravel()
        for classes in (np.arange(w.size) // shape[1], (np.arange(w.size) // shape[1]) % 2):
            self.check(w, classes, T)

    @pytest.mark.parametrize("x", [3.0, 251.2, 1e4])
    @pytest.mark.parametrize("T", [1e-6, 1.0, 44.0, 1e10])
    def test_gaps_at_the_threshold(self, x, T):
        """Gaps of 1/T and a few ulps either side, with repeated frequencies."""
        h = 1.0 / T
        w = np.array([x, x + h, x - h])
        for _ in range(2):
            w = np.concatenate((w, np.nextafter(w[1:3], np.inf), np.nextafter(w[1:3], -np.inf)))
        w = np.concatenate((w, w))
        self.check(w, np.zeros(w.size, dtype=int), T)

    def test_chunks_cover_each_pair_once(self, basis05_k64):
        w = modal_state(basis05_k64, 32, 64).omega.ravel()
        chunks = list(waves._near_pairs(w, np.zeros(w.size, dtype=int), 1e-6))
        assert len(chunks) > 1
        i = np.concatenate([i for i, _ in chunks])
        assert i.size == w.size * (w.size + 1) // 2  # every pair is near
        assert np.all(np.diff(i) >= 0)

    def test_windows_wider_than_a_chunk(self, basis05_k64, monkeypatch):
        """At T = 1e-6 each mode's window holds all 2048 modes, so with
        chunks of 64 candidates a window spans many chunk ends alone: those
        empty chunks are skipped and each mode comes as one chunk."""
        w = modal_state(basis05_k64, 32, 64).omega.ravel()
        classes = np.zeros(w.size, dtype=int)
        default = self.found(w, classes, 1e-6)
        monkeypatch.setattr(waves, "_NEAR_CHUNK", 64)
        chunks = list(waves._near_pairs(w, classes, 1e-6))
        assert len(chunks) == w.size
        assert all(np.all(i == i[0]) for i, _ in chunks)
        assert np.array_equal(self.found(w, classes, 1e-6), default)

    def test_chunk_size_moves_only_the_rounding(self, basis05_k64, monkeypatch):
        """The near pairs are summed chunk by chunk, so a smaller chunk only
        reorders the sums of the segment and strip forms."""
        st = random_state(basis05_k64, 32, 64, seed=15)
        default = norms_of(observation_norms(st, 1e-6, 0.01))
        monkeypatch.setattr(waves, "_NEAR_CHUNK", 8)
        small = norms_of(observation_norms(st, 1e-6, 0.01))
        assert np.allclose(small, default, rtol=1e-14, atol=0.0)


class TestStateRecord:
    """A state derives its frequencies from its basis whenever it is made
    (a state wider than its basis: tests/test_radial.py)."""

    def test_replaced_state_derives_its_frequencies(self, basis05):
        st = random_state(basis05, 4, 6, seed=3)
        narrow = dataclasses.replace(st, a=st.a[:2, :3], b=st.b[:2, :3])
        fresh = random_state(basis05, 2, 3, seed=3)
        assert np.array_equal(narrow.omega, fresh.omega)
        assert np.array_equal(narrow.omega_sq, fresh.omega_sq)
        assert energy(narrow) == energy(fresh)

    @pytest.mark.parametrize(
        "a, b",
        [
            (np.zeros((2, 3)), np.zeros((3, 2))),
            (np.zeros((2, 3)), np.zeros((2, 2))),
            (np.zeros(3), np.zeros(3)),
            ([[0.0]], [[0.0]]),
        ],
        ids=["transposed", "narrower-b", "one-dimensional", "nested-lists"],
    )
    def test_shapes_that_differ_refused(self, basis05, a, b):
        with pytest.raises(GridMismatch, match="2-D arrays of one shape"):
            waves.ModalCoefficients(basis05, a, b)

    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_coefficients_refused(self, basis05, name, value):
        # a nan amplitude once made a state whose energy was nan
        coeffs = {"a": np.zeros((2, 2)), "b": np.zeros((2, 2))}
        coeffs[name][1, 0] = value
        with pytest.raises(GridMismatch, match="must be finite"):
            waves.ModalCoefficients(basis05, **coeffs)

    def test_frequencies_cannot_be_passed(self, basis05):
        st = random_state(basis05, 2, 2, seed=1)
        with pytest.raises(TypeError):
            waves.ModalCoefficients(basis05, st.a, st.b, omega=st.omega)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(st, omega_sq=st.omega_sq)


class TestRandomState:
    def test_truncation_prefix_property(self, basis05):
        small = random_state(basis05, 8, 8, seed=42, member=3)
        large = random_state(basis05, 16, 16, seed=42, member=3)
        assert np.array_equal(large.a[:8, :8], small.a)
        assert np.array_equal(large.b[:8, :8], small.b)

    def test_reproducible(self, basis05):
        a = random_state(basis05, 4, 4, seed=5, member=1)
        b = random_state(basis05, 4, 4, seed=5, member=1)
        assert np.array_equal(a.a, b.a)

    def test_cap(self, basis05):
        with pytest.raises(TruncationTooSmall):
            random_state(basis05, RANDOM_CAP + 1, 4, seed=0)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 12), (16, 16), (64, 64)])
    def test_prefix_draw_matches_master_block(self, basis05_k64, shape):
        """The draw helper reads the prefix of each member's stream: the
        slice of the whole master block drawn in one shot, as first written,
        and the datum of random_state."""
        n_max, k_max = shape
        a, b = waves._random_coefficients(23, [0, 99], n_max, k_max)
        n = np.arange(1, RANDOM_CAP + 1)
        damp = 1.0 / (n[:, None] ** 2 + n[None, :] ** 2)
        for j, member in enumerate((0, 99)):
            raw = np.random.default_rng([23, member]).standard_normal((2, RANDOM_CAP, RANDOM_CAP))
            assert np.array_equal(a[j], (raw[0] * damp)[:n_max, :k_max])
            assert np.array_equal(b[j], (raw[1] * damp)[:n_max, :k_max])
            st = random_state(basis05_k64, n_max, k_max, 23, member=member)
            assert np.array_equal(a[j], st.a)
            assert np.array_equal(b[j], st.b)


def mp_overlap_matrix(n_max, a, b, sign):
    """int_a^b cos(n pi t) cos(m pi t) dt (sign 1) or sin sin (sign -1), to 40 digits."""

    def primitive(k, x):
        return x if k == 0 else mpmath.sin(k * mpmath.pi * x) / (k * mpmath.pi)

    out = np.zeros((n_max, n_max))
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        for n in range(1, n_max + 1):
            for m in range(1, n_max + 1):
                dif = primitive(n - m, b) - primitive(n - m, a)
                tot = primitive(n + m, b) - primitive(n + m, a)
                out[n - 1, m - 1] = float((dif + sign * tot) / 2)
    return out


class TestOverlapMatrices:
    @pytest.mark.parametrize("a, b", [(0.01, 0.99), (0.0, 0.04), (0.96, 1.0), (0.2, 0.7)])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_toeplitz_hankel_overlaps_bitwise(self, a, b, sign):
        """Sines of the 2 n - 1 difference and sum frequencies, gathered,
        give the very floats of the n x n grid of n - m and n + m.  Short
        sine intervals, n_max pi (b - a) <= 1, take Gauss-Legendre instead
        and are checked against extended precision below."""
        for n_max in range(1, 65):
            if sign < 0 and n_max * math.pi * (b - a) <= 1.0:
                continue
            assert np.array_equal(
                waves._trig_overlaps(n_max, a, b, sign), grid_trig_overlaps(n_max, a, b, sign)
            )

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, 4e-2), (0.0, 4e-4), (0.0, 4e-5), (0.0, 4e-7), (0.3, 0.3 + 4e-5)],
        ids=["strip-1e-2", "strip-1e-4", "strip-1e-5", "strip-1e-7", "interior-1e-5"],
    )
    def test_short_sine_overlaps_against_extended_precision(self, a, b):
        """Short intervals, where the two antiderivatives of the closed form cancel."""
        G = waves._trig_overlaps(8, a, b, -1.0)
        ref = mp_overlap_matrix(8, a, b, -1)
        assert np.abs(G - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(G, G.T)

    def test_full_interval_orthogonality(self):
        G = waves._trig_overlaps(6, 0.0, 1.0, -1.0)
        assert np.allclose(G, 0.5 * np.eye(6), atol=1e-14)

    def test_against_quadrature(self):
        from scipy.integrate import quad

        G = waves._trig_overlaps(4, 0.1, 0.7, -1.0)
        for n in range(1, 5):
            for m in range(1, 5):
                ref, _ = quad(
                    lambda th: math.sin(n * math.pi * th) * math.sin(m * math.pi * th),
                    0.1,
                    0.7,
                )
                assert G[n - 1, m - 1] == pytest.approx(ref, abs=1e-12)
