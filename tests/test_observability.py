import math
import tracemalloc

import numpy as np
import pytest
from oracles import per_member_ensemble_ratios

from degenwave import waves
from degenwave.errors import (
    InsufficientData,
    NonPositiveInput,
    ParameterOutOfRange,
    TimeTooShort,
    TruncationTooSmall,
)
from degenwave.observability import (
    default_beta,
    default_horizon,
    hidden_trace_stability,
    high_mode_obstruction_scan,
    observability_ratio,
)
from degenwave.params import observation_time_threshold, theta_strips
from degenwave.waves import (
    RANDOM_CAP,
    data_norms,
    full_trace_norm_closed,
    modal_state,
    observation_norms,
    random_state,
    sine_overlap_matrix,
)


@pytest.fixture(scope="module")
def horizon(domain001):
    return default_horizon(domain001.delta0)


class TestObservabilityRatio:
    def test_zero_datum_degenerate(self, basis05, domain001, horizon):
        rec = observability_ratio(modal_state(basis05, 2, 2), domain001, horizon)
        assert rec.degenerate
        assert math.isnan(rec.ratio)

    def test_single_mode_positive(self, basis05, domain001, horizon):
        st = modal_state(basis05, 1, 1, amplitudes={(1, 1): 1.0})
        rec = observability_ratio(st, domain001, horizon)
        assert rec.E0 == pytest.approx(st.omega[0, 0] ** 2 / 4.0)
        assert rec.trace_restricted > 0.0
        assert rec.interior_term > 0.0
        assert math.isfinite(rec.ratio) and rec.ratio > 0.0

    def test_scaling_invariance(self, basis05, domain001, horizon):
        st1 = modal_state(basis05, 2, 2, amplitudes={(1, 1): 1.0}, velocities={(2, 1): 0.5})
        st2 = modal_state(basis05, 2, 2, amplitudes={(1, 1): 3.7}, velocities={(2, 1): 1.85})
        r1 = observability_ratio(st1, domain001, horizon)
        r2 = observability_ratio(st2, domain001, horizon)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-10)

    def test_full_side_not_computed(self, monkeypatch, basis05, domain001, horizon):
        # the ratio reads the restricted trace and the interior norm only
        st = random_state(basis05, 8, 8, 3)
        norms = observation_norms(st, horizon, domain001.delta0)

        def full_side(*args):
            raise AssertionError("observability_ratio computed the full side")

        monkeypatch.setattr(waves, "full_trace_norm_closed", full_side)
        rec = observability_ratio(st, domain001, horizon)
        assert rec.trace_restricted == norms.restricted_trace_norm_sq
        assert rec.interior_term == norms.interior_norm_sq
        assert rec.ratio == rec.E0 / (norms.restricted_trace_norm_sq + norms.interior_norm_sq)

    def test_time_gate(self, basis05, domain001):
        st = modal_state(basis05, 1, 1, amplitudes={(1, 1): 1.0})
        threshold = observation_time_threshold(domain001.delta0, default_beta(0.01))
        with pytest.raises(TimeTooShort):
            observability_ratio(st, domain001, 0.9 * threshold)


class TestObstructionScan:
    def test_slope_and_boundedness(self, basis05_k64, domain001, horizon):
        scan = high_mode_obstruction_scan(
            [8, 16, 32, 64], horizon, domain001, basis=basis05_k64
        )
        assert 1.9 <= scan.slope <= 2.1
        assert scan.remedied_max_over_min <= 10.0
        assert all(b > a for a, b in zip(scan.pure_ratios, scan.pure_ratios[1:]))

    def test_pure_ratio_formula(self, basis05_k64, domain001, horizon):
        scan = high_mode_obstruction_scan(
            [8, 16, 32, 64], horizon, domain001, basis=basis05_k64
        )
        n = 16
        w = math.sqrt((n * math.pi) ** 2 + basis05_k64.rho[0])
        flux_sq = basis05_k64.flux[0] ** 2
        expect = (w**2 / 4.0) / (
            flux_sq * 0.5 * (horizon / 2.0 + math.sin(2.0 * w * horizon) / (4.0 * w))
        )
        assert scan.pure_ratios[1] == pytest.approx(expect, rel=1e-12)

    def test_remedied_ratio_formula(self, basis05_k64, domain001, horizon):
        """Remedied ratios against the per-mode closed forms of R_1 sin(n pi theta) cos(w t)."""
        ns = [8, 16, 32, 64]
        scan = high_mode_obstruction_scan(ns, horizon, domain001, basis=basis05_k64)
        T, d0 = horizon, domain001.delta0
        flux_sq = basis05_k64.flux[0] ** 2
        rho1 = basis05_k64.rho[0]
        r_mass = basis05_k64.consistent_gram(1)[0, 0]
        for n, got in zip(ns, scan.remedied_ratios):
            w = math.sqrt((n * math.pi) ** 2 + rho1)
            cos2 = 0.5 * T + math.sin(2.0 * w * T) / (4.0 * w)
            sin2 = T - cos2
            sin_sq = [(b - a, sine_overlap_matrix(n, a, b)[n - 1, n - 1]) for a, b in theta_strips(d0)]
            g_s = sum(s for _, s in sin_sq)
            g_c = sum(width - s for width, s in sin_sq)  # int cos^2 = width - int sin^2
            interior = (
                sin2 * w**2 * g_s * r_mass  # (phi_t)^2
                + cos2 * (n * math.pi) ** 2 * g_c * r_mass  # (d_theta phi)^2
                + cos2 * g_s * rho1  # r^alpha (d_r phi)^2
                + cos2 * g_s * r_mass  # phi^2
            )
            restricted = flux_sq * sine_overlap_matrix(n, d0, 1.0 - d0)[n - 1, n - 1] * cos2
            assert got == pytest.approx((w**2 / 4.0) / (restricted + interior), rel=1e-12)

    def test_insufficient_data(self, basis05_k64, domain001, horizon):
        with pytest.raises(InsufficientData):
            high_mode_obstruction_scan([8, 16, 32], horizon, domain001, basis=basis05_k64)
        with pytest.raises(InsufficientData):
            high_mode_obstruction_scan([8, 10, 12, 14], horizon, domain001, basis=basis05_k64)

    def test_non_integral_order_rejected(self, basis05_k64, domain001, horizon):
        # 8.7 was once scanned as order 8
        with pytest.raises(ParameterOutOfRange, match="integer"):
            high_mode_obstruction_scan([8.7, 16, 32, 64], horizon, domain001, basis=basis05_k64)

    def test_orders_counted_once(self, basis05_k64, domain001, horizon):
        # [8, 8, 8, 80] once fitted its slope through two orders
        with pytest.raises(InsufficientData):
            high_mode_obstruction_scan([8, 8, 8, 80], horizon, domain001, basis=basis05_k64)
        with pytest.raises(ParameterOutOfRange, match="once"):
            high_mode_obstruction_scan([8, 16, 16, 32, 64], horizon, domain001, basis=basis05_k64)


class TestHiddenTraceEnsemble:
    def test_reproducible(self, basis05_k64, horizon):
        a = hidden_trace_stability(basis05_k64, 7, 10, (8, 8), horizon)
        b = hidden_trace_stability(basis05_k64, 7, 10, (8, 8), horizon)
        assert a == b

    def test_single_mode_member_closed_form(self, basis05_k64, horizon):
        st = modal_state(basis05_k64, 1, 1, amplitudes={(1, 1): 2.0}, velocities={(1, 1): -1.0})
        trace = full_trace_norm_closed(st, horizon)
        h1w = 0.5 * st.omega[0, 0] ** 2 * 4.0
        l2 = 0.5 * 1.0
        w = st.omega[0, 0]
        a, b = 2.0, -1.0
        c, s = a, b / w
        # int (c cos + s sin)^2 = c^2 I_cc + 2 c s I_cs + s^2 I_ss
        icc = horizon / 2.0 + math.sin(2 * w * horizon) / (4 * w)
        iss = horizon / 2.0 - math.sin(2 * w * horizon) / (4 * w)
        ics = math.sin(w * horizon) ** 2 / (2 * w)
        expect = basis05_k64.flux[0] ** 2 * 0.5 * (c**2 * icc + 2 * c * s * ics + s**2 * iss)
        assert trace == pytest.approx(expect, rel=1e-12)
        assert trace / (h1w + l2) > 0.0

    def test_stability_under_doubling(self, basis05_k64, horizon):
        base, doubled, increase = hidden_trace_stability(
            basis05_k64, 20250810, 50, (16, 16), horizon
        )
        assert increase <= 0.05

    def test_ratio_homogeneity(self, basis05_k64, horizon):
        st = random_state(basis05_k64, 8, 8, seed=3, member=0)
        scaled = modal_state(basis05_k64, 8, 8, amplitudes=5.0 * st.a, velocities=5.0 * st.b)
        r1 = full_trace_norm_closed(st, horizon) / sum(data_norms(st))
        r2 = full_trace_norm_closed(scaled, horizon) / sum(data_norms(scaled))
        assert r2 == pytest.approx(r1, rel=1e-10)


def counted_generators(monkeypatch) -> list:
    """The seed entropy of every numpy Generator made while the patch holds."""
    made = []
    default_rng = np.random.default_rng

    def counting(seed=None):
        made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return made


class TestBatchedEnsemble:
    @pytest.mark.parametrize("truncation", [(1, 1), (8, 8), (16, 16), (7, 12)])
    def test_matches_per_member_oracle(self, basis05_k64, horizon, truncation):
        """Both truncations of the stability run against one member at a time."""
        doubled_trunc = tuple(2 * x for x in truncation)
        base, doubled, _ = hidden_trace_stability(basis05_k64, 11, 30, truncation, horizon)
        for stats, trunc in ((base, truncation), (doubled, doubled_trunc)):
            expect = per_member_ensemble_ratios(basis05_k64, 11, 30, trunc, horizon)
            assert np.allclose(stats.ratios, expect, rtol=1e-13, atol=0.0)
            for member in (0, 29):
                st = random_state(basis05_k64, *trunc, 11, member=member)
                one = full_trace_norm_closed(st, horizon) / sum(data_norms(st))
                assert stats.ratios[member] == pytest.approx(one, rel=1e-13)

    def test_chunk_invariance(self, basis05_k64, horizon, monkeypatch):
        whole = hidden_trace_stability(basis05_k64, 12, 20, (8, 8), horizon)
        # three members per chunk at the doubled truncation (16, 16):
        # chunks of 3 and a ragged 2
        monkeypatch.setattr(waves, "_BLOCK_ELEMENTS", 3 * 16 * 32)
        chunked = hidden_trace_stability(basis05_k64, 12, 20, (8, 8), horizon)
        for got, ref, trunc in zip(chunked[:2], whole[:2], ((8, 8), (16, 16))):
            assert np.allclose(got.ratios, ref.ratios, rtol=1e-14, atol=0.0)
            expect = per_member_ensemble_ratios(basis05_k64, 12, 20, trunc, horizon)
            assert np.allclose(got.ratios, expect, rtol=1e-13, atol=0.0)

    def test_each_member_drawn_once(self, basis05_k64, horizon, monkeypatch):
        made = counted_generators(monkeypatch)
        # two members per chunk at (16, 16): chunks of 2 and a ragged 1
        monkeypatch.setattr(waves, "_BLOCK_ELEMENTS", 2 * 16 * 32)
        hidden_trace_stability(basis05_k64, 12, 5, (8, 8), horizon)
        assert made == [[12, member] for member in range(5)]

    def test_memory_bound(self, basis05_k64, horizon):
        tracemalloc.start()
        try:
            hidden_trace_stability(basis05_k64, 13, 2000, (32, 32), horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    @pytest.mark.parametrize("size", [0, -3])
    def test_empty_ensemble_rejected(self, basis05_k64, horizon, size):
        with pytest.raises(ParameterOutOfRange):
            hidden_trace_stability(basis05_k64, 7, size, (4, 4), horizon)

    def test_negative_seed_rejected_before_any_member(self, basis05_k64, horizon, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            waves, "_random_coefficients", lambda *args: drawn.append(args)
        )
        made = counted_generators(monkeypatch)
        with pytest.raises(ParameterOutOfRange):
            hidden_trace_stability(basis05_k64, -1, 4, (4, 4), horizon)
        assert drawn == [] and made == []

    @pytest.mark.parametrize("seed", [1.5, math.nan])
    def test_non_integer_seed_rejected_before_any_member(
        self, basis05_k64, horizon, monkeypatch, seed
    ):
        # once numpy's bare TypeError: seed must be integer
        made = counted_generators(monkeypatch)
        with pytest.raises(ParameterOutOfRange, match="integer"):
            hidden_trace_stability(basis05_k64, seed, 4, (4, 4), horizon)
        assert made == []

    @pytest.mark.parametrize(
        "size, truncation, error",
        [(2.5, (4, 4), ParameterOutOfRange), (4, (4.5, 4), TruncationTooSmall),
         (4, (4, math.nan), TruncationTooSmall)],
        ids=["size", "n_max", "k_max"],
    )
    def test_non_integral_count_rejected_before_any_member(
        self, basis05_k64, horizon, monkeypatch, size, truncation, error
    ):
        # once a bare TypeError from numpy; (4.5, 4) must not pass as its doubling (9, 8)
        made = counted_generators(monkeypatch)
        with pytest.raises(error, match="integer"):
            hidden_trace_stability(basis05_k64, 7, size, truncation, horizon)
        assert made == []

    @pytest.mark.parametrize("truncation", [4.5, 4, (4,), (4, 4, 4), None], ids=str)
    def test_truncation_not_a_pair_rejected_before_any_member(
        self, basis05_k64, horizon, monkeypatch, truncation
    ):
        # once a bare TypeError: argument after * must be an iterable
        made = counted_generators(monkeypatch)
        with pytest.raises(TruncationTooSmall, match="pair"):
            hidden_trace_stability(basis05_k64, 7, 2, truncation, horizon)
        assert made == []

    def test_integral_float_counts_are_those_integers(self, basis05_k64, horizon):
        as_floats = hidden_trace_stability(basis05_k64, 7, 4.0, (4.0, np.float64(4.0)), horizon)
        assert as_floats == hidden_trace_stability(basis05_k64, 7, 4, (4, 4), horizon)
        assert type(as_floats[0].n_max) is int and type(as_floats[0].size) is int

    def test_doubling_above_cap_rejected_before_any_draw(self, basis05_k64, horizon, monkeypatch):
        made = counted_generators(monkeypatch)
        with pytest.raises(TruncationTooSmall):
            hidden_trace_stability(basis05_k64, 7, 4, (RANDOM_CAP // 2 + 1, 4), horizon)
        assert made == []


class TestTraceTimeMonotonicity:
    def test_nondecreasing_in_horizon(self, basis05, horizon):
        st = random_state(basis05, 4, 4, seed=21)
        values = [
            full_trace_norm_closed(st, t_prime)
            for t_prime in np.linspace(1.0, horizon, 25)
        ]
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-12 * max(values))

    @pytest.mark.parametrize("T", [-44.0, 0.0, math.nan, math.inf])
    def test_non_positive_horizon_rejected(self, basis05, T):
        # every time form shares one kernel source: the full trace, the
        # restricted trace and interior norms, and the ensemble Gramian
        st = random_state(basis05, 4, 4, seed=21)
        with pytest.raises(NonPositiveInput):
            full_trace_norm_closed(st, T)
        with pytest.raises(NonPositiveInput):
            observation_norms(st, T, 0.01)
        with pytest.raises(NonPositiveInput):
            hidden_trace_stability(basis05, 7, 4, (4, 4), T)


# A horizon at which the phase max(omega) T reaches 2^53 is rounded by up to
# a radian: at T = 1e30 the forms once came back wrong with no error (full/T
# 2.7% off, at 1e50 a negative interior norm), and at T = 1e200 died in
# _trig_integrals with a bare OverflowError
PAST_PHASE_RESOLUTION = [
    lambda basis, domain, T: full_trace_norm_closed(random_state(basis, 2, 3, 1), T),
    lambda basis, domain, T: observation_norms(random_state(basis, 2, 3, 1), T, domain.delta0),
    lambda basis, domain, T: observability_ratio(random_state(basis, 2, 3, 1), domain, T),
    lambda basis, domain, T: high_mode_obstruction_scan([1, 2, 4, 8], T, domain, basis),
    lambda basis, domain, T: hidden_trace_stability(basis, 7, 2, (2, 2), T),
]


@pytest.mark.parametrize("T", [1e30, 1e200])
@pytest.mark.parametrize(
    "call", PAST_PHASE_RESOLUTION,
    ids=["full-trace", "observation-norms", "ratio", "obstruction-scan", "ensemble"],
)
def test_horizon_past_phase_resolution_rejected(basis05, domain001, call, T):
    with pytest.raises(ParameterOutOfRange, match="phase"):
        call(basis05, domain001, T)


def test_horizon_just_below_phase_resolution_admitted(basis05, domain001):
    state = random_state(basis05, 2, 3, 1)
    T = 0.99 * 2.0**53 / state.omega.max()
    assert math.isfinite(full_trace_norm_closed(state, T))
