import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenwave.errors import (
    BetaOutOfRange,
    DegenWaveError,
    GridMismatch,
    InvalidMeshSpec,
    NonPositiveInput,
    ParameterOutOfRange,
    TimeTooShort,
)
from degenwave.carleman import build_weight_field
from degenwave.hardy import blowup_rate_fit, critical_truncated_constant
from degenwave.observability import default_horizon
from degenwave.params import (
    CarlemanParams,
    CutoffSpec,
    DegeneracyParams,
    DomainSpec,
    _real,
    _reals,
    _whole,
    beta_upper_bound,
    eval_cutoff,
    observation_time_threshold,
    theta_cutoff,
    theta_strips,
    time_cutoff,
    validate_carleman_params,
)
from degenwave.radial import (
    RadialMesh,
    assemble_weighted_system,
    build_graded_mesh,
    build_log_mesh,
    build_uniform_mesh,
    elliptic_identity_residual,
    solve_radial_basis,
)
from degenwave.waves import (
    duhamel_forcing,
    energy_series,
    evolve,
    modal_state,
    observation_norms,
    project_initial_data,
    random_state,
)
from oracles import _band_certified, two_band_cutoff


class TestDegeneracyParams:
    def test_valid_range(self):
        assert DegeneracyParams(0.5).alpha == 0.5

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_outside_range(self, alpha):
        with pytest.raises(ValueError):
            DegeneracyParams(alpha)

    def test_range_error_is_typed(self):
        with pytest.raises(ParameterOutOfRange) as info:
            DegeneracyParams(1.2)
        assert isinstance(info.value, DegenWaveError)


class TestDomainSpec:
    def test_strips_disjoint(self):
        strips = theta_strips(DomainSpec(0.01).delta0)
        assert strips == ((0.0, 0.04), (0.96, 1.0))

    def test_strips_merge_when_overlapping(self):
        assert theta_strips(0.2) == ((0.0, 1.0),)

    @pytest.mark.parametrize("d0", [0.0, 1.0 / 32.0, 0.5])
    def test_rejects_bad_margin(self, d0):
        with pytest.raises(ValueError):
            DomainSpec(d0)
        with pytest.raises(ParameterOutOfRange):
            DomainSpec(d0)


class TestObservationTimeThreshold:
    def test_balanced_example(self):
        # both branches equal 40 at delta0 = 0.01, beta = 0.005
        assert observation_time_threshold(0.01, 0.005) == pytest.approx(40.0)

    def test_geometry_dominated(self):
        assert observation_time_threshold(0.25, 8.0) == pytest.approx(8.0)

    def test_large_beta_limit(self):
        assert observation_time_threshold(1.0 / 32.0, 1e9) == pytest.approx(
            4.0 * math.sqrt(32.0)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            observation_time_threshold(0.0, 1.0)
        with pytest.raises(NonPositiveInput):
            observation_time_threshold(0.01, -1.0)


class TestValidateCarlemanParams:
    def test_canonical_configuration(self):
        p = validate_carleman_params(0.5, DomainSpec(0.01), beta=0.005, T=50.0)
        assert p.t0 == pytest.approx(25.0)
        assert p.gamma == pytest.approx((0.005 * 2500.0 - 8.0) / 8.0)
        assert p.gamma_hat == pytest.approx(p.gamma / 4.0)
        assert 0.0 < p.epsilon < p.T / 16.0
        assert p.A1 < p.A0 < 1.0

    def test_time_too_short(self):
        with pytest.raises(TimeTooShort):
            validate_carleman_params(0.5, DomainSpec(0.01), beta=0.005, T=30.0)

    def test_beta_out_of_range(self):
        # bound is min{(2-alpha)^2/8, delta0}/2 = 0.01 < 0.02
        with pytest.raises(BetaOutOfRange):
            validate_carleman_params(0.5, DomainSpec(0.02), beta=0.02, T=80.0)

    def test_rejects_nonpositive_scalars(self):
        with pytest.raises(NonPositiveInput):
            validate_carleman_params(0.5, DomainSpec(0.01), beta=0.005, T=50.0, s=0.0)

    def test_rejects_non_finite_scalars(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(NonPositiveInput):
                validate_carleman_params(0.5, DomainSpec(0.01), beta=0.005, T=50.0, s=bad)
            with pytest.raises(NonPositiveInput):
                validate_carleman_params(0.5, DomainSpec(0.01), beta=bad, T=50.0)

    def test_rounding_above_threshold_is_time_too_short(self):
        # T a few ulps above the threshold, where gamma rounds to zero
        with pytest.raises(TimeTooShort, match="within rounding"):
            validate_carleman_params(
                0.5, DomainSpec(0.019000000000000003),
                beta=0.008025862068965517, T=31.571785797319002,
            )

    def test_near_threshold_epsilon_certifies_or_is_rejected(self):
        # random probes 1-12 ulps above the threshold, where gamma_hat is of
        # the size of its own rounding error, and 1e-14..1e-9 relative above
        # it, where acceptance begins: every accepted epsilon passes the grid
        # certificate, every rejection is TimeTooShort
        rng = np.random.default_rng(20261018)
        accepted = 0
        for i in range(400):
            alpha = rng.uniform(0.05, 0.95)
            d0 = rng.uniform(0.002, 0.031)
            beta = rng.uniform(0.1, 1.0) * beta_upper_bound(alpha, d0)
            T = observation_time_threshold(d0, beta)
            if i % 2:
                T *= 1.0 + 10.0 ** rng.uniform(-14.0, -9.0)
            else:
                for _ in range(rng.integers(1, 13)):
                    T = math.nextafter(T, math.inf)
            try:
                p = validate_carleman_params(alpha, DomainSpec(d0), beta=beta, T=T)
            except TimeTooShort:
                continue
            accepted += 1
            assert _band_certified(alpha, beta, T, p.gamma_hat, p.epsilon, 512)
        assert 0 < accepted < 200

    def test_underflowing_absorption_constants(self):
        # exp(-lam gamma_hat) and exp(-2 lam gamma_hat) both underflow to 0
        with pytest.raises(NonPositiveInput, match="lam = 2.0, gamma_hat"):
            validate_carleman_params(0.5, DomainSpec(0.01), beta=0.004, T=2000.0, lam=2.0)

    def test_epsilon_cap(self):
        # the conftest carleman_params configuration: the T/16 cap binds
        p = validate_carleman_params(0.5, DomainSpec(0.03), beta=0.0149, T=40.0, lam=0.5)
        assert p.epsilon == 2.4974999975025

    def test_certification_survives_grid_doubling(self):
        p = validate_carleman_params(0.5, DomainSpec(0.01), beta=0.005, T=50.0)
        for grid_per_unit in (256, 512):
            assert _band_certified(
                p.alpha, p.beta, p.T, p.gamma_hat, p.epsilon, grid_per_unit
            )

    def test_replaced_record_derives_afresh(self, carleman_params):
        # a replaced horizon once kept t0 = 20 and epsilon = 2.4975
        moved = dataclasses.replace(carleman_params, T=80.0)
        fresh = validate_carleman_params(
            0.5, DomainSpec(0.03), beta=0.0149, T=80.0, lam=0.5, s=2.0
        )
        assert dataclasses.astuple(moved) == dataclasses.astuple(fresh)
        assert moved.t0 == 40.0

    def test_replaced_lambda_gets_fresh_absorption_constants(self, carleman_params):
        p = dataclasses.replace(carleman_params, lam=2.0)
        assert p.A0 == math.exp(-2.0 * p.gamma_hat) != carleman_params.A0
        assert p.A1 == math.exp(-4.0 * p.gamma_hat) != carleman_params.A1

    def test_replaced_short_horizon_refused(self, carleman_params):
        with pytest.raises(TimeTooShort):
            dataclasses.replace(carleman_params, T=1.0)

    @pytest.mark.parametrize(
        "given, error",
        [
            ({"s": -2.0}, NonPositiveInput), ({"s": math.nan}, NonPositiveInput),
            ({"beta": 0.5}, BetaOutOfRange), ({"delta0": 0.05}, ParameterOutOfRange),
        ],
        ids=["s-negative", "s-nan", "beta-above-bound", "delta0-above-range"],
    )
    def test_replaced_record_checks_given_values(self, carleman_params, given, error):
        # s = -2 once gave negative squared norms, and beta = 0.5 was admitted
        with pytest.raises(error):
            dataclasses.replace(carleman_params, **given)

    @pytest.mark.parametrize("name", ["t0", "gamma", "gamma_hat", "epsilon", "A0", "A1"])
    def test_derived_fields_cannot_be_passed(self, carleman_params, name):
        names = ("alpha", "delta0", "beta", "T", "lam", "s")
        given = {f: getattr(carleman_params, f) for f in names}
        with pytest.raises(TypeError):
            CarlemanParams(**given, **{name: 1.0})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(carleman_params, **{name: 1.0})

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=0.95),
        d0=st.floats(min_value=0.002, max_value=0.031),
        frac=st.floats(min_value=0.1, max_value=1.0),
        ratio=st.floats(min_value=1.0 + 1e-6, max_value=10.0),
    )
    def test_closed_form_is_supremum(self, alpha, d0, frac, ratio):
        beta = frac * beta_upper_bound(alpha, d0)
        T = ratio * observation_time_threshold(d0, beta)
        p = validate_carleman_params(alpha, DomainSpec(d0), beta=beta, T=T)
        assert _band_certified(alpha, beta, T, p.gamma_hat, p.epsilon, 512)
        # just past the closed-form supremum the band conditions fail,
        # unless the T/16 cap is what bounds epsilon
        past = p.epsilon / 0.999 * (1.0 + 1e-6)
        if past < T / 16.0:
            assert not _band_certified(alpha, beta, T, p.gamma_hat, past, 512)

    @settings(max_examples=30, deadline=None)
    @given(
        d0=st.floats(min_value=0.002, max_value=0.031),
        frac=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_threshold_gate_is_sharp(self, d0, frac):
        beta = frac * beta_upper_bound(0.5, d0)
        t_star = observation_time_threshold(d0, beta)
        validate_carleman_params(0.5, DomainSpec(d0), beta=beta, T=t_star * 1.001)
        with pytest.raises(TimeTooShort):
            validate_carleman_params(0.5, DomainSpec(d0), beta=beta, T=t_star * 0.999)


class TestThetaCutoff:
    def test_plateau_and_gap(self):
        spec = theta_cutoff(0.01)
        v, d1, d2 = eval_cutoff(spec, np.array([0.5, 0.015]))
        assert v[0] == 1.0 and d1[0] == 0.0 and d2[0] == 0.0
        assert v[1] == 0.0 and d1[1] == 0.0 and d2[1] == 0.0

    def test_ramp_interior(self):
        spec = theta_cutoff(0.01)
        v, d1, _ = eval_cutoff(spec, 0.025)
        assert 0.0 < float(v) < 1.0
        assert float(d1) > 0.0

    def test_exact_idempotent_outside_bands(self):
        d0 = 0.01
        spec = theta_cutoff(d0)
        theta = np.linspace(0.0, 1.0, 5001)
        bands = ((theta > 2 * d0) & (theta < 3 * d0)) | (
            (theta > 1 - 3 * d0) & (theta < 1 - 2 * d0)
        )
        v, _, _ = eval_cutoff(spec, theta)
        assert np.all(v[~bands] * (1.0 - v[~bands]) == 0.0)

    def test_derivative_bounds_scale_free(self):
        # max |z'| delta0 and |z''| delta0^2 agree across margins to 1%
        stats = []
        for d0 in (1.0 / 64.0, 1.0 / 128.0, 1.0 / 256.0):
            x = np.linspace(0.0, 1.0, 10001)
            _, d1, d2 = eval_cutoff(theta_cutoff(d0), x)
            stats.append((np.max(np.abs(d1)) * d0, np.max(np.abs(d2)) * d0**2))
        first, second = zip(*stats)
        assert max(first) / min(first) < 1.01
        assert max(second) / min(second) < 1.01

    def test_derivatives_match_finite_differences(self):
        spec = theta_cutoff(0.01)
        x = np.array([0.022, 0.025, 0.028, 0.975])
        h = 1e-6
        v, d1, d2 = eval_cutoff(spec, x)
        vp, _, _ = eval_cutoff(spec, x + h)
        vm, _, _ = eval_cutoff(spec, x - h)
        assert np.allclose((vp - vm) / (2 * h), d1, rtol=1e-4)
        # centered FD2 roundoff floor is ~eps/h^2, so compare against the
        # derivative scale rather than pointwise (S'' vanishes mid-band)
        scale = np.max(np.abs(d2))
        assert np.allclose((vp - 2 * v + vm) / h**2, d2, rtol=1e-3, atol=1e-3 * scale)


class TestTimeCutoff:
    def test_plateau_gap_ramp(self):
        T, eps = 40.0, 2.0
        spec = time_cutoff(eps, T)
        v, d1, d2 = eval_cutoff(spec, np.array([T / 2, eps / 2, 1.5 * eps]))
        assert (v[0], d1[0], d2[0]) == (1.0, 0.0, 0.0)
        assert (v[1], d1[1], d2[1]) == (0.0, 0.0, 0.0)
        assert 0.0 < v[2] < 1.0 and d1[2] > 0.0

    def test_total_on_real_line(self):
        spec = time_cutoff(2.0, 40.0)
        v, _, _ = eval_cutoff(spec, np.array([-5.0, 100.0]))
        assert np.all(v == 0.0)


@pytest.mark.parametrize(
    "spec",
    [theta_cutoff(0.01), theta_cutoff(0.03), time_cutoff(0.7, 40.0), time_cutoff(1e-3, 1.0)],
    ids=["theta-0.01", "theta-0.03", "time-0.7-40", "time-1e-3-1"],
)
def test_cutoff_product_matches_two_band_oracle(spec):
    # the product of a rising and a falling step gives the values and both
    # derivatives of the two-band evaluation exactly (a zero may flip sign),
    # nan and the infinities included
    a, b = spec.rise
    c, d = spec.fall
    lo, hi = a - (b - a), d + (d - c)
    ends = np.array([a, b, c, d])
    x = np.concatenate([
        np.linspace(lo, hi, 200001),
        ends,
        np.nextafter(ends, -np.inf),
        np.nextafter(ends, np.inf),
        np.random.default_rng(20261019).uniform(lo, hi, 100_000),
        [-np.inf, np.inf, np.nan],
    ])
    for got, expect in zip(eval_cutoff(spec, x), two_band_cutoff(spec, x)):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize(
    "call",
    [
        lambda basis, params: CutoffSpec(rise=(0.2, 0.1), fall=(0.8, 0.9)),
        lambda basis, params: theta_cutoff(0.05),
        lambda basis, params: time_cutoff(5.0, 40.0),
        lambda basis, params: dataclasses.replace(params, alpha=1.5),
        lambda basis, params: assemble_weighted_system(basis.mesh, p=0.5, q=0.0, bc="free"),
        lambda basis, params: elliptic_identity_residual(basis, 0.0, np.ones(basis.k_max + 1)),
    ],
    ids=[
        "cutoff-bands", "theta-cutoff", "time-cutoff", "carleman-params",
        "assembly-bc", "elliptic-coefficients",
    ],
)
def test_input_checks_raise_package_errors(basis05, carleman_params, call):
    with pytest.raises(ParameterOutOfRange):
        call(basis05, carleman_params)


class TestInputGates:
    """params._whole, params._real and params._reals, the package's input gates."""

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), True])
    def test_whole_takes_integers_and_integral_floats(self, value):
        assert _whole(value, "n") == int(value)
        assert type(_whole(value, "n")) is int

    @pytest.mark.parametrize("value", [3.5, math.nan, math.inf, "3", None, [3]])
    def test_whole_refuses_other_values(self, value):
        with pytest.raises(GridMismatch, match="n must be an integer"):
            _whole(value, "n", GridMismatch)

    def test_whole_lower_bound(self):
        assert _whole(2, "N", minimum=2) == 2
        with pytest.raises(ParameterOutOfRange, match="N must be at least 2, got 1"):
            _whole(1.0, "N", minimum=2)
        with pytest.raises(ParameterOutOfRange, match="seed must be non-negative, got -1"):
            _whole(-1, "seed", minimum=0)

    @pytest.mark.parametrize("value", [0.5, 1, np.float64(0.5), np.int32(1), True])
    def test_real_takes_real_numbers_as_floats(self, value):
        assert _real(value, "x") == float(value)
        assert type(_real(value, "x")) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_real_refuses_non_finite_values(self, value):
        with pytest.raises(NonPositiveInput, match="x must be finite"):
            _real(value, "x", NonPositiveInput)

    @pytest.mark.parametrize("value", ["0.5", None, [0.5], 1j, np.array(["0.5"])])
    def test_real_refuses_non_numbers(self, value):
        with pytest.raises(ParameterOutOfRange, match="x must be a real number"):
            _real(value, "x")

    def test_real_bounds(self):
        assert _real(0.5, "x", above=0, below=1) == 0.5
        assert _real(1, "g", least=1) == 1.0
        for value, bounds, rule in [
            (0.0, {"above": 0, "below": 1}, r"x must lie in \(0, 1\), got 0.0"),
            (1.0, {"above": 0, "below": 1}, r"x must lie in \(0, 1\), got 1.0"),
            (-1.0, {"above": 0}, "x must exceed 0, got -1.0"),
            (1.0, {"below": 1}, "x must be below 1, got 1.0"),
            (0.5, {"least": 1}, "x must be at least 1, got 0.5"),
        ]:
            with pytest.raises(ParameterOutOfRange, match=rule):
                _real(value, "x", **bounds)

    @pytest.mark.parametrize(
        "value", [0.5, 1, [0.5, 1], [[1, 2], [3, 4]], np.arange(3), np.float32([0.5])]
    )
    def test_reals_takes_numbers_and_arrays_as_new_float_arrays(self, value):
        x = _reals(value, "x")
        assert x.dtype == float and np.array_equal(x, np.asarray(value, dtype=float))
        assert x is not value

    @pytest.mark.parametrize(
        "value, rule",
        [
            ("0.5", "real numbers"), (["0.5"], "real numbers"), ([None], "real numbers"),
            ([1j], "real numbers"), ([True], "real numbers"), ([[1.0], [1.0, 2.0]], "ragged"),
            ([0.5, math.nan], "finite"), (math.inf, "finite"),
        ],
    )
    def test_reals_refuses_text_ragged_and_non_finite_input(self, value, rule):
        with pytest.raises(GridMismatch, match=f"x must .*{rule}"):
            _reals(value, "x", GridMismatch)

    def test_reals_admits_non_finite_entries_when_told(self):
        x = _reals([-math.inf, math.nan], "x", finite=False)
        assert x[0] == -math.inf and math.isnan(x[1])
        with pytest.raises(ParameterOutOfRange, match="real numbers"):
            _reals(["nan"], "x", finite=False)

    def test_real_checks_every_element_of_an_array(self):
        times = np.array([0.0, 1.0, 2.0])
        assert _real(times, "times") is times
        with pytest.raises(GridMismatch, match="times must be finite, got inf"):
            _real(np.array([0.0, math.inf, math.nan]), "times", GridMismatch)
        with pytest.raises(GridMismatch, match="times must exceed 0, got -1.0"):
            _real(np.array([1.0, -1.0]), "times", GridMismatch, above=0)


# Calls that died with a bare TypeError or ValueError, or returned a wrong
# number, before every count and real number went through the two gates.
# Each raises the error class its site already raised for other bad values.
REFUSED = [
    (lambda basis: build_graded_mesh(math.nan, 2.0), InvalidMeshSpec),
    (lambda basis: build_log_mesh(math.nan, 0.01), InvalidMeshSpec),
    (lambda basis: observation_time_threshold(0.01, math.nan), NonPositiveInput),
    (lambda basis: observation_time_threshold(0.01, math.inf), NonPositiveInput),
    (lambda basis: default_horizon(math.nan), NonPositiveInput),
    (lambda basis: DomainSpec("0.01"), ParameterOutOfRange),
    (lambda basis: solve_radial_basis("0.5"), ParameterOutOfRange),
    (lambda basis: observation_norms(random_state(basis, 4, 4, 1), 44.0, "0.01"),
     ParameterOutOfRange),
    (lambda basis: evolve(random_state(basis, 4, 4, 1), "1.0"), GridMismatch),
    (lambda basis: validate_carleman_params(0.5, DomainSpec(0.03), beta="0.0149", T=40.0),
     NonPositiveInput),
    (lambda basis: beta_upper_bound(0.5, math.nan), ParameterOutOfRange),
    (lambda basis: theta_strips(math.nan), ParameterOutOfRange),
    (lambda basis: elliptic_identity_residual(basis, math.nan, [1.0]), ParameterOutOfRange),
]


@pytest.mark.parametrize(
    "call, error",
    REFUSED,
    ids=[
        "graded-mesh-nan-N", "log-mesh-nan-N", "threshold-nan-beta", "threshold-inf-beta",
        "horizon-nan", "domain-text", "basis-text-alpha", "norms-text-delta0",
        "evolve-text-t", "validate-text-beta", "beta-bound-nan",
        "strips-nan", "elliptic-nan-mu",
    ],
)
def test_refused_with_the_sites_error_class(basis05, call, error):
    with pytest.raises(DegenWaveError) as info:
        call(basis05)
    assert type(info.value) is error


def constant_field(value):
    """A field callable phi(theta, r) that is value everywhere."""
    return lambda theta, r: np.full(np.broadcast(theta, r).shape, value)


# Array arguments that np.asarray(x, dtype=float) once converted before any
# check: numeric text ran as numbers, other text and ragged lists died with
# numpy's bare ValueError, and nan samples gave a state of nan energy.
ARRAYS_REFUSED = [
    (lambda basis: energy_series(random_state(basis, 2, 2, 1), ["1.0"]), GridMismatch),
    (lambda basis: energy_series(random_state(basis, 2, 2, 1), ["a"]), GridMismatch),
    (lambda basis: energy_series(random_state(basis, 2, 2, 1), [[0.0, 1.0], [1.0]]),
     GridMismatch),
    (lambda basis: modal_state(basis, 2, 2, amplitudes=[["1", "0"], ["0", "0"]]), GridMismatch),
    (lambda basis: modal_state(basis, 2, 2, velocities=[[1.0, 0.0], [0.0]]), GridMismatch),
    (lambda basis: eval_cutoff(theta_cutoff(0.01), "0.5"), ParameterOutOfRange),
    (lambda basis: eval_cutoff(theta_cutoff(0.01), [[0.5], [0.5, 0.6]]), ParameterOutOfRange),
    (lambda basis: build_weight_field(
        validate_carleman_params(0.5, DomainSpec(0.03), beta=0.0149, T=40.0),
        [0.1, 0.5], [[0.2], [0.3, 0.4]], [0.0, 1.0]), GridMismatch),
    (lambda basis: duhamel_forcing(
        random_state(basis, 1, 2, 1), [[[0.0, 1.0], [0.0]]], 0.1, 0.1), GridMismatch),
    (lambda basis: duhamel_forcing(
        random_state(basis, 1, 2, 1), np.full((1, 2, 3), np.nan), 0.1, 0.1), GridMismatch),
    (lambda basis: project_initial_data(constant_field(np.nan), None, basis, 2, 2),
     GridMismatch),
    (lambda basis: project_initial_data(constant_field("0"), None, basis, 2, 2), GridMismatch),
    (lambda basis: elliptic_identity_residual(basis, 2.0, ["1", "0.5"]), ParameterOutOfRange),
    (lambda basis: RadialMesh(["0", "0.5", "1"]), InvalidMeshSpec),
]


@pytest.mark.parametrize(
    "call, error",
    ARRAYS_REFUSED,
    ids=[
        "energy-numeric-text", "energy-text", "energy-ragged", "modal-text", "modal-ragged",
        "cutoff-text", "cutoff-ragged", "weight-field-ragged", "duhamel-ragged", "duhamel-nan",
        "projection-nan", "projection-text", "elliptic-text", "mesh-text",
    ],
)
def test_array_refused_with_the_sites_error_class(basis05, call, error):
    with pytest.raises(DegenWaveError) as info:
        call(basis05)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "call",
    [
        lambda N: build_log_mesh(N, 0.01).nodes,
        lambda N: build_uniform_mesh(N).nodes,
        lambda N: critical_truncated_constant(0.01, N=N),
        lambda N: blowup_rate_fit([1e-1, 1e-2, 1e-3, 1e-4], N=N),
    ],
    ids=["log-mesh", "uniform-mesh", "critical-constant", "blowup-fit"],
)
def test_integral_float_cell_count_runs_as_that_integer(call):
    # each once died in np.linspace with a bare TypeError
    as_float, as_int = call(256.0), call(256)
    if isinstance(as_int, np.ndarray):
        assert np.array_equal(as_float, as_int)
    else:
        assert as_float == as_int
    if hasattr(as_int, "mesh_n"):
        assert type(as_float.mesh_n) is int
