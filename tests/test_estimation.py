import numpy as np
import pytest

from setkf import (
    ConfigError,
    InconsistentArgs,
    MissingMeasurement,
    TriggerPolicy,
    clset_measurement_update,
    initial_state,
    offline_drop_update,
    olset_measurement_update,
    standard_kf_update,
    time_update,
    trigger_decide,
    validate_model,
)
from setkf.analysis import drop_noise
from setkf.estimation import MAX_PERIOD, drop_noise as simulated_drop_noise
from util import random_spd, random_stable_model

SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)


class TestTriggerPolicy:
    def test_variant_validation(self):
        with pytest.raises(ConfigError):
            TriggerPolicy(variant="nope")
        with pytest.raises(ConfigError):
            TriggerPolicy.periodic(0)
        with pytest.raises(ConfigError):
            TriggerPolicy.random_offline(1.5)
        with pytest.raises(ConfigError):
            TriggerPolicy.deterministic_threshold(0.0)

    @pytest.mark.parametrize("delta", [float("inf"), float("nan"), float("-inf"), "x"])
    def test_threshold_must_be_finite_number(self, delta):
        # an infinite or NaN threshold would silently never transmit
        with pytest.raises(ConfigError):
            TriggerPolicy.deterministic_threshold(delta)

    def test_round_trip_dicts(self):
        policies = [
            TriggerPolicy.open_loop([[2.0]]),
            TriggerPolicy.closed_loop([[0.5]]),
            TriggerPolicy.periodic(3, phase=1),
            TriggerPolicy.random_offline(0.25),
            TriggerPolicy.deterministic_threshold(1.6),
        ]
        for pol in policies:
            back = TriggerPolicy.from_dict(pol.to_dict())
            assert back.variant == pol.variant
            assert back.to_dict() == pol.to_dict()
        assert list(policies[2].to_dict()) == ["variant", "period", "phase"]

    def test_phase_kept_modulo_period(self):
        assert TriggerPolicy.periodic(3, phase=10**30).phase == 10**30 % 3
        assert TriggerPolicy.periodic(3, phase=1e30).phase == int(1e30) % 3
        assert TriggerPolicy.periodic(5, phase=-2).to_dict()["phase"] == 3

    def test_period_fits_int64(self):
        assert TriggerPolicy.periodic(MAX_PERIOD).period == MAX_PERIOD
        for period in (MAX_PERIOD + 1, 1e30):
            with pytest.raises(ConfigError, match="period"):
                TriggerPolicy.periodic(period)

    def test_open_loop_zero_measurement_never_sends(self):
        pol = TriggerPolicy.open_loop([[1.0]])
        for zeta in (0.0, 0.5, 1.0):
            assert trigger_decide(pol, np.zeros(1), None, zeta, 0) == 0

    def test_open_loop_hand_value(self):
        pol = TriggerPolicy.open_loop([[1.0]])
        # exp(-2) = 0.13534 < 0.2 -> send
        assert trigger_decide(pol, np.array([2.0]), None, 0.2, 0) == 1
        assert trigger_decide(pol, np.array([2.0]), None, 0.1, 0) == 0

    def test_closed_loop_zero_innovation_never_sends(self):
        pol = TriggerPolicy.closed_loop([[1.0]])
        y = np.array([3.3])
        assert trigger_decide(pol, y, y, 0.9999, 5) == 0

    def test_periodic_and_phase(self):
        pol = TriggerPolicy.periodic(3, phase=1)
        got = [trigger_decide(pol, None, None, 0.5, k) for k in range(7)]
        assert got == [0, 1, 0, 0, 1, 0, 0]

    def test_random_probability(self):
        pol = TriggerPolicy.random_offline(0.25)
        assert trigger_decide(pol, None, None, 0.80, 0) == 1
        assert trigger_decide(pol, None, None, 0.70, 0) == 0

    def test_deterministic_threshold_sup_norm(self):
        pol = TriggerPolicy.deterministic_threshold(1.5)
        y = np.array([0.0, 2.0])
        y_pred = np.array([0.0, 0.0])
        assert trigger_decide(pol, y, y_pred, 0.5, 0) == 1
        assert trigger_decide(pol, y_pred, y_pred, 0.5, 0) == 0

    @pytest.mark.parametrize(
        "pol, y, y_pred",
        [
            (TriggerPolicy.deterministic_threshold(1.0), [0.2], [0.0, 5.0]),
            (TriggerPolicy.closed_loop(np.eye(2)), [3.0, 3.0], [0.5]),
        ],
        ids=["threshold", "closed_loop"],
    )
    def test_innovation_lengths_must_match(self, pol, y, y_pred):
        # broadcasting y - y_pred formed an innovation of the longer length
        with pytest.raises(InconsistentArgs, match="y has length .* but y_pred"):
            trigger_decide(pol, y, y_pred, 0.5, 0)

    def test_zeta_domain(self):
        pol = TriggerPolicy.random_offline(0.5)
        with pytest.raises(InconsistentArgs):
            trigger_decide(pol, None, None, 1.2, 0)


class TestMeasurementUpdates:
    def test_olset_receive_equals_standard(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = random_stable_model(rng, n_max=3, m_max=3)
            state = initial_state(m)
            y = rng.normal(size=m.m)
            Y = random_spd(rng, m.m)
            a = olset_measurement_update(state, 1, y, m, Y)
            b = standard_kf_update(state, y, m)
            np.testing.assert_array_equal(a.x_post, b.x_post)
            np.testing.assert_array_equal(a.P_post, b.P_post)

    def test_olset_drop_hand_values(self):
        m = validate_model(0.8, 1.0, 1.0, 1.0, 2.0)  # Sigma0 = 2 -> P_prior = 2
        state = initial_state(m, x0_mean=[1.0])
        out = olset_measurement_update(state, 0, None, m, np.array([[1.0]]))
        assert out.K[0, 0] == pytest.approx(0.5)
        assert out.P_post[0, 0] == pytest.approx(1.0)
        assert out.x_post[0] == pytest.approx(0.5)

    def test_olset_drop_no_information_limit(self):
        m = validate_model(0.8, 1.0, 1.0, 1.0, 2.0)
        state = initial_state(m, x0_mean=[1.0])
        out = olset_measurement_update(state, 0, None, m, np.array([[1e-12]]))
        assert abs(out.K[0, 0]) < 1e-6
        assert out.P_post[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert out.x_post[0] == pytest.approx(1.0, abs=1e-6)

    def test_clset_drop_keeps_mean(self):
        m = validate_model(0.8, 1.0, 1.0, 1.0, 2.0)
        state = initial_state(m, x0_mean=[1.0])
        out = clset_measurement_update(state, 0, None, m, np.array([[1.0]]))
        assert out.x_post[0] == pytest.approx(1.0)
        assert out.P_post[0, 0] == pytest.approx(1.0)

    def test_clset_receive_equals_standard(self):
        rng = np.random.default_rng(1)
        m = random_stable_model(rng, n_max=3, m_max=2)
        state = initial_state(m)
        y = rng.normal(size=m.m)
        z = y - m.C @ state.x_prior
        a = clset_measurement_update(state, 1, z, m, random_spd(rng, m.m))
        b = standard_kf_update(state, y, m)
        np.testing.assert_allclose(a.x_post, b.x_post, atol=1e-14)
        np.testing.assert_array_equal(a.P_post, b.P_post)

    def test_measurement_visibility_contract(self):
        state = initial_state(SCALAR)
        Y = np.array([[1.0]])
        with pytest.raises(MissingMeasurement):
            olset_measurement_update(state, 1, None, SCALAR, Y)
        with pytest.raises(InconsistentArgs):
            olset_measurement_update(state, 0, np.zeros(1), SCALAR, Y)
        with pytest.raises(MissingMeasurement):
            clset_measurement_update(state, 1, None, SCALAR, Y)
        with pytest.raises(InconsistentArgs):
            clset_measurement_update(state, 0, np.zeros(1), SCALAR, Y)
        with pytest.raises(InconsistentArgs):
            olset_measurement_update(state, 2, np.zeros(1), SCALAR, Y)

    def test_standard_update_hand_values(self):
        m = validate_model(0.8, 1.0, 1.0, 1.0, 2.0)
        state = initial_state(m)
        out = standard_kf_update(state, np.array([1.5]), m)
        assert out.K[0, 0] == pytest.approx(2.0 / 3.0)
        assert out.P_post[0, 0] == pytest.approx(2.0 / 3.0)

    def test_standard_update_zero_row_measurement(self):
        m = validate_model(np.diag([0.5, 0.4]), np.zeros((1, 2)), np.eye(2), 1.0, np.eye(2))
        state = initial_state(m)
        out = standard_kf_update(state, np.zeros(1), m)
        np.testing.assert_allclose(out.K, 0.0, atol=1e-15)
        np.testing.assert_allclose(out.P_post, state.P_prior, atol=1e-15)

    def test_two_sequential_updates_equal_stacked_batch(self):
        # information additivity: same y through two identical sensors
        from setkf import FilterState

        rng = np.random.default_rng(2)
        m = random_stable_model(rng, n_max=3, m_max=1)
        y = rng.normal(size=1)
        s1 = standard_kf_update(initial_state(m), y, m)
        mid = FilterState(s1.x_post, s1.P_post, s1.x_post, s1.P_post, s1.K, s1.k)
        s1 = standard_kf_update(mid, y, m)
        C2 = np.vstack([m.C, m.C])
        R2 = np.kron(np.eye(2), m.R)
        m2 = validate_model(m.A, C2, m.Q, R2, m.Sigma0)
        s2 = standard_kf_update(initial_state(m2), np.concatenate([y, y]), m2)
        np.testing.assert_allclose(s1.P_post, s2.P_post, atol=1e-10)
        np.testing.assert_allclose(s1.x_post, s2.x_post, atol=1e-10)

    def test_filter_and_analysis_share_one_drop_noise(self):
        # for m >= 2 the filter's drop noise once differed from the
        # analysis's in the last bits and was not exactly symmetric
        rng = np.random.default_rng(26)
        checked = 0
        while checked < 100:
            model = random_stable_model(rng, n_max=3, m_max=5)
            if model.m < 2:
                continue
            W = random_spd(rng, model.m, scale=float(rng.uniform(0.05, 2.0)))
            expected = drop_noise(model.R, W)
            for policy in (TriggerPolicy.open_loop(W), TriggerPolicy.closed_loop(W)):
                noise = simulated_drop_noise(model, policy)
                assert np.array_equal(noise, expected)
                assert np.array_equal(noise, noise.T)
            checked += 1


class TestTimeAndDropUpdates:
    def test_time_update_zero_mean(self):
        state = initial_state(SCALAR)
        out = time_update(state, SCALAR)
        assert out.x_prior[0] == 0.0
        assert out.k == 1

    def test_time_update_hand_value(self):
        m = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
        state = initial_state(m)  # P_post = 1
        out = time_update(state, m)
        assert out.P_prior[0, 0] == pytest.approx(1.64)

    def test_time_update_random_walk_limit(self):
        m = validate_model(np.eye(2), np.eye(2), 1e-9 * np.eye(2), np.eye(2), np.eye(2))
        state = initial_state(m)
        out = time_update(state, m)
        np.testing.assert_allclose(out.P_prior, state.P_post, atol=1e-8)

    def test_offline_drop_identity(self):
        state = initial_state(SCALAR, x0_mean=[2.0])
        out = offline_drop_update(state)
        np.testing.assert_array_equal(out.x_post, state.x_prior)
        np.testing.assert_array_equal(out.P_post, state.P_prior)

    def test_consecutive_drops_match_lyapunov_iterate(self):
        m = SCALAR
        state = initial_state(m)
        P = m.Sigma0.copy()
        for _ in range(5):
            state = offline_drop_update(state)
            state = time_update(state, m)
            P = m.A @ P @ m.A.T + m.Q
        np.testing.assert_allclose(state.P_prior, P, atol=1e-12)

    def test_alternating_receive_drop_two_cycle(self):
        # 10-step hand iteration of the scalar receive/drop pattern
        m = SCALAR
        state = initial_state(m)
        P = 1.0
        for k in range(10):
            if k % 2 == 0:
                state = standard_kf_update(state, np.zeros(1), m)
                P = P - P * P / (P + 1.0)
            else:
                state = offline_drop_update(state)
            state = time_update(state, m)
            P = 0.64 * P + 1.0
            assert state.P_prior[0, 0] == pytest.approx(P, rel=1e-12)


class TestCovarianceProperties:
    def test_posterior_below_prior_on_drop(self):
        # P = P_prior - P_prior C' (C P_prior C' + R + Y^-1)^-1 C P_prior,
        # a PSD decrease of rank m (strict decrease when C is square)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 30:
            model = random_stable_model(rng)
            if model.m > model.n or np.linalg.matrix_rank(model.C) < model.m:
                continue
            checked += 1
            state = initial_state(model)
            Y = random_spd(rng, model.m)
            out = olset_measurement_update(state, 0, None, model, Y)
            expected = state.P_prior - state.P_prior @ model.C.T @ np.linalg.solve(
                model.C @ state.P_prior @ model.C.T + model.R + np.linalg.inv(Y),
                model.C @ state.P_prior,
            )
            np.testing.assert_allclose(out.P_post, expected, atol=1e-10)
            gap = np.linalg.eigvalsh(state.P_prior - out.P_post)
            assert gap.min() >= -1e-12
            assert (gap > 1e-12).sum() >= model.m
            if model.m == model.n:
                assert gap.min() > 1e-12

    def test_filter_consistency_monte_carlo(self):
        # empirical prior error covariance matches reported P at fixed steps
        from setkf import Scenario, TriggerPolicy, monte_carlo

        scn = Scenario(
            model=SCALAR,
            trigger=TriggerPolicy.open_loop([[1.0]]),
            horizon=12,
            runs=10_000,
            seed=123,
            burn_in=0,
        )
        stats = monte_carlo(scn)
        for k in (5, 11):
            ratio = stats.err_outer_mean[k, 0, 0] / stats.P_mean[k, 0, 0]
            assert 0.95 <= ratio <= 1.05
