import numpy as np
import pytest

from setkf import (
    ConfigError,
    ModelValidationError,
    NoConvergence,
    Scenario,
    TriggerPolicy,
    UnstableSystem,
    closed_loop_rate_bounds,
    olset_bounds,
    open_loop_rate,
    rate_trace_bounds,
    sequential_drop_probability,
    simulate,
    steady_state,
    validate_model,
)
from setkf import analysis, riccati
from util import (
    closed_loop_report_reference,
    loewner_leq,
    random_spd,
    random_stable_model,
    scalar_g_fixed_point,
)

SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
SCALAR_STEADY = steady_state(SCALAR)


class TestOpenLoopRate:
    def test_vanishing_weight(self):
        assert open_loop_rate(SCALAR_STEADY, [[1e-15]]) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_hand_value(self):
        assert open_loop_rate(SCALAR_STEADY, [[1.0]]) == pytest.approx(0.54251, abs=1e-5)

    def test_huge_weight(self):
        assert open_loop_rate(SCALAR_STEADY, [[1e6]]) > 0.999

    def test_unstable_rejected(self):
        st = steady_state(SCALAR)
        fake = type(st)(Sigma=st.Sigma, Pi=st.Pi, rho_A=1.2)
        with pytest.raises(UnstableSystem):
            open_loop_rate(fake, [[1.0]])


class TestOlsetBounds:
    def test_scalar_fixed_points(self):
        res = olset_bounds(SCALAR, [[1.0]])
        assert res.X0[0, 0] == pytest.approx(1.36995, abs=1e-5)
        assert res.X_upper[0, 0] == pytest.approx(1.56113, abs=1e-5)

    def test_scalar_rate_weighted_bound(self):
        res = olset_bounds(SCALAR, [[1.0]])
        assert res.R1[0, 0] == pytest.approx(1.29659, abs=1e-5)
        assert res.X_lower[0, 0] == pytest.approx(1.43609, abs=1e-5)
        # independent quadratic oracle
        assert res.X_lower[0, 0] == pytest.approx(
            scalar_g_fixed_point(0.8, 1.0, 1.0, res.R1[0, 0]), abs=1e-8
        )

    def test_always_transmit_limit(self):
        res = olset_bounds(SCALAR, [[1e12]])
        assert abs(res.X_upper[0, 0] - res.X0[0, 0]) < 1e-4
        assert abs(res.X_lower[0, 0] - res.X0[0, 0]) < 1e-4

    def test_loewner_ordering_random_systems(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = random_stable_model(rng, n_max=3, m_max=3)
            Y = random_spd(rng, m.m, scale=float(rng.uniform(0.1, 3.0)))
            res = olset_bounds(m, Y)
            assert loewner_leq(res.X0, res.X_lower, tol=1e-8)
            assert loewner_leq(res.X_lower, res.X_upper, tol=1e-8)


class TestClosedLoopBounds:
    def test_scalar_hand_values(self):
        res = closed_loop_rate_bounds(SCALAR, [[1.0]])
        assert res.gamma_low == pytest.approx(0.45526, abs=1e-5)
        assert res.gamma_upper == pytest.approx(0.47008, abs=1e-5)
        assert res.X0[0, 0] == pytest.approx(1.36995, abs=1e-5)
        assert res.X_upper[0, 0] == pytest.approx(1.56113, abs=1e-5)

    def test_vanishing_weight(self):
        res = closed_loop_rate_bounds(SCALAR, [[1e-15]])
        assert res.gamma_low == pytest.approx(0.0, abs=1e-12)
        assert res.gamma_upper == pytest.approx(0.0, abs=1e-9)

    def test_unstable_system_admits_bounds(self):
        m = validate_model(np.diag([1.001, 0.95]), [[1.0, 1.0]], np.eye(2), 1.0, np.eye(2))
        res = closed_loop_rate_bounds(m, [[1.0]])
        assert res.gamma_low <= res.gamma_upper < 1.0
        assert np.all(np.isfinite(res.X_upper))
        assert loewner_leq(res.X0, res.X_lower, tol=1e-8)
        assert loewner_leq(res.X_lower, res.X_upper, tol=1e-8)

    def test_ordering_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = random_stable_model(rng, n_max=3, m_max=3)
            Z = random_spd(rng, m.m, scale=float(rng.uniform(0.1, 3.0)))
            res = closed_loop_rate_bounds(m, Z)
            assert res.gamma_low <= res.gamma_upper + 1e-12
            assert loewner_leq(res.X0, res.X_lower, tol=1e-8)
            assert loewner_leq(res.X_lower, res.X_upper, tol=1e-8)


class TestSequentialDropProbability:
    def test_single_step_consistency_with_rate(self):
        p = sequential_drop_probability(SCALAR_STEADY, SCALAR, [[1.0]], 1)
        gamma = open_loop_rate(SCALAR_STEADY, [[1.0]])
        assert p == pytest.approx(1.0 - gamma, abs=1e-12)
        assert p == pytest.approx(0.45749, abs=1e-5)

    def test_two_step_hand_value(self):
        p = sequential_drop_probability(SCALAR_STEADY, SCALAR, [[1.0]], 2)
        assert p == pytest.approx(0.23644, abs=1e-5)
        # correlation makes the joint drop more likely than independence
        assert p > (1.0 - 0.54251) ** 2

    def test_vanishing_weight_never_sends(self):
        for l in (1, 2, 5):
            p = sequential_drop_probability(SCALAR_STEADY, SCALAR, [[1e-15]], l)
            assert p == pytest.approx(1.0, abs=1e-9)

    def test_window_covariance_is_symmetric_spd(self):
        m = validate_model(np.diag([0.8, 0.6]), [[1.0, 0.5], [0.2, 1.0]], np.eye(2), np.eye(2), np.eye(2))
        st = steady_state(m)
        p3 = sequential_drop_probability(st, m, 0.5 * np.eye(2), 3)
        assert 0.0 < p3 < 1.0
        p1 = sequential_drop_probability(st, m, 0.5 * np.eye(2), 1)
        assert p3 < p1

    @pytest.mark.parametrize("l", [0, -1, 2.5, True, "abc", None])
    def test_window_length_must_be_a_positive_integer(self, l):
        with pytest.raises(ConfigError, match="^l must"):
            sequential_drop_probability(SCALAR_STEADY, SCALAR, [[1.0]], l)

    def test_window_length_is_read_as_a_number(self):
        # as every scalar field of a config is: an integral float or string
        # is that integer
        p2 = sequential_drop_probability(SCALAR_STEADY, SCALAR, [[1.0]], 2)
        for l in (2.0, "2", np.int64(2)):
            assert sequential_drop_probability(SCALAR_STEADY, SCALAR, [[1.0]], l) == p2


class TestRateTraceBounds:
    def test_identity_instance(self):
        lower, upper = rate_trace_bounds(np.eye(2), np.eye(2))
        assert lower == pytest.approx(1.0 - 1.0 / np.sqrt(3.0), abs=1e-12)
        assert upper == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
        gamma = 1.0 - 1.0 / np.sqrt(np.linalg.det(np.eye(2) * 2.0))
        assert lower < gamma < upper

    def test_vanishing_weight(self):
        lower, upper = rate_trace_bounds(np.eye(2), 1e-15 * np.eye(2))
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(0.0, abs=1e-12)

    def test_scalar_lower_bound_is_exact(self):
        lower, upper = rate_trace_bounds(SCALAR_STEADY.Pi, [[1.0]])
        gamma = open_loop_rate(SCALAR_STEADY, [[1.0]])
        assert lower == pytest.approx(gamma, abs=1e-12)
        assert gamma < upper

    def test_strict_for_multivariate(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            m_dim = int(rng.integers(2, 5))
            Pi = random_spd(rng, m_dim)
            Y = random_spd(rng, m_dim, scale=float(rng.uniform(0.05, 2.0)))
            lower, upper = rate_trace_bounds(Pi, Y)
            sign, logdet = np.linalg.slogdet(np.eye(m_dim) + Pi @ Y)
            gamma = 1.0 - np.exp(-0.5 * logdet)
            assert lower < gamma < upper


class TestSamplePathBounds:
    def test_trajectory_stays_in_band_and_visits_both_ends(self):
        res = olset_bounds(SCALAR, [[1.0]])
        scn = Scenario(
            model=SCALAR,
            trigger=TriggerPolicy.open_loop([[1.0]]),
            horizon=100_000,
            seed=21,
            burn_in=200,
        )
        rec = simulate(scn)
        P = rec.P11[200:]
        eps = 1e-6
        assert P.max() <= res.X_upper[0, 0] + eps
        assert P.min() >= res.X0[0, 0] - eps
        # visits every eps-neighborhood of both ends at least once
        assert (P >= res.X_upper[0, 0] - eps).any()
        assert (P <= res.X0[0, 0] + eps).any()

    def test_closed_loop_band(self):
        res = closed_loop_rate_bounds(SCALAR, [[1.0]])
        scn = Scenario(
            model=SCALAR,
            trigger=TriggerPolicy.closed_loop([[1.0]]),
            horizon=50_000,
            seed=22,
            burn_in=200,
        )
        rec = simulate(scn)
        P = rec.P11[200:]
        assert P.max() <= res.X_upper[0, 0] + 1e-6
        assert P.min() >= res.X0[0, 0] - 1e-6

    def test_two_mode_expected_covariance_containment(self):
        # terminal cross-run mean of P- lies between the rate-weighted lower
        # bound and the never-transmit fixed point, in the Loewner order
        from setkf import monte_carlo

        m = validate_model(np.diag([0.8, 0.95]), [[1.0, 1.0]], np.eye(2), 1.0, np.eye(2))
        res = olset_bounds(m, [[1.0]])
        scn = Scenario(
            model=m,
            trigger=TriggerPolicy.open_loop([[1.0]]),
            horizon=400,
            runs=300,
            seed=23,
            burn_in=100,
        )
        stats = monte_carlo(scn)
        slack = 2.0 * np.linalg.norm(stats.terminal_P_stderr, 2) * np.eye(2)
        assert loewner_leq(res.X_lower - slack, stats.terminal_P_mean, tol=1e-9)
        assert loewner_leq(stats.terminal_P_mean, res.X_upper + slack, tol=1e-9)


def test_report_rows_shapes():
    from setkf import closed_loop_report, open_loop_report

    rows = open_loop_report(SCALAR, [[1.0]])
    names = [n for n, _ in rows]
    assert "gamma" in names and "X0[0][0]" in names and "R1[0][0]" in names
    rows = closed_loop_report(SCALAR, [[1.0]])
    names = [n for n, _ in rows]
    assert "gamma_low" in names and "gamma_upper" in names and "R3[0][0]" in names


def test_open_loop_report_solves_the_steady_state_once(monkeypatch):
    from setkf import analysis, open_loop_report

    calls = []
    monkeypatch.setattr(
        analysis, "steady_state", lambda model: calls.append(model) or steady_state(model)
    )
    rows = dict(open_loop_report(SCALAR, [[1.0]]))
    assert len(calls) == 1
    assert rows["Pi[0][0]"] == SCALAR_STEADY.Pi[0, 0]
    assert rows["Sigma[0][0]"] == SCALAR_STEADY.Sigma[0, 0]


def _closed_loop_plants():
    """Seeded plants with rho(A) in [0.3, 0.95], [0.99, 0.999] and
    [1.01, 1.3], 20 of each, each with a random weight Z."""
    rng = np.random.default_rng(61)
    for rho_lo, rho_hi in [(0.3, 0.95), (0.99, 0.999), (1.01, 1.3)] * 20:
        while True:
            n, m = (int(k) for k in rng.integers(1, 4, size=2))
            A = rng.normal(size=(n, n))
            A *= rng.uniform(rho_lo, rho_hi) / max(abs(np.linalg.eigvals(A)))
            try:
                model = validate_model(
                    A, rng.normal(size=(m, n)), random_spd(rng, n), random_spd(rng, m),
                    random_spd(rng, n),
                )
                break
            except ModelValidationError:
                continue
        yield model, random_spd(rng, m, scale=float(10.0 ** rng.uniform(-3, 3)))


def test_closed_loop_report_matches_the_former_solves():
    # the rows of one stack for X0, X_upper and Sigma have the bits of the
    # rows solved apart, and the steady field is None exactly when unstable
    kinds = {"stable": 0, "unstable": 0}
    for model, Z in _closed_loop_plants():
        rows, expected = analysis.closed_loop_report(model, Z), closed_loop_report_reference(model, Z)
        assert [name for name, _ in rows] == [name for name, _ in expected]
        values, want = (np.array([v for _, v in r]).view(np.int64) for r in (rows, expected))
        assert np.array_equal(values, want)
        res = closed_loop_rate_bounds(model, Z)
        assert (res.steady is None) == (model.rho_A >= 1.0)
        kinds["stable" if res.steady is not None else "unstable"] += 1
    assert min(kinds.values()) >= 10, kinds


def test_closed_loop_analysis_makes_two_doubling_calls(monkeypatch):
    # X0, X_upper and Sigma in one stack, then X_lower
    calls, doubling = [], riccati._doubling

    def counted(element, *args):
        calls.append(len(element[1]))
        return doubling(element, *args)

    monkeypatch.setattr(riccati, "_doubling", counted)
    for model, Z in _closed_loop_plants():
        calls.clear()
        analysis.closed_loop_report(model, Z)
        assert calls == [3 if model.rho_A < 1.0 else 2, 1]


def test_closed_loop_analysis_failures_keep_their_order(monkeypatch):
    # elements that fail to converge, one or two at a time, told apart by
    # their J (0 in a stack and None alone for Sigma), raise the first error
    # of the solves made apart
    model = validate_model(np.diag([0.8, 0.95]), [[1.0, 1.0]], np.eye(2), 1.0, np.eye(2))
    Z = np.array([[1.0]])
    doubling = riccati._doubling

    def keys(element):
        J = element[2]
        return ["Sigma"] if J is None else ["Sigma" if not j.any() else j.tobytes() for j in J]

    seen = []

    def recording(element, *args):
        seen.extend(keys(element))
        return doubling(element, *args)

    monkeypatch.setattr(riccati, "_doubling", recording)
    analysis.closed_loop_report(model, Z)
    elements = list(dict.fromkeys(seen))
    assert len(elements) == 4
    for bad in [{a, b} for a in elements for b in elements]:

        def failing(element, tol, max_doublings, label, bad=bad):
            if bad & set(keys(element)):
                raise NoConvergence(max_doublings, label)
            return doubling(element, tol, max_doublings, label)

        monkeypatch.setattr(riccati, "_doubling", failing)
        errors = []
        for report in (closed_loop_report_reference, analysis.closed_loop_report):
            with pytest.raises(NoConvergence) as error:
                report(model, Z)
            errors.append(str(error.value))
        assert errors[0] == errors[1]
