import functools
import io
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

from setkf import (
    CalibrationFailed,
    ConfigError,
    NotPositiveDefinite,
    NumericalError,
    Scenario,
    TriggerPolicy,
    calibrate_closed_loop,
    calibrate_open_loop,
    calibrate_period,
    closed_loop_rate_bounds,
    compare_schedulers,
    load_scenario,
    monte_carlo,
    open_loop_rate,
    run_length_stats,
    save_scenario,
    scenario_from_dict,
    sequential_drop_probability,
    simulate,
    singer_scenario,
    steady_state,
    validate_model,
)
from setkf import harness
from setkf.cli import main
from setkf.estimation import MAX_PERIOD, READS_ESTIMATE, trigger_decide
from setkf.harness import (
    FLOAT_PATH_MAX_RUNS,
    SCAN_MAX_WIDTH,
    _simulate_runs,
    _run_length_histogram,
    write_comparison_csv,
    write_monte_carlo_csv,
    write_trajectory_csv,
)
from util import (
    SCALAR_EXPONENTS,
    apply_affine_reference,
    compose_affine_reference,
    maximal_runs,
    random_spd,
    scalar_stack,
    simulate_reference,
)

SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)


def scalar_scenario(trigger, horizon=500, runs=1, seed=0, burn_in=100, **kw):
    return Scenario(
        model=SCALAR, trigger=trigger, horizon=horizon, runs=runs,
        seed=seed, burn_in=burn_in, **kw,
    )


class TestScenarioValidation:
    def test_pairing_rules(self):
        # the trigger fixes the filter, so every trigger makes a scenario
        for trigger in (
            TriggerPolicy.open_loop([[1.0]]),
            TriggerPolicy.closed_loop([[1.0]]),
            TriggerPolicy.periodic(1),
            TriggerPolicy.periodic(2),
            TriggerPolicy.random_offline(0.5),
            TriggerPolicy.deterministic_threshold(1.0),
        ):
            assert scalar_scenario(trigger).trigger is trigger

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            scalar_scenario(TriggerPolicy.open_loop([[1.0]]), horizon=0)
        with pytest.raises(ConfigError):
            scalar_scenario(TriggerPolicy.open_loop([[1.0]]), burn_in=500)
        with pytest.raises(ConfigError):
            scalar_scenario(TriggerPolicy.open_loop([[1.0]]), runs=0)
        # the pre-roll's draws count against the log limit
        with pytest.raises(ConfigError, match="pre_roll"):
            scalar_scenario(TriggerPolicy.open_loop([[1.0]]), pre_roll=10**8)

    def test_unset_burn_in(self):
        # 200 steps, cut to leave the last step of a shorter horizon
        for horizon, burn_in in ((1, 0), (150, 149), (201, 200), (1000, 200)):
            scn = Scenario(model=SCALAR, trigger=TriggerPolicy.open_loop([[1.0]]), horizon=horizon)
            assert scn.burn_in == burn_in

    def test_round_trip_file(self, tmp_path):
        scn = scalar_scenario(TriggerPolicy.open_loop([[1.0]]), seed=9)
        path = tmp_path / "scn.json"
        save_scenario(scn, path)
        back = load_scenario(path)
        assert back.seed == 9
        assert back.trigger.variant == "open_loop"
        rec1 = simulate(scn)
        rec2 = simulate(back)
        np.testing.assert_array_equal(rec1.P11, rec2.P11)

    def test_missing_trigger_exits_2(self, tmp_path, capsys):
        # the trigger fixes the filter, so a "filter" key names no trigger
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(
            {"model": SCALAR.to_dict(), "filter": "standard", "horizon": 50, "burn_in": 10}
        ))
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: scenario config missing key 'trigger'\n"

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"horizon": 10})
        with pytest.raises(ConfigError):
            scenario_from_dict({"model": SCALAR.to_dict(), "horizon": 10})


class TestSimulate:
    def test_same_seed_identical_records(self):
        scn = scalar_scenario(TriggerPolicy.open_loop([[1.0]]), seed=3)
        a = simulate(scn, 4)
        b = simulate(scn, 4)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.sq_err, b.sq_err)
        c = simulate(scn, 5)
        assert not np.array_equal(a.sq_err, c.sq_err)

    def test_vanishing_weight_never_transmits(self):
        scn = scalar_scenario(TriggerPolicy.open_loop([[1e-15]]), horizon=300, burn_in=50)
        rec = simulate(scn)
        assert rec.empirical_rate == 0.0
        # covariance follows the never-transmit Riccati iterate
        from setkf import RiccatiMap, g_step
        from setkf.analysis import drop_noise

        rm = RiccatiMap(SCALAR, drop_noise(SCALAR.R, np.array([[1e-15]])))
        P = SCALAR.Sigma0.copy()
        for k in range(10):
            assert rec.P11[k] == pytest.approx(P[0, 0], rel=1e-9)
            P = g_step(P, rm)

    def test_forced_all_transmit_matches_standard_filter(self):
        scn_ol = scalar_scenario(TriggerPolicy.open_loop([[1.0]]), seed=8, horizon=200, burn_in=10)
        scn_cl = scalar_scenario(TriggerPolicy.closed_loop([[1.0]]), seed=8, horizon=200, burn_in=10)
        scn_std = scalar_scenario(TriggerPolicy.periodic(1), seed=8, horizon=200, burn_in=10)
        ones = np.ones(200, dtype=int)
        rec_ol = simulate(scn_ol, 0, force_gamma=ones)
        rec_cl = simulate(scn_cl, 0, force_gamma=ones)
        rec_std = simulate(scn_std, 0)
        assert np.abs(rec_ol.sq_err - rec_std.sq_err).max() <= 1e-12
        assert np.abs(rec_cl.sq_err - rec_std.sq_err).max() <= 1e-12
        assert np.abs(rec_ol.P11 - rec_std.P11).max() <= 1e-12

    def test_covariance_depends_only_on_gamma_sequence(self):
        scn = scalar_scenario(TriggerPolicy.open_loop([[1.0]]), horizon=150, burn_in=10)
        rng = np.random.default_rng(0)
        forced = (rng.random(150) < 0.5).astype(int)
        a = simulate(scn, 1, force_gamma=forced)
        b = simulate(scn, 2, force_gamma=forced)  # different noise
        np.testing.assert_allclose(a.P11, b.P11, atol=1e-13)
        assert not np.array_equal(a.sq_err, b.sq_err)

    def test_deterministic_threshold_baseline_runs(self):
        scn = scalar_scenario(
            TriggerPolicy.deterministic_threshold(1.0), horizon=400, burn_in=50
        )
        rec = simulate(scn)
        assert 0.0 < rec.empirical_rate < 1.0

    def test_nonzero_initial_mean(self):
        scn = scalar_scenario(
            TriggerPolicy.open_loop([[1.0]]), horizon=50, burn_in=10, x0_mean=[5.0]
        )
        rec = simulate(scn)
        assert np.isfinite(rec.sq_err).all()

    def test_pre_roll_predicts_the_prior(self):
        # the filter predicts through the pre-roll, so at k = 0 the squared
        # error has mean tr P: over 20 000 runs MSE / tr P is 0.988 +- 0.010,
        # within 3 standard errors of 1 (2.743 with the prior left at Sigma0)
        scn = scalar_scenario(
            TriggerPolicy.open_loop([[1.0]]), horizon=1, runs=20_000, seed=3, burn_in=0,
            pre_roll=200,
        )
        block = _simulate_runs(scn, range(scn.runs))
        ratio = block.sq_err[:, 0] / block.P_trace[:, 0]
        assert abs(ratio.mean() - 1.0) <= 3.0 * ratio.std(ddof=1) / np.sqrt(ratio.size)


class TestPeriodicBounds:
    @pytest.mark.parametrize(
        "period, phase",
        [(3, 10**30), (3, 1e30), (7, -3),
         (MAX_PERIOD, MAX_PERIOD - 1), (MAX_PERIOD, 5), (MAX_PERIOD, -1)],
    )
    def test_decisions_on_both_paths(self, period, phase):
        # the phase is reduced modulo the period, so the scan's int64 steps
        # never overflow and both paths follow (k - phase) % period == 0
        scn = scalar_scenario(TriggerPolicy.periodic(period, phase),
                              horizon=12, runs=2, burn_in=0)
        expected = [int((k - int(phase)) % period == 0) for k in range(12)]
        for path in (scan_runs, step_runs):
            assert path(scn, range(2)).gamma.tolist() == [expected, expected]


class TestMonteCarlo:
    def test_single_run_single_step_equals_record(self):
        scn = scalar_scenario(
            TriggerPolicy.open_loop([[1.0]]), horizon=1, runs=1, burn_in=0
        )
        stats = monte_carlo(scn)
        rec = simulate(scn, 0)
        assert stats.rate_overall == rec.empirical_rate
        assert stats.P_trace_mean[0] == rec.P_trace[0]
        assert stats.mse_mean[0] == rec.sq_err[0]
        assert stats.runs == 1

    def test_open_loop_rate_convergence(self):
        scn = scalar_scenario(
            TriggerPolicy.open_loop([[1.0]]), horizon=2000, runs=50,
            burn_in=200, pre_roll=200, seed=31,
        )
        stats = monte_carlo(scn)
        assert abs(stats.rate_overall - 0.54250) <= 0.01

    def test_closed_loop_rate_within_bounds(self):
        res = closed_loop_rate_bounds(SCALAR, [[1.0]])
        scn = scalar_scenario(
            TriggerPolicy.closed_loop([[1.0]]), horizon=2000, runs=50,
            burn_in=200, seed=32,
        )
        stats = monte_carlo(scn)
        assert res.gamma_low - 0.01 <= stats.rate_overall <= res.gamma_upper + 0.01

    def test_aggregates_are_symmetric_psd(self):
        scn = scalar_scenario(
            TriggerPolicy.closed_loop([[1.0]]), horizon=60, runs=40, burn_in=10
        )
        stats = monte_carlo(scn)
        for k in range(60):
            assert stats.P_mean[k, 0, 0] > 0
            assert stats.err_outer_mean[k, 0, 0] >= 0
        assert stats.terminal_P_stderr[0, 0] >= 0

    def test_run_length_histograms(self):
        # periodic with period 3 -> drops come in maximal runs of exactly 2
        scn = scalar_scenario(
            TriggerPolicy.periodic(3), horizon=90, runs=3, burn_in=10
        )
        stats = monte_carlo(scn)
        assert set(stats.drop_run_hist) == {2}
        assert stats.drop_run_hist[2] == 3 * 30
        assert set(stats.arrival_run_hist) == {1}
        assert stats.arrival_run_hist[1] == 3 * 30


class TestRunLengthStats:
    def _record(self, gamma):
        scn = scalar_scenario(TriggerPolicy.open_loop([[1.0]]), horizon=len(gamma), burn_in=0)
        return simulate(scn, 0, force_gamma=np.asarray(gamma))

    def test_all_transmit_has_no_drop_windows(self):
        rec = self._record(np.ones(50, dtype=int))
        rl = run_length_stats(rec, 1)
        assert rl.drop_windows == 0
        assert rl.arrival_windows == 50

    @pytest.mark.parametrize("l", [0, -1, 2.5, True, "abc", None])
    def test_window_length_must_be_a_positive_integer(self, l):
        with pytest.raises(ConfigError, match="^l must"):
            run_length_stats(self._record([0, 0, 1]), l)

    def test_window_longer_than_horizon(self):
        rec = self._record(np.ones(10, dtype=int))
        rl = run_length_stats(rec, 11)
        assert rl.n_windows == 0 and rl.drop_windows == 0

    def test_hand_counted_windows(self):
        rec = self._record([0, 0, 1, 0, 0, 0, 1, 1])
        rl = run_length_stats(rec, 2)
        assert rl.n_windows == 7
        assert rl.drop_windows == 3   # (0,1), (3,4), (4,5)
        assert rl.arrival_windows == 1  # (6,7)

    def test_sequential_drop_frequency_matches_formula(self):
        scn = scalar_scenario(
            TriggerPolicy.open_loop([[1.0]]), horizon=100_000,
            burn_in=200, pre_roll=200, seed=33,
        )
        rec = simulate(scn)
        rl = run_length_stats(rec, 2)
        st = steady_state(SCALAR)
        p2 = sequential_drop_probability(st, SCALAR, [[1.0]], 2)
        assert abs(rl.drop_frequency - p2) <= 0.01


class TestCalibration:
    def test_open_loop_inverse_is_exact(self):
        st = steady_state(SCALAR)
        for rate in (0.2, 0.5, 0.8):
            theta = calibrate_open_loop(st, rate)
            assert open_loop_rate(st, theta * np.eye(1)) == pytest.approx(rate, abs=1e-10)

    def test_open_loop_inverse_multivariate(self):
        m = validate_model(
            np.diag([0.8, 0.6]), np.array([[1.0, 0.0], [0.3, 1.0]]), np.eye(2), np.eye(2), np.eye(2)
        )
        st = steady_state(m)
        theta = calibrate_open_loop(st, 0.4)
        assert open_loop_rate(st, theta * np.eye(2)) == pytest.approx(0.4, abs=1e-9)

    def test_period_rounding(self):
        assert calibrate_period(0.5) == 2
        assert calibrate_period(0.25) == 4
        assert calibrate_period(0.999) == 1
        with pytest.raises(CalibrationFailed):
            calibrate_period(0.3)

    def test_target_rate_domain(self):
        st = steady_state(SCALAR)
        with pytest.raises(CalibrationFailed):
            calibrate_open_loop(st, 0.0)
        with pytest.raises(CalibrationFailed):
            calibrate_open_loop(st, 1.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_basis_must_be_m_by_m(self, m):
        # an m = 1 plant once read B[0, 0] of a 2 x 2 basis and returned
        # half the weight; other sizes failed inside numpy
        model = validate_model(np.diag([0.8, 0.6])[:m, :m], np.eye(m), np.eye(m), np.eye(m), np.eye(m))
        st = steady_state(model)
        for size in {1, 2, 3} - {m}:
            basis = np.eye(size) + 0.1 * (1 - np.eye(size))
            for calibrate in (
                lambda: calibrate_open_loop(st, 0.5, basis),
                lambda: calibrate_closed_loop(model, 0.5, basis),
            ):
                with pytest.raises(NotPositiveDefinite, match=f"must be {m} x {m}"):
                    calibrate()
        # the right size still calibrates, to the weight along the identity
        assert calibrate_open_loop(st, 0.5, np.eye(m)) == calibrate_open_loop(st, 0.5)
        assert calibrate_closed_loop(model, 0.5, np.eye(m)) == calibrate_closed_loop(model, 0.5)


class TestCompareSchedulers:
    def test_high_rate_converges_to_always_transmit(self):
        rows = compare_schedulers(SCALAR, 0.999, horizon=400, runs=20, seed=40, burn_in=100)
        from setkf import RiccatiMap, fixed_point

        X0 = fixed_point(RiccatiMap(SCALAR, SCALAR.R))[0, 0]
        for row in rows:
            assert row.steady_trace == pytest.approx(X0, rel=0.02)

    def test_table_structure(self):
        rows = compare_schedulers(SCALAR, 0.5, horizon=300, runs=10, seed=41, burn_in=100)
        assert [r.scheduler for r in rows] == ["clset", "olset", "periodic", "random"]
        for row in rows:
            assert 0.0 <= row.empirical_rate <= 1.0
            assert row.steady_trace > 0


class TestSingerScenario:
    def test_noise_covariance_template(self):
        scn = singer_scenario(1.0, 0.01, 5.0, z_scale=0.52, runs=1, horizon=10, burn_in=0)
        base = 2.0 * 0.01 * 5.0
        expected = base * np.array(
            [
                [1.0 / 20.0, 1.0 / 8.0, 1.0 / 6.0],
                [1.0 / 8.0, 1.0 / 3.0, 1.0 / 2.0],
                [1.0 / 6.0, 1.0 / 2.0, 1.0],
            ]
        )
        np.testing.assert_allclose(scn.model.Q, expected, atol=1e-15)
        np.testing.assert_allclose(scn.model.C, np.eye(3))
        np.testing.assert_allclose(scn.model.R, np.eye(3))

    def test_transition_entry_variants(self):
        squared = singer_scenario(2.0, 0.01, 5.0, z_scale=0.5, runs=1, horizon=10, burn_in=0)
        half = singer_scenario(2.0, 0.01, 5.0, z_scale=0.5, a13="half", runs=1, horizon=10, burn_in=0)
        assert squared.model.A[0, 2] == pytest.approx(4.0)
        assert half.model.A[0, 2] == pytest.approx(2.0)
        np.testing.assert_allclose(squared.model.A[0, :2], [1.0, 2.0])

    def test_high_rate_setup_matches_reported_band(self):
        scn = singer_scenario(1.0, 0.01, 5.0, z_scale=0.52, runs=60, horizon=100, seed=50)
        stats = monte_carlo(scn)
        res = closed_loop_rate_bounds(scn.model, 0.52 * np.eye(3))
        assert res.gamma_low - 0.02 <= stats.rate_overall <= res.gamma_upper + 0.02
        assert abs(stats.rate_overall - 0.65) < 0.03

    def test_low_rate_setup(self):
        scn = singer_scenario(1.0, 0.01, 5.0, z_scale=0.047, runs=60, horizon=100, seed=51)
        stats = monte_carlo(scn)
        assert abs(stats.rate_overall - 0.25) < 0.03

    def test_exactly_one_trigger_parameter(self):
        with pytest.raises(ConfigError):
            singer_scenario(1.0, 0.01, 5.0)
        with pytest.raises(ConfigError):
            singer_scenario(1.0, 0.01, 5.0, z_scale=0.5, delta=1.0)
        with pytest.raises(ConfigError):
            singer_scenario(-1.0, 0.01, 5.0, z_scale=0.5)

    def test_deterministic_baseline_variant(self):
        scn = singer_scenario(1.0, 0.01, 5.0, delta=1.6, runs=1, horizon=30, burn_in=0)
        assert scn.trigger.variant == "deterministic_threshold"
        rec = simulate(scn)
        assert np.isfinite(rec.sq_err).all()


class TestCsvOutput:
    def test_monte_carlo_schema_and_byte_identity(self):
        scn = scalar_scenario(
            TriggerPolicy.closed_loop([[1.0]]), horizon=40, runs=5, burn_in=10
        )
        bufs = []
        for _ in range(2):
            stats = monte_carlo(scn)
            buf = io.StringIO()
            write_monte_carlo_csv(stats, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        header = bufs[0].splitlines()[0]
        assert header == "k,rate_mean,P_trace_mean,mse_mean,P11_mean,mse11_mean"
        assert len(bufs[0].splitlines()) == 41

    def test_trajectory_schema(self):
        scn = scalar_scenario(TriggerPolicy.open_loop([[1.0]]), horizon=5, burn_in=0)
        rec = simulate(scn)
        buf = io.StringIO()
        write_trajectory_csv(rec, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,gamma,P_trace,mse,P11,mse11"
        assert len(lines) == 6

    def test_comparison_schema(self):
        rows = compare_schedulers(SCALAR, 0.5, horizon=200, runs=5, seed=42, burn_in=50)
        buf = io.StringIO()
        write_comparison_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "scheduler,param,empirical_rate,steady_trace"
        assert len(lines) == 5
        assert lines[1].startswith("clset,")


def oracle_model(n, m, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    return validate_model(
        A, rng.normal(size=(m, n)), random_spd(rng, n), random_spd(rng, m), random_spd(rng, n)
    )


def oracle_pairings(m):
    """One trigger of each filter: a period-1 trigger (the standard Kalman
    filter), the open- and closed-loop triggers and the offline baselines."""
    return [
        TriggerPolicy.periodic(1),
        TriggerPolicy.open_loop(0.7 * np.eye(m)),
        TriggerPolicy.closed_loop(0.7 * np.eye(m)),
        TriggerPolicy.periodic(3, phase=1),
        TriggerPolicy.random_offline(0.4),
        TriggerPolicy.deterministic_threshold(1.0),
    ]


PAIRING_IDS = ["standard", "olset", "clset", "periodic", "random", "threshold"]


def assert_records_agree(rec, ref):
    """gamma identical; each log agrees to 1e-12 relative to its largest entry."""
    np.testing.assert_array_equal(rec.gamma, ref.gamma)
    for name in ("P_trace", "sq_err", "P11", "sq_err11", "P_prior_full", "err_outer"):
        got, want = getattr(rec, name), getattr(ref, name)
        if want is None:
            assert got is None, name
            continue
        assert got.shape == want.shape, name
        assert float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max()), name
    assert rec.empirical_rate == ref.empirical_rate
    assert rec.mean_P_trace == pytest.approx(ref.mean_P_trace, rel=1e-12)


class TestKernelOracle:
    """The run-batched kernel against the per-step single-run reference."""

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 3)])
    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_simulate_matches_reference(self, n, m, pairing):
        model = oracle_model(n, m, seed=10 * n + m)
        trig = oracle_pairings(m)[pairing]
        # the last scenario is too wide for the scan, so every pairing steps
        for extra in (
            {}, {"pre_roll": 7, "x0_mean": np.arange(1.0, n + 1.0)},
            {"runs": SCAN_MAX_WIDTH // n**2 + 1},
        ):
            scn = Scenario(
                model=model, trigger=trig, horizon=80, seed=5, burn_in=10, **extra
            )
            for record_full in (False, True):
                assert_records_agree(
                    simulate(scn, 3, record_full=record_full),
                    simulate_reference(scn, 3, record_full=record_full),
                )

    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_forced_gamma_matches_reference(self, pairing):
        model = oracle_model(2, 1, seed=21)
        trig = oracle_pairings(1)[pairing]
        forced = (np.random.default_rng(pairing).random(60) < 0.5).astype(int)
        # one run takes the scan, the wider scenario the step loop
        for runs in (1, SCAN_MAX_WIDTH // model.n**2 + 1):
            scn = Scenario(model=model, trigger=trig, horizon=60, runs=runs, seed=6, burn_in=5)
            assert_records_agree(
                simulate(scn, 2, force_gamma=forced, record_full=True),
                simulate_reference(scn, 2, force_gamma=forced, record_full=True),
            )

    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_batched_runs_equal_single_runs(self, pairing):
        model = oracle_model(3, 3, seed=33)
        trig = oracle_pairings(3)[pairing]
        scn = Scenario(
            model=model, trigger=trig, horizon=50, runs=6, seed=7, burn_in=10
        )
        # any block of runs, in any order, gives each run its own values
        order = [4, 0, 5, 2]
        block = _simulate_runs(scn, order)
        for row, r in enumerate(order):
            rec = simulate(scn, r)
            np.testing.assert_array_equal(block.gamma[row], rec.gamma)
            np.testing.assert_array_equal(block.P_trace[row], rec.P_trace)
            np.testing.assert_array_equal(block.sq_err[row], rec.sq_err)

        stats = monte_carlo(scn)
        recs = [simulate(scn, r, record_full=True) for r in range(scn.runs)]
        np.testing.assert_allclose(
            stats.P_mean, sum(rec.P_prior_full for rec in recs) / scn.runs, rtol=1e-12
        )
        np.testing.assert_allclose(
            stats.err_outer_mean, sum(rec.err_outer for rec in recs) / scn.runs, rtol=1e-12
        )
        np.testing.assert_array_equal(
            stats.rate_mean, np.mean([rec.gamma for rec in recs], axis=0)
        )
        assert stats.steady_trace_mean == pytest.approx(
            np.mean([rec.mean_P_trace for rec in recs]), rel=1e-12
        )
        np.testing.assert_allclose(
            stats.terminal_P_mean,
            np.mean([rec.P_prior_full[-1] for rec in recs], axis=0),
            rtol=1e-12,
        )
        assert stats.P_trace_max == max(rec.P_trace_max for rec in recs)
        drops, arrivals = Counter(), Counter()
        for rec in recs:
            drops.update(maximal_runs(rec.gamma, 0))
            arrivals.update(maximal_runs(rec.gamma, 1))
        assert stats.drop_run_hist == dict(sorted(drops.items()))
        assert stats.arrival_run_hist == dict(sorted(arrivals.items()))


BLOCK_LOGS = ("P_trace", "sq_err", "P11", "sq_err11", "P_last", "P_sum", "E_sum")


def assert_blocks_agree(block, ref):
    """gamma identical; each log agrees to 1e-12 relative to its largest
    entry, the bar of ``assert_records_agree``."""
    np.testing.assert_array_equal(block.gamma, ref.gamma)
    for name in BLOCK_LOGS:
        got, want = getattr(block, name), getattr(ref, name)
        if want is None:
            assert got is None, name
            continue
        assert got.shape == want.shape, name
        assert float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max()), name


def assert_blocks_equal(block, ref):
    np.testing.assert_array_equal(block.gamma, ref.gamma)
    for name in BLOCK_LOGS:
        np.testing.assert_array_equal(getattr(block, name), getattr(ref, name), err_msg=name)


def assert_priors_psd(block):
    """Every prior covariance of a one-run block is symmetric PSD."""
    P = block.P_sum
    np.testing.assert_array_equal(P, P.transpose(0, 2, 1))
    assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.abs(P).max()


FEEDBACK_FREE = [0, 1, 3, 4]  # standard, olset, periodic, random


# each route of the kernel: the constants that force it and the steppers it
# may call; "step" is the step loop, in Python floats where the scenario may
ROUTES = {
    "scan": ({"SCAN_MAX_WIDTH": math.inf}, {"_scan_block"}),
    "step": ({"SCAN_MAX_WIDTH": 0}, {"_step_block", "_float_block"}),
    "numpy": ({"SCAN_MAX_WIDTH": 0, "FLOAT_PATH_MAX_RUNS": 0}, {"_step_block"}),
}


def spy_steppers(mp, calls):
    """Patch the three steppers so that each call appends its name and its
    block length to ``calls``."""
    for name in ("_scan_block", "_step_block", "_float_block"):
        stepper = getattr(harness, name)
        mp.setattr(
            harness, name,
            lambda *a, _f=stepper, _name=name: calls.append((_name, a[2].shape[0])) or _f(*a),
        )


def routed_runs(route, scenario, run_indices, **kw):
    """``_simulate_runs`` forced onto one of ``ROUTES`` by monkeypatch; the
    scan takes a feedback-free trigger only.  Spies check that only the
    route's steppers ran."""
    constants, steppers = ROUTES[route]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(harness, name, value)
        spy_steppers(mp, calls)
        block = _simulate_runs(scenario, run_indices, **kw)
    called = {name for name, _ in calls}
    assert called and called <= steppers, (route, called)
    return block


scan_runs = functools.partial(routed_runs, "scan")
step_runs = functools.partial(routed_runs, "step")
numpy_step_runs = functools.partial(routed_runs, "numpy")


class TestScanOracle:
    """The scan path of the kernel against its step loop; the closed-loop and
    threshold triggers, which always step, against the numpy step loop."""

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 3), (6, 2)])
    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_scan_matches_step_loop(self, n, m, pairing):
        model = oracle_model(n, m, seed=10 * n + m)
        trig = oracle_pairings(m)[pairing]
        # a scalar plant steps the closed-loop and threshold triggers in
        # Python floats, with the numpy step loop's bits
        path, agree = (_simulate_runs, assert_blocks_equal)
        if pairing in FEEDBACK_FREE:
            path, agree = scan_runs, assert_blocks_agree
        for horizon in (1, 2, 3, 77):
            for extra in ({}, {"pre_roll": 7, "x0_mean": np.arange(1.0, n + 1.0)}):
                scn = Scenario(
                    model=model, trigger=trig, horizon=horizon, runs=2, seed=5,
                    burn_in=0, **extra,
                )
                for sums in (False, True):
                    agree(path(scn, [1, 0], sums=sums), numpy_step_runs(scn, [1, 0], sums=sums))
                block = path(scn, [1], sums=True)
                assert_priors_psd(block)

    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_forced_gamma(self, pairing):
        # a forced gamma keeps its trigger's path: one run of a trigger that
        # does not read the estimate takes the scan, clset and the
        # deterministic threshold the step loop, in Python floats for n = 1
        forced = (np.random.default_rng(pairing).random(60) < 0.5).astype(int)
        for n in (2, 1):
            model = oracle_model(n, 1, seed=21)
            scn = Scenario(
                model=model, trigger=oracle_pairings(1)[pairing], horizon=60, seed=6, burn_in=5
            )
            block = _simulate_runs(scn, [2], force_gamma=forced)
            step = numpy_step_runs(scn, [2], force_gamma=forced)
            if pairing in FEEDBACK_FREE:
                assert_blocks_equal(block, scan_runs(scn, [2], force_gamma=forced))
                assert_blocks_agree(block, step)
            else:
                assert_blocks_equal(block, step)
            np.testing.assert_array_equal(block.gamma[0], forced)
            assert_priors_psd(block)

    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_block_boundaries(self, monkeypatch, pairing):
        # blocks of 1, 2 and 7 steps restart the scans, or the step loop of
        # the triggers that read the estimate, from the carried state
        model = oracle_model(3, 3, seed=33)
        trig = oracle_pairings(3)[pairing]
        scn = Scenario(
            model=model, trigger=trig, horizon=50, runs=2, seed=7, burn_in=10,
            pre_roll=3,
        )
        ref = step_runs(scn, [0, 1])
        for steps in (1, 2, 7):
            if pairing in FEEDBACK_FREE:
                monkeypatch.setattr(harness, "SCAN_BLOCK_ENTRIES", steps * width(scn))
                assert_blocks_agree(scan_runs(scn, [0, 1]), ref)
            else:
                monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", steps * 2 * step_entries(model))
                assert_blocks_equal(_simulate_runs(scn, [0, 1]), ref)

    def test_singer_open_loop(self):
        # rho(A) = 1: the combine step's I + C J stays well conditioned
        model = singer_scenario(1.0, 0.1, 1.0, z_scale=0.52).model
        assert max(abs(np.linalg.eigvals(model.A))) == 1.0
        scn = Scenario(
            model=model, trigger=TriggerPolicy.open_loop(0.52 * np.eye(3)), horizon=100, runs=3,
            seed=4, burn_in=20,
        )
        block = scan_runs(scn, range(3))
        assert 0.0 < block.gamma.mean() < 1.0
        assert_blocks_agree(block, step_runs(scn, range(3)))
        assert_priors_psd(scan_runs(scn, [2]))

    def test_singer_open_loop_long_horizon(self):
        # the state grows without bound; the carried prior error keeps the
        # two paths within the bar where x - xhat from absolute values lost
        # digits (4e-8 of the largest entry)
        model = singer_scenario(1.0, 0.1, 1.0, z_scale=0.52).model
        for seed in range(4):
            scn = Scenario(
                model=model, trigger=TriggerPolicy.open_loop(0.52 * np.eye(3)), horizon=10_000,
                seed=seed, burn_in=20,
            )
            assert_blocks_agree(scan_runs(scn, [0]), step_runs(scn, [0]))

    @pytest.mark.parametrize(
        "n, runs, trig, route",
        [
            (1, SCAN_MAX_WIDTH, TriggerPolicy.open_loop([[0.7]]), "_scan_block"),
            (1, SCAN_MAX_WIDTH + 1, TriggerPolicy.open_loop([[0.7]]), "_step_block"),
            (2, SCAN_MAX_WIDTH // 4, TriggerPolicy.random_offline(0.4), "_scan_block"),
            (2, SCAN_MAX_WIDTH // 4 + 1, TriggerPolicy.random_offline(0.4), "_step_block"),
            (1, FLOAT_PATH_MAX_RUNS, TriggerPolicy.closed_loop([[0.7]]), "_float_block"),
            (1, FLOAT_PATH_MAX_RUNS + 1, TriggerPolicy.closed_loop([[0.7]]), "_step_block"),
            (1, FLOAT_PATH_MAX_RUNS, TriggerPolicy.deterministic_threshold(1.0), "_float_block"),
            (1, FLOAT_PATH_MAX_RUNS + 1, TriggerPolicy.deterministic_threshold(1.0),
             "_step_block"),
        ],
        ids=[
            "olset-at-bound", "olset-above", "random-at-bound", "random-above", "clset",
            "clset-above", "threshold", "threshold-above",
        ],
    )
    def test_routing_bound(self, monkeypatch, n, runs, trig, route):
        scn = Scenario(
            model=oracle_model(n, 1, seed=n), trigger=trig, horizon=9, runs=runs,
            seed=8, burn_in=0,
        )
        # blocks shorter than the horizon: the scan's of 4 steps and the step
        # loop's of 3, as many as SCAN_BLOCK_ENTRIES and STEP_BLOCK_ENTRIES
        # hold for the scenario's runs, however many are simulated
        entries = runs * step_entries(scn.model)
        monkeypatch.setattr(harness, "SCAN_BLOCK_ENTRIES", 4 * width(scn) + width(scn) - 1)
        monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", 3 * entries + entries - 1)
        calls = []
        spy_steppers(monkeypatch, calls)
        # the route depends on the scenario, not on the block of runs: the
        # scan, or the step loop in numpy or in Python floats
        block = _simulate_runs(scn, [runs - 1, 0])
        single = _simulate_runs(scn, [0])
        lengths = [4, 4, 1] * 2 if route == "_scan_block" else [3, 3, 3] * 2
        assert calls == [(route, L) for L in lengths]
        np.testing.assert_array_equal(single.sq_err[0], block.sq_err[1])

    @pytest.mark.parametrize("wide", [False, None, True], ids=["narrow", "mid", "wide"])
    @pytest.mark.parametrize("forced", [False, True], ids=["decided", "forced"])
    @pytest.mark.parametrize("pairing", range(1, 6), ids=PAIRING_IDS[1:])
    def test_route_reads_trigger_and_width(self, monkeypatch, pairing, forced, wide):
        # the closed-loop and threshold triggers always step; the others take
        # the scan if and only if the scenario is narrow, forced or not
        model = oracle_model(2, 1, seed=21)
        bound = {False: 0, None: SCAN_MAX_WIDTH // 2, True: SCAN_MAX_WIDTH}[wide]
        runs = bound // model.n**2 + 1
        scn = Scenario(
            model=model, trigger=oracle_pairings(1)[pairing], horizon=9, runs=runs, seed=8,
            burn_in=0,
        )
        calls = []
        spy_steppers(monkeypatch, calls)
        _simulate_runs(scn, [0], force_gamma=np.ones(9, dtype=int) if forced else None)
        scan = pairing in FEEDBACK_FREE and not wide
        assert calls == [("_scan_block" if scan else "_step_block", 9)]


@pytest.mark.parametrize("exponents", list(SCALAR_EXPONENTS))
def test_scalar_affine_maps_have_the_matrix_bits(exponents):
    # the error scan's maps e -> F e + b on (steps, runs, 1, 1) stacks, across
    # magnitudes whose products overflow to inf and underflow to 0
    rng = np.random.default_rng(sorted(SCALAR_EXPONENTS).index(exponents))
    span = SCALAR_EXPONENTS[exponents]
    first, second = (
        tuple(scalar_stack(rng, [500, 4], span, signed=True) for _ in range(2)) for _ in range(2)
    )
    x = scalar_stack(rng, [500, 4], span, signed=True)
    with np.errstate(all="ignore"):
        got = harness._compose_affine(first, second)
        want = compose_affine_reference(first, second)
        pairs = list(zip(got, want))
        pairs.append((harness._apply_affine(first, x), apply_affine_reference(first, x)))
    for g, w in pairs:
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


class TestOpenLoopPlantPath:
    """The open-loop trigger is the one whose runs carry the plant path x,
    an :func:`harness._orbit` of the maps x -> A x + L_q w on every route.
    Its rounding depends on the block length, which reads the scenario's
    runs alone, so each run has the same bits in any block of runs."""

    @pytest.mark.parametrize("runs", [1, 8, 9, 60])
    def test_orbit_equals_sequential_path(self, runs):
        # x_k+1 = A x_k + L_q w_k step by step from the same draws, in
        # blocks of 37 steps, at the bar of assert_blocks_agree
        for model in (SCALAR, oracle_model(2, 1, seed=21)):
            n = model.n
            scn = Scenario(
                model=model, trigger=TriggerPolicy.open_loop([[0.7]]), horizon=300, runs=runs,
                seed=12, burn_in=0, pre_roll=3, x0_mean=np.full(n, 40.0),
            )
            s = harness._Runs(scn, range(runs), None, False)
            x = s.x.copy()
            ys, want = [], []
            for _, _, Lv, Lw, y, _ in s.blocks(37):
                ys.append(y.copy())
                for v, w in zip(Lv, Lw):
                    want.append(model.C @ x + v)
                    x = model.A @ x + w
            for got, ref in ((np.concatenate(ys), np.array(want)), (s.x, x)):
                assert got.shape == ref.shape
                assert float(np.abs(got - ref).max()) <= 1e-12 * float(np.abs(ref).max())

    @pytest.mark.parametrize("wide", [False, True], ids=["scan", "step"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_simulate_equals_each_row(self, monkeypatch, n, wide):
        # runs * n^2 at most SCAN_MAX_WIDTH takes the scan, one run more the
        # step loop; blocks of 6 steps make 7 blocks of the horizon of 40
        model = SCALAR if n == 1 else oracle_model(2, 1, seed=21)
        runs = SCAN_MAX_WIDTH // n**2 + 1 if wide else 3
        scn = Scenario(
            model=model, trigger=TriggerPolicy.open_loop([[0.7]]), horizon=40, runs=runs,
            seed=12, burn_in=0, pre_roll=3, x0_mean=np.arange(1.0, n + 1.0),
        )
        monkeypatch.setattr(harness, "SCAN_BLOCK_ENTRIES", 6 * width(scn))
        monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", 6 * runs * step_entries(model))
        calls = []
        spy_steppers(monkeypatch, calls)
        block = _simulate_runs(scn, range(runs))
        route = "_step_block" if wide else "_scan_block"
        assert calls == [(route, L) for L in [6] * 6 + [4]]
        assert 0.0 < block.gamma.mean() < 1.0
        part = _simulate_runs(scn, [runs - 1, 0])
        stats = monte_carlo(scn)
        recs = [simulate(scn, r, record_full=True) for r in range(runs)]
        for rows, order in ((block, range(runs)), (part, [runs - 1, 0])):
            for row, r in enumerate(order):
                for name in ("gamma", "P_trace", "sq_err", "P11", "sq_err11"):
                    np.testing.assert_array_equal(
                        getattr(rows, name)[row], getattr(recs[r], name), err_msg=name
                    )
        # monte_carlo adds the runs in run order, as sum does
        np.testing.assert_array_equal(stats.P_mean, sum(rec.P_prior_full for rec in recs) / runs)
        np.testing.assert_array_equal(
            stats.err_outer_mean, sum(rec.err_outer for rec in recs) / runs
        )
        np.testing.assert_array_equal(stats.rate_mean, block.gamma.sum(axis=0) / runs)


UNSTABLE = validate_model(1.2, 1.0, 1.0, 1.0, 1.0)

# each trigger that reads the estimate on a scalar plant; A = 1.2 at this
# weight forgets slowly, and its decisions hang on long runs of earlier ones
FLOAT_CASES = {
    "clset": (SCALAR, TriggerPolicy.closed_loop([[0.7]])),
    "clset-unstable": (UNSTABLE, TriggerPolicy.closed_loop([[0.02807]])),
    "threshold": (SCALAR, TriggerPolicy.deterministic_threshold(1.0)),
}


class TestFloatBlock:
    """A scalar closed-loop or threshold scenario of at most
    ``FLOAT_PATH_MAX_RUNS`` runs steps its filter in Python floats,
    :func:`harness._float_block`, with the bits of the numpy step loop,
    :func:`harness._step_block`."""

    @pytest.mark.parametrize("case", list(FLOAT_CASES))
    def test_float_block_equals_step_block(self, monkeypatch, case):
        model, trig = FLOAT_CASES[case]
        forced = (np.random.default_rng(3).random(60) < 0.5).astype(int)
        for extra in ({}, {"pre_roll": 2, "x0_mean": [3.0]}):
            scn = Scenario(
                model=model, trigger=trig, horizon=60, runs=4, seed=3, burn_in=0, **extra
            )
            assert scn.runs <= FLOAT_PATH_MAX_RUNS
            for kw in ({}, {"force_gamma": forced, "sums": False}):
                refs = []
                # the whole horizon in one block, and blocks of 1, 2 and 7 steps
                for steps in (None, 1, 2, 7):
                    if steps is not None:
                        monkeypatch.setattr(
                            harness, "STEP_BLOCK_ENTRIES", steps * 4 * step_entries(model)
                        )
                    refs.append(numpy_step_runs(scn, [3, 0, 2, 1], **kw))
                    assert 0.0 < refs[-1].gamma.mean() < 1.0
                    assert_blocks_equal(step_runs(scn, [3, 0, 2, 1], **kw), refs[-1])
                monkeypatch.undo()
                # no rounding depends on the block length
                for ref in refs[1:]:
                    assert_blocks_equal(ref, refs[0])
            assert_priors_psd(step_runs(scn, [1]))

    @pytest.mark.parametrize(
        "model, trig, extra, message",
        [
            # the update leaves a huge prior's rounding residue in the error,
            # or cancels its covariance to below 0
            (validate_model(0.8, 3.0, 1.0, 1.0, 1e300), TriggerPolicy.closed_loop([[1.0]]), {},
             "prior error at step 1 lies more than 1000 standard deviations out"),
            (validate_model(0.8, 3.0, 1.0, 1.0, 1e300),
             TriggerPolicy.deterministic_threshold(1.0), {},
             "prior error at step 1 lies more than 1000 standard deviations out"),
            (validate_model(0.8, 0.7, 1.0, 1.0, 1e300), TriggerPolicy.closed_loop([[1.0]]), {},
             "prior covariance at step 1 has a diagonal entry that is not positive and finite"),
            # a forced drop keeps the prior, whose next P + P' overflows
            (validate_model(1.2, 1.0, 1.0, 1.0, 8e307),
             TriggerPolicy.deterministic_threshold(1.0), {"force_gamma": [0, 1, 1]},
             "prior covariance at step 1 has a diagonal entry that is not positive and finite"),
        ],
        ids=["clset-lost-error", "threshold-lost-error", "clset-broken-covariance",
             "threshold-broken-covariance"],
    )
    def test_failures_match_step_block(self, model, trig, extra, message):
        scn = Scenario(model=model, trigger=trig, horizon=3, runs=2, seed=1, burn_in=0)
        for path in (step_runs, numpy_step_runs):
            with np.errstate(all="ignore"), pytest.raises(NumericalError, match=f"^{message}$"):
                path(scn, [0, 1], **extra)

    @pytest.mark.parametrize(
        "C, Sigma0, trig, seed, message",
        [
            (1e300, 1.0, TriggerPolicy.deterministic_threshold(1.0), 1,
             "innovation covariance at step 0 is not finite"),
            (1.5e154, 1e-9, TriggerPolicy.deterministic_threshold(1.0), 1,
             "innovation covariance at step 1 is not finite"),
            # the closed-loop rule's z' Z z overflows to a send, and then the
            # update's c p c overflows
            (1e300, 1.0, TriggerPolicy.closed_loop([[1.0]]), 1,
             "innovation covariance at step 0 is not finite"),
            # z' Z z overflows to a send, and nothing else does: both loops
            # complete, with the same bits
            (1.0, 1.0, TriggerPolicy.closed_loop([[8e307]]), 2, None),
        ],
        ids=["step-0", "step-1", "clset-huge-C", "clset-huge-weight"],
    )
    def test_overflow_names_the_step(self, monkeypatch, C, Sigma0, trig, seed, message):
        # c p c overflows: the numpy step loop warns and goes on, or raises
        # under the CLI's error state; Python floats name the step, in any
        # block
        scn = Scenario(
            model=validate_model(0.8, C, 1.0, 1.0, Sigma0), trigger=trig, horizon=5, runs=2,
            seed=seed, burn_in=0,
        )
        if message is None:
            with np.errstate(over="raise", invalid="raise"):
                ref = numpy_step_runs(scn, [0, 1])
            assert ref.gamma.all()
        else:
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                numpy_step_runs(scn, [0, 1])
        for steps in (None, 1):
            if steps is not None:
                monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", 2 * step_entries(scn.model))
            if message is None:
                assert_blocks_equal(step_runs(scn, [0, 1]), ref)
            else:
                with pytest.raises(NumericalError, match=f"^{message}$"):
                    step_runs(scn, [0, 1])

    def test_huge_weight_sends_at_every_step(self):
        # Z = 8e307 passes require_spd, and z' Z z overflows once |z| > 1.5:
        # exp(-inf / 2) = 0, so the send is exact and nothing raises; 8 runs
        # step in Python floats, 9 in numpy, and run 0 is the same at both
        trig = TriggerPolicy.closed_loop([[8e307]])
        single = {}
        with np.errstate(over="raise", invalid="raise"):
            assert trigger_decide(trig, [3.0], [0.0], 0.5, 0) == 1
            for runs in (FLOAT_PATH_MAX_RUNS, FLOAT_PATH_MAX_RUNS + 1):
                scn = scalar_scenario(trig, horizon=300, runs=runs, seed=12, burn_in=0)
                block = _simulate_runs(scn, range(runs))
                assert block.gamma.all()
                single[runs] = simulate(scn, 0, record_full=True)
        small, large = single.values()
        for name in ("gamma", "P_trace", "sq_err", "P_prior_full", "err_outer"):
            np.testing.assert_array_equal(getattr(small, name), getattr(large, name))

    def test_huge_two_measurement_weight_sends_at_every_step(self, monkeypatch):
        # with m = 2, z' Z overflows in both entries and z' Z z can cancel
        # them to nan, as for z = (30, -3): a send too.  C = 10 I makes
        # innovations of about 10, and some of their forms nan
        trig = TriggerPolicy.closed_loop([[8e307, 1e307], [1e307, 8e307]])
        model = validate_model(np.diag([0.8, 0.5]), 10.0 * np.eye(2), np.eye(2), np.eye(2),
                               np.eye(2))
        scn = Scenario(model=model, trigger=trig, horizon=300, runs=3, seed=12, burn_in=0)
        forms, harness_transmit = [], harness.transmit

        def transmit(policy, z, zeta, k=None):
            with np.errstate(all="ignore"):
                forms.append((z.transpose(0, 2, 1) @ policy.Z @ z).ravel())
            return harness_transmit(policy, z, zeta, k)

        monkeypatch.setattr(harness, "transmit", transmit)
        with np.errstate(over="raise", invalid="raise"):
            for z in ([30.0, -3.0], [3.0, -30.0], [3.0, 3.0]):
                assert trigger_decide(trig, z, [0.0, 0.0], 0.5, 0) == 1
            assert _simulate_runs(scn, range(3)).gamma.all()
        assert np.isnan(np.concatenate(forms)).any()

    def test_prior_after_the_horizon_must_be_finite(self):
        # the time update after the last step overflows; the numpy step loop
        # raises only under the CLI's error state
        scn = Scenario(
            model=validate_model(1.2, 1.0, 1.0, 1.0, 8e307),
            trigger=TriggerPolicy.deterministic_threshold(1.0), horizon=1, seed=1, burn_in=0,
        )
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            numpy_step_runs(scn, [0], force_gamma=[0])
        with pytest.raises(NumericalError, match="^prior covariance at step 1 has"):
            step_runs(scn, [0], force_gamma=[0])

    @pytest.mark.parametrize("pairing", [2, 5], ids=["clset", "threshold"])
    def test_simulate_equals_monte_carlo_run(self, pairing):
        # 8 runs step in Python floats, 9 in numpy; run r of either is
        # simulate(scenario, r), and run 0 is the same at both sizes
        trig = oracle_pairings(1)[pairing]
        single = {}
        for runs in (FLOAT_PATH_MAX_RUNS, FLOAT_PATH_MAX_RUNS + 1):
            scn = scalar_scenario(
                trig, horizon=300, runs=runs, seed=12, burn_in=0, pre_roll=3, x0_mean=[40.0]
            )
            block = _simulate_runs(scn, range(runs))
            stats = monte_carlo(scn)
            assert 0.0 < stats.rate_overall < 1.0
            recs = [simulate(scn, r, record_full=True) for r in range(runs)]
            for r, rec in enumerate(recs):
                for name in ("gamma", "P_trace", "sq_err", "P11", "sq_err11"):
                    np.testing.assert_array_equal(getattr(block, name)[r], getattr(rec, name))
            np.testing.assert_array_equal(stats.P_mean, block.P_sum / runs)
            single[runs] = recs[0]
        small, large = single.values()
        for name in ("gamma", "P_trace", "sq_err", "P_prior_full", "err_outer"):
            np.testing.assert_array_equal(getattr(small, name), getattr(large, name))

    def test_long_unstable_run_stays_finite(self):
        # 8000 steps of an unstable plant, whose drop runs are long, raise
        # nothing under the CLI's error state
        scn = Scenario(
            model=UNSTABLE, trigger=TriggerPolicy.closed_loop([[0.028]]), horizon=8000, seed=0,
            burn_in=0,
        )
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            block = _simulate_runs(scn, [0])
        assert np.isfinite(block.sq_err).all()

    @pytest.mark.parametrize(
        "forced",
        [[np.nan, 0, 1], [0, 2, 1], [[1, 0], [0, 1]], [0.5] * 4, ["a"] * 4, [[1, 0], [1]], 1],
        ids=["nan", "two", "2-d", "half", "string", "ragged", "scalar"],
    )
    def test_forced_gamma_must_be_zeros_and_ones(self, monkeypatch, forced):
        def no_generator(seed, run_index):
            raise AssertionError("a generator was built")

        scn = scalar_scenario(TriggerPolicy.closed_loop([[0.7]]), horizon=3, burn_in=0)
        monkeypatch.setattr(harness, "_rng_for_run", no_generator)
        with pytest.raises(ConfigError, match="^force_gamma must be a 1-D sequence of 0s and 1s$"):
            simulate(scn, force_gamma=forced)

    def test_forced_gamma_takes_bools(self):
        scn = scalar_scenario(TriggerPolicy.closed_loop([[0.7]]), horizon=3, burn_in=0)
        rec = simulate(scn, force_gamma=[True, False, True])
        np.testing.assert_array_equal(rec.gamma, [1, 0, 1])
        np.testing.assert_array_equal(rec.sq_err, simulate(scn, force_gamma=[1, 0, 1]).sq_err)


# CI's two-measurement plant
TWO_MEASUREMENTS = validate_model(
    [[0.8, 1.0], [0.0, 0.95]], [[0.5, 0.3], [0.0, 1.4]], np.eye(2), np.eye(2), np.eye(2)
)

SANDWICH_CASES = {
    "scalar-clset": (UNSTABLE, TriggerPolicy.closed_loop([[0.7]])),
    "scalar-random": (UNSTABLE, TriggerPolicy.random_offline(0.4)),
    "scalar-threshold": (UNSTABLE, TriggerPolicy.deterministic_threshold(1.0)),
    "two-clset": (TWO_MEASUREMENTS, TriggerPolicy.closed_loop(0.7 * np.eye(2))),
    "two-olset": (TWO_MEASUREMENTS, TriggerPolicy.open_loop(0.7 * np.eye(2))),
    "two-random": (TWO_MEASUREMENTS, TriggerPolicy.random_offline(0.4)),
    "two-periodic": (TWO_MEASUREMENTS, TriggerPolicy.periodic(3, phase=1)),
}


def riccati_steps(model, P, W):
    """A P A' + Q - A P C' (C P C' + W)^-1 C P A' for a stack P, the map of
    a measurement with noise W; with W None, A P A' + Q."""
    A, C = model.A, model.C
    if W is not None:
        P = P - P @ C.T @ np.linalg.solve(C @ P @ C.T + W, C @ P)
    P = A @ P @ A.T + model.Q
    return 0.5 * (P + P.swapaxes(-1, -2))


class TestCovarianceSandwich:
    """The arrival map g_R and the drop map (g_W for the drop noise W of the
    stochastic triggers, P -> A P A' + Q for the offline ones) are monotone,
    and the arrival map lies below the drop map.  So every run's prior P_k
    lies between L_k and U_k in the Loewner order, where L_k+1 = g_R(L_k),
    U_k+1 = drop(U_k), and both start from the run's prior at step 0."""

    @pytest.mark.parametrize("case", list(SANDWICH_CASES))
    def test_priors_lie_between_arrival_and_drop_orbits(self, case):
        model, trig = SANDWICH_CASES[case]
        weight = {"open_loop": "Y", "closed_loop": "Z"}.get(trig.variant)
        W_drop = None if weight is None else model.R + np.linalg.inv(getattr(trig, weight))
        routes = ["step", "numpy"] + ([] if trig.variant in READS_ESTIMATE else ["scan"])
        forced = (np.random.default_rng(4).random(300) < 0.5).astype(int)
        # on the step route 2 scalar runs step in Python floats, 9 in numpy
        for runs, route, force_gamma in itertools.product((2, 9), routes, (None, forced)):
            scn = Scenario(
                model=model, trigger=trig, horizon=300, runs=runs, seed=9, burn_in=0,
                pre_roll=2,
            )
            blocks, log = [], harness._Runs.log
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(
                    harness._Runs, "log", lambda s, *a: blocks.append(a[-1].copy()) or log(s, *a)
                )
                gamma = routed_runs(route, scn, range(runs), force_gamma=force_gamma).gamma
            assert 0.0 < gamma.mean() < 1.0
            P = np.concatenate(blocks)
            lower = upper = P[0]
            for k, P_k in enumerate(P):
                tol = -1e-12 * np.maximum(1.0, np.abs(P_k).max(axis=(1, 2)))
                for gap in (P_k - lower, upper - P_k):
                    assert (np.linalg.eigvalsh(gap)[:, 0] >= tol).all(), (route, runs, k)
                lower = riccati_steps(model, lower, model.R)
                upper = riccati_steps(model, upper, W_drop)


def step_entries(model):
    """The step loop's entries per run and step, as in ``STEP_BLOCK_ENTRIES``."""
    return model.n**2 + 3 * model.n + 2 * model.m + 1


def width(scenario):
    """runs * n^2, the scan's entries per step, as in ``SCAN_BLOCK_ENTRIES``."""
    return scenario.runs * scenario.model.n**2


class TestStepBlocks:
    """The step loop draws, steps the plant and logs once per block of steps;
    no block length changes a value but the open-loop plant path's rounding
    (see :class:`TestOpenLoopPlantPath`)."""

    @pytest.mark.parametrize(
        "pairing", [0, 2, 3, 4, 5], ids=[PAIRING_IDS[p] for p in (0, 2, 3, 4, 5)]
    )
    def test_block_length_changes_nothing(self, monkeypatch, pairing):
        for n in (3, 1):
            model = oracle_model(n, n, seed=33)
            trig = oracle_pairings(n)[pairing]
            scn = Scenario(
                model=model, trigger=trig, horizon=50, runs=2, seed=7, burn_in=10,
                pre_roll=3, x0_mean=np.arange(1.0, n + 1.0),
            )
            forced = (np.random.default_rng(pairing).random(50) < 0.5).astype(int)
            monkeypatch.undo()
            refs = [
                step_runs(scn, [0, 1]), step_runs(scn, [1, 0], force_gamma=forced, sums=False),
            ]
            assert 0.0 < refs[0].gamma.mean() <= 1.0
            for steps in (1, 2, 7):
                monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", steps * 2 * step_entries(model))
                assert_blocks_equal(step_runs(scn, [0, 1]), refs[0])
                assert_blocks_equal(
                    step_runs(scn, [1, 0], force_gamma=forced, sums=False), refs[1]
                )

    def test_wide_clset_equals_single_runs(self):
        # 3000 singer runs take several blocks, as does each run alone
        scn = singer_scenario(1.0, 0.01, 5.0, z_scale=0.52, runs=3000, horizon=60, seed=9)
        assert 1 < harness.STEP_BLOCK_ENTRIES // (scn.runs * step_entries(scn.model)) < 30
        block = _simulate_runs(scn, range(scn.runs))
        assert 0.0 < block.gamma.mean() < 1.0
        for r in (0, 1, 1499, 2998, 2999):
            rec = simulate(scn, r)
            for name in ("gamma", "P_trace", "sq_err", "P11", "sq_err11"):
                np.testing.assert_array_equal(getattr(block, name)[r], getattr(rec, name))

    @pytest.mark.parametrize("pairing", [2, 5], ids=["clset", "threshold"])
    def test_every_row_equals_its_single_run(self, monkeypatch, pairing):
        model = oracle_model(2, 1, seed=21)
        trig = oracle_pairings(1)[pairing]
        scn = Scenario(model=model, trigger=trig, horizon=40, runs=9, seed=3)
        # blocks of 3 steps, for all nine runs as for one
        monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", 3 * 9 * step_entries(model))
        block = _simulate_runs(scn, range(scn.runs))
        for r in range(scn.runs):
            rec = simulate(scn, r, record_full=True)
            np.testing.assert_array_equal(block.gamma[r], rec.gamma)
            np.testing.assert_array_equal(block.P_trace[r], rec.P_trace)
            np.testing.assert_array_equal(block.sq_err[r], rec.sq_err)


class CountingGenerator:
    """A run's generator that counts its calls by name."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def random(self, *args, **kwargs):
        self.calls["random"] += 1
        return self.rng.random(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls["standard_normal"] += 1
        return self.rng.standard_normal(*args, **kwargs)


class TestDraws:
    """Each run draws its horizon's uniforms in one call and its normals in
    one call at setup and one per block, on both paths."""

    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_one_draw_call_per_run_and_block(self, monkeypatch, pairing):
        model = oracle_model(2, 1, seed=21)
        trig = oracle_pairings(1)[pairing]
        scn = Scenario(
            model=model, trigger=trig, horizon=50, runs=3, seed=7, burn_in=10,
            pre_roll=2,
        )
        # blocks of 7 steps for the scenario's three runs, so 8 blocks of the
        # horizon of 50
        monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", 7 * 3 * step_entries(model))
        monkeypatch.setattr(harness, "SCAN_BLOCK_ENTRIES", 7 * width(scn))
        paths = [step_runs] + ([scan_runs] if pairing in FEEDBACK_FREE else [])
        refs = [path(scn, [2, 0]) for path in paths]
        gens = []
        monkeypatch.setattr(
            harness, "_rng_for_run",
            lambda seed, r: gens.append(CountingGenerator(np.random.default_rng([seed, r])))
            or gens[-1],
        )
        for path, ref in zip(paths, refs):
            gens.clear()
            assert_blocks_equal(path(scn, [2, 0]), ref)
            assert len(gens) == 2
            for g in gens:
                assert g.calls == {"random": 1, "standard_normal": 1 + 8}


class TestRunLengthHistogram:
    """Vectorised run-length counting against the per-entry loop."""

    @staticmethod
    def reference(gamma, value):
        counts = Counter()
        for row in np.atleast_2d(gamma):
            counts.update(maximal_runs(row, value))
        return dict(sorted(counts.items()))

    def test_random_arrays(self):
        rng = np.random.default_rng(60)
        for runs, T, p in [(1, 200, 0.5), (7, 50, 0.2), (30, 13, 0.8), (4, 1, 0.5)]:
            gamma = (rng.random((runs, T)) < p).astype(np.int8)
            for value in (0, 1):
                assert _run_length_histogram(gamma, value) == self.reference(gamma, value)

    @pytest.mark.parametrize(
        "gamma",
        [np.zeros((3, 9)), np.ones((3, 9)), np.zeros((1, 1)), np.ones((1, 1)), np.ones((5, 1))],
        ids=["zeros", "ones", "single-zero", "single-one", "column"],
    )
    def test_edge_cases(self, gamma):
        gamma = gamma.astype(np.int8)
        for value in (0, 1):
            got = _run_length_histogram(gamma, value)
            assert got == self.reference(gamma, value)
            assert all(type(k) is int and type(v) is int for k, v in got.items())
