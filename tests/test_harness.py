import io
import json
from collections import Counter

import numpy as np
import pytest

from setkf import (
    CalibrationFailed,
    ConfigError,
    Scenario,
    TriggerPolicy,
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
from setkf.estimation import MAX_PERIOD
from setkf.harness import (
    SCAN_MAX_WIDTH,
    _scan_runs,
    _simulate_runs,
    _step_runs,
    _run_length_histogram,
    write_comparison_csv,
    write_monte_carlo_csv,
    write_trajectory_csv,
)
from util import maximal_runs, random_spd, simulate_reference

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
        for path in (_scan_runs, _step_runs):
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
        for extra in ({}, {"pre_roll": 7, "x0_mean": np.arange(1.0, n + 1.0)}):
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
        scn = Scenario(model=model, trigger=trig, horizon=60, seed=6, burn_in=5)
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


class TestScanOracle:
    """The scan path of the kernel against its step loop."""

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 3), (6, 2)])
    @pytest.mark.parametrize("pairing", FEEDBACK_FREE, ids=[PAIRING_IDS[i] for i in FEEDBACK_FREE])
    def test_scan_matches_step_loop(self, n, m, pairing):
        model = oracle_model(n, m, seed=10 * n + m)
        trig = oracle_pairings(m)[pairing]
        for horizon in (1, 2, 3, 77):
            for extra in ({}, {"pre_roll": 7, "x0_mean": np.arange(1.0, n + 1.0)}):
                scn = Scenario(
                    model=model, trigger=trig, horizon=horizon, runs=2, seed=5,
                    burn_in=0, **extra,
                )
                for sums in (False, True):
                    assert_blocks_agree(
                        _scan_runs(scn, [1, 0], sums=sums), _step_runs(scn, [1, 0], sums=sums)
                    )
                block = _scan_runs(scn, [1], sums=True)
                assert_priors_psd(block)

    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_forced_gamma(self, pairing):
        # a forced gamma takes the scan for every pairing, clset and the
        # deterministic threshold included
        model = oracle_model(2, 1, seed=21)
        trig = oracle_pairings(1)[pairing]
        forced = (np.random.default_rng(pairing).random(60) < 0.5).astype(int)
        scn = Scenario(model=model, trigger=trig, horizon=60, seed=6, burn_in=5)
        block = _simulate_runs(scn, [2], force_gamma=forced)
        assert_blocks_equal(block, _scan_runs(scn, [2], force_gamma=forced))
        assert_blocks_agree(block, _step_runs(scn, [2], force_gamma=forced))
        assert_priors_psd(block)

    @pytest.mark.parametrize("pairing", FEEDBACK_FREE, ids=[PAIRING_IDS[i] for i in FEEDBACK_FREE])
    def test_block_boundaries(self, monkeypatch, pairing):
        # blocks of 1, 2 and 7 steps restart the scans from the carried state
        model = oracle_model(3, 3, seed=33)
        trig = oracle_pairings(3)[pairing]
        scn = Scenario(
            model=model, trigger=trig, horizon=50, runs=2, seed=7, burn_in=10,
            pre_roll=3,
        )
        ref = _step_runs(scn, [0, 1])
        for entries in (18, 36, 126):
            monkeypatch.setattr(harness, "SCAN_BLOCK_ENTRIES", entries)
            assert_blocks_agree(_scan_runs(scn, [0, 1]), ref)

    def test_singer_open_loop(self):
        # rho(A) = 1: the combine step's I + C J stays well conditioned
        model = singer_scenario(1.0, 0.1, 1.0, z_scale=0.52).model
        assert max(abs(np.linalg.eigvals(model.A))) == 1.0
        scn = Scenario(
            model=model, trigger=TriggerPolicy.open_loop(0.52 * np.eye(3)), horizon=100, runs=3,
            seed=4, burn_in=20,
        )
        block = _scan_runs(scn, range(3))
        assert 0.0 < block.gamma.mean() < 1.0
        assert_blocks_agree(block, _step_runs(scn, range(3)))
        assert_priors_psd(_scan_runs(scn, [2]))

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
            assert_blocks_agree(_scan_runs(scn, [0]), _step_runs(scn, [0]))

    @pytest.mark.parametrize(
        "n, runs, trig, scan",
        [
            (1, SCAN_MAX_WIDTH, TriggerPolicy.open_loop([[0.7]]), True),
            (1, SCAN_MAX_WIDTH + 1, TriggerPolicy.open_loop([[0.7]]), False),
            (2, SCAN_MAX_WIDTH // 4, TriggerPolicy.random_offline(0.4), True),
            (2, SCAN_MAX_WIDTH // 4 + 1, TriggerPolicy.random_offline(0.4), False),
            (1, 1, TriggerPolicy.closed_loop([[0.7]]), False),
            (1, 1, TriggerPolicy.deterministic_threshold(1.0), False),
        ],
        ids=[
            "olset-at-bound", "olset-above", "random-at-bound", "random-above", "clset", "threshold",
        ],
    )
    def test_routing_bound(self, monkeypatch, n, runs, trig, scan):
        scn = Scenario(
            model=oracle_model(n, 1, seed=n), trigger=trig, horizon=9, runs=runs,
            seed=8, burn_in=0,
        )
        paths = []
        for name in ("_scan_runs", "_step_runs"):
            path = getattr(harness, name)
            monkeypatch.setattr(
                harness, name, lambda *a, _path=path, _name=name: paths.append(_name) or _path(*a)
            )
        # the route depends on the scenario, not on the block of runs
        block = _simulate_runs(scn, [runs - 1, 0])
        single = _simulate_runs(scn, [0])
        assert paths == ["_scan_runs" if scan else "_step_runs"] * 2
        np.testing.assert_array_equal(single.sq_err[0], block.sq_err[1])


def step_entries(model):
    """The step loop's entries per run and step, as in ``STEP_BLOCK_ENTRIES``."""
    return model.n**2 + 3 * model.n + 2 * model.m + 1


class TestStepBlocks:
    """The step loop draws, steps the plant and logs once per block of steps;
    no block length changes a value."""

    @pytest.mark.parametrize("pairing", range(6), ids=PAIRING_IDS)
    def test_block_length_changes_nothing(self, monkeypatch, pairing):
        model = oracle_model(3, 3, seed=33)
        trig = oracle_pairings(3)[pairing]
        scn = Scenario(
            model=model, trigger=trig, horizon=50, runs=2, seed=7, burn_in=10,
            pre_roll=3, x0_mean=np.arange(1.0, 4.0),
        )
        forced = (np.random.default_rng(pairing).random(50) < 0.5).astype(int)
        refs = [_step_runs(scn, [0, 1]), _step_runs(scn, [1, 0], force_gamma=forced, sums=False)]
        assert 0.0 < refs[0].gamma.mean() <= 1.0
        for steps in (1, 2, 7):
            monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", steps * 2 * step_entries(model))
            assert_blocks_equal(_step_runs(scn, [0, 1]), refs[0])
            assert_blocks_equal(
                _step_runs(scn, [1, 0], force_gamma=forced, sums=False), refs[1]
            )

    def test_wide_clset_equals_single_runs(self):
        # 3000 singer runs take several blocks, one run the whole horizon
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
        # blocks of 3 steps for all nine runs, of 27 for one
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
        # blocks of 7 steps for the two runs, so 8 blocks of the horizon of 50
        monkeypatch.setattr(harness, "STEP_BLOCK_ENTRIES", 7 * 2 * step_entries(model))
        monkeypatch.setattr(harness, "SCAN_BLOCK_ENTRIES", 7 * harness._width(scn))
        paths = [_step_runs] + ([_scan_runs] if pairing in FEEDBACK_FREE else [])
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
