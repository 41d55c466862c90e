import argparse
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from setkf import (
    CalibrationFailed,
    ConfigError,
    ModelValidationError,
    Scenario,
    TriggerPolicy,
    cli,
    harness,
    validate_model,
)
from setkf.model import steady_state
from setkf.cli import main
from setkf.harness import MAX_LOG_ENTRIES, MAX_RUNS
from setkf.matrices import as_matrix
from util import scalar_g_fixed_point

SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)


@pytest.fixture
def scenario_config(tmp_path):
    cfg = {
        "model": SCALAR.to_dict(),
        "trigger": {"variant": "open_loop", "Y": [[1.0]]},
        "horizon": 60,
        "runs": 4,
        "seed": 1,
        "burn_in": 10,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_csv(scenario_config, tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", "--config", str(scenario_config), "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,gamma,P_trace,mse,P11,mse11"
    assert len(lines) == 61


def test_monte_carlo_reproducible(scenario_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["monte-carlo", "--config", str(scenario_config), "--output", str(out1)]) == 0
    assert main(["monte-carlo", "--config", str(scenario_config), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_monte_carlo_flag_overrides(scenario_config, tmp_path):
    out = tmp_path / "c.csv"
    rc = main(
        ["monte-carlo", "--config", str(scenario_config), "--horizon", "20",
         "--runs", "2", "--seed", "7", "--output", str(out)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 21


def test_analyze_open_loop(scenario_config, tmp_path):
    out = tmp_path / "report.csv"
    assert main(["analyze", "--config", str(scenario_config), "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("quantity,value\n")
    rows = dict(line.split(",") for line in text.splitlines()[1:])
    assert float(rows["gamma"]) == pytest.approx(0.54250, abs=1e-4)
    assert float(rows["X_upper_ol[0][0]"]) == pytest.approx(1.56113, abs=1e-4)


def test_analyze_closed_loop(tmp_path):
    cfg = {
        "model": SCALAR.to_dict(),
        "trigger": {"variant": "closed_loop", "Z": [[1.0]]},
    }
    path = tmp_path / "cl.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cl.csv"
    assert main(["analyze", "--config", str(path), "--output", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["gamma_low"]) == pytest.approx(0.45526, abs=1e-4)
    assert float(rows["gamma_upper"]) == pytest.approx(0.47008, abs=1e-4)


def test_design_search_cli(tmp_path):
    cfg = {"model": SCALAR.to_dict(), "delta0": [[1.5]]}
    path = tmp_path / "design.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "design.csv"
    assert main(["design", "--config", str(path), "--output", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    assert float(rows["theta"]) == pytest.approx(1.58622, abs=1e-4)
    assert float(rows["gamma_achieved"]) == pytest.approx(0.62185, abs=1e-4)


def test_design_export_lmi_cli(tmp_path):
    cfg = {"model": SCALAR.to_dict(), "delta0": [[1.5]]}
    path = tmp_path / "design.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "lmi.txt"
    assert main(["design", "export-lmi", "--config", str(path), "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("setkf-lmi v1\n")
    assert "OBJ" in text and "\nF 1 0 " in text


def test_design_infeasible_exit_code(tmp_path, capsys):
    # a Delta0 below the always-transmit fixed point X0 (1.37 on the scalar
    # plant), in open and closed loop, fails the floor check with one line
    path = tmp_path / "bad.json"
    for model, delta0 in (
        (SCALAR.to_dict(), [[1.3]]),
        (SCALAR.to_dict(), [[1.0]]),
        (TWO_MEASUREMENT, [[0.5, 0.0], [0.0, 0.5]]),
    ):
        for closed_loop in (False, True):
            path.write_text(json.dumps({"model": model, "delta0": delta0, "closed_loop": closed_loop}))
            assert main(["design", "--config", str(path)]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(
                "numerical failure: Delta0 must exceed the always-transmit fixed point"
            )


def test_compare_cli(tmp_path):
    cfg = {"model": SCALAR.to_dict()}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cmp.csv"
    rc = main(
        ["compare", "--config", str(path), "--target-rate", "0.5", "--runs", "5",
         "--horizon", "200", "--seed", "3", "--burn-in", "50", "--output", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheduler,param,empirical_rate,steady_trace"
    assert [l.split(",")[0] for l in lines[1:]] == ["clset", "olset", "periodic", "random"]


def test_singer_cli(tmp_path):
    out = tmp_path / "singer.csv"
    scn_out = tmp_path / "singer_scenario.json"
    rc = main(
        ["singer", "--z-scale", "0.52", "--runs", "5", "--horizon", "30",
         "--seed", "2", "--output", str(out), "--save-scenario", str(scn_out)]
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 31
    saved = json.loads(scn_out.read_text())
    assert saved["trigger"]["variant"] == "closed_loop"
    assert "filter" not in saved
    assert saved["model"]["A"][0][2] == pytest.approx(1.0)


def test_compare_unset_burn_in_fits_the_horizon(tmp_path, capsys):
    # an unset burn-in (200) is cut to horizon - 1; a set one is kept, and one
    # that does not fit is still a config error
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": SCALAR.to_dict()}))
    compare = ["compare", "--config", str(path), "--target-rate", "0.5", "--runs", "3",
               "--horizon", "150", "--seed", "3", "--output"]
    unset, cut = tmp_path / "unset.csv", tmp_path / "cut.csv"
    assert main(compare + [str(unset)]) == 0
    assert main(compare + [str(cut), "--burn-in", "149"]) == 0
    assert unset.read_bytes() == cut.read_bytes()
    assert main(compare + [str(cut), "--burn-in", "150"]) == 2
    assert "burn_in must satisfy" in capsys.readouterr().err


def test_compare_unreachable_period_fails_first(tmp_path, capsys, monkeypatch):
    # no integer period reaches rate 0.3, so the table is refused before the
    # closed- and open-loop calibrations run
    def never(*args, **kwargs):
        raise AssertionError("calibrated after the period had failed")

    monkeypatch.setattr(harness, "calibrate_closed_loop", never)
    monkeypatch.setattr(harness, "calibrate_open_loop", never)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": SCALAR.to_dict()}))
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--config", str(path), "--target-rate", "0.3", "--output", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: periodic scheduler:")
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1e-300", "1e-17", "1e-310"])
def test_compare_tiny_target_rate_names_the_rate(tmp_path, capsys, rate):
    # 1 - rate rounds to 1, so the scalar open-loop weight comes out 0; and
    # 1 / 1e-310 overflows, so no integer period can be formed
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": SCALAR.to_dict()}))
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--config", str(path), "--target-rate", rate, "--output", str(out)])
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: ") and rate in err[0]
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1e-13", "1e-12"])
def test_compare_weight_below_the_ray_floor(tmp_path, capsys, rate):
    # the scalar plant's open-loop weight has a closed form below 1e-12 here;
    # both calibrations refuse it with one message, the line compare prints
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": SCALAR.to_dict()}))
    rc = main(["compare", "--config", str(path), "--target-rate", rate, "--runs", "2"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    messages = set()
    for calibrate, arg in (
        (harness.calibrate_open_loop, steady_state(SCALAR)),
        (harness.calibrate_closed_loop, SCALAR),
    ):
        with pytest.raises(CalibrationFailed) as exc:
            calibrate(arg, float(rate))
        messages.add(f"numerical failure: {exc.value}")
    assert messages == {
        f"numerical failure: target rate {rate} unreachable: no trigger weight theta in"
        " [1e-12, 1e+15] gives it"
    }
    assert err.splitlines() == list(messages)


@pytest.mark.parametrize("command", ["simulate", "monte-carlo"])
def test_unset_burn_in_follows_an_overridden_horizon(tmp_path, capsys, command):
    cfg = {"model": SCALAR.to_dict(), "trigger": {"variant": "open_loop", "Y": [[1.0]]},
           "horizon": 1000, "runs": 2}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    args = [command, "--config", str(path), "--horizon", "150", "--output", str(out)]
    assert main(args) == 0
    assert len(out.read_text().splitlines()) == 151
    path.write_text(json.dumps(dict(cfg, burn_in=200)))
    assert main(args) == 2
    assert "burn_in must satisfy" in capsys.readouterr().err


def test_singer_unset_burn_in_fits_the_horizon(tmp_path):
    for horizon, burn_in in (("10", 9), ("30", 20)):
        saved = tmp_path / f"singer_{horizon}.json"
        rc = main(
            ["singer", "--z-scale", "0.52", "--runs", "3", "--horizon", horizon,
             "--output", str(tmp_path / "singer.csv"), "--save-scenario", str(saved)]
        )
        assert rc == 0
        assert json.loads(saved.read_text())["burn_in"] == burn_in


def test_config_error_exit_codes(tmp_path):
    missing = tmp_path / "missing.json"
    assert main(["simulate", "--config", str(missing)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(
        json.dumps(
            {
                "model": {"A": [[1.0]], "C": [[0.0]], "Q": [[1.0]], "R": [[1.0]], "Sigma0": [[1.0]]},
                "trigger": {"variant": "open_loop", "Y": [[1.0]]},
                "horizon": 10,
                "burn_in": 0,
            }
        )
    )
    assert main(["simulate", "--config", str(invalid)]) == 2

    no_cfg = main(["simulate"])
    assert no_cfg == 2

    # unstable model requesting an open-loop analysis is a config-class error
    unstable = tmp_path / "unstable.json"
    unstable.write_text(
        json.dumps(
            {
                "model": {"A": [[1.1]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "Sigma0": [[1.0]]},
                "trigger": {"variant": "open_loop", "Y": [[1.0]]},
            }
        )
    )
    assert main(["analyze", "--config", str(unstable)]) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "model_update, Y",
    [
        ({"A": "nan"}, [[1.0]]),
        ({}, [[float("inf")]]),
        ({}, [[1e308]]),
        ({}, [[1.0, 1e308], [-1e308, 1.0]]),
    ],
    ids=["A-nan", "Y-Infinity", "Y-1e308", "Y-antisymmetric-1e308"],
)
def test_non_finite_config_exit_code(tmp_path, capsys, model_update, Y):
    cfg = {"model": {**SCALAR.to_dict(), **model_update}, "trigger": {"variant": "open_loop", "Y": Y}}
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(cfg))
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--target-rate", "nan"],
        ["compare", "--target-rate", "inf"],
        ["singer", "--z-scale", "inf", "--runs", "2", "--horizon", "10"],
        ["singer", "--delta", "nan", "--runs", "2", "--horizon", "10"],
        ["singer", "--z-scale", "1", "--T", "nan", "--runs", "2", "--horizon", "10"],
    ],
    ids=["target-rate-nan", "target-rate-inf", "z-scale-inf", "delta-nan", "T-nan"],
)
def test_non_finite_flag_exit_code(tmp_path, capsys, argv):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": SCALAR.to_dict()}))
    config = ["--config", str(path)] if argv[0] == "compare" else []
    assert main([*argv, *config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err and err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a13", ["paper", "half"])
def test_singer_huge_period_exit_code(capsys, a13):
    # T**5 overflows, so Q is not finite: refused as configuration, as a
    # huge --alpha is, where Python floats raised OverflowError
    message = "matrix 'Q' is not symmetric positive-definite (non-finite entries)"
    with pytest.raises(ModelValidationError, match=re.escape(message)):
        harness.singer_scenario(1e62, 0.5, 1.0, z_scale=0.5, a13=a13, runs=2, horizon=20)
    argv = ["singer", "--z-scale", "0.5", "--T", "1e62", "--a13", a13, "--runs", "2",
            "--horizon", "20"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "mode, closed_loop",
    [(mode, value) for mode in ([], ["export-lmi"]) for value in ("no", "true", 1, 0, None)],
    ids=[f"{prefix}{value!r}" for prefix in ("", "export-lmi-") for value in ("no", "true", 1, 0, None)],
)
def test_design_closed_loop_must_be_a_boolean(tmp_path, capsys, mode, closed_loop):
    cfg = {"model": SCALAR.to_dict(), "delta0": [[1.5]], "closed_loop": closed_loop}
    path = tmp_path / "design.json"
    path.write_text(json.dumps(cfg))
    assert main(["design", *mode, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "closed_loop" in err and err.count("\n") == 1


def test_reused_parser_matches_fresh_parsers(scenario_config, tmp_path, capsys, monkeypatch):
    # main keeps one parser per process: no flag or default may carry over
    # from one call to the next
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": SCALAR.to_dict()}))
    cfg = str(scenario_config)
    compare = ["compare", "--config", str(model), "--target-rate", "0.5", "--horizon", "80", "--runs", "2"]
    calls = [
        ["simulate", "--config", cfg, "--run-index", "3"],
        ["simulate", "--config", cfg],
        [*compare, "--burn-in", "5"],
        compare,
        ["monte-carlo", "--config", cfg, "--runs", "3", "--seed", "5"],
        ["monte-carlo", "--config", cfg],
        ["singer", "--z-scale", "0.52", "--runs", "3", "--horizon", "20", "--a13", "half"],
        ["singer", "--delta", "1.6", "--runs", "3", "--horizon", "20"],
    ]

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    reused = [run(argv) for argv in calls]
    parser = cli._parser
    assert parser is not None
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(argv))
        assert cli._parser is not parser
    assert reused == fresh
    # each pair differs in one flag, and the flag shows in the output
    assert all(reused[i] != reused[i + 1] for i in range(0, len(calls), 2))


@pytest.mark.parametrize(
    "command, update",
    [
        ("analyze", {"model": {**SCALAR.to_dict(), "A": "abc"}}),
        ("analyze", {"trigger": {"variant": "open_loop", "Y": "x"}}),
        ("design", {"delta0": "x"}),
        ("analyze", {"trigger": {"variant": "open_loop"}}),
        # JSON true is not the number 1, in a matrix as in a scalar
        ("analyze", {"model": {**SCALAR.to_dict(), "R": True}}),
        ("analyze", {"trigger": {"variant": "open_loop", "Y": [[True]]}}),
        ("design", {"basis": True}),
        ("design export-lmi", {"basis": True}),
        ("design", {"delta0": [[True]]}),
    ],
    ids=["A-abc", "Y-x", "delta0-x", "Y-missing", "R-true", "Y-true", "basis-true",
         "export-lmi-basis-true", "delta0-true"],
)
def test_malformed_matrix_config_exit_code(tmp_path, capsys, command, update):
    cfg = {
        "model": SCALAR.to_dict(),
        "trigger": {"variant": "open_loop", "Y": [[1.0]]},
        "delta0": [[1.5]],
        **update,
    }
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    assert main([*command.split(), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "value",
    [True, [[True]], [[True, 1.0]], [[1.0], [np.True_]], np.array([[True, False]])],
    ids=["true", "[[true]]", "mixed-row", "numpy-bool-entry", "bool-array"],
)
def test_as_matrix_refuses_booleans(value):
    with pytest.raises(ConfigError, match="booleans are not numbers"):
        as_matrix(value, "M")


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--horizon", "5"], ["design", "--format", "csv"], ["monte-carlo", "--seed", "x"], []],
    ids=["analyze-horizon", "design-format", "seed-not-an-int", "no-subcommand"],
)
def test_usage_error_exit_code(tmp_path, capsys, argv):
    # a flag a subcommand does not take, or a malformed one, is a config error
    # of one line, returned by main rather than raised as SystemExit
    path = tmp_path / "config.json"
    cfg = {"model": SCALAR.to_dict(), "trigger": {"variant": "open_loop", "Y": [[1.0]]}, "delta0": [[1.5]]}
    path.write_text(json.dumps(cfg))
    config = ["--config", str(path)] if argv[:1] in (["analyze"], ["design"]) else []
    assert main([*argv, *config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["monte-carlo"], ["analyze"], ["design"], ["compare", "--target-rate", "0.5"]],
    ids=lambda argv: argv[0],
)
def test_missing_config_exit_code(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {argv[0]} requires --config\n"


# every flag of each subcommand; each is read by its command, so one that is
# added without a reader shows here
FLAGS = {
    "simulate": {"--config", "--seed", "--horizon", "--run-index", "--output"},
    "monte-carlo": {"--config", "--seed", "--horizon", "--runs", "--output"},
    "analyze": {"--config", "--output"},
    "design": {"mode", "--config", "--output"},
    "compare": {"--config", "--seed", "--horizon", "--runs", "--burn-in", "--target-rate", "--output"},
    "singer": {
        "--T", "--alpha", "--sigma-m2", "--z-scale", "--delta", "--a13",
        "--seed", "--horizon", "--runs", "--output", "--save-scenario",
    },
}


def test_subcommand_flags():
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {
            action.option_strings[-1] if action.option_strings else action.dest
            for action in parser._actions
            if action.dest != "help"
        }
        for name, parser in commands.choices.items()
    }
    assert flags == FLAGS


@pytest.mark.parametrize(
    "command, update, args",
    [
        ("simulate", {"horizon": "ten"}, []),
        ("simulate", {"seed": -1}, []),
        ("simulate", {"x0_mean": ["a"]}, []),
        ("simulate", {"x0_mean": [float("nan")]}, []),
        ("simulate", {"trigger": {"variant": "periodic", "period": "x"}}, []),
        ("simulate", {"trigger": {"variant": "random", "p": "x"}}, []),
        ("simulate", {"model": [1, 2]}, []),
        ("monte-carlo", {"runs": 2.5}, []),
        ("simulate", {}, ["--run-index", "-1"]),
        ("analyze", None, []),
    ],
    ids=[
        "horizon-ten", "seed-negative", "x0_mean-a", "x0_mean-nan", "period-x", "p-x", "model-list",
        "runs-fraction", "run-index-negative", "analyze-list",
    ],
)
def test_malformed_scenario_scalar_exit_code(tmp_path, capsys, command, update, args):
    base = {
        "model": SCALAR.to_dict(),
        "trigger": {"variant": "open_loop", "Y": [[1.0]]},
        "horizon": 20,
        "burn_in": 5,
    }
    cfg = [1, 2] if update is None else {**base, **update}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, update",
    [
        ("simulate", {"horizon": 1e308}),
        ("simulate", {"horizon": 1e12}),
        ("monte-carlo", {"runs": 1e308}),
    ],
    ids=["horizon-1e308", "horizon-1e12", "runs-1e308"],
)
def test_huge_count_exit_code(tmp_path, capsys, command, update):
    # rejected by the count limit before any generator or log is allocated
    cfg = {
        "model": SCALAR.to_dict(),
        "trigger": {"variant": "open_loop", "Y": [[1.0]]},
        "horizon": 20,
        "burn_in": 5,
        **update,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(MAX_LOG_ENTRIES) in err


def test_count_limit_boundary():
    trigger = TriggerPolicy.open_loop(np.eye(2))
    two_state = validate_model(0.5 * np.eye(2), np.eye(2), np.eye(2), np.eye(2), np.eye(2))
    at_limit = Scenario(
        model=two_state, trigger=trigger, horizon=MAX_LOG_ENTRIES // 4, runs=2
    )
    assert at_limit.runs * at_limit.horizon * two_state.n == MAX_LOG_ENTRIES
    with pytest.raises(ConfigError):
        Scenario(
            model=two_state, trigger=trigger, horizon=MAX_LOG_ENTRIES // 4 + 1, runs=2,
        )


def test_run_count_limit(tmp_path, capsys, monkeypatch):
    # within MAX_LOG_ENTRIES, but the generators alone would take about 20 GB
    def no_generator(seed, run_index):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(harness, "_rng_for_run", no_generator)
    cfg = {
        "model": SCALAR.to_dict(),
        "trigger": {"variant": "open_loop", "Y": [[1.0]]},
        "horizon": 1,
        "runs": 2e7,
    }
    path = tmp_path / "many_runs.json"
    path.write_text(json.dumps(cfg))
    assert main(["monte-carlo", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(MAX_RUNS) in err

    trigger = TriggerPolicy.open_loop([[1.0]])
    geometry = dict(model=SCALAR, trigger=trigger, horizon=1, burn_in=0)
    assert Scenario(runs=MAX_RUNS, **geometry).runs == MAX_RUNS
    with pytest.raises(ConfigError):
        Scenario(runs=MAX_RUNS + 1, **geometry)


def test_period_beyond_int64_exit_code(tmp_path, capsys):
    cfg = {"model": SCALAR.to_dict(), "trigger": {"variant": "periodic", "period": 1e30},
           "horizon": 20, "runs": 2}
    path = tmp_path / "period.json"
    path.write_text(json.dumps(cfg))
    assert main(["monte-carlo", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "period" in err and err.count("\n") == 1


def test_huge_phase_is_reduced_modulo_period(tmp_path, capsys):
    outputs = []
    for phase in (1e30, 10**30 % 3):
        trigger = {"variant": "periodic", "period": 3, "phase": phase}
        cfg = {"model": SCALAR.to_dict(), "trigger": trigger, "horizon": 20, "runs": 2}
        path = tmp_path / "phase.json"
        path.write_text(json.dumps(cfg))
        assert main(["monte-carlo", "--config", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


TWO_STATE = {"A": [[0.5, 0.1], [0.0, 0.6]], "C": [[1.0, 0.0]], "Q": np.eye(2).tolist(),
             "R": [[1.0]], "Sigma0": np.eye(2).tolist()}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["monte-carlo"], ["analyze"], ["design"], ["design", "export-lmi"],
     ["compare", "--target-rate", "0.5"]],
    ids=["simulate", "monte-carlo", "analyze", "design", "export-lmi", "compare"],
)
def test_huge_finite_plant_exit_code(tmp_path, capsys, argv):
    # every entry of A is finite, its eigenvalues are not
    cfg = {"model": {**TWO_STATE, "A": [[1e308, 1e308], [1e308, 1e308]]},
           "trigger": {"variant": "open_loop", "Y": [[1.0]]}, "horizon": 10,
           "delta0": [[3.0, 0.0], [0.0, 3.0]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert main([*argv, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "eigenvalues" in err and err.count("\n") == 1


def test_config_not_utf8_exit_code(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"model": "\xff"}')
    assert main(["analyze", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--output", "--save-scenario"])
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_exit_code(scenario_config, tmp_path, capsys, flag, where):
    # the file cannot be opened: one config-error line and exit 2, as for a
    # config that cannot be read
    path = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
    if flag == "--output":
        argv = ["simulate", "--config", str(scenario_config), "--output", str(path)]
    else:
        argv = ["singer", "--z-scale", "0.5", "--runs", "2", "--horizon", "5",
                "--save-scenario", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: cannot write {path}: ") and err.count("\n") == 1


def test_export_lmi_delta0_shape_exit_code(tmp_path, capsys):
    # a 1 x 1 delta0 would otherwise fill the plant's 2 x 2 block by broadcasting
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"model": TWO_STATE, "delta0": [[3.0]]}))
    assert main(["design", "export-lmi", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Delta0" in err and err.count("\n") == 1


TWO_MEASUREMENT = {"A": [[0.8, 1.0], [0.0, 0.95]], "C": [[0.5, 0.3], [0.0, 1.4]],
                   "Q": np.eye(2).tolist(), "R": np.eye(2).tolist(), "Sigma0": np.eye(2).tolist()}


@pytest.mark.parametrize(
    "command, variant, key",
    [
        ("simulate", "closed_loop", "Z"),
        ("simulate", "open_loop", "Y"),
        ("monte-carlo", "open_loop", "Y"),
        ("monte-carlo", "closed_loop", "Z"),
        ("analyze", "open_loop", "Y"),
        ("analyze", "closed_loop", "Z"),
    ],
)
def test_wrong_size_weight_exit_code(tmp_path, capsys, command, variant, key):
    # a 1 x 1 weight on the two-measurement plant once failed inside numpy
    path = tmp_path / "scenario.json"
    config = {"model": TWO_MEASUREMENT, "trigger": {"variant": variant, key: [[0.5]]}}
    path.write_text(json.dumps({**config, "horizon": 10, "runs": 2}))
    assert main([command, "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"config error: matrix '{key}' is not symmetric positive-definite (must be 2 x 2)\n"
    )


def test_scan_singular_prior_exit_code(tmp_path, capsys):
    # the scan's covariance composition meets a singular matrix on this prior
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"model": {**TWO_STATE, "Sigma0": (1e300 * np.eye(2)).tolist()}}))
    rc = main(["compare", "--config", str(path), "--target-rate", "0.5", "--runs", "2",
               "--horizon", "20"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1


@pytest.mark.parametrize("closed_loop", [False, True], ids=["open", "closed"])
def test_design_near_unit_root(tmp_path, closed_loop):
    a = 0.999999
    model = validate_model(a, 1.0, 1.0, 1.0, 1.0)
    cfg = {"model": model.to_dict(), "delta0": [[3.0]], "closed_loop": closed_loop}
    path = tmp_path / "near_unit.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "near_unit.csv"
    assert main(["design", "--config", str(path), "--output", str(out)]) == 0
    rows = dict(line.split(",") for line in out.read_text().splitlines()[1:])
    theta = float(rows["theta"])
    # the boundary weight puts fix(g_{R + 1/theta}) at delta0
    assert scalar_g_fixed_point(a, 1.0, 1.0, 1.0 + 1.0 / theta) == pytest.approx(3.0, rel=1e-6)


@pytest.mark.parametrize(
    "trigger, filt",
    [
        ({"variant": "open_loop", "Y": [[1.0]]}, "olset"),
        ({"variant": "closed_loop", "Z": [[1.0]]}, "clset"),
        ({"variant": "periodic", "period": 1}, "standard"),
        ({"variant": "periodic", "period": 1}, "offline-baseline"),
        ({"variant": "periodic", "period": 3, "phase": 1}, "offline-baseline"),
        ({"variant": "random", "p": 0.5}, "offline-baseline"),
        ({"variant": "deterministic_threshold", "delta": 1.0}, "offline-baseline"),
    ],
    ids=["olset", "clset", "standard", "period-1", "periodic", "random", "threshold"],
)
def test_filter_key_is_ignored(tmp_path, capsys, trigger, filt):
    # the trigger fixes the filter, so a config's "filter" key is ignored
    # like any other key the scenario does not use
    outputs = []
    for extra in ({}, {"filter": filt}):
        cfg = {"model": TWO_STATE, "trigger": trigger, "horizon": 30, "runs": 2, "seed": 4, **extra}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--run-index", "1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


CLSET = {"variant": "closed_loop", "Z": [[1.0]]}
BROKEN_COVARIANCE = "prior covariance at step 2 has a diagonal entry that is not positive and finite"
LOST_ERROR = "prior error at step 2 lies more than 1000 standard deviations out"


@pytest.mark.parametrize(
    "command, trigger, scale, extra, message",
    [
        ("monte-carlo", CLSET, 1e300, {}, BROKEN_COVARIANCE),
        ("monte-carlo", CLSET, 1e150, {}, BROKEN_COVARIANCE),
        ("simulate", {"variant": "periodic", "period": 3, "phase": 1}, 1e300, {},
         BROKEN_COVARIANCE),
        # the covariance stays positive and finite, but the error has lost
        # its digits: at step 2 tr P is below 34 and e'e above 1e264
        ("monte-carlo", CLSET, 1e300, {"pre_roll": 2, "x0_mean": [0.5, -0.5]}, LOST_ERROR),
        # one run of the triggers that read the estimate steps as two do
        ("monte-carlo", CLSET, 1e300, {"runs": 1}, BROKEN_COVARIANCE),
        ("monte-carlo", {"variant": "deterministic_threshold", "delta": 1.0}, 1e300, {"runs": 1},
         BROKEN_COVARIANCE),
        ("monte-carlo", {"variant": "open_loop", "Y": [[1.0]]}, 1e300, {"runs": 1}, LOST_ERROR),
        ("monte-carlo", {"variant": "open_loop", "Y": [[1.0]]}, 1e300, {}, LOST_ERROR),
    ],
    ids=["clset-1e300", "clset-1e150", "periodic-scan-1e300", "clset-pre-roll-1e300",
         "clset-sweeps-1e300", "threshold-sweeps-1e300", "olset-scan-1-1e300",
         "olset-scan-2-1e300"],
)
def test_broken_prior_covariance_exit_code(tmp_path, capsys, command, trigger, scale, extra,
                                           message):
    # a huge prior makes the posterior's P - K C P cancel: the step loop's
    # covariance turns negative at step 2, the scan's not a number; where
    # it stays positive, the error keeps the rounding residue of its prior
    cfg = {"model": {**TWO_STATE, "Sigma0": (scale * np.eye(2)).tolist()}, "trigger": trigger,
           "horizon": 20, "runs": 2, "seed": 1, "burn_in": 5, **extra}
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"numerical failure: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, trigger",
    [
        (["monte-carlo"], {"variant": "closed_loop", "Z": [[1.0]]}),
        (["simulate"], {"variant": "closed_loop", "Z": [[1.0]]}),
        (["analyze"], {"variant": "closed_loop", "Z": [[1.0]]}),
        (["design"], None),
        (["design", "export-lmi"], None),
    ],
    ids=["monte-carlo", "simulate", "analyze", "design", "export-lmi"],
)
def test_floating_point_overflow_exit_code(tmp_path, capsys, argv, trigger):
    # a measurement matrix of 1e300 overflows products in every subcommand:
    # one numerical-failure line, and no warning
    cfg = {"model": {**TWO_STATE, "C": [[1e300, 0.0]]}, "trigger": trigger, "horizon": 20,
           "runs": 2, "delta0": [[3.0, 0.0], [0.0, 3.0]]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(cfg))
    assert main([*argv, "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical failure:") and err.count("\n") == 1


@pytest.mark.filterwarnings("error")
def test_huge_initial_mean_keeps_the_error_finite(tmp_path, capsys):
    # the prior error is drawn, not the difference of a huge x0 and its
    # mean, so the logged error stays finite
    cfg = {"model": TWO_STATE, "trigger": {"variant": "periodic", "period": 3, "phase": 1},
           "horizon": 20, "runs": 2, "seed": 1, "burn_in": 5, "pre_roll": 2,
           "x0_mean": [0.5e300, -0.5e300]}
    path = tmp_path / "mean.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 20 and np.isfinite(np.array(rows, dtype=float)).all()


def _near_unit(e, **fields):
    """A 2-state plant with rho(A) = 0.999, its Q, R, Sigma0 and delta0
    scaled by 10**e."""
    s = lambda k: float(f"{k}e{e}")  # as the JSON literal 4e-9 reads, not 4 * 1e-9
    eye = [[s(1), 0.0], [0.0, s(1)]]
    model = {"A": [[0.999, 0.1], [0.0, 0.9]], "C": [[1.0, 0.0]], "Q": eye, "R": [[s(1)]],
             "Sigma0": eye}
    return {"model": model, "delta0": [[s(4), s(1)], [s(1), s(10)]], **fields}


SCALAR_DESIGN = {"model": SCALAR.to_dict(), "delta0": [[1.5]]}
FULL_WEIGHT = [[2.0, 0.5], [0.5, 1.0]]
OLSET = {"variant": "open_loop", "Y": [[1.0]]}
NEAR_UNIT_TRIGGERS = {"open": OLSET, "closed": CLSET}

# name -> (config, arguments, exit code, how the one stderr line starts);
# on exit 0 stderr must be empty
CONTRACT = {
    # 200 scalar runs, and 40 on two measurements at the default horizon, put
    # every compare row past the scan and float bounds, into the step loop
    "compare-200-runs": (
        SCALAR_DESIGN, ["compare", "--target-rate", "0.5", "--runs", "200", "--horizon", "50"], 0, "",
    ),
    "two-measurement-compare-40-runs": (
        {"model": TWO_MEASUREMENT}, ["compare", "--target-rate", "0.5", "--runs", "40"], 0, "",
    ),
    # too wide for the scan: the step loop, each block's open-loop decisions in one call
    "monte-carlo-200-runs": (
        {"model": SCALAR.to_dict(), "trigger": OLSET, "horizon": 10, "runs": 2},
        ["monte-carlo", "--runs", "200"], 0, "",
    ),
    **{
        f"two-measurement-analyze-{variant}": (
            {"model": TWO_MEASUREMENT, "trigger": {"variant": variant, key: FULL_WEIGHT}},
            ["analyze"], 0, "",
        )
        for variant, key in (("open_loop", "Y"), ("closed_loop", "Z"))
    },
    # at 1e-150 the covariances fall under the model's floor PD_FLOOR = 1e-10
    **{
        f"near-unit-1e{e}-analyze-{name}": (
            _near_unit(e, trigger=trigger), ["analyze"], 2 if e == -150 else 0, "config error:",
        )
        for e in (0, 150, -9, -150)
        for name, trigger in NEAR_UNIT_TRIGGERS.items()
    },
    **{
        f"near-unit-1e{e}-design-{name}": (
            _near_unit(e, closed_loop=name == "closed"), ["design"], 2 if e == -150 else 0,
            "config error:",
        )
        for e in (0, 150, -9, -150)
        for name in NEAR_UNIT_TRIGGERS
    },
    # one closed-loop run of an unstable plant steps in Python floats over long drop runs
    "unstable-closed-loop-8000-steps": (
        {"model": {**SCALAR.to_dict(), "A": [[1.2]]},
         "trigger": {"variant": "closed_loop", "Z": [[0.028]]}, "horizon": 8000},
        ["simulate"], 0, "",
    ),
    # a huge C overflows the floats' innovation covariance
    "scalar-C-1e300": (
        {"model": {**SCALAR.to_dict(), "A": [[0.5]], "C": [[1e300]]}, "trigger": CLSET,
         "horizon": 20},
        ["simulate"], 3, "numerical failure:",
    ),
}


@pytest.mark.parametrize("name", CONTRACT)
def test_cli_contract(tmp_path, capsys, name):
    # the exit code, and stderr empty or one line; pyproject raises any RuntimeWarning
    config, args, code, start = CONTRACT[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([*args, "--config", str(path)]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(start) and err.count("\n") == 1


@pytest.mark.parametrize("closed_loop", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize(
    "delta0, theta", [(1.3705, "440.445293427"), (2.77, "0.000571417189349")],
    ids=["theta-440", "theta-5.7e-4"],
)
def test_far_boundary_design(tmp_path, capsys, delta0, theta, closed_loop):
    # boundaries far from theta = 1 on the scalar plant, so the ray search's
    # doublings and halvings run past its first round
    path = tmp_path / "far.json"
    path.write_text(json.dumps({**SCALAR_DESIGN, "delta0": [[delta0]], "closed_loop": closed_loop}))
    assert main(["design", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and f"theta,{theta}" in out.splitlines()


@pytest.mark.parametrize(
    "config, args, runs",
    [
        # 8 and 9 take the scan, 200 and 300 scalar runs (40 and 60 on two
        # measurements) the step loop, one block of the horizon each
        ({"model": SCALAR.to_dict(), "trigger": OLSET}, ["--horizon", "500"], (8, 9)),
        ({"model": SCALAR.to_dict(), "trigger": OLSET}, ["--horizon", "500"], (200, 300)),
        ({"model": TWO_MEASUREMENT, "trigger": {"variant": "open_loop", "Y": FULL_WEIGHT}},
         ["--horizon", "500"], (8, 9)),
        ({"model": TWO_MEASUREMENT, "trigger": {"variant": "open_loop", "Y": FULL_WEIGHT}},
         ["--horizon", "500"], (40, 60)),
        # up to 8 scalar closed-loop or threshold runs step in Python floats,
        # 9 in numpy; z' Z z of the huge weight overflows to an exact send
        ({"model": SCALAR.to_dict(), "trigger": {"variant": "closed_loop", "Z": [[8e307]]},
          "horizon": 500}, [], (8, 9)),
        ({"model": SCALAR.to_dict(), "trigger": {"variant": "closed_loop", "Z": [[0.7]]},
          "horizon": 500, "pre_roll": 2}, [], (8, 9)),
        ({"model": SCALAR.to_dict(), "trigger": {"variant": "deterministic_threshold", "delta": 1.0},
          "horizon": 500, "pre_roll": 2}, [], (8, 9)),
    ],
    ids=["open-loop-8-9", "open-loop-200-300", "two-measurement-8-9", "two-measurement-40-60",
         "closed-loop-Z-8e307-8-9", "closed-loop-pre-roll-8-9", "threshold-pre-roll-8-9"],
)
def test_run_zero_is_the_same_either_side_of_a_route_bound(tmp_path, capsys, config, args, runs):
    # simulate prints run 0: the same bytes whichever stepper took the runs
    path = tmp_path / "scenario.json"
    outputs = []
    for n in runs:
        path.write_text(json.dumps({**config, "runs": n}))
        assert main(["simulate", "--config", str(path), *args]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""


def test_closed_pipe_exit_code(scenario_config):
    # the reader takes one line and closes the pipe; the writer exits as a
    # process killed by SIGPIPE would, and writes nothing to stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "setkf", "monte-carlo", "--config", str(scenario_config),
         "--horizon", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"k,rate_mean,")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_module_entry_point(scenario_config):
    proc = subprocess.run(
        [sys.executable, "-m", "setkf", "simulate", "--config", str(scenario_config)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,gamma,")
