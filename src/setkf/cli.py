"""Command-line interface.

Subcommands: simulate, monte-carlo, analyze, design, compare, singer.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import contextlib
import json
import sys

from .analysis import closed_loop_report, open_loop_report
from .design import DesignProblem, design_search, design_search_closed_loop, export_lmi
from .errors import (
    CalibrationFailed,
    ConfigError,
    Infeasible,
    ModelValidationError,
    NumericalError,
    UnstableSystem,
)
from .estimation import TriggerPolicy
from .harness import (
    compare_schedulers,
    load_scenario,
    monte_carlo,
    save_scenario,
    scenario_from_dict,
    simulate,
    singer_scenario,
    write_comparison_csv,
    write_monte_carlo_csv,
    write_report_csv,
    write_trajectory_csv,
)
from .matrices import as_matrix
from .model import model_from_dict


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _model_from_config(data):
    # accept either a bare model config or any config with a "model" key
    if isinstance(data, dict) and "model" in data:
        return model_from_dict(data["model"])
    return model_from_dict(data)


@contextlib.contextmanager
def _open_output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _scenario_with_overrides(args):
    scn = load_scenario(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if getattr(args, "runs", None) is not None:
        overrides["runs"] = args.runs
    if overrides:
        d = scn.to_dict()
        d.update(overrides)
        scn = scenario_from_dict(d)
    return scn


def _cmd_simulate(args):
    scn = _scenario_with_overrides(args)
    rec = simulate(scn, run_index=args.run_index)
    with _open_output(args.output) as fh:
        write_trajectory_csv(rec, fh)
    return 0


def _cmd_monte_carlo(args):
    scn = _scenario_with_overrides(args)
    stats = monte_carlo(scn)
    with _open_output(args.output) as fh:
        write_monte_carlo_csv(stats, fh)
    return 0


def _cmd_analyze(args):
    data = _read_json(args.config)
    model = _model_from_config(data)
    trigger = TriggerPolicy.from_dict(data.get("trigger") if isinstance(data, dict) else None)
    if trigger.variant == "open_loop":
        rows = open_loop_report(model, trigger.Y)
    elif trigger.variant == "closed_loop":
        rows = closed_loop_report(model, trigger.Z)
    else:
        raise ConfigError("analyze supports open_loop and closed_loop triggers only")
    with _open_output(args.output) as fh:
        write_report_csv(rows, fh)
    return 0


def _cmd_design(args):
    data = _read_json(args.config)
    model = _model_from_config(data)
    try:
        delta0 = as_matrix(data["delta0"], "delta0")
    except (KeyError, TypeError) as exc:
        raise ConfigError("design config needs a 'delta0' matrix") from exc
    if args.mode == "export-lmi":
        with _open_output(args.output) as fh:
            export_lmi(model, delta0, fh)
        return 0
    basis = data.get("basis")
    problem = DesignProblem(
        model=model,
        Delta0=delta0,
        basis=None if basis is None else as_matrix(basis, "basis"),
    )
    closed = bool(data.get("closed_loop", False))
    result = design_search_closed_loop(problem) if closed else design_search(problem)
    rows = [("theta", result.theta), ("gamma_achieved", result.gamma_achieved)]
    if result.objective is not None:
        rows.append(("objective", result.objective))
    if result.kappa_bound is not None:
        rows.append(("kappa_bound", result.kappa_bound))
    rows += [
        (f"Y[{i}][{j}]", float(result.Y[i, j]))
        for i in range(result.Y.shape[0])
        for j in range(result.Y.shape[1])
    ]
    with _open_output(args.output) as fh:
        write_report_csv(rows, fh)
    return 0


def _cmd_compare(args):
    data = _read_json(args.config)
    model = _model_from_config(data)
    rows = compare_schedulers(
        model,
        target_rate=args.target_rate,
        horizon=args.horizon if args.horizon is not None else 2000,
        runs=args.runs if args.runs is not None else 100,
        seed=args.seed if args.seed is not None else 0,
        burn_in=args.burn_in,
    )
    with _open_output(args.output) as fh:
        write_comparison_csv(rows, fh)
    return 0


def _cmd_singer(args):
    scn = singer_scenario(
        T=args.T,
        alpha=args.alpha,
        sigma_m2=args.sigma_m2,
        z_scale=args.z_scale,
        delta=args.delta,
        a13=args.a13,
        runs=args.runs if args.runs is not None else 10_000,
        horizon=args.horizon if args.horizon is not None else 100,
        seed=args.seed if args.seed is not None else 0,
    )
    if args.save_scenario:
        save_scenario(scn, args.save_scenario)
    stats = monte_carlo(scn)
    with _open_output(args.output) as fh:
        write_monte_carlo_csv(stats, fh)
    return 0


def _add_common(p, runs=True):
    p.add_argument("--config", required=False, help="path to a JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    if runs:
        p.add_argument("--runs", type=int, default=None)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv"], default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="setkf",
        description="Stochastic event-triggered remote state estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory and write a CSV log")
    _add_common(p, runs=False)
    p.add_argument("--run-index", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate, needs_config=True)

    p = sub.add_parser("monte-carlo", help="aggregate many trajectories into a CSV")
    _add_common(p)
    p.set_defaults(fn=_cmd_monte_carlo, needs_config=True)

    p = sub.add_parser("analyze", help="steady-state rate/covariance report")
    _add_common(p, runs=False)
    p.set_defaults(fn=_cmd_analyze, needs_config=True)

    p = sub.add_parser("design", help="event-parameter design (search or export-lmi)")
    p.add_argument("mode", nargs="?", choices=["search", "export-lmi"], default="search")
    _add_common(p, runs=False)
    p.set_defaults(fn=_cmd_design, needs_config=True)

    p = sub.add_parser("compare", help="compare calibrated schedulers at one rate")
    _add_common(p)
    p.add_argument("--target-rate", type=float, required=True)
    p.add_argument("--burn-in", type=int, default=200)
    p.set_defaults(fn=_cmd_compare, needs_config=True)

    p = sub.add_parser("singer", help="target-tracking scenario Monte Carlo")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--sigma-m2", dest="sigma_m2", type=float, default=5.0)
    p.add_argument("--z-scale", dest="z_scale", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--a13", choices=["paper", "half"], default="paper")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["csv"], default="csv")
    p.add_argument("--save-scenario", default=None)
    p.set_defaults(fn=_cmd_singer, needs_config=False)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "needs_config", False) and not args.config:
            raise ConfigError(f"{args.command} requires --config")
        return args.fn(args)
    except (ConfigError, ModelValidationError, UnstableSystem) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, Infeasible, CalibrationFailed) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
