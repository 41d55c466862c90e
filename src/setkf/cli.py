"""Command-line interface.

Subcommands: simulate, monte-carlo, analyze, design, compare, singer.  Each
``_cmd_*`` returns a writer and its result, and :func:`main` writes it.
Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
floating-point overflow, division by zero or invalid operation among them),
141 a reader that closed standard output early (as for a process killed by
SIGPIPE).
"""

import argparse
import functools
import os
import sys

import numpy as np

from .analysis import _matrix_rows, closed_loop_report, open_loop_report
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
from .matrices import config_fields, read_json
from .model import model_from_dict


def _model_from_config(data):
    # accept either a bare model config or any config with a "model" key
    return model_from_dict(config_fields(data, "config", (), ("model",)).get("model", data))


def _set_ints(args):
    """The subcommand's integer flags that were set, by name; an unset one
    keeps the default of the config or of the function it is passed to."""
    return {name: getattr(args, name) for name in args.ints if getattr(args, name) is not None}


def _scenario_with_overrides(args):
    # the flags replace config values before anything is derived from them,
    # so that an unset burn-in follows an overridden horizon
    data = read_json(args.config, "config")
    if isinstance(data, dict):
        data.update(_set_ints(args))
    return scenario_from_dict(data)


def _cmd_simulate(args):
    return write_trajectory_csv, simulate(_scenario_with_overrides(args), run_index=args.run_index)


def _cmd_monte_carlo(args):
    return write_monte_carlo_csv, monte_carlo(_scenario_with_overrides(args))


def _cmd_analyze(args):
    data = read_json(args.config, "config")
    model = _model_from_config(data)
    (trigger,) = config_fields(data, "analyze config", ("trigger",)).values()
    trigger = TriggerPolicy.from_dict(trigger)
    if trigger.variant == "open_loop":
        return write_report_csv, open_loop_report(model, trigger.Y)
    if trigger.variant == "closed_loop":
        return write_report_csv, closed_loop_report(model, trigger.Z)
    raise ConfigError("analyze supports open_loop and closed_loop triggers only")


def _cmd_design(args):
    data = read_json(args.config, "config")
    model = _model_from_config(data)
    fields = config_fields(data, "design config", ("delta0",), ("basis", "closed_loop"))
    if args.mode == "export-lmi":
        return functools.partial(export_lmi, model), fields["delta0"]
    problem = DesignProblem(model=model, Delta0=fields["delta0"], basis=fields.get("basis"))
    closed = fields.get("closed_loop", False)
    if not isinstance(closed, bool):
        raise ConfigError(f"closed_loop must be true or false, got {closed!r}")
    result = design_search_closed_loop(problem) if closed else design_search(problem)
    rows = [("theta", result.theta), ("gamma_achieved", result.gamma_achieved)]
    if result.objective is not None:
        rows.append(("objective", result.objective))
    if result.kappa_bound is not None:
        rows.append(("kappa_bound", result.kappa_bound))
    return write_report_csv, rows + _matrix_rows("Y", result.Y)


def _cmd_compare(args):
    model = _model_from_config(read_json(args.config, "config"))
    return write_comparison_csv, compare_schedulers(model, args.target_rate, **_set_ints(args))


def _cmd_singer(args):
    scn = singer_scenario(
        T=args.T,
        alpha=args.alpha,
        sigma_m2=args.sigma_m2,
        z_scale=args.z_scale,
        delta=args.delta,
        a13=args.a13,
        **_set_ints(args),
    )
    if args.save_scenario:
        save_scenario(scn, args.save_scenario)
    return write_monte_carlo_csv, monte_carlo(scn)


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: one line and exit 2, in-process too."""

    def error(self, message):
        raise ConfigError(message)


def _add_command(sub, name, fn, help, config=True, ints=()):
    """A subcommand: ``--config`` when it reads one, the integer flags in
    ``ints`` (unset by default, see :func:`_set_ints`) and ``--output``."""
    p = sub.add_parser(name, help=help)
    if config:
        p.add_argument("--config", help="path to a JSON config file")
    for flag in ints:
        p.add_argument(f"--{flag}", type=int)
    p.add_argument("--output", help="output path (default: stdout)")
    p.set_defaults(fn=fn, ints=[flag.replace("-", "_") for flag in ints])
    return p


def build_parser():
    parser = _Parser(
        prog="setkf",
        description="Stochastic event-triggered remote state estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(
        sub, "simulate", _cmd_simulate, "run one trajectory and write a CSV log",
        ints=("seed", "horizon"),
    )
    p.add_argument("--run-index", type=int, default=0)

    _add_command(
        sub, "monte-carlo", _cmd_monte_carlo, "aggregate many trajectories into a CSV",
        ints=("seed", "horizon", "runs"),
    )

    _add_command(sub, "analyze", _cmd_analyze, "steady-state rate/covariance report")

    p = _add_command(sub, "design", _cmd_design, "event-parameter design (search or export-lmi)")
    p.add_argument("mode", nargs="?", choices=["search", "export-lmi"], default="search")

    p = _add_command(
        sub, "compare", _cmd_compare, "compare calibrated schedulers at one rate",
        ints=("seed", "horizon", "runs", "burn-in"),
    )
    p.add_argument("--target-rate", type=float, required=True)

    p = _add_command(
        sub, "singer", _cmd_singer, "target-tracking scenario Monte Carlo",
        config=False, ints=("seed", "horizon", "runs"),
    )
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--sigma-m2", dest="sigma_m2", type=float, default=5.0)
    p.add_argument("--z-scale", dest="z_scale", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--a13", choices=["paper", "half"], default="paper")
    p.add_argument("--save-scenario", default=None)

    return parser


# built on the first call of main and reused: building it is most of a short
# command's fixed cost, and parse_args keeps no state between calls
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        if "config" in args and not args.config:
            raise ConfigError(f"{args.command} requires --config")
        # an overflow, a division by zero or an invalid operation is a
        # numerical failure, in the write too: export-lmi computes as it writes
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            write, result = args.fn(args)
            if args.output is not None:
                with open(args.output, "w", encoding="utf-8", newline="") as fh:
                    write(result, fh)
                return 0
            try:
                write(result, sys.stdout)
                sys.stdout.flush()
            except BrokenPipeError:
                # the reader closed stdout: send what is still buffered to
                # devnull, so that the flush at exit raises nothing, and exit
                # as SIGPIPE would
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                return 141
        return 0
    except (ConfigError, ModelValidationError, UnstableSystem) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, Infeasible, CalibrationFailed, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
