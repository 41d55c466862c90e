"""Exact standard output of the CLI on three scalar plants and one with two
measurements.

Each case runs one ``setkf`` command in-process and compares what it writes
to stdout, byte for byte, with a file in ``tests/data/golden``.  The scalar
plants are C = Q = R = Sigma0 = 1 with A = 0.8 (delta0 1.5), A = 0.999
(delta0 60) and the unstable A = 1.2 (delta0 60, closed-loop commands only).
The m = 2 plant is acceptance criterion 1's 2 x 2 plant with a full delta0;
it runs ``design``, ``compare`` and a closed-loop ``design`` along a
non-identity basis, which take the ray search where the scalar plants take
closed forms.  The plant A = 0.8 and the m = 2 plant also run ``simulate``
and ``monte-carlo`` (3 runs) for each trigger over 30 steps; one more
``monte-carlo`` has a pre-roll of 2 steps, and one has 40 runs of the m = 2
plant, too wide for the scan, so that its open-loop trigger takes the step
loop.  ``cli_sweep.sha256`` holds the digest that ``tests/cli_sweep.py``
prints over its 256 commands.  The files were written by this module's
``main``; rewrite them only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from setkf import cli
from setkf.estimation import TRIGGER_VARIANTS

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SWEEP = Path(__file__).resolve().parent / "cli_sweep.py"


def _scalar(a):
    return {"A": [[a]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "Sigma0": [[1.0]]}


EYE2 = [[1.0, 0.0], [0.0, 1.0]]
TWO_SENSOR = {
    "A": [[0.8, 1.0], [0.0, 0.95]],
    "C": [[0.5, 0.3], [0.0, 1.4]],
    "Q": EYE2,
    "R": EYE2,
    "Sigma0": EYE2,
}
# name -> (model, delta0)
PLANTS = {
    "scalar": (_scalar(0.8), [[1.5]]),
    "near_unit": (_scalar(0.999), [[60.0]]),
    "unstable": (_scalar(1.2), [[60.0]]),
    "two_sensor": (TWO_SENSOR, [[4.0, 1.0], [1.0, 3.0]]),
}
BASIS = [[2.0, 0.5], [0.5, 1.0]]  # the two_sensor closed-loop design's ray

# name -> (config kind, arguments after --config)
COMMANDS = {
    "design": ("design", ["design"]),
    "design_closed": ("design_closed", ["design"]),
    "analyze_open": ("open", ["analyze"]),
    "analyze_closed": ("closed", ["analyze"]),
    "export_lmi": ("design", ["design", "export-lmi"]),
    "compare": ("design", ["compare", "--target-rate", "0.5", "--runs", "2", "--horizon", "50"]),
}
TWO_SENSOR_COMMANDS = ("design", "design_closed", "compare")
TINY_RATES = ("2e-12", "1e-11")  # the smallest rates the scalar plant's weights reach

# simulated name -> (subcommand, trigger variant, scenario fields besides
# the model, the trigger and the 30-step horizon)
SIMULATIONS = {
    **{f"simulate_{v}": ("simulate", v, {}) for v in TRIGGER_VARIANTS},
    **{f"monte_carlo_{v}": ("monte-carlo", v, {"runs": 3}) for v in TRIGGER_VARIANTS},
    "monte_carlo_pre_roll": ("monte-carlo", "open_loop", {"runs": 3, "pre_roll": 2}),
    # runs * n^2 = 160 is wider than harness.SCAN_MAX_WIDTH
    "monte_carlo_40_runs": ("monte-carlo", "open_loop", {"runs": 40}),
}
WEIGHTS = {"scalar": [[0.5]], "two_sensor": BASIS}  # Y and Z of the simulations

CASES = (
    [
        (plant, name)
        for plant in PLANTS
        for name in COMMANDS
        if (plant != "unstable" or name in ("design_closed", "analyze_closed"))
        and (plant != "two_sensor" or name in TWO_SENSOR_COMMANDS)
    ]
    + [("scalar", f"compare_{rate}") for rate in TINY_RATES]
    + [
        (plant, f"{command}_{v}")
        for plant in WEIGHTS
        for command in ("simulate", "monte_carlo")
        for v in TRIGGER_VARIANTS
    ]
    + [("scalar", "monte_carlo_pre_roll"), ("two_sensor", "monte_carlo_40_runs")]
)


def _trigger(variant, weight):
    fields = {
        "open_loop": {"Y": weight},
        "closed_loop": {"Z": weight},
        "periodic": {"period": 3, "phase": 1},
        "random": {"p": 0.5},
        "deterministic_threshold": {"delta": 1.0},
    }[variant]
    return {"variant": variant, **fields}


def _configs(plant, directory):
    model, delta0 = PLANTS[plant]
    closed = {"model": model, "delta0": delta0, "closed_loop": True}
    if plant == "two_sensor":
        closed["basis"] = BASIS
    configs = {
        "design": {"model": model, "delta0": delta0},
        "design_closed": closed,
        "open": {"model": model, "trigger": {"variant": "open_loop", "Y": [[0.5]]}},
        "closed": {"model": model, "trigger": {"variant": "closed_loop", "Z": [[0.5]]}},
    }
    paths = {}
    for kind, data in configs.items():
        paths[kind] = Path(directory) / f"{plant}_{kind}.json"
        paths[kind].write_text(json.dumps(data), encoding="utf-8")
    return paths


def _argv(plant, name, directory):
    if name in SIMULATIONS:
        command, variant, fields = SIMULATIONS[name]
        scenario = {
            "model": PLANTS[plant][0],
            "trigger": _trigger(variant, WEIGHTS[plant]),
            "horizon": 30,
            **fields,
        }
        path = Path(directory) / f"{plant}_{name}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        return [command, "--config", str(path)]
    paths = _configs(plant, directory)
    if name.startswith("compare_"):
        rate = name.split("_", 1)[1]
        args = ["compare", "--target-rate", rate, "--runs", "2", "--horizon", "50"]
        return [*args, "--config", str(paths["design"])]
    kind, args = COMMANDS[name]
    return [*args, "--config", str(paths[kind])]


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("plant, name", CASES, ids=[f"{p}-{n}" for p, n in CASES])
def test_stdout_matches_golden(plant, name, tmp_path):
    expected = (GOLDEN / f"{plant}-{name}.txt").read_text(encoding="utf-8")
    assert _stdout(_argv(plant, name, tmp_path)) == expected


def _sweep_digest():
    """What ``tests/cli_sweep.py`` prints, from a process of its own."""
    return subprocess.run(
        [sys.executable, str(SWEEP)], capture_output=True, text=True, check=True
    ).stdout


def test_cli_sweep_digest():
    assert _sweep_digest() == (GOLDEN / "cli_sweep.sha256").read_text(encoding="utf-8")


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for plant, name in CASES:
            text = _stdout(_argv(plant, name, directory))
            (GOLDEN / f"{plant}-{name}.txt").write_text(text, encoding="utf-8")
    (GOLDEN / "cli_sweep.sha256").write_text(_sweep_digest(), encoding="utf-8")
    print(f"wrote {len(CASES) + 1} files to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
