"""Exact standard output of the CLI on three scalar plants.

Each case runs one ``setkf`` command in-process and compares what it writes
to stdout, byte for byte, with a file in ``tests/data/golden``.  The plants
are C = Q = R = Sigma0 = 1 with A = 0.8 (delta0 1.5), A = 0.999 (delta0 60)
and the unstable A = 1.2 (delta0 60, closed-loop commands only).  The files
were written by this module's ``main``; rewrite them only for an intended
change of output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from setkf import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

PLANTS = {"scalar": (0.8, 1.5), "near_unit": (0.999, 60.0), "unstable": (1.2, 60.0)}

# name -> (config kind, arguments after --config)
COMMANDS = {
    "design": ("design", ["design"]),
    "design_closed": ("design_closed", ["design"]),
    "analyze_open": ("open", ["analyze"]),
    "analyze_closed": ("closed", ["analyze"]),
    "export_lmi": ("design", ["design", "export-lmi"]),
    "compare": ("design", ["compare", "--target-rate", "0.5", "--runs", "2", "--horizon", "50"]),
}
TINY_RATES = ("2e-12", "1e-11")  # the smallest rates the scalar plant's weights reach

CASES = [
    (plant, name)
    for plant in PLANTS
    for name in COMMANDS
    if plant != "unstable" or name in ("design_closed", "analyze_closed")
] + [("scalar", f"compare_{rate}") for rate in TINY_RATES]


def _configs(plant, directory):
    a, delta0 = PLANTS[plant]
    model = {"A": [[a]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "Sigma0": [[1.0]]}
    configs = {
        "design": {"model": model, "delta0": [[delta0]]},
        "design_closed": {"model": model, "delta0": [[delta0]], "closed_loop": True},
        "open": {"model": model, "trigger": {"variant": "open_loop", "Y": [[0.5]]}},
        "closed": {"model": model, "trigger": {"variant": "closed_loop", "Z": [[0.5]]}},
    }
    paths = {}
    for kind, data in configs.items():
        paths[kind] = Path(directory) / f"{plant}_{kind}.json"
        paths[kind].write_text(json.dumps(data), encoding="utf-8")
    return paths


def _argv(plant, name, directory):
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


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as directory:
        for plant, name in CASES:
            text = _stdout(_argv(plant, name, directory))
            (GOLDEN / f"{plant}-{name}.txt").write_text(text, encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
