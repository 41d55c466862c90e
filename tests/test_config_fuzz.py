"""Config fuzz of the CLI: every config that one key or one scaled matrix
makes malformed ends in a documented exit code and one message line.

Each case writes a config, runs ``cli.main`` in-process and checks that no
exception escapes, that the exit code is 0, 2 (configuration) or 3
(numerical failure), and that a non-zero exit ends stderr with a
``config error:`` or ``numerical failure:`` line.  The one-field cases also
run with RuntimeWarning raised as an error and must print exactly that one
line.
"""

import copy
import json
import warnings

import pytest

from setkf import harness
from setkf.cli import main

# a stable two-state plant with one measurement: scalar replacements of the
# plant's matrices mismatch, those of R and the trigger weights do not
MODEL = {
    "A": [[0.5, 0.1], [0.0, 0.6]],
    "C": [[1.0, 0.0]],
    "Q": [[1.0, 0.0], [0.0, 1.0]],
    "R": [[1.0]],
    "Sigma0": [[1.0, 0.0], [0.0, 1.0]],
}
SCENARIO = {
    "model": MODEL,
    "trigger": {"variant": "periodic", "period": 3, "phase": 1},
    "filter": "offline-baseline",
    "horizon": 20,
    "runs": 2,
    "seed": 1,
    "burn_in": 5,
    "pre_roll": 2,
    "x0_mean": [0.5, -0.5],
}
DESIGN = {
    "model": MODEL, "delta0": [[3.0, 0.0], [0.0, 3.0]], "basis": [[1.0]], "closed_loop": False,
}

# (argv before --config, a valid config, the key path under which keys are fuzzed)
CONFIGS = {
    "simulate-periodic": (["simulate"], SCENARIO, ()),
    "simulate-olset": (
        ["simulate"],
        {**SCENARIO, "trigger": {"variant": "open_loop", "Y": [[1.0]]}, "filter": "olset"},
        ("trigger",),
    ),
    "monte-carlo-clset": (
        ["monte-carlo"],
        {**SCENARIO, "trigger": {"variant": "closed_loop", "Z": [[1.0]]}, "filter": "clset"},
        (),
    ),
    "monte-carlo-random": (
        ["monte-carlo"], {**SCENARIO, "trigger": {"variant": "random", "p": 0.5}}, ("trigger",),
    ),
    "monte-carlo-threshold": (
        ["monte-carlo"],
        {**SCENARIO, "trigger": {"variant": "deterministic_threshold", "delta": 1.0}},
        ("trigger",),
    ),
    "analyze": (
        ["analyze"], {"model": MODEL, "trigger": {"variant": "open_loop", "Y": [[1.0]]}}, (),
    ),
    "design": (["design"], DESIGN, ()),
    "export-lmi": (["design", "export-lmi"], DESIGN, ()),
    "compare": (
        ["compare", "--target-rate", "0.5", "--runs", "2", "--horizon", "20"], {"model": MODEL}, (),
    ),
}

DELETE = object()
VALUES = [
    DELETE, "abc", None, True, [], {}, [[1.0, 2.0], [3.0]], -1, 0, 2.5, 1e30, 1e308,
    float("nan"), [["x"]],
]
SCALES = [1e150, 1e-150, 1e300, 1e-300]


def _paths(config, prefix=()):
    """The key paths of a config, nested model and trigger keys included."""
    for key, value in config.items():
        yield prefix + (key,)
        if key in ("model", "trigger"):
            yield from _paths(value, prefix + (key,))


def _matrix_paths(config, prefix=()):
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _matrix_paths(value, prefix + (key,))
        elif isinstance(value, list):
            yield prefix + (key,)


def _replaced(config, path, value):
    config = copy.deepcopy(config)
    *parents, key = path
    target = config
    for parent in parents:
        target = target[parent]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value(target[key]) if callable(value) else value
    return config


def _scaled(scale):
    def scale_matrix(M):
        return [[scale * x for x in row] if isinstance(row, list) else scale * row for row in M]

    return scale_matrix


def _cases(name):
    argv, config, under = CONFIGS[name]
    for path in _paths(config):
        if path[: len(under)] == under:
            for value in VALUES:
                label = "deleted" if value is DELETE else repr(value)
                yield f"{'.'.join(path)} {label}", argv, _replaced(config, path, value), True
    for path in _matrix_paths(config):
        if path[: len(under)] == under:
            for scale in SCALES:
                scaled = _replaced(config, path, _scaled(scale))
                yield f"{'.'.join(path)} x {scale:g}", argv, scaled, False


def _run(argv, config, one_field, tmp_path, capsys):
    """Exit code and stderr lines of ``cli.main`` on a config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error" if one_field else "ignore", RuntimeWarning)
        rc = main([*argv, "--config", str(path), "--output", str(tmp_path / "out.csv")])
    return rc, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_config_fuzz(tmp_path, capsys, name):
    failures = []
    for label, argv, config, one_field in _cases(name):
        try:
            rc, err = _run(argv, config, one_field, tmp_path, capsys)
        except BaseException as exc:  # SystemExit and warnings raised as errors included
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        documented = rc == 0 or (
            rc in (2, 3) and err and err[-1].startswith(("config error:", "numerical failure:"))
        )
        if not documented or (one_field and len(err) != (rc != 0)):
            failures.append(f"{label}: exit {rc}, stderr {err}")
    assert failures == []


@pytest.mark.parametrize(
    "argv, update",
    [
        (["simulate"], {"horizon": 1e30}),
        (["monte-carlo"], {"horizon": 1e30}),
        (["monte-carlo"], {"runs": 1e30}),
        (["monte-carlo"], {"pre_roll": 1e30}),
        (["simulate", "--horizon", str(10**30)], {}),
        (["monte-carlo", "--runs", str(10**30)], {}),
    ],
    ids=["simulate-horizon", "monte-carlo-horizon", "monte-carlo-runs", "monte-carlo-pre_roll",
         "horizon-flag", "runs-flag"],
)
def test_huge_counts_refused_before_allocating(tmp_path, capsys, monkeypatch, argv, update):
    def no_generator(seed, run_index):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(harness, "_rng_for_run", no_generator)
    rc, err = _run(argv, {**SCENARIO, **update}, True, tmp_path, capsys)
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("config error:")
