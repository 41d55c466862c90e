"""A digest of the CLI's output over a sweep of commands, to show that a
change leaves every printed byte as it was.

Each case runs one ``setkf`` command in-process through ``cli.main``:
``simulate`` and ``monte-carlo`` (1, 3 and 60 runs, pre-roll 0 and 2) for
each trigger, the open- and closed-loop ones with a weight theta * I and a
non-diagonal one, and ``design`` (open and closed loop), ``design
export-lmi``, ``analyze`` (both triggers, both weights) and ``compare``, on
the scalar plants A = 0.8 and A = 1.2, a plant with two measurements and
one with three states.  At 60 runs, runs * n^2 exceeds the scan's width
for n >= 2, so there the open-loop, periodic and random triggers take the
step loop.  A case's digest is the SHA-256 of its argument list, with the
temporary directory replaced by a fixed name, its exit code, stdout and
stderr; failures count as output too.  Run it on two checkouts and compare
the one digest it prints:

    python tests/cli_sweep.py            # the digest of the whole sweep
    python tests/cli_sweep.py --cases    # also one digest per case

The name does not match ``test_*.py``, so pytest does not collect it;
``test_cli_golden.py`` checks its digest against
``tests/data/golden/cli_sweep.sha256`` and rewrites that file with the
goldens.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from setkf import cli  # noqa: E402

# name -> (model, delta0, non-diagonal weight; for m = 1 a second scalar)
PLANTS = {
    "scalar": (
        {"A": [[0.8]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "Sigma0": [[1.0]]},
        [[1.5]],
        [[2.0]],
    ),
    "unstable": (
        {"A": [[1.2]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]], "Sigma0": [[1.0]]},
        [[60.0]],
        [[2.0]],
    ),
    "two_sensor": (
        {
            "A": [[0.8, 1.0], [0.0, 0.95]],
            "C": [[0.5, 0.3], [0.0, 1.4]],
            "Q": [[1.0, 0.0], [0.0, 1.0]],
            "R": [[1.0, 0.0], [0.0, 1.0]],
            "Sigma0": [[1.0, 0.0], [0.0, 1.0]],
        },
        [[4.0, 1.0], [1.0, 3.0]],
        [[2.0, 0.5], [0.5, 1.0]],
    ),
    "three_state": (
        {
            "A": [[0.9, 0.2, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.7]],
            "C": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]],
            "Q": [[1.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 0.5]],
            "R": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.3], [0.0, 0.3, 1.0]],
            "Sigma0": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        },
        [[6.0, 0.0, 0.0], [0.0, 6.0, 0.0], [0.0, 0.0, 6.0]],
        [[1.5, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 0.8]],
    ),
}
THETA = 0.7
HORIZON = 30


def _weights(plant):
    """The two trigger weights of a plant: theta * I and the second one."""
    model, _, second = PLANTS[plant]
    m = len(model["C"])
    eye = [[THETA if i == j else 0.0 for j in range(m)] for i in range(m)]
    return {"eye": eye, "full": second}


def _triggers(plant):
    """Trigger name -> trigger config: both weights of the two stochastic
    triggers, and the three offline baselines."""
    triggers = {}
    for kind, W in _weights(plant).items():
        triggers[f"open_loop_{kind}"] = {"variant": "open_loop", "Y": W}
        triggers[f"closed_loop_{kind}"] = {"variant": "closed_loop", "Z": W}
    triggers["periodic"] = {"variant": "periodic", "period": 3, "phase": 1}
    triggers["random"] = {"variant": "random", "p": 0.5}
    triggers["deterministic_threshold"] = {"variant": "deterministic_threshold", "delta": 1.0}
    return triggers


def cases():
    """Case name -> (config, arguments before ``--config``)."""
    out = {}
    for plant, (model, delta0, _) in PLANTS.items():
        for name, trigger in _triggers(plant).items():
            for pre_roll in (0, 2):
                scenario = {
                    "model": model, "trigger": trigger, "horizon": HORIZON, "seed": 3,
                    "pre_roll": pre_roll,
                }
                out[f"{plant}/simulate/{name}/pre{pre_roll}"] = (
                    {**scenario, "runs": 1}, ["simulate", "--run-index", "0"],
                )
                for runs in (1, 3, 60):
                    out[f"{plant}/monte-carlo/{name}/runs{runs}/pre{pre_roll}"] = (
                        {**scenario, "runs": runs}, ["monte-carlo"],
                    )
        design = {"model": model, "delta0": delta0}
        out[f"{plant}/design"] = (design, ["design"])
        out[f"{plant}/design-closed"] = ({**design, "closed_loop": True}, ["design"])
        out[f"{plant}/export-lmi"] = (design, ["design", "export-lmi"])
        out[f"{plant}/compare"] = (
            design, ["compare", "--target-rate", "0.25", "--runs", "2", "--horizon", "50"],
        )
        for kind, W in _weights(plant).items():
            for variant, key in (("open_loop", "Y"), ("closed_loop", "Z")):
                out[f"{plant}/analyze/{variant}_{kind}"] = (
                    {"model": model, "trigger": {"variant": variant, key: W}}, ["analyze"],
                )
    return out


def run_case(config, args, directory):
    """The digest of one command's argument list, exit code and output."""
    path = Path(directory) / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [*args, "--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = [argv, code, out.getvalue(), err.getvalue()]
    text = json.dumps(record).replace(str(directory), "<tmp>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--cases"]):
        print("usage: python tests/cli_sweep.py [--cases]", file=sys.stderr)
        return 2
    warnings.simplefilter("always")  # a case's warnings do not depend on the cases before it
    total, sweep = hashlib.sha256(), cases()
    with tempfile.TemporaryDirectory() as directory:
        for name, (config, args) in sweep.items():
            digest = run_case(config, args, directory)
            total.update(f"{name} {digest}\n".encode("utf-8"))
            if argv:
                print(f"{digest}  {name}")
    print(f"{total.hexdigest()}  {len(sweep)} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
