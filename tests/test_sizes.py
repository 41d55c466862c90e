"""Every public entry point that takes a trigger weight, a basis or a
covariance bound checks its size where it checks its definiteness: a
positive-definite matrix of the wrong size raises NotPositiveDefinite naming
the matrix and the size it must have."""

import re

import numpy as np
import pytest

from setkf import (
    DesignProblem,
    NotPositiveDefinite,
    TriggerPolicy,
    analysis,
    design,
    estimation,
    riccati,
    steady_state,
    validate_model,
)
from setkf.estimation import initial_state
from setkf.matrices import require_spd, require_spd_stack

# n = m = 2, and n = m = 1
TWO = validate_model([[0.8, 1.0], [0.0, 0.95]], [[0.5, 0.3], [0.0, 1.4]], np.eye(2), np.eye(2),
                     np.eye(2))
SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)


def _spd(size):
    return np.eye(size) + 0.1 * (1.0 - np.eye(size))


def _blocks(model):
    return riccati.BlockCovariance(xx=np.eye(model.n), xy=np.zeros((model.n, model.m)),
                                   yy=np.eye(model.m))


# name -> (the matrix's name, its size on a plant, a call of the entry point
# on a plant with that matrix, the others of the right size)
ENTRY_POINTS = {
    "olset_bounds": ("Y", "m", lambda p, M: analysis.olset_bounds(p, M)),
    "closed_loop_rate_bounds": ("Z", "m", lambda p, M: analysis.closed_loop_rate_bounds(p, M)),
    "conditional_rate": ("Z", "m", lambda p, M: analysis.conditional_rate(p, np.eye(p.n), M)),
    # a positive semi-definite X is a valid prior, so X's size alone is checked
    "conditional_rate-X": ("X", "n", lambda p, M: analysis.conditional_rate(p, M, np.eye(p.m))),
    "open_loop_rate": ("Y", "m", lambda p, M: analysis.open_loop_rate(steady_state(p), M)),
    "sequential_drop_probability": (
        "Y", "m", lambda p, M: analysis.sequential_drop_probability(steady_state(p), p, M, 2),
    ),
    "rate_trace_bounds": (
        "Y", "m", lambda p, M: analysis.rate_trace_bounds(steady_state(p).Pi, M),
    ),
    "analysis.drop_noise": ("trigger weight", "m", lambda p, M: analysis.drop_noise(p.R, M)),
    "feasibility_check-Y": (
        "Y", "m", lambda p, M: design.feasibility_check(p, M, 30.0 * np.eye(p.n)),
    ),
    "feasibility_check-Delta0": (
        "Delta0", "n", lambda p, M: design.feasibility_check(p, np.eye(p.m), M),
    ),
    "lmi_feasible-Y": ("Y", "m", lambda p, M: design.lmi_feasible(p, M, 30.0 * np.eye(p.n))),
    "lmi_feasible-Delta0": ("Delta0", "n", lambda p, M: design.lmi_feasible(p, np.eye(p.m), M)),
    "optimality_gap_bound": (
        "Y", "m", lambda p, M: design.optimality_gap_bound(steady_state(p).Pi, M),
    ),
    "DesignProblem-Delta0": ("Delta0", "n", lambda p, M: DesignProblem(p, M)),
    "DesignProblem-basis": ("basis", "m", lambda p, M: DesignProblem(p, 30.0 * np.eye(p.n), M)),
    "ray_basis": ("basis", "m", lambda p, M: design.ray_basis(M, p.m)),
    "fixed_points": ("W", "m", lambda p, M: riccati.fixed_points(p, M[None])),
    "RiccatiMap": ("W", "m", lambda p, M: riccati.RiccatiMap(p, M)),
    "block_gaussian_update": ("Y", "m", lambda p, M: riccati.block_gaussian_update(_blocks(p), M)),
    "estimation.drop_noise-Y": (
        "Y", "m", lambda p, M: estimation.drop_noise(p, TriggerPolicy.open_loop(M)),
    ),
    "estimation.drop_noise-Z": (
        "Z", "m", lambda p, M: estimation.drop_noise(p, TriggerPolicy.closed_loop(M)),
    ),
    "olset_measurement_update": (
        "Y", "m", lambda p, M: estimation.olset_measurement_update(initial_state(p), 0, None, p, M),
    ),
    "clset_measurement_update": (
        "Z", "m", lambda p, M: estimation.clset_measurement_update(initial_state(p), 0, None, p, M),
    ),
    # trigger_decide has no plant: y, of length m, gives the weight's size
    "trigger_decide-Y": (
        "Y", "m",
        lambda p, M: estimation.trigger_decide(
            TriggerPolicy.open_loop(M), np.ones(p.m), None, 0.5, 0
        ),
    ),
    "trigger_decide-Z": (
        "Z", "m",
        lambda p, M: estimation.trigger_decide(
            TriggerPolicy.closed_loop(M), np.ones(p.m), np.zeros(p.m), 0.5, 0
        ),
    ),
    # export_lmi passes Y = 0 and S = 0, so the blocks check sizes only; the
    # second Y entry keeps m columns, so the scalar plant gets a 2 x 1 Y
    "assemble_lmi_blocks-Y": (
        "Y", "m", lambda p, M: design.assemble_lmi_blocks(p, M, np.eye(p.n), np.eye(p.n)),
    ),
    "assemble_lmi_blocks-Y-columns": (
        "Y", "m", lambda p, M: design.assemble_lmi_blocks(p, M[:, : p.m], np.eye(p.n), np.eye(p.n)),
    ),
    "assemble_lmi_blocks-S": (
        "S", "n", lambda p, M: design.assemble_lmi_blocks(p, np.eye(p.m), M, np.eye(p.n)),
    ),
    "assemble_lmi_blocks-Delta0": (
        "Delta0", "n", lambda p, M: design.assemble_lmi_blocks(p, np.eye(p.m), np.eye(p.n), M),
    ),
}


@pytest.mark.parametrize("plant", [TWO, SCALAR], ids=["two", "scalar"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_wrong_size_raises_naming_the_size(entry, plant):
    name, dim, call = ENTRY_POINTS[entry]
    size = getattr(plant, dim)
    call(plant, _spd(size))  # the right size passes
    for wrong in {1, 2, 3} - {size}:
        with pytest.raises(NotPositiveDefinite) as exc:
            call(plant, _spd(wrong))
        assert exc.value.which == name
        assert str(exc.value) == (
            f"matrix {name!r} is not symmetric positive-definite (must be {size} x {size})"
        )


def test_lmi_feasible_refuses_a_delta0_of_the_wrong_size():
    # on an n = 1 plant a 2 x 2 Delta0 below X_upper once broadcast and gave
    # False, and one above it failed inside numpy
    for scale in (0.5, 4.0):
        with pytest.raises(NotPositiveDefinite, match=r"'Delta0' .*\(must be 1 x 1\)"):
            design.lmi_feasible(SCALAR, [[1.0]], scale * np.eye(2))


def test_size_is_checked_after_definiteness():
    # a matrix that is both indefinite and of the wrong size keeps the
    # message it had before sizes were checked, alone and first in a stack
    indefinite = "(smallest eigenvalue <= 0 or asymmetric)"
    with pytest.raises(NotPositiveDefinite, match=re.escape(indefinite)):
        require_spd([[-1.0]], "Y", size=2)
    with pytest.raises(NotPositiveDefinite, match=re.escape(indefinite)):
        require_spd_stack(np.array([-np.eye(2), np.eye(2)]), "W", 1)
    with pytest.raises(NotPositiveDefinite, match=re.escape("(must be 1 x 1)")):
        require_spd_stack(np.array([np.eye(2), -np.eye(2)]), "W", 1)


@pytest.mark.parametrize("plant", [TWO, SCALAR], ids=["two", "scalar"])
def test_conditional_rate_takes_nested_lists(plant):
    # X is converted as every other matrix argument is, so nested lists give
    # the value of the arrays
    X, Z = np.eye(plant.n), np.eye(plant.m)
    want = analysis.conditional_rate(plant, X, Z)
    assert analysis.conditional_rate(plant, X.tolist(), Z.tolist()) == want
    with pytest.raises(NotPositiveDefinite, match=re.escape(f"(must be {plant.n} x {plant.n})")):
        analysis.conditional_rate(plant, np.eye(3).tolist(), Z.tolist())
