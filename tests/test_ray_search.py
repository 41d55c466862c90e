"""The one ray search against the two bisections it replaced.

``util._ray_boundary`` and ``util._bisect_rate`` are the former design and
calibration routines, verbatim.  The shared search must give every design
and calibration weight to the bit, with no more fixed-point solves, and one
fewer for a design whose boundary lies above theta = 1 (the former search
probed theta = hi / 2 again after finding it infeasible).
"""

import numpy as np
import pytest

from setkf import CalibrationFailed, ModelValidationError, design, harness, validate_model
from setkf.design import (
    RAY_CAP,
    RAY_FLOOR,
    RAY_REL_TOL,
    DesignProblem,
    design_search,
    design_search_closed_loop,
    ray_search,
)
from setkf.harness import calibrate_closed_loop, calibrate_open_loop
from setkf.model import steady_state
from setkf.riccati import RiccatiMap
from util import (
    _bisect_rate,
    _ray_boundary,
    calibrate_closed_loop_reference,
    calibrate_open_loop_reference,
    design_search_closed_loop_reference,
    design_search_reference,
    random_spd,
)

CALIBRATION_TOL = 1e-12


def _counted(pred):
    calls = []

    def counted(theta):
        calls.append(theta)
        return pred(theta)

    return counted, calls


class TestThresholdOracle:
    """Threshold tests theta >= b, with b from below the floor to past the cap."""

    BOUNDARIES = np.concatenate(
        [
            10.0 ** np.random.default_rng(31).uniform(-14, 16, 3000),
            [RAY_FLOOR, 0.5 * RAY_FLOOR, 1.0, 2.0, 0.5, 3.0, 0.75, 2.0**49, 2.0**-39, 1e15],
        ]
    )

    def test_design_end_matches_ray_boundary(self):
        for b in self.BOUNDARIES:
            new, new_calls = _counted(lambda t, b=b: t >= b)
            old, old_calls = _counted(lambda t, b=b: t >= b)
            lo, hi = ray_search(new, RAY_REL_TOL)
            try:
                expected = _ray_boundary(old)
            except design.Infeasible:
                assert hi == np.inf
                assert len(new_calls) == len(old_calls)
                continue
            assert hi == expected, b
            assert lo < b <= hi or hi == RAY_FLOOR
            assert len(new_calls) == len(old_calls) - (expected > 1.0)
            assert all(RAY_FLOOR <= t <= RAY_CAP for t in new_calls)

    def test_calibration_midpoint_matches_bisect_rate(self):
        # above the floor, where both searches bracket the same boundary
        for b in self.BOUNDARIES[self.BOUNDARIES > RAY_FLOOR]:
            new, new_calls = _counted(lambda t, b=b: t >= b)
            old_calls = []

            def rate(t, b=b):
                old_calls.append(t)
                return t

            lo, hi = ray_search(new, CALIBRATION_TOL, lo=RAY_FLOOR)
            try:
                expected = _bisect_rate(rate, b)
            except CalibrationFailed:
                assert hi == np.inf
                continue
            assert 0.5 * (lo + hi) == expected, b
            assert len(new_calls) == len(old_calls)

    def test_floor_and_cap(self):
        assert ray_search(lambda t: True, RAY_REL_TOL) == (0.0, RAY_FLOOR)
        assert ray_search(lambda t: True, CALIBRATION_TOL, lo=RAY_FLOOR) == (0.0, RAY_FLOOR)
        assert ray_search(lambda t: False, RAY_REL_TOL)[1] == np.inf


def _plant(rng, rho_lo, rho_hi, n_max=3, m_min=1, m_max=3):
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(m_min, m_max + 1))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(rho_lo, rho_hi) / max(abs(np.linalg.eigvals(A)))
        try:
            return validate_model(
                A, rng.normal(size=(m, n)), random_spd(rng, n), random_spd(rng, m),
                random_spd(rng, n),
            )
        except ModelValidationError:
            continue


def _cases():
    """200 seeded (model, Delta0, basis, target rate) cases: random stable
    plants, rho(A) in [0.999, 0.9995], unstable plants (closed-loop design
    only) and m >= 2 with a non-identity basis."""
    rng = np.random.default_rng(47)
    kinds = (
        [((0.3, 0.95), 1, False)] * 70
        + [((0.999, 0.9995), 1, False)] * 30
        + [((1.01, 1.3), 1, False)] * 40
        + [((0.3, 0.95), 2, True)] * 60
    )
    for (rho_lo, rho_hi), m_min, with_basis in kinds:
        model = _plant(rng, rho_lo, rho_hi, m_min=m_min)
        X0 = design.fixed_point(RiccatiMap(model, model.R))
        # from tight (boundary far above 1) to slack (boundary at the floor)
        slack = 10.0 ** rng.uniform(-3, 1.5) * np.trace(X0) / model.n
        basis = random_spd(rng, model.m) if with_basis else None
        yield model, X0 + slack * np.eye(model.n), basis, float(rng.uniform(0.05, 0.95))


@pytest.fixture
def solves(monkeypatch):
    """Counts fixed-point solves and open-loop rate evaluations."""
    count = {"solves": 0}

    def counting(fn):
        def wrapped(*args, **kwargs):
            count["solves"] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(design, "fixed_point", counting(design.fixed_point))
    monkeypatch.setattr(harness, "fixed_point", counting(harness.fixed_point))
    monkeypatch.setattr(harness, "open_loop_rate", counting(harness.open_loop_rate))

    def run(fn, *args):
        before = count["solves"]
        return fn(*args), count["solves"] - before

    return run


def _same_design(new, old):
    return (
        new.theta == old.theta
        and np.array_equal(new.Y, old.Y)
        and new.gamma_achieved == old.gamma_achieved
        and new.objective == old.objective
        and new.kappa_bound == old.kappa_bound
    )


def test_searches_and_calibrations_match_the_former_bisections(solves):
    seen = {"above": 0, "below": 0, "floor": 0, "calibrations": 0}
    for model, Delta0, basis, rate in _cases():
        problem = DesignProblem(model, Delta0, basis)
        searches = [(design_search_closed_loop, design_search_closed_loop_reference)]
        if model.rho_A < 1.0:
            searches.append((design_search, design_search_reference))
        for search, reference in searches:
            new, new_solves = solves(search, problem)
            old, old_solves = solves(reference, problem)
            assert _same_design(new, old), (search.__name__, new.theta, old.theta)
            assert new_solves == old_solves - (old.theta > 1.0)
            where = "floor" if old.theta == RAY_FLOOR else "below" if old.theta <= 1.0 else "above"
            seen[where] += 1
        if model.rho_A >= 1.0:
            continue
        st = steady_state(model)
        for calibrate, reference, arg in (
            (calibrate_open_loop, calibrate_open_loop_reference, st),
            (calibrate_closed_loop, calibrate_closed_loop_reference, model),
        ):
            new, new_solves = solves(calibrate, arg, rate, basis)
            old, old_solves = solves(reference, arg, rate, basis)
            assert new == old, (calibrate.__name__, new, old)
            assert new_solves == old_solves
            seen["calibrations"] += 1
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("rate", [1e-300, 1e-17])
def test_tiny_target_rates_name_the_rate(rate):
    model = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
    calibrations = ((calibrate_open_loop, steady_state(model)), (calibrate_closed_loop, model))
    for calibrate, arg in calibrations:
        with pytest.raises(CalibrationFailed, match=f"target rate {rate}"):
            calibrate(arg, rate)
