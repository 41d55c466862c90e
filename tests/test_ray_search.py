"""The stacked ray search against the sequential one and the bisections it
replaced.

``util.ray_search_reference`` is the search testing one point at a time,
verbatim; ``util._ray_boundary`` and ``util._bisect_rate`` are the design
and calibration routines before it, verbatim.  The stacked search must give
every bracket, design and calibration weight to the bit, test every point
the sequential search tests or one on its side that implies its answer,
raise a failure at any point it tests, and raise the sequential search's
error where both searches test the failing point.  Its rounds go where the
scores put the boundary; scores that mislead its aim must cost no more
rounds than the bound.
"""

import math

import numpy as np
import pytest

import util
from setkf import CalibrationFailed, Infeasible, ModelValidationError, NoConvergence, analysis
from setkf import design, riccati
from setkf import harness, validate_model
from setkf.design import (
    RAY_CAP,
    RAY_FLOOR,
    RAY_REL_TOL,
    RAY_TREE_DEPTH,
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
    ray_search_reference,
)

CALIBRATION_TOL = 1e-12
WIDTH = 2**RAY_TREE_DEPTH - 1


def _counted(pred):
    calls = []

    def counted(theta):
        calls.append(theta)
        return pred(theta)

    return counted, calls


def _recorded(test):
    """The stacked test, and the list of its rounds as (thetas, verdicts)."""
    rounds = []

    def recorded(thetas):
        verdicts, scores = test(thetas)
        rounds.append((thetas, verdicts))
        return verdicts, scores

    return recorded, rounds


def _threshold(b):
    """The test theta >= b with the score theta - b."""
    return lambda t: (t >= b, t - b)


def _rounds_bound(sequential_calls):
    # a round covers RAY_TREE_DEPTH bisections or up to WIDTH doublings or
    # halvings; each change of phase may start one more round
    return math.ceil(sequential_calls / RAY_TREE_DEPTH) + 2


def _check_rounds(rounds, visited, holds):
    """The first round is the floor, the first doublings from 1 and as many
    halvings from 1/2.  Each round is a stack of at most WIDTH tree or chain
    points and the two aimed ends on the ray, none asked twice, and every
    point the sequential search tests is tested or implied by a tested point
    on its side: one at or below it that holds, or one at or above it that
    fails.  ``holds(theta)`` is the
    sequential search's answer at theta."""
    tested = [(float(t), bool(v)) for thetas, verdicts in rounds for t, v in zip(thetas, verdicts)]
    points = [t for t, _ in tested]
    side = (WIDTH - 1) // 2
    first = [RAY_FLOOR, *2.0 ** np.arange(side), *2.0 ** -np.arange(1, side + 1)]
    assert list(rounds[0][0]) == first
    assert all(0 < len(thetas) <= WIDTH + 2 for thetas, _ in rounds)
    assert all(RAY_FLOOR <= t <= RAY_CAP for t in points)
    assert len(set(points)) == len(points)
    for theta in visited:
        if holds(theta):
            assert any(v and t <= theta for t, v in tested), theta
        else:
            assert any(not v and t >= theta for t, v in tested), theta
    assert len(rounds) <= _rounds_bound(len(visited))


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
            new, rounds = _recorded(_threshold(b))
            seq, seq_calls = _counted(lambda t, b=b: t >= b)
            old, old_calls = _counted(lambda t, b=b: t >= b)
            lo, hi = ray_search(new, RAY_REL_TOL)
            assert (lo, hi) == ray_search_reference(seq, RAY_REL_TOL), b
            _check_rounds(rounds, seq_calls, lambda t, b=b: t >= b)
            try:
                expected = _ray_boundary(old)
            except design.Infeasible:
                assert hi == np.inf
                assert len(seq_calls) == len(old_calls)
                continue
            assert hi == expected, b
            assert lo < b <= hi or hi == RAY_FLOOR
            assert len(seq_calls) == len(old_calls) - (expected > 1.0)

    def test_calibration_midpoint_matches_bisect_rate(self):
        # above the floor, where both searches bracket the same boundary
        for b in self.BOUNDARIES[self.BOUNDARIES > RAY_FLOOR]:
            new, rounds = _recorded(_threshold(b))
            seq, seq_calls = _counted(lambda t, b=b: t >= b)
            old_calls = []

            def rate(t, b=b):
                old_calls.append(t)
                return t

            lo, hi = ray_search(new, CALIBRATION_TOL, lo=RAY_FLOOR)
            assert (lo, hi) == ray_search_reference(seq, CALIBRATION_TOL, lo=RAY_FLOOR), b
            _check_rounds(rounds, seq_calls, lambda t, b=b: t >= b)
            try:
                expected = _bisect_rate(rate, b)
            except CalibrationFailed:
                assert hi == np.inf
                continue
            assert 0.5 * (lo + hi) == expected, b
            assert len(seq_calls) == len(old_calls)

    def test_floor_and_cap(self):
        def always(t):
            return np.ones(len(t), dtype=bool), np.ones(len(t))

        def never(t):
            return np.zeros(len(t), dtype=bool), -np.ones(len(t))

        assert ray_search(always, RAY_REL_TOL) == (0.0, RAY_FLOOR)
        assert ray_search(always, CALIBRATION_TOL, lo=RAY_FLOOR) == (0.0, RAY_FLOOR)
        assert ray_search(never, RAY_REL_TOL)[1] == np.inf


class TestMisleadingScores:
    """Monotone tests whose scores mislead the aim: the brackets stay the
    sequential search's and the rounds within the bound, for the design and
    the calibration tolerance, with boundaries from below the floor to past
    the cap."""

    BOUNDARIES = np.concatenate(
        [
            10.0 ** np.random.default_rng(53).uniform(-13, 16, 60),
            [RAY_FLOOR, 0.5 * RAY_FLOOR, 2.0 * RAY_FLOOR, 1.0, 0.75, RAY_CAP, 2.0 * RAY_CAP, 1e20],
        ]
    )
    # inverted: |score| grows toward the boundary; offset: the score's root
    # lies at twice the boundary
    SCORES = {
        "sign": lambda t, b: np.where(t >= b, 1.0, -1.0),
        "zero": lambda t, b: np.zeros(len(t)),
        "plateaus": lambda t, b: np.floor(np.log2(t / b)),
        "clipped": lambda t, b: np.clip(t / b - 1.0, -1e-3, 1e-3),
        "jump": lambda t, b: t / b - 1.0 + np.where(t >= b, 1.0, -1.0),
        "kink": lambda t, b: np.where(t >= b, 1e6, 1.0) * (t / b - 1.0),
        "inverted": lambda t, b: np.sign(t - b) / (1.0 + abs(np.log(t / b))),
        "offset": lambda t, b: t / b - 2.0,
    }

    @pytest.mark.parametrize(
        "rel_tol, lo",
        [(RAY_REL_TOL, None), (CALIBRATION_TOL, RAY_FLOOR)],
        ids=["design", "calibration"],
    )
    @pytest.mark.parametrize("scores", list(SCORES))
    def test_brackets_and_rounds(self, scores, rel_tol, lo):
        for b in self.BOUNDARIES:
            test, rounds = _recorded(lambda t, b=b: (t >= b, self.SCORES[scores](t, b)))
            seq, visited = _counted(lambda t, b=b: t >= b)
            assert ray_search(test, rel_tol, lo=lo) == ray_search_reference(seq, rel_tol, lo=lo), b
            _check_rounds(rounds, visited, lambda t, b=b: t >= b)

    @pytest.mark.parametrize(
        "rel_tol, lo",
        [(RAY_REL_TOL, None), (CALIBRATION_TOL, RAY_FLOOR)],
        ids=["design", "calibration"],
    )
    def test_equal_scores_fall_back_to_the_secant(self, rel_tol, lo):
        # the score t - 3, but -1 at 1/2 as at 2: the three tested points of
        # smallest |score| after the first round are 2, 4 and 1/2, two of
        # them with equal scores, so the second round's ends are aimed at the
        # secant root 1/theta = 3/8 through (2, -1) and (4, 1)
        test, rounds = _recorded(lambda t: (t >= 3.0, np.where(t == 0.5, -1.0, t - 3.0)))
        seq, visited = _counted(lambda t: t >= 3.0)
        assert ray_search(test, rel_tol, lo=lo) == ray_search_reference(seq, rel_tol, lo=lo)
        _check_rounds(rounds, visited, lambda t: t >= 3.0)
        ends = ray_search_reference(lambda t: t * 0.375 >= 1.0, rel_tol, lo=lo)
        assert 2.0 < ends[0] < 8.0 / 3.0 < ends[1] < 4.0
        assert set(ends) <= set(rounds[1][0].tolist())


class Failure(Exception):
    pass


class TestFailures:
    """A test that fails at one point, as the stacked search sees it (a raise
    from its round) and as the sequential one does (a raise at the point)."""

    BOUNDARIES = [3.0, 0.3, 1e-9, 5e11, 0.75, 1.7e4]

    @staticmethod
    def _failing(b, bad):
        def stacked(thetas):
            if bad in thetas:
                raise Failure(f"failed at {bad!r}")
            return _threshold(b)(thetas)

        def single(t):
            return stacked(np.array([t]))[0][0]

        return stacked, single

    def _points(self, b, rel_tol, lo):
        stacked, rounds = _recorded(_threshold(b))
        ray_search(stacked, rel_tol, lo=lo)
        seq, visited = _counted(lambda t: t >= b)
        ray_search_reference(seq, rel_tol, lo=lo)
        points = [float(t) for thetas, _ in rounds for t in thetas]
        return points, visited

    @pytest.mark.parametrize("rel_tol, lo", [(RAY_REL_TOL, None), (CALIBRATION_TOL, RAY_FLOOR)])
    def test_failure_at_any_point_of_a_tested_round_raises(self, rel_tol, lo):
        for b in self.BOUNDARIES:
            points, _ = self._points(b, rel_tol, lo)
            for bad in points:
                stacked, _ = self._failing(b, bad)
                with pytest.raises(Failure, match=f"failed at {bad!r}"):
                    ray_search(stacked, rel_tol, lo=lo)

    @pytest.mark.parametrize("rel_tol, lo", [(RAY_REL_TOL, None), (CALIBRATION_TOL, RAY_FLOOR)])
    def test_failure_where_the_search_goes_raises_the_same_error(self, rel_tol, lo):
        # where the stacked search answers a point of the walk from another
        # point, it never asks about it and returns the walk's bracket
        shared = 0
        for b in self.BOUNDARIES:
            points, visited = self._points(b, rel_tol, lo)
            for bad in visited:
                stacked, single = self._failing(b, bad)
                with pytest.raises(Failure) as seq_error:
                    ray_search_reference(single, rel_tol, lo=lo)
                assert str(seq_error.value) == f"failed at {bad!r}"
                if bad not in points:
                    expected = ray_search_reference(lambda t: t >= b, rel_tol, lo=lo)
                    assert ray_search(stacked, rel_tol, lo=lo) == expected
                    continue
                with pytest.raises(Failure) as new_error:
                    ray_search(stacked, rel_tol, lo=lo)
                assert str(new_error.value) == str(seq_error.value)
                shared += 1
        assert shared >= 3 * len(self.BOUNDARIES)

    def test_fixed_point_failures_in_a_design_search(self, monkeypatch):
        # a fixed point of a round that fails to converge, X0 and Sigma in
        # the first round's stack among them: either design search raises
        # it, at every point it tests, with the label of the solver that
        # meets it alone; and a Delta0 below X0 raises Infeasible before any
        # other failure of the first round.  Elements are told apart by
        # their J, which is 0 in a stack and None alone for Sigma
        model = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
        problem, below_floor = DesignProblem(model, [[1.5]]), DesignProblem(model, [[1.3]])
        X0 = riccati.information(model.C, model.R[None])[0].tobytes()
        doubling = riccati._doubling

        def keys(element):
            J = element[2]
            return ["Sigma"] if J is None else ["Sigma" if not j.any() else j.tobytes() for j in J]

        for search in (design_search, design_search_closed_loop):
            rounds = []

            def recording(element, *args, rounds=rounds):
                rounds.append(keys(element))
                return doubling(element, *args)

            monkeypatch.setattr(riccati, "_doubling", recording)
            search(problem)
            assert len(rounds) >= 3 and rounds[0][0] == X0 and rounds[0][-1] == "Sigma"
            for bad in dict.fromkeys(key for round_ in rounds for key in round_):

                def failing(element, tol, max_doublings, label, bad=bad):
                    if bad in keys(element):
                        raise NoConvergence(max_doublings, label)
                    return doubling(element, tol, max_doublings, label)

                monkeypatch.setattr(riccati, "_doubling", failing)
                solver = "Lyapunov" if bad == "Sigma" else "Riccati"
                with pytest.raises(NoConvergence, match=f"{solver} doubling did not converge"):
                    search(problem)
                if bad in rounds[0][1:]:
                    with pytest.raises(Infeasible, match="always-transmit fixed point"):
                        search(below_floor)


def _near_unit_problems():
    """24 plants shaped as the benchmark's near-unit designs: A = rho times
    an orthogonal matrix, C = m orthonormal rows, Q = R = Sigma0 = I and
    Delta0 = 2 X0, for n up to 4, m up to 2 and rho(A) in [0.99, 0.999]."""
    rng = np.random.default_rng(59)
    problems = []
    for j in range(24):
        n, m = ((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2))[j % 6]
        rho = 1.0 - 10.0 ** rng.uniform(-3.0, -2.0)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        C, _ = np.linalg.qr(rng.normal(size=(n, n)))
        model = validate_model(rho * Q, C[:m], np.eye(n), np.eye(m), np.eye(n))
        problems.append(DesignProblem(model, 2.0 * design.fixed_point(RiccatiMap(model, model.R))))
    return problems


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
    """Counts stacked fixed-point solves and open-loop rate stacks."""
    count = {"solves": 0}

    def counting(fn):
        def wrapped(*args, **kwargs):
            count["solves"] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(design, "fixed_points", counting(design.fixed_points))
    monkeypatch.setattr(design, "ray_fixed_points", counting(design.ray_fixed_points))
    monkeypatch.setattr(analysis, "fixed_points", counting(analysis.fixed_points))
    monkeypatch.setattr(harness, "open_loop_rates", counting(harness.open_loop_rates))

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


@pytest.fixture
def reference_solves(monkeypatch):
    """Counts the oracle routines' single solves, feasibility checks and
    open-loop rates: their tests of one point, plus the floor check and the
    reported rate."""
    count = {"solves": 0}

    for module, name in (
        (design, "fixed_point"),
        (design, "feasibility_check"),
        (util, "open_loop_rate"),
    ):

        def wrapped(*args, _fn=getattr(module, name), **kwargs):
            count["solves"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    def run(fn, *args):
        before = count["solves"]
        return fn(*args), count["solves"] - before

    return run


def test_searches_and_calibrations_match_the_former_bisections(solves, reference_solves):
    seen = {"above": 0, "below": 0, "floor": 0, "calibrations": 0}
    for model, Delta0, basis, rate in _cases():
        problem = DesignProblem(model, Delta0, basis)
        searches = [(design_search_closed_loop, design_search_closed_loop_reference)]
        if model.rho_A < 1.0:
            searches.append((design_search, design_search_reference))
        for search, reference in searches:
            new, new_solves = solves(search, problem)
            old, old_solves = reference_solves(reference, problem)
            assert _same_design(new, old), (search.__name__, new.theta, old.theta)
            assert new_solves <= _rounds_bound(old_solves)
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
            old, old_solves = reference_solves(reference, arg, rate, basis)
            assert new == old, (calibrate.__name__, new, old)
            assert new_solves <= _rounds_bound(old_solves)
            seen["calibrations"] += 1
    assert min(seen.values()) >= 10, seen


def test_stacked_rounds_walk_as_the_sequential_search(monkeypatch):
    # every search of the 200 cases, designs and calibrations alike, also
    # runs the sequential search on its own test, one point per call
    walks = {"design": 0, "calibration": 0}

    def checked(pred, rel_tol, lo=None):
        recording, rounds = _recorded(pred)
        answers = {}

        def single(theta):
            answers[theta] = bool(pred(np.array([theta]))[0][0])
            return answers[theta]

        bracket = ray_search(recording, rel_tol, lo=lo)
        assert bracket == ray_search_reference(single, rel_tol, lo=lo)
        _check_rounds(rounds, list(answers), answers.__getitem__)
        walks["design" if lo is None else "calibration"] += 1
        return bracket

    monkeypatch.setattr(design, "ray_search", checked)
    monkeypatch.setattr(harness, "ray_search", checked)
    for model, Delta0, basis, rate in _cases():
        problem = DesignProblem(model, Delta0, basis)
        design_search_closed_loop(problem)
        if model.rho_A < 1.0:
            design_search(problem)
            calibrate_closed_loop(model, rate, basis)
            if model.m > 1:
                calibrate_open_loop(steady_state(model), rate, basis)
    assert walks["design"] >= 300 and walks["calibration"] >= 150, walks


def test_near_unit_designs_match_the_former_bisections():
    for j, problem in enumerate(_near_unit_problems()):
        assert _same_design(design_search(problem), design_search_reference(problem)), j
        closed, reference = design_search_closed_loop, design_search_closed_loop_reference
        assert _same_design(closed(problem), reference(problem)), j


def _count_rounds(monkeypatch):
    """The list to which each round of a design's ray search appends its size."""
    rounds, search = [], design.ray_search

    def counted_search(test, rel_tol, lo=None):
        def counted_test(thetas):
            rounds.append(len(thetas))
            return test(thetas)

        return search(counted_test, rel_tol, lo)

    monkeypatch.setattr(design, "ray_search", counted_search)
    return rounds


def test_a_design_solves_every_fixed_point_in_its_rounds(monkeypatch):
    # one riccati._doubling call per round of the ray search, in both loops:
    # X0 and Sigma ride in the first round, and the closed-loop rate reads
    # the search's fixed point at the returned theta
    problems = _near_unit_problems()
    calls, doubling = [], riccati._doubling

    def counted(element, *args):
        calls.append(len(element[1]))
        return doubling(element, *args)

    monkeypatch.setattr(riccati, "_doubling", counted)
    rounds = _count_rounds(monkeypatch)
    for problem in problems:
        for designed in (design_search, design_search_closed_loop):
            calls.clear()
            rounds.clear()
            designed(problem)
            assert calls == [rounds[0] + 2, *rounds[1:]], designed.__name__


def test_near_unit_designs_take_at_most_four_rounds(monkeypatch):
    # the first round brackets theta = 1 from both sides, and the later
    # rounds' ends are aimed by inverse quadratic interpolation
    rounds = _count_rounds(monkeypatch)
    for j, problem in enumerate(_near_unit_problems()):
        for designed in (design_search, design_search_closed_loop):
            rounds.clear()
            designed(problem)
            assert len(rounds) <= 4, (j, designed.__name__, len(rounds))


def test_closed_loop_rate_is_the_upper_rate_at_the_weight():
    # the rate read from the search's own fixed point has the bits of
    # upper_rates, which solves it again, on stable and unstable plants
    for model, Delta0, basis, _ in _cases():
        result = design_search_closed_loop(DesignProblem(model, Delta0, basis))
        want = analysis.upper_rates(model, np.ones(1), result.Y)[0]
        assert np.array_equal(np.float64(result.gamma_achieved).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("rate", [1e-300, 1e-17, 1e-13, 1e-12])
def test_tiny_target_rates_name_the_rate(rate):
    # both calibrations refuse a weight below the ray's floor with one message
    model = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
    messages = []
    calibrations = ((calibrate_open_loop, steady_state(model)), (calibrate_closed_loop, model))
    for calibrate, arg in calibrations:
        with pytest.raises(CalibrationFailed, match=f"target rate {rate}") as exc:
            calibrate(arg, rate)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("rate", [2e-12, 1e-11])
def test_smallest_reachable_rates_keep_their_weights(rate):
    model = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
    st = steady_state(model)
    assert calibrate_open_loop(st, rate) == calibrate_open_loop_reference(st, rate) >= RAY_FLOOR
    assert calibrate_closed_loop(model, rate) == calibrate_closed_loop_reference(model, rate)
