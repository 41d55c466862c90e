"""Seeded trajectory simulation, Monte Carlo aggregation, and comparisons.

Randomness contract (v2): every trajectory draws from one generator seeded
by ``[seed, run_index]`` (a counter-based split of the master seed), so runs
are independent, order-insensitive and exactly reproducible.  A run draws
its horizon's uniforms in one call and its normals in one call at setup and
one per block of steps; the draw order is documented in :func:`simulate`.

One kernel, :func:`_simulate_runs`, simulates a block of runs side by side:
:func:`simulate` is the kernel with one run and :func:`monte_carlo` the
kernel over all runs.  Its two paths share the draws, plant path and logs,
and both carry the prior error x - xhat rather than the estimate, so the
error keeps its digits on plants whose state grows; the plant path itself
is stepped only for the open-loop trigger, the one rule that reads y.
The step loop stacks the filter state over runs and loops over time steps
in Python for the filter recursion alone; it serves every scenario.  When
no transmission decision can depend on the estimate, the scan runs the
filter as a scan over time in O(log T) batched calls, which compose the
covariance maps with :func:`riccati.compose`; it serves the scenarios with
few runs.  Both paths use the trigger rule and measurement update of the
single-step API, :func:`estimation.transmit` and
:func:`estimation.measurement_update`.

The rate calibrations share :func:`design.ray_search` with the trigger
design: they keep the midpoint of its bracket, to relative width 1e-12, with
its lower end starting at the ray's floor, where the design keeps the
feasible end.  A target whose weight is not a positive finite number on the
ray raises :class:`CalibrationFailed`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationFailed, ConfigError, NumericalError
from .estimation import TriggerPolicy, measurement_update, transmit
from .matrices import as_matrix, as_number, config_fields, read_json, require_spd, sym, write_json
from .model import model_from_dict, steady_state, validate_model
from . import riccati
from .analysis import open_loop_rates, upper_rates
from .design import RAY_CAP, RAY_FLOOR, ray_search

# Most per-step log entries, runs * horizon * n, a scenario may ask for: the
# kernel's logs take about 16 n + 25 bytes per run and step and the (runs, T)
# uniforms 8 more, at most 1 GB.  The pre-roll's draws, runs * pre_roll * n
# entries of 8 bytes, count against the same limit.
MAX_LOG_ENTRIES = 2 * 10**7

# Most runs a scenario may ask for: each run's generator takes about 1.1 KB,
# so at most 0.55 GB, within the budget of the logs.
MAX_RUNS = 5 * 10**5

# Widest scenario, runs * n^2, that a feedback-free trigger simulates as a
# scan over time; wider ones step through time.  Near this width the two
# paths take equally long (measured for n = 1 to 6 and m <= n); below it the
# scan is faster, 7-11x for one run of 10^5 steps.
SCAN_MAX_WIDTH = 128

# The scan works on blocks of SCAN_BLOCK_ENTRIES // (runs * n^2) steps, so
# that a block's arrays take some 16 MB at most.
SCAN_BLOCK_ENTRIES = 2**16

# The step loop works on blocks of STEP_BLOCK_ENTRIES // (runs * e) steps, e =
# n^2 + 3n + 2m + 1 being its entries per run and step (P, e, w, v, L_q w, L_r v
# and gamma); only the open-loop trigger holds the plant's x and y, n + m more.
STEP_BLOCK_ENTRIES = 2**21

# Largest gap |1/period - target rate| at which the periodic scheduler counts
# as calibrated to the target rate.
PERIOD_TOL = 0.025


@dataclass(frozen=True, eq=False)
class Scenario:
    """A simulation setup: plant, trigger and run geometry.

    The trigger fixes the remote filter, the MMSE estimator of its schedule:
    the OLSET filter for the open-loop trigger, the CLSET filter for the
    closed-loop trigger, and for the periodic, random and threshold triggers
    a standard Kalman update on an arrival and pure prediction on a drop.
    An unset burn-in is 200 steps, cut to leave the last step of the horizon.
    """

    model: object
    trigger: TriggerPolicy
    horizon: int
    runs: int = 1
    seed: int = 0
    burn_in: int | None = None
    pre_roll: int = 0
    x0_mean: np.ndarray | None = None

    def __post_init__(self):
        for name, lo in (("horizon", 1), ("runs", 1), ("seed", 0), ("burn_in", 0), ("pre_roll", 0)):
            value = _burn_in(self.burn_in, self.horizon) if name == "burn_in" else getattr(self, name)
            object.__setattr__(self, name, as_number(value, name, integer=True, lo=lo))
        if self.burn_in >= self.horizon:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < horizon")
        if self.runs * (self.horizon + self.pre_roll) * self.model.n > MAX_LOG_ENTRIES:
            raise ConfigError(f"runs * (horizon + pre_roll) * n must not exceed {MAX_LOG_ENTRIES}")
        if self.runs > MAX_RUNS:
            raise ConfigError(f"runs must not exceed {MAX_RUNS}")
        if self.x0_mean is not None:
            x0 = as_matrix(self.x0_mean, "x0_mean").reshape(-1)
            if x0.shape[0] != self.model.n:
                raise ConfigError("x0_mean has the wrong length")
            if not np.all(np.isfinite(x0)):
                raise ConfigError("x0_mean has non-finite entries")
            object.__setattr__(self, "x0_mean", x0)

    def to_dict(self):
        d = {
            "model": self.model.to_dict(),
            "trigger": self.trigger.to_dict(),
            "horizon": self.horizon,
            "runs": self.runs,
            "seed": self.seed,
            "burn_in": self.burn_in,
            "pre_roll": self.pre_roll,
        }
        if self.x0_mean is not None:
            d["x0_mean"] = self.x0_mean.tolist()
        return d


def _burn_in(burn_in, horizon, steps=200):
    """A set burn-in, or else ``steps`` cut to leave a step of the horizon."""
    return min(steps, max(0, horizon - 1)) if burn_in is None else burn_in


def scenario_from_dict(data):
    fields = config_fields(
        data, "scenario config", ("model", "trigger", "horizon"),
        ("runs", "seed", "burn_in", "pre_roll", "x0_mean"),
    )
    fields["model"] = model_from_dict(fields["model"])
    fields["trigger"] = TriggerPolicy.from_dict(fields["trigger"])
    return Scenario(**fields)


def load_scenario(path):
    return scenario_from_dict(read_json(path, "scenario config"))


def save_scenario(scenario, path):
    write_json(scenario.to_dict(), path)


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-step log of one simulated trajectory plus summary statistics."""

    gamma: np.ndarray
    P_trace: np.ndarray
    sq_err: np.ndarray
    P11: np.ndarray
    sq_err11: np.ndarray
    empirical_rate: float
    mean_P_trace: float
    P_trace_max: float
    burn_in: int
    P_prior_full: np.ndarray | None = None
    err_outer: np.ndarray | None = None


def _rng_for_run(seed, run_index):
    return np.random.default_rng([int(seed), int(run_index)])


@dataclass(frozen=True, eq=False)
class _RunBlock:
    """A block of runs: per-run logs (runs, T), each run's prior covariance
    at the last step (runs, n, n), and the per-step sums over the runs of
    the prior covariance and the error outer product (T, n, n)."""

    gamma: np.ndarray
    P_trace: np.ndarray
    sq_err: np.ndarray
    P11: np.ndarray
    sq_err11: np.ndarray
    P_last: np.ndarray
    P_sum: np.ndarray | None
    E_sum: np.ndarray | None


def _simulate_runs(scenario, run_indices, force_gamma=None, sums=True):
    """Simulate the runs ``run_indices`` of a scenario side by side.

    When no transmission decision can depend on the estimate (an open-loop,
    periodic or random trigger, or a forced gamma) and runs * n^2 is at
    most ``SCAN_MAX_WIDTH``, the filter runs as a scan over time
    (:func:`_scan_runs`); otherwise it steps all runs together through time
    (:func:`_step_runs`).  The choice reads the scenario only, never the
    block, so a run has the same values in any block.

    Each run draws from its own generator in the order of the randomness
    contract (see :func:`simulate`).  With ``sums`` the prior covariances and
    error outer products are summed over the runs per step; no
    (runs, T, n, n) array is kept.
    """
    feedback_free = force_gamma is not None or scenario.trigger.variant in (
        "open_loop", "periodic", "random"
    )
    if feedback_free and _width(scenario) <= SCAN_MAX_WIDTH:
        return _scan_runs(scenario, run_indices, force_gamma, sums)
    return _step_runs(scenario, run_indices, force_gamma, sums)


def _width(scenario):
    """runs * n^2, the number of covariance entries per step of a scenario."""
    return scenario.runs * scenario.model.n**2


class _Runs:
    """What both paths of :func:`_simulate_runs` start from and write to: the
    constants, each run's generator and uniforms, the prior error at step 0,
    the blocks of draws (with the plant path where the trigger reads y),
    and the logs.  Block arrays are time-major."""

    def __init__(self, scenario, run_indices, force_gamma, sums):
        model = scenario.model
        n = model.n
        self.A, self.C, self.T = model.A, model.C, scenario.horizon
        self.Lq = np.linalg.cholesky(model.Q)
        self.Lr = np.linalg.cholesky(model.R)
        self.rngs = [_rng_for_run(scenario.seed, r) for r in run_indices]
        self.N = N = len(self.rngs)
        self.forced = None
        if force_gamma is not None:
            force_gamma = np.asarray(force_gamma).ravel()
            if force_gamma.shape[0] < self.T:
                raise ConfigError("force_gamma must cover the horizon")
            self.forced = np.broadcast_to((force_gamma[: self.T] != 0)[:, None], (self.T, N))

        # the drop noise of the OLSET and CLSET filters; the other triggers'
        # filter learns nothing from a drop
        pol = scenario.trigger
        W = {"open_loop": pol.Y, "closed_loop": pol.Z}.get(pol.variant)
        self.W_drop = None if W is None else model.R + np.linalg.inv(W)
        self.open_loop = pol.variant == "open_loop"

        # each run first draws the horizon's uniforms, then x0 and the
        # pre-roll's process noise, one call each
        self.zeta = np.empty((N, self.T))
        head = np.empty((N, n * (1 + scenario.pre_roll)))
        for g, zeta, normals in zip(self.rngs, self.zeta, head):
            g.random(out=zeta)
            g.standard_normal(out=normals)
        head = head[:, :, None]
        # the filter carries the prior error e = x - xhat, not xhat: e is
        # drawn, and the pre-roll predicts, e and x taking the same process
        # noise while xhat <- A xhat and P <- A P A' + Q; the plant path x is
        # kept only where the trigger reads y
        e = np.linalg.cholesky(model.Sigma0) @ head[:, :n]
        x = e if scenario.x0_mean is None else e + scenario.x0_mean[:, None]
        P = model.Sigma0
        for j in range(n, head.shape[1], n):
            w = self.Lq @ head[:, j : j + n]
            x, e = model.A @ x + w, model.A @ e + w
            P = sym(model.A @ P @ model.A.T + model.Q)
        self.x = x if self.open_loop else None
        self.e = e
        self.P = np.tile(P, (N, 1, 1))

        # per-step logs (runs, T, n): the prior error and the diagonal of P
        self.gamma_log = np.zeros((N, self.T), dtype=np.int8)
        self.err_log = np.zeros((N, self.T, n))
        self.diag_log = np.zeros((N, self.T, n))
        self.P_sum = np.zeros((self.T, n, n)) if sums else None
        self.E_sum = np.zeros((self.T, n, n)) if sums else None

    def blocks(self, length):
        """For each block of ``length`` steps (at least one): its steps, zeta
        (L, runs), the noises L_r v (L, runs, m, 1) of each step and L_q w
        (L, runs, n, 1) that takes it to the next, and, for the open-loop
        trigger, y (L, runs, m, 1), else None."""
        A, C, Lq, Lr, N = self.A, self.C, self.Lq, self.Lr, self.N
        n, m, length = A.shape[0], Lr.shape[0], max(1, length)
        for k0 in range(0, self.T, length):
            L = min(length, self.T - k0)
            # step k draws (v_k, w_k+1), so one call per run draws a block
            vw = np.empty((N, L, m + n))
            for g, normals in zip(self.rngs, vw):
                g.standard_normal(out=normals)
            vw = vw.transpose(1, 0, 2)[..., None]
            Lv, Lw = Lr @ vw[:, :, :m], Lq @ vw[:, :, m:]
            y = None
            if self.open_loop:
                # the same products in the same order in any block, so that
                # x and y do not depend on the block length
                xs = np.empty((L + 1, N, n, 1))
                xs[0] = self.x
                for j in range(L):
                    np.add(A @ xs[j], Lw[j], out=xs[j + 1])
                self.x = xs[L]
                y = C @ xs[:L] + Lv
            yield slice(k0, k0 + L), self.zeta[:, k0 : k0 + L].T, Lv, Lw, y

    def log(self, steps, gamma, e, P):
        """Write a block's logs and sums from its gamma and prior e and P.

        Raises NumericalError, naming the first step, when a diagonal entry
        of a prior covariance is not positive and finite: the covariance
        recursion has broken down, and no later value means anything.
        """
        diag = P.diagonal(axis1=2, axis2=3)
        if not (diag.min() > 0.0 and diag.max() < np.inf):
            broken = ~((diag > 0.0) & (diag < np.inf)).all(axis=(1, 2))
            raise NumericalError(
                f"prior covariance at step {steps.start + int(broken.argmax())} has a"
                " diagonal entry that is not positive and finite"
            )
        self.gamma_log[:, steps] = gamma.T
        self.err_log[:, steps] = e[..., 0].transpose(1, 0, 2)
        self.diag_log[:, steps] = diag.transpose(1, 0, 2)
        if self.P_sum is not None:
            # accumulate adds the runs one after another in run order, where
            # sum would switch to pairwise order when n = 1
            self.P_sum[steps] = np.add.accumulate(P, axis=1)[:, -1]
            self.E_sum[steps] = np.add.accumulate(e * e.swapaxes(2, 3), axis=1)[:, -1]
        self.P_last = P[-1]

    def result(self):
        e = self.err_log
        err0 = e[:, :, 0]
        return _RunBlock(
            gamma=self.gamma_log,
            P_trace=self.diag_log.sum(axis=2),
            sq_err=(e[:, :, None, :] @ e[:, :, :, None])[:, :, 0, 0],
            P11=self.diag_log[:, :, 0],
            sq_err11=err0 * err0,
            P_last=self.P_last,
            P_sum=self.P_sum,
            E_sum=self.E_sum,
        )


def _step_runs(scenario, run_indices, force_gamma=None, sums=True):
    """The step loop of :func:`_simulate_runs`, for any scenario.

    The filter state is a stack over runs, P (runs, n, n) and the prior
    error e = x - xhat (runs, n, 1); only the filter recursion loops over
    time steps in Python.  Vectors are column stacks, so every product is
    one small matrix product per run and a run's values do not depend on
    the other runs of the block.  Each step keeps the prior e and P, forms
    the innovation C e + L_r v, calls :func:`estimation.transmit` and
    :func:`estimation.measurement_update` on the whole stack and does the
    time update; the draws, plant path and logs are :class:`_Runs`'.
    """
    model, pol = scenario.model, scenario.trigger
    n, m = model.n, model.m
    A, C, Q = model.A, model.C, model.Q
    # a contiguous A': matmul multiplies a stack by it faster than by the
    # transposed view, with the same result
    A_T = A.T.copy()
    s = _Runs(scenario, run_indices, force_gamma, sums)
    e, P = s.e, s.P

    length = STEP_BLOCK_ENTRIES // (s.N * (n * n + 3 * n + 2 * m + 1))
    for steps, zeta, Lv, Lw, y in s.blocks(length):
        gamma = np.empty(zeta.shape, dtype=bool) if s.forced is None else s.forced[steps]
        e_prior, P_prior = np.empty(Lw.shape), np.empty(Lw.shape[:2] + (n, n))
        for j, k in enumerate(range(steps.start, steps.stop)):
            e_prior[j], P_prior[j] = e, P
            innov = C @ e + Lv[j]
            if s.forced is None:
                # the closed-loop and threshold triggers read y - y_pred,
                # the innovation, the open-loop trigger y itself
                gamma[j] = transmit(pol, innov if y is None else y[j], 0.0, zeta[j], k)
            # with y = 0 and the innovation as y_pred the update's mean
            # formula takes the prior error to the posterior error
            e, P, K, _ = measurement_update(
                model, P, e, 0.0, innov, gamma[j], s.W_drop, s.open_loop
            )
            if s.open_loop:
                # an olset drop also pulls the estimate towards 0: + K y
                e = e + K @ (y[j] * ~gamma[j][:, None, None])
            e = A @ e + Lw[j]
            P = sym(A @ P @ A_T + Q)
        s.log(steps, gamma, e_prior, P_prior)

    return s.result()


def _orbit(v0, maps, compose, apply):
    """v0 and its images v[k + 1] = maps[k](v[k]) under K maps, (K + 1, ...).

    ``maps`` is a tuple of arrays whose first axis indexes the maps;
    ``compose`` takes the tuples of a first and a second map and returns
    the tuple of the second after the first, and ``apply`` maps a stack of
    values.  The maps are composed in pairs, and the orbit of the pairs,
    every second value, is found the same way; each value between follows
    by one application.  That is K compositions and K applications in
    2 log2(K) batched calls (a work-efficient, Blelloch-type scan).
    """
    K = maps[0].shape[0]
    if K == 0:
        return v0[None]
    h = K // 2
    even = _orbit(
        v0,
        compose(tuple(f[0 : 2 * h : 2] for f in maps), tuple(f[1 : 2 * h : 2] for f in maps)),
        compose,
        apply,
    )
    out = np.empty((K + 1,) + v0.shape)
    out[0::2] = even
    out[1::2] = apply(tuple(f[0::2] for f in maps), even[: (K + 1) // 2])
    return out


def _compose_affine(first, second):
    """The map x -> F x + b of the second (F, b) after the first."""
    F1, b1 = first
    F2, b2 = second
    return F2 @ F1, F2 @ b1 + b2


def _apply_affine(maps, x):
    F, b = maps
    return F @ x + b


def _scan_runs(scenario, run_indices, force_gamma=None, sums=True):
    """The scan path of :func:`_simulate_runs`, for feedback-free triggers.

    Given gamma, the filter is a linear time-varying Kalman filter.  Per
    block of ``SCAN_BLOCK_ENTRIES // (runs * n^2)`` steps it takes the
    draws (and y) from :class:`_Runs`, decides every gamma in one
    :func:`estimation.transmit` call, finds the prior covariances as an
    :func:`_orbit` of the maps P -> A (P^-1 + J)^-1 A' + Q under
    :func:`riccati.compose`, J = C' W^-1 C being the step's information,
    gets the gains from one :func:`estimation.measurement_update` call, and
    finds the prior errors e = x - xhat as an :func:`_orbit` of the affine
    maps e -> F e + A d + L_q w, F = A (I - K C), that the update's mean
    formula and the time update make.  Each block starts from the previous
    one's end state.
    """
    model, pol = scenario.model, scenario.trigger
    n, m = model.n, model.m
    A, C, Q, R = model.A, model.C, model.Q, model.R
    s = _Runs(scenario, run_indices, force_gamma, sums)
    e, P, N = s.e, s.P, s.N
    # the information of an arrival and of a drop; an offline drop has none
    J_arrival = C.T @ np.linalg.solve(R, C)
    J_drop = np.zeros((n, n)) if s.W_drop is None else C.T @ np.linalg.solve(s.W_drop, C)

    for steps, zeta, Lv, Lw, y in s.blocks(SCAN_BLOCK_ENTRIES // _width(scenario)):
        L = Lw.shape[0]
        if s.forced is not None:
            gamma = s.forced[steps]
        else:
            k = np.repeat(np.arange(steps.start, steps.stop), N)
            z = None if y is None else y.reshape(L * N, m, 1)
            gamma = transmit(pol, z, None, zeta.ravel(), k).reshape(L, N)

        J = np.where(gamma[:, :, None, None], J_arrival, J_drop)
        try:
            # a covariance that breaks down is reported by the log's check
            with np.errstate(over="ignore", invalid="ignore"):
                P_all = _orbit(
                    P, (np.broadcast_to(A, J.shape), np.broadcast_to(Q, J.shape), J),
                    riccati.compose, riccati.apply,
                )
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"prior covariance scan failed ({exc})") from exc
        P_prior, P = P_all[:L], P_all[L]

        # with a zero prior error and y, and L_r v as y_pred, the update
        # returns the part d of the posterior error that the noise makes
        g = gamma.reshape(L * N)
        d, _, K, _ = measurement_update(
            model, P_prior.reshape(L * N, n, n), 0.0, 0.0, Lv.reshape(L * N, m, 1), g,
            s.W_drop, s.open_loop,
        )
        if s.open_loop:
            # an olset drop also pulls the estimate towards 0: + K y
            d = d + K @ (y.reshape(L * N, m, 1) * ~g[:, None, None])
        else:
            K = K * g[:, None, None]
        e_all = _orbit(
            e,
            ((A @ (np.eye(n) - K @ C)).reshape(L, N, n, n), (A @ d).reshape(L, N, n, 1) + Lw),
            _compose_affine, _apply_affine,
        )
        e = e_all[L]
        s.log(steps, gamma, e_all[:L], P_prior)

    return s.result()


def simulate(scenario, run_index=0, force_gamma=None, record_full=False):
    """Simulate one trajectory; deterministic given (seed, run_index).

    Randomness contract (v2): the generator is seeded by [seed, run_index].
    It first draws the horizon's T uniforms zeta in one call,
    ``random(out=...)`` on a length-T row, whether or not the policy reads
    them.  Then it draws the normals in step order: x0 (n), the ``pre_roll``
    process-noise draws (n each), and per step k the measurement noise v_k
    (m) and the process noise w_k+1 (n) that takes x_k to x_k+1, so the
    stream is x0, the pre-roll, v_0, w_1, v_1, ..., v_T-1, w_T (w_T is
    drawn and not used).  Normal draws concatenate across calls, so they
    are made in one ``standard_normal(out=...)`` call of
    n * (1 + pre_roll) values at setup and one of L * (m + n) values per
    block of L steps, and no value depends on the block length.  Every
    policy sees the same plant path.

    ``force_gamma`` (a 0/1 sequence, testing hook) overrides the trigger
    decisions without changing the draw order.  The estimator-side update
    never receives the measurement when gamma = 0.
    """
    as_number(run_index, "run_index", integer=True, lo=0)
    block = _simulate_runs(scenario, [run_index], force_gamma, sums=record_full)
    P_trace = block.P_trace[0]
    tail = slice(scenario.burn_in, scenario.horizon)
    return TrajectoryRecord(
        gamma=block.gamma[0],
        P_trace=P_trace,
        sq_err=block.sq_err[0],
        P11=block.P11[0],
        sq_err11=block.sq_err11[0],
        empirical_rate=float(block.gamma[0].mean()),
        mean_P_trace=float(P_trace[tail].mean()),
        P_trace_max=float(P_trace.max()),
        burn_in=scenario.burn_in,
        # with one run the sums over runs are the run's own matrices
        P_prior_full=block.P_sum,
        err_outer=block.E_sum,
    )


@dataclass(frozen=True, eq=False)
class MonteCarloStats:
    """Cross-run aggregates of a scenario."""

    steps: np.ndarray
    rate_mean: np.ndarray
    P_mean: np.ndarray
    err_outer_mean: np.ndarray
    P_trace_mean: np.ndarray
    mse_mean: np.ndarray
    consistency_ratio: np.ndarray
    rate_overall: float
    rate_stderr: float
    terminal_P_mean: np.ndarray
    terminal_P_stderr: np.ndarray
    steady_trace_mean: float
    steady_trace_stderr: float
    P_trace_max: float
    drop_run_hist: dict
    arrival_run_hist: dict
    runs: int


def _run_length_histogram(gamma, value):
    """Counts of the maximal runs of ``value``, by length, over the rows of a
    (runs, T) 0/1 array: {length: count}, sorted by length."""
    hit = np.atleast_2d(np.asarray(gamma) == value).astype(np.int8)
    edge = np.zeros((hit.shape[0], 1), dtype=np.int8)
    step = np.diff(np.concatenate([edge, hit, edge], axis=1), axis=1)
    # a run starts where the row steps up and ends where it steps down; in
    # row-major order the two lists pair up run by run
    lengths = np.flatnonzero(step == -1) - np.flatnonzero(step == 1)
    values, counts = np.unique(lengths, return_counts=True)
    return {int(l): int(c) for l, c in zip(values, counts)}


def _stderr(values):
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        return np.zeros_like(values[0]) if values.ndim > 1 else 0.0
    return values.std(axis=0, ddof=1) / np.sqrt(values.shape[0])


def monte_carlo(scenario):
    """Run ``scenario.runs`` independent trajectories and aggregate them.

    All runs are simulated side by side; run r has the values of
    ``simulate(scenario, r)``.
    """
    N = scenario.runs
    block = _simulate_runs(scenario, range(N))
    P_mean = block.P_sum / N
    E_mean = block.E_sum / N
    P_trace_mean = np.trace(P_mean, axis1=1, axis2=2)
    mse_mean = np.trace(E_mean, axis1=1, axis2=2)
    rates = block.gamma.mean(axis=1)
    steady = block.P_trace[:, scenario.burn_in :].mean(axis=1)
    return MonteCarloStats(
        steps=np.arange(scenario.horizon),
        rate_mean=block.gamma.sum(axis=0) / N,
        P_mean=P_mean,
        err_outer_mean=E_mean,
        P_trace_mean=P_trace_mean,
        mse_mean=mse_mean,
        consistency_ratio=mse_mean / P_trace_mean,
        rate_overall=float(rates.mean()),
        rate_stderr=float(_stderr(rates)),
        terminal_P_mean=sym(block.P_last.mean(axis=0)),
        terminal_P_stderr=np.asarray(_stderr(block.P_last)),
        steady_trace_mean=float(steady.mean()),
        steady_trace_stderr=float(_stderr(steady)),
        P_trace_max=float(block.P_trace.max()),
        drop_run_hist=_run_length_histogram(block.gamma, 0),
        arrival_run_hist=_run_length_histogram(block.gamma, 1),
        runs=N,
    )


@dataclass(frozen=True, eq=False)
class RunLengthStats:
    """Sliding-window counts of consecutive drops and arrivals of length l."""

    l: int
    n_windows: int
    drop_windows: int
    arrival_windows: int

    @property
    def drop_frequency(self):
        return self.drop_windows / self.n_windows if self.n_windows else 0.0

    @property
    def arrival_frequency(self):
        return self.arrival_windows / self.n_windows if self.n_windows else 0.0


def run_length_stats(record, l):
    """Count windows of l consecutive drops / arrivals in a trajectory."""
    if l < 1:
        raise ValueError("l must be a positive integer")
    g = np.asarray(record.gamma)
    if g.size == 0:
        raise ValueError("record is empty")
    if l > g.size:
        return RunLengthStats(l=l, n_windows=0, drop_windows=0, arrival_windows=0)
    windows = np.lib.stride_tricks.sliding_window_view(g, l)
    sums = windows.sum(axis=1)
    return RunLengthStats(
        l=l,
        n_windows=int(sums.shape[0]),
        drop_windows=int((sums == 0).sum()),
        arrival_windows=int((sums == l).sum()),
    )


def _weight(theta, target_rate):
    if not RAY_FLOOR <= theta <= RAY_CAP:
        raise CalibrationFailed(
            f"target rate {target_rate} unreachable: no trigger weight theta in"
            f" [{RAY_FLOOR:g}, {RAY_CAP:g}] gives it"
        )
    return theta


def _ray_weight(rates, target_rate):
    """Midpoint of the ray search's bracket around rate(theta) = target;
    ``rates(thetas)`` gives each theta's rate."""
    lo, hi = ray_search(lambda t: rates(t) >= target_rate, 1e-12, lo=RAY_FLOOR)
    # below the floor when the rate at the floor already reaches the target
    return _weight(0.5 * (lo + hi), target_rate)


def calibrate_open_loop(steady_stats, target_rate, basis=None):
    """Trigger weight theta * basis whose open-loop rate equals the target.

    Closed form for scalar measurements, ray search otherwise.
    """
    if not 0.0 < target_rate < 1.0:
        raise CalibrationFailed("target rate must lie in (0, 1)")
    m = steady_stats.Pi.shape[0]
    B = np.eye(m) if basis is None else np.asarray(basis, dtype=float)
    require_spd(B, "basis")  # once, instead of each theta * B
    if m == 1:
        pi_b = float(steady_stats.Pi[0, 0] * B[0, 0])
        return _weight(((1.0 / (1.0 - target_rate)) ** 2 - 1.0) / pi_b, target_rate)
    return _ray_weight(
        lambda t: open_loop_rates(steady_stats, sym(t[:, None, None] * B)), target_rate
    )


def calibrate_closed_loop(model, target_rate, basis=None):
    """Trigger weight theta * basis whose closed-loop upper rate bound equals
    the target (the bound is what the design machinery also uses)."""
    if not 0.0 < target_rate < 1.0:
        raise CalibrationFailed("target rate must lie in (0, 1)")
    B = np.eye(model.m) if basis is None else np.asarray(basis, dtype=float)
    require_spd(B, "basis")  # once, instead of each theta * B
    return _ray_weight(lambda t: upper_rates(model, t, B), target_rate)


def calibrate_period(target_rate):
    if not 0.0 < target_rate < 1.0:
        raise CalibrationFailed("target rate must lie in (0, 1)")
    if 1.0 / target_rate == math.inf:
        raise CalibrationFailed(f"target rate {target_rate} too small to reach")
    period = max(1, round(1.0 / target_rate))
    if abs(1.0 / period - target_rate) > PERIOD_TOL:
        raise CalibrationFailed(
            f"periodic scheduler: no integer period reaches rate {target_rate} within {PERIOD_TOL}"
        )
    return period


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    scheduler: str
    param: float
    empirical_rate: float
    steady_trace: float
    steady_trace_stderr: float


def compare_schedulers(model, target_rate, horizon=2000, runs=100, seed=0, burn_in=None):
    """Calibrate the four schedulers to one rate and compare steady E[P-].

    Rows are ordered clset, olset, periodic, random.  All schedulers share
    the same master seed, hence identical plant noise per run index.  An
    unset burn-in is 200 steps, cut to leave the last step of the horizon.
    """
    target_rate = as_number(target_rate, "target_rate")
    # the periodic calibration costs nothing and misses most rates, so it goes first
    period = calibrate_period(target_rate)
    theta_y = calibrate_open_loop(steady_state(model), target_rate)
    theta_z = calibrate_closed_loop(model, target_rate)
    m = model.m
    setups = [
        ("clset", theta_z, TriggerPolicy.closed_loop(theta_z * np.eye(m))),
        ("olset", theta_y, TriggerPolicy.open_loop(theta_y * np.eye(m))),
        ("periodic", float(period), TriggerPolicy.periodic(period)),
        ("random", target_rate, TriggerPolicy.random_offline(target_rate)),
    ]
    rows = []
    for name, param, trig in setups:
        scn = Scenario(
            model=model,
            trigger=trig,
            horizon=horizon,
            runs=runs,
            seed=seed,
            burn_in=burn_in,
        )
        stats = monte_carlo(scn)
        rows.append(
            ComparisonRow(
                scheduler=name,
                param=float(param),
                empirical_rate=stats.rate_overall,
                steady_trace=stats.steady_trace_mean,
                steady_trace_stderr=stats.steady_trace_stderr,
            )
        )
    return rows


def singer_scenario(
    T,
    alpha,
    sigma_m2,
    z_scale=None,
    delta=None,
    a13="paper",
    runs=10_000,
    horizon=100,
    seed=0,
    burn_in=None,
):
    """Third-order kinematic target-tracking scenario (position, velocity,
    acceleration) with maneuver time constant 1/alpha and acceleration
    variance sigma_m2, full-state observation and unit measurement noise.

    The (1, 3) transition entry is T**2 by default ("paper"); pass
    a13="half" for the T**2/2 variant.  Exactly one of ``z_scale``
    (closed-loop trigger weight scale) or ``delta`` (deterministic
    threshold for the offline baseline) must be given.  An unset burn-in is
    20 steps, cut to leave the last step of the horizon.
    """
    T = as_number(T, "T")
    alpha = as_number(alpha, "alpha")
    sigma_m2 = as_number(sigma_m2, "sigma_m2")
    if T <= 0 or alpha <= 0 or sigma_m2 <= 0:
        raise ConfigError("T, alpha and sigma_m2 must be positive")
    if (z_scale is None) == (delta is None):
        raise ConfigError("specify exactly one of z_scale or delta")
    if a13 not in ("paper", "half"):
        raise ConfigError("a13 must be 'paper' or 'half'")
    a13_val = T * T if a13 == "paper" else 0.5 * T * T
    A = np.array([[1.0, T, a13_val], [0.0, 1.0, T], [0.0, 0.0, 1.0]])
    Q = 2.0 * alpha * sigma_m2 * np.array(
        [
            [T**5 / 20.0, T**4 / 8.0, T**3 / 6.0],
            [T**4 / 8.0, T**3 / 3.0, T**2 / 2.0],
            [T**3 / 6.0, T**2 / 2.0, T],
        ]
    )
    model = validate_model(A, np.eye(3), Q, np.eye(3), np.eye(3))
    if z_scale is not None:
        trigger = TriggerPolicy.closed_loop(as_number(z_scale, "z_scale") * np.eye(3))
    else:
        trigger = TriggerPolicy.deterministic_threshold(as_number(delta, "delta"))
    return Scenario(
        model=model,
        trigger=trigger,
        horizon=horizon,
        runs=runs,
        seed=seed,
        burn_in=_burn_in(burn_in, horizon, 20),
    )


def _fmt(x):
    return f"{x:.12g}"


def write_trajectory_csv(record, fh):
    fh.write("k,gamma,P_trace,mse,P11,mse11\n")
    for k in range(record.gamma.shape[0]):
        fh.write(
            f"{k},{int(record.gamma[k])},{_fmt(record.P_trace[k])},"
            f"{_fmt(record.sq_err[k])},{_fmt(record.P11[k])},{_fmt(record.sq_err11[k])}\n"
        )


def write_monte_carlo_csv(stats, fh):
    fh.write("k,rate_mean,P_trace_mean,mse_mean,P11_mean,mse11_mean\n")
    for k in range(stats.steps.shape[0]):
        fh.write(
            f"{k},{_fmt(stats.rate_mean[k])},{_fmt(stats.P_trace_mean[k])},"
            f"{_fmt(stats.mse_mean[k])},{_fmt(stats.P_mean[k, 0, 0])},"
            f"{_fmt(stats.err_outer_mean[k, 0, 0])}\n"
        )


def write_comparison_csv(rows, fh):
    fh.write("scheduler,param,empirical_rate,steady_trace\n")
    for row in rows:
        fh.write(
            f"{row.scheduler},{_fmt(row.param)},{_fmt(row.empirical_rate)},"
            f"{_fmt(row.steady_trace)}\n"
        )


def write_report_csv(rows, fh):
    fh.write("quantity,value\n")
    for name, value in rows:
        fh.write(f"{name},{_fmt(value)}\n")
