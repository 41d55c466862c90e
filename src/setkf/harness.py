"""Seeded trajectory simulation, Monte Carlo aggregation, and comparisons.

Randomness contract (v2): every trajectory draws from one generator seeded
by ``[seed, run_index]`` (a counter-based split of the master seed), so runs
are independent, order-insensitive and exactly reproducible.  A run draws
its horizon's uniforms in one call and its normals in one call at setup and
one per block of steps; the draw order is documented in :func:`simulate`.

One kernel, :func:`_simulate_runs`, simulates a block of runs side by side:
:func:`simulate` is the kernel with one run and :func:`monte_carlo` the
kernel over all runs.  It is one driver over three block steppers, which
share the draws, plant path, gamma and logs of :class:`_Runs`, carry the
prior error x - xhat rather than the estimate, so the error keeps its digits
on plants whose state grows, and use the trigger rule, drop noise and
measurement update of the single-step API, :func:`estimation.transmit`,
:func:`estimation.drop_noise` and :func:`estimation.measurement_update`,
whose error form alone says what a drop tells the filter; the open-loop
trigger hands it y, and for that trigger only the plant path itself is
stepped.  The first matching row of one route table picks the stepper:

    trigger                 size                                    stepper       block
    feedback-free           runs * n^2 <= SCAN_MAX_WIDTH            _scan_block   L_scan
    closed loop, threshold  n = m = 1, runs <= FLOAT_PATH_MAX_RUNS  _float_block  L_step
    any                     any other                               _step_block   L_step

with blocks of L_scan = SCAN_BLOCK_ENTRIES // (runs * n^2) and L_step =
STEP_BLOCK_ENTRIES // (runs * (n^2 + 3n + 2m + 1)) steps, runs being the
scenario's, however many of them are simulated.  The route and the block
length read the trigger and the scenario alone, so a forced gamma keeps its
trigger's stepper and run r has the same bits in any block of runs.  For
the feedback-free triggers (open loop, periodic, random) :meth:`_Runs.blocks`
decides gamma a block at a time, and the scan runs the filter over time in
O(log T) batched calls, which compose the covariance maps with
:func:`riccati.compose` and read a drop only through its drop noise, in
information form.  The step loops loop over time steps in Python for the
filter recursion alone, deciding on the innovation where the trigger reads
the estimate; the float one steps each run in Python floats, with the numpy
one's bits.  The open-loop plant path is an :func:`_orbit` of affine maps
on every route, a scan over time like the prior errors'.

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
from .estimation import READS_ESTIMATE, TriggerPolicy, drop_noise, measurement_update, transmit
from .matrices import as_matrix, as_number, config_fields, read_json, sym, write_json
from .model import model_from_dict, steady_state, validate_model
from . import riccati
from .analysis import open_loop_rates, upper_rates
from .design import RAY_CAP, RAY_FLOOR, ray_basis, ray_search

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

# Most runs of a scenario with n = m = 1 whose step loop steps in Python
# floats, run by run (_float_block); more step as one numpy stack.  The
# floats took 0.05, 0.19, 0.35, 0.65, 1.12 and 1.81 times the stack's time at
# 1, 8, 16, 32, 64 and 128 runs (scalar closed loop, monte_carlo, 1500 steps,
# best of 3; 2-CPU Xeon, numpy 2.4).
FLOAT_PATH_MAX_RUNS = 8

# The scan works on blocks of SCAN_BLOCK_ENTRIES // (runs * n^2) steps, so
# that a block's arrays take some 16 MB at most.
SCAN_BLOCK_ENTRIES = 2**16

# The step loop works on blocks of STEP_BLOCK_ENTRIES // (runs * e) steps, runs
# being the scenario's and e = n^2 + 3n + 2m + 1 its entries per run and step
# (P, e, w, v, L_q w, L_r v and gamma); only the open-loop trigger holds the
# plant's x and y, n + m more.
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


def _simulate_runs(scenario, run_indices, force_gamma=None, sums=True):
    """Simulate the runs ``run_indices`` of a scenario side by side; the
    :class:`_Runs` returned holds their logs.

    The one driver of the kernel.  It builds :class:`_Runs`, takes the
    stepper and block length of the first matching row of the route table
    of the module docstring, and steps each block from the last one's end
    state.

    Each run draws from its own generator in the order of the randomness
    contract (see :func:`simulate`).  With ``sums`` the prior covariances and
    error outer products are summed over the runs per step; no
    (runs, T, n, n) array is kept.
    """
    model = scenario.model
    n, m = model.n, model.m
    s = _Runs(scenario, run_indices, force_gamma, sums)
    width = scenario.runs * n**2
    if scenario.trigger.variant not in READS_ESTIMATE and width <= SCAN_MAX_WIDTH:
        step, length = _scan_block, SCAN_BLOCK_ENTRIES // width
        # the information of an arrival and of a drop; an offline drop has none
        s.J_arrival = riccati.information(model.C, model.R[None])[0]
        s.J_drop = (
            np.zeros((n, n)) if s.W_drop is None
            else riccati.information(model.C, s.W_drop[None])[0]
        )
    else:
        floats = scenario.trigger.variant in READS_ESTIMATE and n == m == 1
        step = _float_block if floats and scenario.runs <= FLOAT_PATH_MAX_RUNS else _step_block
        length = STEP_BLOCK_ENTRIES // (scenario.runs * (n**2 + 3 * n + 2 * m + 1))
    e, P = s.e, s.P
    for steps, zeta, Lv, Lw, y, gamma in s.blocks(length):
        gamma, e_all, P_all = step(model, s, zeta, Lv, Lw, y, gamma, e, P)
        e, P = e_all[-1], P_all[-1]
        s.log(steps, gamma, e_all[:-1], P_all[:-1])
    return s


class _Runs:
    """What the block steppers of :func:`_simulate_runs` start from, write to
    and return: the constants, each run's generator and uniforms, the prior
    error at step 0, the blocks of draws (with the plant path where the
    trigger reads y, and gamma where it does not read the estimate), and
    the logs, from which the properties derive the per-run logs (runs, T)
    that :func:`simulate` records.  Block arrays are time-major."""

    def __init__(self, scenario, run_indices, force_gamma, sums):
        model = scenario.model
        n = model.n
        self.A, self.C, self.T = model.A, model.C, scenario.horizon
        self.Lq = np.linalg.cholesky(model.Q)
        self.Lr = np.linalg.cholesky(model.R)
        # drop_noise checks the weight's size, and this the forced gamma (a
        # 1-D sequence of 0s and 1s, bools too), before any generator is built
        self.trigger = scenario.trigger
        self.W_drop = drop_noise(model, self.trigger)
        self.forced = None
        if force_gamma is not None:
            try:
                forced = np.asarray(force_gamma, dtype=float)
            except (TypeError, ValueError):
                forced = np.array(np.nan)  # not one number per step
            if forced.ndim != 1 or not np.isin(forced, (0.0, 1.0)).all():
                raise ConfigError("force_gamma must be a 1-D sequence of 0s and 1s")
            if forced.shape[0] < self.T:
                raise ConfigError("force_gamma must cover the horizon")
            shape = (self.T, len(run_indices))
            self.forced = np.broadcast_to((forced[: self.T] == 1.0)[:, None], shape)
        self.rngs = [_rng_for_run(scenario.seed, r) for r in run_indices]
        self.N = N = len(self.rngs)

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
        self.x = x if self.trigger.variant == "open_loop" else None
        self.e = e
        self.P = np.tile(P, (N, 1, 1))

        # per-step logs: gamma (runs, T), the prior error and the diagonal of
        # P (runs, T, n), and the sums of P and e e' over the runs (T, n, n);
        # log() also keeps each run's last P as P_last (runs, n, n)
        self.gamma = np.zeros((N, self.T), dtype=np.int8)
        self.err_log = np.zeros((N, self.T, n))
        self.diag_log = np.zeros((N, self.T, n))
        self.P_sum = np.zeros((self.T, n, n)) if sums else None
        self.E_sum = np.zeros((self.T, n, n)) if sums else None

    def blocks(self, length):
        """For each block of ``length`` steps (at least one): its steps, zeta
        (L, runs), the noises L_r v (L, runs, m, 1) of each step and L_q w
        (L, runs, n, 1) that takes it to the next, for the open-loop
        trigger y (L, runs, m, 1), else None, and gamma (L, runs): the
        forced rows, or else one :func:`estimation.transmit` call's
        decisions, or None where the trigger reads the estimate.  The plant
        path x_k+1 = A x_k + L_q w_k is an :func:`_orbit` of affine maps, A
        broadcast over the runs, so its rounding depends on ``length``, which
        reads the scenario's runs.  ``k0`` keeps the first step of the block
        last yielded."""
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
            if self.x is not None:
                xs = _orbit(
                    self.x, (np.broadcast_to(A, (L, 1, n, n)), Lw), _compose_affine, _apply_affine
                )
                self.x = xs[L]
                y = C @ xs[:L] + Lv
            zeta = self.zeta[:, k0 : k0 + L].T
            if self.forced is not None:
                gamma = self.forced[k0 : k0 + L]
            elif self.trigger.variant in READS_ESTIMATE:
                gamma = None
            else:
                k = np.repeat(np.arange(k0, k0 + L), N)
                z = None if y is None else y.reshape(L * N, m, 1)
                gamma = transmit(self.trigger, z, zeta.ravel(), k).reshape(L, N)
            self.k0 = k0
            yield slice(k0, k0 + L), zeta, Lv, Lw, y, gamma

    def log(self, steps, gamma, e, P):
        """Write a block's logs and sums from its gamma and prior e and P.

        Raises NumericalError, naming the first step, when a diagonal entry
        of a prior covariance is not positive and finite: the covariance
        recursion has broken down, and no later value means anything.  Unless
        gamma is forced, it also does so when a coordinate of a prior error
        lies more than 1000 standard deviations out, |e_i| > 1e3 sqrt(P_ii).
        The filter is exact, so e ~ N(0, P), and for the threshold trigger P
        bounds the error: an honest run crosses the bound with probability
        below 1e-200000, an error that has lost its digits to rounding does.
        A forced gamma is not the trigger's own, so there P is not the
        error's covariance.
        """
        diag = P.diagonal(axis1=2, axis2=3)
        if not (diag.min() > 0.0 and diag.max() < np.inf):
            broken = ~((diag > 0.0) & (diag < np.inf)).all(axis=(1, 2))
            raise _broken_covariance(steps.start + int(broken.argmax()))
        # an error that is not finite fails this test, and nothing in it overflows
        far = ~(np.abs(e[..., 0]) <= 1e3 * np.sqrt(diag)).all(axis=(1, 2))
        if self.forced is None and far.any():
            raise NumericalError(
                f"prior error at step {steps.start + int(far.argmax())} lies more than"
                " 1000 standard deviations out"
            )
        self.gamma[:, steps] = gamma.T
        self.err_log[:, steps] = e[..., 0].transpose(1, 0, 2)
        self.diag_log[:, steps] = diag.transpose(1, 0, 2)
        if self.P_sum is not None:
            # accumulate adds the runs one after another in run order, where
            # sum would switch to pairwise order when n = 1
            self.P_sum[steps] = np.add.accumulate(P, axis=1)[:, -1]
            self.E_sum[steps] = np.add.accumulate(e * e.swapaxes(2, 3), axis=1)[:, -1]
        self.P_last = P[-1]

    @property
    def P_trace(self):
        return self.diag_log.sum(axis=2)

    @property
    def sq_err(self):
        e = self.err_log
        return (e[:, :, None, :] @ e[:, :, :, None])[:, :, 0, 0]

    @property
    def P11(self):
        return self.diag_log[:, :, 0]

    @property
    def sq_err11(self):
        err0 = self.err_log[:, :, 0]
        return err0 * err0


def _broken_covariance(step):
    return NumericalError(
        f"prior covariance at step {step} has a diagonal entry that is not positive and finite"
    )


def _step_block(model, s, zeta, Lv, Lw, y, gamma, e, P):
    """Step a stack of runs through a block of steps; returns gamma (L, runs)
    and the prior errors and covariances of the block's steps and of the
    step after it, (L + 1, runs, n, 1) and (L + 1, runs, n, n).

    The filter state is a stack over runs, P (runs, n, n) and the prior
    error e = x - xhat (runs, n, 1); only the filter recursion loops over
    time steps in Python.  Vectors are column stacks, so every product is
    one small matrix product per run and a run's values do not depend on
    the other runs of the stack.  Each step keeps the prior e and P, forms
    the innovation C e + L_r v, calls :func:`estimation.transmit` on it if
    the block brings no gamma (only the closed-loop and threshold triggers,
    whose rules read no step index, bring none), calls
    :func:`estimation.measurement_update` on the whole stack and does the
    time update.
    """
    A, C, Q = model.A, model.C, model.Q
    # a contiguous A': matmul multiplies a stack by it faster than by the
    # transposed view, with the same result
    A_T = A.T.copy()
    L = Lw.shape[0]
    decide = gamma is None
    gamma = np.empty(zeta.shape, dtype=bool) if decide else gamma
    e_all, P_all = np.empty((L + 1,) + e.shape), np.empty((L + 1,) + P.shape)
    for j in range(L):
        e_all[j], P_all[j] = e, P
        innov = C @ e + Lv[j]
        if decide:
            gamma[j] = transmit(s.trigger, innov, zeta[j])
        e, P, _, _ = measurement_update(
            model, P, e, innov, gamma[j], s.W_drop, None if y is None else y[j]
        )
        e = A @ e + Lw[j]
        P = sym(A @ P @ A_T + Q)
    e_all[L], P_all[L] = e, P
    return gamma, e_all, P_all


def _float_block(model, s, zeta, Lv, Lw, y, gamma, e, P):
    """:func:`_step_block` for the closed-loop and threshold triggers when
    n = m = 1: each run steps in Python floats, read and written through
    memoryviews, with the products and sums of :func:`estimation.transmit`,
    :func:`estimation.measurement_update` and the time update in the same
    order, so with the same bits.  The closed-loop rule takes ``math.exp``
    where ``transmit`` takes ``np.exp``; the two can decide apart only when
    zeta lies within an ulp of the acceptance probability.  Python floats
    do not raise on overflow, so NumericalError names the step of a prior
    covariance that is not positive and finite (the step after the block's
    included), and of an innovation covariance c p c + R (or + the drop
    noise) that is not finite, where the update would go on with K = 0.
    """
    a, c, q, r = (X.item() for X in (model.A, model.C, model.Q, model.R))
    w_drop = None if s.W_drop is None else s.W_drop.item()
    closed = s.trigger.variant == "closed_loop"
    weight = s.trigger.Z.item() if closed else s.trigger.delta
    exp, inf, k0 = math.exp, math.inf, s.k0
    L, N = zeta.shape
    decide = gamma is None
    gamma = np.empty((L, N), dtype=bool) if decide else gamma
    e_all, P_all = np.empty((L + 1, N, 1, 1)), np.empty((L + 1, N, 1, 1))
    for run, (e_r, p) in enumerate(zip(e[:, 0, 0].tolist(), P[:, 0, 0].tolist())):
        es, ps = memoryview(e_all[:, run, 0, 0]), memoryview(P_all[:, run, 0, 0])
        gs = memoryview(gamma[:, run])
        vs, ws = memoryview(Lv[:, run, 0, 0]), memoryview(Lw[:, run, 0, 0])
        # a prior p is positive and finite, or else its M is not finite
        for j, (zt, v, w) in enumerate(zip(memoryview(zeta[:, run]), vs, ws)):
            es[j], ps[j] = e_r, p
            z = c * e_r + v
            if not decide:
                g = gs[j]
            elif closed:
                g = gs[j] = not zt <= exp(-0.5 * (z * weight * z))
            else:
                g = gs[j] = abs(z) > weight
            cp = c * p
            M = cp * c + (r if g or w_drop is None else w_drop)
            if not M < inf:
                raise NumericalError(f"innovation covariance at step {k0 + j} is not finite")
            k = cp / M if w_drop is not None else cp / M * g
            e_r = e_r - k * (z * g)
            p = p - k * cp
            p = 0.5 * (p + p)
            e_r = a * e_r + w
            p = a * p * a + q
            p = 0.5 * (p + p)
            if not 0.0 < p < inf:
                raise _broken_covariance(k0 + j + 1)
        es[L], ps[L] = e_r, p
    return gamma, e_all, P_all


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
    """The map x -> F x + b of the second (F, b) after the first; elementwise,
    with the same bits, for n = 1."""
    F1, b1 = first
    F2, b2 = second
    if F1.shape[-1] == 1:
        return F2 * F1, F2 * b1 + b2
    return F2 @ F1, F2 @ b1 + b2


def _apply_affine(maps, x):
    F, b = maps
    return F * x + b if x.shape[-2] == 1 else F @ x + b


def _scan_block(model, s, zeta, Lv, Lw, y, gamma, e, P):
    """:func:`_step_block` for a trigger that does not read the estimate, as
    a scan over time; :func:`_simulate_runs` forms its information matrices
    ``s.J_arrival`` and ``s.J_drop``.

    Given gamma, the filter is a linear time-varying Kalman filter.  The
    scan finds the prior covariances as an :func:`_orbit` of the maps
    P -> A (P^-1 + J)^-1 A' + Q under :func:`riccati.compose`, J = C' W^-1 C
    being the step's :func:`riccati.information`, W = R on an arrival and
    the drop noise on a drop, gets the error's gains K from one
    :func:`estimation.measurement_update` call, and finds the prior errors
    e = x - xhat as an :func:`_orbit` of the affine maps
    e -> F e + A d + L_q w, F = A (I - K C), that the update and the time
    update make.
    """
    n, m = model.n, model.m
    A, C, Q = model.A, model.C, model.Q
    L, N = zeta.shape
    J = np.where(gamma[:, :, None, None], s.J_arrival, s.J_drop)
    try:
        # a covariance that breaks down is reported by the log's check
        with np.errstate(over="ignore", invalid="ignore"):
            P_all = _orbit(
                P, (np.broadcast_to(A, J.shape), np.broadcast_to(Q, J.shape), J),
                riccati.compose, riccati.apply,
            )
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"prior covariance scan failed ({exc})") from exc
    # with a zero prior error, whose innovation is L_r v, the update
    # returns the part d of the posterior error that the noise makes
    d, _, K, _ = measurement_update(
        model, P_all[:L].reshape(L * N, n, n), 0.0, Lv.reshape(L * N, m, 1),
        gamma.reshape(L * N), s.W_drop, None if y is None else y.reshape(L * N, m, 1),
    )
    e_all = _orbit(
        e,
        ((A @ (np.eye(n) - K @ C)).reshape(L, N, n, n), (A @ d).reshape(L, N, n, 1) + Lw),
        _compose_affine, _apply_affine,
    )
    return gamma, e_all, P_all


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
    block of L steps, and no draw depends on the block length.  Every
    policy sees the same draws.

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
    P_trace = block.P_trace
    steady = P_trace[:, scenario.burn_in :].mean(axis=1)
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
        P_trace_max=float(P_trace.max()),
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
    l = as_number(l, "l", integer=True, lo=1)
    g = np.asarray(record.gamma)
    if g.size == 0:
        raise ValueError("record is empty")

    def windows(value):
        # a maximal run of L equal values holds L - l + 1 windows of length l
        return sum(c * (L - l + 1) for L, c in _run_length_histogram(g, value).items() if L >= l)

    return RunLengthStats(l, max(0, g.size - l + 1), windows(0), windows(1))


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

    def test(thetas):
        gap = rates(thetas) - target_rate
        return gap >= 0.0, gap

    lo, hi = ray_search(test, 1e-12, lo=RAY_FLOOR)
    # below the floor when the rate at the floor already reaches the target
    return _weight(0.5 * (lo + hi), target_rate)


def calibrate_open_loop(steady_stats, target_rate, basis=None):
    """Trigger weight theta * basis whose open-loop rate equals the target.

    Closed form for scalar measurements, ray search otherwise.
    """
    if not 0.0 < target_rate < 1.0:
        raise CalibrationFailed("target rate must lie in (0, 1)")
    m = steady_stats.Pi.shape[0]
    B = ray_basis(basis, m)  # checked once, instead of each theta * B
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
    B = ray_basis(basis, model.m)  # checked once, instead of each theta * B
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
    T = np.float64(as_number(T, "T"))  # its powers overflow to inf, not to OverflowError
    alpha = as_number(alpha, "alpha")
    sigma_m2 = as_number(sigma_m2, "sigma_m2")
    if T <= 0 or alpha <= 0 or sigma_m2 <= 0:
        raise ConfigError("T, alpha and sigma_m2 must be positive")
    if (z_scale is None) == (delta is None):
        raise ConfigError("specify exactly one of z_scale or delta")
    if a13 not in ("paper", "half"):
        raise ConfigError("a13 must be 'paper' or 'half'")
    with np.errstate(over="ignore"):  # an infinite A or Q is refused by validate_model
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


def _write_rows(fh, header, rows):
    """Write a CSV header line and one line per row: floats at ``.12g``,
    every other cell as ``str``."""
    fh.write(header + "\n")
    for row in rows:
        fh.write(",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row) + "\n")


def write_trajectory_csv(record, fh):
    _write_rows(
        fh, "k,gamma,P_trace,mse,P11,mse11",
        zip(range(record.gamma.shape[0]), map(int, record.gamma), record.P_trace, record.sq_err,
            record.P11, record.sq_err11),
    )


def write_monte_carlo_csv(stats, fh):
    _write_rows(
        fh, "k,rate_mean,P_trace_mean,mse_mean,P11_mean,mse11_mean",
        zip(range(stats.steps.shape[0]), stats.rate_mean, stats.P_trace_mean, stats.mse_mean,
            stats.P_mean[:, 0, 0], stats.err_outer_mean[:, 0, 0]),
    )


def write_comparison_csv(rows, fh):
    _write_rows(
        fh, "scheduler,param,empirical_rate,steady_trace",
        ((r.scheduler, r.param, r.empirical_rate, r.steady_trace) for r in rows),
    )


def write_report_csv(rows, fh):
    _write_rows(fh, "quantity,value", rows)
