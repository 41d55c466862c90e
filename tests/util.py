"""Shared helpers for randomized property tests."""

import math

import numpy as np

from setkf import (
    ConfigError,
    FilterState,
    InconsistentArgs,
    MissingMeasurement,
    ModelValidationError,
    NoConvergence,
    SingularInnovation,
    TrajectoryRecord,
    g_step,
    initial_state,
    offline_drop_update,
    time_update,
    validate_model,
)
from setkf import analysis, design, riccati
from setkf.analysis import conditional_rate, drop_noise, open_loop_rate
from setkf.design import (
    RAY_CAP,
    RAY_FLOOR,
    RAY_MAX_BISECTIONS,
    RAY_REL_TOL,
    DesignResult,
    optimality_gap_bound,
)
from setkf.errors import CalibrationFailed, Infeasible, UnstableSystem
from setkf.estimation import _check_measurement
from setkf.matrices import smallest_eigenvalue, sym
from setkf.riccati import compose
from setkf.model import steady_state


def random_spd(rng, n, scale=1.0, ridge=0.2):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + ridge * np.eye(n))


def random_stable_model(rng, n_max=4, m_max=4, rho_max=0.95):
    """Random detectable/stabilizable model with spectral radius < rho_max."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        A = rng.normal(size=(n, n))
        rho = max(abs(np.linalg.eigvals(A)))
        A *= rng.uniform(0.3, 1.0) * rho_max / rho
        C = rng.normal(size=(m, n))
        try:
            return validate_model(
                A, C, random_spd(rng, n), random_spd(rng, m), random_spd(rng, n)
            )
        except ModelValidationError:
            continue


def loewner_leq(X, Y, tol=1e-10):
    """X <= Y in the Loewner order, up to ``tol`` on the smallest eigenvalue."""
    diff = 0.5 * (Y - X + (Y - X).T)
    return float(np.linalg.eigvalsh(diff)[0]) >= -tol


def scalar_g_fixed_point(a, c, q, w):
    """Positive root of the scalar Riccati fixed-point quadratic.

    c^2 X^2 + (w - a^2 w - q c^2) X - q w = 0, independent of the iterative
    solver path.
    """
    b = a * a * w + q * c * c - w
    disc = b * b + 4.0 * c * c * q * w
    return (b + np.sqrt(disc)) / (2.0 * c * c)


def dare_fixed_point(A, C, Q, W):
    """Stabilizing solution of the filter DARE X = g_W(X), without iteration.

    g_W(X) = A X A' + Q - A X C' (C X C' + W)^-1 C X A'.  With G = C' W^-1 C
    the symplectic matrix

        Z = [[A' + G A^-1 Q, -G A^-1], [-A^-1 Q, A^-1]]

    has its eigenvalues in pairs (lambda, 1/lambda); the n inside the unit
    circle span [U1; U2], and X = U2 U1^-1.  Needs an invertible A.  Uses
    numpy's eigensolver only, so it is independent of the iterative solver
    path in ``setkf.riccati.fixed_point``.
    """
    A, C, Q, W = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, C, Q, W))
    n = A.shape[0]
    A_inv = np.linalg.inv(A)
    G = C.T @ np.linalg.solve(W, C)
    Z = np.block([[A.T + G @ A_inv @ Q, -G @ A_inv], [-A_inv @ Q, A_inv]])
    vals, vecs = np.linalg.eig(Z)
    stable = np.abs(vals) < 1.0
    if stable.sum() != n:
        raise ValueError(f"expected {n} stable eigenvalues, got {int(stable.sum())}")
    U = vecs[:, stable]
    X = np.real(np.linalg.solve(U[:n].T, U[n:].T).T)
    return 0.5 * (X + X.T)


def lyapunov_iteration(F, Q, tol=1e-12, max_iter=100_000):
    """Plain fixed-point iteration X <- F X F' + Q from X = Q.

    The reference for ``setkf.riccati.lyapunov``: one term of the series per
    step, stopping when the relative spectral-norm change drops below
    ``tol``.  Returns None when that does not happen within ``max_iter``
    steps.
    """
    F, Q = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (F, Q))
    X = Q.copy()
    for _ in range(max_iter):
        nxt = F @ X @ F.T + Q
        nxt = 0.5 * (nxt + nxt.T)
        delta = np.linalg.norm(nxt - X, 2)
        X = nxt
        if delta <= tol * np.linalg.norm(X, 2):
            return X
    return None


def riccati_iteration(rmap, tol=1e-10, max_iter=100_000, start=None):
    """Plain fixed-point iteration X <- g_W(X) from X = ``start``, by
    default Q.

    The reference for ``setkf.riccati.fixed_point``: one Riccati step per
    iteration, stopping when the relative spectral-norm change drops below
    ``tol``.  Returns None when that does not happen within ``max_iter``
    steps or the iterates stop being finite.
    """
    X = rmap.model.Q.copy() if start is None else start
    for _ in range(max_iter):
        nxt = g_step(X, rmap)
        if not np.all(np.isfinite(nxt)):
            return None
        delta = np.linalg.norm(nxt - X, 2)
        X = nxt
        if delta <= tol * np.linalg.norm(X, 2):
            return X
    return None


def doubling_reference(element, tol, max_doublings, label):
    """``setkf.riccati._doubling`` with its former stop test: two separate
    ``np.linalg.norm(., 2)`` calls.  Composes through ``riccati.compose`` as
    looked up at call time, so a test can count the compositions."""
    C = element[1]
    with np.errstate(all="ignore"):
        for k in range(max_doublings):
            try:
                element = riccati.compose(element, element)
            except np.linalg.LinAlgError:
                raise NoConvergence(k + 1, f"{label} (singular step)") from None
            step, C = element[1] - C, element[1]
            if not np.all(np.isfinite(C)):
                raise NoConvergence(k + 1, f"{label} (diverged)")
            if float(np.linalg.norm(step, 2)) <= tol * float(np.linalg.norm(C, 2)):
                return sym(C)
    raise NoConvergence(max_doublings, label)


# ``setkf.riccati._doubling`` on one element and ``setkf.design.ray_search``
# testing one point at a time, as they were before both took stacks; kept
# verbatim as the oracles of the stacked forms.


def doubling_single(element, tol, max_doublings, label):
    """C of the element (A, C, J) squared until C, its image of 0, changes
    by at most ``tol`` relative to C.  Raises NoConvergence
    on a singular step, on a C that is not finite, or after ``max_doublings``.
    """
    C = element[1]
    with np.errstate(all="ignore"):
        for k in range(max_doublings):
            try:
                element = compose(element, element)
            except np.linalg.LinAlgError:
                raise NoConvergence(k + 1, f"{label} (singular step)") from None
            step, C = element[1] - C, element[1]
            if not np.all(np.isfinite(C)):
                raise NoConvergence(k + 1, f"{label} (diverged)")
            # both spectral norms from one SVD call on the stacked pair
            step_norm, x_norm = np.linalg.svd(np.stack([step, C]), compute_uv=False)[:, 0]
            if step_norm <= tol * x_norm:
                return sym(C)
    raise NoConvergence(max_doublings, label)


# log10 ranges of the magnitudes of random 1 x 1 stacks: across the whole
# range, where products overflow and underflow; near 1; and above 8.99e307,
# where sym's x + x overflows to inf
SCALAR_EXPONENTS = {"wide": (-300.0, 300.0), "moderate": (-3.0, 3.0), "huge": (307.954, 308.25)}


def scalar_stack(rng, shape, exponents, signed=False):
    """A stack of 1 x 1 values of log-uniform magnitude in 10^exponents."""
    x = 10.0 ** rng.uniform(*exponents, size=tuple(shape) + (1, 1))
    return x * rng.choice([-1.0, 1.0], size=x.shape) if signed else x


# ``setkf.riccati.compose`` and ``apply`` and the scan's affine maps
# (``setkf.harness._compose_affine`` and ``_apply_affine``) as matrix
# products for every n, as they were before n = 1 took elementwise branches;
# kept as the oracles of those branches.


def _solve_reference(M, B):
    return B / M if M.shape[-1] == 1 else np.linalg.solve(M, B)


def compose_reference(first, second):
    A1, C1, J1 = first
    A2, C2, J2 = second
    n = A1.shape[-1]
    X = _solve_reference(np.eye(n) + C1 @ J2, np.concatenate([A1, C1], axis=-1))
    XA, XC = X[..., :n], X[..., n:]
    return (
        A2 @ XA,
        sym(A2 @ XC @ A2.swapaxes(-1, -2) + C2),
        sym(XA.swapaxes(-1, -2) @ J2 @ A1 + J1),
    )


def apply_reference(maps, P):
    A, C, J = maps
    X = _solve_reference(np.eye(P.shape[-1]) + P @ J, P)
    return sym(A @ X @ A.swapaxes(-1, -2) + C)


def compose_affine_reference(first, second):
    F1, b1 = first
    F2, b2 = second
    return F2 @ F1, F2 @ b1 + b2


def apply_affine_reference(maps, x):
    F, b = maps
    return F @ x + b


def ray_search_reference(pred, rel_tol, lo=None):
    """Bracket and bisect the point where a monotone test flips on the ray.

    ``pred(theta)`` must be False below its boundary and True above it; it
    is called only on theta in [RAY_FLOOR, RAY_CAP].  The floor is tested
    first.  The upper end then starts at 1 and doubles while ``pred`` fails.
    The lower end starts at ``lo``, by default one halving below the upper
    end; when ``pred(1)`` holds it halves while ``pred`` still holds, taking
    the upper end along, and stops at the floor.  Bisection then halves the
    bracket until ``hi - lo <= rel_tol * hi``, at most RAY_MAX_BISECTIONS
    times.  Returns the bracket ``(lo, hi)``: ``(0, RAY_FLOOR)`` when
    ``pred`` holds at the floor, and ``hi`` is inf when it fails at RAY_CAP.
    Each caller keeps its own end of the bracket.
    """
    if pred(RAY_FLOOR):
        return 0.0, RAY_FLOOR
    hi = 1.0
    while not pred(hi):
        hi *= 2.0
        if hi > RAY_CAP:
            return hi / 2.0, math.inf
    if lo is None:
        lo = hi / 2.0
    if hi == 1.0:  # after a doubling pred failed at hi / 2, so at every lo <= hi / 2
        while lo > RAY_FLOOR and pred(lo):
            hi, lo = lo, lo / 2.0
    lo = max(lo, RAY_FLOOR)
    for _ in range(RAY_MAX_BISECTIONS):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def assemble_lmi_blocks_reference(model, Y, S, Delta0):
    """``setkf.design.assemble_lmi_blocks`` written with ``np.block``."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n, m = model.n, model.m
    Qi = sym(np.linalg.inv(Q))
    Ri = sym(np.linalg.inv(R))
    M1 = np.block(
        [
            [Qi - S + C.T @ Ri @ C, Qi @ A, C.T @ Ri],
            [A.T @ Qi, A.T @ Qi @ A + S, np.zeros((n, m))],
            [Ri @ C, np.zeros((m, n)), Y + Ri],
        ]
    )
    M2 = np.block([[S, np.eye(n)], [np.eye(n), Delta0]])
    return sym(M1), sym(M2)


# The two ray bisections that ``setkf.design.ray_search`` replaced, kept
# verbatim as its oracle, with the searches and calibrations built on them.
# Every fixed point goes through ``design.fixed_point`` and every open-loop
# rate through ``analysis.open_loop_rate``, one point at a time.


def _ray_boundary(feasible, theta_max_cap=1e15):
    """Bisect the monotone feasibility boundary along the ray.

    ``feasible(theta)`` must be False below and True above the boundary.
    Returns the feasible-side boundary estimate to RAY_REL_TOL.
    """
    theta_min = 1e-12
    if feasible(theta_min):
        return theta_min
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > theta_max_cap:
            raise Infeasible("no feasible trigger weight found on the ray")
    lo = hi / 2.0
    while lo > theta_min and feasible(lo):
        hi = lo
        lo /= 2.0
    lo = max(lo, theta_min)
    while (hi - lo) > RAY_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _bisect_rate(fn, target, lo=1e-12, hi_start=1.0, cap=1e15, rel_tol=1e-12):
    """Find theta with fn(theta) = target for an increasing rate function."""
    hi = hi_start
    while fn(hi) < target:
        hi *= 2.0
        if hi > cap:
            raise CalibrationFailed(f"target rate {target} unreachable")
    while fn(lo) > target:
        lo /= 2.0
        if lo < 1e-300:
            raise CalibrationFailed(f"target rate {target} unreachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def _reference_design(problem, theta, rate):
    model = problem.model
    B = np.eye(model.m) if problem.basis is None else problem.basis
    Y = sym(theta * B)
    if model.rho_A < 1.0:
        st = steady_state(model)
        objective, kappa = float(np.trace(st.Pi @ Y)), optimality_gap_bound(st.Pi, Y)
    else:
        objective = kappa = None
    return DesignResult(
        Y=Y, theta=theta, objective=objective, gamma_achieved=rate(Y), kappa_bound=kappa
    )


def _check_floor(model, Delta0):
    """The always-transmit fixed point X0, solved alone, must lie below Delta0."""
    X0 = design.fixed_point(riccati.RiccatiMap(model, model.R))
    if smallest_eigenvalue(Delta0 - X0) <= design._strictness(Delta0):
        raise Infeasible(
            "Delta0 must exceed the always-transmit fixed point; no trigger weight can satisfy it"
        )


def design_search_reference(problem):
    """The open-loop design search on ``_ray_boundary``."""
    model, Delta0 = problem.model, problem.Delta0
    if model.rho_A >= 1.0:
        raise UnstableSystem("open-loop design requires a stable system")
    _check_floor(model, Delta0)
    B = np.eye(model.m) if problem.basis is None else problem.basis
    theta = _ray_boundary(lambda t: design.feasibility_check(model, t * B, Delta0))
    return _reference_design(problem, theta, lambda Y: open_loop_rate(steady_state(model), Y))


def _worst_case_reference(model, Y):
    return design.fixed_point(riccati.RiccatiMap(model, drop_noise(model.R, Y)))


def design_search_closed_loop_reference(problem):
    """The closed-loop design search on ``_ray_boundary``."""
    model, Delta0 = problem.model, problem.Delta0
    _check_floor(model, Delta0)
    B = np.eye(model.m) if problem.basis is None else problem.basis
    margin = design._strictness(Delta0)

    def feas(theta):
        return smallest_eigenvalue(Delta0 - _worst_case_reference(model, theta * B)) > margin

    theta = _ray_boundary(feas)
    return _reference_design(
        problem, theta, lambda Z: conditional_rate(model, _worst_case_reference(model, Z), Z)
    )


def calibrate_open_loop_reference(steady_stats, target_rate, basis=None):
    """The open-loop calibration on ``_bisect_rate``."""
    m = steady_stats.Pi.shape[0]
    B = np.eye(m) if basis is None else np.asarray(basis, dtype=float)
    if m == 1:
        pi_b = float(steady_stats.Pi[0, 0] * B[0, 0])
        return ((1.0 / (1.0 - target_rate)) ** 2 - 1.0) / pi_b
    return _bisect_rate(lambda t: open_loop_rate(steady_stats, t * B), target_rate)


def calibrate_closed_loop_reference(model, target_rate, basis=None):
    """The closed-loop calibration on ``_bisect_rate``."""
    B = np.eye(model.m) if basis is None else np.asarray(basis, dtype=float)

    def upper_rate(theta):
        Z = theta * B
        X_upper = design.fixed_point(riccati.RiccatiMap(model, drop_noise(model.R, Z)))
        return conditional_rate(model, X_upper, Z)

    return _bisect_rate(upper_rate, target_rate)


# ``setkf.analysis.closed_loop_report`` as it was before X0, X_upper and
# Sigma shared one doubling stack: the stack of X0 and X_upper, then X_lower,
# then the steady state, each solved apart; kept verbatim as its oracle.


def closed_loop_report_reference(model, Z):
    """The closed-loop analysis rows from three separate doubling calls."""
    Z = analysis.require_spd(Z, "Z", size=model.m)
    W_drop = analysis.drop_noises(model.R, Z[None])[0]
    X = riccati.fixed_points(model, np.stack([model.R, W_drop]))
    gamma_low, gamma_upper = analysis.conditional_rates(model, X, Z).tolist()
    R3 = analysis.rate_weighted_noise(model.R, W_drop, gamma_upper)
    (X_lower,) = riccati.fixed_points(model, R3[None])
    rows = [("rho_A", model.rho_A)]
    if model.rho_A < 1.0:
        st = steady_state(model)
        rows += analysis._matrix_rows("Sigma", st.Sigma)
        rows += analysis._matrix_rows("Pi", st.Pi)
    rows += [("gamma_low", gamma_low), ("gamma_upper", gamma_upper)]
    rows += analysis._matrix_rows("X0", X[0])
    rows += analysis._matrix_rows("X_upper_cl", X[1])
    rows += analysis._matrix_rows("X_lower_cl", X_lower)
    rows += analysis._matrix_rows("R3", R3)
    return rows


def maximal_runs(gamma, value):
    """Lengths of the maximal runs of ``value`` in a 0/1 sequence, in order.

    The reference for ``setkf.harness._run_length_histogram``: one Python
    step per entry.
    """
    lengths = []
    count = 0
    for g in gamma:
        if g == value:
            count += 1
        elif count:
            lengths.append(count)
            count = 0
    if count:
        lengths.append(count)
    return lengths


# The trigger rule and the measurement updates written out for one run and
# one step, independently of the run-batched pair in setkf.estimation: the
# oracle of ``simulate_reference`` and of the tests of
# ``setkf.estimation.transmit`` and ``setkf.estimation.measurement_update``.


def _trigger_decide(policy, y, y_pred, zeta, k):
    """Per-step transmission decision.  Returns 1 to send, 0 to stay idle.

    ``y_pred`` is the predicted measurement C xhat_prior; it is only
    consulted by the closed-loop and deterministic-threshold variants.
    """
    if not 0.0 <= zeta <= 1.0:
        raise InconsistentArgs(f"zeta must lie in [0, 1], got {zeta}")
    variant = policy.variant
    if variant == "open_loop":
        y = np.asarray(y, dtype=float).ravel()
        phi = math.exp(-0.5 * float(y @ policy.Y @ y))
        return int(zeta > phi)
    if variant == "closed_loop":
        z = np.asarray(y, dtype=float).ravel() - np.asarray(y_pred, dtype=float).ravel()
        phi = math.exp(-0.5 * float(z @ policy.Z @ z))
        return int(zeta > phi)
    if variant == "periodic":
        return int((k - policy.phase) % policy.period == 0)
    if variant == "random":
        return int(zeta > 1.0 - policy.p)
    z = np.asarray(y, dtype=float).ravel() - np.asarray(y_pred, dtype=float).ravel()
    return int(float(np.abs(z).max()) > policy.delta)


def _gain(P_prior, C, noise):
    CP = C @ P_prior
    M = CP @ C.T + noise
    if M.shape[0] == 1:
        denom = M[0, 0]
        if denom <= 0.0 or not np.isfinite(denom):
            raise SingularInnovation("innovation covariance is singular")
        return CP.T / denom
    try:
        return np.linalg.solve(sym(M), CP).T
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(f"innovation covariance is singular: {exc}") from exc


def _olset_measurement_update(state, gamma, y, model, Y, Y_inv=None):
    """Open-loop event-triggered measurement update.

    With gamma=1 this is the standard Kalman update.  With gamma=0 the gain
    uses the inflated noise R + Y^-1 and the posterior mean is the scaled
    prior (I - K C) xhat_prior.  ``Y_inv`` may carry a precomputed inverse.
    """
    _check_measurement(gamma, y, "y")
    C = model.C
    if gamma == 1:
        noise = model.R
    else:
        noise = model.R + (np.linalg.inv(Y) if Y_inv is None else Y_inv)
    K = _gain(state.P_prior, C, noise)
    P = sym(state.P_prior - K @ (C @ state.P_prior))
    if gamma == 1:
        x = state.x_prior + K @ (np.asarray(y, dtype=float).ravel() - C @ state.x_prior)
    else:
        x = state.x_prior - K @ (C @ state.x_prior)
    return FilterState(state.x_prior, state.P_prior, x, P, K, state.k)


def _clset_measurement_update(state, gamma, z, model, Z, Z_inv=None):
    """Closed-loop event-triggered measurement update.

    With gamma=1 the innovation z = y - C xhat_prior is applied through the
    standard gain; with gamma=0 the posterior mean equals the prior while
    the covariance still contracts through the inflated-noise gain.
    """
    _check_measurement(gamma, z, "z")
    C = model.C
    if gamma == 1:
        noise = model.R
    else:
        noise = model.R + (np.linalg.inv(Z) if Z_inv is None else Z_inv)
    K = _gain(state.P_prior, C, noise)
    P = sym(state.P_prior - K @ (C @ state.P_prior))
    if gamma == 1:
        x = state.x_prior + K @ np.asarray(z, dtype=float).ravel()
    else:
        x = state.x_prior
    return FilterState(state.x_prior, state.P_prior, x, P, K, state.k)


def _standard_kf_update(state, y, model):
    """Textbook Kalman measurement update; the gamma=1 oracle."""
    if y is None:
        raise MissingMeasurement("standard update needs a measurement")
    C = model.C
    K = _gain(state.P_prior, C, model.R)
    P = sym(state.P_prior - K @ (C @ state.P_prior))
    x = state.x_prior + K @ (np.asarray(y, dtype=float).ravel() - C @ state.x_prior)
    return FilterState(state.x_prior, state.P_prior, x, P, K, state.k)


def simulate_reference(scenario, run_index=0, force_gamma=None, record_full=False):
    """One trajectory, one run and one step at a time.

    The reference for the run-batched kernel behind ``setkf.simulate`` and
    ``setkf.monte_carlo``: it calls the single-step oracle functions above
    (``_trigger_decide`` and the three measurement updates) together with
    ``offline_drop_update`` and ``time_update`` on a ``FilterState`` per
    step, with the draws of randomness contract v2: the horizon's uniforms
    first, then the normals one at a time in step order.
    """
    model = scenario.model
    pol = scenario.trigger
    T = scenario.horizon
    n, m = model.n, model.m
    A, C = model.A, model.C
    rng = np.random.default_rng([int(scenario.seed), int(run_index)])
    Lq = np.linalg.cholesky(model.Q)
    Lr = np.linalg.cholesky(model.R)
    L0 = np.linalg.cholesky(model.Sigma0)

    if force_gamma is not None:
        force_gamma = np.asarray(force_gamma).ravel()
        if force_gamma.shape[0] < T:
            raise ConfigError("force_gamma must cover the horizon")

    zetas = rng.random(T)
    x = L0 @ rng.standard_normal(n)
    if scenario.x0_mean is not None:
        x = x + scenario.x0_mean
    # the pre-roll is a prediction: the filter predicts through it
    state = initial_state(model, scenario.x0_mean)
    for _ in range(scenario.pre_roll):
        x = A @ x + Lq @ rng.standard_normal(n)
        state = time_update(offline_drop_update(state), model)
    Y_inv = np.linalg.inv(pol.Y) if pol.variant == "open_loop" else None
    Z_inv = np.linalg.inv(pol.Z) if pol.variant == "closed_loop" else None

    gamma_log = np.zeros(T, dtype=np.int8)
    P_trace = np.zeros(T)
    sq_err = np.zeros(T)
    P11 = np.zeros(T)
    sq_err11 = np.zeros(T)
    P_full = np.zeros((T, n, n)) if record_full else None
    err_outer = np.zeros((T, n, n)) if record_full else None

    for k in range(T):
        if k > 0:
            x = A @ x + Lq @ rng.standard_normal(n)
        y = C @ x + Lr @ rng.standard_normal(m)
        zeta = zetas[k]
        y_pred = C @ state.x_prior
        if force_gamma is not None:
            gamma = int(force_gamma[k])
        else:
            gamma = _trigger_decide(pol, y, y_pred, zeta, k)

        e = x - state.x_prior
        gamma_log[k] = gamma
        P_trace[k] = state.P_prior.trace()
        sq_err[k] = e @ e
        P11[k] = state.P_prior[0, 0]
        sq_err11[k] = e[0] * e[0]
        if record_full:
            P_full[k] = state.P_prior
            err_outer[k] = e[:, None] * e[None, :]

        if pol.variant == "open_loop":
            state = _olset_measurement_update(
                state, gamma, y if gamma else None, model, pol.Y, Y_inv=Y_inv
            )
        elif pol.variant == "closed_loop":
            z = (y - y_pred) if gamma else None
            state = _clset_measurement_update(state, gamma, z, model, pol.Z, Z_inv=Z_inv)
        else:
            if gamma:
                state = _standard_kf_update(state, y, model)
            else:
                state = offline_drop_update(state)
        state = time_update(state, model)

    tail = slice(scenario.burn_in, T)
    return TrajectoryRecord(
        gamma=gamma_log,
        P_trace=P_trace,
        sq_err=sq_err,
        P11=P11,
        sq_err11=sq_err11,
        empirical_rate=float(gamma_log.mean()),
        mean_P_trace=float(P_trace[tail].mean()),
        P_trace_max=float(P_trace.max()),
        burn_in=scenario.burn_in,
        P_prior_full=P_full,
        err_outer=err_outer,
    )
