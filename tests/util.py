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
from setkf import riccati
from setkf.estimation import _check_measurement
from setkf.matrices import sym


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


def riccati_iteration(rmap, tol=1e-10, max_iter=100_000):
    """Plain fixed-point iteration X <- g_W(X) from X = Q.

    The reference for ``setkf.riccati.fixed_point``: one Riccati step per
    iteration, stopping when the relative spectral-norm change drops below
    ``tol``.  Returns None when that does not happen within ``max_iter``
    steps or the iterates stop being finite.
    """
    X = rmap.model.Q.copy()
    for _ in range(max_iter):
        nxt = g_step(X, rmap)
        if not np.all(np.isfinite(nxt)):
            return None
        delta = np.linalg.norm(nxt - X, 2)
        X = nxt
        if delta <= tol * np.linalg.norm(X, 2):
            return X
    return None


def doubling_reference(element, tol, max_doublings, label, offset=0.0):
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
            X = offset + C
            if float(np.linalg.norm(step, 2)) <= tol * float(np.linalg.norm(X, 2)):
                return sym(X)
    raise NoConvergence(max_doublings, label)


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
    step, with the draws of randomness contract v1 made one at a time.
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

    x = L0 @ rng.standard_normal(n)
    if scenario.x0_mean is not None:
        x = x + scenario.x0_mean
    for _ in range(scenario.pre_roll):
        x = A @ x + Lq @ rng.standard_normal(n)

    state = initial_state(model, scenario.x0_mean)
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
        zeta = rng.random()
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

        if scenario.filter == "olset":
            state = _olset_measurement_update(
                state, gamma, y if gamma else None, model, pol.Y, Y_inv=Y_inv
            )
        elif scenario.filter == "clset":
            z = (y - y_pred) if gamma else None
            state = _clset_measurement_update(state, gamma, z, model, pol.Z, Z_inv=Z_inv)
        elif scenario.filter == "standard":
            state = _standard_kf_update(state, y, model)
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
