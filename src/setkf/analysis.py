"""Closed-form communication rates and asymptotic covariance bounds.

For a stable plant under the open-loop stochastic trigger with weight Y the
long-run transmission rate is

    gamma = 1 - det(I + Pi Y)^(-1/2)

with Pi the stationary measurement covariance.  The prediction covariance
oscillates between the always-transmit fixed point X0 = fix(g_R) and the
never-transmit fixed point X_upper = fix(g_{R+Y^-1}); its expectation is
bounded below by fix(g_{R1}) with the rate-weighted harmonic mean

    R1 = (gamma R^-1 + (1 - gamma) (R + Y^-1)^-1)^-1.

The closed-loop trigger admits the analogous fixed points with Z in place
of Y, rate bounds obtained by evaluating the conditional-rate formula at X0
and X_upper, and a lower bound through R3 built from the upper rate.  No
stability assumption is needed in the closed-loop case.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnstableSystem
from .matrices import require_spd, sym
from .model import SteadyState, steady_state
from .riccati import fixed_points


@dataclass(frozen=True, eq=False)
class OpenLoopAnalysis:
    """Rate and covariance bounds for the open-loop stochastic trigger, with
    the plant's steady state they were computed from."""

    gamma: float
    X0: np.ndarray
    X_upper: np.ndarray
    X_lower: np.ndarray
    R1: np.ndarray
    steady: SteadyState


@dataclass(frozen=True, eq=False)
class ClosedLoopAnalysis:
    """Rate bounds and covariance bounds for the closed-loop trigger."""

    gamma_low: float
    gamma_upper: float
    X0: np.ndarray
    X_upper: np.ndarray
    X_lower: np.ndarray
    R3: np.ndarray


def _det_rates(M):
    # 1 - det(I + M)^(-1/2) for each M of a stack, via slogdet for robustness
    # at large weights
    sign, logdet = np.linalg.slogdet(np.eye(M.shape[-1]) + M)
    if np.any(sign <= 0):
        raise UnstableSystem("det(I + Pi Y) must be positive")
    return 1.0 - np.exp(-0.5 * logdet)


def drop_noise(R, M):
    """Effective measurement noise on a drop: R + M^-1."""
    return ray_drop_noise(R, np.ones(1), require_spd(M, "trigger weight"))[0]


def ray_drop_noise(R, thetas, B):
    """drop_noise(R, theta * B) for each theta of a stack, B checked once by
    the caller instead of each theta * B."""
    return sym(R + np.linalg.inv(sym(thetas[:, None, None] * B)))


def open_loop_rates(steady, Y):
    """The open-loop rate for each checked weight of a stack."""
    if steady.rho_A >= 1.0:
        raise UnstableSystem("open-loop rate requires a stable system")
    return _det_rates(steady.Pi @ Y)


def open_loop_rate(steady, Y):
    """Long-run open-loop transmission rate 1 - det(I + Pi Y)^(-1/2)."""
    return float(open_loop_rates(steady, require_spd(Y, "Y")[None])[0])


def conditional_rates(model, X, Z):
    """Transmission probability of the closed-loop trigger at each prior
    covariance X of a stack, with weight Z (one, or one per X)."""
    return _det_rates(sym(model.C @ X @ model.C.T + model.R) @ Z)


def conditional_rate(model, X, Z):
    """Transmission probability of the closed-loop trigger at prior covariance X."""
    return float(conditional_rates(model, X[None], Z)[0])


def upper_rates(model, thetas, B):
    """The closed-loop upper rate bound, the rate at fix(g_{R+Z^-1}), with
    Z = theta B for each theta of a stack and B checked by the caller."""
    X = fixed_points(model, ray_drop_noise(model.R, thetas, B))
    return conditional_rates(model, X, thetas[:, None, None] * B)


def rate_weighted_noise(R, W_drop, gamma):
    """Harmonic rate mix (gamma R^-1 + (1-gamma) W_drop^-1)^-1."""
    mix = gamma * np.linalg.inv(R) + (1.0 - gamma) * np.linalg.inv(W_drop)
    return sym(np.linalg.inv(sym(mix)))


def olset_bounds(model, Y):
    """Open-loop rate plus the fixed-point covariance bounds.

    Requires a stable plant.  Returns the ordered triple
    X0 <= X_lower <= X_upper along with the rate and R1.
    """
    Y = require_spd(Y, "Y")
    st = steady_state(model)
    # Y is checked once, here, so the stack forms take it as it is
    gamma = float(open_loop_rates(st, Y[None])[0])
    W_drop = ray_drop_noise(model.R, np.ones(1), Y)[0]
    R1 = rate_weighted_noise(model.R, W_drop, gamma)
    X0, X_upper, X_lower = fixed_points(model, np.stack([model.R, W_drop, R1]))
    return OpenLoopAnalysis(
        gamma=gamma, X0=X0, X_upper=X_upper, X_lower=X_lower, R1=R1, steady=st
    )


def closed_loop_rate_bounds(model, Z):
    """Closed-loop rate bounds and covariance bounds; no stability needed."""
    Z = require_spd(Z, "Z")
    W_drop = ray_drop_noise(model.R, np.ones(1), Z)[0]
    X = fixed_points(model, np.stack([model.R, W_drop]))
    gamma_low, gamma_upper = conditional_rates(model, X, Z).tolist()
    R3 = rate_weighted_noise(model.R, W_drop, gamma_upper)
    (X_lower,) = fixed_points(model, R3[None])
    return ClosedLoopAnalysis(
        gamma_low=gamma_low,
        gamma_upper=gamma_upper,
        X0=X[0],
        X_upper=X[1],
        X_lower=X_lower,
        R3=R3,
    )


def sequential_drop_probability(steady, model, Y, l):
    """Probability of l consecutive idle steps in steady state.

    Equals det(I + Pi_l Y_l)^(-1/2) where Pi_l is the covariance of the
    stacked window (y_0, ..., y_{l-1}) and Y_l = blockdiag(Y, ..., Y).
    The stacked covariance uses the stationary completion
    Cov(y_i, y_j) = C Sigma (A^{j-i})' C' for j > i, plus R on the diagonal.
    """
    if steady.rho_A >= 1.0:
        raise UnstableSystem("sequential drop probability requires a stable system")
    if l < 1:
        raise ValueError("l must be a positive integer")
    Y = require_spd(Y, "Y")
    C, Sigma, R = model.C, steady.Sigma, model.R
    m = model.m
    blocks = [[None] * l for _ in range(l)]
    Apow = np.eye(model.n)
    lags = []
    for _ in range(l):
        lags.append(C @ Sigma @ Apow.T @ C.T)
        Apow = Apow @ model.A
    for i in range(l):
        for j in range(i, l):
            B = lags[j - i].copy()
            if i == j:
                B = B + R
            blocks[i][j] = B
            blocks[j][i] = B.T
    Pi_l = sym(np.block(blocks))
    Y_l = np.kron(np.eye(l), Y)
    sign, logdet = np.linalg.slogdet(np.eye(m * l) + Pi_l @ Y_l)
    if sign <= 0:
        raise UnstableSystem("det(I + Pi_l Y_l) must be positive")
    return float(np.exp(-0.5 * logdet))


def rate_trace_bounds(Pi, Y):
    """Trace-based sandwich around the open-loop rate.

    Returns (1 - (1 + tr(Pi Y))^(-1/2), 1 - exp(-tr(Pi Y)/2)).  Both
    inequalities are strict for m >= 2; for m = 1 the lower bound equals
    the rate exactly because det(I + Pi Y) = 1 + tr(Pi Y).
    """
    Pi = require_spd(Pi, "Pi")
    Y = require_spd(Y, "Y")
    t = float(np.trace(Pi @ Y))
    lower = 1.0 - (1.0 + t) ** -0.5
    upper = 1.0 - float(np.exp(-0.5 * t))
    return lower, upper


def _matrix_rows(name, M):
    M = np.atleast_2d(M)
    return [
        (f"{name}[{i}][{j}]", float(M[i, j]))
        for i in range(M.shape[0])
        for j in range(M.shape[1])
    ]


def open_loop_report(model, Y):
    """Flat (quantity, value) rows for the open-loop analysis."""
    res = olset_bounds(model, Y)
    st = res.steady
    lower, upper = rate_trace_bounds(st.Pi, np.atleast_2d(np.asarray(Y, dtype=float)))
    rows = [("rho_A", model.rho_A)]
    rows += _matrix_rows("Sigma", st.Sigma)
    rows += _matrix_rows("Pi", st.Pi)
    rows += [("gamma", res.gamma), ("rate_trace_lower", lower), ("rate_trace_upper", upper)]
    rows += _matrix_rows("X0", res.X0)
    rows += _matrix_rows("X_upper_ol", res.X_upper)
    rows += _matrix_rows("X_lower_ol", res.X_lower)
    rows += _matrix_rows("R1", res.R1)
    return rows


def closed_loop_report(model, Z):
    """Flat (quantity, value) rows for the closed-loop analysis."""
    res = closed_loop_rate_bounds(model, Z)
    rows = [("rho_A", model.rho_A)]
    if model.rho_A < 1.0:
        st = steady_state(model)
        rows += _matrix_rows("Sigma", st.Sigma)
        rows += _matrix_rows("Pi", st.Pi)
    rows += [("gamma_low", res.gamma_low), ("gamma_upper", res.gamma_upper)]
    rows += _matrix_rows("X0", res.X0)
    rows += _matrix_rows("X_upper_cl", res.X_upper)
    rows += _matrix_rows("X_lower_cl", res.X_lower)
    rows += _matrix_rows("R3", res.R3)
    return rows
