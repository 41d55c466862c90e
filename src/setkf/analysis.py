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
stability assumption is needed in the closed-loop case; for a stable plant
its X0 and X_upper are solved in one doubling stack with the Lyapunov
solution Sigma (:func:`riccati.ray_fixed_points`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import SetkfError, UnstableSystem
from .estimation import drop_noises
from .matrices import as_matrix, as_number, require_size, require_spd, sym
from .model import SteadyState, stationary, steady_state
from .riccati import fixed_points, ray_fixed_points


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
    """Rate bounds and covariance bounds for the closed-loop trigger, with the
    plant's steady state, None when rho(A) >= 1."""

    gamma_low: float
    gamma_upper: float
    X0: np.ndarray
    X_upper: np.ndarray
    X_lower: np.ndarray
    R3: np.ndarray
    steady: SteadyState | None


def inverse_root_det(M, what="Pi Y"):
    """det(I + M)^(-1/2) for M or each M of a stack, via slogdet for
    robustness at large weights; ``what`` names M in the error raised when
    the determinant is not positive."""
    sign, logdet = np.linalg.slogdet(np.eye(M.shape[-1]) + M)
    if np.any(sign <= 0):
        raise UnstableSystem(f"det(I + {what}) must be positive")
    return np.exp(-0.5 * logdet)


def drop_noise(R, M):
    """Effective measurement noise on a drop, R + M^-1: drop_noises of one M."""
    return drop_noises(R, require_spd(M, "trigger weight", size=len(R))[None])[0]


def open_loop_rates(steady, Y):
    """The open-loop rate for each checked weight of a stack."""
    if steady.rho_A >= 1.0:
        raise UnstableSystem("open-loop rate requires a stable system")
    return 1.0 - inverse_root_det(steady.Pi @ Y)


def open_loop_rate(steady, Y):
    """Long-run open-loop transmission rate 1 - det(I + Pi Y)^(-1/2)."""
    Y = require_spd(Y, "Y", size=steady.Pi.shape[0])
    return float(open_loop_rates(steady, Y[None])[0])


def conditional_rates(model, X, Z):
    """Transmission probability of the closed-loop trigger at each prior
    covariance X of a stack, with weight Z (one, or one per X)."""
    return 1.0 - inverse_root_det(sym(model.C @ X @ model.C.T + model.R) @ Z)


def conditional_rate(model, X, Z):
    """Transmission probability of the closed-loop trigger at prior covariance X."""
    Z = require_spd(Z, "Z", size=model.m)
    X = require_size(as_matrix(X, "X"), "X", model.n)
    return float(conditional_rates(model, X[None], Z)[0])


def upper_rates(model, thetas, B):
    """The closed-loop upper rate bound, the rate at fix(g_{R+Z^-1}), with
    Z = theta B for each theta of a stack and B checked by the caller."""
    Z = thetas[:, None, None] * B
    return conditional_rates(model, fixed_points(model, drop_noises(model.R, Z)), Z)


def rate_weighted_noise(R, W_drop, gamma):
    """Harmonic rate mix (gamma R^-1 + (1-gamma) W_drop^-1)^-1."""
    mix = gamma * np.linalg.inv(R) + (1.0 - gamma) * np.linalg.inv(W_drop)
    return sym(np.linalg.inv(sym(mix)))


def olset_bounds(model, Y):
    """Open-loop rate plus the fixed-point covariance bounds.

    Requires a stable plant.  Returns the ordered triple
    X0 <= X_lower <= X_upper along with the rate and R1.
    """
    Y = require_spd(Y, "Y", size=model.m)
    st = steady_state(model)
    # Y is checked once, here, so the stack forms take it as it is
    gamma = float(open_loop_rates(st, Y[None])[0])
    W_drop = drop_noises(model.R, Y[None])[0]
    R1 = rate_weighted_noise(model.R, W_drop, gamma)
    X0, X_upper, X_lower = fixed_points(model, np.stack([model.R, W_drop, R1]))
    return OpenLoopAnalysis(
        gamma=gamma, X0=X0, X_upper=X_upper, X_lower=X_lower, R1=R1, steady=st
    )


def closed_loop_rate_bounds(model, Z):
    """Closed-loop rate bounds and covariance bounds; no stability needed.

    X0, X_upper and, for a stable plant, Sigma are solved in one stack.  When
    the stack fails, X0 and X_upper, then X_lower, then Sigma are solved
    apart, so that each failure raises in that order; Sigma's residual is
    checked last either way.
    """
    Z = require_spd(Z, "Z", size=model.m)
    W_drop = drop_noises(model.R, Z[None])[0]
    try:
        X0, (X_upper,), Sigma = ray_fixed_points(model, W_drop[None])
    except (SetkfError, ArithmeticError, np.linalg.LinAlgError, RuntimeWarning):
        (X0, X_upper), Sigma = fixed_points(model, np.stack([model.R, W_drop])), None
    gamma_low, gamma_upper = conditional_rates(model, np.stack([X0, X_upper]), Z).tolist()
    R3 = rate_weighted_noise(model.R, W_drop, gamma_upper)
    (X_lower,) = fixed_points(model, R3[None])
    if model.rho_A >= 1.0:
        steady = None
    else:
        steady = steady_state(model) if Sigma is None else stationary(model, Sigma)
    return ClosedLoopAnalysis(
        gamma_low=gamma_low,
        gamma_upper=gamma_upper,
        X0=X0,
        X_upper=X_upper,
        X_lower=X_lower,
        R3=R3,
        steady=steady,
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
    l = as_number(l, "l", integer=True, lo=1)
    Y = require_spd(Y, "Y", size=model.m)
    C, Sigma = model.C, steady.Sigma
    Apow = np.eye(model.n)
    lags = []
    for _ in range(l):
        lags.append(C @ Sigma @ Apow.T @ C.T)
        Apow = Apow @ model.A
    Pi_l = sym(
        np.block([[lags[j - i] if j >= i else lags[i - j].T for j in range(l)] for i in range(l)])
        + np.kron(np.eye(l), model.R)
    )
    return float(inverse_root_det(Pi_l @ np.kron(np.eye(l), Y), "Pi_l Y_l"))


def rate_trace_bounds(Pi, Y):
    """Trace-based sandwich around the open-loop rate.

    Returns (1 - (1 + tr(Pi Y))^(-1/2), 1 - exp(-tr(Pi Y)/2)).  Both
    inequalities are strict for m >= 2; for m = 1 the lower bound equals
    the rate exactly because det(I + Pi Y) = 1 + tr(Pi Y).
    """
    Pi = require_spd(Pi, "Pi")
    Y = require_spd(Y, "Y", size=Pi.shape[0])
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
    if res.steady is not None:
        rows += _matrix_rows("Sigma", res.steady.Sigma)
        rows += _matrix_rows("Pi", res.steady.Pi)
    rows += [("gamma_low", res.gamma_low), ("gamma_upper", res.gamma_upper)]
    rows += _matrix_rows("X0", res.X0)
    rows += _matrix_rows("X_upper_cl", res.X_upper)
    rows += _matrix_rows("X_lower_cl", res.X_lower)
    rows += _matrix_rows("R3", res.R3)
    return rows
