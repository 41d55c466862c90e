"""Trigger policies and the event-triggered MMSE filter recursions.

A sensor observes y[k] and decides per step whether to transmit.  The
stochastic policies compare a uniform draw zeta[k] against an acceptance
function of the measurement (open loop) or of the innovation (closed loop):

    open loop:    send iff zeta > exp(-y' Y y / 2)
    closed loop:  send iff zeta > exp(-z' Z z / 2),  z = y - C xhat_prior

Under either stochastic policy the remote estimator stays exactly Gaussian
and admits closed-form recursions: the measurement update uses the standard
Kalman gain with noise covariance R when a packet arrives and the inflated
covariance R + Y^-1 (resp. R + Z^-1) when it does not.  On a drop the
open-loop posterior mean is the scaled prior (I - K C) xhat_prior while the
closed-loop posterior mean is the prior itself.

Offline baselines (periodic, random, deterministic threshold) perform a
pure-prediction update on drops.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InconsistentArgs,
    MissingMeasurement,
    SingularInnovation,
)
from .matrices import as_matrix, as_number, require_spd, sym

TRIGGER_VARIANTS = (
    "open_loop",
    "closed_loop",
    "periodic",
    "random",
    "deterministic_threshold",
)


@dataclass(frozen=True, eq=False)
class TriggerPolicy:
    """Tagged union over the transmission policies.

    Use the classmethod constructors; only the fields of the selected
    variant are populated.
    """

    variant: str
    Y: np.ndarray | None = None
    Z: np.ndarray | None = None
    period: int | None = None
    phase: int = 0
    p: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.variant not in TRIGGER_VARIANTS:
            raise ConfigError(f"unknown trigger variant {self.variant!r}")
        if self.variant == "open_loop":
            object.__setattr__(self, "Y", require_spd(self.Y, "Y"))
        elif self.variant == "closed_loop":
            object.__setattr__(self, "Z", require_spd(self.Z, "Z"))
        elif self.variant == "periodic":
            period = as_number(self.period, "period", integer=True)
            if period < 1:
                raise ConfigError("periodic trigger needs period >= 1")
            object.__setattr__(self, "period", period)
            object.__setattr__(self, "phase", as_number(self.phase, "phase", integer=True))
        elif self.variant == "random":
            p = as_number(self.p, "p")
            if not 0.0 <= p <= 1.0:
                raise ConfigError("random trigger needs probability p in [0, 1]")
            object.__setattr__(self, "p", p)
        else:
            delta = as_number(self.delta, "delta")
            if not delta > 0.0:
                raise ConfigError("deterministic threshold needs a finite delta > 0")
            object.__setattr__(self, "delta", delta)

    @classmethod
    def open_loop(cls, Y):
        return cls(variant="open_loop", Y=Y)

    @classmethod
    def closed_loop(cls, Z):
        return cls(variant="closed_loop", Z=Z)

    @classmethod
    def periodic(cls, period, phase=0):
        return cls(variant="periodic", period=period, phase=phase)

    @classmethod
    def random_offline(cls, p):
        return cls(variant="random", p=p)

    @classmethod
    def deterministic_threshold(cls, delta):
        return cls(variant="deterministic_threshold", delta=delta)

    def to_dict(self):
        d = {"variant": self.variant}
        if self.variant == "open_loop":
            d["Y"] = self.Y.tolist()
        elif self.variant == "closed_loop":
            d["Z"] = self.Z.tolist()
        elif self.variant == "periodic":
            d["period"] = self.period
            d["phase"] = self.phase
        elif self.variant == "random":
            d["p"] = self.p
        else:
            d["delta"] = self.delta
        return d

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict) or "variant" not in data:
            raise ConfigError("trigger config must be an object with a 'variant' key")
        variant = data["variant"]
        try:
            if variant == "open_loop":
                return cls.open_loop(as_matrix(data["Y"], "Y"))
            if variant == "closed_loop":
                return cls.closed_loop(as_matrix(data["Z"], "Z"))
            if variant == "periodic":
                return cls.periodic(data["period"], data.get("phase", 0))
            if variant == "random":
                return cls.random_offline(data["p"])
            if variant == "deterministic_threshold":
                return cls.deterministic_threshold(data["delta"])
        except KeyError as exc:
            raise ConfigError(
                f"trigger {variant!r} missing parameter {exc.args[0]!r}"
            ) from exc
        raise ConfigError(f"unknown trigger variant {variant!r}")


@dataclass(frozen=True, eq=False)
class FilterState:
    """One estimator's belief: prior and posterior mean/covariance plus gain."""

    x_prior: np.ndarray
    P_prior: np.ndarray
    x_post: np.ndarray
    P_post: np.ndarray
    K: np.ndarray
    k: int


def initial_state(model, x0_mean=None):
    """Prior (x0_mean or 0, Sigma0) at k = 0; posterior fields mirror the prior."""
    x = np.zeros(model.n) if x0_mean is None else np.asarray(x0_mean, dtype=float).reshape(model.n)
    return FilterState(
        x_prior=x.copy(),
        P_prior=model.Sigma0.copy(),
        x_post=x.copy(),
        P_post=model.Sigma0.copy(),
        K=np.zeros((model.n, model.m)),
        k=0,
    )


def trigger_decide(policy, y, y_pred, zeta, k):
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


def _check_measurement(gamma, value, what):
    if gamma not in (0, 1):
        raise InconsistentArgs(f"gamma must be 0 or 1, got {gamma!r}")
    if gamma == 1 and value is None:
        raise MissingMeasurement(f"gamma=1 but no {what} was provided")
    if gamma == 0 and value is not None:
        raise InconsistentArgs(f"gamma=0: the estimator must not receive {what}")


def olset_measurement_update(state, gamma, y, model, Y, Y_inv=None):
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


def clset_measurement_update(state, gamma, z, model, Z, Z_inv=None):
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


def standard_kf_update(state, y, model):
    """Textbook Kalman measurement update; the gamma=1 oracle."""
    if y is None:
        raise MissingMeasurement("standard update needs a measurement")
    C = model.C
    K = _gain(state.P_prior, C, model.R)
    P = sym(state.P_prior - K @ (C @ state.P_prior))
    x = state.x_prior + K @ (np.asarray(y, dtype=float).ravel() - C @ state.x_prior)
    return FilterState(state.x_prior, state.P_prior, x, P, K, state.k)


def offline_drop_update(state):
    """Offline-baseline drop: posterior := prior (pure prediction)."""
    return FilterState(
        state.x_prior,
        state.P_prior,
        state.x_prior.copy(),
        state.P_prior.copy(),
        np.zeros_like(state.K),
        state.k,
    )


def time_update(state, model):
    """Advance the prior: xhat_prior = A xhat, P_prior = A P A' + Q."""
    return FilterState(
        model.A @ state.x_post,
        sym(model.A @ state.P_post @ model.A.T + model.Q),
        state.x_post,
        state.P_post,
        state.K,
        state.k + 1,
    )
