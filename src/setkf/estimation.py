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

The trigger rule and the measurement update are written once, over a stack
of runs (:func:`transmit`, :func:`measurement_update`); the single-step
functions on a :class:`FilterState` pass them a stack of one run.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InconsistentArgs,
    MissingMeasurement,
    SingularInnovation,
)
from .matrices import as_number, config_fields, require_spd, sym

# each variant's required and optional parameters, in the key order of
# TriggerPolicy.to_dict
_PARAMETERS = {
    "open_loop": (("Y",), ()),
    "closed_loop": (("Z",), ()),
    "periodic": (("period",), ("phase",)),
    "random": (("p",), ()),
    "deterministic_threshold": (("delta",), ()),
}
TRIGGER_VARIANTS = tuple(_PARAMETERS)

# the largest period: with 0 <= phase < period, k - phase fits an int64 for
# every step k the scan passes as an int64 array
MAX_PERIOD = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class TriggerPolicy:
    """Tagged union over the transmission policies.

    Use the classmethod constructors; only the fields of the selected
    variant are populated.  A periodic trigger's phase is kept modulo its
    period.
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
        if self.variant in ("open_loop", "closed_loop"):
            key = "Y" if self.variant == "open_loop" else "Z"
            object.__setattr__(self, key, require_spd(getattr(self, key), key))
        elif self.variant == "periodic":
            period = as_number(self.period, "period", integer=True, lo=1, hi=MAX_PERIOD)
            object.__setattr__(self, "period", period)
            object.__setattr__(self, "phase", as_number(self.phase, "phase", integer=True) % period)
        elif self.variant == "random":
            object.__setattr__(self, "p", as_number(self.p, "p", lo=0.0, hi=1.0))
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
        required, optional = _PARAMETERS[self.variant]
        d = {"variant": self.variant}
        for key in (*required, *optional):
            value = getattr(self, key)
            d[key] = value.tolist() if isinstance(value, np.ndarray) else value
        return d

    @classmethod
    def from_dict(cls, data):
        variant = config_fields(data, "trigger config", ("variant",))["variant"]
        if variant not in TRIGGER_VARIANTS:
            raise ConfigError(f"unknown trigger variant {variant!r}")
        fields = config_fields(data, f"trigger {variant!r}", *_PARAMETERS[variant])
        return cls(variant=variant, **fields)


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


def transmit(policy, y, y_pred, zeta, k):
    """Transmission decisions, True to send, of a stack of runs: y and
    y_pred = C xhat_prior are (runs, m, 1), zeta is (runs,)."""
    variant = policy.variant
    if variant == "periodic":
        return np.full(zeta.shape, (k - policy.phase) % policy.period == 0)
    if variant == "random":
        return zeta > 1.0 - policy.p
    z = y if variant == "open_loop" else y - y_pred
    if variant == "deterministic_threshold":
        return np.abs(z).max(axis=(1, 2)) > policy.delta
    W = policy.Y if variant == "open_loop" else policy.Z
    return zeta > np.exp(-0.5 * (z.transpose(0, 2, 1) @ W @ z)[:, 0, 0])


def measurement_update(model, P, x, y, y_pred, gamma, W_drop=None, open_loop=False):
    """The measurement update of a stack of runs; a stack of one is one step.

    P (runs, n, n), x (runs, n, 1) are the prior, y and y_pred = C x
    (runs, m, 1), and gamma (runs,) is True on an arrival.  The gain uses R
    on an arrival and W_drop on a drop (R + Y^-1 olset, R + Z^-1 clset); with
    no W_drop a drop keeps the prior (K = 0, the offline baseline).  The mean
    is x + K (gamma y - y_pred) if ``open_loop``, else x + gamma K (y - y_pred).
    Returns x, P, K (runs, n, m) and the innovation covariance M (runs, m, m);
    SingularInnovation is raised for a singular M with m > 1 only.
    """
    C = model.C
    CP = C @ P
    # a contiguous C' multiplies a stack faster than the transposed view,
    # with the same result
    CPC = CP @ C.T.copy()
    if W_drop is None:
        M = CPC + model.R
    else:
        M = CPC + np.where(gamma[:, None, None], model.R, W_drop)
    if model.m == 1:
        # M >= R > 0 for a positive semi-definite prior
        K = CP.transpose(0, 2, 1) / M
    else:
        try:
            K = np.linalg.solve(sym(M), CP).transpose(0, 2, 1)
        except np.linalg.LinAlgError as exc:
            raise SingularInnovation(f"innovation covariance is singular: {exc}") from exc
    g = gamma[:, None, None].astype(float)
    if W_drop is None:
        K = K * g
    u = g * y - y_pred if open_loop else g * (y - y_pred)
    return x + K @ u, sym(P - K @ CP), K, M


def _stack(v):
    """A vector as a stack of one column, (1, len, 1); None stays None."""
    return None if v is None else np.asarray(v, dtype=float).reshape(1, -1, 1)


def trigger_decide(policy, y, y_pred, zeta, k):
    """Per-step decision, 1 to send and 0 to stay idle: :func:`transmit` on one run."""
    if not 0.0 <= zeta <= 1.0:
        raise InconsistentArgs(f"zeta must lie in [0, 1], got {zeta}")
    return int(transmit(policy, _stack(y), _stack(y_pred), np.array([zeta]), k)[0])


def _check_measurement(gamma, value, what):
    if gamma not in (0, 1):
        raise InconsistentArgs(f"gamma must be 0 or 1, got {gamma!r}")
    if gamma == 1 and value is None:
        raise MissingMeasurement(f"gamma=1 but no {what} was provided")
    if gamma == 0 and value is not None:
        raise InconsistentArgs(f"gamma=0: the estimator must not receive {what}")


def _update_one(state, model, gamma, y, y_pred, W_drop=None, open_loop=False):
    """:func:`measurement_update` on one run; a drop passes y = None."""
    y = np.zeros((1, model.m, 1)) if y is None else _stack(y)
    # a scalar M of 0 is reported below as SingularInnovation, not as a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        x, P, K, M = measurement_update(
            model, state.P_prior[None], _stack(state.x_prior), y, _stack(y_pred),
            np.array([gamma == 1]), W_drop, open_loop,
        )
    if model.m == 1 and not (M[0, 0, 0] > 0.0 and np.isfinite(M[0, 0, 0])):
        raise SingularInnovation("innovation covariance is singular")
    return FilterState(state.x_prior, state.P_prior, x[0, :, 0], P[0], K[0], state.k)


def olset_measurement_update(state, gamma, y, model, Y):
    """Open-loop event-triggered measurement update.

    With gamma=1 this is the standard Kalman update.  With gamma=0 the gain
    uses the inflated noise R + Y^-1 and the posterior mean is the scaled
    prior (I - K C) xhat_prior.
    """
    _check_measurement(gamma, y, "y")
    W_drop = model.R + np.linalg.inv(Y)
    return _update_one(state, model, gamma, y, model.C @ state.x_prior, W_drop, open_loop=True)


def clset_measurement_update(state, gamma, z, model, Z):
    """Closed-loop event-triggered measurement update.

    With gamma=1 the innovation z = y - C xhat_prior is applied through the
    standard gain; with gamma=0 the posterior mean equals the prior while
    the covariance still contracts through the inflated-noise gain.
    """
    _check_measurement(gamma, z, "z")
    W_drop = model.R + np.linalg.inv(Z)
    # only y - y_pred is read, so z goes in as the measurement of a zero prediction
    return _update_one(state, model, gamma, z, np.zeros(model.m), W_drop)


def standard_kf_update(state, y, model):
    """Textbook Kalman measurement update; the gamma=1 oracle."""
    if y is None:
        raise MissingMeasurement("standard update needs a measurement")
    return _update_one(state, model, 1, y, model.C @ state.x_prior)


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
