"""Trigger policies and the event-triggered MMSE filter recursions.

A sensor observes y[k] and decides per step whether to transmit.  The
stochastic policies compare a uniform draw zeta[k] against an acceptance
function of the measurement (open loop) or of the innovation (closed loop):

    open loop:    send iff zeta > exp(-y' Y y / 2)
    closed loop:  send iff zeta > exp(-z' Z z / 2),  z = y - C xhat_prior

Under either stochastic policy a silent step is itself a measurement, so
the remote estimator stays exactly Gaussian.  The gain uses the noise R on
an arrival and the drop noise R + Y^-1 (resp. R + Z^-1) on a drop, and the
prior error e = x - xhat_prior, with innovation z = y - C xhat_prior,
becomes e - K z on an arrival.  On a drop it stays e under the closed loop
and becomes e - K z + K y under the open loop, where the measurement 0
arrives; the offline baselines (periodic, random, threshold) predict only.

The trigger rule, the drop noise and the measurement update are written
once (:func:`transmit`, :func:`drop_noises`, :func:`measurement_update`),
the rule and the update over a stack of runs; the single-step functions on
a :class:`FilterState` pass them a stack of one run, whose estimate is
minus the error of a plant held at 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InconsistentArgs,
    MissingMeasurement,
    SingularInnovation,
)
from .matrices import as_number, config_fields, require_size, require_spd, sym

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
# the stochastic variants' weights
_WEIGHTS = {"open_loop": "Y", "closed_loop": "Z"}

# the variants whose decisions read the estimate, through the innovation; the
# others decide from y and zeta alone, ahead of the filter
READS_ESTIMATE = ("closed_loop", "deterministic_threshold")

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
        if self.variant in _WEIGHTS:
            key = _WEIGHTS[self.variant]
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


def transmit(policy, z, zeta, k=None):
    """Transmission decisions, True to send, of a stack of runs: zeta is
    (runs,) and z (runs, m, 1) the signal the rule reads, y for the open-loop
    trigger and the innovation y - C xhat_prior for the closed-loop and
    threshold triggers; the periodic and random triggers ignore it.  Only
    the periodic rule reads the step index k, an int or (runs,).  A form
    z' W z that overflows, to inf or, for m >= 2, to the nan of cancelling
    infinities, sends for every zeta > 0, as exp(-inf / 2) = 0 does."""
    variant = policy.variant
    if variant == "periodic":
        return np.full(zeta.shape, (k - policy.phase) % policy.period == 0)
    if variant == "random":
        return zeta > 1.0 - policy.p
    if variant == "deterministic_threshold":
        return np.abs(z).max(axis=(1, 2)) > policy.delta
    W = getattr(policy, _WEIGHTS[variant])
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(zeta <= np.exp(-0.5 * (z.transpose(0, 2, 1) @ W @ z)[:, 0, 0]))


def drop_noises(R, W):
    """sym(R + W^-1), the noise of a drop, for each checked weight W of a
    stack: the one formula that the filters, the analysis and the design read."""
    return sym(R + np.linalg.inv(W))


def drop_noise(model, policy):
    """The noise of a drop: R + Y^-1 under the open-loop trigger, R + Z^-1
    under the closed-loop trigger, None where a drop tells the filter nothing.
    Raises NotPositiveDefinite for a weight that is not m x m; the policy
    has checked the rest."""
    key = _WEIGHTS.get(policy.variant)
    if key is None:
        return None
    return drop_noises(model.R, require_size(getattr(policy, key), key, model.m)[None])[0]


def measurement_update(model, P, e, z, gamma, W_drop=None, y=None):
    """The measurement update of a stack of runs in error form, by the drop
    rule of the module docstring; a stack of one is one step.

    P (runs, n, n) and e (runs, n, 1) are the prior, z (runs, m, 1) the
    innovation and gamma (runs,) True on an arrival; the open-loop trigger
    also passes the plant's y (runs, m, 1).  With no W_drop, the offline
    baseline, a drop keeps the prior (K = 0).  Returns e, P, K (runs, n, m)
    and the innovation covariance M (runs, m, m); SingularInnovation is
    raised for a singular M with m > 1 only.
    """
    C = model.C
    CP = C @ P
    # a contiguous C' multiplies a stack faster than the transposed view,
    # with the same result
    CPC = CP @ C.T.copy()
    g = gamma[:, None, None]
    M = CPC + (model.R if W_drop is None else np.where(g, model.R, W_drop))
    if model.m == 1:
        # M >= R > 0 for a positive semi-definite prior
        K = CP.transpose(0, 2, 1) / M
    else:
        try:
            K = np.linalg.solve(sym(M), CP).transpose(0, 2, 1)
        except np.linalg.LinAlgError as exc:
            raise SingularInnovation(f"innovation covariance is singular: {exc}") from exc
    if W_drop is None:
        K = K * g
    e = e - K @ (z * g) if y is None else e - K @ z + K @ (y * ~g)
    return e, sym(P - K @ CP), K, M


def _stack(v):
    """A vector as a stack of one column, (1, len, 1); None stays None."""
    return None if v is None else np.asarray(v, dtype=float).reshape(1, -1, 1)


def trigger_decide(policy, y, y_pred, zeta, k):
    """Per-step decision, 1 to send and 0 to stay idle: :func:`transmit` on one
    run.  Raises NotPositiveDefinite for a weight that is not len(y) x len(y),
    and InconsistentArgs for a y_pred that the innovation reads whose length
    is not len(y)."""
    if not 0.0 <= zeta <= 1.0:
        raise InconsistentArgs(f"zeta must lie in [0, 1], got {zeta}")
    y, y_pred = _stack(y), _stack(y_pred)
    key = _WEIGHTS.get(policy.variant)
    if key is not None:
        require_size(getattr(policy, key), key, y.shape[1])
    z = y
    if policy.variant in READS_ESTIMATE:
        if y_pred.shape != y.shape:
            raise InconsistentArgs(f"y has length {y.shape[1]} but y_pred {y_pred.shape[1]}")
        z = y - y_pred
    return int(transmit(policy, z, np.array([zeta]), k)[0])


def _check_measurement(gamma, value, what):
    if gamma not in (0, 1):
        raise InconsistentArgs(f"gamma must be 0 or 1, got {gamma!r}")
    if gamma == 1 and value is None:
        raise MissingMeasurement(f"gamma=1 but no {what} was provided")
    if gamma == 0 and value is not None:
        raise InconsistentArgs(f"gamma=0: the estimator must not receive {what}")


def _update_one(state, model, gamma, z, W_drop=None, y=None):
    """:func:`measurement_update` on one run, whose estimate is minus the
    error of a plant held at 0; a closed-loop drop passes z = None."""
    z = np.zeros((1, model.m, 1)) if z is None else _stack(z)
    # a scalar M of 0 is reported below as SingularInnovation, not as a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        e, P, K, M = measurement_update(
            model, state.P_prior[None], -_stack(state.x_prior), z,
            np.array([gamma == 1]), W_drop, _stack(y),
        )
    if model.m == 1 and not (M[0, 0, 0] > 0.0 and np.isfinite(M[0, 0, 0])):
        raise SingularInnovation("innovation covariance is singular")
    return FilterState(state.x_prior, state.P_prior, -e[0, :, 0], P[0], K[0], state.k)


def olset_measurement_update(state, gamma, y, model, Y):
    """Open-loop event-triggered (OLSET) measurement update; a drop passes
    y = None, and its posterior mean is (I - K C) xhat_prior."""
    _check_measurement(gamma, y, "y")
    y = _stack(np.zeros(model.m) if y is None else y)
    W_drop = drop_noise(model, TriggerPolicy.open_loop(Y))
    return _update_one(state, model, gamma, y - _stack(model.C @ state.x_prior), W_drop, y)


def clset_measurement_update(state, gamma, z, model, Z):
    """Closed-loop event-triggered (CLSET) measurement update of the
    innovation z = y - C xhat_prior; a drop passes z = None, and its
    posterior mean is the prior's."""
    _check_measurement(gamma, z, "z")
    return _update_one(state, model, gamma, z, drop_noise(model, TriggerPolicy.closed_loop(Z)))


def standard_kf_update(state, y, model):
    """Textbook Kalman measurement update; the gamma=1 oracle."""
    if y is None:
        raise MissingMeasurement("standard update needs a measurement")
    return _update_one(state, model, 1, _stack(y) - _stack(model.C @ state.x_prior))


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
