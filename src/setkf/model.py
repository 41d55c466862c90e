"""Linear-Gaussian plant: validated parameters and open-loop steady state.

The plant is

    x[k+1] = A x[k] + w[k],      w[k] ~ N(0, Q)
    y[k]   = C x[k] + v[k],      v[k] ~ N(0, R)

with x[0] ~ N(0, Sigma0) and all noise sequences white and mutually
uncorrelated.  Validation enforces Q, R, Sigma0 > 0 plus detectability of
(A, C) and stabilizability of (A, Q) via PBH rank tests.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    ModelValidationError,
    NoConvergence,
    NotDetectable,
    NotStabilizable,
    UnstableSystem,
)
from .matrices import as_matrix, require_spd, spectral_norm, sym
from .riccati import MAX_DOUBLINGS, lyapunov

PD_FLOOR = 1e-10
RANK_TOL = 1e-8
# eigenvalues within this distance of the unit circle count as non-stable
# modes for the PBH tests (loose enough to catch defective unit eigenvalues)
UNIT_CIRCLE_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Validated plant matrices with dimensions n (state) and m (measurement)."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Sigma0: np.ndarray
    n: int
    m: int

    @functools.cached_property
    def rho_A(self):
        """Spectral radius of the transition matrix, computed once per model."""
        return float(np.abs(np.linalg.eigvals(self.A)).max())

    def to_dict(self):
        return {
            "A": self.A.tolist(),
            "C": self.C.tolist(),
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "Sigma0": self.Sigma0.tolist(),
        }


@dataclass(frozen=True, eq=False)
class SteadyState:
    """Stationary open-loop statistics of a stable plant.

    Sigma solves Sigma = A Sigma A' + Q; Pi = C Sigma C' + R is the
    stationary measurement covariance.
    """

    Sigma: np.ndarray
    Pi: np.ndarray
    rho_A: float


def _as_2d(x, name):
    M = as_matrix(x, name)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be at most 2-dimensional")
    return M


def _rank(M):
    # np.linalg.matrix_rank's count, from the one SVD that also gives the norm
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.count_nonzero(s > RANK_TOL * max(1.0, float(s[0]))))


def _pbh_detectable(A, C):
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - UNIT_CIRCLE_TOL:
            M = np.vstack([A - lam * np.eye(n), C.astype(complex)])
            if _rank(M) < n:
                return False
    return True


def _pbh_stabilizable(A, B):
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - UNIT_CIRCLE_TOL:
            M = np.hstack([A - lam * np.eye(n), B.astype(complex)])
            if _rank(M) < n:
                return False
    return True


def validate_model(A, C, Q, R, Sigma0):
    """Validate a raw matrix bundle and return a SystemModel.

    Raises ConfigError (a non-numeric entry), ModelValidationError
    (non-finite A or C), DimensionMismatch, NotPositiveDefinite,
    NotDetectable or NotStabilizable on rejection.
    Scalars are promoted to 1x1 matrices and 1-D arrays for C to a single
    row.
    """
    A = _as_2d(A, "A")
    C = _as_2d(C, "C")
    Q = _as_2d(Q, "Q")
    R = _as_2d(R, "R")
    Sigma0 = _as_2d(Sigma0, "Sigma0")
    for name, M in (("A", A), ("C", C)):
        if not np.all(np.isfinite(M)):
            raise ModelValidationError(f"{name} has non-finite entries")

    n = A.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    m = C.shape[0]
    if C.shape != (m, n):
        raise DimensionMismatch(f"C must be m x n = ({m}, {n}), got {C.shape}")
    if Q.shape != (n, n):
        raise DimensionMismatch(f"Q must be {n} x {n}, got {Q.shape}")
    if R.shape != (m, m):
        raise DimensionMismatch(f"R must be {m} x {m}, got {R.shape}")
    if Sigma0.shape != (n, n):
        raise DimensionMismatch(f"Sigma0 must be {n} x {n}, got {Sigma0.shape}")

    Q = require_spd(Q, "Q", floor=PD_FLOOR)
    R = require_spd(R, "R", floor=PD_FLOOR)
    Sigma0 = require_spd(Sigma0, "Sigma0", floor=PD_FLOOR)

    if not _pbh_detectable(A, C):
        raise NotDetectable("(A, C) fails the PBH detectability test")
    if not _pbh_stabilizable(A, np.linalg.cholesky(Q)):
        raise NotStabilizable("(A, Q) fails the PBH stabilizability test")

    return SystemModel(A=A, C=C, Q=Q, R=R, Sigma0=Sigma0, n=n, m=m)


def steady_state(model):
    """Stationary state/measurement covariances of a stable plant.

    Solves Sigma = A Sigma A' + Q with :func:`setkf.riccati.lyapunov` and
    checks the residual.  Raises UnstableSystem when rho(A) >= 1.
    """
    rho = model.rho_A
    if rho >= 1.0:
        raise UnstableSystem(f"steady state requires rho(A) < 1, got {rho:.6g}")
    A, Q = model.A, model.Q
    Sigma = lyapunov(A, Q)
    residual = spectral_norm(Sigma - A @ Sigma @ A.T - Q)
    if residual > 1e-10 * spectral_norm(Sigma):
        raise NoConvergence(MAX_DOUBLINGS, "Lyapunov residual check")
    Pi = sym(model.C @ Sigma @ model.C.T + model.R)
    return SteadyState(Sigma=Sigma, Pi=Pi, rho_A=rho)


def model_from_dict(data):
    if not isinstance(data, dict):
        raise ConfigError("model config must be a JSON object")
    try:
        return validate_model(
            data["A"], data["C"], data["Q"], data["R"], data["Sigma0"]
        )
    except KeyError as exc:
        raise ConfigError(f"model config missing key {exc.args[0]!r}") from exc


def load_model(path):
    """Read a model from a JSON file with keys A, C, Q, R, Sigma0."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model config {path}: {exc}") from exc
    return model_from_dict(data)


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2)
        fh.write("\n")
