"""Linear-Gaussian plant: validated parameters and open-loop steady state.

The plant is

    x[k+1] = A x[k] + w[k],      w[k] ~ N(0, Q)
    y[k]   = C x[k] + v[k],      v[k] ~ N(0, R)

with x[0] ~ N(0, Sigma0) and all noise sequences white and mutually
uncorrelated.  Validation enforces Q, R, Sigma0 > 0 plus detectability of
(A, C) and stabilizability of (A, Q) via PBH rank tests.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ModelValidationError,
    NoConvergence,
    NotDetectable,
    NotStabilizable,
    UnstableSystem,
)
from .matrices import (
    as_matrix,
    config_fields,
    read_json,
    require_spd,
    spectral_norm,
    sym,
    write_json,
)
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


def _pbh_check(A, C, Lq):
    """PBH rank tests at each eigenvalue of A on or outside the unit circle:
    [A - lam I; C] for detectability of (A, C), then [A - lam I, Lq] for
    stabilizability of (A, Q = Lq Lq').  A with non-finite eigenvalues is
    rejected before any rank is taken."""
    eigenvalues = np.linalg.eigvals(A)
    if not np.all(np.isfinite(eigenvalues)):
        raise ModelValidationError("A has non-finite eigenvalues")
    n = A.shape[0]
    shifted = [A - lam * np.eye(n) for lam in eigenvalues if abs(lam) >= 1.0 - UNIT_CIRCLE_TOL]
    if any(_rank(np.vstack([M, C])) < n for M in shifted):
        raise NotDetectable("(A, C) fails the PBH detectability test")
    if any(_rank(np.hstack([M, Lq])) < n for M in shifted):
        raise NotStabilizable("(A, Q) fails the PBH stabilizability test")


def validate_model(A, C, Q, R, Sigma0):
    """Validate a raw matrix bundle and return a SystemModel.

    Raises ConfigError (a non-numeric entry), ModelValidationError
    (non-finite A or C, or A with non-finite eigenvalues),
    DimensionMismatch, NotPositiveDefinite, NotDetectable or
    NotStabilizable on rejection.
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

    _pbh_check(A, C, np.linalg.cholesky(Q))

    return SystemModel(A=A, C=C, Q=Q, R=R, Sigma0=Sigma0, n=n, m=m)


def steady_state(model):
    """Stationary state/measurement covariances of a stable plant:
    :func:`stationary` at the solution of Sigma = A Sigma A' + Q that
    :func:`setkf.riccati.lyapunov` finds.  Raises UnstableSystem when
    rho(A) >= 1."""
    return stationary(model, lyapunov(model.A, model.Q) if model.rho_A < 1.0 else None)


def stationary(model, Sigma):
    """The SteadyState of a stable plant from a solution Sigma of
    Sigma = A Sigma A' + Q, whose residual is checked: the one check of
    :func:`steady_state` and of a design, whose search solves Sigma as the
    ray's end at theta = 0.  Raises UnstableSystem when rho(A) >= 1, before
    Sigma is read, and NoConvergence when the residual exceeds 1e-10 ||Sigma||.
    """
    rho = model.rho_A
    if rho >= 1.0:
        raise UnstableSystem(f"steady state requires rho(A) < 1, got {rho:.6g}")
    A, Q = model.A, model.Q
    residual = spectral_norm(Sigma - A @ Sigma @ A.T - Q)
    if residual > 1e-10 * spectral_norm(Sigma):
        raise NoConvergence(MAX_DOUBLINGS, "Lyapunov residual check")
    Pi = sym(model.C @ Sigma @ model.C.T + model.R)
    return SteadyState(Sigma=Sigma, Pi=Pi, rho_A=rho)


def model_from_dict(data):
    return validate_model(**config_fields(data, "model config", ("A", "C", "Q", "R", "Sigma0")))


def load_model(path):
    """Read a model from a JSON file with keys A, C, Q, R, Sigma0."""
    return model_from_dict(read_json(path, "model config"))


def save_model(model, path):
    write_json(model.to_dict(), path)
