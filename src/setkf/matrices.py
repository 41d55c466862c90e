"""Dense symmetric-matrix helpers shared across the package."""

import math

import numpy as np

from .errors import ConfigError, NotPositiveDefinite


def sym(X):
    """Explicit symmetrization (X + X') / 2, suppresses asymmetric drift.

    Acts on the last two axes, so a stack of matrices is symmetrized matrix
    by matrix.
    """
    return 0.5 * (X + X.swapaxes(-1, -2))


def as_matrix(x, name):
    """``x`` as a float array of at least two dimensions.

    Raises ConfigError when an entry is not a number or the rows are ragged,
    so a malformed configuration value fails as configuration.
    """
    try:
        return np.atleast_2d(np.asarray(x, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a numeric matrix ({exc})") from exc


def as_number(x, name, integer=False):
    """``x`` as a finite float, or as an int when ``integer``.

    Raises ConfigError when ``x`` is not a number (a bool is not one), is not
    finite, or, with ``integer``, has a fractional part, so a malformed
    configuration value fails as configuration.
    """
    if isinstance(x, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a number, got {x!r}")
    if integer and isinstance(x, (int, np.integer)):
        return int(x)
    try:
        value = float(x)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {x!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {x!r}")
    if integer:
        if not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {x!r}")
        return int(value)
    return value


def spectral_norm(X):
    return float(np.linalg.norm(np.atleast_2d(X), 2))


def smallest_eigenvalue(X):
    return float(np.linalg.eigvalsh(sym(np.atleast_2d(np.asarray(X, dtype=float))))[0])


def is_spd(X, floor=0.0):
    """Positive-definiteness test via triangular factorization of X - floor*I.

    Succeeds iff X is square, symmetric to a scale-relative tolerance, and
    its smallest eigenvalue exceeds ``floor``.  Model covariances pass an
    explicit floor; trigger weights may be arbitrarily small but positive.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        return False
    scale = max(1.0, float(np.abs(X).max()))
    if float(np.abs(X - X.T).max()) > 1e-8 * scale:
        return False
    try:
        np.linalg.cholesky(sym(X) - floor * np.eye(X.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def require_spd(X, name, floor=0.0):
    """Return the symmetrized matrix or raise NotPositiveDefinite."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise NotPositiveDefinite(name, "not a square matrix")
    if not np.all(np.isfinite(X)):
        raise NotPositiveDefinite(name, "non-finite entries")
    if not is_spd(X, floor=floor):
        raise NotPositiveDefinite(name, f"smallest eigenvalue <= {floor:g} or asymmetric")
    return sym(X)
