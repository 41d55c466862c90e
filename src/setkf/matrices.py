"""Dense symmetric-matrix helpers shared across the package."""

import json
import math

import numpy as np

from .errors import ConfigError, NotPositiveDefinite


def sym(X):
    """Explicit symmetrization (X + X') / 2, suppresses asymmetric drift.

    Acts on the last two axes, so a stack of matrices is symmetrized matrix
    by matrix.
    """
    return 0.5 * (X + X.swapaxes(-1, -2))


def read_json(path, what):
    """The JSON value in the file ``path``; a file that cannot be read or
    parsed raises ConfigError naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def write_file(path, write):
    """Call ``write(fh)`` on the file ``path``; an OSError raises ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def write_json(data, path):
    """Write ``data`` to the file ``path`` as indented JSON."""
    write_file(path, lambda fh: fh.write(json.dumps(data, indent=2) + "\n"))


def config_fields(data, what, required=(), optional=()):
    """The ``required`` keys of a config object and those of ``optional``
    that it has, as a dict in that order.

    Raises ConfigError when ``data`` is not a JSON object or lacks a
    required key.  Only keys are found here: the constructors that take the
    values convert and range-check them.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    for key in required:
        if key not in data:
            raise ConfigError(f"{what} missing key {key!r}")
    return {key: data[key] for key in (*required, *optional) if key in data}


def as_matrix(x, name):
    """``x`` as a float array of at least two dimensions.

    Raises ConfigError when an entry is not a number (a bool is not one) or
    the rows are ragged, so a malformed configuration value fails as
    configuration.  Only input that is not already a numeric array is
    scanned for booleans, so the solvers' own arrays pass at no cost.
    """
    try:
        if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu"):
            if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat):
                raise TypeError("booleans are not numbers")
        return np.atleast_2d(np.asarray(x, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a numeric matrix ({exc})") from exc


def as_number(x, name, integer=False, lo=-math.inf, hi=math.inf):
    """``x`` as a finite float, or as an int when ``integer``, in [lo, hi].

    Raises ConfigError when ``x`` is not a number (a bool is not one), is not
    finite, with ``integer`` has a fractional part, or lies outside the
    inclusive range, so a malformed configuration value fails as
    configuration.
    """
    if isinstance(x, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a number, got {x!r}")
    if integer and isinstance(x, (int, np.integer)):
        value = int(x)
    else:
        try:
            value = float(x)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{name} must be a number, got {x!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {x!r}")
        if integer:
            if not value.is_integer():
                raise ConfigError(f"{name} must be an integer, got {x!r}")
            value = int(value)
    if not lo <= value <= hi:
        raise ConfigError(f"{name} must lie in [{lo}, {hi}], got {x!r}")
    return value


def spectral_norm(X):
    """Largest singular value: the value of ``np.linalg.norm(X, 2)``, without
    its axis handling."""
    return float(np.linalg.svd(np.atleast_2d(X), compute_uv=False)[0])


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
    with np.errstate(over="ignore"):  # an overflowing X - X' is asymmetric
        if float(np.abs(X - X.T).max()) > 1e-8 * scale:
            return False
    try:
        np.linalg.cholesky(sym(X) - floor * np.eye(X.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def require_spd(X, name, floor=0.0, size=None):
    """Return the symmetrized matrix or raise NotPositiveDefinite (ConfigError
    when an entry is not a number); with ``size``, also when it is not
    size x size, checked last so that the other messages come first."""
    X = as_matrix(X, name)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise NotPositiveDefinite(name, "not a square matrix")
    if not np.all(np.isfinite(X)):
        raise NotPositiveDefinite(name, "non-finite entries")
    with np.errstate(over="ignore"):
        S = sym(X)
    if not np.all(np.isfinite(S)):
        raise NotPositiveDefinite(name, "entries too large to symmetrize")
    if not is_spd(X, floor=floor):
        raise NotPositiveDefinite(name, f"smallest eigenvalue <= {floor:g} or asymmetric")
    return S if size is None else require_size(S, name, size)


def require_size(S, name, size):
    """Return S, or raise the size error of ``require_spd`` if it is not size x size."""
    if np.shape(S) != (size, size):
        raise NotPositiveDefinite(name, f"must be {size} x {size}")
    return S


def require_spd_stack(X, name, size):
    """Raise the error of ``require_spd`` for the first matrix of a stack of
    symmetric matrices that is not positive-definite, or not size x size:
    one finiteness test and one Cholesky factorization of the stack, and a
    check of each matrix in order only when that fails."""
    try:
        if X.shape[-1] == size and np.isfinite(X).all() and np.linalg.cholesky(X) is not None:
            return
    except np.linalg.LinAlgError:
        pass
    for M in X:
        require_spd(M, name, size=size)
