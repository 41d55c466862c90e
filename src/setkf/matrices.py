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


def require_spd(X, name, floor=0.0, size=None):
    """Return sym(X) if X passes the one positive-definiteness rule: X is
    square, X and sym(X) are finite, X is symmetric to 1e-8 max(1, max|X|),
    and sym(X) - floor*I has a Cholesky factor.  Raise NotPositiveDefinite
    otherwise (ConfigError when an entry is not a number), and with ``size``
    also when X is not size x size, checked last so that the other messages
    come first."""
    X = as_matrix(X, name)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise NotPositiveDefinite(name, "not a square matrix")
    S = _check_spd(X, name, floor)
    return S if size is None else require_size(S, name, size)


def _check_spd(X, name, floor):
    """sym(X) for a square X, or a stack of them, that passes the rule of
    :func:`require_spd`; else the error of the first part of it that fails."""
    if not np.isfinite(X).all():
        raise NotPositiveDefinite(name, "non-finite entries")
    with np.errstate(over="ignore"):  # an overflowing X + X' or X - X' fails the rule
        S = sym(X)
        if not np.isfinite(S).all():
            raise NotPositiveDefinite(name, "entries too large to symmetrize")
        asym = np.abs(X - X.swapaxes(-1, -2)).max(axis=(-2, -1))
    try:
        if (asym <= 1e-8 * np.abs(X).max(axis=(-2, -1), initial=1.0)).all():
            np.linalg.cholesky(S - floor * np.eye(X.shape[-1]) if floor else S)
            return S
    except np.linalg.LinAlgError:
        pass
    raise NotPositiveDefinite(name, f"smallest eigenvalue <= {floor:g} or asymmetric")


def require_size(S, name, size):
    """Return S, or raise the size error of ``require_spd`` if it is not size x size."""
    if np.shape(S) != (size, size):
        raise NotPositiveDefinite(name, f"must be {size} x {size}")
    return S


def require_spd_stack(X, name, size):
    """Raise the error of ``require_spd`` for the first matrix of a stack that
    is not size x size or fails its rule (with floor 0), each matrix being
    symmetric to its own scale: one pass of the rule over the whole stack,
    and a check of each matrix in order only when that fails."""
    try:
        if X.shape[-2:] == (size, size):
            _check_spd(X, name, 0.0)
            return
    except NotPositiveDefinite:
        pass
    for M in X:
        require_spd(M, name, size=size)
