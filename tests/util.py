"""Shared helpers for randomized property tests."""

import numpy as np

from setkf import ModelValidationError, g_step, validate_model


def random_spd(rng, n, scale=1.0, ridge=0.2):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + ridge * np.eye(n))


def random_stable_model(rng, n_max=4, m_max=4, rho_max=0.95):
    """Random detectable/stabilizable model with spectral radius < rho_max."""
    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        A = rng.normal(size=(n, n))
        rho = max(abs(np.linalg.eigvals(A)))
        A *= rng.uniform(0.3, 1.0) * rho_max / rho
        C = rng.normal(size=(m, n))
        try:
            return validate_model(
                A, C, random_spd(rng, n), random_spd(rng, m), random_spd(rng, n)
            )
        except ModelValidationError:
            continue


def loewner_leq(X, Y, tol=1e-10):
    """X <= Y in the Loewner order, up to ``tol`` on the smallest eigenvalue."""
    diff = 0.5 * (Y - X + (Y - X).T)
    return float(np.linalg.eigvalsh(diff)[0]) >= -tol


def scalar_g_fixed_point(a, c, q, w):
    """Positive root of the scalar Riccati fixed-point quadratic.

    c^2 X^2 + (w - a^2 w - q c^2) X - q w = 0, independent of the iterative
    solver path.
    """
    b = a * a * w + q * c * c - w
    disc = b * b + 4.0 * c * c * q * w
    return (b + np.sqrt(disc)) / (2.0 * c * c)


def dare_fixed_point(A, C, Q, W):
    """Stabilizing solution of the filter DARE X = g_W(X), without iteration.

    g_W(X) = A X A' + Q - A X C' (C X C' + W)^-1 C X A'.  With G = C' W^-1 C
    the symplectic matrix

        Z = [[A' + G A^-1 Q, -G A^-1], [-A^-1 Q, A^-1]]

    has its eigenvalues in pairs (lambda, 1/lambda); the n inside the unit
    circle span [U1; U2], and X = U2 U1^-1.  Needs an invertible A.  Uses
    numpy's eigensolver only, so it is independent of the iterative solver
    path in ``setkf.riccati.fixed_point``.
    """
    A, C, Q, W = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, C, Q, W))
    n = A.shape[0]
    A_inv = np.linalg.inv(A)
    G = C.T @ np.linalg.solve(W, C)
    Z = np.block([[A.T + G @ A_inv @ Q, -G @ A_inv], [-A_inv @ Q, A_inv]])
    vals, vecs = np.linalg.eig(Z)
    stable = np.abs(vals) < 1.0
    if stable.sum() != n:
        raise ValueError(f"expected {n} stable eigenvalues, got {int(stable.sum())}")
    U = vecs[:, stable]
    X = np.real(np.linalg.solve(U[:n].T, U[n:].T).T)
    return 0.5 * (X + X.T)


def lyapunov_iteration(F, Q, tol=1e-12, max_iter=100_000):
    """Plain fixed-point iteration X <- F X F' + Q from X = Q.

    The reference for ``setkf.riccati.lyapunov``: one term of the series per
    step, stopping when the relative spectral-norm change drops below
    ``tol``.  Returns None when that does not happen within ``max_iter``
    steps.
    """
    F, Q = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (F, Q))
    X = Q.copy()
    for _ in range(max_iter):
        nxt = F @ X @ F.T + Q
        nxt = 0.5 * (nxt + nxt.T)
        delta = np.linalg.norm(nxt - X, 2)
        X = nxt
        if delta <= tol * np.linalg.norm(X, 2):
            return X
    return None


def riccati_iteration(rmap, tol=1e-10, max_iter=100_000):
    """Plain fixed-point iteration X <- g_W(X) from X = Q.

    The reference for ``setkf.riccati.fixed_point``: one Riccati step per
    iteration, stopping when the relative spectral-norm change drops below
    ``tol``.  Returns None when that does not happen within ``max_iter``
    steps or the iterates stop being finite.
    """
    X = rmap.model.Q.copy()
    for _ in range(max_iter):
        nxt = g_step(X, rmap)
        if not np.all(np.isfinite(nxt)):
            return None
        delta = np.linalg.norm(nxt - X, 2)
        X = nxt
        if delta <= tol * np.linalg.norm(X, 2):
            return X
    return None
