"""Riccati maps in covariance and information form, and their fixed points.

For a plant (A, C, Q) and effective measurement-noise covariance W > 0:

    g_W(X)     = A X A' + Q - A X C' (C X C' + W)^-1 C X A'
    Gamma_W(S) = [A (S + C' W^-1 C)^-1 A' + Q]^-1

The two maps are dual: [Gamma_W(X^-1)]^-1 = g_W(X).  Both are monotone in
the Loewner order and, for detectable/stabilizable plants, iterate to a
unique positive-definite fixed point from any positive-definite start.
:func:`fixed_point` reaches it by structured doubling, k doublings covering
2^k iterates of g_W, and :func:`lyapunov` solves X = F X F' + Q by Smith
doubling; both stop after at most 64 doublings.

Also provides the block-Gaussian covariance identity used to absorb a
quadratic measurement weight into a joint covariance: for a joint SPD
covariance Phi partitioned into (x, y) blocks and Y > 0,

    Theta^-1 = Phi^-1 + blockdiag(0, Y)

has closed-form blocks computed by :func:`block_gaussian_update`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, SingularInnovation
from .matrices import is_spd, require_spd, spectral_norm, sym

FIXED_POINT_TOL = 1e-10
LYAPUNOV_TOL = 1e-12
LYAPUNOV_MAX_DOUBLINGS = 64
FIXED_POINT_MAX_ITER = LYAPUNOV_MAX_DOUBLINGS


@dataclass(frozen=True, eq=False)
class RiccatiMap:
    """A plant together with an effective measurement-noise covariance W."""

    model: object
    W: np.ndarray

    def __post_init__(self):
        W = require_spd(self.W, "W")
        if W.shape[0] != self.model.m:
            raise NotPositiveDefinite("W", f"must be {self.model.m} x {self.model.m}")
        object.__setattr__(self, "W", W)


def g_step(X, rmap):
    """One covariance-form Riccati step g_W(X).

    X may be merely positive semidefinite (iterates through 0 are allowed);
    the innovation covariance C X C' + W stays invertible for W > 0.
    """
    X = sym(np.atleast_2d(np.asarray(X, dtype=float)))
    A, C, Q = rmap.model.A, rmap.model.C, rmap.model.Q
    T = A @ X @ C.T
    M = sym(C @ X @ C.T + rmap.W)
    try:
        corr = T @ np.linalg.solve(M, T.T)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(f"C X C' + W is singular: {exc}") from exc
    return sym(A @ X @ A.T + Q - corr)


def gamma_step(S, rmap):
    """One information-form Riccati step Gamma_W(S)."""
    S = sym(np.atleast_2d(np.asarray(S, dtype=float)))
    A, C, Q = rmap.model.A, rmap.model.C, rmap.model.Q
    try:
        N = sym(S + C.T @ np.linalg.solve(rmap.W, C))
        inner = sym(A @ np.linalg.solve(N, A.T) + Q)
        return sym(np.linalg.inv(inner))
    except np.linalg.LinAlgError as exc:
        raise SingularInnovation(f"information-form step failed: {exc}") from exc


def fixed_point(rmap, tol=FIXED_POINT_TOL, max_iter=FIXED_POINT_MAX_ITER, start=None):
    """Unique positive-definite solution of X = g_W(X), by structured doubling.

    With G = C' W^-1 C the map reads g_W(X) = A X (I + G X)^-1 A' + Q, and
    the iterates from 0 are the H_k of the doubling recursion (Chu, Fan, Lin
    & Wang 2004) started at A_0 = A', G_0 = G, H_0 = Q:

        T = I + G H,   H += A' H T^-1 A,   G += A T^-1 G A',   A <- A T^-1 A

    so k doublings cover 2^k Riccati iterates.  A ``start`` S shifts the
    unknown to X = S + Delta, whose iterates follow the same kind of map with
    A - K(S) C, W + C S C' and first iterate g_W(S) - S.  Stops when the
    last increment of H falls below ``tol`` relative to X.  Raises
    NoConvergence when H stops being finite or after ``max_iter``
    doublings, which signals ill-conditioning rather than non-existence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    A, C, Q, W = rmap.model.A, rmap.model.C, rmap.model.Q, rmap.W
    if start is None:
        S = np.zeros_like(Q)
        H = Q.copy()
    else:
        S = sym(np.atleast_2d(np.asarray(start, dtype=float)))
        W = sym(C @ S @ C.T + W)
        A = A - np.linalg.solve(W, C @ S @ A.T).T @ C
        H = g_step(S, rmap) - S
    G = sym(C.T @ np.linalg.solve(W, C))
    A = A.T
    eye = np.eye(A.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(max_iter):
            try:
                TA, TG = np.hsplit(np.linalg.solve(eye + G @ H, np.hstack([A, G])), 2)
            except np.linalg.LinAlgError:
                raise NoConvergence(k + 1, "Riccati doubling (singular step)") from None
            step = sym(A.T @ H @ TA)
            H = H + step
            if not np.all(np.isfinite(H)):
                raise NoConvergence(k + 1, "Riccati doubling (diverged)")
            if spectral_norm(step) <= tol * spectral_norm(S + H):
                return sym(S + H)
            G = sym(G + A @ TG @ A.T)
            A = A @ TA
    raise NoConvergence(max_iter, "Riccati doubling")


def lyapunov(F, Q):
    """Solution of X = F X F' + Q for a stable F, by Smith doubling.

    After k doublings X holds the first 2^k terms of sum_i F^i Q (F^i)', and
    F has been squared k times.  Stops when the last increment falls below
    LYAPUNOV_TOL relative to X.  Raises NoConvergence when the sum stops
    being finite or LYAPUNOV_MAX_DOUBLINGS is reached, both of which mean
    rho(F) >= 1 up to rounding.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    X = sym(np.atleast_2d(np.asarray(Q, dtype=float)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(LYAPUNOV_MAX_DOUBLINGS):
            step = sym(F @ X @ F.T)
            X = X + step
            if not np.all(np.isfinite(X)):
                raise NoConvergence(k + 1, "Lyapunov doubling (diverged)")
            if spectral_norm(step) <= LYAPUNOV_TOL * spectral_norm(X):
                return X
            F = F @ F
    raise NoConvergence(LYAPUNOV_MAX_DOUBLINGS, "Lyapunov doubling")


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """Blocks of a joint SPD covariance over stacked (x, y) variables."""

    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray

    def __post_init__(self):
        xx = sym(np.atleast_2d(np.asarray(self.xx, dtype=float)))
        yy = sym(np.atleast_2d(np.asarray(self.yy, dtype=float)))
        xy = np.atleast_2d(np.asarray(self.xy, dtype=float))
        if xy.shape != (xx.shape[0], yy.shape[0]):
            raise NotPositiveDefinite("Phi", "block shapes are inconsistent")
        object.__setattr__(self, "xx", xx)
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "yy", yy)
        if not is_spd(self.assemble(), floor=0.0):
            raise NotPositiveDefinite("Phi", "assembled joint covariance")

    def assemble(self):
        return np.block([[self.xx, self.xy], [self.xy.T, self.yy]])

    @classmethod
    def from_joint(cls, Phi, n):
        Phi = np.asarray(Phi, dtype=float)
        return cls(xx=Phi[:n, :n], xy=Phi[:n, n:], yy=Phi[n:, n:])


def block_gaussian_update(phi, Y):
    """Blocks of Theta with Theta^-1 = Phi^-1 + blockdiag(0, Y).

    Theta_xx = Phi_xx - Phi_xy (Phi_yy + Y^-1)^-1 Phi_xy'
    Theta_xy = Phi_xy (I + Y Phi_yy)^-1
    Theta_yy = (Phi_yy^-1 + Y)^-1

    The xy block follows from Phi_xy Phi_yy^-1 Theta_yy; the factor order
    (I + Y Phi_yy)^-1 matters when Y and Phi_yy do not commute.
    """
    Y = require_spd(Y, "Y")
    m = phi.yy.shape[0]
    if Y.shape[0] != m:
        raise NotPositiveDefinite("Y", f"must be {m} x {m}")
    Yinv = np.linalg.inv(Y)
    theta_xx = sym(phi.xx - phi.xy @ np.linalg.solve(sym(phi.yy + Yinv), phi.xy.T))
    B = np.eye(m) + Y @ phi.yy
    theta_xy = np.linalg.solve(B.T, phi.xy.T).T
    theta_yy = sym(np.linalg.inv(sym(np.linalg.inv(phi.yy) + Y)))
    return BlockCovariance(xx=theta_xx, xy=theta_xy, yy=theta_yy)
