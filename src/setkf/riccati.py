"""Riccati maps in covariance and information form, and their fixed points.

For a plant (A, C, Q) and effective measurement-noise covariance W > 0:

    g_W(X)     = A X A' + Q - A X C' (C X C' + W)^-1 C X A'
    Gamma_W(S) = [A (S + C' W^-1 C)^-1 A' + Q]^-1

The two maps are dual: [Gamma_W(X^-1)]^-1 = g_W(X).  Both are monotone in
the Loewner order and, for detectable/stabilizable plants, iterate to a
unique positive-definite fixed point from any positive-definite start.
Each map P -> A (P^-1 + J)^-1 A' + C is an element (A, C, J), g_W being
(A, Q, C' W^-1 C) with :func:`information` as its J, and :func:`compose`
is their one composition: the harness's time-parallel scan composes an
element per step, while :func:`fixed_points` and :func:`lyapunov` (whose
element (F, Q, None) needs no solve) square a stack of elements, k doublings
covering 2^k iterates, at most 64 times, each element until its own stop at
its own tolerance, decided by entry bounds or, where they leave it open, by
an SVD.  :func:`ray_fixed_points` squares both kinds in one stack.

Also provides the block-Gaussian covariance identity used to absorb a
quadratic measurement weight into a joint covariance: for a joint SPD
covariance Phi partitioned into (x, y) blocks and Y > 0,

    Theta^-1 = Phi^-1 + blockdiag(0, Y)

has closed-form blocks computed by :func:`block_gaussian_update`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, SingularInnovation
from .matrices import require_size, require_spd, require_spd_stack, sym

FIXED_POINT_TOL = 1e-10
LYAPUNOV_TOL = 1e-12
MAX_DOUBLINGS = 64


@dataclass(frozen=True, eq=False)
class RiccatiMap:
    """A plant together with an effective measurement-noise covariance W."""

    model: object
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", require_spd(self.W, "W", size=self.model.m))


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


def _T(M):
    """The transpose of each matrix of a stack."""
    return M.swapaxes(-1, -2)


def compose(first, second):
    """The map P -> A (P^-1 + J)^-1 A' + C of the second (A, C, J) after the
    first: Sarkka and Garcia-Fernandez's filtering elements (IEEE TAC 66(1),
    2021) without their mean parts.  For n = 1 the same products, in the
    same order, are formed elementwise, with the same bits.  A second J of
    None stands for 0, as in the Lyapunov element (F, Q, None): I + C1 J2 is
    then I, so the solve is skipped and (A2 A1, A2 C1 A2' + C2, J1) is
    returned, the products of J = 0 in the same order, with the same bits."""
    A1, C1, J1 = first
    A2, C2, J2 = second
    n = A1.shape[-1]
    if J2 is None:
        mul = np.multiply if n == 1 else np.matmul
        return mul(A2, A1), sym(mul(mul(A2, C1), _T(A2)) + C2), J1
    if n == 1:
        D = 1 + C1 * J2
        XA, XC = A1 / D, C1 / D
        return A2 * XA, sym(A2 * XC * A2 + C2), sym(XA * J2 * A1 + J1)
    X = np.linalg.solve(np.eye(n) + C1 @ J2, np.concatenate([A1, C1], axis=-1))
    XA, XC = X[..., :n], X[..., n:]
    return A2 @ XA, sym(A2 @ XC @ _T(A2) + C2), sym(_T(XA) @ J2 @ A1 + J1)


def apply(maps, P):
    """The image of each P of a stack under its map (A, C, J), elementwise
    for n = 1 as in :func:`compose`."""
    A, C, J = maps
    if P.shape[-1] == 1:
        return sym(A * (P / (1 + P * J)) * A + C)
    return sym(A @ np.linalg.solve(np.eye(P.shape[-1]) + P @ J, P) @ _T(A) + C)


def _settled(step, C, tol):
    """Whether ||step||_2 <= tol ||C||_2 for each pair of a stack of symmetric
    n x n matrices and its tolerance, as one SVD of the stacked pairs
    decides.  The norm ratio lies in [rho / n, n rho], rho = max|step| /
    max|C| (a ratio, so nothing underflows), so these bounds decide with 1%
    to spare for rounding, and the SVD runs only when some pair falls
    between them."""
    n = C.shape[-1]
    rho = abs(step).max(axis=(-2, -1)) / abs(C).max(axis=(-2, -1))
    done = 1.01 * n * rho <= tol
    if (done | (rho > 1.01 * n * tol)).all():
        return done
    norms = np.linalg.svd(np.stack([step, C]), compute_uv=False)[..., 0]
    return norms[0] <= tol * norms[1]


def _doubling(element, tol, max_doublings, label):
    """C of each element (A, C, J) of a stack, squared until its C, its
    image of 0, changes by at most its tolerance relative to C in the 2-norm,
    as :func:`_settled` decides.  ``tol`` is an array of one tolerance per
    element, or one float for all.  J is a stack or None, which stays None.

    An element leaves the stack at its own stop doubling, so its value is
    that of a stack of one to the bit.  Raises NoConvergence on a singular
    step, on a C that is not finite, or after ``max_doublings`` doublings.
    """
    A, C, J = element
    out, live = np.empty(C.shape), np.arange(len(C))
    with np.errstate(all="ignore"):
        for k in range(max_doublings):
            try:
                squared = compose((A, C, J), (A, C, J))
            except np.linalg.LinAlgError:  # a zero pivot, as solve meets it
                raise NoConvergence(k + 1, f"{label} (singular step)") from None
            step, (A, C, J) = squared[1] - C, squared
            if not np.isfinite(C).all():
                raise NoConvergence(k + 1, f"{label} (diverged)")
            done = _settled(step, C, tol)
            if done.any():
                if done.all() and len(live) == len(out):
                    return sym(C)
                out[live[done]] = sym(C[done])
                A, C, live = A[~done], C[~done], live[~done]
                J = None if J is None else J[~done]
                tol = tol[~done] if isinstance(tol, np.ndarray) else tol
                if not len(live):
                    return out
    raise NoConvergence(max_doublings, label)


def fixed_points(model, W):
    """Unique positive-definite solution of X = g_W(X) for each W of a stack
    of symmetric matrices, by structured doubling.

    Squares the elements (A, Q, C' W^-1 C) of g_W (Chu, Fan, Lin & Wang
    2004) as one stack, each until its last increment falls below
    FIXED_POINT_TOL relative to its X.  The stack of W is checked once.
    Returns the stack of X, or raises the first failure, as a single solve
    does: NotPositiveDefinite for the first W that is not, or is not m x m,
    or NoConvergence on a singular step, on an iterate that stops being finite
    or after MAX_DOUBLINGS doublings, which signals ill-conditioning rather
    than non-existence.
    """
    require_spd_stack(W, "W", model.m)
    return _fixed_points(model, W)


def information(C, W):
    """C' W^-1 C, the information of a measurement with noise W, for each W of a stack."""
    return sym(C.T @ np.linalg.solve(W, C[None]))


def _elements(model, W):
    # the elements (A, Q, C' W^-1 C) of g_W for a stack of checked W
    return model.A[None].repeat(len(W), 0), model.Q[None].repeat(len(W), 0), information(model.C, W)


def _fixed_points(model, W):
    # fixed_points for a stack of checked W; compose squares stacks of equal height
    return _doubling(_elements(model, W), FIXED_POINT_TOL, MAX_DOUBLINGS, "Riccati doubling")


def ray_fixed_points(model, W):
    """The design ray's fixed points in one doubling stack: X0 = fix(g_R), its
    end at theta = inf (J = C'R^-1C); fix(g_W) for each W of a stack; and,
    for a stable plant, its end at theta = 0, the Lyapunov solution Sigma of
    X = A X A' + Q.

    Sigma is the element (A, Q, 0) at LYAPUNOV_TOL, which has the bits of
    :func:`lyapunov`'s (A, Q, None); the others are those of
    :func:`fixed_points` at FIXED_POINT_TOL.  Returns (X0, the stack of X,
    Sigma or None), or raises a failure of any of them as :func:`fixed_points`
    does, whose label it takes.
    """
    W = np.concatenate([model.R[None], W])
    require_spd_stack(W, "W", model.m)
    if model.rho_A >= 1.0:
        X = _fixed_points(model, W)
        return X[0], X[1:], None
    with np.errstate(over="ignore"):  # as in lyapunov
        Q = sym(model.Q)
    sigma = (model.A, Q, np.zeros_like(Q))
    element = tuple(np.concatenate([E, F[None]]) for E, F in zip(_elements(model, W), sigma))
    tol = np.append(np.full(len(W), FIXED_POINT_TOL), LYAPUNOV_TOL)
    X = _doubling(element, tol, MAX_DOUBLINGS, "Riccati doubling")
    return X[0], X[1:-1], X[-1]


def fixed_point(rmap):
    """Unique positive-definite solution of X = g_W(X) for the checked W of
    ``rmap``: :func:`fixed_points` on a stack of one, stopped at the same
    doubling and to the same bits as in any stack."""
    return _fixed_points(rmap.model, rmap.W[None])[0]


def lyapunov(F, Q):
    """Solution of X = F X F' + Q for a stable F, by Smith doubling.

    Squares the element (F, Q, None), k squarings summing the first 2^k
    terms of sum_i F^i Q (F^i)', with no solve (see :func:`compose`).  Stops
    when the last increment falls below LYAPUNOV_TOL relative to X.  Raises
    NotPositiveDefinite, the size error, for an F that is not square or a Q
    of another size (Q is not checked further), and NoConvergence when the
    sum stops being finite, which means rho(F) >= 1 up to rounding or a Q + Q'
    that overflows, or after MAX_DOUBLINGS doublings, which means rho(F) >= 1.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    require_size(F, "F", len(F))
    with np.errstate(over="ignore"):  # an infinite sym(Q) makes the first sum infinite
        Q = sym(require_size(np.atleast_2d(np.asarray(Q, dtype=float)), "Q", len(F)))
    element = (F[None], Q[None], None)
    return _doubling(element, LYAPUNOV_TOL, MAX_DOUBLINGS, "Lyapunov doubling")[0]


@dataclass(frozen=True, eq=False)
class BlockCovariance:
    """Blocks of a joint SPD covariance over stacked (x, y) variables."""

    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray

    def __post_init__(self):
        xx, xy, yy = (np.atleast_2d(np.asarray(M, float)) for M in (self.xx, self.xy, self.yy))
        n, m = len(xx), len(yy)
        if xx.shape != (n, n) or yy.shape != (m, m) or xy.shape != (n, m):
            raise NotPositiveDefinite("Phi", "block shapes are inconsistent")
        if not (np.isfinite(xx).all() and np.isfinite(xy).all() and np.isfinite(yy).all()):
            raise NotPositiveDefinite("Phi", "non-finite entries")
        with np.errstate(over="ignore"):  # an overflowing block fails require_spd
            object.__setattr__(self, "xx", sym(xx))
            object.__setattr__(self, "yy", sym(yy))
        object.__setattr__(self, "xy", xy)
        require_spd(self.assemble(), "Phi")

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
    m = phi.yy.shape[0]
    Y = require_spd(Y, "Y", size=m)
    Yinv = np.linalg.inv(Y)
    theta_xx = sym(phi.xx - phi.xy @ np.linalg.solve(sym(phi.yy + Yinv), phi.xy.T))
    B = np.eye(m) + Y @ phi.yy
    theta_xy = np.linalg.solve(B.T, phi.xy.T).T
    theta_yy = sym(np.linalg.inv(sym(np.linalg.inv(phi.yy) + Y)))
    return BlockCovariance(xx=theta_xx, xy=theta_xy, yy=theta_yy)
