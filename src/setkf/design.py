"""Event-parameter design: feasibility oracle, LMI certificate, ray search.

Design problem: choose the trigger weight Y > 0 minimizing the transmission
rate subject to the worst-case prediction covariance staying below a bound,
fix(g_{R+Y^-1}) < Delta0.  The rate objective is relaxed to tr(Pi Y), which
sandwiches the true optimum within the gap bound returned by
:func:`optimality_gap_bound`.

Two equivalent feasibility tests are provided: the direct fixed-point
comparison (:func:`feasibility_check`) and a matrix-inequality certificate
(:func:`lmi_feasible`) that assembles the two block matrices

    M1(S, Y) = [ Q^-1 - S + C'R^-1C   Q^-1 A          C'R^-1  ]
               [ A'Q^-1               A'Q^-1A + S     0       ]
               [ R^-1 C               0               Y + R^-1 ]

    M2(S)    = [ S   I      ]
               [ I   Delta0 ]

and checks one certificate S = X^-1 built from the worst-case fixed point
and a Lyapunov direction at it.  No general-purpose semidefinite solver is
used in-repo; :func:`export_lmi` emits the blocks in a plain-text sparse
format for external SDP tooling.

The search over all SPD Y is restricted to a ray Y = theta * B for a fixed
SPD basis B (default identity).  Feasibility is monotone along the ray, so
bisection finds the boundary; the objective tr(Pi Y) is increasing in theta,
so the boundary point is the ray optimum.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotPositiveDefinite, UnstableSystem
from .matrices import require_spd, smallest_eigenvalue, spectral_norm, sym
from .model import steady_state
from .riccati import RiccatiMap, fixed_point, lyapunov
from .analysis import drop_noise, open_loop_rate, conditional_rate

RAY_REL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """A plant with a worst-case covariance bound Delta0 and search basis."""

    model: object
    Delta0: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        D = require_spd(self.Delta0, "Delta0")
        if D.shape[0] != self.model.n:
            raise NotPositiveDefinite("Delta0", f"must be {self.model.n} x {self.model.n}")
        object.__setattr__(self, "Delta0", D)
        if self.basis is not None:
            B = require_spd(self.basis, "basis")
            if B.shape[0] != self.model.m:
                raise NotPositiveDefinite("basis", f"must be {self.model.m} x {self.model.m}")
            object.__setattr__(self, "basis", B)


@dataclass(frozen=True, eq=False)
class DesignResult:
    """Ray-optimal trigger weight with objective, rate and gap bound.

    ``objective`` and ``kappa_bound`` are None for unstable plants in the
    closed-loop variant, where the stationary Pi does not exist.
    """

    Y: np.ndarray
    theta: float
    objective: float | None
    gamma_achieved: float
    kappa_bound: float | None


def _strictness(Delta0):
    return 1e-9 * (1.0 + spectral_norm(Delta0))


def _worst_case_fp(model, W_eff):
    return fixed_point(RiccatiMap(model, W_eff))


def feasibility_check(model, Y, Delta0):
    """True iff fix(g_{R+Y^-1}) < Delta0 in the strict Loewner order."""
    if model.rho_A >= 1.0:
        raise UnstableSystem("open-loop design requires a stable system")
    Y = require_spd(Y, "Y")
    Delta0 = require_spd(Delta0, "Delta0")
    X_upper = _worst_case_fp(model, drop_noise(model.R, Y))
    return smallest_eigenvalue(Delta0 - X_upper) > _strictness(Delta0)


def assemble_lmi_blocks(model, Y, S, Delta0):
    """The two block matrices whose joint positive-definiteness certifies
    feasibility for the given S."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n, m = model.n, model.m
    Qi = sym(np.linalg.inv(Q))
    Ri = sym(np.linalg.inv(R))
    x, s, y = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m)
    M1 = np.zeros((2 * n + m, 2 * n + m))
    M1[x, x] = Qi - S + C.T @ Ri @ C
    M1[x, s] = Qi @ A
    M1[x, y] = C.T @ Ri
    M1[s, x] = A.T @ Qi
    M1[s, s] = A.T @ Qi @ A + S
    M1[y, x] = Ri @ C
    M1[y, y] = Y + Ri
    M2 = np.zeros((2 * n, 2 * n))
    M2[x, x] = S
    M2[x, s] = M2[s, x] = np.eye(n)
    M2[s, s] = Delta0
    return sym(M1), sym(M2)


def _is_pd(M):
    try:
        np.linalg.cholesky(sym(M))
        return True
    except np.linalg.LinAlgError:
        return False


def _posterior_image(model, X, W_eff):
    M = sym(model.C @ X @ model.C.T + W_eff)
    return sym(X - X @ model.C.T @ np.linalg.solve(M, model.C @ X))


def lmi_feasible(model, Y, Delta0):
    """Feasibility via the block-matrix certificate.

    With F the closed-loop matrix of the Riccati map at the worst-case fixed
    point X_upper, the direction D solving F D F' = D - I keeps the map
    strictly contractive when the fixed point is perturbed along it.  Let
    eps* be the largest step with X_upper + eps* D <= Delta0; the one
    candidate is S = X^-1 with X the posterior image of X_upper + eps*/2 D,
    checked on the Schur pair (M1, M2).  When Delta0 - X_upper is not
    positive definite no step exists and the answer is False, so the result
    agrees with :func:`feasibility_check`.
    """
    if model.rho_A >= 1.0:
        raise UnstableSystem("open-loop design requires a stable system")
    Y = require_spd(Y, "Y")
    Delta0 = require_spd(Delta0, "Delta0")
    W_eff = drop_noise(model.R, Y)
    X_upper = _worst_case_fp(model, W_eff)
    try:
        L = np.linalg.cholesky(sym(Delta0 - X_upper))
    except np.linalg.LinAlgError:
        return False
    A, C = model.A, model.C
    K = np.linalg.solve(sym(C @ X_upper @ C.T + W_eff), C @ X_upper @ A.T).T
    D = lyapunov(A - K @ C, np.eye(model.n))
    Linv = np.linalg.inv(L)
    eps_star = 1.0 / float(np.linalg.eigvalsh(sym(Linv @ D @ Linv.T))[-1])
    X = _posterior_image(model, sym(X_upper + (0.5 * eps_star) * D), W_eff)
    M1, M2 = assemble_lmi_blocks(model, Y, sym(np.linalg.inv(X)), Delta0)
    return _is_pd(M1) and _is_pd(M2)


def _ray_boundary(feasible, theta_max_cap=1e15):
    """Bisect the monotone feasibility boundary along the ray.

    ``feasible(theta)`` must be False below and True above the boundary.
    Returns the feasible-side boundary estimate to RAY_REL_TOL.
    """
    theta_min = 1e-12
    if feasible(theta_min):
        return theta_min
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > theta_max_cap:
            raise Infeasible("no feasible trigger weight found on the ray")
    lo = hi / 2.0
    while lo > theta_min and feasible(lo):
        hi = lo
        lo /= 2.0
    lo = max(lo, theta_min)
    while (hi - lo) > RAY_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def optimality_gap_bound(Pi, Y):
    """Upper bound on the rate lost by the trace relaxation.

    (1 + tr(Pi Y))^(-1/2) - det(I + Pi Y)^(-1/2); zero when m = 1.
    """
    Pi = require_spd(Pi, "Pi")
    Y = require_spd(Y, "Y")
    t = float(np.trace(Pi @ Y))
    sign, logdet = np.linalg.slogdet(np.eye(Pi.shape[0]) + Pi @ Y)
    val = (1.0 + t) ** -0.5 - float(np.exp(-0.5 * logdet))
    return max(val, 0.0)


def _check_floor(model, Delta0):
    X0 = fixed_point(RiccatiMap(model, model.R))
    if smallest_eigenvalue(Delta0 - X0) <= _strictness(Delta0):
        raise Infeasible(
            "Delta0 must exceed the always-transmit fixed point; no trigger weight can satisfy it"
        )


def design_search(problem):
    """Minimal-objective Y on the ray Y = theta * basis for the open loop.

    Bisects theta to the feasibility boundary (the constraint is active
    there unless Delta0 is slack even for theta -> 0).  Requires a stable
    plant for the rate objective.
    """
    model = problem.model
    if model.rho_A >= 1.0:
        raise UnstableSystem("open-loop design requires a stable system")
    _check_floor(model, problem.Delta0)
    B = np.eye(model.m) if problem.basis is None else problem.basis
    st = steady_state(model)

    def feas(theta):
        return feasibility_check(model, theta * B, problem.Delta0)

    theta = _ray_boundary(feas)
    Y = sym(theta * B)
    gamma = open_loop_rate(st, Y)
    objective = float(np.trace(st.Pi @ Y))
    kappa = optimality_gap_bound(st.Pi, Y)
    return DesignResult(
        Y=Y, theta=theta, objective=objective, gamma_achieved=gamma, kappa_bound=kappa
    )


def design_search_closed_loop(problem):
    """Closed-loop analogue: bisects against fix(g_{R+Z^-1}) and reports the
    upper rate bound as the achieved rate.  Works for unstable plants, in
    which case the stationary objective and gap bound are unavailable."""
    model = problem.model
    _check_floor(model, problem.Delta0)
    B = np.eye(model.m) if problem.basis is None else problem.basis
    margin = _strictness(problem.Delta0)

    def feas(theta):
        Z = theta * B
        X_upper = _worst_case_fp(model, drop_noise(model.R, Z))
        return smallest_eigenvalue(problem.Delta0 - X_upper) > margin

    theta = _ray_boundary(feas)
    Z = sym(theta * B)
    X_upper = _worst_case_fp(model, drop_noise(model.R, Z))
    gamma = conditional_rate(model, X_upper, Z)
    if model.rho_A < 1.0:
        st = steady_state(model)
        objective = float(np.trace(st.Pi @ Z))
        kappa = optimality_gap_bound(st.Pi, Z)
    else:
        objective = None
        kappa = None
    return DesignResult(
        Y=Z, theta=theta, objective=objective, gamma_achieved=gamma, kappa_bound=kappa
    )


def delta0_for_lambda_max_bound(c, n):
    """Delta0 encoding the constraint lambda_max(X_upper) <= c (exact)."""
    if c <= 0:
        raise Infeasible("lambda_max bound must be positive")
    return c * np.eye(n)


def delta0_for_trace_bound(c, n):
    """Delta0 encoding tr(X_upper) <= c via the ball (c/n) I (conservative)."""
    if c <= 0:
        raise Infeasible("trace bound must be positive")
    return (c / n) * np.eye(n)


def export_lmi(model, Delta0, fh):
    """Write the design feasibility program in a sparse plain-text format.

    Decision variables are the upper triangles of S (n x n) and Y (m x m) in
    row-major order, indexed from 1; index 0 denotes the constant term.
    Lines:

        setkf-lmi v1
        n <n> m <m>
        svars <n(n+1)/2> yvars <m(m+1)/2>
        block 1 size <2n+m>
        block 2 size <2n>
        OBJ <var> <coef>          # minimize sum coef * var  (tr(Pi Y))
        F <block> <var> <row> <col> <value>

    Each block constraint reads  F_const + sum_v var_v * F_v > 0  with only
    upper-triangle entries listed (row <= col, 0-indexed).
    """
    Delta0 = require_spd(Delta0, "Delta0")
    st = steady_state(model)  # objective needs the stationary Pi
    n, m = model.n, model.m
    zero_S = np.zeros((n, n))
    zero_Y = np.zeros((m, m))

    def svar_index(i, j):
        # 1-based, upper triangle of S in row-major order
        return 1 + i * n - (i * (i - 1)) // 2 + (j - i)

    n_svars = n * (n + 1) // 2
    n_yvars = m * (m + 1) // 2

    lines = [
        "setkf-lmi v1",
        f"n {n} m {m}",
        f"svars {n_svars} yvars {n_yvars}",
        f"block 1 size {2 * n + m}",
        f"block 2 size {2 * n}",
    ]
    # objective tr(Pi Y) over upper-triangle Y vars
    v = n_svars
    for i in range(m):
        for j in range(i, m):
            v += 1
            coef = float(st.Pi[i, i]) if i == j else 2.0 * float(st.Pi[i, j])
            lines.append(f"OBJ {v} {coef!r}")

    def emit(block, var, M):
        for r in range(M.shape[0]):
            for c in range(r, M.shape[1]):
                val = float(M[r, c])
                if val != 0.0:
                    lines.append(f"F {block} {var} {r} {c} {val!r}")

    # constant terms
    M1c, M2c = assemble_lmi_blocks(model, zero_Y, zero_S, Delta0)
    emit(1, 0, M1c)
    emit(2, 0, M2c)
    # S basis coefficients
    var = 0
    for i in range(n):
        for j in range(i, n):
            var += 1
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            M1s, M2s = assemble_lmi_blocks(model, zero_Y, E, Delta0)
            emit(1, var, M1s - M1c)
            emit(2, var, M2s - M2c)
    # Y basis coefficients
    for i in range(m):
        for j in range(i, m):
            var += 1
            E = np.zeros((m, m))
            E[i, j] = E[j, i] = 1.0
            M1y, _ = assemble_lmi_blocks(model, E, zero_S, Delta0)
            emit(1, var, M1y - M1c)
    fh.write("\n".join(lines) + "\n")
