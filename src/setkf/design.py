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
SPD basis B (default identity).  Feasibility is monotone along the ray, and
the objective tr(Pi Y) is increasing in theta, so the feasibility boundary
is the ray optimum.  :func:`ray_search`, shared with the rate calibrations
in ``harness``, walks to it as bisection does, testing stacks of points:
its first round brackets theta = 1 from both sides, and later rounds add
two aimed by inverse quadratic interpolation of the test's scores.  Both
designs keep the feasible end of its bracket, to relative width
RAY_REL_TOL; the calibrations keep the midpoint, to relative width 1e-12.
A design's first round also solves the ray's ends in its stack: X0 =
fix(g_R) at theta = inf, which must lie below Delta0, and for a stable
plant the Lyapunov solution Sigma at theta = 0, which gives the objective's
Pi.  The closed-loop rate reads the round's fixed point at the weight
found, so a design solves every fixed point inside its rounds, one doubling
stack per round.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, NotPositiveDefinite, SetkfError, UnstableSystem
from .matrices import (
    as_number,
    require_size,
    require_spd,
    smallest_eigenvalue,
    spectral_norm,
    sym,
)
from .model import stationary, steady_state
from .riccati import RiccatiMap, fixed_point, fixed_points, lyapunov, ray_fixed_points
from .analysis import conditional_rates, inverse_root_det, open_loop_rate, upper_rates
from .estimation import drop_noises, measurement_update

RAY_REL_TOL = 1e-8
# the ray theta * B is searched on [RAY_FLOOR, RAY_CAP]
RAY_FLOOR = 1e-12
RAY_CAP = 1e15
RAY_MAX_BISECTIONS = 200
# a round of the ray search tests 2^RAY_TREE_DEPTH - 1 points of its walk in
# one stack, and after the first round two more, aimed at the scores' root
RAY_TREE_DEPTH = 3


def ray_basis(basis, m):
    """The basis B of the ray theta * B: the m x m identity for None, else
    ``basis`` symmetrized, which must be m x m and positive-definite."""
    return np.eye(m) if basis is None else require_spd(basis, "basis", size=m)


@dataclass(frozen=True, eq=False)
class DesignProblem:
    """A plant with a worst-case covariance bound Delta0 and search basis."""

    model: object
    Delta0: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "Delta0", require_spd(self.Delta0, "Delta0", size=self.model.n))
        object.__setattr__(self, "basis", ray_basis(self.basis, self.model.m))


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


def _below_bound(X, Delta0, margin):
    """For each X of a stack, whether lambda_min(Delta0 - X) > margin, and the
    score lambda_min - margin."""
    score = np.linalg.eigvalsh(sym(Delta0 - X))[:, 0] - margin
    return score > 0.0, score


def feasibility_check(model, Y, Delta0):
    """True iff fix(g_{R+Y^-1}) < Delta0 in the strict Loewner order."""
    if model.rho_A >= 1.0:
        raise UnstableSystem("open-loop design requires a stable system")
    Y = require_spd(Y, "Y", size=model.m)
    Delta0 = require_spd(Delta0, "Delta0", size=model.n)
    X = fixed_points(model, drop_noises(model.R, Y[None]))
    return bool(_below_bound(X, Delta0, _strictness(Delta0))[0][0])


def assemble_lmi_blocks(model, Y, S, Delta0):
    """The two block matrices whose joint positive-definiteness certifies
    feasibility for the given S; Y must be m x m, S and Delta0 n x n."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n, m = model.n, model.m
    Qi = sym(np.linalg.inv(Q))
    Ri = sym(np.linalg.inv(R))
    x, s, y = slice(0, n), slice(n, 2 * n), slice(2 * n, 2 * n + m)
    M1 = np.zeros((2 * n + m, 2 * n + m))
    M1[x, x] = Qi - require_size(S, "S", n) + C.T @ Ri @ C
    M1[x, s] = Qi @ A
    M1[x, y] = C.T @ Ri
    M1[s, x] = A.T @ Qi
    M1[s, s] = A.T @ Qi @ A + S
    M1[y, x] = Ri @ C
    M1[y, y] = require_size(Y, "Y", m) + Ri
    M2 = np.zeros((2 * n, 2 * n))
    M2[x, x] = S
    M2[x, s] = M2[s, x] = np.eye(n)
    M2[s, s] = require_size(Delta0, "Delta0", n)
    return sym(M1), sym(M2)


def lmi_feasible(model, Y, Delta0):
    """Feasibility via the block-matrix certificate.

    With F the closed-loop matrix of the Riccati map at the worst-case fixed
    point X_upper, the direction D solving F D F' = D - I keeps the map
    strictly contractive when the fixed point is perturbed along it.  Let
    eps* be the largest step with X_upper + eps* D <= Delta0; the one
    candidate is S = X^-1 with X the posterior image of X_upper + eps*/2 D,
    checked on the Schur pair (M1, M2).  F and X take the gain and the
    covariance of a drop from :func:`estimation.measurement_update`.  When
    lambda_min(Delta0 - X_upper) does not exceed the strictness margin of
    :func:`feasibility_check` the answer is False, as there, so the two
    agree.
    """
    if model.rho_A >= 1.0:
        raise UnstableSystem("open-loop design requires a stable system")
    Y = require_spd(Y, "Y", size=model.m)
    Delta0 = require_spd(Delta0, "Delta0", size=model.n)
    (W_eff,) = drop_noises(model.R, Y[None])
    X_upper = fixed_point(RiccatiMap(model, W_eff))
    if not smallest_eigenvalue(Delta0 - X_upper) > _strictness(Delta0):
        return False
    try:
        L = np.linalg.cholesky(sym(Delta0 - X_upper))
    except np.linalg.LinAlgError:
        return False
    # the update of a drop, whose measurement 0 has the noise W_eff
    drop = (0.0, np.zeros((1, model.m, 1)), np.zeros(1, dtype=bool), W_eff)
    K = measurement_update(model, X_upper[None], *drop)[2][0]
    D = lyapunov(model.A @ (np.eye(model.n) - K @ model.C), np.eye(model.n))
    Linv = np.linalg.inv(L)
    eps_star = 1.0 / float(np.linalg.eigvalsh(sym(Linv @ D @ Linv.T))[-1])
    X = measurement_update(model, sym(X_upper + (0.5 * eps_star) * D)[None], *drop)[1][0]
    M1, M2 = assemble_lmi_blocks(model, Y, sym(np.linalg.inv(X)), Delta0)
    try:
        require_spd(M1, "M1")
        require_spd(M2, "M2")
    except NotPositiveDefinite:
        return False
    return True


def ray_search(test, rel_tol, lo=None):
    """Bracket and bisect the point where a monotone test flips on the ray.

    ``test(thetas)`` gets a stack of theta in [RAY_FLOOR, RAY_CAP] and gives
    for each its verdict, False below its boundary and True above it, and a
    signed score that estimates its distance from the boundary.  The floor
    is tested first.  The upper end then starts at 1 and doubles while the
    test fails.  The lower end starts at ``lo``, by default one halving
    below the upper end; when the test holds at 1 it halves while the test
    still holds, taking the upper end along, and stops at the floor.
    Bisection then halves the bracket until ``hi - lo <= rel_tol * hi``, at
    most RAY_MAX_BISECTIONS times.  A point at or above a tested one that
    holds holds, at or below one that fails fails; any other starts a round,
    one call of ``test`` on up to 2^RAY_TREE_DEPTH - 1 points of the walk.
    The first round tests the floor and both chains the walk may ask next,
    as many doublings from 1 as halvings from 1/2; a later one tests the
    point asked and the next doublings, halvings or RAY_TREE_DEPTH tree
    levels, and the ends of the walk's bracket were the boundary at the
    root, in 1/theta, of the tested scores: by inverse quadratic
    interpolation through the three tested points of smallest |score|, or
    by the secant through the two of smallest when two of the three scores
    are equal or that root is not in (0, inf).  The aim picks which points
    a round tests, never the walk's answers.  A failure of
    ``test`` raises at any point of a round.  Returns the bracket ``(lo, hi)``,
    ``(0, RAY_FLOOR)`` when the test holds at the floor and with ``hi`` inf
    when it fails at RAY_CAP.  Each caller keeps its own end of it.
    """
    scores = {}
    edge = [0.0, math.inf]  # the highest tested point that fails, the lowest that holds

    def implied(theta):
        return True if theta >= edge[1] else False if theta <= edge[0] else None

    def aim():
        # the root u in 1/theta of the three tested points of smallest |score|
        # by inverse quadratic interpolation, else the two's secant root
        (t1, f1), (t2, f2), (t3, f3) = sorted(scores.items(), key=lambda item: abs(item[1]))[:3]
        x1, x2, x3 = 1.0 / t1, 1.0 / t2, 1.0 / t3
        u = 0.0
        if f1 != f2 and f1 != f3 and f2 != f3:
            u = (
                x1 * (f2 / (f1 - f2)) * (f3 / (f1 - f3))
                + x2 * (f1 / (f2 - f1)) * (f3 / (f2 - f3))
                + x3 * (f1 / (f3 - f1)) * (f2 / (f3 - f2))
            )
        if not 0.0 < u < math.inf and f1 != f2:
            u = x1 - f1 * (x2 - x1) / (f2 - f1)

        def guess(theta, fill):
            return theta * u >= 1.0 if implied(theta) is None else implied(theta)

        return walk(guess, lo) if 0.0 < u < math.inf else ()

    def holds(theta, fill):
        if implied(theta) is None:
            fresh = [t for t in fill() if implied(t) is None][: 2**RAY_TREE_DEPTH - 1]
            ends = [t for t in aim() if t <= RAY_CAP and implied(t) is None] if scores else []
            thetas = list(dict.fromkeys(fresh + ends))
            verdicts, values = test(np.array(thetas))
            for t, verdict, value in zip(thetas, verdicts, values):
                scores[t] = float(value)
                edge[bool(verdict)] = (min if verdict else max)(edge[bool(verdict)], t)
        return implied(theta)

    def chain(t, factor):
        points = (t * factor**i for i in range(2**RAY_TREE_DEPTH))
        return [s for s in points if RAY_FLOOR < s <= RAY_CAP]

    side = 2 ** (RAY_TREE_DEPTH - 1) - 1  # the first round's doublings, and its halvings

    def tree(lo, hi, depth):
        if depth == 0 or hi - lo <= rel_tol * hi:
            return []
        mid = 0.5 * (lo + hi)
        return [mid, *tree(lo, mid, depth - 1), *tree(mid, hi, depth - 1)]

    def walk(answer, lo):
        if answer(RAY_FLOOR, lambda: [RAY_FLOOR, *chain(1.0, 2.0)[:side], *chain(0.5, 0.5)[:side]]):
            return 0.0, RAY_FLOOR
        hi = 1.0
        while not answer(hi, lambda: chain(hi, 2.0)):
            hi *= 2.0
            if hi > RAY_CAP:
                return hi / 2.0, math.inf
        if lo is None:
            lo = hi / 2.0
        if hi == 1.0:  # after a doubling the test failed at hi / 2, so at every lo <= hi / 2
            while lo > RAY_FLOOR and answer(lo, lambda: chain(lo, 0.5)):
                hi, lo = lo, lo / 2.0
        lo = max(lo, RAY_FLOOR)
        for _ in range(RAY_MAX_BISECTIONS):
            if hi - lo <= rel_tol * hi:
                break
            mid = 0.5 * (lo + hi)
            if answer(mid, lambda: tree(lo, hi, RAY_TREE_DEPTH)):
                hi = mid
            else:
                lo = mid
        return lo, hi

    return walk(holds, lo)


def optimality_gap_bound(Pi, Y):
    """Upper bound on the rate lost by the trace relaxation.

    (1 + tr(Pi Y))^(-1/2) - det(I + Pi Y)^(-1/2); zero when m = 1.
    """
    Pi = require_spd(Pi, "Pi")
    Y = require_spd(Y, "Y", size=Pi.shape[0])
    t = float(np.trace(Pi @ Y))
    val = (1.0 + t) ** -0.5 - float(inverse_root_det(Pi @ Y))
    return max(val, 0.0)


def _first_round(model, W, Delta0, margin):
    """fix(g_W) for the stack of W of the ray search's first round, with the
    ray's ends X0 and, for a stable plant, Sigma solved in the same stack
    (:func:`riccati.ray_fixed_points`); returns the stack of X and Sigma,
    None for an unstable plant or when the stack failed.  Raises Infeasible
    when X0 is not below Delta0 by ``margin``.

    When the stack fails, X0, the round and (later, in :func:`steady_state`)
    Sigma are solved apart, in that order, so that each failure, and the
    floor before the round's, raises as in a search that solves them apart.
    """
    try:
        X0, X, Sigma = ray_fixed_points(model, W)
    except (SetkfError, ArithmeticError, np.linalg.LinAlgError, RuntimeWarning):
        X0, X, Sigma = fixed_point(RiccatiMap(model, model.R)), None, None
    if smallest_eigenvalue(Delta0 - X0) <= margin:
        raise Infeasible(
            "Delta0 must exceed the always-transmit fixed point; no trigger weight can satisfy it"
        )
    return (fixed_points(model, W) if X is None else X), Sigma


def _ray_design(problem, rate):
    """Ray search to the feasible end, and the result.

    The search's first round also solves the ray's ends: X0, checked
    against Delta0 before any point is, and for a stable plant the Lyapunov
    solution Sigma, from which :func:`model.stationary` forms the
    objective's statistics.  ``rate(st, Y, X)`` is the reported rate; ``st``
    is the stationary statistics, None for an unstable plant, and ``X`` the
    search's fixed point at Y, None when it never tested Y.
    """
    model, Delta0, B = problem.model, problem.Delta0, problem.basis
    margin = _strictness(Delta0)
    solved = {}  # theta: fix(g_{R+(theta B)^-1}) at each tested theta, and Sigma at 0

    def below(thetas):
        W = drop_noises(model.R, thetas[:, None, None] * B)
        if solved:
            X = fixed_points(model, W)
        else:
            X, solved[0.0] = _first_round(model, W, Delta0, margin)
        solved.update(zip(thetas.tolist(), X))
        return _below_bound(X, Delta0, margin)

    _, theta = ray_search(below, RAY_REL_TOL)
    if theta == math.inf:
        raise Infeasible("no feasible trigger weight found on the ray")
    Y = sym(theta * B)
    if model.rho_A < 1.0:
        st = steady_state(model) if solved[0.0] is None else stationary(model, solved[0.0])
        objective = float(np.trace(st.Pi @ Y))
        kappa = optimality_gap_bound(st.Pi, Y)
    else:
        st = objective = kappa = None
    # the search solved theta B, which is Y unless 2 theta B overflows
    X = solved.get(theta) if np.array_equal(Y, theta * B) else None
    return DesignResult(
        Y=Y, theta=theta, objective=objective, gamma_achieved=rate(st, Y, X), kappa_bound=kappa
    )


def design_search(problem):
    """Minimal-objective Y on the ray Y = theta * basis for the open loop.

    Searches theta to the feasibility boundary (the constraint is active
    there unless Delta0 is slack even at the ray's floor).  Requires a
    stable plant for the rate objective.
    """
    if problem.model.rho_A >= 1.0:
        raise UnstableSystem("open-loop design requires a stable system")
    return _ray_design(problem, lambda st, Y, X: open_loop_rate(st, Y))


def design_search_closed_loop(problem):
    """Closed-loop analogue: the same search, reporting the upper rate bound
    at fix(g_{R+Z^-1}) as the achieved rate, from the fixed point the search
    solved at Z (solved again only if it never tested Z).  Works for unstable
    plants, in which case the stationary objective and gap bound are
    unavailable."""
    model = problem.model

    def rate(st, Z, X):
        if X is None:
            return upper_rates(model, np.ones(1), Z)[0]
        return conditional_rates(model, X[None], Z[None])[0]

    return _ray_design(problem, rate)


def delta0_for_lambda_max_bound(c, n):
    """Delta0 encoding the constraint lambda_max(X_upper) <= c (exact)."""
    c = as_number(c, "lambda_max bound")
    n = as_number(n, "n", integer=True, lo=1)
    if c <= 0:
        raise Infeasible("lambda_max bound must be positive")
    return c * np.eye(n)


def delta0_for_trace_bound(c, n):
    """Delta0 encoding tr(X_upper) <= c via the ball (c/n) I (conservative)."""
    c = as_number(c, "trace bound")
    n = as_number(n, "n", integer=True, lo=1)
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
    Delta0 = DesignProblem(model, Delta0).Delta0  # checked as the search checks it
    st = steady_state(model)  # objective needs the stationary Pi
    n, m = model.n, model.m
    s_pairs = [(i, j) for i in range(n) for j in range(i, n)]
    y_pairs = [(i, j) for i in range(m) for j in range(i, m)]

    lines = [
        "setkf-lmi v1",
        f"n {n} m {m}",
        f"svars {len(s_pairs)} yvars {len(y_pairs)}",
        f"block 1 size {2 * n + m}",
        f"block 2 size {2 * n}",
    ]
    # objective tr(Pi Y) over upper-triangle Y vars
    for v, (i, j) in enumerate(y_pairs, start=len(s_pairs) + 1):
        coef = float(st.Pi[i, i]) if i == j else 2.0 * float(st.Pi[i, j])
        lines.append(f"OBJ {v} {coef!r}")
    # constant terms
    M1c, M2c = assemble_lmi_blocks(model, np.zeros((m, m)), np.zeros((n, n)), Delta0)
    for block, M in ((1, M1c), (2, M2c)):
        for r in range(M.shape[0]):
            for c in range(r, M.shape[1]):
                val = float(M[r, c])
                if val != 0.0:
                    lines.append(f"F {block} 0 {r} {c} {val!r}")
    # S_ij enters -S and +S in block 1 and S in block 2; Y_ij enters Y + R^-1
    for v, (i, j) in enumerate(s_pairs, start=1):
        lines += [f"F 1 {v} {i} {j} -1.0", f"F 1 {v} {n + i} {n + j} 1.0", f"F 2 {v} {i} {j} 1.0"]
    for v, (i, j) in enumerate(y_pairs, start=len(s_pairs) + 1):
        lines.append(f"F 1 {v} {2 * n + i} {2 * n + j} 1.0")
    fh.write("\n".join(lines) + "\n")
