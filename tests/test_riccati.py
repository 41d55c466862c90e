import dataclasses
import warnings

import numpy as np
import pytest

from setkf import (
    BlockCovariance,
    ModelValidationError,
    NoConvergence,
    NotPositiveDefinite,
    RiccatiMap,
    block_gaussian_update,
    fixed_point,
    g_step,
    gamma_step,
    lyapunov,
    singer_scenario,
    validate_model,
)
from setkf import riccati
from setkf.analysis import drop_noise
from setkf.matrices import spectral_norm, sym
from setkf.riccati import apply, compose
from util import (
    SCALAR_EXPONENTS,
    apply_reference,
    compose_reference,
    dare_fixed_point,
    doubling_reference,
    doubling_single,
    loewner_leq,
    lyapunov_iteration,
    random_spd,
    random_stable_model,
    riccati_iteration,
    scalar_g_fixed_point,
    scalar_stack,
)

SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
# not detectable, so built past validate_model: a random walk nothing observes
UNOBSERVED_WALK = dataclasses.replace(SCALAR, A=np.array([[1.0]]), C=np.zeros((1, 1)))


def test_g_step_scalar_hand_value():
    rm = RiccatiMap(SCALAR, [[1.0]])
    out = g_step([[2.0]], rm)
    # 0.64*2 + 1 - 0.64*4/3
    assert out[0, 0] == pytest.approx(1.42667, abs=1e-5)


def test_g_step_large_noise_is_pure_prediction():
    rm = RiccatiMap(SCALAR, [[1e12]])
    out = g_step([[2.0]], rm)
    assert out[0, 0] == pytest.approx(0.64 * 2 + 1, abs=1e-6)


def test_g_step_no_measurement_channel():
    m = validate_model(np.diag([0.5, 0.4]), np.zeros((1, 2)), np.eye(2), 1.0, np.eye(2))
    rm = RiccatiMap(m, [[1.0]])
    X = random_spd(np.random.default_rng(1), 2)
    np.testing.assert_allclose(g_step(X, rm), m.A @ X @ m.A.T + m.Q, atol=1e-12)


def test_gamma_step_duality_scalar():
    rm = RiccatiMap(SCALAR, [[1.0]])
    out = gamma_step([[0.5]], rm)
    assert out[0, 0] == pytest.approx(1.0 / 1.42667, abs=1e-5)


def test_gamma_step_fixed_point_duality():
    rm = RiccatiMap(SCALAR, [[1.0]])
    X_star = fixed_point(rm)
    S = np.linalg.inv(X_star)
    np.testing.assert_allclose(gamma_step(S, rm), S, atol=1e-9)


def test_gamma_step_no_measurement_channel():
    m = validate_model(np.diag([0.5, 0.4]), np.zeros((1, 2)), np.eye(2), 1.0, np.eye(2))
    rm = RiccatiMap(m, [[1.0]])
    S = random_spd(np.random.default_rng(2), 2)
    expected = np.linalg.inv(m.A @ np.linalg.inv(S) @ m.A.T + m.Q)
    np.testing.assert_allclose(gamma_step(S, rm), expected, atol=1e-10)


def test_duality_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = random_stable_model(rng)
        rm = RiccatiMap(m, random_spd(rng, m.m))
        X = random_spd(rng, m.n)
        lhs = np.linalg.inv(gamma_step(np.linalg.inv(X), rm))
        rhs = g_step(X, rm)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_fixed_point_scalar_quadratic_oracle():
    for w, expected in ((1.0, 1.36995), (2.0, 1.56113)):
        rm = RiccatiMap(SCALAR, [[w]])
        X = fixed_point(rm)
        assert X[0, 0] == pytest.approx(scalar_g_fixed_point(0.8, 1.0, 1.0, w), abs=1e-8)
        assert X[0, 0] == pytest.approx(expected, abs=1e-5)
        X_oracle = dare_fixed_point(0.8, 1.0, 1.0, w)
        assert X_oracle[0, 0] == pytest.approx(scalar_g_fixed_point(0.8, 1.0, 1.0, w), abs=1e-10)


def test_dare_oracle_matches_fixed_point_random():
    # the eigenvector oracle needs an invertible A
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 10:
        m = random_stable_model(rng)
        if np.linalg.cond(m.A) > 1e6:
            continue
        W = random_spd(rng, m.m)
        X = fixed_point(RiccatiMap(m, W))
        X_oracle = dare_fixed_point(m.A, m.C, m.Q, W)
        assert np.abs(X - X_oracle).max() <= 1e-8 * max(1.0, np.abs(X).max())
        checked += 1


def test_fixed_point_residual_contract():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = random_stable_model(rng)
        rm = RiccatiMap(m, random_spd(rng, m.m))
        X = fixed_point(rm)
        res = np.linalg.norm(g_step(X, rm) - X, 2)
        assert res <= 1e-9 * np.linalg.norm(X, 2)


def test_fixed_point_no_convergence_signal():
    # A = 1, C = 0: each doubling doubles X, so its increment never shrinks
    rm = RiccatiMap(UNOBSERVED_WALK, [[1.0]])
    with pytest.raises(NoConvergence):
        fixed_point(rm)


def test_fixed_point_matches_plain_iteration():
    rng = np.random.default_rng(22)
    for _ in range(30):
        m = random_stable_model(rng, rho_max=0.99)
        rm = RiccatiMap(m, random_spd(rng, m.m))
        X = fixed_point(rm)
        ref = riccati_iteration(rm, tol=1e-13)
        assert np.linalg.norm(X - ref, 2) <= 1e-8 * np.linalg.norm(ref, 2)
        assert np.abs(X - X.T).max() == 0.0


def _near_unit_model(rng):
    # spectral radius 1 - eps with eps in [1e-6, 1e-2]; invertible A for the
    # eigenvector oracle
    while True:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        A *= (1.0 - 10.0 ** rng.uniform(-6.0, -2.0)) / max(abs(np.linalg.eigvals(A)))
        if np.linalg.cond(A) > 1e6:
            continue
        try:
            return validate_model(
                A, rng.normal(size=(m, n)), random_spd(rng, n), random_spd(rng, m), np.eye(n)
            )
        except ModelValidationError:
            continue


def test_fixed_point_near_unit_root():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = _near_unit_model(rng)
        rm = RiccatiMap(m, m.R)
        X = fixed_point(rm)
        scale = np.linalg.norm(X, 2)
        assert np.linalg.norm(g_step(X, rm) - X, 2) <= 1e-12 * scale
        # the eigenvector oracle's own residual reaches ~1e-11 here
        X_oracle = dare_fixed_point(m.A, m.C, m.Q, m.R)
        assert np.linalg.norm(X - X_oracle, 2) <= 1e-6 * scale


@pytest.mark.parametrize("z_scale", [None, 0.52], ids=["W=R", "W=R+Z^-1"])
def test_fixed_point_singer_unit_root(z_scale):
    # rho(A) = 1: the plain iteration converges only through the filter gain
    m = singer_scenario(1.0, 0.01, 5.0, z_scale=0.52).model
    W = m.R if z_scale is None else drop_noise(m.R, z_scale * np.eye(3))
    X = fixed_point(RiccatiMap(m, W))
    X_oracle = dare_fixed_point(m.A, m.C, m.Q, W)
    assert np.linalg.norm(X - X_oracle, 2) <= 1e-10 * np.linalg.norm(X_oracle, 2)


@pytest.mark.parametrize(
    "A",
    [[[2.0]], [[1.0]], [[1.0, 1.0], [0.0, 1.0]]],
    ids=["unstable", "unit", "jordan"],
)
def test_fixed_point_undetectable_raises_without_warning(A):
    # no measurement channel on a non-stable A: validate_model rejects the
    # plant, so it is built around the validation
    A = np.array(A)
    n = A.shape[0]
    m = dataclasses.replace(SCALAR, A=A, C=np.zeros((1, n)), Q=np.eye(n), Sigma0=np.eye(n), n=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            fixed_point(RiccatiMap(m, [[1.0]]))


def test_lyapunov_matches_plain_iteration():
    rng = np.random.default_rng(21)
    for _ in range(30):
        m = random_stable_model(rng, rho_max=0.99)
        Q = random_spd(rng, m.n)
        X = lyapunov(m.A, Q)
        ref = lyapunov_iteration(m.A, Q)
        assert np.linalg.norm(X - ref, 2) <= 1e-9 * np.linalg.norm(ref, 2)
        assert np.abs(X - X.T).max() == 0.0


@pytest.mark.parametrize(
    "F",
    [[[1.0]], [[-1.0]], [[1.1]], [[1.0 + 1e-7]], [[1.0, 1.0], [0.0, 1.0]],
     [[0.0, -1.0], [1.0, 0.0]], [[3.0, 0.0], [0.0, 0.5]]],
)
def test_lyapunov_non_stable_raises_without_warning(F):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            lyapunov(F, np.eye(len(F)))


def test_lyapunov_overflowing_q_raises_without_warning():
    # Q + Q' overflows to inf, which the first doubling's sum carries
    F = [[0.5, 0.1], [0.0, 0.6]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence, match=r"Lyapunov doubling \(diverged\)"):
            lyapunov(F, [[1e308, 1e308], [1e308, 1e308]])


@pytest.mark.parametrize(
    "F, Q", [(np.ones((2, 3)), np.eye(2)), (0.5 * np.eye(2), np.eye(3))], ids=["F-2x3", "Q-3x3"]
)
def test_lyapunov_wrong_size_is_the_size_error(F, Q):
    with pytest.raises(NotPositiveDefinite, match="must be 2 x 2"):
        lyapunov(F, Q)


def _oracle_plant(rng, rho):
    """A random detectable plant with n <= 5, m <= 3 and rho(A) = rho."""
    while True:
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(n, n))
        A *= rho / max(abs(np.linalg.eigvals(A)))
        try:
            return validate_model(
                A, rng.normal(size=(m, n)), random_spd(rng, n), random_spd(rng, m), np.eye(n)
            )
        except ModelValidationError:
            continue


def _stack_of_one(single):
    """A doubling of one element as ``riccati._doubling`` of a stack of one."""

    def doubling(element, tol, max_doublings, label):
        element = tuple(None if part is None else part[0] for part in element)
        return single(element, tol, max_doublings, label)[None]

    return doubling


def test_doubling_matches_the_two_norm_stop_test(monkeypatch):
    # one SVD of the stacked pair stops where two norm calls stopped: the
    # same bits, the same compositions and the same failures on 420 plants,
    # stable, with rho(A) >= 0.999, and unstable
    compositions = []

    def counted(first, second):
        compositions.append(None)
        return compose(first, second)

    def solve(doubling, fn, *args, **kwargs):
        monkeypatch.setattr(riccati, "_doubling", doubling)
        compositions.clear()
        try:
            result = fn(*args, **kwargs)
        except NoConvergence as exc:
            result = str(exc)
        return result, len(compositions)

    monkeypatch.setattr(riccati, "compose", counted)
    doubling = riccati._doubling
    rng = np.random.default_rng(31)
    rhos = [
        *rng.uniform(0.05, 0.99, size=140),
        *(1.0 - 10.0 ** rng.uniform(-7.0, -3.0, size=140)),
        *rng.uniform(1.0001, 1.5, size=140),
    ]
    solves = 0
    for i, rho in enumerate(rhos):
        m = _oracle_plant(rng, rho)
        rm = RiccatiMap(m, random_spd(rng, m.m))
        if i % 3 == 0:
            random_spd(rng, m.n)  # a former start's draw, kept so that later draws are unchanged
        for fn, args, kwargs in (
            (riccati.fixed_point, (rm,), {}),
            (riccati.lyapunov, (m.A, m.Q), {}),
        ):
            got, got_count = solve(doubling, fn, *args, **kwargs)
            want, want_count = solve(_stack_of_one(doubling_reference), fn, *args, **kwargs)
            assert got_count == want_count > 0
            if isinstance(want, str):
                assert got == want
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want)
                solves += 1
    assert solves > 560


def _svd_rule(step, C, tol):
    # the former stop test of each element: one SVD of the stacked pair
    step_norm, x_norm = np.linalg.svd(np.stack([step, C]), compute_uv=False)[:, 0]
    return step_norm <= tol * x_norm


def _pairs_at_ratio(rng, n, ratio, magnitude):
    """(step, C) pairs with ||step||_2 = ratio ||C||_2 and max|C| near
    ``magnitude``: random, diagonal and rank-one shapes, so that the norm
    ratio meets both ends of its bounds in max|step| / max|C|."""
    ones, corner = np.ones((n, n)), np.zeros((n, n))
    corner[0, 0] = 1.0
    pairs = []
    for C in (random_spd(rng, n), np.eye(n), ones + np.eye(n)):
        C = C * (magnitude / np.abs(C).max())
        for S in (sym(rng.normal(size=(n, n))), ones, corner, -np.eye(n)):
            S = S * (ratio * np.linalg.norm(C, 2) / np.linalg.norm(S, 2))
            pairs.append((S, C))
    return pairs


@pytest.mark.parametrize("tol", [riccati.FIXED_POINT_TOL, riccati.LYAPUNOV_TOL])
def test_settled_matches_the_svd_rule(tol, monkeypatch):
    # norm ratios at tol (1 +- 1e-9), tol n (1 +- 0.02) and tol / n (1 +- 0.02),
    # C at 1e-300, 1 and 1e300: the entry bounds decide alone or leave it to
    # the SVD, and either way each element stops as under the SVD rule, in a
    # stack of one and in the mixed stack of all of them
    svd_calls = []

    def counted_svd(*args, **kwargs):
        svd_calls.append(None)
        return svd(*args, **kwargs)

    svd = np.linalg.svd
    rng = np.random.default_rng(70)
    paths = {"done": 0, "not done": 0, "svd": 0}
    for n in range(1, 7):
        for magnitude in (1e-300, 1.0, 1e300):
            pairs = [
                pair
                for factor in (1 - 1e-9, 1 + 1e-9, n * 0.98, n * 1.02, 0.98 / n, 1.02 / n)
                for pair in _pairs_at_ratio(rng, n, tol * factor, magnitude)
            ]
            want = [_svd_rule(step, C, tol) for step, C in pairs]
            monkeypatch.setattr(np.linalg, "svd", counted_svd)
            for (step, C), stops in zip(pairs, want):
                svd_calls.clear()
                got = riccati._settled(step[None], C[None], tol)
                assert got.shape == (1,) and got[0] == stops
                paths["svd" if svd_calls else "done" if stops else "not done"] += 1
            got = riccati._settled(*(np.stack(part) for part in zip(*pairs)), tol)
            monkeypatch.setattr(np.linalg, "svd", svd)
            assert got.tolist() == want
    assert min(paths.values()) >= 100, paths


def test_settled_rarely_needs_the_svd(monkeypatch):
    # on 24 plants with rho(A) in [0.99, 0.999], the entry bounds settle at
    # least 90% of the stop tests of their fixed points and Lyapunov solves
    rng = np.random.default_rng(71)
    plants = [_oracle_plant(rng, rho) for rho in np.linspace(0.99, 0.999, 24)]
    tests, svd_calls, svd, settled = [], [], np.linalg.svd, riccati._settled

    def counted_settled(*args):
        tests.append(None)
        return settled(*args)

    def counted_svd(*args, **kwargs):
        svd_calls.append(None)
        return svd(*args, **kwargs)

    monkeypatch.setattr(riccati, "_settled", counted_settled)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for m in plants:
        riccati.fixed_points(m, np.stack([m.R * scale for scale in (1.0, 1e2, 1e4)]))
        fixed_point(RiccatiMap(m, m.R))
        lyapunov(m.A, m.Q)
    assert len(tests) > 500 and len(svd_calls) <= 0.1 * len(tests), (len(svd_calls), len(tests))


def _doubling_elements(rng, count, n):
    """Riccati and Lyapunov elements of random plants of order n: stable,
    with rho(A) >= 0.999, unstable, and unobserved unstable ones, which
    diverge."""
    elements = []
    for i in range(count):
        rho = (
            rng.uniform(0.05, 0.99), 1.0 - 10.0 ** rng.uniform(-7, -3), rng.uniform(1.0001, 1.5)
        )[i % 3]
        A = rng.normal(size=(n, n))
        A *= rho / max(abs(np.linalg.eigvals(A)))
        C = rng.normal(size=(int(rng.integers(1, n + 1)), n)) * (i % 7 != 6)
        W = random_spd(rng, C.shape[0])
        J = C.T @ np.linalg.solve(W, C) if i % 5 else np.zeros((n, n))
        elements.append((A, random_spd(rng, n), sym(J)))
    return elements


def _stack(*elements):
    return tuple(np.stack(part) for part in zip(*elements))


def _first_failure(errors):
    """Of the errors of single doublings, the one that a stack of their
    elements raises: at the earliest doubling, and there a singular step
    before a C that is not finite before the cap."""

    def order(error):
        return error.max_iter, "singular" not in str(error), "diverged" not in str(error)

    return min(errors, key=order)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_doubling_matches_single_doubling(n):
    # a stack of 1 to 8 elements raises iff one of them raises alone, with
    # the error of the first to fail, and without the failing elements each
    # element equals its doubling alone to the bit, whatever the others do
    rng = np.random.default_rng(60 + n)
    elements = _doubling_elements(rng, 160, n)
    failures = solved = 0
    for tol, max_doublings in ((1e-10, 64), (1e-12, 64), (1e-10, 5)):
        start = 0
        while start < len(elements):
            size = int(rng.integers(1, 9))
            chunk = elements[start : start + size]
            start += size
            if not size % 2:
                random_spd(rng, n)  # a former offset's draw, kept so that later draws are unchanged
            good, wants, errors = [], [], []
            for element in chunk:
                try:
                    wants.append(doubling_single(element, tol, max_doublings, "label"))
                    good.append(element)
                except NoConvergence as exc:
                    errors.append(exc)
            if errors:
                with pytest.raises(NoConvergence) as exc:
                    riccati._doubling(_stack(*chunk), tol, max_doublings, "label")
                assert str(exc.value) == str(_first_failure(errors))
                failures += 1
            if good:
                X = riccati._doubling(_stack(*good), tol, max_doublings, "label")
                assert X.shape == (len(good), n, n)
                assert all(np.array_equal(x, want) for x, want in zip(X, wants))
                solved += len(good)
    assert failures >= 50 and solved >= 300, (failures, solved)


def test_stack_with_one_failing_element():
    # the second element needs more than four doublings, the third diverges:
    # the stack raises what the first element to fail raises alone
    fast = (np.array([[0.1]]), np.array([[1.0]]), np.array([[1.0]]))
    slow = (np.array([[0.9999]]), np.array([[1.0]]), np.array([[0.0]]))
    unstable = (np.array([[2.0]]), np.array([[1.0]]), np.array([[0.0]]))
    for max_doublings, failing, message in (
        (4, slow, "label did not converge within 4 doublings"),
        (64, unstable, r"label \(diverged\) did not converge"),
    ):
        with pytest.raises(NoConvergence, match=message) as alone:
            doubling_single(failing, 1e-10, max_doublings, "label")
        with pytest.raises(NoConvergence) as stacked:
            riccati._doubling(_stack(fast, slow, unstable, fast), 1e-10, max_doublings, "label")
        assert str(stacked.value) == str(alone.value)
    X = riccati._doubling(_stack(fast, slow, fast), 1e-10, 64, "label")
    for x, element in zip(X, (fast, slow, fast)):
        assert np.array_equal(x, doubling_single(element, 1e-10, 64, "label"))


def test_stack_with_one_singular_step():
    # I + C J = 0 for the second element: its step is singular, and so is
    # the stack's
    good = (np.array([[0.5, 0.1], [0.0, 0.3]]), np.eye(2), 0.5 * np.eye(2))
    singular = (0.5 * np.eye(2), np.eye(2), -np.eye(2))
    with pytest.raises(NoConvergence) as alone:
        doubling_single(singular, 1e-10, 64, "label")
    assert str(alone.value) == "label (singular step) did not converge within 1 doublings"
    with pytest.raises(NoConvergence) as stacked:
        riccati._doubling(_stack(good, singular, good), 1e-10, 64, "label")
    assert str(stacked.value) == str(alone.value)
    want = doubling_single(good, 1e-10, 64, "label")
    X = riccati._doubling(_stack(good, good), 1e-10, 64, "label")
    assert np.array_equal(X[0], want) and np.array_equal(X[1], want)


def test_fixed_points_match_single_solves():
    # every W of a good stack solves as alone; a stack with a bad W raises
    # the error RiccatiMap raises for it, naming W
    rng = np.random.default_rng(66)
    for _ in range(40):
        m = random_stable_model(rng, n_max=4, m_max=3)
        W = [random_spd(rng, m.m) for _ in range(int(rng.integers(1, 6)))]
        if rng.random() < 0.3:
            random_spd(rng, m.n)  # a former start's draw, kept so that later draws are unchanged
        bad = int(rng.integers(0, len(W) + 1))
        if bad < len(W):
            W[bad] = -W[bad]
            with pytest.raises(NotPositiveDefinite) as alone:
                RiccatiMap(m, W[bad])
            with pytest.raises(NotPositiveDefinite) as stacked:
                riccati.fixed_points(m, np.stack(W))
            assert stacked.value.which == "W" and str(stacked.value) == str(alone.value)
            continue
        X = riccati.fixed_points(m, np.stack(W))
        for w, x in zip(W, X):
            assert np.array_equal(x, fixed_point(RiccatiMap(m, w)))
    # two bad W: the first is named
    with pytest.raises(NotPositiveDefinite) as exc:
        riccati.fixed_points(SCALAR, np.array([[[-1.0]], [[np.nan]]]))
    assert str(exc.value) == (
        "matrix 'W' is not symmetric positive-definite (smallest eigenvalue <= 0 or asymmetric)"
    )


def test_spectral_norm_is_numpys_2_norm():
    rng = np.random.default_rng(32)
    for rows in range(1, 7):
        for cols in range(1, 7):
            for scale in (1e-300, 1.0, 1e5, 1e300):
                X = scale * rng.normal(size=(rows, cols))
                assert spectral_norm(X) == float(np.linalg.norm(X, 2))
                assert spectral_norm(X.T) == float(np.linalg.norm(X.T, 2))
            assert spectral_norm(np.zeros((rows, cols))) == 0.0
    assert spectral_norm(2.5) == float(np.linalg.norm([[2.5]], 2)) == 2.5


def _T(M):
    return M.swapaxes(-1, -2)


def _random_elements(rng, K, n):
    """K random Riccati-map elements (A, C, J), C > 0 and J >= 0 of rank 1..n."""
    A = rng.normal(size=(K, n, n))
    C = np.stack([random_spd(rng, n) for _ in range(K)])
    B = [rng.normal(size=(int(rng.integers(1, n + 1)), n)) for _ in range(K)]
    return A, C, np.stack([b.T @ b for b in B])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compose_is_the_second_map_after_the_first(n):
    # n = 1 takes the elementwise branch
    rng = np.random.default_rng(40 + n)
    first, second = _random_elements(rng, 50, n), _random_elements(rng, 50, n)
    P = np.stack([random_spd(rng, n) for _ in range(50)])
    lhs = apply(compose(first, second), P)
    rhs = apply(second, apply(first, P))
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()
    assert all(np.abs(f - _T(f)).max() == 0.0 for f in compose(first, second)[1:])


def test_squared_element_is_two_riccati_steps():
    rng = np.random.default_rng(45)
    models = [SCALAR] + [random_stable_model(rng) for _ in range(30)]
    assert {m.n for m in models} == {1, 2, 3, 4}
    for m in models:
        rm = RiccatiMap(m, random_spd(rng, m.m))
        element = (m.A, m.Q, m.C.T @ np.linalg.solve(rm.W, m.C))
        _, C2, _ = compose(element, element)
        ref = g_step(g_step(np.zeros((m.n, m.n)), rm), rm)
        assert np.abs(C2 - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compose_without_information_is_the_lyapunov_step(n):
    rng = np.random.default_rng(50 + n)
    F = rng.normal(size=(20, n, n))
    Q = np.stack([random_spd(rng, n) for _ in range(20)])
    A2, C2, J2 = compose((F, Q, np.zeros_like(Q)), (F, Q, np.zeros_like(Q)))
    np.testing.assert_allclose(A2, F @ F, rtol=1e-14, atol=0)
    np.testing.assert_allclose(C2, F @ Q @ _T(F) + Q, rtol=1e-14, atol=1e-14 * np.abs(C2).max())
    assert not J2.any()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_lyapunov_compose_skips_the_identity_solve_to_the_bit(n):
    # (F, Q, None) composes as the general branch with J = 0: the same bits,
    # signed zeros included, for magnitudes 1e-150..1e150 and F with exact
    # +0 and -0 entries, squared and after another element; J stays None
    rng = np.random.default_rng(80 + n)

    def element():
        F = rng.normal(size=(50, n, n)) * 10.0 ** rng.uniform(-150, 150, size=(50, n, n))
        zeros = rng.uniform(size=F.shape)
        F[zeros < 0.2], F[zeros > 0.8] = 0.0, -0.0
        Q = rng.normal(size=(50, n, n)) * 10.0 ** rng.uniform(-150, 150, size=(50, n, n))
        Q[rng.uniform(size=Q.shape) < 0.3] = -0.0
        return F, sym(Q)

    for first, second in ((element(),) * 2, (element(), element())):
        with np.errstate(all="ignore"):
            got = compose((*first, None), (*second, None))
            want = compose((*first, np.zeros_like(first[1])), (*second, np.zeros_like(second[1])))
        assert got[2] is None
        for g, w in zip(got[:2], want[:2]):
            assert g.shape == w.shape and np.array_equal(g.view(np.int64), w.view(np.int64))


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)


@pytest.mark.parametrize("lyapunov", [False, True], ids=["riccati", "lyapunov"])
@pytest.mark.parametrize("exponents", list(SCALAR_EXPONENTS))
def test_scalar_compose_and_apply_have_the_matrix_bits(exponents, lyapunov):
    # random 1 x 1 stacks of magnitudes 1e-300..1e300, near 1 and above
    # 8.99e307; J = 0 is the Lyapunov element (F, Q, 0)
    rng = np.random.default_rng(sorted(SCALAR_EXPONENTS).index(exponents) + 10 * lyapunov)
    span = SCALAR_EXPONENTS[exponents]
    first, second = (
        (
            scalar_stack(rng, [4000], span, signed=True),
            scalar_stack(rng, [4000], span),
            np.zeros((4000, 1, 1)) if lyapunov else scalar_stack(rng, [4000], span),
        )
        for _ in range(2)
    )
    P = scalar_stack(rng, [4000], span)
    with np.errstate(all="ignore"):
        _assert_same_bits(compose(first, second), compose_reference(first, second))
        _assert_same_bits([apply(first, P)], [apply_reference(first, P)])
        # the scan's stacks: (steps, runs, 1, 1), A broadcast from one matrix
        maps = tuple(f.reshape(2000, 2, 1, 1) for f in first)
        maps = (np.broadcast_to(first[0][:1], maps[1].shape),) + maps[1:]
        P = P.reshape(2000, 2, 1, 1)
        _assert_same_bits(compose(maps, maps), compose_reference(maps, maps))
        _assert_same_bits([apply(maps, P)], [apply_reference(maps, P)])


def test_scalar_sym_overflow_stays_inf():
    # A, J and P small enough that every value before sym is finite, C above
    # 8.99e307: sym's x + x overflows to inf on both forms
    rng = np.random.default_rng(60)
    small = scalar_stack(rng, [500], (-160.0, -10.0), signed=True)
    huge = scalar_stack(rng, [500], SCALAR_EXPONENTS["huge"])
    element = (small, huge, np.abs(small))
    with np.errstate(over="ignore"):
        got, want = compose(element, element), compose_reference(element, element)
        _assert_same_bits(got, want)
        assert np.isinf(got[1]).all() and np.isfinite(got[2]).all()
        image = apply(element, np.abs(small))
        _assert_same_bits([image], [apply_reference(element, np.abs(small))])
        assert np.isinf(image).all()


def test_doubling_failures_name_their_solver():
    with pytest.raises(NoConvergence, match="Riccati doubling did not converge within 64"):
        fixed_point(RiccatiMap(UNOBSERVED_WALK, [[1.0]]))
    unobserved = dataclasses.replace(SCALAR, A=np.array([[2.0]]), C=np.zeros((1, 1)))
    with pytest.raises(NoConvergence, match=r"Riccati doubling \(diverged\)"):
        fixed_point(RiccatiMap(unobserved, [[1.0]]))
    with pytest.raises(NoConvergence, match=r"Lyapunov doubling \(diverged\)"):
        lyapunov([[1.1]], [[1.0]])
    with pytest.raises(NoConvergence, match="Lyapunov doubling did not converge within 64"):
        lyapunov([[1.0]], [[1.0]])


def test_monotonicity_in_state():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m = random_stable_model(rng, n_max=3, m_max=3)
        rm = RiccatiMap(m, random_spd(rng, m.m))
        X1 = random_spd(rng, m.n)
        X2 = X1 + random_spd(rng, m.n, scale=0.5)
        assert loewner_leq(g_step(X1, rm), g_step(X2, rm), tol=1e-10)


def test_monotonicity_in_noise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_stable_model(rng, n_max=3, m_max=3)
        W1 = random_spd(rng, m.m)
        W2 = W1 + random_spd(rng, m.m, scale=0.5)
        X = random_spd(rng, m.n)
        g1 = g_step(X, RiccatiMap(m, W1))
        g2 = g_step(X, RiccatiMap(m, W2))
        assert loewner_leq(g1, g2, tol=1e-10)


def test_g_step_accepts_psd_zero():
    rm = RiccatiMap(SCALAR, [[2.0]])
    out = g_step([[0.0]], rm)
    assert out[0, 0] == pytest.approx(1.0)  # A*0*A' + Q


def test_riccati_map_requires_spd_weight():
    with pytest.raises(NotPositiveDefinite):
        RiccatiMap(SCALAR, [[0.0]])
    with pytest.raises(NotPositiveDefinite):
        RiccatiMap(SCALAR, np.eye(2))


def test_block_update_identity_perturbation_vanishes():
    phi = BlockCovariance(xx=[[2.0]], xy=[[1.0]], yy=[[2.0]])
    theta = block_gaussian_update(phi, [[1e-12]])
    np.testing.assert_allclose(theta.assemble(), phi.assemble(), atol=1e-9)


def test_block_update_hand_value():
    phi = BlockCovariance(xx=[[2.0]], xy=[[1.0]], yy=[[2.0]])
    theta = block_gaussian_update(phi, [[1.0]])
    np.testing.assert_allclose(
        theta.assemble(), [[5.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]], atol=1e-12
    )


def test_block_update_inverse_identity_random():
    # oracle: invert, add the block weight, invert back
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        joint = random_spd(rng, n + m)
        phi = BlockCovariance.from_joint(joint, n)
        Y = random_spd(rng, m)
        theta = block_gaussian_update(phi, Y)
        target = np.linalg.inv(joint)
        target[n:, n:] += Y
        oracle = np.linalg.inv(target)
        scale = max(1.0, np.abs(oracle).max())
        assert np.abs(theta.assemble() - oracle).max() <= 1e-9 * scale


def test_block_update_3x3_2x2_instance():
    rng = np.random.default_rng(9)
    joint = random_spd(rng, 5)
    phi = BlockCovariance.from_joint(joint, 3)
    Y = random_spd(rng, 2)
    theta = block_gaussian_update(phi, Y)
    inv = np.linalg.inv(theta.assemble())
    expected = np.linalg.inv(joint)
    expected[3:, 3:] += Y
    assert np.abs(inv - expected).max() <= 1e-9 * np.abs(expected).max()


def test_block_covariance_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        BlockCovariance(xx=[[1.0]], xy=[[2.0]], yy=[[1.0]])
