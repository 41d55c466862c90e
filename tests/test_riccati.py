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
from setkf.analysis import drop_noise
from util import (
    dare_fixed_point,
    loewner_leq,
    lyapunov_iteration,
    random_spd,
    random_stable_model,
    riccati_iteration,
    scalar_g_fixed_point,
)

SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)


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
        X = fixed_point(rm, tol=1e-10)
        res = np.linalg.norm(g_step(X, rm) - X, 2)
        assert res <= 1e-9 * np.linalg.norm(X, 2)


def test_fixed_point_independent_of_start():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = random_stable_model(rng, n_max=3, m_max=3)
        rm = RiccatiMap(m, random_spd(rng, m.m))
        X1 = fixed_point(rm, start=m.Q)
        X2 = fixed_point(rm, start=50.0 * np.eye(m.n))
        assert np.abs(X1 - X2).max() <= 1e-8 * max(1.0, np.abs(X1).max())


def test_fixed_point_no_convergence_signal():
    rm = RiccatiMap(SCALAR, [[1.0]])
    with pytest.raises(NoConvergence):
        fixed_point(rm, tol=1e-10, max_iter=2)


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
@pytest.mark.parametrize("shifted", [False, True], ids=["from-0", "from-2I"])
def test_fixed_point_undetectable_raises_without_warning(A, shifted):
    # no measurement channel on a non-stable A: validate_model rejects the
    # plant, so it is built around the validation
    A = np.array(A)
    n = A.shape[0]
    m = dataclasses.replace(SCALAR, A=A, C=np.zeros((1, n)), Q=np.eye(n), Sigma0=np.eye(n), n=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergence):
            fixed_point(RiccatiMap(m, [[1.0]]), start=2.0 * np.eye(n) if shifted else None)


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
