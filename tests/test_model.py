import json

import numpy as np
import pytest

from setkf import (
    DimensionMismatch,
    ModelValidationError,
    NotDetectable,
    NotPositiveDefinite,
    UnstableSystem,
    load_model,
    save_model,
    steady_state,
    validate_model,
)
from util import lyapunov_iteration, random_spd, random_stable_model


def test_valid_scalar_model():
    m = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
    assert m.n == 1 and m.m == 1
    assert m.rho_A == pytest.approx(0.8)


def test_zero_q_rejected():
    with pytest.raises(NotPositiveDefinite) as exc:
        validate_model(0.8, 1.0, 0.0, 1.0, 1.0)
    assert exc.value.which == "Q"


def test_eigenvalue_floor_rejected():
    with pytest.raises(NotPositiveDefinite):
        validate_model(0.8, 1.0, 1e-12, 1.0, 1.0)


def test_undetectable_unstable_mode_rejected():
    with pytest.raises(NotDetectable):
        validate_model(1.0, 0.0, 1.0, 1.0, 1.0)


def test_detectable_despite_unstable_mode():
    # unstable but observed mode passes
    m = validate_model(1.1, 1.0, 1.0, 1.0, 1.0)
    assert m.rho_A > 1.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_model(np.eye(2), [[1.0, 1.0]], np.eye(2), np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        validate_model(np.eye(2), [[1.0, 1.0, 0.0]], np.eye(2), np.eye(1), np.eye(2))


def test_asymmetric_q_rejected():
    with pytest.raises(NotPositiveDefinite):
        validate_model(np.eye(2) * 0.5, [[1.0, 0.0]], [[1.0, 0.5], [0.0, 1.0]], 1.0, np.eye(2))


def test_steady_state_scalar():
    m = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
    st = steady_state(m)
    assert st.Sigma[0, 0] == pytest.approx(2.77778, abs=1e-4)
    assert st.Pi[0, 0] == pytest.approx(3.77778, abs=1e-4)


def test_steady_state_white_process():
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    m = validate_model(np.zeros((2, 2)), np.eye(2), Q, np.eye(2), np.eye(2))
    st = steady_state(m)
    np.testing.assert_allclose(st.Sigma, Q, atol=1e-12)


def test_steady_state_diagonal_two_mode():
    m = validate_model(np.diag([0.8, 0.95]), [[1.0, 1.0]], np.eye(2), 1.0, np.eye(2))
    st = steady_state(m)
    # per-mode analytic values q / (1 - a^2)
    np.testing.assert_allclose(
        np.diag(st.Sigma), [1.0 / (1 - 0.64), 1.0 / (1 - 0.9025)], rtol=1e-9
    )
    assert st.Pi[0, 0] == pytest.approx(14.03419, abs=1e-4)


def test_steady_state_unstable_raises():
    m = validate_model(1.1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(UnstableSystem):
        steady_state(m)


def test_lyapunov_residual_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = random_stable_model(rng)
        st = steady_state(m)
        res = np.linalg.norm(st.Sigma - m.A @ st.Sigma @ m.A.T - m.Q, 2)
        assert res <= 1e-8 * np.linalg.norm(st.Sigma, 2)
        assert np.abs(st.Sigma - st.Sigma.T).max() <= 1e-12
        assert np.abs(st.Pi - st.Pi.T).max() <= 1e-12


def test_steady_state_matches_plain_iteration():
    rng = np.random.default_rng(43)
    for _ in range(40):
        m = random_stable_model(rng, rho_max=0.999)
        ref = lyapunov_iteration(m.A, m.Q)
        assert ref is not None
        st = steady_state(m)
        assert np.linalg.norm(st.Sigma - ref, 2) <= 1e-9 * np.linalg.norm(ref, 2)


def test_steady_state_near_unit_root():
    # plain iteration needs tens of millions of steps here
    a = 1.0 - 1e-6
    st = steady_state(validate_model(a, 1.0, 1.0, 1.0, 1.0))
    assert st.Sigma[0, 0] == pytest.approx(1.0 / (1.0 - a * a), rel=1e-9)


@pytest.mark.parametrize("which", ["A", "C"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_dynamics_rejected(which, value):
    mats = {"A": 0.8, "C": 1.0, "Q": 1.0, "R": 1.0, "Sigma0": 1.0}
    mats[which] = value
    with pytest.raises(ModelValidationError):
        validate_model(**mats)


@pytest.mark.parametrize("which", ["Q", "R", "Sigma0"])
def test_non_finite_covariance_rejected(which):
    mats = {"A": 0.8, "C": 1.0, "Q": 1.0, "R": 1.0, "Sigma0": 1.0}
    mats[which] = np.inf
    with pytest.raises(NotPositiveDefinite) as exc:
        validate_model(**mats)
    assert exc.value.which == which


def test_empirical_measurement_covariance_matches_pi():
    # long stationary trajectory of the stable scalar system
    m = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
    st = steady_state(m)
    rng = np.random.default_rng(7)
    N = 200_000
    x = np.sqrt(st.Sigma[0, 0]) * rng.standard_normal()
    ys = np.empty(N)
    for k in range(N):
        ys[k] = x + rng.standard_normal()
        x = 0.8 * x + rng.standard_normal()
    assert np.var(ys) == pytest.approx(st.Pi[0, 0], rel=0.03)


def test_model_serialization_round_trip(tmp_path):
    m = validate_model(np.diag([0.8, 0.95]), [[1.0, 1.0]], np.eye(2), 1.0, np.eye(2))
    path = tmp_path / "model.json"
    save_model(m, path)
    data = json.loads(path.read_text())
    assert set(data) == {"A", "C", "Q", "R", "Sigma0"}
    m2 = load_model(path)
    np.testing.assert_allclose(m2.A, m.A)
    np.testing.assert_allclose(m2.C, m.C)
    np.testing.assert_allclose(m2.Sigma0, m.Sigma0)


def test_random_spd_helper_is_spd():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        w = np.linalg.eigvalsh(random_spd(rng, n))
        assert w.min() > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_eigenvalues_rejected():
    # finite entries whose eigenvalues overflow: rejected before any rank test
    with pytest.raises(ModelValidationError, match="eigenvalues"):
        validate_model(np.full((2, 2), 1e308), [[1.0, 0.0]], np.eye(2), 1.0, np.eye(2))
