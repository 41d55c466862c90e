"""The run-batched trigger rule and measurement update of setkf.estimation
against the single-step oracle in tests/util.py, and the error contract of
the single-step names that wrap them."""

import numpy as np
import pytest

from setkf import (
    FilterState,
    NotPositiveDefinite,
    SingularInnovation,
    TriggerPolicy,
    clset_measurement_update,
    offline_drop_update,
    olset_measurement_update,
    standard_kf_update,
    validate_model,
)
from setkf.estimation import measurement_update, transmit
from util import (
    _clset_measurement_update,
    _olset_measurement_update,
    _standard_kf_update,
    _trigger_decide,
    random_spd,
    random_stable_model,
)

FILTER_KINDS = ("standard", "olset", "clset", "offline-baseline")


def close(got, want):
    """Agreement to 1e-12 of the largest entry, as in TestKernelOracle."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max())


def policies(rng, m):
    return [
        TriggerPolicy.open_loop(random_spd(rng, m, scale=0.5)),
        TriggerPolicy.closed_loop(random_spd(rng, m, scale=0.5)),
        TriggerPolicy.periodic(int(rng.integers(1, 5)), phase=int(rng.integers(-3, 4))),
        TriggerPolicy.random_offline(float(rng.uniform(0.1, 0.9))),
        TriggerPolicy.deterministic_threshold(float(rng.uniform(0.2, 2.0))),
    ]


class TestTransmit:
    def test_matches_single_step_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(12):
            m = int(rng.integers(1, 4))
            N = 40
            y = rng.normal(size=(N, m, 1)) * rng.uniform(0.1, 3.0)
            y_pred = rng.normal(size=(N, m, 1))
            zeta = rng.random(N)
            zeta[:4] = [0.0, 1.0, 0.0, 1.0]
            y[4:6] = 0.0  # zero measurement
            y_pred[6:8] = y[6:8]  # zero innovation
            zeta[[5, 7]] = 1.0
            for pol in policies(rng, m):
                for k in range(7):
                    z = y if pol.variant == "open_loop" else y - y_pred
                    got = transmit(pol, z, zeta, k)
                    want = [
                        _trigger_decide(pol, y[r, :, 0], y_pred[r, :, 0], zeta[r], k)
                        for r in range(N)
                    ]
                    assert got.dtype == bool
                    np.testing.assert_array_equal(got.astype(int), want, err_msg=pol.variant)


ORACLE = (_olset_measurement_update, _clset_measurement_update, _standard_kf_update)
SETKF = (olset_measurement_update, clset_measurement_update, standard_kf_update)


def one_step(updates, kind, state, gamma, y, model, W):
    """One run through the (olset, clset, standard) single-step functions given."""
    olset, clset, standard = updates
    if kind == "olset":
        return olset(state, gamma, y if gamma else None, model, W)
    if kind == "clset":
        z = y - model.C @ state.x_prior
        return clset(state, gamma, z if gamma else None, model, W)
    if kind == "standard" or gamma:
        return standard(state, y, model)
    return offline_drop_update(state)


class TestMeasurementUpdate:
    @pytest.mark.parametrize("kind", FILTER_KINDS)
    def test_mixed_stack_matches_single_step_oracle(self, kind):
        rng = np.random.default_rng(FILTER_KINDS.index(kind))
        for _ in range(8):
            model = random_stable_model(rng, n_max=3, m_max=3)
            n, m, N = model.n, model.m, 9
            P = np.array([random_spd(rng, n) for _ in range(N)])
            x = rng.normal(size=(N, n, 1))
            y = rng.normal(size=(N, m, 1))
            if kind == "standard":
                gamma = np.ones(N, dtype=bool)
            else:
                gamma = rng.random(N) < 0.5
                gamma[:2] = [True, False]
            W = random_spd(rng, m)
            W_drop = model.R + np.linalg.inv(W) if kind in ("olset", "clset") else None
            # with e = -x, the error of a plant held at 0, the update returns -xhat
            es, Ps, Ks, Ms = measurement_update(
                model, P, -x, y - model.C @ x, gamma, W_drop, y if kind == "olset" else None
            )
            xs = -es
            assert Ms.shape == (N, m, m)
            for r in range(N):
                state = FilterState(x[r, :, 0], P[r], x[r, :, 0], P[r], np.zeros((n, m)), 0)
                want = one_step(ORACLE, kind, state, int(gamma[r]), y[r, :, 0], model, W)
                assert close(xs[r, :, 0], want.x_post), (kind, r)
                assert close(Ps[r], want.P_post), (kind, r)
                assert close(Ks[r], want.K), (kind, r)
                got = one_step(SETKF, kind, state, int(gamma[r]), y[r, :, 0], model, W)
                assert close(got.x_post, want.x_post), (kind, r)
                assert close(got.P_post, want.P_post), (kind, r)
                assert close(got.K, want.K), (kind, r)


def _prior(P):
    P = np.atleast_2d(np.asarray(P, dtype=float))
    x = np.zeros(P.shape[0])
    return FilterState(x, P, x, P, np.zeros((P.shape[0], P.shape[0])), 0)


@pytest.mark.parametrize(
    "P",
    [[[-5.0]], [[float("nan")]], -np.eye(2)],
    ids=["scalar-negative", "scalar-nan", "singular-2x2"],
)
def test_single_step_names_raise_singular_innovation(P):
    # C P C' + R is -4, NaN, and the 2x2 zero matrix
    n = len(P)
    model = validate_model(0.5 * np.eye(n), np.eye(n), np.eye(n), np.eye(n), np.eye(n))
    state = _prior(P)
    y = np.ones(n)
    W = np.eye(n)
    for call in (
        lambda: olset_measurement_update(state, 1, y, model, W),
        lambda: clset_measurement_update(state, 1, y, model, W),
        lambda: standard_kf_update(state, y, model),
    ):
        with pytest.raises(SingularInnovation):
            call()
    # the oracle agrees on each case
    with pytest.raises(SingularInnovation):
        _standard_kf_update(state, y, model)


@pytest.mark.parametrize("W", [[[-0.5]], [[0.0]], [[float("inf")]]], ids=["negative", "zero", "infinite"])
@pytest.mark.parametrize("gamma", [0, 1])
def test_single_step_names_refuse_a_weight_that_is_not_positive_definite(W, gamma):
    # a drop once returned P_post = -2 for -0.5 and raised LinAlgError for 0
    model = validate_model(0.5, 1.0, 1.0, 1.0, 1.0)
    state = _prior([[1.0]])
    y = np.ones(1) if gamma else None
    for update in (olset_measurement_update, clset_measurement_update):
        with pytest.raises(NotPositiveDefinite):
            update(state, gamma, y, model, np.array(W))
