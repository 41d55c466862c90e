import io

import numpy as np
import pytest

from setkf import (
    ConfigError,
    DesignProblem,
    Infeasible,
    UnstableSystem,
    assemble_lmi_blocks,
    delta0_for_lambda_max_bound,
    delta0_for_trace_bound,
    design_search,
    design_search_closed_loop,
    export_lmi,
    feasibility_check,
    lmi_feasible,
    optimality_gap_bound,
    steady_state,
    validate_model,
)
from setkf.analysis import drop_noise
from setkf.riccati import RiccatiMap, fixed_point
from util import assemble_lmi_blocks_reference, loewner_leq, random_spd, random_stable_model

SCALAR = validate_model(0.8, 1.0, 1.0, 1.0, 1.0)
TWO_SENSOR = validate_model(
    [[0.8, 1.0], [0.0, 0.95]], [[0.5, 0.3], [0.0, 1.4]], np.eye(2), np.eye(2), np.eye(2)
)


class TestFeasibilityCheck:
    def test_scalar_examples(self):
        assert feasibility_check(SCALAR, [[1.0]], [[1.6]]) is True
        assert feasibility_check(SCALAR, [[1.0]], [[1.5]]) is False

    def test_bound_below_floor_never_feasible(self):
        # X_upper > X0 = 1.36995 for every finite weight
        assert feasibility_check(SCALAR, [[1e9]], [[1.3]]) is False

    def test_unstable_rejected(self):
        m = validate_model(1.1, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(UnstableSystem):
            feasibility_check(m, [[1.0]], [[10.0]])


class TestLmiFeasible:
    def test_scalar_agreement(self):
        assert lmi_feasible(SCALAR, [[1.0]], [[1.6]]) is True
        assert lmi_feasible(SCALAR, [[1.0]], [[1.5]]) is False

    def test_vacuous_bound(self):
        assert lmi_feasible(SCALAR, [[1.0]], [[1e9]]) is True

    def test_bound_between_posterior_and_prior_fixed_points(self):
        # the worst-case posterior here is 0.8768 while the prior fixed
        # point is 1.5611; both routes must reject a bound in between
        assert feasibility_check(SCALAR, [[1.0]], [[1.2]]) is False
        assert lmi_feasible(SCALAR, [[1.0]], [[1.2]]) is False

    def test_agreement_random_batch(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            m = random_stable_model(rng)
            Y = random_spd(rng, m.m, scale=float(rng.uniform(0.05, 2.0)))
            X_upper = fixed_point(RiccatiMap(m, drop_noise(m.R, Y)))
            D = float(rng.uniform(0.3, 2.0)) * X_upper + 0.1 * random_spd(rng, m.n)
            assert lmi_feasible(m, Y, D) == feasibility_check(m, Y, D)

    def test_agreement_near_boundary(self):
        # Delta0 - X_upper has smallest eigenvalue +-delta ||X_upper|| with
        # delta in [1e-7, 1e-2], on plants with rho(A) up to 0.999
        rng = np.random.default_rng(16)
        outcomes = []
        while len(outcomes) < 200:
            m = random_stable_model(rng, rho_max=0.999)
            Y = random_spd(rng, m.m, scale=float(rng.uniform(0.05, 2.0)))
            X_upper = fixed_point(RiccatiMap(m, drop_noise(m.R, Y)))
            G = random_spd(rng, m.n)
            H = (G - np.linalg.eigvalsh(G)[0] * np.eye(m.n)) / np.linalg.norm(G, 2)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            delta = 10.0 ** rng.uniform(-7.0, -2.0)
            D = X_upper + delta * np.linalg.norm(X_upper, 2) * (H + sign * np.eye(m.n))
            D = 0.5 * (D + D.T)
            if np.linalg.eigvalsh(D)[0] <= 0.0:
                continue
            expect = feasibility_check(m, Y, D)
            assert expect == (sign > 0)
            assert lmi_feasible(m, Y, D) == expect
            outcomes.append(expect)
        assert 50 <= sum(outcomes) <= 150

    @pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-12])
    @pytest.mark.parametrize("plant", [SCALAR, TWO_SENSOR], ids=["scalar", "two_sensor"])
    def test_agreement_inside_the_strictness_margin(self, plant, eps):
        # Delta0 - X_upper is positive-definite, but its smallest eigenvalue
        # eps lies within feasibility_check's margin 1e-9 (1 + ||Delta0||)
        Y = np.eye(plant.m)
        X_upper = fixed_point(RiccatiMap(plant, drop_noise(plant.R, Y)))
        Delta0 = X_upper + eps * np.eye(plant.n)
        assert feasibility_check(plant, Y, Delta0) is False
        assert lmi_feasible(plant, Y, Delta0) is False

    def test_monotone_feasibility_along_weight(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = random_stable_model(rng, n_max=3, m_max=3)
            Y1 = random_spd(rng, m.m)
            Y2 = Y1 + random_spd(rng, m.m, scale=0.5)
            X1 = fixed_point(RiccatiMap(m, drop_noise(m.R, Y1)))
            D = X1 + 0.05 * np.eye(m.n)
            if feasibility_check(m, Y1, D):
                assert feasibility_check(m, Y2, D)


class TestBlockAssembly:
    def test_positive_definite_iff_contraction_certificate(self):
        # M1 > 0 must match the Schur-reduced scalar condition
        Y = np.array([[1.0]])
        for delta0, s, expect in ((1.6, 1.0 / 1.58, True), (1.6, 1.0 / 0.5, False)):
            M1, M2 = assemble_lmi_blocks(SCALAR, Y, np.array([[s]]), np.array([[delta0]]))
            got = bool(np.linalg.eigvalsh(M1).min() > 0) and bool(np.linalg.eigvalsh(M2).min() > 0)
            assert got == expect

    def test_blocks_are_symmetric(self):
        rng = np.random.default_rng(15)
        m = random_stable_model(rng, n_max=3, m_max=2)
        M1, M2 = assemble_lmi_blocks(m, random_spd(rng, m.m), random_spd(rng, m.n), random_spd(rng, m.n))
        assert np.abs(M1 - M1.T).max() == 0.0
        assert np.abs(M2 - M2.T).max() == 0.0
        assert M1.shape == (2 * m.n + m.m,) * 2
        assert M2.shape == (2 * m.n,) * 2

    def test_matches_the_block_construction(self):
        # random SPD arguments, and the zero and unit-basis arguments of export_lmi
        rng = np.random.default_rng(17)
        for _ in range(60):
            m = random_stable_model(rng, n_max=5, m_max=4)
            S, Y, D = random_spd(rng, m.n), random_spd(rng, m.m), random_spd(rng, m.n)
            E = np.zeros((m.n, m.n))
            E[0, -1] = E[-1, 0] = 1.0
            for args in ((Y, S, D), (np.zeros((m.m, m.m)), np.zeros((m.n, m.n)), D), (Y, E, D)):
                got = assemble_lmi_blocks(m, *args)
                want = assemble_lmi_blocks_reference(m, *args)
                for G, W in zip(got, want):
                    assert G.dtype == W.dtype and np.array_equal(G, W)


class TestDesignSearch:
    def test_scalar_boundary_values(self):
        res = design_search(DesignProblem(model=SCALAR, Delta0=[[1.5]]))
        assert res.theta == pytest.approx(1.58622, abs=1e-4)
        assert res.gamma_achieved == pytest.approx(0.62185, abs=1e-4)
        assert feasibility_check(SCALAR, res.Y, np.array([[1.5]]))
        assert res.kappa_bound == pytest.approx(0.0, abs=1e-12)

    def test_boundary_inversion_near_unit_weight(self):
        res = design_search(DesignProblem(model=SCALAR, Delta0=[[1.56114]]))
        assert res.theta == pytest.approx(1.0, abs=1e-2)

    def test_slack_bound_sends_nothing(self):
        res = design_search(DesignProblem(model=SCALAR, Delta0=[[1e9]]))
        assert res.theta <= 1e-10
        assert res.gamma_achieved <= 1e-9

    def test_infeasible_bound(self):
        with pytest.raises(Infeasible):
            design_search(DesignProblem(model=SCALAR, Delta0=[[1.3]]))

    def test_result_sits_on_boundary(self):
        res = design_search(DesignProblem(model=SCALAR, Delta0=[[1.5]]))
        X_upper = fixed_point(RiccatiMap(SCALAR, drop_noise(SCALAR.R, res.Y)))
        assert X_upper[0, 0] == pytest.approx(1.5, abs=1e-6)

    def test_objective_sandwich(self):
        st = steady_state(SCALAR)
        res = design_search(DesignProblem(model=SCALAR, Delta0=[[1.5]]))
        t = float(np.trace(st.Pi @ res.Y))
        det_term = 1.0 - 1.0 / np.sqrt(np.linalg.det(np.eye(1) + st.Pi @ res.Y))
        assert 1.0 - (1.0 + t) ** -0.5 <= det_term + 1e-12

    def test_matrix_valued_problem(self):
        m = validate_model(
            [[0.8, 1.0], [0.0, 0.95]], [[0.5, 0.3], [0.0, 1.4]], np.eye(2), np.eye(2), np.eye(2)
        )
        X0 = fixed_point(RiccatiMap(m, m.R))
        D = 1.2 * X0 + 0.3 * np.eye(2)
        res = design_search(DesignProblem(model=m, Delta0=D))
        assert feasibility_check(m, res.Y, D)
        assert 0.0 < res.gamma_achieved < 1.0
        assert res.kappa_bound >= 0.0


class TestClosedLoopDesign:
    def test_scalar_same_boundary_arithmetic(self):
        res = design_search_closed_loop(DesignProblem(model=SCALAR, Delta0=[[1.5]]))
        assert res.theta == pytest.approx(1.58622, abs=1e-4)

    def test_unstable_plant_has_finite_boundary(self):
        m = validate_model(1.1, 1.0, 1.0, 1.0, 1.0)
        res = design_search_closed_loop(DesignProblem(model=m, Delta0=[[3.0]]))
        # scalar boundary: fixed point equals 3 at W = 6/1.63
        assert res.theta == pytest.approx(1.0 / (6.0 / 1.63 - 1.0), abs=1e-5)
        assert res.objective is None and res.kappa_bound is None

    def test_infeasible_below_floor(self):
        with pytest.raises(Infeasible):
            design_search_closed_loop(DesignProblem(model=SCALAR, Delta0=[[1.3]]))


class TestOptimalityGap:
    def test_scalar_is_zero(self):
        assert optimality_gap_bound([[3.77778]], [[0.7]]) == pytest.approx(0.0, abs=1e-12)

    def test_identity_pair(self):
        val = optimality_gap_bound(np.eye(2), np.eye(2))
        assert val == pytest.approx(1.0 / np.sqrt(3.0) - 0.5, abs=1e-12)

    def test_vanishing_weight(self):
        assert optimality_gap_bound(np.eye(2), 1e-15 * np.eye(2)) == pytest.approx(0.0, abs=1e-12)


class TestConstraintReductions:
    def test_lambda_max_form(self):
        D = delta0_for_lambda_max_bound(2.0, 3)
        np.testing.assert_allclose(D, 2.0 * np.eye(3))

    def test_trace_form(self):
        D = delta0_for_trace_bound(6.0, 3)
        assert np.trace(D) == pytest.approx(6.0)

    @pytest.mark.parametrize("reduce", [delta0_for_lambda_max_bound, delta0_for_trace_bound])
    def test_bound_must_be_finite_and_positive(self, reduce):
        for c in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="must be finite"):
                reduce(c, 2)
        for c in (0.0, -1.0):
            with pytest.raises(Infeasible, match="must be positive"):
                reduce(c, 2)

    def test_trace_constraint_satisfied_by_search(self):
        D = delta0_for_trace_bound(3.2, 1)
        res = design_search(DesignProblem(model=SCALAR, Delta0=D))
        X_upper = fixed_point(RiccatiMap(SCALAR, drop_noise(SCALAR.R, res.Y)))
        assert np.trace(X_upper) <= 3.2


class TestLmiExport:
    @staticmethod
    def _parse(text):
        header = {}
        obj = {}
        entries = []
        for line in text.splitlines():
            parts = line.split()
            if parts[0] == "OBJ":
                obj[int(parts[1])] = float(parts[2])
            elif parts[0] == "F":
                entries.append((int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4]), float(parts[5])))
            elif parts[0] == "n":
                header["n"], header["m"] = int(parts[1]), int(parts[3])
            elif parts[0] == "svars":
                header["svars"], header["yvars"] = int(parts[1]), int(parts[3])
            elif parts[0] == "block":
                header[f"size{parts[1]}"] = int(parts[3])
        return header, obj, entries

    def _assemble_from_export(self, header, entries, s_vals, y_vals):
        sizes = {1: header["size1"], 2: header["size2"]}
        blocks = {b: np.zeros((s, s)) for b, s in sizes.items()}
        coef = [1.0] + list(s_vals) + list(y_vals)
        for block, var, r, c, val in entries:
            blocks[block][r, c] += coef[var] * val
            if r != c:
                blocks[block][c, r] += coef[var] * val
        return blocks[1], blocks[2]

    def test_round_trip_against_direct_assembly(self):
        rng = np.random.default_rng(16)
        m = validate_model(
            [[0.8, 1.0], [0.0, 0.95]], [[0.5, 0.3], [0.0, 1.4]], np.eye(2), np.eye(2), np.eye(2)
        )
        Delta0 = 1.8 * np.eye(2)
        buf = io.StringIO()
        export_lmi(m, Delta0, buf)
        header, obj, entries = self._parse(buf.getvalue())
        assert header["n"] == 2 and header["m"] == 2
        assert header["svars"] == 3 and header["yvars"] == 3
        assert header["size1"] == 6 and header["size2"] == 4

        S = random_spd(rng, 2)
        Y = random_spd(rng, 2)
        s_vals = [S[0, 0], S[0, 1], S[1, 1]]
        y_vals = [Y[0, 0], Y[0, 1], Y[1, 1]]
        M1e, M2e = self._assemble_from_export(header, entries, s_vals, y_vals)
        M1, M2 = assemble_lmi_blocks(m, Y, S, Delta0)
        np.testing.assert_allclose(M1e, M1, atol=1e-12)
        np.testing.assert_allclose(M2e, M2, atol=1e-12)

        # objective coefficients encode the stationary weighting of Y
        st = steady_state(m)
        tr = sum(obj[4 + i] * y for i, y in enumerate(y_vals))
        assert tr == pytest.approx(float(np.trace(st.Pi @ Y)), abs=1e-12)

    def test_variable_coefficients_are_exact_units(self):
        # S_ij: -1 at block-1 (i, j), +1 at block-1 (n+i, n+j), +1 at block-2
        # (i, j); Y_ij: +1 at block-1 (2n+i, 2n+j); nothing else per variable
        rng = np.random.default_rng(26)
        models = [random_stable_model(rng, n_max=4, m_max=3, rho_max=0.9) for _ in range(40)]
        # a plant whose Q has eigenvalues near 1e-6, so Q^-1 is large
        U = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        Q = U @ np.diag([1e-6, 2e-6, 1.0]) @ U.T
        models.append(
            validate_model(0.5 * np.eye(3), rng.normal(size=(2, 3)), Q, np.eye(2), np.eye(3))
        )
        for model in models:
            n, m = model.n, model.m
            buf = io.StringIO()
            export_lmi(model, 10.0 * np.eye(n), buf)
            _, _, entries = self._parse(buf.getvalue())
            expected = []
            var = 0
            for i in range(n):
                for j in range(i, n):
                    var += 1
                    expected += [
                        (1, var, i, j, -1.0), (1, var, n + i, n + j, 1.0), (2, var, i, j, 1.0)
                    ]
            for i in range(m):
                for j in range(i, m):
                    var += 1
                    expected.append((1, var, 2 * n + i, 2 * n + j, 1.0))
            assert [e for e in entries if e[1] >= 1] == expected

    def test_unstable_plant_rejected(self):
        m = validate_model(1.1, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(UnstableSystem):
            export_lmi(m, np.eye(1), io.StringIO())


def test_ordering_lower_between_on_random_designs():
    rng = np.random.default_rng(17)
    for _ in range(20):
        m = random_stable_model(rng, n_max=3, m_max=2)
        Y = random_spd(rng, m.m)
        X_upper = fixed_point(RiccatiMap(m, drop_noise(m.R, Y)))
        X0 = fixed_point(RiccatiMap(m, m.R))
        assert loewner_leq(X0, X_upper, tol=1e-8)
