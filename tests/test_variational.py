"""Stationarity residuals, the closed-form solution family, and rule recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import variational
from bornlab.quantum import ModulusVector, haar_state, moduli
from bornlab.rules import Affine, Born, Power, Renormalized, outcome_function
from bornlab.variational import (
    PolynomialCandidate,
    RankDeficient,
    closed_form_check,
    fit_power_series,
    outcome_stationarity,
    power_sums,
    recover_rule,
    rule_stationarity,
)


class TestFiniteDifferences:
    def test_central_difference_floor_for_the_square(self):
        # d/dx x^2 = 2x; the central difference of a quadratic is exact in
        # real arithmetic, so only rounding is left
        h = 1e-6
        f = Born()
        for x in np.linspace(0.05, 0.95, 50):
            derivative = (f(x + h) - f(x - h)) / (2 * h)
            assert abs(derivative - 2 * x) <= 1e-9


class TestRuleStationarity:
    def test_quadratic_rule_is_stationary_with_unit_multiplier(self):
        for seed in range(20):
            point = moduli(haar_state(4, np.random.default_rng(seed)).amplitudes)
            assert rule_stationarity(Born(), point, 1.0).max_abs <= 1e-6

    def test_linear_rule_residuals_match_analytic_derivative(self):
        # f' = 1 everywhere, so the residuals are 1 - 2 a_j
        point = ModulusVector(np.array([0.6, 0.8]))
        result = rule_stationarity(Power(1.0), point, 1.0)
        np.testing.assert_allclose(result.residuals, [-0.2, -0.6], atol=1e-5)
        assert abs(result.max_abs - 0.6) <= 1e-5

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(-3.0, 3.0),
        offset=st.floats(-2.0, 2.0),
        seed=st.integers(0, 10_000),
    )
    def test_quadratic_affine_family_is_stationary(self, scale, offset, seed):
        # the offset drops out of the derivative: any member is stationary
        # with its own scale as the multiplier
        point = moduli(haar_state(3, np.random.default_rng(seed)).amplitudes)
        assert rule_stationarity(Affine(scale, offset), point, scale).max_abs <= 1e-6

    def test_boundary_moduli_are_excluded(self):
        point = ModulusVector(np.array([1.0, 0.0, 0.0]))
        result = rule_stationarity(Born(), point, 1.0)
        assert result.indices == ()
        assert result.max_abs == 0.0


class TestOutcomeStationarity:
    def test_quadratic_outcome_has_no_cross_partials(self):
        for seed in range(20):
            point = moduli(haar_state(4, np.random.default_rng(seed)).amplitudes)
            k = seed % 4
            result = outcome_stationarity(outcome_function(Born(), k), point, k, 0.0)
            assert result.max_abs <= 1e-6

    def test_complement_form_vanishing_partials(self):
        # p = scale (1 - a_k^2) + offset depends only on a_k, so the raw
        # cross partials vanish and the zero multiplier fits exactly
        scale, offset = 0.7, -0.2
        point = ModulusVector(np.array([0.5, 0.5, np.sqrt(0.5)]))
        p = lambda values: scale * (1.0 - values[0] ** 2) + offset
        result = outcome_stationarity(p, point, 0, 0.0)
        assert result.max_abs <= 1e-6

    def test_renormalized_linear_has_no_constant_multiplier(self):
        # analytic oracle: p_0 = a_0 / sum a_i has cross partials
        # -a_0 / (sum a_i)^2, identical for every j, which cannot equal
        # 2 lam a_j for unequal a_j under any single lam
        point = ModulusVector(np.array([0.5, 0.5, np.sqrt(0.5)]))
        a = point.moduli
        total = np.sum(a)
        analytic = np.array([-a[0] / total**2] * 2)

        p = outcome_function(Renormalized(Power(1.0)), 0)
        numeric = outcome_stationarity(p, point, 0, 0.0)
        np.testing.assert_allclose(numeric.residuals, analytic, atol=1e-6)

        # least-squares multiplier for residuals g_j - 2 * lam * a_j
        lam = float(np.sum(analytic * a[1:])) / (2.0 * float(np.sum(a[1:] ** 2)))
        fitted = outcome_stationarity(p, point, 0, lam)
        assert fitted.max_abs > 1e-3

    def test_indices_skip_k_and_boundary(self):
        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        result = outcome_stationarity(outcome_function(Born(), 0), point, 0, 0.0)
        assert result.indices == (1,)


class TestClosedForm:
    def test_starting_member_is_stationary(self):
        for seed in range(100):
            point = moduli(haar_state(3, np.random.default_rng(seed)).amplitudes)
            assert closed_form_check(point, seed % 3, 3.0, 0.5) <= 1e-5

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(-3.0, 3.0),
        offset=st.floats(-2.0, 2.0),
        d=st.integers(2, 8),
        k=st.integers(0, 7),
        seed=st.integers(0, 10_000),
    )
    def test_every_member_is_stationary_in_both_forms(self, scale, offset, d, k, seed):
        point = moduli(haar_state(d, np.random.default_rng(seed)).amplitudes)
        assert closed_form_check(point, k % d, scale, offset) <= 1e-6

    def test_rule_outside_the_family_fails(self, monkeypatch):
        # a cubic in place of the quadratic-affine member has f'(a) = 3a^2,
        # which no constant multiplier turns into 2 * lam * a
        monkeypatch.setattr(variational, "Affine", lambda scale, offset: Power(3.0))
        point = ModulusVector(np.array([0.5, 0.5, np.sqrt(0.5)]))
        assert closed_form_check(point, 0, 2.0, -1.0) > 1e-3


class TestRecovery:
    def test_mixed_dims_recover_the_square(self):
        result = recover_rule([2, 3], 500, seed=0)
        np.testing.assert_allclose(
            result.candidate.coefficients, [0.0, 1.0, 0.0, 0.0], atol=1e-3
        )
        assert result.objective_value <= 1e-6
        assert result.sample_count == 1000

    def test_qubit_only_still_recovers(self):
        result = recover_rule([2], 500, seed=0)
        np.testing.assert_allclose(
            result.candidate.coefficients, [0.0, 1.0, 0.0, 0.0], atol=1e-2
        )

    def test_solution_is_the_global_optimum(self):
        # the problem is convex; cross-check the solver against the known
        # solution and against a local grid around it
        rows = np.array(
            [
                power_sums(moduli(haar_state(d, np.random.default_rng(seed)).amplitudes))
                for d in (2, 3)
                for seed in range(200)
            ]
        )
        candidate, objective = fit_power_series(rows)

        def objective_at(c):
            design = np.vstack([rows, 10.0 * np.ones((1, 4))])
            target = np.concatenate([np.ones(rows.shape[0]), [10.0]])
            return float(np.sum((design @ c - target) ** 2))

        known = np.array([0.0, 1.0, 0.0, 0.0])
        assert objective <= objective_at(known) + 1e-12
        rng = np.random.default_rng(99)
        for _ in range(200):
            perturbed = candidate.coefficients + rng.uniform(-1e-2, 1e-2, size=4)
            assert objective <= objective_at(perturbed) + 1e-12

    def test_repeated_symmetric_point_is_rank_deficient(self):
        point = ModulusVector(np.array([1.0, 1.0]) / np.sqrt(2))
        rows = np.tile(power_sums(point), (100, 1))
        with pytest.raises(RankDeficient):
            fit_power_series(rows)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            recover_rule([], 100, seed=0)
        with pytest.raises(ValueError):
            recover_rule([1], 100, seed=0)
        with pytest.raises(ValueError):
            recover_rule([2], 39, seed=0)

    def test_candidate_vanishes_at_zero(self):
        candidate = PolynomialCandidate(np.array([0.3, 0.5, -0.1, 0.2]))
        assert candidate(0.0) == 0.0
        assert abs(candidate(1.0) - 0.9) <= 1e-15

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_recovery_is_seed_stable(self, seed):
        result = recover_rule([2, 3], 120, seed=seed)
        np.testing.assert_allclose(
            result.candidate.coefficients, [0.0, 1.0, 0.0, 0.0], atol=1e-3
        )
