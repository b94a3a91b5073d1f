"""Stationarity residuals, the closed-form solution family, and rule recovery."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import quantum, variational
from bornlab.quantum import ModulusVector, haar_state, moduli
from bornlab.rules import Affine, Born, Power, Renormalized, rule_probabilities
from bornlab.streams import substream
from bornlab.tolerances import TOL
from bornlab.variational import (
    RankDeficient,
    closed_form_check,
    fit_power_series,
    outcome_stationarity,
    power_sums,
    recover_rule,
    rule_stationarity,
)


def haar_rows(d, seeds):
    """Moduli rows of Haar states, one per seed, stacked (len(seeds), d)."""
    return np.array([moduli(haar_state(d, np.random.default_rng(seed)).amplitudes).moduli for seed in seeds])


def max_abs(residuals):
    return float(np.max(np.abs(residuals)))


def outcomes(rule):
    """Every outcome's probability under rule, for modulus arrays (..., d)."""
    return functools.partial(rule_probabilities, rule)


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
        assert max_abs(rule_stationarity(Born(), haar_rows(4, range(20)), 1.0)) <= 1e-6

    def test_linear_rule_residuals_match_analytic_derivative(self):
        # f' = 1 everywhere, so the residuals are 1 - 2 a_j
        point = ModulusVector(np.array([0.6, 0.8]))
        residuals = rule_stationarity(Power(1.0), point.moduli, 1.0)
        np.testing.assert_allclose(residuals, [-0.2, -0.6], atol=1e-5)
        assert abs(max_abs(residuals) - 0.6) <= 1e-5

    @settings(max_examples=30, deadline=None)
    @given(
        scale=st.floats(-3.0, 3.0),
        offset=st.floats(-2.0, 2.0),
        seed=st.integers(0, 10_000),
    )
    def test_quadratic_affine_family_is_stationary(self, scale, offset, seed):
        # the offset drops out of the derivative: any member is stationary
        # with its own scale as the multiplier
        rows = haar_rows(3, [seed])
        assert max_abs(rule_stationarity(Affine(scale, offset), rows, scale)) <= 1e-6

    def test_boundary_moduli_are_excluded(self):
        # a linear rule would give residual 1 - 2a = -1 and 1 at these moduli
        point = ModulusVector(np.array([1.0, 0.0, 0.0]))
        for rule in (Born(), Power(1.0)):
            np.testing.assert_array_equal(rule_stationarity(rule, point.moduli, 1.0), [0.0, 0.0, 0.0])


class TestOutcomeStationarity:
    def test_quadratic_outcome_has_no_cross_partials(self):
        rows = haar_rows(4, range(20))
        residuals = outcome_stationarity(outcomes(Born()), rows, np.arange(20) % 4, 0.0)
        assert max_abs(residuals) <= 1e-6

    def test_complement_form_vanishing_partials(self):
        # p_k = scale (1 - a_k^2) + offset depends only on a_k, so the raw
        # cross partials vanish and the zero multiplier fits exactly
        scale, offset = 0.7, -0.2
        point = ModulusVector(np.array([0.5, 0.5, np.sqrt(0.5)]))
        p = lambda values: scale * (1.0 - values**2) + offset
        assert max_abs(outcome_stationarity(p, point.moduli, 0, 0.0)) <= 1e-6

    def test_renormalized_linear_has_no_constant_multiplier(self):
        # analytic oracle: p_0 = a_0 / sum a_i has cross partials
        # -a_0 / (sum a_i)^2, identical for every j, which cannot equal
        # 2 lam a_j for unequal a_j under any single lam
        point = ModulusVector(np.array([0.5, 0.5, np.sqrt(0.5)]))
        a = point.moduli
        total = np.sum(a)
        analytic = np.array([-a[0] / total**2] * 2)

        p = outcomes(Renormalized(Power(1.0)))
        numeric = outcome_stationarity(p, a, 0, 0.0)
        assert numeric[0] == 0.0  # j = k is not a cross partial
        np.testing.assert_allclose(numeric[1:], analytic, atol=1e-6)

        # least-squares multiplier for residuals g_j - 2 * lam * a_j
        lam = float(np.sum(analytic * a[1:])) / (2.0 * float(np.sum(a[1:] ** 2)))
        fitted = outcome_stationarity(p, a, 0, lam)
        assert max_abs(fitted) > 1e-3

    def test_indices_skip_k_and_boundary(self):
        # with a unit multiplier every included j has residual -2 a_j != 0
        point = ModulusVector(np.array([0.6, 0.8, 0.0]))
        residuals = outcome_stationarity(outcomes(Born()), point.moduli, 0, 1.0)
        np.testing.assert_array_equal(np.flatnonzero(residuals), [1])


@pytest.mark.parametrize("ks", [[-1, 0], [0, -1], [3, 0], [0, 3]])
def test_outcome_indices_outside_the_dimension_are_refused(ks):
    # a flat (row, k) index would read k = 3 at d = 3 as the next row's outcome 0, and k = -1 as
    # the previous row's last outcome
    rows = haar_rows(3, [1, 2])
    with pytest.raises(ValueError, match="outcome indices"):
        outcome_stationarity(outcomes(Born()), rows, ks, 0.0)
    with pytest.raises(ValueError, match="outcome indices"):
        closed_form_check(rows, ks, 2.0, -1.0)


def test_zero_rows_give_empty_residuals():
    # no row, no residual: every form returns an empty array of the rows' shape, or one max per row
    rows, ks = np.zeros((0, 3)), np.zeros(0, dtype=int)
    for residuals in (
        rule_stationarity(Born(), rows, 1.0),
        outcome_stationarity(outcomes(Born()), rows, ks, 0.0),
    ):
        assert residuals.shape == (0, 3) and residuals.dtype == np.float64
    assert closed_form_check(rows, ks, 2.0, -1.0).shape == (0,)


class TestClosedForm:
    def test_starting_member_is_stationary(self):
        rows = haar_rows(3, range(100))
        assert np.max(closed_form_check(rows, np.arange(100) % 3, 3.0, 0.5)) <= 1e-5

    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(-3.0, 3.0),
        offset=st.floats(-2.0, 2.0),
        d=st.integers(2, 8),
        k=st.integers(0, 7),
        seed=st.integers(0, 10_000),
    )
    def test_every_member_is_stationary_in_both_forms(self, scale, offset, d, k, seed):
        rows = haar_rows(d, [seed])
        assert np.max(closed_form_check(rows, [k % d], scale, offset)) <= 1e-6

    def test_rule_outside_the_family_fails(self, monkeypatch):
        # a cubic in place of the quadratic-affine member has f'(a) = 3a^2,
        # which no constant multiplier turns into 2 * lam * a
        monkeypatch.setattr(variational, "Affine", lambda scale, offset: Power(3.0))
        point = ModulusVector(np.array([0.5, 0.5, np.sqrt(0.5)]))
        assert closed_form_check(point.moduli, 0, 2.0, -1.0) > 1e-3


# The per-point formulas the row kernels replaced, kept as their reference.
def scalar_rule_stationarity(f, a, lam, h=TOL.fd_step):
    out = np.zeros(a.size)
    for j in range(a.size):
        if h <= a[j] <= 1.0 - h:
            out[j] = (f(a[j] + h) - f(a[j] - h)) / (2.0 * h) - 2.0 * lam * a[j]
    return out


def scalar_outcome_stationarity(p, a, k, lam, h=TOL.fd_step):
    out = np.zeros(a.size)
    for j in range(a.size):
        if j != k and h <= a[j] <= 1.0 - h:
            up, down = a.copy(), a.copy()
            up[j] += h
            down[j] -= h
            out[j] = (p(up) - p(down)) / (2.0 * h) - 2.0 * lam * a[j]
    return out


def scalar_outcome(rule, k):
    if rule.renormalized:
        return lambda values: float(rule(values[k]) / np.sum(rule(values)))
    return lambda values: float(rule(values[k]))


def scalar_closed_form(a, k, scale, offset):
    p = lambda values: scale * (values @ values - values[k] ** 2) + offset
    return max(
        max_abs(scalar_rule_stationarity(Affine(scale, offset), a, scale)),
        max_abs(scalar_outcome_stationarity(p, a, k, scale)),
    )


@st.composite
def orthant_rows(draw):
    """1-4 orthant rows at d=2..6; some put one modulus within a few fd_step of 0 or 1."""
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.abs(rng.standard_normal((n, d)))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    for row in rows:
        edge = draw(st.sampled_from([None, 0.0, 1.0]))
        if edge is not None:
            j = draw(st.integers(0, d - 1))
            a = abs(edge - draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])) * TOL.fd_step)
            others = np.arange(d) != j
            row[others] *= np.sqrt(1.0 - a * a) / np.linalg.norm(row[others])
            row[j] = a
    return rows


plain_rules = st.one_of(
    st.just(Born()),
    st.builds(Power, st.floats(0.5, 4.0)),
    st.builds(Affine, st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)),
)
positive_rules = st.one_of(  # every renormalization sum is positive
    st.just(Born()),
    st.builds(Power, st.floats(0.5, 4.0)),
    st.builds(Affine, st.floats(0.1, 3.0), st.floats(0.0, 2.0)),
)
any_rules = st.one_of(plain_rules, st.builds(Renormalized, positive_rules))


class TestRowKernelsMatchScalarFormulas:
    @settings(max_examples=150, deadline=None)
    @given(rows=orthant_rows(), rule=plain_rules, lam=st.floats(-3.0, 3.0))
    def test_rule_stationarity(self, rows, rule, lam):
        expected = np.array([scalar_rule_stationarity(rule, a, lam) for a in rows])
        np.testing.assert_array_equal(rule_stationarity(rule, rows, lam), expected)

    @settings(max_examples=150, deadline=None)
    @given(rows=orthant_rows(), rule=any_rules, lam=st.floats(-3.0, 3.0), shift=st.integers(0, 5))
    def test_outcome_stationarity(self, rows, rule, lam, shift):
        ks = (np.arange(len(rows)) + shift) % rows.shape[1]
        expected = np.array(
            [scalar_outcome_stationarity(scalar_outcome(rule, k), a, k, lam) for a, k in zip(rows, ks)]
        )
        np.testing.assert_array_equal(outcome_stationarity(outcomes(rule), rows, ks, lam), expected)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=orthant_rows(),
        scale=st.floats(-3.0, 3.0),
        offset=st.floats(-2.0, 2.0),
        shift=st.integers(0, 5),
    )
    def test_closed_form_check(self, rows, scale, offset, shift):
        # the scalar outcome form sums squares by a dot product, the row form
        # by linalg.row_sum: a few ulps of p, divided by the step
        bound = 8 * np.finfo(float).eps * (1.0 + abs(scale) + abs(offset)) / TOL.fd_step
        ks = (np.arange(len(rows)) + shift) % rows.shape[1]
        expected = [scalar_closed_form(a, k, scale, offset) for a, k in zip(rows, ks)]
        np.testing.assert_allclose(closed_form_check(rows, ks, scale, offset), expected, rtol=0, atol=bound)

    @settings(max_examples=100, deadline=None)
    @given(rows=orthant_rows())
    def test_power_sums(self, rows):
        expected = [[np.sum(a), np.sum(a**2), np.sum(a**3), np.sum(a**4)] for a in rows]
        np.testing.assert_array_equal(power_sums(rows), expected)


class TestRecovery:
    def test_mixed_dims_recover_the_square(self):
        coefficients, objective, sample_count = recover_rule([2, 3], 500, seed=0)
        np.testing.assert_allclose(coefficients, [0.0, 1.0, 0.0, 0.0], atol=1e-3)
        assert objective <= 1e-6
        assert sample_count == 1000

    def test_qubit_only_still_recovers(self):
        coefficients, _, _ = recover_rule([2], 500, seed=0)
        np.testing.assert_allclose(coefficients, [0.0, 1.0, 0.0, 0.0], atol=1e-2)

    def test_solution_is_the_global_optimum(self):
        # the problem is convex; cross-check the solver against the known
        # solution and against a local grid around it
        rows = np.concatenate([power_sums(haar_rows(d, range(200))) for d in (2, 3)])
        coefficients, objective = fit_power_series(rows)

        def objective_at(c):
            design = np.vstack([rows, 10.0 * np.ones((1, 4))])
            target = np.concatenate([np.ones(rows.shape[0]), [10.0]])
            return float(np.sum((design @ c - target) ** 2))

        known = np.array([0.0, 1.0, 0.0, 0.0])
        assert objective <= objective_at(known) + 1e-12
        rng = np.random.default_rng(99)
        for _ in range(200):
            perturbed = coefficients + rng.uniform(-1e-2, 1e-2, size=4)
            assert objective <= objective_at(perturbed) + 1e-12

    def test_repeated_symmetric_point_is_rank_deficient(self):
        point = ModulusVector(np.array([1.0, 1.0]) / np.sqrt(2))
        rows = np.tile(power_sums(point.moduli), (100, 1))
        with pytest.raises(RankDeficient):
            fit_power_series(rows)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            recover_rule([], 100, seed=0)
        with pytest.raises(ValueError):
            recover_rule([1], 100, seed=0)
        with pytest.raises(ValueError):
            recover_rule([2], 39, seed=0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_recovery_is_seed_stable(self, seed):
        coefficients, _, _ = recover_rule([2, 3], 120, seed=seed)
        np.testing.assert_allclose(coefficients, [0.0, 1.0, 0.0, 0.0], atol=1e-3)


class TestRecoveryBlocks:
    SAMPLES = 259  # per dimension

    def test_dimension_di_draws_from_substream_seed_di(self, monkeypatch):
        # each dimension's samples are one scan, which derives one stream at its own address
        seen = []

        def recording(seed, *indices):
            seen.append((seed, *indices))
            return substream(seed, *indices)

        monkeypatch.setattr(quantum, "substream", recording)
        recover_rule([2, 3], self.SAMPLES, seed=5)
        assert seen == [(5, 0), (5, 1)]

    def test_first_k_samples_are_a_k_sample_run(self, monkeypatch):
        # the first k rows of each dimension's scan are those of a k-sample
        # run, for every k a run takes
        fitted = []
        fit = variational.fit_power_series
        monkeypatch.setattr(variational, "fit_power_series", lambda rows: fitted.append(rows) or fit(rows))
        n = self.SAMPLES
        recover_rule([2, 3], n, seed=5)
        long = fitted.pop()
        for k in range(variational.MIN_SAMPLES, n + 1):
            recover_rule([2, 3], k, seed=5)
            short = fitted.pop()
            assert short.tobytes() == np.concatenate([long[:k], long[n : n + k]]).tobytes(), k
        assert len(np.unique(long[:, 0])) == 2 * n
