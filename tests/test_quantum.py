"""States, observables, expansion, probabilities, and measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import quantum
from bornlab.quantum import (
    DimMismatch,
    ModulusVector,
    NotNormalized,
    Observable,
    StateVector,
    born_probabilities,
    draw_outcomes,
    expand,
    gapped_eigenvalues,
    haar_state,
    haar_states,
    measure,
    moduli,
    random_observable,
    sample_outcomes,
    spin1_jx2_minus_jy2,
    spin1_jz,
)
from bornlab.rules import Born, Power, rule_probabilities
from bornlab.streams import substream


def spin1_ladder_matrices():
    """Independent oracle: Jx, Jy for spin 1 from the ladder operators."""
    m = np.array([1.0, 0.0, -1.0])
    jplus = np.zeros((3, 3))
    for i in range(2):
        k = m[i + 1]
        jplus[i, i + 1] = np.sqrt(1 * 2 - k * (k + 1))
    jminus = jplus.T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    return jx, jy


class TestStateAndModulus:
    def test_state_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            StateVector(np.array([1.0, 1.0]))

    def test_normalize_classmethod(self):
        psi = StateVector.normalize(np.array([3.0, 4.0]))
        np.testing.assert_allclose(psi.amplitudes, [0.6, 0.8])

    def test_modulus_rejects_negative(self):
        with pytest.raises(ValueError):
            ModulusVector(np.array([-0.6, 0.8]))

    def test_modulus_rejects_off_orthant(self):
        with pytest.raises(NotNormalized):
            ModulusVector(np.array([0.9, 0.9]))

    def test_nan_is_not_normalized(self):
        with pytest.raises(NotNormalized):
            StateVector(np.array([np.nan, 0.0]))
        with pytest.raises(NotNormalized):
            ModulusVector(np.array([np.nan, 0.0]))

    def test_moduli_strips_phases(self):
        out = moduli(np.array([1j * 0.6, 0.8]))
        np.testing.assert_allclose(out.moduli, [0.6, 0.8])

    def test_moduli_of_basis_state(self):
        out = moduli(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.moduli, [1.0, 0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_moduli_phase_invariant(self, seed):
        rng = np.random.default_rng(seed)
        psi = haar_state(4, rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        np.testing.assert_allclose(
            moduli(psi.amplitudes * phases).moduli, moduli(psi.amplitudes).moduli
        )

    def test_stacked_states_redraw_zero_rows(self):
        rng = np.random.default_rng(20)
        shapes = []

        class FirstRowZeroTwice:  # the real part, then the imaginary part
            def standard_normal(self, shape):
                z = rng.standard_normal(shape)
                if len(shapes) < 2:
                    z[0] = 0.0
                shapes.append(shape)
                return z

        states = haar_states(4, 3, FirstRowZeroTwice())
        assert shapes == [(3, 4), (3, 4), (1, 4), (1, 4)]
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-15)

    def test_moduli_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            moduli(np.array([1.0, 1.0]))


class TestObservable:
    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(ValueError):
            Observable.from_matrix(np.diag([1.0, 1.0, 2.0]).astype(complex))

    def test_from_eigenbasis_matches_from_matrix(self):
        rng = np.random.default_rng(5)
        built = random_observable(4, rng)
        recovered = Observable.from_matrix(built.matrix)
        np.testing.assert_allclose(
            built.eigensystem.eigenvalues, recovered.eigensystem.eigenvalues, atol=1e-12
        )
        # phase-fixed eigenvectors agree column by column
        np.testing.assert_allclose(
            built.eigensystem.eigenvectors, recovered.eigensystem.eigenvectors, atol=1e-9
        )

    def test_random_observable_gap(self):
        for seed in range(20):
            obs = random_observable(5, np.random.default_rng(seed))
            assert np.min(np.diff(obs.eigensystem.eigenvalues)) > 1e-3

    def test_gapped_spectra_rows_and_the_per_draw_loop(self):
        def per_draw(dim, rng):  # reference: redraw the whole spectrum until gapped
            while True:
                values = rng.uniform(-1.0, 1.0, size=dim)
                if np.min(np.diff(np.sort(values))) > 1e-3:
                    return values

        for seed in range(300):  # at d=8 about 3% of first draws are redrawn
            np.testing.assert_array_equal(
                gapped_eigenvalues(8, np.random.default_rng(seed)), per_draw(8, np.random.default_rng(seed))
            )
        rows = gapped_eigenvalues(8, np.random.default_rng(0), (500,))
        assert rows.shape == (500, 8)
        assert np.min(np.diff(np.sort(rows, axis=1), axis=1)) > 1e-3


class TestExpand:
    def test_eigenstate_expansion(self):
        obs = random_observable(3, np.random.default_rng(0))
        phi2 = StateVector(obs.eigensystem.eigenvectors[:, 1])
        alpha = expand(phi2, obs)
        np.testing.assert_allclose(np.abs(alpha), [0.0, 1.0, 0.0], atol=1e-12)

    def test_diagonal_observable_returns_own_entries(self):
        obs = Observable.from_matrix(np.diag([-1.0, 0.0, 1.0]).astype(complex))
        psi = StateVector.normalize(np.array([1.0, 2.0, 2.0]))
        alpha = expand(psi, obs)
        np.testing.assert_allclose(np.abs(alpha), np.abs(psi.amplitudes), atol=1e-14)

    def test_symmetric_state(self):
        obs = Observable.from_matrix(np.diag([0.1, 0.5, 0.9]).astype(complex))
        psi = StateVector(np.ones(3) / np.sqrt(3))
        alpha = expand(psi, obs)
        np.testing.assert_allclose(np.abs(alpha) ** 2, np.ones(3) / 3, atol=1e-14)

    def test_dim_mismatch(self):
        obs = random_observable(3, np.random.default_rng(1))
        with pytest.raises(DimMismatch):
            expand(StateVector(np.array([1.0, 0.0])), obs)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_expansion_preserves_norm(self, d, seed):
        rng = np.random.default_rng(seed)
        alpha = expand(haar_state(d, rng), random_observable(d, rng))
        assert abs(np.sum(np.abs(alpha) ** 2) - 1.0) <= 1e-12


class TestProbabilities:
    def test_certainty_on_eigenstate(self):
        obs = random_observable(4, np.random.default_rng(2))
        phi = StateVector(obs.eigensystem.eigenvectors[:, 2])
        p = rule_probabilities(Born(), moduli(expand(phi, obs)).moduli)
        np.testing.assert_allclose(p, [0, 0, 1, 0], atol=1e-12)

    def test_symmetric_state_uniform(self):
        obs = Observable.from_matrix(np.diag([0.1, 0.5, 0.9]).astype(complex))
        psi = StateVector(np.ones(3) / np.sqrt(3))
        p = rule_probabilities(Born(), moduli(expand(psi, obs)).moduli)
        np.testing.assert_allclose(p, np.ones(3) / 3, atol=1e-14)

    def test_linear_rule_defect_signal(self):
        # f(a) = a at the symmetric qubit state: entries 1/sqrt(2) each and
        # the sum is sqrt(2), not 1 - the defect is the point
        obs = Observable.from_matrix(np.diag([-0.5, 0.5]).astype(complex))
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        p = rule_probabilities(Power(1), moduli(expand(psi, obs)).moduli)
        np.testing.assert_allclose(p, [0.7071067811865475] * 2, atol=1e-12)
        assert abs(np.sum(p) - np.sqrt(2)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_born_probabilities_normalized(self, d, seed):
        rng = np.random.default_rng(seed)
        p = rule_probabilities(Born(), moduli(expand(haar_state(d, rng), random_observable(d, rng))).moduli)
        assert abs(np.sum(p) - 1.0) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 10_000))
    def test_phase_invariance(self, d, seed):
        # multiplying each expansion coefficient by an arbitrary phase is a
        # diagonal unitary in the eigenbasis; probabilities cannot move
        rng = np.random.default_rng(seed)
        obs = random_observable(d, rng)
        psi = haar_state(d, rng)
        vectors = obs.eigensystem.eigenvectors
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
        conjugated = StateVector((vectors * phases) @ (vectors.conj().T @ psi.amplitudes))
        for rule in (Born(), Power(1.5)):
            base = rule_probabilities(rule, moduli(expand(psi, obs)).moduli)
            shifted = rule_probabilities(rule, moduli(expand(conjugated, obs)).moduli)
            assert np.max(np.abs(base - shifted)) <= 1e-12


class TestMeasurement:
    def test_eigenstate_is_deterministic(self):
        obs = random_observable(3, np.random.default_rng(3))
        phi1 = StateVector(obs.eigensystem.eigenvectors[:, 0])
        for seed in range(20):
            k, _ = measure(phi1, obs, np.random.default_rng(seed))
            assert k == 0

    def test_post_state_is_matching_eigenvector(self):
        obs = random_observable(4, np.random.default_rng(4))
        psi = haar_state(4, np.random.default_rng(5))
        k, post_state = measure(psi, obs, np.random.default_rng(6))
        phi = obs.eigensystem.eigenvectors[:, k]
        overlap = abs(np.vdot(post_state.amplitudes, phi))
        assert abs(overlap - 1.0) < 1e-12

    def test_repeatability_after_collapse(self):
        obs = random_observable(3, np.random.default_rng(7))
        psi = haar_state(3, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        k, post_state = measure(psi, obs, rng)
        for _ in range(100):
            again, _ = measure(post_state, obs, rng)
            assert again == k

    def test_frequencies_match_binomial_oracle(self):
        # symmetric qubit state: outcome 0 is a fair coin, so the count over
        # n shots sits within three binomial standard deviations of n/2
        obs = Observable.from_matrix(np.diag([-0.5, 0.5]).astype(complex))
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        shots = 100_000
        counts = sample_outcomes(psi, obs, shots, np.random.default_rng(11))
        sigma = np.sqrt(0.25 / shots)
        assert abs(counts[0] / shots - 0.5) < 3 * sigma

    def test_single_shot_loop_agrees_with_batch(self):
        obs = Observable.from_matrix(np.diag([-0.5, 0.5]).astype(complex))
        psi = StateVector(np.array([0.6, 0.8]))
        shots = 4000
        rng = np.random.default_rng(13)
        hits = sum(measure(psi, obs, rng)[0] == 0 for _ in range(shots))
        sigma = np.sqrt(0.36 * 0.64 / shots)
        assert abs(hits / shots - 0.36) < 3 * sigma

    def test_sampling_deterministic_for_fixed_stream(self):
        obs = random_observable(3, np.random.default_rng(14))
        psi = haar_state(3, np.random.default_rng(15))
        a = sample_outcomes(psi, obs, 1000, substream(77, 0))
        b = sample_outcomes(psi, obs, 1000, substream(77, 0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shots", [1, 6, 7, 50, 301])
    def test_chunked_counts_equal_one_draw(self, monkeypatch, shots):
        obs = random_observable(3, np.random.default_rng(16))
        psi = haar_state(3, np.random.default_rng(17))
        cumulative = np.cumsum(born_probabilities(psi, obs))
        # one draw of all the uniforms, inverse CDF with ties to the lower index
        single = np.random.default_rng(18).random(shots)
        outcomes = np.minimum(np.searchsorted(cumulative, single, side="left"), 2)
        reference = np.bincount(outcomes, minlength=3)
        monkeypatch.setattr(quantum, "SHOT_CHUNK", 7)
        counts = sample_outcomes(psi, obs, shots, np.random.default_rng(18))
        np.testing.assert_array_equal(counts, reference)


    def test_one_draw_repeats_equal_scalar_measure_calls(self):
        # sample's collapse check: one draw of 100 uniforms through the
        # inverse CDF, against the 100 measure() calls it replaced
        mixed = False
        for seed in range(20):
            obs = random_observable(3, substream(19, seed, 1))
            psi = haar_state(3, substream(19, seed, 0))
            k, post_state = measure(psi, obs, substream(19, seed, 3))
            for state in (psi, post_state):
                rng = substream(19, seed, 4)
                scalar = [measure(state, obs, rng)[0] for _ in range(100)]
                cumulative = np.cumsum(born_probabilities(state, obs))
                one_draw = draw_outcomes(cumulative, substream(19, seed, 4).random(100))
                np.testing.assert_array_equal(one_draw, scalar)
                mixed = mixed or len(set(scalar)) > 1
            assert set(scalar) == {k}  # the collapsed state repeats
        assert mixed  # the uncollapsed states exercise more than one outcome


class TestSpinOneFixtures:
    def test_jz_spectrum(self):
        np.testing.assert_allclose(spin1_jz().eigensystem.eigenvalues, [-1.0, 0.0, 1.0])

    def test_fixture_matrix_matches_ladder_oracle(self):
        jx, jy = spin1_ladder_matrices()
        expected = jx @ jx - jy @ jy
        np.testing.assert_allclose(expected, [[0, 0, 1], [0, 0, 0], [1, 0, 0]], atol=1e-15)
        np.testing.assert_allclose(spin1_jx2_minus_jy2().matrix.entries, expected, atol=1e-15)

    def test_jx2_jy2_spectrum_from_oracle(self):
        jx, jy = spin1_ladder_matrices()
        oracle = np.linalg.eigvalsh(jx @ jx - jy @ jy)
        np.testing.assert_allclose(
            spin1_jx2_minus_jy2().eigensystem.eigenvalues, oracle, atol=1e-14
        )

    def test_both_share_middle_eigenvector(self):
        e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
        for obs in (spin1_jz(), spin1_jx2_minus_jy2()):
            residual = obs.matrix.entries @ e2 - (e2.conj() @ obs.matrix.entries @ e2) * e2
            assert np.linalg.norm(residual) < 1e-14

    def test_plus_minus_eigenvectors(self):
        system = spin1_jx2_minus_jy2().eigensystem
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(system.eigenvectors[:, 0], [s, 0, -s], atol=1e-14)
        np.testing.assert_allclose(system.eigenvectors[:, 2], [s, 0, s], atol=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_same_probability_for_middle_state(self, seed):
        psi = haar_state(3, np.random.default_rng(seed))
        p_z = born_probabilities(psi, spin1_jz())[1]
        p_x = born_probabilities(psi, spin1_jx2_minus_jy2())[1]
        assert abs(p_z - p_x) <= 1e-12
