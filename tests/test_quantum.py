"""States, observables, expansion, probabilities, and measurement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import quantum
from bornlab.linalg import eigendecompose, eigensystems, fix_column_phases, haar_array
from bornlab.quantum import (
    DimMismatch,
    ModulusVector,
    NotNormalized,
    Observable,
    StateVector,
    born_probabilities,
    check_orthant,
    expand,
    gapped_eigenvalues,
    haar_blocks,
    haar_state,
    measure,
    moduli,
    random_observables,
    sample_outcomes,
    spin1_observables,
)
from bornlab.rules import Born, Power, defect_scan, rule_probabilities
from bornlab.streams import BLOCK, substream
from bornlab.tolerances import TOL


def inverse_cdf(cumulative, uniforms):
    """Reference draw: the first outcome whose cumulative probability reaches
    the uniform, ties toward the lower index, the last outcome above them all."""
    return np.minimum(np.searchsorted(cumulative, uniforms, side="left"), cumulative.size - 1)


def diagonal_basis(values):
    """Checked eigenvector columns of the diagonal observable diag(values)."""
    return eigensystems(np.diag(values).astype(complex))[1]


class Replay:
    """A generator whose random(n) hands out the next n of a fixed list of uniforms."""

    def __init__(self, uniforms):
        self.uniforms, self.used = uniforms, 0

    def random(self, n):
        self.used += n
        return self.uniforms[self.used - n : self.used]


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


OFF_BY_1E11 = np.sqrt([0.5 + 1e-11, 0.5])  # square sum 1 + 1e-11


def stacked(row):
    """The row as (d,), as row 2 of (3, d) rows and as row [1, 2] of (2, 3, d)
    rows; every other row is the basis state e_0."""
    rows = np.tile(np.eye(1, row.size), (2, 3, 1))
    rows[1, 2] = row
    return row, rows[1], rows


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

    # The norm checks reject each boundary case with the same exception
    # type as the elementwise norms they replaced.
    @pytest.mark.parametrize(
        "amplitudes",
        [OFF_BY_1E11, np.sqrt([0.5 - 1e-11, 0.5]), 1j * OFF_BY_1E11, np.array([np.nan, 1.0]), np.array([])],
    )
    def test_state_rejects_boundary_cases(self, amplitudes):
        with pytest.raises(NotNormalized):
            StateVector(amplitudes)

    @pytest.mark.parametrize(
        "row, error",
        [
            (OFF_BY_1E11, NotNormalized),
            (np.sqrt([0.5 - 1e-11, 0.5]), NotNormalized),
            (np.array([np.nan, 1.0]), NotNormalized),
            (np.array([-0.6, 0.8]), ValueError),
            (np.array([]), NotNormalized),
        ],
    )
    def test_modulus_and_orthant_reject_boundary_cases(self, row, error):
        with pytest.raises(ValueError) as excinfo:
            ModulusVector(row)
        assert type(excinfo.value) is error
        for rows in stacked(row):
            with pytest.raises(ValueError) as excinfo:
                check_orthant(rows)
            assert type(excinfo.value) is error

    def test_orthant_accepts_every_batch_shape(self):
        for rows in stacked(np.array([0.6, 0.8])):
            check_orthant(rows)
        check_orthant(np.empty((0, 3)))  # no rows, nothing to reject

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

    def test_a_zero_draw_is_not_normalized(self, monkeypatch):
        class ZeroRows:  # standard normal draws whose first rows are zero
            def __init__(self, rows):
                self.rng, self.rows = np.random.default_rng(20), rows

            def standard_normal(self, shape):
                z = self.rng.standard_normal(shape)
                z[: self.rows] = 0.0
                return z

        with np.errstate(invalid="ignore"):  # the zero row's 0/0
            with pytest.raises(NotNormalized):
                haar_state(4, ZeroRows(2))  # real and imaginary parts both zero
            # row 0 of each part, in the second of three blocks
            blocks = iter([np.random.default_rng(21), ZeroRows(1), np.random.default_rng(22)])
            monkeypatch.setattr("bornlab.streams.substream", lambda *address: next(blocks))
            with pytest.raises(NotNormalized):
                haar_blocks(4, 2 * BLOCK + 3, 0)
            # both parts zero in the second of three defect-scan trials: a
            # rejected state, not a nan defect
            trials = iter([np.random.default_rng(23), ZeroRows(2), np.random.default_rng(24)])
            monkeypatch.setattr("bornlab.rules.substream", lambda *address: next(trials))
            with pytest.raises(NotNormalized):
                defect_scan(Power(1.0), 4, 3, 0)

    def test_moduli_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            moduli(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_states_need_a_dimension(self, dim):
        # dim 0 draws no amplitudes, which are not normalized; dim -1 is numpy's ValueError
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError):
            haar_state(dim, rng)
        with pytest.raises(ValueError):
            haar_blocks(dim, 3, 21)

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 1000])
    def test_blocks_are_normalized_as_if_one_at_a_time(self, d, n):
        # one division and one check on the stacked rows keep the bits of
        # each block's z / norm(z)
        blocks = []
        for b, start in enumerate(range(0, n, BLOCK)):
            rng = substream(23, 4, b)
            size = min(BLOCK, n - start)
            z = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
            blocks.append(z / np.linalg.norm(z, axis=-1, keepdims=True))
        assert haar_blocks(d, n, 23, 4).tobytes() == np.concatenate(blocks).tobytes()

    def test_state_norm_is_the_numpy_norm(self):
        # bit for bit: z / norm(z) from the two rows of a fresh draw; the norm
        # is that of the strided views of z, as numpy takes it, and the same
        # sums over contiguous rows round differently
        for seed in (0, 1, 2, 3, 2**40 + 3):
            for d in range(1, 65):
                real, imag = np.random.default_rng(seed).standard_normal((2, d))
                z = real + 1j * imag
                state = haar_state(d, np.random.default_rng(seed))
                assert state.amplitudes.tobytes() == (z / np.linalg.norm(z)).tobytes(), (seed, d)


class TestObservable:
    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(ValueError):
            eigensystems(np.diag([1.0, 1.0, 2.0]).astype(complex))

    def test_from_eigenbasis_matches_from_matrix(self):
        rng = np.random.default_rng(5)
        built = Observable.from_eigenbasis(gapped_eigenvalues(4, rng), haar_array(4, rng))
        recovered = eigendecompose(built.matrix.entries)
        np.testing.assert_allclose(built.eigensystem.eigenvalues, recovered.eigenvalues, atol=1e-12)
        # phase-fixed eigenvectors agree column by column
        np.testing.assert_allclose(built.eigensystem.eigenvectors, recovered.eigenvectors, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 6, 8, 16])
    def test_stacked_observables_equal_single_builds(self, d):
        streams = lambda: (substream(4, i) for i in range(5))
        matrices, values, vectors = random_observables(d, streams())
        assert matrices.shape == vectors.shape == (5, d, d) and values.shape == (5, d)
        for i, rng in enumerate(streams()):
            spectrum, basis = gapped_eigenvalues(d, rng), haar_array(d, rng)
            single_matrices, single_values, single_vectors = quantum.eigenbasis_stack(spectrum[None], basis[None])
            np.testing.assert_array_equal(values[i], single_values[0])
            np.testing.assert_array_equal(vectors[i], single_vectors[0])
            np.testing.assert_allclose(matrices[i], single_matrices[0], rtol=0, atol=1e-14)
            # the column layout of a single build, which V^dag psi's rounding depends on
            assert vectors[i].flags.f_contiguous and single_vectors[0].flags.f_contiguous

    def test_stack_is_checked_as_a_whole(self):
        rng = np.random.default_rng(6)
        bases = haar_array(3, rng, (4,))
        values = np.array([[0.3, -0.2, 0.9]] * 4)
        matrices, sorted_values, _ = quantum.eigenbasis_stack(values, bases)
        np.testing.assert_array_equal(sorted_values, [[-0.2, 0.3, 0.9]] * 4)
        assert np.max(np.abs(matrices - np.conj(np.swapaxes(matrices, -1, -2)))) == 0.0
        values[2, 1] = values[2, 0]  # one degenerate member rejects the stack
        with pytest.raises(ValueError, match="degenerate"):
            quantum.eigenbasis_stack(values, bases)
        bases[3, :, 0] *= 2.0  # as does one basis that is not orthonormal
        with pytest.raises(ValueError, match="not orthonormal"):
            quantum.eigenbasis_stack(np.array([[0.3, -0.2, 0.9]] * 4), bases)
        # the n = 1 case, from_eigenbasis, is checked by the same call
        with pytest.raises(ValueError, match="degenerate"):
            Observable.from_eigenbasis(values[2], bases[2])
        with pytest.raises(ValueError, match="not orthonormal"):
            Observable.from_eigenbasis([0.3, -0.2, 0.9], bases[3])

    def test_random_observable_gap(self):
        _, values, _ = random_observables(5, (np.random.default_rng(seed) for seed in range(20)))
        assert np.min(np.diff(values, axis=-1)) > 1e-3

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

    def test_spectrum_gap_is_random_gap_up_to_d31(self):
        # the dims every command and test uses keep the fixed 1e-3 gap, so
        # their draws are unchanged
        assert all(TOL.spectrum_gap(d) == TOL.random_gap == 1e-3 for d in range(2, 32))
        assert TOL.spectrum_gap(32) == 1.0 / 32**2 < 1e-3

    def test_large_dim_spectra_are_drawn(self):
        # a fixed 1e-3 gap accepts a d=256 draw with probability about 7e-15
        rows = gapped_eigenvalues(256, np.random.default_rng(0), (4,))
        assert rows.shape == (4, 256)
        assert np.min(np.diff(np.sort(rows, axis=1), axis=1)) > 1.0 / 256**2


class TestExpand:
    def test_eigenstate_expansion(self):
        _, _, (vectors,) = random_observables(3, [np.random.default_rng(0)])
        phi2 = StateVector(vectors[:, 1])
        alpha = expand(phi2, vectors)
        np.testing.assert_allclose(np.abs(alpha), [0.0, 1.0, 0.0], atol=1e-12)

    def test_diagonal_observable_returns_own_entries(self):
        vectors = diagonal_basis([-1.0, 0.0, 1.0])
        psi = StateVector.normalize(np.array([1.0, 2.0, 2.0]))
        alpha = expand(psi, vectors)
        np.testing.assert_allclose(np.abs(alpha), np.abs(psi.amplitudes), atol=1e-14)

    def test_symmetric_state(self):
        vectors = diagonal_basis([0.1, 0.5, 0.9])
        psi = StateVector(np.ones(3) / np.sqrt(3))
        alpha = expand(psi, vectors)
        np.testing.assert_allclose(np.abs(alpha) ** 2, np.ones(3) / 3, atol=1e-14)

    def test_dim_mismatch(self):
        _, _, (vectors,) = random_observables(3, [np.random.default_rng(1)])
        with pytest.raises(DimMismatch):
            expand(StateVector(np.array([1.0, 0.0])), vectors)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_expansion_preserves_norm(self, d, seed):
        rng = np.random.default_rng(seed)
        psi = haar_state(d, rng)
        _, _, (vectors,) = random_observables(d, [rng])
        alpha = expand(psi, vectors)
        assert abs(np.sum(np.abs(alpha) ** 2) - 1.0) <= 1e-12


class TestProbabilities:
    def test_certainty_on_eigenstate(self):
        _, _, (vectors,) = random_observables(4, [np.random.default_rng(2)])
        phi = StateVector(vectors[:, 2])
        p = rule_probabilities(Born(), moduli(expand(phi, vectors)).moduli)
        np.testing.assert_allclose(p, [0, 0, 1, 0], atol=1e-12)

    def test_symmetric_state_uniform(self):
        vectors = diagonal_basis([0.1, 0.5, 0.9])
        psi = StateVector(np.ones(3) / np.sqrt(3))
        p = rule_probabilities(Born(), moduli(expand(psi, vectors)).moduli)
        np.testing.assert_allclose(p, np.ones(3) / 3, atol=1e-14)

    def test_linear_rule_defect_signal(self):
        # f(a) = a at the symmetric qubit state: entries 1/sqrt(2) each and
        # the sum is sqrt(2), not 1 - the defect is the point
        vectors = diagonal_basis([-0.5, 0.5])
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        p = rule_probabilities(Power(1), moduli(expand(psi, vectors)).moduli)
        np.testing.assert_allclose(p, [0.7071067811865475] * 2, atol=1e-12)
        assert abs(np.sum(p) - np.sqrt(2)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_born_probabilities_normalized(self, d, seed):
        rng = np.random.default_rng(seed)
        psi = haar_state(d, rng)
        _, _, (vectors,) = random_observables(d, [rng])
        p = rule_probabilities(Born(), moduli(expand(psi, vectors)).moduli)
        assert abs(np.sum(p) - 1.0) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 10_000))
    def test_phase_invariance(self, d, seed):
        # multiplying each expansion coefficient by an arbitrary phase is a
        # diagonal unitary in the eigenbasis; probabilities cannot move
        rng = np.random.default_rng(seed)
        _, _, (vectors,) = random_observables(d, [rng])
        psi = haar_state(d, rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
        conjugated = StateVector((vectors * phases) @ (vectors.conj().T @ psi.amplitudes))
        for rule in (Born(), Power(1.5)):
            base = rule_probabilities(rule, moduli(expand(psi, vectors)).moduli)
            shifted = rule_probabilities(rule, moduli(expand(conjugated, vectors)).moduli)
            assert np.max(np.abs(base - shifted)) <= 1e-12


class TestMeasurement:
    def test_eigenstate_is_deterministic(self):
        _, _, (vectors,) = random_observables(3, [np.random.default_rng(3)])
        phi1 = StateVector(vectors[:, 0])
        for seed in range(20):
            k, _ = measure(phi1, vectors, np.random.default_rng(seed))
            assert k == 0

    def test_post_state_is_matching_eigenvector(self):
        _, _, (vectors,) = random_observables(4, [np.random.default_rng(4)])
        psi = haar_state(4, np.random.default_rng(5))
        k, post_state = measure(psi, vectors, np.random.default_rng(6))
        phi = vectors[:, k]
        overlap = abs(np.vdot(post_state.amplitudes, phi))
        assert abs(overlap - 1.0) < 1e-12

    def test_repeatability_after_collapse(self):
        _, _, (vectors,) = random_observables(3, [np.random.default_rng(7)])
        psi = haar_state(3, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        k, post_state = measure(psi, vectors, rng)
        for _ in range(100):
            again, _ = measure(post_state, vectors, rng)
            assert again == k

    def test_frequencies_match_binomial_oracle(self):
        # symmetric qubit state: outcome 0 is a fair coin, so the count over
        # n shots sits within three binomial standard deviations of n/2
        vectors = diagonal_basis([-0.5, 0.5])
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        shots = 100_000
        counts = sample_outcomes(psi, vectors, shots, np.random.default_rng(11))
        sigma = np.sqrt(0.25 / shots)
        assert abs(counts[0] / shots - 0.5) < 3 * sigma

    def test_single_shot_loop_agrees_with_batch(self):
        vectors = diagonal_basis([-0.5, 0.5])
        psi = StateVector(np.array([0.6, 0.8]))
        shots = 4000
        rng = np.random.default_rng(13)
        hits = sum(measure(psi, vectors, rng)[0] == 0 for _ in range(shots))
        sigma = np.sqrt(0.36 * 0.64 / shots)
        assert abs(hits / shots - 0.36) < 3 * sigma

    def test_sampling_deterministic_for_fixed_stream(self):
        _, _, (vectors,) = random_observables(3, [np.random.default_rng(14)])
        psi = haar_state(3, np.random.default_rng(15))
        a = sample_outcomes(psi, vectors, 1000, substream(77, 0))
        b = sample_outcomes(psi, vectors, 1000, substream(77, 0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shots", [1, 6, 7, 50, 301])
    def test_chunked_counts_equal_one_draw(self, monkeypatch, shots):
        _, _, (vectors,) = random_observables(3, [np.random.default_rng(16)])
        psi = haar_state(3, np.random.default_rng(17))
        cumulative = np.cumsum(born_probabilities(psi, vectors))
        # one draw of all the uniforms, inverse CDF with ties to the lower index
        single = np.random.default_rng(18).random(shots)
        outcomes = np.minimum(np.searchsorted(cumulative, single, side="left"), 2)
        reference = np.bincount(outcomes, minlength=3)
        monkeypatch.setattr(quantum, "SHOT_CHUNK", 7)
        counts = sample_outcomes(psi, vectors, shots, np.random.default_rng(18))
        np.testing.assert_array_equal(counts, reference)

    @pytest.mark.parametrize(
        "probabilities, scale",
        [
            ([0.5, 0.5], 1.0),
            ([0.3, 0.7], 1.0 - 2e-13),  # a last cumulative value below 1, as rounding leaves it
            ([0.0, 1.0], 1.0),
            ([0.0, 0.25, 0.0, 0.0, 0.25, 0.5, 0.0, 0.0], 1.0),  # zero cells repeat cumulative values
            ([0.125] * 8, 1.0 - 2e-13),
        ],
    )
    def test_chunked_counts_equal_one_draw_at_the_edges(self, monkeypatch, probabilities, scale):
        d = len(probabilities)
        vectors = diagonal_basis(np.arange(d, dtype=float))
        psi = StateVector(np.sqrt(probabilities) * scale)
        cumulative = np.cumsum(born_probabilities(psi, vectors))
        if scale < 1.0:
            assert cumulative[-1] < 1.0
        # uniforms on every cumulative value and its neighbours, at the ends
        # of [0, 1) and above the last cumulative value, then random ones
        edges = np.concatenate([cumulative, np.nextafter(cumulative, 0.0), np.nextafter(cumulative, 1.0)])
        top = np.nextafter(1.0, 0.0)
        fixed = np.concatenate([edges[edges < 1.0], [0.0, top, (cumulative[-1] + top) / 2]])
        uniforms = np.concatenate([fixed, np.random.default_rng(20).random(50)])
        reference = np.bincount(inverse_cdf(cumulative, uniforms), minlength=d)
        monkeypatch.setattr(quantum, "SHOT_CHUNK", 7)
        counts = sample_outcomes(psi, vectors, uniforms.size, Replay(uniforms))
        np.testing.assert_array_equal(counts, reference)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 3), min_size=2, max_size=8).filter(any),
        scale=st.sampled_from([1.0, 1.0 - 2e-13, 1.0 - 4e-13]),
        data=st.data(),
    )
    def test_measure_and_counts_follow_one_draw_rule(self, weights, scale, data):
        # zero weights tie cumulative values, a scale below 1 leaves the last
        # one below 1; uniforms sit on and next to every cumulative value
        d = len(weights)
        vectors = np.eye(d, dtype=complex)
        psi = StateVector(np.sqrt(np.array(weights) / sum(weights)) * scale)
        cumulative = np.cumsum(born_probabilities(psi, vectors))
        edges = np.concatenate([cumulative, np.nextafter(cumulative, 0.0), np.nextafter(cumulative, 1.0), [0.0]])
        uniform = st.one_of(st.sampled_from(sorted(edges[edges < 1.0])), st.floats(0.0, 1.0, exclude_max=True))
        uniforms = np.array(data.draw(st.lists(uniform, min_size=1, max_size=30)))
        reference = inverse_cdf(cumulative, uniforms)

        rng = Replay(uniforms)  # measure() and sample_outcomes() draw these same uniforms
        outcomes = [measure(psi, vectors, rng)[0] for _ in uniforms]
        np.testing.assert_array_equal(outcomes, reference)
        counts = sample_outcomes(psi, vectors, uniforms.size, Replay(uniforms))
        np.testing.assert_array_equal(counts, np.bincount(reference, minlength=d))


    def test_one_draw_repeats_equal_scalar_measure_calls(self):
        # sample's collapse check: 100 shots of sample_outcomes, against the
        # 100 measure() calls it replaced and the inverse CDF of one draw
        mixed = False
        for seed in range(20):
            _, _, (vectors,) = random_observables(3, [substream(19, seed, 1)])
            psi = haar_state(3, substream(19, seed, 0))
            k, post_state = measure(psi, vectors, substream(19, seed, 3))
            for state in (psi, post_state):
                rng = substream(19, seed, 4)
                scalar = [measure(state, vectors, rng)[0] for _ in range(100)]
                cumulative = np.cumsum(born_probabilities(state, vectors))
                one_draw = inverse_cdf(cumulative, substream(19, seed, 4).random(100))
                np.testing.assert_array_equal(one_draw, scalar)
                counts = sample_outcomes(state, vectors, 100, substream(19, seed, 4))
                np.testing.assert_array_equal(counts, np.bincount(scalar, minlength=3))
                mixed = mixed or len(set(scalar)) > 1
            assert set(scalar) == {k}  # the collapsed state repeats
        assert mixed  # the uncollapsed states exercise more than one outcome


class TestSpinOneFixtures:
    def test_jz_spectrum(self):
        _, values, _ = spin1_observables()
        np.testing.assert_allclose(values[0], [-1.0, 0.0, 1.0])

    def test_fixture_matrix_matches_ladder_oracle(self):
        jx, jy = spin1_ladder_matrices()
        expected = jx @ jx - jy @ jy
        np.testing.assert_allclose(expected, [[0, 0, 1], [0, 0, 0], [1, 0, 0]], atol=1e-15)
        matrices, _, _ = spin1_observables()
        np.testing.assert_allclose(matrices[1], expected, atol=1e-15)

    def test_jx2_jy2_spectrum_from_oracle(self):
        jx, jy = spin1_ladder_matrices()
        oracle = np.linalg.eigvalsh(jx @ jx - jy @ jy)
        _, values, _ = spin1_observables()
        np.testing.assert_allclose(values[1], oracle, atol=1e-14)

    def test_both_share_middle_eigenvector(self):
        e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
        matrices, _, _ = spin1_observables()
        for matrix in matrices:
            residual = matrix @ e2 - (e2.conj() @ matrix @ e2) * e2
            assert np.linalg.norm(residual) < 1e-14

    def test_plus_minus_eigenvectors(self):
        _, _, vectors = spin1_observables()
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(vectors[1, :, 0], [s, 0, -s], atol=1e-14)
        np.testing.assert_allclose(vectors[1, :, 2], [s, 0, s], atol=1e-14)

    def test_stack_equals_single_decompositions(self):
        # bit for bit: eigh and the phase fix on the stack give each
        # matrix's own eigh and phase fix, the reference path
        matrices, values, vectors = spin1_observables()
        assert matrices.shape == vectors.shape == (2, 3, 3) and values.shape == (2, 3)
        for i, matrix in enumerate(matrices):
            single_values, single_vectors = np.linalg.eigh(matrix)
            assert values[i].tobytes() == single_values.tobytes()
            assert vectors[i].tobytes() == fix_column_phases(single_vectors).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_same_probability_for_middle_state(self, seed):
        psi = haar_state(3, np.random.default_rng(seed))
        _, _, vectors = spin1_observables()
        p_z = born_probabilities(psi, vectors[0])[1]
        p_x = born_probabilities(psi, vectors[1])[1]
        assert abs(p_z - p_x) <= 1e-12
