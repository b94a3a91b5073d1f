"""States, observables, expansion, probabilities, and measurement."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bornlab.linalg import check_eigensystems, eigendecompose, fix_column_phases, haar_array
from bornlab.quantum import (
    DimMismatch,
    ModulusVector,
    NotNormalized,
    Observable,
    StateVector,
    check_orthant,
    chi_square_sf,
    chi_square_test,
    expand,
    haar_scan,
    haar_state,
    measure,
    moduli,
    sample_outcomes,
    spin1_observables,
)
from bornlab.rules import Born, Power, Renormalized, defect_scan, rule_probabilities
from bornlab.streams import substream
from bornlab.tolerances import TOL


def born(state, vectors):
    """The Born probability row of a state in the eigenbasis vectors (d, d),
    scored by rule_probabilities as sample scores it."""
    return rule_probabilities(Born(), moduli(expand(state, vectors)).moduli)


def diagonal_basis(values):
    """Checked eigenvector columns of the diagonal observable diag(values)."""
    matrix = np.diag(values).astype(complex)
    eigenvalues, vectors = np.linalg.eigh(matrix)
    check_eigensystems(matrix, eigenvalues, vectors)
    return vectors


class ZeroRows:
    """Standard normal draws whose rows start, ..., start + rows - 1 are zero."""

    def __init__(self, rows, start=0):
        self.rng, self.rows = np.random.default_rng(20), slice(start, start + rows)

    def standard_normal(self, shape):
        z = self.rng.standard_normal(shape)
        z[self.rows] = 0.0
        return z


def spectrum(dim, rng):
    """A gapped spectrum in drawn order: an evenly spaced one, permuted by rng."""
    return rng.permutation(np.linspace(-1.0, 1.0, dim))


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
OFF_BY_2E12 = np.sqrt([0.5 + 2e-12, 0.5])  # just outside TOL.unit_norm
OFF_BY_5E13 = np.sqrt([0.5 + 5e-13, 0.5])  # just inside it

# Row entries that steer the sign and norm tests: nan beside a negative entry,
# infinities, a signed zero, a negative whose square underflows, and unit-norm pairs.
ROW_ENTRIES = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 0.6, 0.8, -0.6, 1e-200, -1e-200]),
    st.floats(allow_nan=True, allow_infinity=True),
)


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
            # numpy's minimum carries a nan past the sign test, in either order
            (np.array([-0.6, np.nan]), NotNormalized),
            (np.array([np.nan, -0.6]), NotNormalized),
            (np.array([np.inf, 0.0]), NotNormalized),
            (np.array([1.0, -np.inf]), ValueError),
            (OFF_BY_2E12, NotNormalized),
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

    @pytest.mark.parametrize("row", [np.array([-0.0, 1.0]), OFF_BY_5E13])
    def test_modulus_and_orthant_accept_boundary_cases(self, row):
        assert ModulusVector(row).moduli.tobytes() == row.tobytes()
        for rows in stacked(row):
            check_orthant(rows)

    @staticmethod
    def rejection(check, value):
        """The type of ValueError check(value) raises, or None if it accepts."""
        try:
            check(value)
        except ValueError as exc:
            return type(exc)
        return None

    @settings(max_examples=400, deadline=None)
    @given(entries=st.lists(ROW_ENTRIES, max_size=9), normalize=st.booleans())
    def test_one_row_checks_agree_with_stacked_rows(self, entries, normalize):
        row = np.array(entries, dtype=np.float64)
        with np.errstate(all="ignore"):  # the norm of a huge or infinite row warns; the checks must not
            norm = np.linalg.norm(row)
            if normalize and 0.0 < norm < np.inf:
                row = row / norm
        expected = self.rejection(check_orthant, row[None])
        assert self.rejection(check_orthant, np.stack([row, row])) is expected
        assert self.rejection(ModulusVector, row) is expected
        assert self.rejection(ModulusVector, row[None]) is expected
        assert self.rejection(check_orthant, row) is expected

    def test_an_overflowing_square_is_not_normalized_without_a_warning(self):
        row = np.array([1e200, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for check, value in [(StateVector, row), (ModulusVector, row), (check_orthant, row), (check_orthant, row[None])]:
                with pytest.raises(NotNormalized):
                    check(value)

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=9),
        offset=st.one_of(st.sampled_from([0.0, 5e-13, -5e-13, 2e-12, -2e-12, 1e-11]), st.floats(-3e-12, 3e-12)),
    )
    def test_state_accepts_within_the_vdot_norm(self, parts, offset):
        amplitudes = np.array([complex(re, im) for re, im in parts])
        norm = np.linalg.norm(amplitudes)
        assume(norm > 1e-3)
        amplitudes *= np.sqrt(1.0 + offset) / norm
        defect = abs(np.vdot(amplitudes, amplitudes).real - 1.0)
        assume(abs(defect - TOL.unit_norm) > 1e-14)  # away from the edge, where rounding decides
        for value in (amplitudes, amplitudes[None]):
            if defect <= TOL.unit_norm:
                state = StateVector(value)
                assert state.amplitudes.shape == amplitudes.shape
                assert state.amplitudes.tobytes() == amplitudes.tobytes()
            else:
                with pytest.raises(NotNormalized):
                    StateVector(value)

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
        with np.errstate(invalid="ignore"):  # the zero row's 0/0
            with pytest.raises(NotNormalized):
                haar_state(4, ZeroRows(2))  # real and imaginary parts both zero
            # both parts of pair 130 of a scan's one stream
            monkeypatch.setattr("bornlab.quantum.substream", lambda *address: ZeroRows(1, start=130))
            with pytest.raises(NotNormalized):
                haar_scan(4, 259, 0)
            # both parts zero in the second of three defect-scan trials: a
            # rejected state, not a nan defect
            trials = iter([np.random.default_rng(23), ZeroRows(2), np.random.default_rng(24)])
            monkeypatch.setattr("bornlab.rules.substream", lambda *address: next(trials))
            with pytest.raises(NotNormalized):
                defect_scan(Power(1.0), 4, 3, 0)

    def test_a_zero_draw_in_a_one_stream_scan_is_not_normalized(self, monkeypatch):
        # both parts zero in pair 130 of a scan of ONE_STREAM_MIN or more
        # trials, whose rows are all drawn from one stream: one check of
        # the stacked moduli rejects the state, so no nan defect is reported
        monkeypatch.setattr("bornlab.quantum.substream", lambda *address: ZeroRows(1, start=130))
        with np.errstate(invalid="ignore"):  # the zero row's 0/0
            with pytest.raises(NotNormalized):
                defect_scan(Power(1.0), 4, 259, 0)

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
            haar_scan(dim, 3, 21)

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 1000])
    def test_blocks_are_normalized_as_if_one_at_a_time(self, d, n):
        # row i of a scan is the i-th (2, d) pair of its one stream, drawn
        # here one pair at a time, and one division and one check on the
        # stacked rows keep the bits of each row's own z / norm(z)
        rng, rows = substream(23, 4), []
        for _ in range(n):
            real, imag = rng.standard_normal((2, d))
            z = real + 1j * imag
            rows.append(z / np.linalg.norm(z))
        assert haar_scan(d, n, 23, 4).tobytes() == np.array(rows).tobytes()

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
        matrix = np.diag([1.0, 1.0, 2.0]).astype(complex)
        with pytest.raises(ValueError):
            check_eigensystems(matrix, *np.linalg.eigh(matrix))

    def test_from_eigenbasis_matches_from_matrix(self):
        rng = np.random.default_rng(5)
        built = Observable.from_eigenbasis(spectrum(4, rng), haar_array(4, rng))
        recovered = eigendecompose(built.matrix.entries)
        np.testing.assert_allclose(built.eigensystem.eigenvalues, recovered.eigenvalues, atol=1e-12)
        # phase-fixed eigenvectors agree column by column
        np.testing.assert_allclose(built.eigensystem.eigenvectors, recovered.eigenvectors, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 6, 8, 16])
    def test_from_eigenbasis_matches_eigendecompose(self, d):
        # a permuted spectrum is sorted with its columns: eigh of the built
        # matrix recovers the same ascending spectrum and phase-fixed columns
        for rng in (substream(4, i) for i in range(5)):
            values, basis = spectrum(d, rng), haar_array(d, rng)
            built = Observable.from_eigenbasis(values, basis)
            recovered = eigendecompose(built.matrix.entries)
            np.testing.assert_array_equal(built.eigensystem.eigenvalues, np.sort(values))
            np.testing.assert_allclose(recovered.eigenvalues, np.sort(values), rtol=0, atol=1e-12)
            np.testing.assert_allclose(built.eigensystem.eigenvectors, recovered.eigenvectors, rtol=0, atol=1e-9)
            # column k is, up to phase, the basis column that carried the k-th smallest value
            overlaps = np.conj(basis[:, np.argsort(values)]).T @ built.eigensystem.eigenvectors
            np.testing.assert_allclose(np.abs(np.diagonal(overlaps)), 1.0, rtol=0, atol=1e-12)

    def test_stack_is_checked_as_a_whole(self):
        rng = np.random.default_rng(6)
        bases = haar_array(3, rng, (4,))
        values = np.array([[0.3, -0.2, 0.9]] * 4)
        built = [Observable.from_eigenbasis(spectrum_i, basis) for spectrum_i, basis in zip(values, bases)]
        np.testing.assert_array_equal(built[0].eigensystem.eigenvalues, [-0.2, 0.3, 0.9])
        matrices = np.array([observable.matrix.entries for observable in built])
        assert np.max(np.abs(matrices - np.conj(np.swapaxes(matrices, -1, -2)))) == 0.0
        sorted_values = np.array([observable.eigensystem.eigenvalues for observable in built])
        vectors = np.array([observable.eigensystem.eigenvectors for observable in built])
        check_eigensystems(matrices, sorted_values, vectors)
        sorted_values[2, 1] = sorted_values[2, 0]  # one degenerate member rejects the stack
        with pytest.raises(ValueError, match="degenerate"):
            check_eigensystems(matrices, sorted_values, vectors)
        vectors[3, :, 0] *= 2.0  # as does one basis that is not orthonormal
        with pytest.raises(ValueError, match="not orthonormal"):
            check_eigensystems(matrices, np.array([[-0.2, 0.3, 0.9]] * 4), vectors)
        # from_eigenbasis checks its one observable by the same call
        with pytest.raises(ValueError, match="degenerate"):
            Observable.from_eigenbasis([0.3, 0.3, 0.9], bases[2])
        bases[3, :, 0] *= 2.0
        with pytest.raises(ValueError, match="not orthonormal"):
            Observable.from_eigenbasis([0.3, -0.2, 0.9], bases[3])


class TestExpand:
    def test_eigenstate_expansion(self):
        vectors = haar_array(3, np.random.default_rng(0))
        phi2 = StateVector(vectors[:, 1])
        alpha = expand(phi2, vectors)
        np.testing.assert_allclose(np.abs(alpha), [0.0, 1.0, 0.0], atol=1e-12)

    def test_diagonal_observable_returns_own_entries(self):
        vectors = diagonal_basis([-1.0, 0.0, 1.0])
        psi = StateVector(np.array([1.0, 2.0, 2.0]) / 3.0)
        alpha = expand(psi, vectors)
        np.testing.assert_allclose(np.abs(alpha), np.abs(psi.amplitudes), atol=1e-14)

    def test_symmetric_state(self):
        vectors = diagonal_basis([0.1, 0.5, 0.9])
        psi = StateVector(np.ones(3) / np.sqrt(3))
        alpha = expand(psi, vectors)
        np.testing.assert_allclose(np.abs(alpha) ** 2, np.ones(3) / 3, atol=1e-14)

    def test_dim_mismatch(self):
        vectors = haar_array(3, np.random.default_rng(1))
        with pytest.raises(DimMismatch):
            expand(StateVector(np.array([1.0, 0.0])), vectors)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_expansion_preserves_norm(self, d, seed):
        rng = np.random.default_rng(seed)
        psi = haar_state(d, rng)
        vectors = haar_array(d, rng)
        alpha = expand(psi, vectors)
        assert abs(np.sum(np.abs(alpha) ** 2) - 1.0) <= 1e-12


class TestProbabilities:
    def test_certainty_on_eigenstate(self):
        vectors = haar_array(4, np.random.default_rng(2))
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
    def test_born_scores_are_normalized(self, d, seed):
        rng = np.random.default_rng(seed)
        psi = haar_state(d, rng)
        vectors = haar_array(d, rng)
        p = rule_probabilities(Born(), moduli(expand(psi, vectors)).moduli)
        assert abs(np.sum(p) - 1.0) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 6), seed=st.integers(0, 10_000))
    def test_phase_invariance(self, d, seed):
        # multiplying each expansion coefficient by an arbitrary phase is a
        # diagonal unitary in the eigenbasis; probabilities cannot move
        rng = np.random.default_rng(seed)
        vectors = haar_array(d, rng)
        psi = haar_state(d, rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
        conjugated = StateVector((vectors * phases) @ (vectors.conj().T @ psi.amplitudes))
        for rule in (Born(), Power(1.5)):
            base = rule_probabilities(rule, moduli(expand(psi, vectors)).moduli)
            shifted = rule_probabilities(rule, moduli(expand(conjugated, vectors)).moduli)
            assert np.max(np.abs(base - shifted)) <= 1e-12


class TestMeasurement:
    def test_eigenstate_is_deterministic(self):
        vectors = haar_array(3, np.random.default_rng(3))
        p = born(StateVector(vectors[:, 0]), vectors)
        for seed in range(20):
            k, _ = measure(p, vectors, np.random.default_rng(seed))
            assert k == 0

    def test_post_state_is_matching_eigenvector(self):
        vectors = haar_array(4, np.random.default_rng(4))
        psi = haar_state(4, np.random.default_rng(5))
        k, post_state = measure(born(psi, vectors), vectors, np.random.default_rng(6))
        phi = vectors[:, k]
        overlap = abs(np.vdot(post_state.amplitudes, phi))
        assert abs(overlap - 1.0) < 1e-12
        np.testing.assert_array_equal(post_state.amplitudes, phi)  # the column itself, not renormalized

    def test_repeatability_after_collapse(self):
        vectors = haar_array(3, np.random.default_rng(7))
        psi = haar_state(3, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        k, post_state = measure(born(psi, vectors), vectors, rng)
        for _ in range(100):
            again, _ = measure(born(post_state, vectors), vectors, rng)
            assert again == k

    def test_frequencies_match_binomial_oracle(self):
        # symmetric qubit state: outcome 0 is a fair coin, so the count over
        # n shots sits within three binomial standard deviations of n/2
        vectors = diagonal_basis([-0.5, 0.5])
        psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2))
        shots = 100_000
        counts = sample_outcomes(born(psi, vectors)[None], shots, np.random.default_rng(11))[0]
        sigma = np.sqrt(0.25 / shots)
        assert abs(counts[0] / shots - 0.5) < 3 * sigma

    def test_single_shot_loop_agrees_with_batch(self):
        vectors = diagonal_basis([-0.5, 0.5])
        p = born(StateVector(np.array([0.6, 0.8])), vectors)
        shots = 4000
        rng = np.random.default_rng(13)
        hits = sum(measure(p, vectors, rng)[0] == 0 for _ in range(shots))
        sigma = np.sqrt(0.36 * 0.64 / shots)
        assert abs(hits / shots - 0.36) < 3 * sigma

    def test_sampling_deterministic_for_fixed_stream(self):
        vectors = haar_array(3, np.random.default_rng(14))
        p = born(haar_state(3, np.random.default_rng(15)), vectors)
        a = sample_outcomes(p[None], 1000, substream(77, 0))
        b = sample_outcomes(p[None], 1000, substream(77, 0))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shots", [1, 6, 7, 50, 301])
    def test_chunked_counts_equal_one_draw(self, shots):
        # the name is kept from the chunked inverse-CDF draw: the counts of any
        # shot number are now one multinomial draw from the generator as it
        # stands, and they add up to the shots
        vectors = haar_array(3, np.random.default_rng(16))
        p = born(haar_state(3, np.random.default_rng(17)), vectors)
        counts = sample_outcomes(p[None], shots, np.random.default_rng(18))[0]
        np.testing.assert_array_equal(counts, np.random.default_rng(18).multinomial(shots, p))
        assert counts.sum() == shots

    @pytest.mark.parametrize(
        "probabilities, scale",
        [
            ([0.5, 0.5], 1.0),
            ([0.3, 0.7], 1.0 - 2e-13),  # a sum below 1, as rounding leaves it
            ([0.0, 1.0], 1.0),
            ([0.0, 0.25, 0.0, 0.0, 0.25, 0.5, 0.0, 0.0], 1.0),  # zero cells
            ([0.125] * 8, 1.0 - 2e-13),
        ],
    )
    def test_chunked_counts_equal_one_draw_at_the_edges(self, probabilities, scale):
        # the Born row of the state with these probabilities, and the
        # renorm:power:4 row at its moduli: any distribution takes one draw
        # rule, in which a zero cell takes no shot and the last outcome takes
        # what the others leave, also the share of a sum below 1
        point = moduli(np.sqrt(probabilities) * scale).moduli
        for rule in (Born(), Renormalized(Power(4.0))):
            p = rule_probabilities(rule, point)
            if scale < 1.0 and rule == Born():
                assert p.sum() < 1.0
            counts = sample_outcomes(p[None], 10_000, np.random.default_rng(20))[0]
            np.testing.assert_array_equal(counts, np.random.default_rng(20).multinomial(10_000, p))
            assert counts.sum() == 10_000
            assert not np.any(counts[np.array(probabilities) == 0.0])

    @pytest.mark.parametrize("d, n, shots", [(2, 1, 10), (3, 7, 1), (3, 10, 100_000), (8, 5, 2**63 - 1)])
    def test_a_stack_draws_as_a_loop_of_rows_over_one_generator(self, d, n, shots):
        # one multinomial call on the stack gives, bit for bit, one multinomial
        # per row in stack order over the same generator, and leaves it where
        # that loop does; a one-hot row rounded above one is clipped in both
        p = np.abs(haar_scan(d, n, 31)) ** 2
        p[-1] = np.eye(d)[0] * np.nextafter(1.0, 2.0)
        rng, reference = substream(32, d), substream(32, d)
        counts = sample_outcomes(p, shots, rng)
        expected = np.array([reference.multinomial(shots, row) for row in np.minimum(p, 1.0)])
        assert counts.dtype == expected.dtype and counts.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_a_one_hot_row_rounded_above_one_takes_every_shot(self, k):
        # a collapsed state's Born row can round to 1 + 2e-16 in its cell,
        # which numpy's multinomial rejects as a probability above 1
        row = np.zeros(3)
        row[k] = np.nextafter(1.0, 2.0)
        with pytest.raises(ValueError):
            np.random.default_rng(0).multinomial(10, row)
        np.testing.assert_array_equal(sample_outcomes(row[None], 1000, np.random.default_rng(21))[0], 1000 * np.eye(3, dtype=int)[k])
        assert measure(row, np.eye(3, dtype=complex), np.random.default_rng(22))[0] == k

    @pytest.mark.parametrize(
        "row, error",
        [
            (np.array([-0.25, 1.25]), ValueError),
            (np.array([0.5 + 2e-12, 0.5]), NotNormalized),  # just outside TOL.unit_norm
            (np.array([np.nan, 1.0]), NotNormalized),
            (np.array([1.0, np.nan]), NotNormalized),
            (np.array([-0.5, np.nan]), NotNormalized),  # a nan anywhere is NotNormalized, as in check_orthant
            (np.array([]), NotNormalized),
            # the plain power:4 rule at a non-symmetric point sums to 0.58
            (rule_probabilities(Power(4.0), np.sqrt([0.3, 0.7])), NotNormalized),
        ],
    )
    def test_draws_reject_a_non_distribution(self, row, error):
        with pytest.raises(ValueError) as excinfo:
            sample_outcomes(row[None], 10, np.random.default_rng(0))
        assert type(excinfo.value) is error
        # the row as the second of a stack, behind a distribution: the whole stack is checked
        stack = np.concatenate([np.eye(1, row.size), row[None]])
        with pytest.raises(ValueError) as excinfo:
            sample_outcomes(stack, 10, np.random.default_rng(0))
        assert type(excinfo.value) is error
        with pytest.raises(ValueError) as excinfo:
            measure(row, np.eye(row.size, dtype=complex), np.random.default_rng(0))
        assert type(excinfo.value) is error

    def test_measure_rejects_a_row_of_another_dimension(self):
        with pytest.raises(DimMismatch):
            measure(np.array([0.5, 0.5]), np.eye(3, dtype=complex), np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 3), min_size=2, max_size=8).filter(any),
        scale=st.sampled_from([1.0, 1.0 - 2e-13, 1.0 - 4e-13]),
        seed=st.integers(0, 2**32 - 1),
        shots=st.integers(1, 30),
    )
    def test_measure_and_counts_follow_one_draw_rule(self, weights, scale, seed, shots):
        # zero weights give zero cells, and a scale below 1 leaves the sum
        # below 1 (a defect up to about 8e-13, which the draws accept):
        # measure() is one multinomial shot, sample_outcomes() one draw of all
        d = len(weights)
        vectors = np.eye(d, dtype=complex)
        p = born(StateVector(np.sqrt(np.array(weights) / sum(weights)) * scale), vectors)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        outcomes = [measure(p, vectors, rng)[0] for _ in range(shots)]
        assert outcomes == [int(np.argmax(reference.multinomial(1, p))) for _ in range(shots)]
        assert all(weights[k] for k in outcomes)
        counts = sample_outcomes(p[None], shots, np.random.default_rng(seed))[0]
        np.testing.assert_array_equal(counts, np.random.default_rng(seed).multinomial(shots, p))

    def test_one_draw_repeats_equal_scalar_measure_calls(self):
        # sample's collapse check on the eigenbasis and state of its pair
        # `seed`: 100 shots of sample_outcomes and 100 measure() calls
        mixed = False
        for seed in range(20):
            vectors = haar_array(3, substream(19, seed, 1))
            psi = haar_state(3, substream(19, seed, 0))
            k, post_state = measure(born(psi, vectors), vectors, substream(19, seed, 3))
            for state in (psi, post_state):
                p = born(state, vectors)
                rng = substream(19, seed, 4)
                scalar = [measure(p, vectors, rng)[0] for _ in range(100)]
                counts = sample_outcomes(p[None], 100, substream(19, seed, 4))[0]
                assert counts.sum() == 100
                mixed = mixed or len(set(scalar)) > 1
            assert set(scalar) == {k} and counts[k] == 100  # the collapsed state repeats
        assert mixed  # the uncollapsed states exercise more than one outcome


class TestChiSquare:
    # 95% quantiles of the chi-square law (standard tables, to 16 digits)
    QUANTILES = {1: 3.841458820694124, 2: 5.991464547107979, 3: 7.814727903251178,
                 10: 18.307038053275146, 100: 124.34211340400407}

    def test_survival_at_tabulated_quantiles(self):
        for dof, x in self.QUANTILES.items():
            assert chi_square_sf(x, dof) == pytest.approx(0.05, rel=1e-12)

    def test_survival_low_dof_closed_forms_and_the_two_step_recurrence(self):
        # dof 1 is the two-sided normal tail, dof 2 exp(-x/2), and
        # Q(x; k + 2) = Q(x; k) + (x/2)^(k/2) exp(-x/2) / Gamma(k/2 + 1)
        for x in (0.01, 0.7, 3.0, 9.0, 40.0, 300.0):
            assert chi_square_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-15)
            assert chi_square_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-15)
            for k in range(1, 300):
                step = math.exp(k / 2 * math.log(x / 2) - x / 2 - math.lgamma(k / 2 + 1))
                assert chi_square_sf(x, k + 2) == pytest.approx(min(1.0, chi_square_sf(x, k) + step), rel=1e-9, abs=1e-300)

    def test_survival_against_the_integrated_density(self):
        for dof in (1, 2, 3, 5, 8, 31, 255):
            for x in (0.5 * dof, dof, 2.0 * dof + 5.0):
                grid = np.linspace(x, x + 40.0 * math.sqrt(2.0 * dof) + 200.0, 400_001)
                log_pdf = (dof / 2 - 1) * np.log(grid) - grid / 2 - dof / 2 * math.log(2) - math.lgamma(dof / 2)
                assert chi_square_sf(x, dof) == pytest.approx(np.trapezoid(np.exp(log_pdf), grid), rel=1e-6, abs=1e-15)

    def test_survival_ends(self):
        assert chi_square_sf(0.0, 3) == 1.0 and chi_square_sf(1e-300, 300) == 1.0
        assert chi_square_sf(1e6, 255) == 0.0  # every term underflows; none overflows

    def test_sidak_level_holds_the_run_to_the_two_sided_six_sigma_tail(self):
        alpha = math.erfc(6.0 / math.sqrt(2.0))  # 2.0e-9
        assert TOL.sample_sigmas == 6.0 and TOL.sample_alpha == alpha
        assert TOL.sample_p_value(1) == pytest.approx(alpha, rel=1e-12)
        for pairs in (2, 10, 1000):
            # independent pairs that each pass with probability 1 - p all pass with probability 1 - alpha
            assert 1.0 - (1.0 - TOL.sample_p_value(pairs)) ** pairs == pytest.approx(alpha, rel=1e-9)

    def test_cells_pool_until_each_expects_five(self):
        # ascending expectation: 1.7 + 1.7 + 1.7 closes a pool, 1.8 + 1.8 + 1.8
        # another, and the short last pool (1.9) joins the one before it
        expected = np.array([1.9, 1.7, 1.8, 1.7, 1.8, 1.7, 1.8])
        counts = np.array([3, 1, 2, 2, 0, 1, 4])
        pools = [(1 + 2 + 1, 5.1), (2 + 0 + 4 + 3, 7.3)]
        statistic, dof, p_value = chi_square_test(counts, expected)
        assert dof == 1
        assert statistic == pytest.approx(sum((o - e) ** 2 / e for o, e in pools), rel=1e-12)
        assert p_value == chi_square_sf(statistic, 1)

    def test_cells_that_expect_five_stay_apart(self):
        expected = np.array([20.0, 5.0, 75.0])
        counts = np.array([25, 2, 73])
        statistic, dof, p_value = chi_square_test(counts, expected)
        assert dof == 2 and statistic == pytest.approx(25 / 20 + 9 / 5 + 4 / 75, rel=1e-12)

    def test_one_pool_is_no_test(self):
        # fewer shots than TOL.sample_min_expected, and a second pool too short to close
        assert chi_square_test(np.array([1, 2, 0]), np.array([1.0, 1.5, 0.5])) == (0.0, 0, 1.0)
        assert chi_square_test(np.array([5, 2]), np.array([5.5, 1.5])) == (0.0, 0, 1.0)


class TestSpinOneFixtures:
    def test_fixture_is_built_once_and_read_only(self):
        # every caller shares one cached stack, so none may write into it
        first, second = spin1_observables(), spin1_observables()
        assert all(a is b for a, b in zip(first, second, strict=True))
        for array in first:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

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
        p_z = born(psi, vectors[0])[1]
        p_x = born(psi, vectors[1])[1]
        assert abs(p_z - p_x) <= 1e-12
