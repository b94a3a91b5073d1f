"""Eigendecomposition, Haar sampling, and basis completion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.linalg import (
    ComplexMatrix,
    Eigensystem,
    HermitianMatrix,
    UnitaryMatrix,
    ZeroVector,
    complete_basis,
    eigendecompose,
    haar_unitary,
)
from bornlab.tolerances import TOL


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (z + z.conj().T) / 2


class TestMatrixTypes:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ComplexMatrix(np.zeros((2, 3)))

    def test_hermitian_needs_dim_two(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.ones((1, 1)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_entries_frozen(self):
        m = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0

    def test_eigensystem_requires_ascending(self):
        with pytest.raises(ValueError):
            Eigensystem(np.array([1.0, -1.0]), np.eye(2, dtype=complex))


class TestEigendecompose:
    def test_diagonal_matrix(self):
        system = eigendecompose(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(system.eigenvalues, [-1.0, 1.0])
        np.testing.assert_allclose(system.eigenvectors[:, 0], [0.0, 1.0])
        np.testing.assert_allclose(system.eigenvectors[:, 1], [1.0, 0.0])

    def test_identity_degenerate(self):
        system = eigendecompose(np.eye(3, dtype=complex))
        np.testing.assert_allclose(system.eigenvalues, [1.0, 1.0, 1.0])
        residual = np.eye(3) @ system.eigenvectors - system.eigenvectors * system.eigenvalues
        assert np.max(np.abs(residual)) <= TOL.eigen_residual

    def test_cross_coupling_matrix(self):
        # characteristic polynomial of [[0,0,1],[0,0,0],[1,0,0]] is
        # -w^3 + w = 0, so the spectrum is (-1, 0, 1) with eigenvectors
        # (e1 -/+ e3)/sqrt(2) and e2
        m = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
        system = eigendecompose(m)
        np.testing.assert_allclose(system.eigenvalues, [-1.0, 0.0, 1.0], atol=1e-14)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(system.eigenvectors[:, 0], [s, 0, -s], atol=1e-14)
        np.testing.assert_allclose(system.eigenvectors[:, 1], [0, 1, 0], atol=1e-14)
        np.testing.assert_allclose(system.eigenvectors[:, 2], [s, 0, s], atol=1e-14)

    def test_idempotent_on_diagonal_input(self):
        values = np.array([0.3, -0.7, 0.1, 0.9])
        system = eigendecompose(np.diag(values).astype(complex))
        np.testing.assert_array_equal(system.eigenvalues, np.sort(values))

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 12, 16])
    def test_against_lapack(self, d):
        m = random_hermitian(d, seed=d)
        system = eigendecompose(m)
        np.testing.assert_allclose(
            system.eigenvalues, np.linalg.eigvalsh(m), atol=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_residual_and_orthonormality(self, d):
        m = random_hermitian(d, seed=100 + d)
        system = eigendecompose(m)
        residual = np.max(
            np.linalg.norm(m @ system.eigenvectors - system.eigenvectors * system.eigenvalues, axis=0)
        )
        assert residual <= TOL.eigen_residual
        gram = system.eigenvectors.conj().T @ system.eigenvectors
        assert np.max(np.abs(gram - np.eye(d))) <= TOL.orthonormality

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 10), seed=st.integers(0, 10_000))
    def test_reconstruction_property(self, d, seed):
        m = random_hermitian(d, seed)
        system = eigendecompose(m)
        rebuilt = (system.eigenvectors * system.eigenvalues) @ system.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - m)) <= TOL.reconstruction

    def test_deterministic(self):
        m = random_hermitian(6, seed=99)
        first = eigendecompose(m)
        second = eigendecompose(m)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


class TestHaarUnitary:
    def test_dim_one_is_a_phase(self):
        u = haar_unitary(1, np.random.default_rng(0))
        assert u.entries.shape == (1, 1)
        assert abs(abs(u.entries[0, 0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_unitarity(self, d):
        u = haar_unitary(d, np.random.default_rng(d))
        defect = np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(d)))
        assert defect < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 10), seed=st.integers(0, 10_000))
    def test_norm_preservation(self, d, seed):
        rng = np.random.default_rng(seed)
        u = haar_unitary(d, rng)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x /= np.linalg.norm(x)
        assert abs(np.linalg.norm(u.entries @ x) - 1.0) <= 1e-12

    def test_corner_modulus_marginal(self):
        # Monte-Carlo oracle: |U[0,0]|^2 of a Haar unitary at d=2 is uniform
        # on [0, 1], so the sample mean over n draws must land within three
        # standard errors of 1/2 (variance 1/12)
        n = 100_000
        rng = np.random.default_rng(2024)
        total = 0.0
        for _ in range(n):
            total += abs(haar_unitary(2, rng).entries[0, 0]) ** 2
        standard_error = np.sqrt(1.0 / 12.0 / n)
        assert abs(total / n - 0.5) < 3 * standard_error

    def test_deterministic_for_fixed_stream(self):
        a = haar_unitary(5, np.random.default_rng(123))
        b = haar_unitary(5, np.random.default_rng(123))
        np.testing.assert_array_equal(a.entries, b.entries)


class TestCompleteBasis:
    def test_canonical_vector_gives_identity(self):
        u = complete_basis(np.array([1.0, 0.0, 0.0], dtype=complex))
        np.testing.assert_allclose(u.entries, np.eye(3), atol=1e-15)

    def test_symmetric_qubit_vector(self):
        u = complete_basis(np.array([1.0, 1.0]) / np.sqrt(2))
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(u.entries[:, 0], [s, s], atol=1e-15)
        # second column is forced up to phase
        overlap = abs(np.vdot(u.entries[:, 1], np.array([s, -s])))
        assert abs(overlap - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            complete_basis(np.zeros(4))

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 12), seed=st.integers(0, 10_000))
    def test_random_vector_contract(self, d, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        u = complete_basis(v)
        np.testing.assert_allclose(u.entries[:, 0], v / np.linalg.norm(v), atol=1e-12)
        gram = u.entries.conj().T @ u.entries
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-10

    def test_near_parallel_candidate_skipped(self):
        v = np.array([1.0, 1e-10, 0.0], dtype=complex)
        u = complete_basis(v)
        gram = u.entries.conj().T @ u.entries
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
