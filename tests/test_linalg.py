"""Eigendecomposition, Haar sampling, basis completion, and row reductions."""

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
    fix_column_phases,
    haar_array,
    row_max,
    row_sum,
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

    def test_rejects_nan_entries(self):
        # a nan defect compares false against every bound, so it must be caught explicitly
        nan = np.full((2, 2), np.nan)
        for kind in (HermitianMatrix, UnitaryMatrix):
            with pytest.raises(ValueError):
                kind(nan)
        with pytest.raises(ValueError):
            Eigensystem(np.array([0.0, 1.0]), nan)

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
        assert np.max(np.abs(rebuilt - m)) <= 1e-9

    def test_deterministic(self):
        m = random_hermitian(6, seed=99)
        first = eigendecompose(m)
        second = eigendecompose(m)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


class TestFixColumnPhases:
    def stack(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((2, 5, 4, 4)) + 1j * rng.standard_normal((2, 5, 4, 4))
        stack[0, 0] = np.exp(0.3j) * np.eye(4)
        stack[0, 1, :, 2] = 0.0  # a zero column keeps its phase
        stack[1, 2, :, 1] = [0.5j, -0.5, 0.5, 0.1]  # a magnitude tie goes to the lowest row
        return stack

    def test_stack_equals_each_matrix_alone(self):
        stack = self.stack()
        fixed = fix_column_phases(stack)
        assert fixed.shape == stack.shape
        for index in np.ndindex(stack.shape[:-2]):
            np.testing.assert_array_equal(fixed[index], fix_column_phases(stack[index]))
        np.testing.assert_array_equal(fixed[1, 2, :, 1], [0.5, 0.5j, -0.5j, -0.1j])
        np.testing.assert_array_equal(fixed[0, 1, :, 2], 0.0)
        pivots = np.take_along_axis(fixed, np.argmax(np.abs(fixed), axis=-2)[..., None, :], axis=-2)
        np.testing.assert_allclose(pivots.imag, 0.0, rtol=0, atol=1e-15)
        assert np.all(pivots.real >= 0.0)

    def test_copy_keeps_the_memory_layout(self):
        stack = self.stack()
        columns = np.swapaxes(np.ascontiguousarray(np.swapaxes(stack, -1, -2)), -1, -2)
        fixed = fix_column_phases(columns)
        assert all(fixed[index].flags.f_contiguous for index in np.ndindex(stack.shape[:-2]))
        np.testing.assert_array_equal(fixed, fix_column_phases(stack))
        assert not np.shares_memory(fixed, columns)


class TestHaarUnitary:
    def test_dim_one_is_a_phase(self):
        u = haar_array(1, np.random.default_rng(0))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("d", [2, 4, 9])
    def test_unitarity(self, d):
        u = haar_array(d, np.random.default_rng(d))
        defect = np.max(np.abs(u.conj().T @ u - np.eye(d)))
        assert defect < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 10), seed=st.integers(0, 10_000))
    def test_norm_preservation(self, d, seed):
        rng = np.random.default_rng(seed)
        u = haar_array(d, rng)
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x /= np.linalg.norm(x)
        assert abs(np.linalg.norm(u @ x) - 1.0) <= 1e-12

    def test_corner_modulus_marginal(self):
        # Monte-Carlo oracle: |U[0,0]|^2 of a Haar unitary at d=2 is uniform
        # on [0, 1], so the sample mean over n draws must land within three
        # standard errors of 1/2 (variance 1/12)
        n = 100_000
        corner = np.abs(haar_array(2, np.random.default_rng(2024), (n,))[:, 0, 0]) ** 2
        standard_error = np.sqrt(1.0 / 12.0 / n)
        assert abs(corner.mean() - 0.5) < 3 * standard_error

    def test_batched_draws_equal_per_matrix_qr(self):
        # reference: the Ginibre draw of the whole stack, one QR and phase fix per matrix
        u = haar_array(3, np.random.default_rng(5), (40,))
        rng = np.random.default_rng(5)
        ginibre = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal((40, 3, 3))
        assert u.shape == (40, 3, 3)
        for got, g in zip(u, ginibre):
            q, r = np.linalg.qr(g)
            np.testing.assert_allclose(got, q * (np.diag(r) / np.abs(np.diag(r))), rtol=0, atol=1e-14)
            assert np.max(np.abs(got.conj().T @ got - np.eye(3))) < 1e-12

    def test_zero_draw_is_rejected_not_redrawn(self):
        # a Ginibre draw of zeros (probability 0) leaves R a zero diagonal:
        # the result is nan, which the unitarity check rejects
        class ZeroFirst:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(0), 0

            def standard_normal(self, shape):  # real, then imaginary part
                self.calls += 1
                return np.zeros(shape) if self.calls <= 2 else self.rng.standard_normal(shape)

        with pytest.warns(RuntimeWarning, match="invalid value"):
            u = haar_array(3, ZeroFirst())
        assert np.all(np.isnan(u))
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryMatrix(u)

    def test_deterministic_for_fixed_stream(self):
        a = haar_array(5, np.random.default_rng(123))
        b = haar_array(5, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)


class TestCompleteBasis:
    def test_canonical_vector_gives_identity(self):
        u = complete_basis(np.array([1.0, 0.0, 0.0], dtype=complex))
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)

    def test_symmetric_qubit_vector(self):
        u = complete_basis(np.array([1.0, 1.0]) / np.sqrt(2))
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(u[:, 0], [s, s], atol=1e-15)
        # second column is forced up to phase
        overlap = abs(np.vdot(u[:, 1], np.array([s, -s])))
        assert abs(overlap - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            complete_basis(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        # a non-finite entry gives a nan basis, which the unitarity check rejects
        with pytest.raises(ValueError, match="not unitary"), np.errstate(invalid="ignore"):
            complete_basis(np.array([bad, 1.0]))

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 12),
        seed=st.integers(0, 10_000),
        keep=st.floats(0.1, 1.0),
        scale=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_random_vector_contract(self, d, seed, keep, scale):
        # random support and magnitude: exact zeros must not break column
        # zero or unitarity
        rng = np.random.default_rng(seed)
        v = scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        v[rng.random(d) > keep] = 0.0
        v[rng.integers(d)] = scale  # at least one nonzero entry
        u = complete_basis(v)
        np.testing.assert_allclose(u[:, 0], v / np.linalg.norm(v), atol=1e-12)
        gram = u.conj().T @ u
        assert np.max(np.abs(gram - np.eye(d))) <= 1e-10

    @pytest.mark.parametrize("d", range(2, 7))
    def test_canonical_vectors(self, d):
        for k in range(d):
            e = np.zeros(d, dtype=complex)
            e[k] = 1.0
            u = complete_basis(e)
            np.testing.assert_array_equal(u[:, 0], e)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10

    @pytest.mark.parametrize(
        "v",
        [
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 3.0, 4.0j],
            [1.0j, 0.0, 0.0, 0.0, -2.0],
            [0.0, 1e-9, 0.0],
        ],
    )
    def test_vectors_with_zero_entries(self, v):
        v = np.array(v, dtype=complex)
        u = complete_basis(v)
        np.testing.assert_allclose(u[:, 0], v / np.linalg.norm(v), atol=1e-12)
        assert np.max(np.abs(u.conj().T @ u - np.eye(v.size))) <= 1e-10

    def test_near_parallel_candidate_skipped(self):
        v = np.array([1.0, 1e-10, 0.0], dtype=complex)
        u = complete_basis(v)
        gram = u.conj().T @ u
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-10


ROW_LENGTHS = [*range(1, 21), 127, 128, 129, 130]  # both sides of numpy's 8-entry pairwise blocks, and of 128


def same_bits(got, want):
    """Equal shapes and equal float64 bit patterns: -0.0 is not 0.0, and nan payloads count."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def layouts(x):
    """x (n, d) as a C-ordered stack, a 3-D stack, a transposed view, a strided view of every
    other column and of every other row, and its first row alone."""
    n, d = x.shape
    wide = np.repeat(x, 2, axis=1)
    return {
        "c": x,
        "3d": x[: n - n % 4].reshape(4, -1, d),
        "transposed": np.ascontiguousarray(x.T).T,
        "column-strided": wide[:, ::2],
        "row-strided": np.repeat(x, 2, axis=0)[::2],
        "one-row": x[0],
    }


def wide_range_rows(d, seed, n=64):
    """Rows (n, d) of either sign spanning 1e-300 to 1e300: half share one magnitude per row
    (where the order of additions decides the last bits), half draw one per entry."""
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal((n, d))
    row_scales = 10.0 ** rng.uniform(-300, 300, (n // 2, 1))
    entry_scales = 10.0 ** rng.uniform(-300, 300, (n - n // 2, d))
    return np.concatenate([normal[: n // 2] * row_scales, normal[n // 2 :] * entry_scales])


class TestRowReductions:
    """row_sum and row_max give np.sum and np.max over the last axis, bit for bit."""

    @pytest.mark.parametrize("d", ROW_LENGTHS)
    def test_row_sum_has_numpy_bits(self, d):
        for name, x in layouts(wide_range_rows(d, seed=d)).items():
            before = x.copy()
            for keepdims in (False, True):
                assert same_bits(row_sum(x, keepdims=keepdims), np.sum(x, axis=-1, keepdims=keepdims)), (name, keepdims)
            assert same_bits(x, before), name  # the input is not written

    @pytest.mark.parametrize("d", ROW_LENGTHS)
    def test_row_max_has_numpy_bits(self, d):
        for name, x in layouts(wide_range_rows(d, seed=1000 + d)).items():
            assert same_bits(row_max(x), np.max(x, axis=-1)), name

    @pytest.mark.parametrize("d", ROW_LENGTHS)
    def test_a_row_of_negative_zeros_sums_to_positive_zero(self, d):
        for name, x in layouts(np.full((8, d), -0.0)).items():
            for keepdims in (False, True):
                got = row_sum(x, keepdims=keepdims)
                assert same_bits(got, np.sum(x, axis=-1, keepdims=keepdims)), (name, keepdims)
                assert not np.any(np.signbit(got)), (name, keepdims)
            assert same_bits(row_max(x), np.max(x, axis=-1)), name

    @pytest.mark.parametrize("d", ROW_LENGTHS)
    def test_rows_holding_inf_nan_and_signed_zeros(self, d):
        rng = np.random.default_rng(2000 + d)
        x = rng.standard_normal((64, d))
        special = rng.random((64, d)) < 0.3
        x[special] = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e300, -1e300], special.sum())
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and sums of 1e300 that overflow
            for name, view in layouts(x).items():
                for keepdims in (False, True):
                    got, want = row_sum(view, keepdims=keepdims), np.sum(view, axis=-1, keepdims=keepdims)
                    assert same_bits(got, want), (name, keepdims)
                assert same_bits(row_max(view), np.max(view, axis=-1)), name

    def test_empty_rows_and_stacks_follow_numpy(self):
        assert same_bits(row_sum(np.zeros((3, 0))), np.zeros(3))
        assert same_bits(row_sum(np.zeros((0, 3)), keepdims=True), np.zeros((0, 1)))
        assert same_bits(row_max(np.zeros((0, 3))), np.zeros(0))
        with pytest.raises(ValueError):
            row_max(np.zeros((3, 0)))
