"""Dense complex linear algebra at small dimension.

Checked Hermitian eigensystems (LAPACK eigh, phase-fixed where a result
needs a convention), Haar-distributed unitary sampling, orthonormal basis
completion by QR, and the row sums and maxima of float stacks with numpy's
bits.  Everything is plain double precision: the effects the experiments
must detect are >= 0.01, far above rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL, within


class ZeroVector(ValueError):
    """A vector with (numerically) zero norm cannot be normalized."""


def hermitian_defect(matrices: np.ndarray) -> float:
    """Largest |M - M^dag| entry over a stack of square matrices (..., d, d)."""
    return float(np.max(np.abs(matrices - np.conj(np.swapaxes(matrices, -1, -2)))))


def unitary_defect(matrices: np.ndarray) -> float:
    """Largest |U^dag U - I| entry over a stack of square matrices (..., d, d)."""
    gram = np.conj(np.swapaxes(matrices, -1, -2)) @ matrices
    return float(np.max(np.abs(gram - np.eye(matrices.shape[-1]))))


def row_sum(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """np.sum(x, axis=-1, keepdims=keepdims) of a float stack, with the same bits.

    numpy starts each row at +0.0 and, below 8 entries, adds them in order
    (a row of -0.0 sums to +0.0); from 8 on it sums pairwise in blocks of 8,
    so those rows go to np.sum.  Below 8, d - 1 column adds over the stack
    cost a few microseconds where numpy's reduction of a short last axis
    costs tens.
    """
    d = x.shape[-1]
    if not 0 < d < 8:
        return np.sum(x, axis=-1, keepdims=keepdims)
    total = x[..., 0] + 0.0  # a fresh array, and numpy's +0.0 start
    for j in range(1, d):
        total += x[..., j]
    return total[..., None] if keepdims else total


def row_max(x: np.ndarray) -> np.ndarray:
    """np.max(x, axis=-1) of a float stack, as a running np.maximum over the columns.

    A maximum is exact, and np.maximum settles what order could change as
    numpy's reduction does (nan propagates, a tie of signed zeros keeps the
    later entry), so the bits are numpy's.
    """
    if x.shape[-1] < 2:  # one entry, or none: numpy's own copy or error
        return np.max(x, axis=-1)
    out = x[..., 0]
    for j in range(1, x.shape[-1]):
        out = np.maximum(out, x[..., j])
    return out


def check_eigensystems(matrices: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> None:
    """Reject a stack (..., d, d) unless each matrix is Hermitian, with
    orthonormal eigenvectors, a gapped spectrum and small M v - w v."""
    within(hermitian_defect(matrices), TOL.hermitian_entry, "matrix is not Hermitian: max |M - M^dag| =")
    within(unitary_defect(vectors), TOL.orthonormality, "eigenvectors are not orthonormal: defect")
    gap = float(np.min(np.diff(values, axis=-1), initial=np.inf))
    if not gap > TOL.degeneracy_gap:
        raise ValueError(f"degenerate spectrum: smallest gap {gap:.3e}")
    residual = np.linalg.norm(matrices @ vectors - vectors * values[..., None, :], axis=-2)
    within(float(np.max(residual)), TOL.eigen_residual, "eigensystem residual")


@dataclass(frozen=True)
class ComplexMatrix:
    """A square complex matrix with its entries frozen after construction."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.complex128)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise ValueError("matrix dimension must be positive")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class HermitianMatrix(ComplexMatrix):
    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dim < 2:
            raise ValueError("Hermitian operators need dimension >= 2")
        within(hermitian_defect(self.entries), TOL.hermitian_entry, "matrix is not Hermitian: max |M - M^dag| =")


@dataclass(frozen=True)
class UnitaryMatrix(ComplexMatrix):
    def __post_init__(self) -> None:
        super().__post_init__()
        within(unitary_defect(self.entries), TOL.orthonormality, "matrix is not unitary: max |U^dag U - I| =")


@dataclass(frozen=True)
class Eigensystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.eigenvalues, dtype=np.float64)
        vectors = np.array(self.eigenvectors, dtype=np.complex128)
        d = values.shape[0]
        if values.ndim != 1 or vectors.shape != (d, d):
            raise ValueError("eigenvalues and eigenvector columns do not match")
        if np.any(np.diff(values) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        within(unitary_defect(vectors), TOL.orthonormality, "eigenvectors are not orthonormal: defect")
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "eigenvectors", vectors)


def fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's global phase so its largest entry is real positive,
    in every matrix of a stack (..., d, d).

    Ties in magnitude resolve to the lowest index, which keeps the output a
    deterministic function of the input.  The copy keeps the input's memory
    layout.
    """
    out = np.array(vectors, dtype=np.complex128)
    pivot_rows = np.argmax(np.abs(out), axis=-2)[..., None, :]  # first max per column
    pivots = np.take_along_axis(out, pivot_rows, axis=-2)
    mags = np.abs(pivots)
    safe = np.where(mags > 0.0, mags, 1.0)
    out *= np.where(mags > 0.0, pivots.conj() / safe, 1.0)
    return out


def eigendecompose(matrix: np.ndarray) -> Eigensystem:
    """Diagonalize a Hermitian matrix: ascending eigenvalues, phase-fixed columns."""
    values, vectors = np.linalg.eigh(HermitianMatrix(matrix).entries)
    return Eigensystem(values, fix_column_phases(vectors))


def ginibre(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Complex standard Gaussian matrices (..., d, d), drawn one matrix at a time, its real
    parts before its imaginary parts: a stack has the bits of its members drawn one after
    another, so its first k matrices are those of a k-stack."""
    pairs = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return pairs[..., 0, :, :] + 1j * pairs[..., 1, :, :]


def haar_factor(ginibres: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre matrices (..., d, d) by one QR and one phase fix,
    each matrix factored on its own: a stack has the bits of its members one at a
    time.  A zero diagonal of R (probability 0) becomes a nan column, which the
    unitarity checks reject."""
    q, r = np.linalg.qr(ginibres)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]  # the phase fix makes it exactly Haar, not just unitary


def haar_array(dim: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Raw Haar unitaries (dim >= 1), one per index of ``batch``: haar_factor of one Ginibre
    draw, so the stack's members are successive haar_array(dim, rng) draws, bit for bit."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return haar_factor(ginibre(rng, (*batch, dim, dim)))


def complete_basis(vector: np.ndarray) -> np.ndarray:
    """Extend a vector to an orthonormal basis with v/|v| as column zero.

    One Householder QR of [v/|v| | I] gives a unitary whose first column is
    v/|v| times a phase; that column is then set to v/|v| exactly, which
    keeps the others orthogonal to it.  The other columns are some basis of
    the complement.  No library code calls it: the observable scan draws
    moduli without forming a basis, and the tests keep this as the reference
    from which drawn eigenbases are formed explicitly.
    """
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(v)
    if norm <= TOL.zero_vector:
        raise ZeroVector("cannot complete a basis from a zero vector")
    unit = v / norm
    q, _ = np.linalg.qr(np.column_stack([unit, np.eye(v.shape[0])]))
    q[:, 0] = unit
    within(unitary_defect(q), TOL.orthonormality, "matrix is not unitary: max |U^dag U - I| =")
    return q
