"""Dense complex linear algebra at small dimension.

Hermitian eigendecomposition (LAPACK eigh plus a deterministic phase
convention), Haar-distributed unitary sampling, and orthonormal basis
completion.  Everything is plain double precision: the effects the
experiments must detect are >= 0.01, far above rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tolerances import TOL


class ZeroVector(ValueError):
    """A vector with (numerically) zero norm cannot be normalized."""


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
        defect = np.max(np.abs(self.entries - self.entries.conj().T))
        if defect > TOL.hermitian_entry:
            raise ValueError(f"matrix is not Hermitian: max |M - M^dag| = {defect:.3e}")


@dataclass(frozen=True)
class UnitaryMatrix(ComplexMatrix):
    def __post_init__(self) -> None:
        super().__post_init__()
        gram = self.entries.conj().T @ self.entries
        defect = np.max(np.abs(gram - np.eye(self.dim)))
        if defect > TOL.unitary_entry:
            raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")


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
        gram = vectors.conj().T @ vectors
        defect = np.max(np.abs(gram - np.eye(d)))
        if defect > TOL.orthonormality:
            raise ValueError(f"eigenvectors are not orthonormal: defect {defect:.3e}")
        values.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "eigenvectors", vectors)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's global phase so its largest entry is real positive.

    Ties in magnitude resolve to the lowest index, which keeps the output a
    deterministic function of the input.
    """
    out = np.array(vectors, dtype=np.complex128)
    magnitudes = np.abs(out)
    pivot_rows = np.argmax(magnitudes, axis=0)  # first max per column
    pivots = out[pivot_rows, np.arange(out.shape[1])]
    mags = np.abs(pivots)
    safe = np.where(mags > 0.0, mags, 1.0)
    out *= np.where(mags > 0.0, pivots.conj() / safe, 1.0)
    return out


def eigendecompose(matrix: HermitianMatrix | np.ndarray) -> Eigensystem:
    """Diagonalize a Hermitian matrix: ascending eigenvalues, phase-fixed columns."""
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(matrix)
    values, vectors = np.linalg.eigh(matrix.entries)
    return Eigensystem(values, fix_column_phases(vectors))


def haar_array(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Raw Haar-distributed unitary as an ndarray (dim >= 1)."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    while True:
        ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        try:
            q, r = np.linalg.qr(ginibre)
        except np.linalg.LinAlgError:  # pragma: no cover - probability zero
            continue
        diag = np.diag(r)
        if np.any(np.abs(diag) == 0.0):  # pragma: no cover - probability zero
            continue
        # phase correction makes the distribution exactly Haar, not just unitary
        return q * (diag / np.abs(diag))


def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryMatrix:
    """Draw a Haar-distributed unitary (Ginibre + QR with phase correction)."""
    return UnitaryMatrix(haar_array(dim, rng))


def complete_basis(vector: np.ndarray) -> UnitaryMatrix:
    """Extend a vector to an orthonormal basis with itself as column zero.

    Remaining columns come from Gram-Schmidt against the canonical vectors,
    skipping candidates whose residual is nearly parallel to the span built
    so far.  A second orthogonalization pass keeps the result unitary even
    when a candidate barely clears the skip threshold.
    """
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    d = v.shape[0]
    norm = np.linalg.norm(v)
    if norm <= TOL.zero_vector:
        raise ZeroVector("cannot complete a basis from a zero vector")

    columns = [v / norm]
    for i in range(d):
        if len(columns) == d:
            break
        candidate = np.zeros(d, dtype=np.complex128)
        candidate[i] = 1.0
        for col in columns:
            candidate -= col * np.vdot(col, candidate)
        residual = np.linalg.norm(candidate)
        if residual <= TOL.parallel_skip:
            continue
        candidate /= residual
        for col in columns:  # second pass: twice is enough
            candidate -= col * np.vdot(col, candidate)
        columns.append(candidate / np.linalg.norm(candidate))
    if len(columns) != d:  # pragma: no cover - cannot happen for d candidates
        raise ZeroVector("basis completion ran out of candidate directions")
    return UnitaryMatrix(np.column_stack(columns))
