"""States, observables, measurement bases, and measurement simulation.

A measurement expands the state in the eigenbasis of a nondegenerate
Hermitian observable, whose moduli a candidate rule turns into outcome
values (rules.rule_probabilities), and (for the quadratic rule) samples an
outcome and collapses onto the matching eigenvector.  Includes the spin-1 fixtures
used by the two-observable demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import Eigensystem, HermitianMatrix, check_eigensystems
from .linalg import eigensystems, fix_column_phases, ginibre, haar_factor
from .streams import blockwise
from .tolerances import TOL, within

SHOT_CHUNK = 1 << 16  # uniforms drawn at once by sample_outcomes


class DimMismatch(ValueError):
    """State and observable dimensions differ."""


class NotNormalized(ValueError):
    """Input vector is not normalized within tolerance."""


@dataclass(frozen=True)
class StateVector:
    """A pure state: unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amplitudes = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        within(abs(np.vdot(amplitudes, amplitudes).real - 1.0), TOL.unit_norm, "state norm defect", NotNormalized)
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def normalize(cls, raw: np.ndarray) -> "StateVector":
        raw = np.asarray(raw, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(raw)
        if norm <= TOL.zero_vector:
            raise NotNormalized("cannot normalize a zero vector")
        return cls(raw / norm)


def check_orthant(rows: np.ndarray) -> None:
    """Reject moduli rows (..., d) unless each is non-negative with unit square sum."""
    # A single row (each ModulusVector, so each defect-scan trial) takes one
    # dot and float arithmetic; a block of rows takes one vecdot.  The ufunc
    # reduce is rows.min(initial=0.0) without its Python-level wrapper.
    if np.minimum.reduce(rows, axis=None, initial=0.0) < 0.0:
        raise ValueError("moduli must be non-negative")
    if rows.ndim == 1:
        defect = abs(float(rows.dot(rows)) - 1.0)
    else:
        defect = float(np.abs(np.vecdot(rows, rows) - 1.0).max(initial=0.0))
    within(defect, TOL.unit_norm, "orthant norm defect", NotNormalized)


@dataclass(frozen=True)
class ModulusVector:
    """A point on the unit orthant: non-negative moduli with unit square sum."""

    moduli: np.ndarray

    def __post_init__(self) -> None:
        moduli = np.array(self.moduli, dtype=np.float64).reshape(-1)
        check_orthant(moduli)
        moduli.setflags(write=False)
        object.__setattr__(self, "moduli", moduli)

    @property
    def dim(self) -> int:
        return self.moduli.shape[0]


@dataclass(frozen=True)
class Observable:
    """Hermitian operator with its nondegenerate eigensystem, checked once by from_eigenbasis."""

    matrix: HermitianMatrix
    eigensystem: Eigensystem

    @classmethod
    def from_eigenbasis(cls, eigenvalues: np.ndarray, basis: np.ndarray) -> "Observable":
        """Assemble an observable whose eigensystem is known by construction:
        the n = 1 case of eigenbasis_stack."""
        values = np.asarray(eigenvalues, dtype=np.float64).reshape(1, -1)
        matrices, values, vectors = eigenbasis_stack(values, np.asarray(basis)[None])
        return cls(HermitianMatrix(matrices[0]), Eigensystem(values[0], vectors[0]))


def eigenbasis_stack(eigenvalues: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observables (n, d, d) assembled from spectra (n, d) and eigenbases (n, d, d).

    Each basis's columns are its eigenvectors.  They are stable-sorted to
    ascending eigenvalue and phase-fixed, and each matrix is built as
    V diag(w) V^dag and re-Hermitized to kill rounding asymmetry.  One
    check_eigensystems call checks the whole stack.  Returns the matrices,
    the sorted spectra and the eigenvector columns.

    Each (d, d) slice of the columns is Fortran-ordered, the layout a column
    reindex of one basis gives: V^dag psi rounds differently on a C-ordered
    copy, so every observable's expansion keeps the bits of a single build.
    """
    values = np.asarray(eigenvalues, dtype=np.float64)
    order = np.argsort(values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, axis=-1)
    rows = np.swapaxes(np.asarray(bases, dtype=np.complex128), -1, -2)  # row j is column j
    vectors = fix_column_phases(np.swapaxes(np.take_along_axis(rows, order[..., None], axis=-2), -1, -2))
    raw = (vectors * values[..., None, :]) @ np.conj(np.swapaxes(vectors, -1, -2))
    matrices = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2.0
    check_eigensystems(matrices, values, vectors)
    return matrices, values, vectors


def expand(state: StateVector, vectors: np.ndarray) -> np.ndarray:
    """Expansion coefficients of the state in the eigenbasis with columns vectors (d, d)."""
    if state.dim != vectors.shape[-1]:
        raise DimMismatch(f"state dim {state.dim} vs eigenbasis dim {vectors.shape[-1]}")
    return vectors.conj().T @ state.amplitudes


def moduli(amplitudes: np.ndarray) -> ModulusVector:
    """Entrywise absolute values of a normalized amplitude vector.

    ModulusVector rejects the result unless its square sum is one, which is
    the amplitude norm check.
    """
    return ModulusVector(np.abs(amplitudes))


def born_probabilities(state: StateVector, vectors: np.ndarray) -> np.ndarray:
    """Squared moduli of the expansion coefficients in the eigenbasis vectors (d, d)."""
    return np.abs(expand(state, vectors)) ** 2


def measure(state: StateVector, vectors: np.ndarray, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Sample one outcome k (quadratic rule) in the eigenbasis vectors (d, d);
    return k and the collapsed state, eigenvector column k.

    Only the quadratic rule yields a normalized distribution, so sampling
    under any other rule is rejected by construction: this function does
    not take a rule argument.
    """
    k = int(np.argmax(sample_outcomes(state, vectors, 1, rng)))
    return k, StateVector.normalize(vectors[:, k])


def sample_outcomes(state: StateVector, vectors: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome counts over many shots in the eigenbasis vectors (d, d): the
    one draw rule, which measure() takes one shot of.

    Each shot draws one uniform and takes the inverse CDF of the Born
    probabilities, ties toward the lower index: shots are counted as the
    uniforms at or below each cumulative probability, and the last outcome
    takes every other shot, also a uniform above a last cumulative value
    that rounding left below 1.
    """
    edges = np.cumsum(born_probabilities(state, vectors))[:-1]
    at_or_below = np.zeros(state.dim + 1, dtype=np.intp)  # [0]: no shot is below the first outcome
    for start in range(0, shots, SHOT_CHUNK):  # bounded memory for any shot count
        uniforms = rng.random(min(SHOT_CHUNK, shots - start))
        at_or_below[1:-1] += [np.count_nonzero(uniforms <= edge) for edge in edges]
    at_or_below[-1] = shots
    return at_or_below[1:] - at_or_below[:-1]  # np.diff's prepend costs more than the draw at one shot


def haar_rows(dim: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """Uniformly random pure states as amplitude rows (n, dim): each generator
    draws its row's real and imaginary parts as one (2, dim) standard normal
    pair, and one pass normalizes every row with the bits of its own
    z / np.linalg.norm(z).  A zero draw (probability 0) becomes nan."""
    z = np.array([rng.standard_normal((2, dim)) for rng in rngs]).transpose(0, 2, 1).copy().view(np.complex128)[..., 0]
    # np.linalg.norm's own formula on the strided views of each row, so the same
    # bits; the contiguous real and imag rows would round differently
    re, im = z.real, z.imag
    z /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]
    return z


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Uniformly random pure state (normalized complex Gaussian vector): the
    n = 1 case of haar_rows.  A zero draw becomes nan, which StateVector rejects."""
    return StateVector(haar_rows(dim, [rng])[0])


def haar_blocks(dim: int, n: int, seed: int, *indices: int) -> np.ndarray:
    """n Haar states as amplitude rows (n, dim): block b draws complex Gaussian rows
    from substream(seed, *indices, b), then all rows are normalized and their moduli
    checked once, row by row, so each has the bits of its block normalized alone.
    A zero row (probability 0) becomes nan and fails the check."""
    z = blockwise(lambda size, rng: ginibre(rng, (size, dim)), n, seed, *indices)
    states = z / np.linalg.norm(z, axis=-1, keepdims=True)
    check_orthant(np.abs(states))
    return states


def gapped_eigenvalues(dim: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Spectra uniform on [-1, 1], one per index of ``batch``, each redrawn
    until its minimum pairwise gap clears TOL.spectrum_gap(dim).  Unsorted."""
    gap = TOL.spectrum_gap(dim)
    values = rng.uniform(-1.0, 1.0, size=(*batch, dim))
    while np.any(redraw := np.min(np.diff(np.sort(values), axis=-1), axis=-1, initial=np.inf) <= gap):
        values[redraw] = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(redraw), dim))
    return values


def random_observables(dim: int, rngs: Iterable[np.random.Generator]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One observable per generator, which draws its gapped spectrum and then its
    Ginibre matrix; one haar_factor makes every eigenbasis and one eigenbasis_stack
    assembles and checks them: (matrices, spectra, eigenvector columns)."""
    draws = [(gapped_eigenvalues(dim, rng), ginibre(rng, (dim, dim))) for rng in rngs]
    bases = haar_factor(np.array([matrix for _, matrix in draws]))
    return eigenbasis_stack(np.array([values for values, _ in draws]), bases)


def spin1_observables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jz and Jx^2 - Jy^2 for spin 1 (m = 1, 0, -1 ordering) as one stack (2, 3, 3),
    with spectra and phase-fixed eigenvector columns; both share the m = 0 eigenvector."""
    jx2_minus_jy2 = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]  # other eigenvectors (|1> +/- |-1>)/sqrt(2)
    matrices = np.array([np.diag([1.0, 0.0, -1.0]), jx2_minus_jy2], dtype=complex)
    values, vectors = eigensystems(matrices)
    return matrices, values, fix_column_phases(vectors)
