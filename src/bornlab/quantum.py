"""States, observables, measurement bases, and measurement simulation.

A measurement expands the state in the eigenbasis of a nondegenerate
Hermitian observable, whose moduli a candidate rule turns into outcome
values (rules.rule_probabilities), and (for the quadratic rule) samples an
outcome and collapses onto the matching eigenvector.  Includes the spin-1 fixtures
used by the two-observable demonstration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Eigensystem, HermitianMatrix, check_eigensystems, eigendecompose
from .linalg import fix_column_phases, haar_array
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
        within(abs(np.sum(np.abs(amplitudes) ** 2) - 1.0), TOL.state_norm, "state norm defect", NotNormalized)
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
    if rows.min(initial=0.0) < 0.0:  # methods, not np.any/np.max: this runs per defect-scan trial
        raise ValueError("moduli must be non-negative")
    defect = float(np.abs(np.sum(rows**2, axis=-1) - 1.0).max(initial=0.0))
    within(defect, TOL.orthant_norm, "orthant norm defect", NotNormalized)


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
    """Hermitian operator with a cached nondegenerate eigensystem."""

    matrix: HermitianMatrix
    eigensystem: Eigensystem

    def __post_init__(self) -> None:
        if self.matrix.dim != self.eigensystem.dim:
            raise DimMismatch("matrix and eigensystem dimensions differ")
        check_eigensystems(self.matrix.entries, self.eigensystem.eigenvalues, self.eigensystem.eigenvectors)

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @classmethod
    def from_matrix(cls, matrix: HermitianMatrix | np.ndarray) -> "Observable":
        if not isinstance(matrix, HermitianMatrix):
            matrix = HermitianMatrix(matrix)
        return cls(matrix, eigendecompose(matrix))

    @classmethod
    def from_eigenbasis(cls, eigenvalues: np.ndarray, basis: np.ndarray) -> "Observable":
        """Assemble an observable whose eigensystem is known by construction.

        The basis columns are the eigenvectors; they are reordered to
        ascending eigenvalue and phase-fixed, and the matrix is built as
        V diag(w) V^dag (re-Hermitized to kill rounding asymmetry).
        """
        values = np.asarray(eigenvalues, dtype=np.float64).reshape(-1)
        vectors = np.asarray(basis, dtype=np.complex128)
        order = np.argsort(values, kind="stable")
        values = values[order]
        vectors = fix_column_phases(vectors[:, order])
        raw = (vectors * values) @ vectors.conj().T
        matrix = HermitianMatrix((raw + raw.conj().T) / 2.0)
        return cls(matrix, Eigensystem(values, vectors))


def expand(state: StateVector, observable: Observable) -> np.ndarray:
    """Expansion coefficients of the state in the observable's eigenbasis."""
    if state.dim != observable.dim:
        raise DimMismatch(f"state dim {state.dim} vs observable dim {observable.dim}")
    return observable.eigensystem.eigenvectors.conj().T @ state.amplitudes


def moduli(amplitudes: np.ndarray) -> ModulusVector:
    """Entrywise absolute values of a normalized amplitude vector.

    ModulusVector rejects the result unless its square sum is one, which is
    the amplitude norm check.
    """
    return ModulusVector(np.abs(amplitudes))


def born_probabilities(state: StateVector, observable: Observable) -> np.ndarray:
    """Squared moduli of the expansion coefficients."""
    return np.abs(expand(state, observable)) ** 2


def draw_outcomes(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Outcome index of each uniform: the inverse CDF, ties toward the lower index."""
    idx = np.searchsorted(cumulative, uniforms, side="left")
    return np.minimum(idx, cumulative.shape[0] - 1)


def measure(state: StateVector, observable: Observable, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Sample one outcome k (quadratic rule); return k and the collapsed state,
    its eigenvector.

    Only the quadratic rule yields a normalized distribution, so sampling
    under any other rule is rejected by construction: this function does
    not take a rule argument.
    """
    cumulative = np.cumsum(born_probabilities(state, observable))
    k = int(draw_outcomes(cumulative, np.array([rng.random()]))[0])
    return k, StateVector.normalize(observable.eigensystem.eigenvectors[:, k])


def sample_outcomes(
    state: StateVector, observable: Observable, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Outcome counts over many shots, using the same draw rule as measure()."""
    cumulative = np.cumsum(born_probabilities(state, observable))
    counts = np.zeros(state.dim, dtype=np.intp)
    for start in range(0, shots, SHOT_CHUNK):  # bounded memory for any shot count
        uniforms = rng.random(min(SHOT_CHUNK, shots - start))
        counts += np.bincount(draw_outcomes(cumulative, uniforms), minlength=state.dim)
    return counts


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Uniformly random pure state (normalized complex Gaussian vector)."""
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        norm = np.linalg.norm(z)
        if norm > TOL.zero_vector:
            return StateVector(z / norm)


def haar_states(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniformly random pure states as amplitude rows (n, dim).

    Each row is a normalized complex Gaussian; a row whose norm is at or
    below the zero-vector threshold is redrawn.  The moduli rows are checked
    once for the whole block.
    """
    draw = lambda rows: rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    z = draw(n)
    while np.any(redraw := np.linalg.norm(z, axis=-1) <= TOL.zero_vector):
        z[redraw] = draw(np.count_nonzero(redraw))
    states = z / np.linalg.norm(z, axis=-1, keepdims=True)
    check_orthant(np.abs(states))
    return states


def gapped_eigenvalues(dim: int, rng: np.random.Generator, batch: tuple[int, ...] = ()) -> np.ndarray:
    """Spectra uniform on [-1, 1], one per index of ``batch``, each redrawn
    until its minimum pairwise gap clears the threshold.  Unsorted."""
    values = rng.uniform(-1.0, 1.0, size=(*batch, dim))
    while np.any(redraw := np.min(np.diff(np.sort(values), axis=-1), axis=-1, initial=np.inf) <= TOL.random_gap):
        values[redraw] = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(redraw), dim))
    return values


def random_observable(dim: int, rng: np.random.Generator) -> Observable:
    """Observable with Haar-random eigenbasis and a gapped random spectrum."""
    return Observable.from_eigenbasis(gapped_eigenvalues(dim, rng), haar_array(dim, rng))


def spin1_jz() -> Observable:
    """Angular momentum along z for spin 1, in the m = 1, 0, -1 ordering."""
    return Observable.from_matrix(np.diag([1.0, 0.0, -1.0]).astype(complex))


def spin1_jx2_minus_jy2() -> Observable:
    """The spin-1 operator Jx^2 - Jy^2, which shares the m = 0 eigenvector
    with Jz while its other eigenvectors are (|1> +/- |-1>)/sqrt(2)."""
    m = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], dtype=complex)
    return Observable.from_matrix(m)
