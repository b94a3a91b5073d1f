"""States, observables, measurement bases, and measurement simulation.

A measurement expands the state in the eigenbasis of a nondegenerate
Hermitian observable, whose moduli a candidate rule turns into outcome
values (rules.rule_probabilities).  Sampling draws outcomes from such a
row once it is a probability distribution, and collapses onto the matching
eigenvector.  Includes the spin-1 fixtures used by the two-observable
demonstration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import Eigensystem, HermitianMatrix, check_eigensystems, fix_column_phases, row_sum
from .streams import substream
from .tolerances import TOL, within


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
        within(abs(float(np.vdot(amplitudes, amplitudes).real) - 1.0), TOL.unit_norm, "state norm defect", NotNormalized)
        amplitudes.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def check_orthant(rows: np.ndarray) -> None:
    """Reject a stack of moduli rows (..., d) unless each is non-negative with unit square sum.

    One reduce and one vecdot over the stack; a square that overflows is inf, under errstate.
    A nan anywhere is NotNormalized: numpy's minimum carries it past the sign test to the sum.
    """
    with np.errstate(over="ignore"):
        if np.minimum.reduce(rows, axis=None, initial=0.0) < 0.0:
            raise ValueError("moduli must be non-negative")
        defect = float(np.abs(np.vecdot(rows, rows) - 1.0).max(initial=0.0))
    within(defect, TOL.unit_norm, "orthant norm defect", NotNormalized)


@dataclass(frozen=True)
class ModulusVector:
    """A point on the unit orthant: non-negative moduli with unit square sum."""

    moduli: np.ndarray

    def __post_init__(self) -> None:
        moduli = np.array(self.moduli, dtype=np.float64).reshape(-1)
        # check_orthant's test on one row, by Python's sum and min over its float list, cheaper
        # than numpy on a few entries.  A square that overflows is inf, silently: Python floats
        # do not warn.  Python's min can skip a nan, so the sign test needs a non-nan sum, and a
        # nan anywhere is NotNormalized, as in check_orthant.
        values = moduli.tolist()
        square_sum = sum([x * x for x in values])
        if square_sum == square_sum and values and min(values) < 0.0:
            raise ValueError("moduli must be non-negative")
        within(abs(square_sum - 1.0), TOL.unit_norm, "orthant norm defect", NotNormalized)
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
        """Assemble an observable whose eigensystem is known by construction: the basis's columns,
        stable-sorted to ascending eigenvalue and phase-fixed, are its eigenvectors, V diag(w) V^dag
        is re-Hermitized to kill rounding asymmetry, and one check_eigensystems call checks the result."""
        values = np.asarray(eigenvalues, dtype=np.float64)
        order = np.argsort(values, kind="stable")
        values = values[order]
        vectors = fix_column_phases(np.asarray(basis, dtype=np.complex128)[:, order])
        raw = (vectors * values) @ vectors.conj().T
        matrix = (raw + raw.conj().T) / 2.0
        check_eigensystems(matrix, values, vectors)
        return cls(HermitianMatrix(matrix), Eigensystem(values, vectors))


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


def measure(p: np.ndarray, vectors: np.ndarray, rng: np.random.Generator) -> tuple[int, StateVector]:
    """One shot of sample_outcomes from the probability row p (d,), as a one-row stack: the
    outcome k and the collapsed state, column k of the eigenbasis vectors (d, d) as it stands."""
    if p.shape[-1] != vectors.shape[-1]:
        raise DimMismatch(f"probability row dim {p.shape[-1]} vs eigenbasis dim {vectors.shape[-1]}")
    k = int(np.argmax(sample_outcomes(p[None], 1, rng)[0]))
    return k, StateVector(vectors[:, k])


def sample_outcomes(p: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Outcome counts (n, d) over many shots from each row of a stack of probability rows
    p (n, d), drawn by one generator row after row: the one draw rule, whose one-row,
    one-shot case is measure().

    The whole stack is checked once, before any draw: a negative entry is a ValueError, and a
    row sum more than TOL.unit_norm from one (nan included) is NotNormalized.  The counts are
    one multinomial call on the stack, which draws its rows in order, as a loop of one
    multinomial per row over rng would.  A row's multinomial has the law of one inverse-CDF
    draw per shot; numpy draws successive binomials, so the last outcome takes the shots the
    others leave.  An entry that rounded above 1 (a collapsed state's certain outcome,
    1 + 2e-16) is clipped to 1, as numpy requires.
    """
    if np.minimum.reduce(p, axis=None, initial=0.0) < 0.0:  # a nan carries past, to the sum test
        raise ValueError("probabilities must be non-negative")
    within(float(np.abs(row_sum(p) - 1.0).max()), TOL.unit_norm, "probability sum defect", NotNormalized)
    return rng.multinomial(shots, np.minimum(p, 1.0))


def chi_square_test(counts: np.ndarray, expected: np.ndarray) -> tuple[float, int, float]:
    """Pearson's test of counts (d,) against expected counts (d,) of the same
    total, over cells pooled in ascending order of expectation until each pool
    expects TOL.sample_min_expected (a short last pool joins the one before):
    (statistic, degrees of freedom, p-value), or (0.0, 0, 1.0) for one pool."""
    observed, means = counts.tolist(), expected.tolist()
    pools, pool = [], [0, 0.0]  # the closed pools' and the open pool's [observed, expected]
    for k in sorted(range(len(means)), key=means.__getitem__):  # stable: ties in index order
        pool = [pool[0] + observed[k], pool[1] + means[k]]
        if pool[1] >= TOL.sample_min_expected:
            pools.append(pool)
            pool = [0, 0.0]
    if len(pools) < 2:  # a short last pool would join the one pool
        return 0.0, 0, 1.0
    pools[-1] = [pools[-1][0] + pool[0], pools[-1][1] + pool[1]]
    statistic = sum((count - mean) ** 2 / mean for count, mean in pools)
    return statistic, len(pools) - 1, chi_square_sf(statistic, len(pools) - 1)


def chi_square_sf(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with integer dof >= 1 (Abramowitz & Stegun 26.4.4-5):
    erfc(sqrt(x/2)) if dof is odd, plus exp(-x/2) (x/2)^s / Gamma(s + 1) for s = dof/2 - 1,
    dof/2 - 2, ... down to 0 or 1/2, each term taken in logs so that none overflows."""
    if x <= 0.0:
        return 1.0
    half = x / 2.0
    tail = math.erfc(math.sqrt(half)) if dof % 2 else 0.0
    for j in range(dof // 2):
        s = dof / 2.0 - 1.0 - j
        tail += math.exp(s * math.log(half) - half - math.lgamma(s + 1.0))
    return min(1.0, tail)


def complex_rows(pairs: np.ndarray) -> np.ndarray:
    """Complex rows (n, d) from real pairs (n, 2, d), each row's real parts then its
    imaginary parts: the layout in which every scan draws its complex Gaussian rows."""
    return pairs.transpose(0, 2, 1).copy().view(np.complex128)[..., 0]


def haar_rows(pairs: np.ndarray) -> np.ndarray:
    """Uniformly random pure states as amplitude rows (n, d) from standard normal
    pairs (n, 2, d) (complex_rows): one pass normalizes every row with the bits of
    its own z / np.linalg.norm(z).  A zero draw (probability 0) becomes nan."""
    z = complex_rows(pairs)
    # np.linalg.norm's own formula on the strided views of each row, so the same
    # bits; the contiguous real and imag rows would round differently
    re, im = z.real, z.imag
    z /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]
    return z


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Uniformly random pure state (normalized complex Gaussian vector): the
    one-row case of haar_rows.  A zero draw becomes nan, which StateVector rejects."""
    return StateVector(haar_rows(rng.standard_normal((2, dim))[None])[0])


def haar_scan(dim: int, n: int, seed: int, *indices: int) -> np.ndarray:
    """The n Haar states of the scan at (seed, *indices) as amplitude rows (n, dim), their
    moduli checked once: haar_rows of n pairs drawn one after another from substream(seed,
    *indices), so no row depends on how many follow it.  A zero row (probability 0) becomes
    nan and fails the check."""
    states = haar_rows(substream(seed, *indices).standard_normal((n, 2, dim)))
    check_orthant(np.abs(states))
    return states


def haar_moduli(dim: int, n: int, seed: int, *indices: int) -> np.ndarray:
    """The moduli (n, dim) of n Haar states of the scan at (seed, *indices), checked once,
    drawn without the states: a Haar state's squared moduli are Dirichlet(1, ..., 1), the
    flat measure on the probability simplex, so row i is sqrt(e / sum(e)) of the i-th dim
    standard exponentials of substream(seed, *indices), and no row depends on how many
    follow it.  A zero row (probability 0) becomes nan and fails the check."""
    e = substream(seed, *indices).standard_exponential((n, dim))
    rows = np.sqrt(e / row_sum(e, keepdims=True))
    check_orthant(rows)
    return rows


@functools.cache
def spin1_observables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jz and Jx^2 - Jy^2 for spin 1 (m = 1, 0, -1 ordering) as one stack (2, 3, 3), with spectra and phase-fixed
    eigenvector columns (both share the m = 0 one), built and checked once: every call gets the same read-only arrays."""
    jx2_minus_jy2 = [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]  # other eigenvectors (|1> +/- |-1>)/sqrt(2)
    matrices = np.array([np.diag([1.0, 0.0, -1.0]), jx2_minus_jy2], dtype=complex)
    values, vectors = np.linalg.eigh(matrices)
    check_eigensystems(matrices, values, vectors)
    fixture = matrices, values, fix_column_phases(vectors)
    for array in fixture:
        array.setflags(write=False)
    return fixture
