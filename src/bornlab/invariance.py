"""Observable-independence experiments.

Two ways of rotating everything the outcome should not care about:

* unitaries that preserve a single modulus (a phase on the outcome
  direction times an arbitrary unitary on its complement), realized as
  random observables sharing one fixed eigenvector;
* direct resampling of the unobserved moduli on the complement orthant of
  radius sqrt(1 - a_k^2).

For the quadratic rule the outcome probability is invariant under both;
renormalized rules leak dependence on the rest of the basis, and the scans
report that leak as a spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import complete_basis, haar_array
from .quantum import (
    ModulusVector,
    NotNormalized,
    Observable,
    StateVector,
    expand,
    gapped_eigenvalues,
)
from .rules import ProbabilityRule, rule_probabilities
from .streams import map_trials, substream
from .tolerances import TOL


class IndexOutOfRange(IndexError):
    """Fixed index is outside the vector's dimension."""


@dataclass(frozen=True)
class ComplementPoint:
    """A fixed modulus plus a tail on the complement orthant of matching radius."""

    fixed_value: float
    tail: np.ndarray

    def __post_init__(self) -> None:
        tail = np.array(self.tail, dtype=np.float64).reshape(-1)
        if np.any(tail < 0.0):
            raise ValueError("tail moduli must be non-negative")
        defect = abs(np.sum(tail**2) - (1.0 - self.fixed_value**2))
        if defect > TOL.orthant_norm:
            raise NotNormalized(f"complement radius defect {defect:.3e}")
        tail.setflags(write=False)
        object.__setattr__(self, "tail", tail)


@dataclass(frozen=True)
class InvarianceReport:
    """Spread of one outcome's probability across rule-preserving transformations."""

    rule: str
    dim: int
    k: int | None
    draws: int
    p_values: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        p_values = np.array(self.p_values, dtype=np.float64)
        p_values.setflags(write=False)
        object.__setattr__(self, "p_values", p_values)

    @property
    def spread(self) -> float:
        return float(np.max(self.p_values) - np.min(self.p_values))

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "dim": self.dim,
            "k": self.k,
            "draws": self.draws,
            "p_values": [float(p) for p in self.p_values],
            "spread": self.spread,
            "seed": self.seed,
        }


def complement_rotation(
    point: ModulusVector, k: int, rng: np.random.Generator
) -> ModulusVector:
    """Resample the unobserved moduli uniformly at fixed a_k.

    The tail is a fresh point on the complement orthant of radius
    sqrt(1 - a_k^2): absolute values of a standard Gaussian, normalized and
    scaled.  For dim 2 the complement orthant is a single point, so the
    input is returned unchanged.
    """
    d = point.dim
    if not 0 <= k < d:
        raise IndexOutOfRange(f"index {k} for dimension {d}")
    if d == 2:
        return point
    others = [j for j in range(d) if j != k]
    radius = float(np.linalg.norm(point.moduli[others]))
    if radius == 0.0:
        return point
    while True:
        direction = np.abs(rng.standard_normal(d - 1))
        norm = np.linalg.norm(direction)
        if norm > 0.0:
            break
    tail = ComplementPoint(float(point.moduli[k]), radius * direction / norm)
    out = np.empty(d, dtype=np.float64)
    out[k] = point.moduli[k]
    out[others] = tail.tail
    return ModulusVector(out)


def observable_with_eigenstate(
    phi: StateVector | np.ndarray, rng: np.random.Generator, label: str = ""
) -> Observable:
    """Random observable that has the given state as one eigenvector.

    The remaining eigenvectors are Haar-random on the complement and the
    spectrum is a gapped random draw, so the shared eigenvector lands at a
    uniformly random position in the sorted eigensystem.
    """
    if not isinstance(phi, StateVector):
        phi = StateVector(np.asarray(phi))
    basis = np.array(complete_basis(phi.amplitudes).entries)
    if phi.dim > 1:
        basis[:, 1:] = basis[:, 1:] @ haar_array(phi.dim - 1, rng)
    return Observable.from_eigenbasis(gapped_eigenvalues(phi.dim, rng), basis, label)


def match_eigenvector(observable: Observable, phi: StateVector) -> int:
    """Index of the eigenvector matching phi up to phase.

    Matching by eigenvalue would be meaningless across random observables;
    the overlap must be essentially perfect or the match is rejected.
    """
    overlaps = np.abs(observable.eigensystem.eigenvectors.conj().T @ phi.amplitudes)
    k = int(np.argmax(overlaps))
    if overlaps[k] <= 1.0 - TOL.match_overlap:
        raise ValueError(f"no eigenvector matches: best overlap {overlaps[k]:.12f}")
    return k


def observable_independence_scan(
    psi: StateVector,
    phi: StateVector,
    rule: ProbabilityRule,
    draws: int,
    seed: int,
    threads: int = 1,
) -> InvarianceReport:
    """Spread of p(outcome = phi) across random observables sharing phi.

    Each draw builds a fresh observable with phi as an eigenvector, expands
    psi in its eigenbasis, and evaluates the rule at the matched outcome.
    """
    if draws < 2:
        raise ValueError("need at least 2 draws")
    if psi.dim != phi.dim:
        raise ValueError("state and eigenvector dimensions differ")
    p_values = np.empty(draws, dtype=np.float64)

    def run(i: int) -> None:
        observable = observable_with_eigenstate(phi, substream(seed, i))
        point = ModulusVector(np.abs(expand(psi, observable)))
        k = match_eigenvector(observable, phi)
        p_values[i] = rule_probabilities(rule, point)[k]

    map_trials(run, draws, threads)

    return InvarianceReport(rule.name, psi.dim, None, draws, p_values, seed)


def unobserved_independence_scan(
    point: ModulusVector,
    k: int,
    rule: ProbabilityRule,
    draws: int,
    seed: int,
    threads: int = 1,
) -> InvarianceReport:
    """Spread of p_k as the unobserved moduli rotate at fixed a_k.

    Structurally zero for any rule of the plain single-modulus form; for
    renormalized rules the spread is the falsification signal.
    """
    if draws < 2:
        raise ValueError("need at least 2 draws")
    if not 0 <= k < point.dim:
        raise IndexOutOfRange(f"index {k} for dimension {point.dim}")
    p_values = np.empty(draws, dtype=np.float64)

    def run(i: int) -> None:
        rotated = complement_rotation(point, k, substream(seed, i))
        p_values[i] = rule_probabilities(rule, rotated)[k]

    map_trials(run, draws, threads)

    return InvarianceReport(rule.name, point.dim, k, draws, p_values, seed)
