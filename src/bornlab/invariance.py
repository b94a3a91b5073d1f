"""Observable-independence experiments, run on blocks of streams.BLOCK draws.

Two ways of rotating everything the outcome should not care about:

* random observables sharing one fixed eigenvector, diagonalized by eigh,
  with the shared eigenvector found again by overlap;
* direct resampling of the unobserved moduli on the complement orthant of
  radius sqrt(1 - a_0^2).

For the quadratic rule the outcome probability is invariant under both;
renormalized rules leak dependence on the rest of the basis, and the scans
report that leak as a spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import complete_basis, eigensystems, haar_array
from .quantum import ModulusVector, StateVector, check_orthant, gapped_eigenvalues
from .rules import ProbabilityRule, rule_probabilities
from .streams import blockwise
from .tolerances import TOL

MIN_DRAWS = 2  # a spread needs two values


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


def complement_rotation(point: ModulusVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """n resamplings of the unobserved moduli a_1..a_{d-1} at fixed a_0, as rows (n, d).

    Each tail is a fresh point on the complement orthant of radius
    sqrt(1 - a_0^2): absolute values of a standard Gaussian, normalized and
    scaled.  For dim 2 the complement orthant is a single point, so every
    row is the input.
    """
    d = point.dim
    rows = np.tile(point.moduli, (n, 1))
    radius = float(np.linalg.norm(point.moduli[1:]))
    if d == 2 or radius == 0.0:
        return rows
    direction = np.abs(rng.standard_normal((n, d - 1)))
    norm = np.linalg.norm(direction, axis=1, keepdims=True)  # 0 has probability 0; check_orthant rejects the nan
    rows[:, 1:] = radius * direction / norm
    check_orthant(rows)
    return rows


def observable_with_eigenstate(basis: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n random observables (n, d, d) sharing the eigenvector basis[:, 0].

    basis is a unitary with the shared state as column 0 (complete_basis).
    Each observable rotates the other columns by its own Haar unitary and
    draws a gapped spectrum, so the shared eigenvector lands at a uniformly
    random sorted position.  V diag(w) V^dag is not re-Hermitized.
    """
    d = basis.shape[0]
    vectors = np.repeat(basis[None], n, axis=0)
    vectors[:, :, 1:] = basis[:, 1:] @ haar_array(d - 1, rng, (n,))
    values = gapped_eigenvalues(d, rng, (n,))
    return (vectors * values[:, None, :]) @ np.conj(np.swapaxes(vectors, -1, -2))


def match_eigenvector(vectors: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Index of the eigenvector column matching phi up to phase, per stack entry.

    vectors holds eigenvector columns (..., d, d).  Matching by eigenvalue
    would be meaningless across random observables; every best overlap must
    be essentially perfect, or the whole stack is rejected.
    """
    overlaps = np.abs(np.asarray(phi) @ np.conj(vectors))
    k = np.argmax(overlaps, axis=-1)
    best = float(np.min(np.max(overlaps, axis=-1)))
    if not best > 1.0 - TOL.match_overlap:
        raise ValueError(f"no eigenvector matches: worst best overlap {best:.12f}")
    return k


def _check_draws(draws: int) -> None:
    if draws < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws")


def observable_independence_scan(
    psi: StateVector,
    phi: StateVector,
    rule: ProbabilityRule,
    draws: int,
    seed: int,
) -> InvarianceReport:
    """Spread of p(outcome = phi) across random observables sharing phi.

    Each draw builds a fresh observable with phi as an eigenvector,
    diagonalizes it, finds phi among its eigenvectors by overlap, and
    evaluates the rule on psi's moduli in that eigenbasis at the match.
    """
    if psi.dim != phi.dim:
        raise ValueError("state and eigenvector dimensions differ")
    _check_draws(draws)
    basis = complete_basis(phi.amplitudes)

    def kernel(n: int, rng: np.random.Generator) -> np.ndarray:
        matrices = observable_with_eigenstate(basis, n, rng)
        _, vectors = eigensystems(matrices)
        k = match_eigenvector(vectors, phi.amplitudes)
        point = np.abs(psi.amplitudes @ np.conj(vectors))
        check_orthant(point)
        return rule_probabilities(rule, point)[np.arange(n), k]

    return InvarianceReport(rule.name, psi.dim, None, draws, blockwise(kernel, draws, seed), seed)


def unobserved_independence_scan(
    point: ModulusVector,
    rule: ProbabilityRule,
    draws: int,
    seed: int,
) -> InvarianceReport:
    """Spread of p_0 as the unobserved moduli rotate at fixed a_0.

    Zero for plain rules, the falsification signal for renormalized ones.
    Every rule is permutation-equivariant: outcome k is outcome 0 with a_k first.
    """
    _check_draws(draws)
    p_values = blockwise(
        lambda n, rng: rule_probabilities(rule, complement_rotation(point, n, rng))[:, 0], draws, seed
    )
    return InvarianceReport(rule.name, point.dim, 0, draws, p_values, seed)
