"""Observable-independence experiments, run on blocks of streams.BLOCK draws.

Two ways of rotating everything the outcome should not care about:

* random observables sharing one fixed eigenvector, measured in the
  eigenbasis they are drawn from: the probability of an outcome depends on
  the eigenbasis alone, the eigenvalues only label outcomes.  Each draw
  re-draws the complement by one Householder reflection, kept as its unit
  vector and applied to the state's complement coordinates alone: their
  moduli get the law a Haar rotation would give, at O(d) a draw, and no
  eigenbasis is formed;
* direct resampling of the unobserved moduli on the complement orthant of
  radius sqrt(1 - a_0^2).

For the quadratic rule the outcome probability is invariant under both;
renormalized rules leak dependence on the rest of the basis, and the scans
report that leak as a spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import complete_basis, ginibre
from .quantum import ModulusVector, StateVector, check_orthant
from .rules import Rule, rule_probabilities
from .streams import blockwise
from .tolerances import TOL

MIN_DRAWS = 2  # a spread needs two values


@dataclass(frozen=True)
class InvarianceReport:
    """Spread of one outcome's probability across rule-preserving transformations.

    Its dict is a summary: the spread, both extremes and the first draw at
    each.  Draw i is row i % BLOCK of the block drawn from
    substream(*address, i // BLOCK), so the address replays either extreme;
    the per-draw values stay in p_values and the CLI's CSV rows.
    """

    rule: str
    dim: int
    k: int | None
    draws: int
    p_values: np.ndarray
    address: tuple[int, ...]  # (seed, *address): block b is drawn from substream(*address, b)

    @cached_property
    def argmin(self) -> int:
        return int(np.argmin(self.p_values))

    @cached_property
    def argmax(self) -> int:
        return int(np.argmax(self.p_values))

    @property
    def min_p(self) -> float:
        return float(self.p_values[self.argmin])

    @property
    def max_p(self) -> float:
        return float(self.p_values[self.argmax])

    @property
    def spread(self) -> float:
        return self.max_p - self.min_p

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "dim": self.dim,
            "k": self.k,
            "draws": self.draws,
            "spread": self.spread,
            "min_p": self.min_p,
            "argmin": self.argmin,
            "max_p": self.max_p,
            "argmax": self.argmax,
            "address": list(self.address),
        }


def complement_rotation(point: ModulusVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """n resamplings of the unobserved moduli a_1..a_{d-1} at fixed a_0, as rows (n, d).

    Each tail is a fresh point on the complement orthant of radius
    sqrt(1 - a_0^2): absolute values of a standard Gaussian, normalized, then
    scaled.  Scaling a unit tail keeps the fixed points exact: at dim 2 the
    tail is x / x = 1 and the radius a_1, and a zero radius gives zero tails.
    """
    rows = np.tile(point.moduli, (n, 1))
    direction = np.abs(rng.standard_normal((n, point.dim - 1)))
    unit = direction / np.linalg.norm(direction, axis=1, keepdims=True)  # a 0 norm's nan fails check_orthant
    rows[:, 1:] = np.linalg.norm(point.moduli[1:]) * unit
    check_orthant(rows)
    return rows


def observable_with_eigenstate(c: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n unit Householder vectors w (n, d - 1) of random observables sharing an eigenvector phi.

    c holds a state's coordinates B'^dag psi on the complement columns B' of
    complete_basis(phi).  Draw j stands for the eigenbasis
    [phi | B'(I - 2 w_j w_j^dag)], never formed: the reflection sends the unit
    tail c/|c| to -e t, t uniform on the unit sphere (a normalized Ginibre
    row) and e the phase of t^dag tail.  The state's complement moduli
    |c - 2(w^dag c) w| are then |c| |t_j|, as after a Haar rotation of the
    complement, at O(d) a draw.  c = 0 (psi along phi) has no direction; the
    first unit vector stands in, since every reflection leaves c = 0 at 0.
    No spectrum is drawn: an outcome's probability is fixed by the
    eigenbasis, and the eigenvalues only label outcomes.
    """
    norm = np.linalg.norm(c)
    tail = c / norm if norm > 0.0 else np.eye(c.size)[0]
    t = ginibre(rng, (n, c.size))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    phase = np.exp(1j * np.angle(np.conj(t) @ tail))  # angle(0) = 0: phase 1
    w = tail + phase[:, None] * t  # |w|^2 = 2 + 2|t^dag tail| >= 2: no cancellation
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w


def match_eigenvector(vectors: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Index of the eigenvector column matching phi up to phase, per stack entry.

    vectors holds eigenvector columns (..., d, d), such as the eigenbases of
    spin1's two operators.  Every best overlap must be essentially perfect,
    or the whole stack is rejected.
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
    rule: Rule,
    draws: int,
    seed: int,
    *address: int,
) -> InvarianceReport:
    """Spread of p(outcome = phi) across random observables sharing phi.

    Each draw is the eigenbasis of a fresh observable with phi as column 0;
    the rule is evaluated on psi's moduli in that eigenbasis, at outcome 0.
    psi is expanded once in complete_basis(phi), and each draw reflects only
    its complement coordinates c.  The quadratic rule reads only
    |<phi|psi>|, which every draw holds to the same bits, so its spread is
    exactly 0.
    """
    if psi.dim != phi.dim:
        raise ValueError("state and eigenvector dimensions differ")
    _check_draws(draws)
    coefficients = psi.amplitudes @ np.conj(complete_basis(phi.amplitudes))
    c = coefficients[1:]

    def kernel(n: int, rng: np.random.Generator) -> np.ndarray:
        w = observable_with_eigenstate(c, n, rng)
        rows = np.tile(coefficients, (n, 1))
        rows[:, 1:] -= 2.0 * (np.conj(w) @ c)[:, None] * w
        point = np.abs(rows)
        check_orthant(point)
        return rule_probabilities(rule, point)[:, 0]

    return InvarianceReport(rule.name, psi.dim, None, draws, blockwise(kernel, draws, seed, *address), (seed, *address))


def unobserved_independence_scan(
    point: ModulusVector,
    rule: Rule,
    draws: int,
    seed: int,
    *address: int,
) -> InvarianceReport:
    """Spread of p_0 as the unobserved moduli rotate at fixed a_0.

    Zero for plain rules, the falsification signal for renormalized ones.
    Every rule is permutation-equivariant: outcome k is outcome 0 with a_k first.
    """
    _check_draws(draws)
    p_values = blockwise(
        lambda n, rng: rule_probabilities(rule, complement_rotation(point, n, rng))[:, 0], draws, seed, *address
    )
    return InvarianceReport(rule.name, point.dim, 0, draws, p_values, (seed, *address))
