"""Observable-independence experiments: scans that draw every row from one stream.

Both scans take an orthant point: a state's moduli, with the outcome's
eigenvector as e_0 (a Haar state's law is unitarily invariant).  The rest
of an observable can only move the complement moduli on the sphere of
radius r = |(a_1, ..., a_{d-1})|, with a_0 held.  Both scans draw exactly
that, row after row from the scan's own stream, through two laws for the tail:

* random observables sharing e_0, measured in the eigenbasis they are drawn
  from (observable_with_eigenstate): a Haar rotation of the complement gives
  the tail r |t| / |t|, t a complex Gaussian row, so no eigenbasis is formed;
* direct resampling of the unobserved moduli (complement_rotation): the
  tail r |x| / |x|, x a real Gaussian row.

For the quadratic rule the outcome probability is invariant under both;
renormalized rules leak dependence on the rest of the basis, and the scans
report that leak as a spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import row_sum
from .quantum import ModulusVector, check_orthant, complex_rows
from .rules import Rule, rule_probabilities
from .streams import substream
from .tolerances import TOL

MIN_DRAWS = 2  # a spread needs two values


@dataclass(frozen=True)
class InvarianceReport:
    """Spread of one outcome's probability across rule-preserving transformations.

    Its dict is a summary: the spread, both extremes and the first draw at
    each.  Draw i is row i of the rows drawn in turn from substream(*address),
    so the address replays either extreme; the per-draw values stay in
    p_values and the CLI's CSV rows.
    """

    rule: str
    dim: int
    draws: int
    p_values: np.ndarray
    address: tuple[int, ...]  # (seed, *address): every draw is from substream(*address)

    def as_dict(self) -> dict:
        argmin, argmax = int(np.argmin(self.p_values)), int(np.argmax(self.p_values))
        min_p, max_p = float(self.p_values[argmin]), float(self.p_values[argmax])
        return {
            "rule": self.rule,
            "dim": self.dim,
            "draws": self.draws,
            "spread": max_p - min_p,
            "min_p": min_p,
            "argmin": argmin,
            "max_p": max_p,
            "argmax": argmax,
            "address": list(self.address),
        }


def _tails(point: ModulusVector, direction: np.ndarray) -> np.ndarray:
    """Rows (n, d): the point's a_0, then its complement radius times each row of direction / |direction|.

    Scaling a unit tail keeps the fixed points exact: at dim 2 the tail is
    x / x = 1 and the radius a_1, and a zero radius gives zero tails.
    """
    rows = np.empty((len(direction), point.dim))
    rows[:, 0] = point.moduli[0]
    # np.linalg.norm's own formula for a real array, without its dispatch; a 0 norm's nan fails check_orthant
    unit = direction / np.sqrt(row_sum(direction * direction, keepdims=True))
    rows[:, 1:] = np.linalg.norm(point.moduli[1:]) * unit
    return rows


def complement_rotation(point: ModulusVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """n resamplings of the unobserved moduli a_1..a_{d-1} at fixed a_0, as rows (n, d).

    Each tail is a fresh point on the complement orthant: absolute values of
    a real standard Gaussian, normalized, then scaled; its squares are
    Dirichlet(1/2, ..., 1/2).
    """
    return _tails(point, np.abs(rng.standard_normal((n, point.dim - 1))))


def observable_with_eigenstate(point: ModulusVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """A state's moduli (n, d) in the eigenbases of n random observables sharing the eigenvector e_0.

    point is the state's moduli: a_0 = |<e_0|psi>| and r = |(a_1, ..., a_{d-1})|,
    the norm of its complement component.  A Haar rotation of the complement
    sends that component to r t / |t|, t a complex Gaussian row (quantum.complex_rows
    of a (2, d - 1) pair), so the moduli are (a_0, r |t| / |t|) and no eigenbasis
    is formed: the squared tails are Dirichlet(1, ..., 1).  No spectrum is drawn:
    an outcome's probability is fixed by the eigenbasis, and the eigenvalues only
    label outcomes.
    """
    return _tails(point, np.abs(complex_rows(rng.standard_normal((n, 2, point.dim - 1)))))


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


def _complement_scan(
    law: Callable[[ModulusVector, int, np.random.Generator], np.ndarray],
    point: ModulusVector, rule: Rule, draws: int, seed: int, address: tuple[int, ...]
) -> InvarianceReport:
    """p_0 of rule on the rows of law(point, draws, substream(seed, *address)), checked once."""
    if draws < MIN_DRAWS:
        raise ValueError(f"need at least {MIN_DRAWS} draws")
    rows = law(point, draws, substream(seed, *address))
    check_orthant(rows)
    return InvarianceReport(rule.name, point.dim, draws, rule_probabilities(rule, rows)[:, 0], (seed, *address))


def observable_independence_scan(
    point: ModulusVector,
    rule: Rule,
    draws: int,
    seed: int,
    *address: int,
) -> InvarianceReport:
    """Spread of p(outcome = e_0) across random observables sharing the eigenvector e_0.

    Each draw is the eigenbasis of a fresh observable with e_0 as column 0;
    the rule is evaluated on the state's moduli in that eigenbasis, at
    outcome 0.  Every draw holds a_0 = point.moduli[0] to the same bits, so
    the quadratic rule's spread is exactly 0.
    """
    return _complement_scan(observable_with_eigenstate, point, rule, draws, seed, address)


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
    return _complement_scan(complement_rotation, point, rule, draws, seed, address)
