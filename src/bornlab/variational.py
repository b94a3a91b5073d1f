"""Stationarity checks and numerical recovery of the quadratic rule.

Three related computations:

* finite-difference residuals of the Lagrange stationarity conditions for
  a candidate rule on the unit orthant, in two forms: the normalization
  sum over all moduli, and a single outcome probability at fixed modulus;
* the stationarity of the closed-form solutions of those conditions, the
  two-parameter quadratic-affine family that the boundary values
  f(0) = 0 and f(1) = 1 pin to the quadratic rule;
* a linear least-squares fit over low-degree polynomials that recovers the
  quadratic rule as the unique normalizable candidate from sampled states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .quantum import ModulusVector, haar_state, moduli
from .rules import Affine
from .streams import substream
from .tolerances import TOL

MIN_SAMPLES = 10 * 4  # ten sampled rows per fitted coefficient


class RankDeficient(RuntimeError):
    """Sampled design matrix cannot pin the polynomial coefficients."""


@dataclass(frozen=True)
class PolynomialCandidate:
    """f(x) = c1 x + c2 x^2 + c3 x^3 + c4 x^4, with f(0) = 0 structural."""

    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coefficients = np.array(self.coefficients, dtype=np.float64).reshape(-1)
        if coefficients.shape != (4,):
            raise ValueError("expected exactly four coefficients (powers 1..4)")
        coefficients.setflags(write=False)
        object.__setattr__(self, "coefficients", coefficients)

    def __call__(self, x):
        c1, c2, c3, c4 = self.coefficients
        return x * (c1 + x * (c2 + x * (c3 + x * c4)))


@dataclass(frozen=True)
class StationarityResidual:
    """Per-index residuals of a Lagrange stationarity condition."""

    multiplier: float
    indices: tuple[int, ...]
    residuals: np.ndarray

    def __post_init__(self) -> None:
        residuals = np.array(self.residuals, dtype=np.float64)
        residuals.setflags(write=False)
        object.__setattr__(self, "residuals", residuals)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals))) if self.residuals.size else 0.0


@dataclass(frozen=True)
class RecoveryResult:
    candidate: PolynomialCandidate
    objective_value: float
    sample_count: int
    dims_used: tuple[int, ...]
    seed: int

    def as_dict(self) -> dict:
        return {
            "coefficients": [float(c) for c in self.candidate.coefficients],
            "objective_value": self.objective_value,
            "sample_count": self.sample_count,
            "dims_used": list(self.dims_used),
            "seed": self.seed,
        }


def rule_stationarity(
    f: Callable[[float], float],
    point: ModulusVector,
    multiplier: float,
    step: float = TOL.fd_step,
) -> StationarityResidual:
    """Residuals f'(a_j) - 2 * multiplier * a_j by central differences.

    The derivative of the probability-normalization sum with respect to
    each modulus, minus the multiplier term from the unit-sphere
    constraint.  Moduli within one step of the orthant boundary are
    excluded, since one-sided variations would apply there.
    """
    indices = tuple(
        int(j) for j, a in enumerate(point.moduli) if step <= a <= 1.0 - step
    )
    residuals = np.array(
        [
            (f(point.moduli[j] + step) - f(point.moduli[j] - step)) / (2.0 * step)
            - 2.0 * multiplier * point.moduli[j]
            for j in indices
        ]
    )
    return StationarityResidual(multiplier, indices, residuals)


def outcome_stationarity(
    p: Callable[[np.ndarray], float],
    point: ModulusVector,
    k: int,
    multiplier: float,
    step: float = TOL.fd_step,
) -> StationarityResidual:
    """Residuals dp/da_j - 2 * multiplier * a_j for j != k.

    Partials are raw central differences in each coordinate (no projection
    back onto the sphere); the constraint enters only through the
    multiplier term.  Boundary-adjacent moduli are excluded as above.
    """
    indices = tuple(
        int(j)
        for j, a in enumerate(point.moduli)
        if j != k and step <= a <= 1.0 - step
    )
    residuals = np.empty(len(indices), dtype=np.float64)
    base = np.array(point.moduli, dtype=np.float64)
    for pos, j in enumerate(indices):
        up = base.copy()
        up[j] += step
        down = base.copy()
        down[j] -= step
        partial = (p(up) - p(down)) / (2.0 * step)
        residuals[pos] = partial - 2.0 * multiplier * base[j]
    return StationarityResidual(multiplier, indices, residuals)


def closed_form_check(point: ModulusVector, k: int, scale: float, offset: float) -> float:
    """Largest stationarity residual of the closed-form solution family.

    The Lagrange conditions are solved by f(a) = scale * a^2 + offset (sum
    form) and p(a) = scale * sum_{j != k} a_j^2 + offset (fixed-outcome form
    at k), each with its own scale as the multiplier.  Stationarity leaves
    this two-parameter family; the boundary values f(0) = 0 and f(1) = 1
    pin it to a^2.  Returns the larger residual of the two forms at point.
    """

    def outcome(values: np.ndarray) -> float:
        return scale * (values @ values - values[k] ** 2) + offset

    return max(
        rule_stationarity(Affine(scale, offset), point, scale).max_abs,
        outcome_stationarity(outcome, point, k, scale).max_abs,
    )


def power_sums(point: ModulusVector) -> np.ndarray:
    """Row [sum a_i, sum a_i^2, sum a_i^3, sum a_i^4] for one orthant point."""
    a = point.moduli
    return np.array([np.sum(a), np.sum(a**2), np.sum(a**3), np.sum(a**4)])


def fit_power_series(
    rows: np.ndarray, boundary_weight: float = 10.0
) -> tuple[PolynomialCandidate, float]:
    """Least-squares solve of sum_n c_n S_n(a) = 1 plus the f(1) = 1 row.

    The boundary condition f(1) = sum_n c_n = 1 enters as one weighted
    equation, keeping the solve a single unconstrained linear least
    squares; the true solution zeroes every residual, so the result does
    not depend on the weight.  f(0) = 0 is structural (no constant term).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError("expected an (n, 4) array of power sums")
    design = np.vstack([rows, boundary_weight * np.ones((1, 4))])
    target = np.concatenate([np.ones(rows.shape[0]), [boundary_weight]])
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 4:
        raise RankDeficient(
            f"design matrix rank {rank} < 4: sampling does not pin the coefficients"
        )
    objective = float(np.sum((design @ solution - target) ** 2))
    return PolynomialCandidate(solution), objective


def recover_rule(
    dims: Sequence[int], samples_per_dim: int, seed: int
) -> RecoveryResult:
    """Recover the unique normalizable polynomial rule from sampled states.

    For every sampled orthant point, requiring the probabilities to sum to
    one gives one linear equation in the coefficients.  The quadratic power
    sum is identically one while the others vary across samples, which
    forces the fit to (0, 1, 0, 0).
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("need at least one dimension")
    if any(d < 2 for d in dims):
        raise ValueError("dimensions must be at least 2")
    if samples_per_dim < MIN_SAMPLES:
        raise ValueError("need at least 10 samples per coefficient")

    rows = np.empty((len(dims) * samples_per_dim, 4), dtype=np.float64)
    for di, d in enumerate(dims):
        for s in range(samples_per_dim):
            point = moduli(haar_state(d, substream(seed, di, s)).amplitudes)
            rows[di * samples_per_dim + s] = power_sums(point)
    candidate, objective = fit_power_series(rows)
    return RecoveryResult(
        candidate=candidate,
        objective_value=objective,
        sample_count=rows.shape[0],
        dims_used=dims,
        seed=seed,
    )
