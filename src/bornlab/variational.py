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

from typing import Callable, Sequence

import numpy as np

from .quantum import haar_states
from .rules import Affine
from .streams import blockwise
from .tolerances import TOL

MIN_SAMPLES = 10 * 4  # ten sampled rows per fitted coefficient
BOUNDARY_WEIGHT = 10.0  # weight of the f(1) = 1 row in fit_power_series


class RankDeficient(RuntimeError):
    """Sampled design matrix cannot pin the polynomial coefficients."""


def rule_stationarity(f: Callable[[np.ndarray], np.ndarray], rows: np.ndarray, multiplier: float) -> np.ndarray:
    """Residuals f'(a_j) - 2 * multiplier * a_j by central differences, (..., d).

    The derivative of the probability-normalization sum with respect to
    each modulus of each orthant row, minus the multiplier term from the
    unit-sphere constraint.  Moduli within one fd_step of the orthant
    boundary are excluded, since one-sided variations would apply there:
    their residual is 0, and f is never evaluated outside [0, 1].
    """
    step = TOL.fd_step
    rows = np.asarray(rows, dtype=np.float64)
    inside = (step <= rows) & (rows <= 1.0 - step)
    a = np.where(inside, rows, 0.5)
    residuals = (f(a + step) - f(a - step)) / (2.0 * step) - 2.0 * multiplier * a
    return np.where(inside, residuals, 0.0)


def outcome_stationarity(
    p: Callable[[np.ndarray], np.ndarray],
    rows: np.ndarray,
    ks: np.ndarray,
    multiplier: float,
) -> np.ndarray:
    """Residuals dp_k/da_j - 2 * multiplier * a_j for j != k, (..., d).

    p maps modulus arrays (..., d) to every outcome's probability (..., d);
    ks names the outcome of each row.  Partials are raw central differences
    in each coordinate (no projection back onto the sphere); the constraint
    enters only through the multiplier term.  The residual at j = k and at
    boundary-adjacent moduli is 0, as above.
    """
    step = TOL.fd_step
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[-1]
    ks = np.asarray(ks)[..., None]
    inside = (step <= rows) & (rows <= 1.0 - step) & (np.arange(d) != ks)
    shift = step * np.eye(d) * inside[..., :, None]  # copy j moves coordinate j only
    up = p(rows[..., None, :] + shift)  # (..., j, outcome)
    down = p(rows[..., None, :] - shift)
    partial = np.take_along_axis(up - down, ks[..., None], axis=-1)[..., 0] / (2.0 * step)
    return np.where(inside, partial - 2.0 * multiplier * rows, 0.0)


def closed_form_check(rows: np.ndarray, ks: np.ndarray, scale: float, offset: float) -> np.ndarray:
    """Largest stationarity residual of the closed-form solution family, per row.

    The Lagrange conditions are solved by f(a) = scale * a^2 + offset (sum
    form) and p_k(a) = scale * sum_{j != k} a_j^2 + offset (fixed-outcome
    form), each with its own scale as the multiplier.  Stationarity leaves
    this two-parameter family; the boundary values f(0) = 0 and f(1) = 1
    pin it to a^2.  Returns the larger residual of the two forms at each
    orthant row, the outcome form taken at that row's k.
    """

    def outcomes(values: np.ndarray) -> np.ndarray:
        squares = values * values
        return scale * (np.sum(squares, axis=-1, keepdims=True) - squares) + offset

    return np.maximum(
        np.max(np.abs(rule_stationarity(Affine(scale, offset), rows, scale)), axis=-1),
        np.max(np.abs(outcome_stationarity(outcomes, rows, ks, scale)), axis=-1),
    )


def power_sums(rows: np.ndarray) -> np.ndarray:
    """[sum a_i, sum a_i^2, sum a_i^3, sum a_i^4] for each orthant row, (..., 4)."""
    return np.stack([np.sum(rows**n, axis=-1) for n in (1, 2, 3, 4)], axis=-1)


def fit_power_series(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solve of sum_n c_n S_n(a) = 1 plus the f(1) = 1 row.

    Returns the coefficients (c1, c2, c3, c4) of f(x) = sum_n c_n x^n and
    the objective, the summed squared residuals of the solve.

    The boundary condition f(1) = sum_n c_n = 1 enters as one weighted
    equation, keeping the solve a single unconstrained linear least
    squares; the true solution zeroes every residual, so the result does
    not depend on the weight.  f(0) = 0 is structural (no constant term).
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError("expected an (n, 4) array of power sums")
    design = np.vstack([rows, BOUNDARY_WEIGHT * np.ones((1, 4))])
    target = np.concatenate([np.ones(rows.shape[0]), [BOUNDARY_WEIGHT]])
    solution, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 4:
        raise RankDeficient(
            f"design matrix rank {rank} < 4: sampling does not pin the coefficients"
        )
    objective = float(np.sum((design @ solution - target) ** 2))
    return solution, objective


def recover_rule(dims: Sequence[int], samples_per_dim: int, seed: int) -> tuple[np.ndarray, float, int]:
    """Recover the unique normalizable polynomial rule from sampled states.

    For every sampled orthant point, requiring the probabilities to sum to
    one gives one linear equation in the coefficients.  Point i of the
    di-th dimension comes from block substream(seed, di, i // BLOCK).  The quadratic power
    sum is identically one while the others vary across samples, which
    forces the fit to (0, 1, 0, 0).  Returns the fit_power_series result
    and the number of sampled rows.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("need at least one dimension")
    if any(d < 2 for d in dims):
        raise ValueError("dimensions must be at least 2")
    if samples_per_dim < MIN_SAMPLES:
        raise ValueError("need at least 10 samples per coefficient")

    def block_sums(d: int) -> Callable[[np.ndarray, np.random.Generator], np.ndarray]:
        return lambda index, rng: power_sums(np.abs(haar_states(d, index.size, rng)))

    rows = np.concatenate([blockwise(block_sums(d), samples_per_dim, seed, di) for di, d in enumerate(dims)])
    coefficients, objective = fit_power_series(rows)
    return coefficients, objective, rows.shape[0]
