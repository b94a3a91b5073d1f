"""Candidate probability rules over measurement moduli, and the
normalization-defect scan that falsifies every non-quadratic one.

The family is deliberately small and closed so that reports can name rules
reproducibly: the quadratic rule, pure powers, the quadratic-affine family,
and renormalized wrappers.  Renormalized rules sum to one by construction
and therefore evade the defect scan, which draws only their witness state;
they are falsified by the invariance scans instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .quantum import ModulusVector, haar_state, moduli
from .streams import substream


class DomainError(ValueError):
    """Rule has no valid probabilities at the given moduli."""


@dataclass(frozen=True)
class Born:
    """The quadratic rule: f(a) = a^2."""

    def __call__(self, a):
        return np.square(a)

    @property
    def name(self) -> str:
        return "born"


@dataclass(frozen=True)
class Power:
    """Pure power rule f(a) = a^p with a finite exponent p > 0."""

    exponent: float

    def __post_init__(self) -> None:
        if not 0 < self.exponent < math.inf:  # also rejects nan
            raise ValueError("power rules need a finite positive exponent")

    def __call__(self, a):
        return np.power(a, self.exponent)

    @property
    def name(self) -> str:
        return f"power:{self.exponent!r}"


@dataclass(frozen=True)
class Affine:
    """Quadratic-affine rule f(a) = scale * a^2 + offset, both finite."""

    scale: float
    offset: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and math.isfinite(self.offset)):
            raise ValueError("affine rules need a finite scale and offset")

    def __call__(self, a):
        return self.scale * np.square(a) + self.offset

    @property
    def name(self) -> str:
        return f"affine:{self.scale!r}:{self.offset!r}"


PlainRule = Union[Born, Power, Affine]


@dataclass(frozen=True)
class Renormalized:
    """p_k = f(a_k) / sum_i f(a_i): normalized by construction."""

    base: PlainRule

    def __post_init__(self) -> None:
        if isinstance(self.base, Renormalized):
            raise ValueError("renormalized rules cannot be nested")

    @property
    def name(self) -> str:
        return f"renorm:{self.base.name}"

    def probabilities(self, values: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # an overflow is reported below
            raw = self.base(values)
            total = np.sum(raw, axis=-1, keepdims=True)  # not finite if any raw value is not
        if not np.all(np.isfinite(total)):
            raise DomainError("renormalization sum is not finite")
        if np.any(total <= 0.0):
            raise DomainError("renormalization sum is not positive: a base value is not positive, or the sum underflows")
        return raw / total


ProbabilityRule = Union[PlainRule, Renormalized]


def parse_rule(name: str) -> ProbabilityRule:
    """Parse "born", "power:<p>", "affine:<scale>:<offset>", "renorm:<base>"."""
    text = name.strip().lower()
    if text == "born":
        return Born()
    if text.startswith("renorm:"):
        return Renormalized(parse_rule(text[len("renorm:") :]))
    try:
        if text.startswith("power:"):
            return Power(float(text[len("power:") :]))
        if text.startswith("affine:"):
            _, scale, offset = text.split(":")
            return Affine(float(scale), float(offset))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed rule name {name!r}: {exc}") from exc
    raise ValueError(f"unknown rule name {name!r}")


def rule_probabilities(rule: ProbabilityRule, rows: np.ndarray) -> np.ndarray:
    """Apply a rule to every modulus of orthant rows (..., d).

    Plain rules are applied entrywise with no renormalization; whether the
    result sums to one is exactly what the defect scan measures.  Rows come
    validated, as ModulusVector moduli or through check_orthant; a value
    that overflows is a DomainError.
    """
    if isinstance(rule, Renormalized):
        return rule.probabilities(rows)
    with np.errstate(over="ignore"):  # an overflow is reported below
        values = np.asarray(rule(rows), dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{rule.name} is not finite at every modulus")
    return values


def normalization_sum(rule: PlainRule, rows: np.ndarray) -> np.ndarray:
    """Sum of a plain rule over each orthant row (..., d).

    A renormalized rule sums to one by construction, so it is rejected.
    """
    if isinstance(rule, Renormalized):
        raise TypeError(f"{rule.name} sums to one by construction; normalization_sum takes plain rules")
    with np.errstate(over="ignore"):  # an overflow is reported below
        sums = np.sum(rule(rows), axis=-1)  # not finite if any value is not
    if not np.all(np.isfinite(sums)):
        raise DomainError(f"the normalization sum of {rule.name} is not finite")
    return sums


@dataclass(frozen=True)
class NormalizationReport:
    """Defect statistics |sum_i f(a_i) - 1| over Haar-random states."""

    rule: str
    dim: int
    trials: int
    max_defect: float
    mean_defect: float
    argmax_state: ModulusVector
    address: tuple[int, ...]  # (seed, *address): trial i is drawn from substream(*address, i)
    defects: np.ndarray

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "dim": self.dim,
            "trials": self.trials,
            "max_defect": self.max_defect,
            "mean_defect": self.mean_defect,
            "argmax_state": self.argmax_state.moduli.tolist(),
            "address": list(self.address),
        }


def defect_scan(rule: ProbabilityRule, dim: int, trials: int, seed: int, *address: int) -> NormalizationReport:
    """Measure the normalization defect over Haar-random states.

    Trial i draws from substream(seed, *address, i), so the report is a
    deterministic function of (rule, dim, trials, seed, *address).  The
    rule is evaluated once, on the stacked moduli of every trial.  The
    worst state (the first at the maximum) is recorded as a falsification
    witness.  A renormalized rule sums to one by construction: every defect
    is 0, the witness is trial 0, and only that trial is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if isinstance(rule, Renormalized):
        points = [moduli(haar_state(dim, substream(seed, *address, 0)).amplitudes)]
        defects = np.zeros(trials)
    else:
        points = [moduli(haar_state(dim, substream(seed, *address, i)).amplitudes) for i in range(trials)]
        defects = np.abs(normalization_sum(rule, np.array([point.moduli for point in points])) - 1.0)
    worst = int(np.argmax(defects))
    return NormalizationReport(
        rule=rule.name,
        dim=dim,
        trials=trials,
        max_defect=float(defects[worst]),
        mean_defect=float(np.mean(defects)),
        argmax_state=points[worst],
        address=(seed, *address),
        defects=defects,
    )
