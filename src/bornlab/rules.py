"""Candidate probability rules over measurement moduli, and the
normalization-defect scan that falsifies every non-quadratic one.

Every candidate is one Rule: f(a) = sum of c * a^p over its terms, applied
to each modulus as it stands or, when renormalized, divided by its sum over
the row.  The parsed spellings name rules reproducibly: the quadratic rule,
pure powers, the quadratic-affine family, and their renormalizations.
Renormalized rules sum to one by construction and therefore evade the
defect scan, which draws only their witness state; they are falsified by
the invariance scans instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import ModulusVector, haar_scan, haar_state, moduli
from .streams import substream

# Trials from which a defect scan draws every trial from one stream (quantum.haar_scan), not a substream each:
# faster from 2 trials on (d = 5: 46 us for 8 trials, 131 us for 7 per row), and 8 keeps the per-trial draws and
# checks of every smaller scan, the renormalized witnesses and the tracer's --trials 3 pin among them.
ONE_STREAM_MIN = 8


class DomainError(ValueError):
    """Rule has no valid probabilities at the given moduli."""


@dataclass(frozen=True)
class Rule:
    """f(a) = sum of c * a^p over terms (c, p), added in order from the first.

    Calling a rule gives f.  rule_probabilities applies it: entrywise, or,
    when renormalized, as p_k = f(a_k) / sum_i f(a_i).
    """

    terms: tuple[tuple[float, float], ...]
    name: str = field(compare=False)  # a rule is its formula: equality and hashing skip the name
    renormalized: bool = False

    def __call__(self, a):
        (c, p), *rest = self.terms
        total = c * np.power(a, p)
        for c, p in rest:
            total = total + c * np.power(a, p)
        return total


def Born() -> Rule:
    """The quadratic rule: f(a) = a^2."""
    return Rule(((1.0, 2.0),), "born")


def Power(exponent: float) -> Rule:
    """Pure power rule f(a) = a^p with a finite exponent p > 0."""
    if not 0 < exponent < math.inf:  # also rejects nan
        raise ValueError("power rules need a finite positive exponent")
    return Rule(((1.0, exponent),), f"power:{exponent!r}")


def Affine(scale: float, offset: float) -> Rule:
    """Quadratic-affine rule f(a) = scale * a^2 + offset, both finite; a DomainError if it overflows on [0, 1]."""
    if not (math.isfinite(scale) and math.isfinite(offset)):
        raise ValueError("affine rules need a finite scale and offset")
    name = f"affine:{scale!r}:{offset!r}"
    if not math.isfinite(scale + offset):  # f(1): no |f| on [0, 1] is larger
        raise DomainError(f"overflows: {name} is not finite at every modulus")
    return Rule(((scale, 2.0), (offset, 0.0)), name)


def Renormalized(base: Rule) -> Rule:
    """p_k = f(a_k) / sum_i f(a_i); a base below 0 somewhere on [0, 1], or 0 on all of it, is a DomainError."""
    if base.renormalized:
        raise ValueError("renormalized rules cannot be nested")
    negative = min(base(0.0), base(1.0)) < 0.0  # every factory's base is monotone and finite on [0, 1]
    if negative:
        raise DomainError(f"has a negative base value: {base.name} is below 0 on [0, 1], "
                          "so a renormalized row could hold a negative probability")
    if max(base(0.0), base(1.0)) <= 0.0:
        raise DomainError(f"has no positive base value: {base.name} is 0 on [0, 1], so no row can be renormalized")
    return Rule(base.terms, f"renorm:{base.name}", renormalized=True)


SPELLINGS = {"born": Born, "power": Power, "affine": Affine}  # kind -> factory of its float parameters


def parse_rule(name: str) -> Rule:
    """Parse "born", "power:<p>", "affine:<scale>:<offset>" or "renorm:<one of those>"; a factory's
    DomainError and a malformed name's ValueError name the spelling."""
    *renorms, spelling = name.strip().lower().split("renorm:")
    kind, *params = spelling.strip().split(":")
    if kind not in SPELLINGS or "".join(renorms).strip():
        raise ValueError(f"unknown rule name {name!r}")
    try:
        rule = SPELLINGS[kind](*map(float, params))
        for _ in renorms:
            rule = Renormalized(rule)
    except DomainError as exc:
        raise DomainError(f"rule {name!r} {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ValueError(f"malformed rule name {name!r}: {exc}") from exc
    return rule


def rule_probabilities(rule: Rule, rows: np.ndarray) -> np.ndarray:
    """Apply a rule to every modulus of orthant rows (..., d), validated as ModulusVector
    moduli or by check_orthant.  A plain rule is applied entrywise with no renormalization:
    whether it sums to one is what the defect scan measures.  The rule's factory made it finite
    on [0, 1], and nonnegative if renormalized; a renormalization sum that overflows or is not
    positive is a DomainError.
    """
    values = np.asarray(rule(rows), dtype=np.float64)
    if not rule.renormalized:
        return values
    with np.errstate(over="ignore"):  # an overflow is reported below
        total = np.sum(values, axis=-1, keepdims=True)
    if not np.all(np.isfinite(total)):
        raise DomainError("renormalization sum is not finite")
    if np.any(total <= 0.0):
        raise DomainError("renormalization sum is not positive: a base value is not positive, or the sum underflows")
    return values / total


def normalization_sum(rule: Rule, rows: np.ndarray) -> np.ndarray:
    """Row sums (...,) of rule_probabilities over orthant rows (..., d): one,
    within rounding, for a renormalized rule.  A sum that overflows is a DomainError."""
    with np.errstate(over="ignore"):  # finite values can still sum to inf, reported below
        sums = np.sum(rule_probabilities(rule, rows), axis=-1)
    if not np.all(np.isfinite(sums)):
        raise DomainError(f"the normalization sum of {rule.name} is not finite")
    return sums


@dataclass(frozen=True)
class NormalizationReport:
    """Defect statistics |sum_i f(a_i) - 1| over Haar-random states.

    From ONE_STREAM_MIN trials on, trial i is row i of the rows drawn in turn
    from substream(*address); below it, trial i is drawn from
    substream(*address, i).  Either way the address replays the witness.
    """

    rule: str
    dim: int
    trials: int
    max_defect: float
    mean_defect: float
    argmax_state: ModulusVector
    address: tuple[int, ...]  # (seed, *address): the stream, or the prefix of each trial's stream
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


def defect_scan(rule: Rule, dim: int, trials: int, seed: int, *address: int) -> NormalizationReport:
    """Measure the normalization defect over Haar-random states.

    From ONE_STREAM_MIN trials on, the states are quantum.haar_scan rows (trial
    i is the i-th pair drawn from substream(seed, *address), so the first k
    trials are those of a k-trial scan), and one check_orthant checks their
    moduli.  Below it, trial i is moduli(haar_state(dim, substream(seed,
    *address, i))), checked alone.  Either way the report
    is a deterministic function of (rule, dim, trials, seed, *address), and
    the rule is evaluated once, on the stacked moduli.  The worst state (the
    first at the maximum) is recorded as a falsification witness.  A
    renormalized rule sums to one by construction: every defect is 0, the
    witness is trial 0, and only that trial is drawn.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    renormalized = rule.renormalized
    n = 1 if renormalized else trials
    if n >= ONE_STREAM_MIN:
        stacked = np.abs(haar_scan(dim, n, seed, *address))
        witness = lambda i: ModulusVector(stacked[i])  # only the witness row becomes a ModulusVector
    else:  # a substream and two checks per trial, as the tracer pins at --trials 3 until ROADMAP item 14
        points = [moduli(haar_state(dim, substream(seed, *address, i)).amplitudes) for i in range(n)]
        stacked = np.array([point.moduli for point in points])
        witness = points.__getitem__
    defects = np.zeros(trials) if renormalized else np.abs(normalization_sum(rule, stacked) - 1.0)
    worst = int(np.argmax(defects))
    with np.errstate(over="ignore"):  # finite defects can sum to inf: then average them scaled by the largest
        mean = float(np.mean(defects))
    if not math.isfinite(mean):
        mean = float(np.mean(defects / defects[worst])) * float(defects[worst])
    return NormalizationReport(
        rule=rule.name,
        dim=dim,
        trials=trials,
        max_defect=float(defects[worst]),
        mean_defect=mean,
        argmax_state=witness(worst),
        address=(seed, *address),
        defects=defects,
    )
