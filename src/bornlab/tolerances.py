"""Central record of every numerical threshold used in the package.

Keeping the thresholds in one frozen dataclass means an experiment report
can state exactly which tolerances its pass/fail verdict was checked
against, and tests never have to invent ad-hoc numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # construction-time invariants
    hermitian_entry: float = 1e-12   # max |M - M^dag| entry accepted as Hermitian
    unit_norm: float = 1e-12         # | sum |a_i|^2 - 1 | for state amplitudes and orthant moduli rows

    # eigensystem quality
    eigen_residual: float = 1e-10    # ||M v - w v|| per eigenpair
    orthonormality: float = 1e-10    # max |U^dag U - I| entry, for unitaries and eigenvector columns

    # observables
    degeneracy_gap: float = 1e-8     # minimum eigenvalue separation accepted
    match_overlap: float = 1e-8      # matching needs |<v, phi>| > 1 - match_overlap

    # vectors
    zero_vector: float = 1e-12       # norms at or below this count as zero

    # experiment defaults
    defect: float = 1e-12            # normalization-defect pass threshold
    spread: float = 1e-12            # invariance-spread pass threshold
    stationarity_residual: float = 1e-6   # stationarity residuals (finite-difference floor)
    coefficient_error: float = 1e-3       # recovered-coefficient distance from (0, 1, 0, 0)
    sample_sigmas: float = 6.0       # sample's run-wide level, the two-sided normal tail at this many sigmas
                                     # (2.0e-9 at 6): within_3_sigma keys mean this level (sample_p_value)
    sample_min_expected: float = 5.0  # sample pools cells until each expects this many shots
    fd_step: float = 1e-6            # central-difference step for rule derivatives

    @property
    def sample_alpha(self) -> float:
        """sample's run-wide false-alarm rate, erfc(sample_sigmas / sqrt 2)."""
        return math.erfc(self.sample_sigmas / math.sqrt(2.0))

    def sample_p_value(self, pairs: int) -> float:
        """The smallest chi-square p-value a pair of sample passes at, 1 - (1 - alpha)^(1/pairs)
        with alpha = sample_alpha: a correct sampler fails any of `pairs` independent pairs
        with probability alpha (Sidak 1967, JASA 62, 626)."""
        return -math.expm1(math.log1p(-self.sample_alpha) / pairs)


TOL = Tolerances()


def within(value: float, bound: float, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise error("<what> <value>") unless value <= bound; nan is never within."""
    if not value <= bound:
        raise error(f"{what} {value:.3e}")
