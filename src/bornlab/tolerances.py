"""Central record of every numerical threshold used in the package.

Keeping the thresholds in one frozen dataclass means an experiment report
can state exactly which tolerances its pass/fail verdict was checked
against, and tests never have to invent ad-hoc numbers.
"""

from __future__ import annotations

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
    random_gap: float = 1e-3         # minimum gap enforced when drawing spectra, up to d=31 (spectrum_gap)
    match_overlap: float = 1e-8      # matching needs |<v, phi>| > 1 - match_overlap

    # vectors
    zero_vector: float = 1e-12       # norms at or below this count as zero

    # experiment defaults
    defect: float = 1e-12            # normalization-defect pass threshold
    spread: float = 1e-12            # invariance-spread pass threshold
    stationarity_residual: float = 1e-6   # stationarity residuals (finite-difference floor)
    coefficient_error: float = 1e-3       # recovered-coefficient distance from (0, 1, 0, 0)
    sample_sigmas: float = 3.0       # sample's frequency band, in binomial standard deviations per cell
    fd_step: float = 1e-6            # central-difference step for rule derivatives

    def spectrum_gap(self, dim: int) -> float:
        """min(random_gap, 1/dim^2), the gap a drawn spectrum must clear; it is
        random_gap up to d=31.  dim uniform values on [-1, 1] clear a gap g
        with probability about exp(-dim^2 g / 2): 0.61 for 1/dim^2 at any dim,
        7e-15 for a fixed 1e-3 at d=256."""
        return min(self.random_gap, 1.0 / dim**2)


TOL = Tolerances()


def within(value: float, bound: float, what: str, error: type[ValueError] = ValueError) -> None:
    """Raise error("<what> <value>") unless value <= bound; nan is never within."""
    if not value <= bound:
        raise error(f"{what} {value:.3e}")
