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
    unitary_entry: float = 1e-10     # max |U^dag U - I| entry accepted as unitary
    state_norm: float = 1e-12        # | sum |amp|^2 - 1 | for state vectors
    orthant_norm: float = 1e-12      # | sum a_i^2 - 1 | for modulus vectors

    # eigensystem quality
    eigen_residual: float = 1e-10    # ||M v - w v|| per eigenpair
    orthonormality: float = 1e-10    # max |V^dag V - I| entry
    reconstruction: float = 1e-9     # max |V diag(w) V^dag - M| entry

    # observables
    degeneracy_gap: float = 1e-8     # minimum eigenvalue separation accepted
    random_gap: float = 1e-3         # minimum gap enforced when drawing spectra
    match_overlap: float = 1e-8      # matching needs |<v, phi>| > 1 - match_overlap

    # vectors
    zero_vector: float = 1e-12       # norms at or below this count as zero
    parallel_skip: float = 1e-8      # Gram-Schmidt residual below this is skipped

    # experiment defaults
    defect: float = 1e-12            # normalization-defect pass threshold
    spread: float = 1e-12            # invariance-spread pass threshold
    stationarity_residual: float = 1e-6   # stationarity residuals (finite-difference floor)
    closed_form_deviation: float = 1e-15  # closed-form identity deviation
    coefficient_error: float = 1e-3       # recovered-coefficient distance from (0, 1, 0, 0)
    fd_step: float = 1e-6            # central-difference step for rule derivatives


TOL = Tolerances()
