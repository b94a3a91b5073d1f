"""Numerical experiments on probability rules for quantum measurement.

The package measures what singles out the quadratic rule |<phi_k|psi>|^2:
every other single-modulus rule fails to normalize across states, every
renormalized rule leaks dependence on the unobserved part of the basis,
and a least-squares fit over polynomial candidates lands back on the
square.  All experiments are seeded and reproduce byte-identically.
"""

from .invariance import (
    ComplementPoint,
    IndexOutOfRange,
    InvarianceReport,
    complement_rotation,
    match_eigenvector,
    observable_independence_scan,
    observable_with_eigenstate,
    unobserved_independence_scan,
)
from .linalg import (
    ComplexMatrix,
    Eigensystem,
    HermitianMatrix,
    UnitaryMatrix,
    ZeroVector,
    complete_basis,
    eigendecompose,
    haar_unitary,
)
from .quantum import (
    DimMismatch,
    MeasurementRecord,
    ModulusVector,
    NotNormalized,
    Observable,
    StateVector,
    born_probabilities,
    expand,
    haar_state,
    measure,
    moduli,
    probabilities,
    random_observable,
    sample_outcomes,
    spin1_jx2_minus_jy2,
    spin1_jz,
)
from .rules import (
    Affine,
    Born,
    DomainError,
    NormalizationReport,
    Power,
    ProbabilityRule,
    Renormalized,
    defect_scan,
    normalization_sum,
    parse_rule,
    rule_probabilities,
)
from .streams import subseed, substream
from .tolerances import TOL, Tolerances
from .variational import (
    ClosedFormCheck,
    PolynomialCandidate,
    RankDeficient,
    RecoveryResult,
    StationarityResidual,
    closed_form_check,
    fit_power_series,
    outcome_stationarity,
    recover_rule,
    rule_stationarity,
)

__version__ = "0.1.0"
