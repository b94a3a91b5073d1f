"""Numerical experiments on probability rules for quantum measurement.

The package measures what singles out the quadratic rule |<phi_k|psi>|^2:
every other single-modulus rule fails to normalize across states, every
renormalized rule leaks dependence on the unobserved part of the basis,
and a least-squares fit over polynomial candidates lands back on the
square.  All experiments are seeded and reproduce byte-identically.
Names are imported from their module: ``bornlab.rules.defect_scan``, ...
"""

# kept at the root because perfbench/tests/test_tracing.py reads bornlab.substream
from .streams import substream

__version__ = "0.1.0"
