"""Exact-arithmetic verifier for the harmonic-cocycle structure of
symmetric powers of su(n,1).

The package computes, entirely over Gaussian rationals, the joint kernel of
the symmetry and trace constraints on real-linear cocycles valued in a
symmetric power of C^{n+1} (or its dual), certifies its structure
(linearity type, grading support, symmetric-component membership,
dimension), and runs the supporting graded-operator checks as one battery
per case, ``lemma_battery``.  See the README for the CLI.  It exports what
the certifier runs: the complex tangents are matrix units built in
``harmonic``, and the general complex directions xi_plus(v), xi_minus(v)
and the matrix of rho on a whole symmetric power live with the tests'
references.
"""

from .exactfield import BACKEND_NAME, GaussianRational, ONE, ZERO, gq
from .linalg import ExactMatrix, kernel_basis, rank
from .symrep import RepContext, monomials
from .harmonic import Cocycle, assemble_system, harmonic_kernel, polarization_cocycles
from .checks import lemma_battery, riemann_split_report
from .verify import VERSION as __version__
from .verify import lemmas_case, run_sweep, verify_case

__all__ = [
    "BACKEND_NAME",
    "Cocycle",
    "ExactMatrix",
    "GaussianRational",
    "ONE",
    "RepContext",
    "ZERO",
    "assemble_system",
    "gq",
    "harmonic_kernel",
    "kernel_basis",
    "lemma_battery",
    "lemmas_case",
    "monomials",
    "polarization_cocycles",
    "rank",
    "riemann_split_report",
    "run_sweep",
    "verify_case",
]
