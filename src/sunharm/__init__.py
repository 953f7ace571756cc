"""Exact-arithmetic verifier for the harmonic-cocycle structure of
symmetric powers of su(n,1).

The package computes, entirely over Gaussian rationals, the joint kernel of
the symmetry and trace constraints on real-linear cocycles valued in a
symmetric power of C^{n+1} (or its dual), certifies its structure
(linearity type, grading support, symmetric-component membership,
dimension), and runs the supporting graded-operator checks as one battery
per case, ``lemma_battery``.  See the README for the CLI.
"""

from .exactfield import BACKEND_NAME, GaussianRational, I, ONE, ZERO, gq
from .linalg import ExactMatrix, kernel_basis, rank
from .sun1 import e_vec, xi_minus, xi_plus
from .symrep import RepContext, monomials, rho_matrix
from .harmonic import Cocycle, assemble_system, harmonic_kernel, polarization_cocycles
from .checks import lemma_battery, riemann_split_report
from .verify import VERSION as __version__
from .verify import lemmas_case, run_sweep, verify_case

__all__ = [
    "BACKEND_NAME",
    "Cocycle",
    "ExactMatrix",
    "GaussianRational",
    "I",
    "ONE",
    "RepContext",
    "ZERO",
    "assemble_system",
    "e_vec",
    "gq",
    "harmonic_kernel",
    "kernel_basis",
    "lemma_battery",
    "lemmas_case",
    "monomials",
    "polarization_cocycles",
    "rank",
    "rho_matrix",
    "riemann_split_report",
    "run_sweep",
    "verify_case",
    "xi_minus",
    "xi_plus",
]
