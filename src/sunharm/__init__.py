"""Exact-arithmetic verifier for the harmonic-cocycle structure of
symmetric powers of su(n,1).

The package computes, entirely over Gaussian rationals, the joint kernel of
the symmetry and trace constraints on real-linear cocycles valued in a
symmetric power of C^{n+1} (or its dual), certifies its structure
(linearity type, grading support, isotypic membership, dimension), and runs
the supporting graded-operator checks.  See the README for the CLI.
"""

__version__ = "0.1.0"

from .exactfield import BACKEND_NAME, GaussianRational, I, ONE, ZERO, gq
from .linalg import ExactMatrix, det, dump_text, kernel_basis, rank, rref
from .sun1 import (
    LieElement,
    adjoint_on_p_plus,
    bracket,
    canonical_weight,
    e_vec,
    embed_k,
    h0,
    j_form,
    unitary_corpus,
    xi,
    xi_minus,
    xi_plus,
)
from .symrep import (
    DualSymTensor,
    RepContext,
    SymTensor,
    inner,
    k_group_action,
    monomials,
    pair,
    power_of_vector,
    project_grade,
    rho_apply,
    rho_matrix,
)
from .harmonic import (
    Cocycle,
    TwoForm,
    assemble_system,
    classify,
    harmonic_kernel,
    kernel_is_invariant,
    minus_part,
    plus_part,
    polarization_cocycles,
    symmetric_component_membership,
    t_op,
    transform_cocycle,
    tstar_op,
)
from .checks import (
    check_contraction_isometry,
    check_dual_symmetry,
    check_operator_grading,
    check_symmetric_forcing,
    lemma_battery,
    riemann_split_report,
)
from .verify import lemmas_case, run_sweep, verify_case

__all__ = [
    "BACKEND_NAME",
    "Cocycle",
    "DualSymTensor",
    "ExactMatrix",
    "GaussianRational",
    "I",
    "LieElement",
    "ONE",
    "RepContext",
    "SymTensor",
    "TwoForm",
    "ZERO",
    "adjoint_on_p_plus",
    "assemble_system",
    "bracket",
    "canonical_weight",
    "check_contraction_isometry",
    "check_dual_symmetry",
    "check_operator_grading",
    "check_symmetric_forcing",
    "classify",
    "det",
    "dump_text",
    "e_vec",
    "embed_k",
    "gq",
    "h0",
    "harmonic_kernel",
    "inner",
    "j_form",
    "k_group_action",
    "kernel_basis",
    "kernel_is_invariant",
    "lemma_battery",
    "lemmas_case",
    "minus_part",
    "monomials",
    "pair",
    "plus_part",
    "polarization_cocycles",
    "power_of_vector",
    "project_grade",
    "rank",
    "rho_apply",
    "rho_matrix",
    "riemann_split_report",
    "rref",
    "run_sweep",
    "symmetric_component_membership",
    "t_op",
    "transform_cocycle",
    "tstar_op",
    "unitary_corpus",
    "verify_case",
    "xi",
    "xi_minus",
    "xi_plus",
]
