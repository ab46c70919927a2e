"""Conjugation-normality of composition operators on the Hardy space.

For a conjugation C (an antilinear, involutive isometry) an operator T is
C-normal when C T* T C = T T*.  This package decides and cross-verifies that
property for composition operators C_phi and weighted composition operators
W = T_{beta K_{sigma(0)}} C_phi with linear fractional symbols, against the
two conjugation families J_mu and J W_{xi_p, tau_p}:

  * coefficient predicates (exact, scale-invariant),
  * a closed-form kernel-identity oracle on a disk grid,
  * a matrix-truncation oracle in the monomial basis.
"""

from .cnormal import (
    CaseId,
    VerificationReport,
    case_predicate,
    eval_sides_weighted_jmu,
    eval_sides_weighted_jw,
    kernel_residual,
    predicate_margin,
    verify,
)
from .conjugations import JMu, JWp, conj_apply_kernel
from .moebius import LinearFractionalMap, adjoint_symbol

__all__ = [
    "CaseId",
    "JMu",
    "JWp",
    "LinearFractionalMap",
    "VerificationReport",
    "adjoint_symbol",
    "case_predicate",
    "conj_apply_kernel",
    "eval_sides_weighted_jmu",
    "eval_sides_weighted_jw",
    "kernel_residual",
    "predicate_margin",
    "verify",
]

__version__ = "0.1.0"
