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
    eval_sides_comp_jmu,
    eval_sides_comp_jw,
    eval_sides_weighted_jmu,
    eval_sides_weighted_jw,
    kernel_residual,
    predicate_comp_jmu,
    predicate_comp_jw,
    predicate_hermitian_jmu,
    predicate_hermitian_jw,
    predicate_margin,
    predicate_normal_bdyfix,
    predicate_unitary_wco,
    predicate_weighted_jmu,
    predicate_weighted_jw,
    verify,
)
from .conjugations import JMu, JWp, conj_apply_kernel
from .moebius import CowenTriple, LinearFractionalMap, cowen_triple

__all__ = [
    "CaseId",
    "CowenTriple",
    "JMu",
    "JWp",
    "LinearFractionalMap",
    "VerificationReport",
    "conj_apply_kernel",
    "cowen_triple",
    "eval_sides_comp_jmu",
    "eval_sides_comp_jw",
    "eval_sides_weighted_jmu",
    "eval_sides_weighted_jw",
    "kernel_residual",
    "predicate_comp_jmu",
    "predicate_comp_jw",
    "predicate_hermitian_jmu",
    "predicate_hermitian_jw",
    "predicate_margin",
    "predicate_normal_bdyfix",
    "predicate_unitary_wco",
    "predicate_weighted_jmu",
    "predicate_weighted_jw",
    "verify",
]

__version__ = "0.1.0"
