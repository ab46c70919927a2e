"""Acceptance gate: every shipped claim, at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with `pytest -s`
or on failure).  Criterion 7b is expected to fail and is kept failing on
purpose: it asserts that unitary weighted composition operators are NOT
JW-normal, but a unitary W has W*W = WW* = I, so C W*W C = C^2 = I = WW*
for EVERY conjugation C; the oracles and the coefficient conditions all
confirm JW-normality (the four denominator quadruples coincide identically).
The check is retained verbatim rather than weakened.
"""

import numpy as np
import pytest

from conftest import random_self_map
from cnops import cnormal
from cnops.cli import run_sweep
from cnops.cnormal import (
    CaseId,
    case_predicate,
    kernel_residual,
    verify,
)
from cnops.conjugations import JMu, JWp
from cnops.moebius import LinearFractionalMap, lft_is_self_map
from cnops.operators import composition_matrix
from reference import (
    adjoint_via_cowen,
    conj_axiom_residuals,
    hermitian_family,
    hermitian_jw_solved_p,
    lft_eval,
    predicate_hermitian_jmu,
    predicate_hermitian_jw,
    predicate_normal_bdyfix,
    predicate_normal_bdyfix_jw_dsq_variant,
    predicate_unitary_wco,
    rescaled,
    weighted_jw_quadruples,
)

SEED = 20250808


def report(num: str, ok: bool, label: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {label}")
    return ok


def unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def unitary_family(q, gamma1):
    return LinearFractionalMap(-gamma1, gamma1 * q, -np.conj(q), 1.0)


# --------------------------------------------------------------------------

def test_criterion_1_conjugation_axioms():
    """JMu residuals < 1e-13 at N=64; JWp (|p| <= 0.7) < 1e-8 at N=128, decreasing."""
    rng = np.random.default_rng(SEED)
    ok = True
    for _ in range(20):
        inv, anti = conj_axiom_residuals(JMu(unimodular(rng)), 64, 8, rng=rng)
        ok &= inv < 1e-13 and anti < 1e-13
    for _ in range(20):
        p = rng.uniform(0.42, 0.7) * unimodular(rng)
        spec = JWp(p)
        r64 = conj_axiom_residuals(spec, 64, 8, rng=np.random.default_rng(1))
        r128 = conj_axiom_residuals(spec, 128, 8, rng=np.random.default_rng(1))
        ok &= r128[0] < 1e-8 and r128[1] < 1e-8
        ok &= max(r128) < max(r64)
    assert report("1", ok, "conjugation axiom residuals")


def test_criterion_2_cowen_cross_check():
    """50 random self-maps, |c/d| <= 0.5: 16x16 block of the adjoint routes < 1e-8."""
    rng = np.random.default_rng(SEED + 1)
    ok, count = True, 0
    while count < 50:
        m = random_self_map(rng, max_offset=0.6)
        if abs(m.c / m.d) > 0.5:
            continue
        count += 1
        diff = adjoint_via_cowen(m, 128) - composition_matrix(m, 128).conj().T
        ok &= np.abs(diff[:16, :16]).max() < 1e-8
    assert report("2", ok, "Cowen adjoint vs conjugate-transpose at N=128")


def test_criterion_3_comp_jmu_dichotomy():
    """500-sample sweep: verdict(b=c=0) <=> kernel dichotomy; true-case matrix
    residual at N=64 below 1e-10."""
    reports, agreement = run_sweep(CaseId.COMP_JMU, 500, SEED + 2,
                                   truncations=(64,))
    ok = agreement == 1.0
    for r in reports:
        if r.verdict:
            ok &= r.matrix_residuals[0][1] < 1e-10
    assert report("3", ok, "composition/JMu predicate-oracle agreement, 500 samples")


def test_criterion_4_comp_jw():
    """Rotations pass at N=128; 200 maps with |phi(0)| >= 0.05 fail; 100 maps
    with phi(0) = 0, |a/d| <= 0.95 fail."""
    rng = np.random.default_rng(SEED + 3)
    ok = True
    for _ in range(20):
        m = LinearFractionalMap(unimodular(rng), 0, 0, 1)
        conj = JWp(rng.uniform(0.1, 0.35) * unimodular(rng))
        r = verify(CaseId.COMP_JW, m, conj, truncations=(128,))
        ok &= r.verdict and r.consistent and r.matrix_residuals[0][1] < 1e-8
    count = 0
    while count < 200:
        m = random_self_map(rng)
        if abs(lft_eval(m, 0.0)) < 0.05:
            continue
        count += 1
        p = rng.uniform(0.1, 0.6) * unimodular(rng)
        ok &= not case_predicate(CaseId.COMP_JW, m, JWp(p))
        ok &= kernel_residual(CaseId.COMP_JW, m, JWp(p)) > 1e-7
    count = 0
    while count < 100:
        alpha = rng.uniform(0.1, 0.95) * unimodular(rng)
        c = rng.uniform(0.0, min(0.4, 0.95 - abs(alpha))) * unimodular(rng)
        m = LinearFractionalMap(alpha, 0.0, c, 1.0)
        if not lft_is_self_map(m) or abs(m.a / m.d) > 0.95:
            continue
        count += 1
        p = rng.uniform(0.1, 0.6) * unimodular(rng)
        ok &= not case_predicate(CaseId.COMP_JW, m, JWp(p))
        ok &= kernel_residual(CaseId.COMP_JW, m, JWp(p)) > 1e-7
    assert report("4", ok, "composition/JW isometry dichotomy")


def test_criterion_5_weighted_jmu_sweep():
    """500-sample (m, mu) sweep with the canonical weight: 100% agreement.
    Both residuals of W scale as |beta|^2, so on every fifth draw verify at
    3 beta gives the same verdict and consistency flag and, where either
    kernel residual exceeds 1e-12, 9 times the one at beta to within 1e-12
    relative (3 is no power of two: verify rescales it by s = 4)."""
    reports, agreement = run_sweep(CaseId.WEIGHTED_JMU, 500, SEED + 4,
                                   truncations=(32,))
    ok = agreement == 1.0
    for r in reports[::5]:
        m = LinearFractionalMap(*(complex(*x) for x in r.params["map"]))
        mu, beta = (complex(*x) for x in (r.params["conjugation"]["mu"], r.params["beta"]))
        r3 = verify(CaseId.WEIGHTED_JMU, m, JMu(mu), beta=3 * beta, truncations=(32,))
        ok &= (r3.verdict, r3.consistent) == (r.verdict, r.consistent)
        want, got = 9 * r.kernel_residual, r3.kernel_residual
        if max(r.kernel_residual, got) > 1e-12:
            ok &= abs(got - want) <= 1e-12 * max(want, got)
    assert report("5", ok, "weighted/JMu predicate-oracle agreement and |beta|^2 "
                           "scaling, 500 samples")


def test_criterion_6_weighted_jw():
    """Quadruple-equality predicate == closed-form predicate on 1000 draws
    (tolerance 1e-10); margin-sampled sweep agrees 100%."""
    rng = np.random.default_rng(SEED + 5)
    ok = True
    for i in range(1000):
        if i % 4 == 0:   # constructed true instances among the draws
            a0 = rng.uniform(0.05, 0.4)
            a1 = rng.uniform(-0.3, 0.4)
            m = hermitian_family(a0, a1)
            a = a1 - a0 ** 2
            p = 2 * a0 / (1 - a)
            if not (lft_is_self_map(m) and 0 < p < 1):
                continue
        else:
            m = random_self_map(rng)
            p = rng.uniform(0.05, 0.9) * unimodular(rng)
        quad_equal = weighted_jw_quadruples(m, p).max_difference() <= 1e-10 * m.scale ** 2
        ok &= quad_equal == case_predicate(CaseId.WEIGHTED_JW, m, JWp(p))
    reports, agreement = run_sweep(CaseId.WEIGHTED_JW, 300, SEED + 6,
                                   truncations=(32,))
    ok &= agreement == 1.0
    assert report("6", ok, "weighted/JW quadruples vs closed form vs oracle")


def test_criterion_7a_unitary_family_jmu():
    """50 random (q, gamma1, gamma2, mu): unitary, JMu-normal, residual < 1e-12."""
    rng = np.random.default_rng(SEED + 7)
    ok = True
    for _ in range(50):
        q = rng.uniform(0.0, 0.8) * unimodular(rng)
        gamma1, gamma2, mu = (unimodular(rng) for _ in range(3))
        m = unitary_family(q, gamma1)
        beta = gamma2 * np.sqrt(1 - abs(q) ** 2)
        ok &= predicate_unitary_wco(m, gamma1 * np.exp(0j), q)
        ok &= case_predicate(CaseId.WEIGHTED_JMU, m, JMu(mu))
        ok &= kernel_residual(CaseId.WEIGHTED_JMU, m, JMu(mu), beta=beta) < 1e-12
    assert report("7a", ok, "unitary family is JMu-normal")


def test_criterion_7b_unitary_family_jw():
    """Claimed: every unitary-family instance fails JW-normality for every p.

    KNOWN RED.  The claim is mathematically impossible: a unitary W satisfies
    W*W = WW* = I, hence C W*W C = C^2 = I = WW* for every conjugation C, and
    indeed the four quadruple coefficients coincide identically for these
    symbols (the kernel residual is exactly zero).  The assertions below
    encode the original claim verbatim instead of weakening it; they fail on
    the first instance and are expected to keep failing.
    """
    rng = np.random.default_rng(SEED + 8)
    ok = True
    for _ in range(50):
        q = rng.uniform(0.0, 0.8) * unimodular(rng)
        m = unitary_family(q, unimodular(rng))
        beta = unimodular(rng) * np.sqrt(1 - abs(q) ** 2)
        for _ in range(20):
            p = rng.uniform(0.05, 0.9) * unimodular(rng)
            ok &= not case_predicate(CaseId.WEIGHTED_JW, m, JWp(p))
            ok &= kernel_residual(CaseId.WEIGHTED_JW, m, JWp(p), beta=beta) > 1e-7
        if not ok:
            break
    assert report("7b", ok, "unitary family claimed to fail JW-normality"), (
        "unattainable by design: unitary operators are C-normal for every "
        "conjugation, so JW-normality cannot fail here (see docstring)")


def test_criterion_7c_hermitian_agreement():
    """Family-form predicates match the generic weighted ones on 200 draws."""
    rng = np.random.default_rng(SEED + 9)
    ok, count = True, 0
    while count < 200:
        a0 = rng.uniform(0.0, 0.5) * unimodular(rng)
        a1 = rng.uniform(-0.45, 0.55)
        m = hermitian_family(a0, a1)
        if not lft_is_self_map(m):
            continue
        count += 1
        mu = unimodular(rng)
        p = rng.uniform(0.05, 0.9) * unimodular(rng)
        if count % 5 == 0 and abs(a0.imag) < 1e-12 and a0.real > 0.01:
            # include exactly-solvable JW instances among the draws
            try:
                p = hermitian_jw_solved_p(a0.real, a1)
            except ValueError:
                pass
        ok &= (predicate_hermitian_jmu(a0, a1, mu)
               == case_predicate(CaseId.WEIGHTED_JMU, m, JMu(mu)))
        ok &= (predicate_hermitian_jw(a0, a1, p)
               == case_predicate(CaseId.WEIGHTED_JW, m, JWp(p)))
    assert report("7c", ok, "Hermitian family predicates agree with generic ones")


def _residuals_agree(r1: float, r2: float) -> bool:
    """Equal to 1e-10 relative, or both at rounding level (<= 1e-13)."""
    return abs(r1 - r2) <= 1e-10 * max(r1, r2) or max(r1, r2) <= 1e-13


def test_criterion_8_scale_invariance():
    """Verdicts unchanged and kernel residuals equal to 1e-10 relative under
    coefficient rescaling with 0.1 <= |t| <= 10, and verify's verdict,
    consistency and kernel residual unchanged at |t| = 1e+-78, 1e+-100,
    1e+-150, 1e+-200 and 1e+-300, each with a random phase."""
    rng = np.random.default_rng(SEED + 10)
    ok = True
    instances = [
        (CaseId.COMP_JMU, LinearFractionalMap(0.7, 0, 0, 1), JMu(1j), 1.0),
        (CaseId.COMP_JMU, random_self_map(rng), JMu(unimodular(rng)), 1.0),
        (CaseId.COMP_JW, LinearFractionalMap(np.exp(0.7j), 0, 0, 1), JWp(0.4), 1.0),
        (CaseId.COMP_JW, random_self_map(rng), JWp(0.3 + 0.2j), 1.0),
        (CaseId.WEIGHTED_JMU, LinearFractionalMap(0.5, 0.25, 0.25, 1), JMu(-1.0), 1.0),
        (CaseId.WEIGHTED_JMU, random_self_map(rng), JMu(unimodular(rng)),
         0.7 * unimodular(rng)),
        (CaseId.WEIGHTED_JW, hermitian_family(0.3, 0.2),
         JWp(hermitian_jw_solved_p(0.3, 0.2)), 1.0),
        (CaseId.WEIGHTED_JW, random_self_map(rng), JWp(0.5 * unimodular(rng)), 1.0),
    ]
    for case, m, conj, beta in instances:
        base_verdict = case_predicate(case, m, conj)
        base_res = kernel_residual(case, m, conj, beta=beta)
        for _ in range(8):
            t = rng.uniform(0.1, 10.0) * unimodular(rng)
            mt = rescaled(m, t)
            ok &= case_predicate(case, mt, conj) == base_verdict
            ok &= _residuals_agree(kernel_residual(case, mt, conj, beta=beta), base_res)
    for sizes in ((1e78, 1e100, 1e150, 1e-78, 1e-100, 1e-150),
                  (1e200, 1e300, 1e-200, 1e-300)):
        for case, m, conj, beta in instances:
            base = verify(case, m, conj, beta=beta)
            for size in sizes:
                rep = verify(case, rescaled(m, size * unimodular(rng)), conj, beta=beta)
                ok &= (rep.verdict, rep.consistent) == (base.verdict, base.consistent)
                ok &= _residuals_agree(rep.kernel_residual, base.kernel_residual)
    assert report("8", ok, "predicates and residuals are rescaling-invariant")


def _normal_family_map(rng) -> LinearFractionalMap:
    """Self-maps with |b| = |c| and a boundary fixed point."""
    kind = rng.integers(3)
    if kind == 0:
        # parabolic half-plane translation: (2-mu, mu, -mu, 2+mu), Re mu >= 0
        mu = rng.uniform(0.1, 1.5) * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2))
        return LinearFractionalMap(2 - mu, mu, -mu, 2 + mu)
    if kind == 1:
        # rotated symmetric automorphism fixing a random zeta
        zeta = unimodular(rng)
        b = rng.uniform(0.1, 0.8)
        return LinearFractionalMap(1.0, b * zeta, b * np.conj(zeta), 1.0)
    a0 = rng.uniform(0.05, 0.45)
    return hermitian_family(a0, (1 - a0) ** 2)


def test_criterion_9_cross_term_regression():
    """On 100 normal-family maps the b dbar cross-term matches the generic
    second condition; the |d|^2 variant disagrees on at least one sample."""
    rng = np.random.default_rng(SEED + 11)
    ok = True
    disagreements = 0
    samples = []
    for _ in range(97):
        samples.append((_normal_family_map(rng),
                        rng.uniform(0.05, 0.9) * unimodular(rng)))
    # constructed true instances: boundary-fixed Hermitian maps with p on the
    # circle |p|^2 = Re p solving the condition
    for a0, p in ((0.3, 0.8 + 0.4j), (0.2, 0.5 + 0.5j), (0.45, 0.9 + 0.3j)):
        samples.append((hermitian_family(a0, (1 - a0) ** 2), p))
    assert len(samples) == 100
    for m, p in samples:
        derived = predicate_normal_bdyfix(m, p, "jw")
        ok &= derived == case_predicate(CaseId.WEIGHTED_JW, m, JWp(p))
        if derived != predicate_normal_bdyfix_jw_dsq_variant(m, p):
            disagreements += 1
    ok &= disagreements >= 1
    assert report("9", ok, f"cross-term regression ({disagreements} variant disagreements)")
