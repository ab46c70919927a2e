"""Per-layer figures from the traced run.

Most figures come from the spans of the traced workload loop.  A figure the
loop cannot give (a function the workload never calls, a truncation size it
never builds) comes from the layer probe that closes every traced run: the
matrix builders of `verify` called directly, one at a time, at every N in
PROBE_TRUNCATIONS on two false weighted JW_p instances (one whose composition
matrix underflows before N = 512, one where nothing does), then a small
four-case sweep through `cli.main` for the cli figures.  The run's
record lists which figures came from the probe.  In sweep_4case the loop's
spans run on the sweep's pool threads, so their times include waits for the
GIL and for BLAS.

Figures labelled "computed" are derived from sizes, not measured: the flops
of `cnormal_residual_matrix` (four complex N x N products, 8 real flops per
complex multiply-add, so 32 N^3) and the bytes of its two N x N complex
operands.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from cnops import operators
from cnops.cnormal import CaseId

import workloads
from spans import LAYERS, TAGGED, self_times

PROBE_TRUNCATIONS = (32, 64, 128, 256, 512)
PROBE_SWEEP_SAMPLES = 8
UNDER_MAX = 0.25
CLEAN_MIN = 0.5
MAX_DRAWS = 20000


def residual_flops(n: int) -> int:
    return 32 * n ** 3


def residual_operand_bytes(n: int) -> int:
    return 2 * 16 * n * n


def subnormal_entries(T: np.ndarray) -> int:
    """Entries of T with a subnormal real or imaginary part (an exact count)."""
    tiny = np.finfo(float).tiny
    re, im = [(x != 0) & (np.abs(x) < tiny) for x in (T.real, T.imag)]
    return int(np.count_nonzero(re | im))


def probe_instances(seed: int) -> list:
    """Two false weighted JW_p instances drawn from the seed.

    Time at N = 512 is set by floating-point underflow: a geometric series
    with ratio r passes through the subnormal range (about 1e-308 to 1e-324,
    where x86 arithmetic is very slow) before degree 512 when r <= 0.25.  The
    composition matrix follows the ratios |b/d| and |c/d| of phi, the JW_p
    matrix the ratio |p|.  The first instance has a phi ratio <= UNDER_MAX,
    the second none below CLEAN_MIN; both have |p| >= CLEAN_MIN.
    """
    found = {}
    for k in range(MAX_DRAWS):
        inst = workloads.draw(seed, CaseId.WEIGHTED_JW, 2 * k + 1, 512)
        r = inst.ratios()
        phi = min((v for key, v in r.items() if key != "p" and v > 1e-12), default=1.0)
        if r["p"] >= CLEAN_MIN:
            if phi <= UNDER_MAX:
                found.setdefault("under_phi", inst)
            elif phi >= CLEAN_MIN:
                found.setdefault("clean", inst)
        if len(found) == 2:
            return [found["under_phi"], found["clean"]]
    raise RuntimeError(f"no probe instances in {MAX_DRAWS} draws")


def probe_builders(seed: int) -> dict:
    """The matrix part of `verify` at every probe N; {N: subnormal entries of T}."""
    subnormal = defaultdict(int)
    for inst in probe_instances(seed):
        for n in PROBE_TRUNCATIONS:
            psi = operators.canonical_weight_series(inst.m, inst.beta, n)
            T = operators.weighted_composition_matrix(psi, inst.m, n)
            C = operators.conjugation_operator(inst.conj, n)
            keep = operators.stable_keep(n, m=inst.m, C=inst.conj)
            operators.cnormal_residual_matrix(T, C, keep)
            subnormal[n] += subnormal_entries(T)
    return dict(subnormal)


def probe_sweep(seed: int, out_dir: str) -> list:
    """One small four-case sweep; returns its checked operations."""
    return workloads.SweepWorkload(seed, out_dir, samples=PROBE_SWEEP_SAMPLES).run_pass()[0]


def span_metrics(spans, samples: int) -> dict:
    """Figures from one list of spans; keys only for what the spans show."""
    own = self_times(spans)
    by_name = defaultdict(list)
    by_n = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
        if span[1] in TAGGED:
            by_n[(span[1], span[6][0])].append(span)

    def ms(group):
        return statistics.median((s[3] - s[2]) * 1e3 for s in group)

    out = {}
    verifies = len(by_name["cnormal.verify"])
    sweeps = by_name["cli.run_sweep"]
    if sweeps:
        ids = {s[0] for s in sweeps}
        wall = sum(s[3] - s[2] for s in sweeps)
        out["cli.run_sweep.ms"] = ms(sweeps)
        out["cli.run_sweep.cpu_per_wall"] = sum(s[7] for s in sweeps) / wall
        out["cli.run_sweep.span_sum_over_wall"] = sum(
            s[3] - s[2] for s in by_name["cnormal.verify"] if s[4] in ids) / wall
    for name, key, scale in (("cli.sample_case", "ms", 1.0),
                             ("cnormal.case_predicate", "us", 1e3),
                             ("cnormal.kernel_residual", "ms", 1.0),
                             ("moebius.lft_is_self_map", "ms", 1.0),
                             ("hardy.series_multiply", "ms", 1.0),
                             ("hardy.lft_power_series", "ms", 1.0),
                             ("operators.stable_keep", "ms", 1.0)):
        if by_name[name]:
            out[f"{name}.{key}"] = ms(by_name[name]) * scale
    if by_name["cnormal.verify"]:
        out["cnormal.verify.self_ms"] = statistics.median(
            own[s[0]] * 1e3 for s in by_name["cnormal.verify"])
    if samples:
        out["cnormal.kernel_residual.calls_per_sample"] = \
            len(by_name["cnormal.kernel_residual"]) / samples
    if verifies:
        for name in ("moebius.lft_is_self_map", "moebius.boundary_derivative_sup",
                     "hardy.series_multiply"):
            out[f"{name}.calls_per_verify"] = len(by_name[name]) / verifies
    for (name, n), group in by_n.items():
        out[f"{name}.N{n}.ms"] = ms(group)
        if name == "operators.cnormal_residual_matrix":
            out[f"{name}.N{n}.gflops"] = residual_flops(n) / (ms(group) * 1e-3) / 1e9
            out[f"operators.useful_block_fraction.N{n}"] = statistics.median(
                (s[6][1] / n) ** 2 for s in group)
    if samples:
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        for span in spans:
            layer = span[1].split(".", 1)[0]
            layer_self[layer] += own[span[0]]
            layer_calls[layer] += 1
        total = sum(layer_self.values())
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms_per_sample"] = layer_self[layer] * 1e3 / samples
            out[f"layer.{layer}.calls_per_sample"] = layer_calls[layer] / samples
            out[f"layer.{layer}.self_share"] = layer_self[layer] / total
    return out
