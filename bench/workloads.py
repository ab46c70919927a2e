"""Workload inputs, closed-loop runners and output checks.

Every workload is a closed loop driven by one caller in one process: the next
operation starts when the previous one has returned.  Inputs come only from
the seed, through `cli.sample_case`, so one seed always gives one input set.

sweep_4case  `cli.main(["sweep", ...])` in process for the four cases (jmu/jw,
             with and without --weighted), SWEEP_SAMPLES samples each, default
             --grid 12 --trunc 32,64,128, CSV written to a temporary file.  One
             operation is one sweep command.
verify_n128  `cnormal.verify` at truncations (32, 64, 128) on N128_PER_CASE
             instances of each case, indices 0, 1, 2, ... so true and false
             verdicts alternate.  One operation is one call.

A pass runs every input once; a phase runs as many whole passes as fit in its
time, so every phase sees the same mix of inputs.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from cnops import cli, cnormal
from cnops.cnormal import CaseId
from cnops.conjugations import Conjugation, JWp
from cnops.moebius import LinearFractionalMap

CASES = tuple(CaseId)
GRID_N = 12
SWEEP_SAMPLES = 48
SWEEP_ARGS = {
    CaseId.COMP_JMU: ["--conj", "jmu"],
    CaseId.WEIGHTED_JMU: ["--conj", "jmu", "--weighted"],
    CaseId.COMP_JW: ["--conj", "jw"],
    CaseId.WEIGHTED_JW: ["--conj", "jw", "--weighted"],
}
N128_TRUNCATIONS = (32, 64, 128)
N128_PER_CASE = 48
# An instance satisfies its case when `cli.predicate_margin`, its relative
# distance from the case's coefficient equalities, is rounding error.
TRUE_MARGIN = 1e-9


@dataclass(frozen=True)
class Instance:
    case: CaseId
    index: int
    m: LinearFractionalMap
    conj: Conjugation
    beta: complex

    @property
    def label(self) -> str:
        return f"{self.case.value}#{self.index}"

    @property
    def margin(self) -> float:
        return float(cli.predicate_margin(self.case, self.m, self.conj))

    @property
    def expected(self) -> bool:
        """The verdict `verify` must give: the case's equalities hold."""
        return self.margin <= TRUE_MARGIN

    @property
    def sampler_error(self) -> bool:
        """`sample_case` broke its promise for this index.

        Even indices must satisfy the case exactly, odd ones miss it by a
        relative margin of at least cli.FALSE_MARGIN.  A broken promise is
        reported by the run, and the verdict is checked against `expected`,
        not against the parity.
        """
        if self.index % 2 == 0:
            return not self.expected
        return self.margin < cli.FALSE_MARGIN

    def ratios(self) -> dict:
        m = self.m
        out = {"b/d": abs(m.b / m.d), "c/d": abs(m.c / m.d)}
        if isinstance(self.conj, JWp):
            out["p"] = abs(self.conj.p)
        return out

    def describe(self) -> dict:
        return {"case": self.case.value, "index": self.index,
                "expected": self.expected, "margin": self.margin,
                "ratios": {k: round(v, 4) for k, v in self.ratios().items()}}


def draw(seed: int, case: CaseId, index: int, *key) -> Instance:
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, CASES.index(case), index, *key]))
    m, conj, beta = cli.sample_case(case, rng, index)
    return Instance(case, index, m, conj, complex(beta))


def n128_instances(seed: int) -> list:
    return [draw(seed, case, i)
            for i in range(N128_PER_CASE) for case in CASES]


@dataclass
class Op:
    seconds: float
    failure: str | None
    case: CaseId
    label: str


@dataclass
class PhaseResult:
    wall_s: float
    samples: int
    ops: list = field(default_factory=list)
    pass_s: list = field(default_factory=list)
    per_input: object = min     # the workload's `per_input` statistic

    @property
    def latencies_ms(self) -> list:
        return [op.seconds * 1e3 for op in self.ops]

    def calls_ms(self) -> dict:
        """{input label: its calls in milliseconds, one per pass, in order}."""
        calls = {}
        for op in self.ops:
            calls.setdefault(op.label, []).append(op.seconds * 1e3)
        return calls

    def input_ms(self) -> dict:
        """{input label: the workload's `per_input` statistic of its calls}."""
        return {k: self.per_input(v) for k, v in self.calls_ms().items()}

    def samples_per_s(self) -> float:
        """Samples of one pass over the sum of the inputs' times."""
        return self.samples / len(self.pass_s) / (sum(self.input_ms().values()) / 1e3)

    def latency_p50_ms(self) -> float:
        """Median input time within each case, averaged over the cases.

        J_mu calls are faster than JW_p calls, so a median over all calls can
        fall in the gap between the two groups and jump across it from run to
        run.
        """
        cases = {op.label: op.case for op in self.ops}
        by_case = {}
        for label, ms in self.input_ms().items():
            by_case.setdefault(cases[label], []).append(ms)
        return statistics.fmean(statistics.median(v) for v in by_case.values())


class VerifyWorkload:
    # A verify call runs on one thread, BLAS aside.  Load from outside the
    # process only adds time (on a shared 2-core machine the same inputs ran up
    # to 40% slower for tens of seconds at a time), so an input's fastest call
    # is its cost with the least interference.
    per_input = staticmethod(min)

    def __init__(self, instances: list, truncations: tuple):
        self.instances = instances
        self.truncations = truncations

    def check(self, inst: Instance, report) -> str | None:
        if not report.consistent:
            return "inconsistent_report"
        if report.verdict != inst.expected:
            return "wrong_verdict"
        return None

    def call(self, inst: Instance, truncations) -> Op:
        label = inst.label
        t0 = time.perf_counter()
        try:
            report = cnormal.verify(inst.case, inst.m, inst.conj, beta=inst.beta,
                                    grid_n=GRID_N, truncations=truncations)
        except Exception as exc:   # counted as a failure, never retried
            return Op(time.perf_counter() - t0, type(exc).__name__, inst.case, label)
        seconds = time.perf_counter() - t0
        return Op(seconds, self.check(inst, report), inst.case, label)

    def warm_up(self) -> list:
        """One small call per case, so lazy start-up is not timed."""
        firsts = {inst.case: inst for inst in reversed(self.instances)}
        return [self.call(inst, N128_TRUNCATIONS) for inst in firsts.values()]

    def run_pass(self) -> tuple:
        return [self.call(inst, self.truncations) for inst in self.instances], \
            len(self.instances)

    def distinct_instances(self) -> list:
        return self.instances


class SweepWorkload:
    # A sweep command runs its 8-thread pool on few cores, and how the threads
    # happen to be scheduled moves it both ways: one command took 0.65 to
    # 1.6 s within a run.  Its fastest call is an outlier; its median is not.
    per_input = staticmethod(statistics.median)

    def __init__(self, seed: int, out_dir: str, samples: int = SWEEP_SAMPLES):
        self.seed = seed
        self.out_dir = out_dir
        self.samples = samples
        self.reference = {}

    def path(self, case: CaseId) -> str:
        return os.path.join(self.out_dir, f"{case.value}-{self.samples}.csv")

    def argv(self, case: CaseId) -> list:
        return ["sweep", *SWEEP_ARGS[case], "--samples", str(self.samples),
                "--seed", str(self.seed), "--format", "csv",
                "--out", self.path(case)]

    def check(self, case: CaseId, rc: int) -> str | None:
        if rc != 0:
            return f"exit_code_{rc}"
        with open(self.path(case), "rb") as fh:
            data = fh.read()
        lines = data.decode().splitlines()
        rows = lines[1:-1]
        if (lines[0] != cli.CSV_HEADER or len(rows) != self.samples
                or not all(r.endswith(",true") for r in rows)
                or not lines[-1].startswith("# agreement_rate=1.0 ")):
            return "disagreement"
        if self.reference.setdefault(case, data) != data:
            return "csv_not_byte_identical"
        return None

    def call(self, case: CaseId) -> Op:
        label = f"sweep {case.value} samples={self.samples}"
        t0 = time.perf_counter()
        try:
            rc = cli.main(self.argv(case))
        except Exception as exc:   # counted as a failure, never retried
            return Op(time.perf_counter() - t0, type(exc).__name__, case, label)
        seconds = time.perf_counter() - t0
        return Op(seconds, self.check(case, rc), case, label)

    def warm_up(self) -> list:
        """One full round; its CSV files are the byte-identity reference."""
        return self.run_pass()[0]

    def run_pass(self) -> tuple:
        return [self.call(case) for case in CASES], self.samples * len(CASES)

    def distinct_instances(self) -> list:
        """The sweep's own draws, regenerated the way `cli.run_sweep` makes them."""
        seeds = np.random.SeedSequence(self.seed).spawn(self.samples)
        out = []
        for case in CASES:
            for i in range(self.samples):
                m, conj, beta = cli.sample_case(case, np.random.default_rng(seeds[i]), i)
                out.append(Instance(case, i, m, conj, complex(beta)))
        return out


WORKLOADS = ("sweep_4case", "verify_n128")


def make_workload(name: str, seed: int, out_dir: str):
    """The workload with its inputs generated from the seed."""
    if name == "sweep_4case":
        return SweepWorkload(seed, out_dir)
    if name == "verify_n128":
        return VerifyWorkload(n128_instances(seed), N128_TRUNCATIONS)
    raise ValueError(f"unknown workload {name!r}")


def run_phase(workload, seconds: float, between=None) -> PhaseResult:
    """As many whole passes as fit in `seconds`, and at least one.

    `between`, when given, is called after every pass, outside the pass times.
    """
    ops, samples, pass_s = [], 0, []
    t0 = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        pass_ops, pass_samples = workload.run_pass()
        ops.extend(pass_ops)
        samples += pass_samples
        pass_s.append(time.perf_counter() - p0)
        if between is not None:
            between()
        if time.perf_counter() + pass_s[-1] - t0 > seconds:
            break
    return PhaseResult(time.perf_counter() - t0, samples, ops, pass_s,
                       workload.per_input)


def excluded_pair_fraction(instances) -> float:
    """Excluded / total (w, z) pairs over the grid `kernel_residual` uses.

    Mirrors the exclusions of `cnormal.kernel_residual`: the set
    |conj(a) w - conj(c)| <= SINGULAR_RTOL * scale for the composition cases,
    and side denominators below 1e-12 * scale^2 for the weighted ones, whose
    denominators are recovered from the closed-form sides as num / side.
    """
    pts = cnormal.ring_grid(GRID_N)
    W, Z = np.meshgrid(pts, pts, indexing="ij")
    excluded = total = 0
    for inst in instances:
        m, case = inst.m, inst.case
        a, b, c, d = m.coefficients()
        total += W.size
        if case in (CaseId.COMP_JMU, CaseId.COMP_JW):
            if abs(c) > 0.0:
                excluded += int(np.count_nonzero(
                    np.abs(np.conj(a) * W - np.conj(c)) <= cnormal.SINGULAR_RTOL * m.scale))
            continue
        num = abs(inst.beta) ** 2 * abs(d) ** 2
        if case is CaseId.WEIGHTED_JMU:
            lhs, rhs = cnormal.eval_sides_weighted_jmu(m, inst.beta, inst.conj.mu, W, Z)
        else:
            num *= np.sqrt(1.0 - abs(inst.conj.p) ** 2)
            lhs, rhs = cnormal.eval_sides_weighted_jw(m, inst.beta, inst.conj.p, W, Z)
        floor = 1e-12 * m.scale ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (np.abs(num / lhs) > floor) & (np.abs(num / rhs) > floor)
        excluded += int(W.size - np.count_nonzero(ok))
    return excluded / total
