"""Command-line surface: classify, verify, sweep.

classify  --map a,b,c,d --conj jmu:<c>|jw:<c> [--weighted] [--beta c]
          prints the predicate verdict as JSON; exit 0, or 2 on bad input.
verify    same selectors plus --grid/--trunc; runs the dual-oracle check.
          exit 0 when predicate and oracles agree, 1 when they contradict
          (a hard failure), 2 on bad input, 3 on an ill-conditioned grid.
sweep     --samples/--seed/--out/--format; seeded sampling of maps and
          conjugation parameters for the selected case, one row per sample,
          margin-aware: constructed instances satisfy the case equalities
          exactly, rejected ones violate them by at least 1e-3 relative.
          exit 0 iff the predicate/oracle agreement rate is 100%.

Samples are drawn per-index from SeedSequence(seed).spawn, evaluated in
index order and written in that order, so identical configs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import cnormal
from .cnormal import CaseId, VerificationReport, predicate_margin, verify
from .conjugations import Conjugation, JMu, JWp, parse_conjugation
from .errors import CnopsError, IllConditionedGridError
from .moebius import LinearFractionalMap, parse_complex, parse_map

CSV_HEADER = "sample,case,verdict,kernel_residual,matrix_residual_max_n,consistent"
FALSE_MARGIN = 1e-3


@dataclass
class RunConfig:
    command: str
    map_text: str = ""
    conj_text: str = ""
    weighted: bool = False
    beta_text: str = "1"
    grid_n: int = 12
    truncations: tuple = (32, 64, 128)
    samples: int = 1000
    seed: int = 42
    out: str = ""
    format: str = "csv"


# --------------------------------------------------------------------------
# per-case deterministic samplers
# --------------------------------------------------------------------------

def _unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _disk_point(rng, rmin=0.0, rmax=0.9) -> complex:
    return complex(rng.uniform(rmin, rmax) * np.exp(2j * np.pi * rng.uniform()))


def _automorphism(rng, qmax=0.8):
    """gamma (q - z)/(1 - conj(q) z) as a coefficient quadruple."""
    gamma = _unimodular(rng)
    q = _disk_point(rng, 0.05, qmax)
    return LinearFractionalMap(-gamma, gamma * q, -np.conj(q), 1.0), gamma, q


def _general_self_map(rng) -> LinearFractionalMap:
    """Self-maps with well-separated |b|, |c| (generic non-normal instances)."""
    gamma = _unimodular(rng)
    w = _disk_point(rng, 0.08, 0.7)
    r = rng.uniform(0.2, 0.95)
    if rng.uniform() < 0.5:
        # A(r z) with A the automorphism sending w -> 0
        return LinearFractionalMap(r * gamma, -gamma * w, -r * np.conj(w), 1.0)
    # r A(z)
    return LinearFractionalMap(r * gamma, -r * gamma * w, -np.conj(w), 1.0)


def _hermitian_map(rng, need_solvable_p=False):
    """Self-maps of the Hermitian family: (a1-a0^2, a0, -conj(a0), 1), a1 real.

    With need_solvable_p the parameters are real and chosen so the JW
    condition has a root p = 2 a0/(1 - a) in (0, 1).
    """
    while True:
        if need_solvable_p:
            a0 = rng.uniform(0.05, 0.45)
        else:
            a0 = _disk_point(rng, 0.05, 0.5)
        a1 = rng.uniform(-0.4, 0.5)
        fam = cnormal.hermitian_family(a0, a1, 1.0)
        if not fam.is_self_map:
            continue
        if need_solvable_p:
            a = a1 - a0 ** 2
            p = 2.0 * a0 / (1.0 - a)
            if not 0.02 < p < 0.98:
                continue
            return fam.map, a0, a1, p
        return fam.map, a0, a1, None


def _real_symmetric_map(rng, rotate=True) -> LinearFractionalMap:
    """(a z + b zeta)/(b conj(zeta) z + a): |b| = |c|, boundary fixed point at zeta.

    Hyperbolic automorphisms; b stays <= 0.5 so matrix truncations at the
    standard sizes keep a usable stable block.
    """
    a = 1.0
    b = rng.uniform(0.1, 0.5)
    zeta = _unimodular(rng) if rotate else 1.0
    return LinearFractionalMap(a, b * zeta, b * np.conj(zeta), a)


def _sample_comp_jmu(rng, index: int):
    mu = _unimodular(rng)
    if index % 2 == 0:
        alpha = _disk_point(rng, 0.0, 1.0)
        return LinearFractionalMap(alpha, 0.0, 0.0, 1.0), JMu(mu), 1.0
    return _general_self_map(rng), JMu(mu), 1.0


def _sample_comp_jw(rng, index: int):
    p = _disk_point(rng, 0.1, 0.6)
    if index % 2 == 0:
        return LinearFractionalMap(_unimodular(rng), 0.0, 0.0, 1.0), JWp(p), 1.0
    if index % 4 == 1:
        # phi(0) = 0 but not an isometry: alpha z/(c z + 1)
        alpha = rng.uniform(0.2, 0.95) * _unimodular(rng)
        c = _disk_point(rng, 0.0, min(0.4, 0.95 - abs(alpha)))
        m = LinearFractionalMap(alpha, 0.0, c, 1.0)
    else:
        m = _general_self_map(rng)   # phi(0) != 0 by construction
    return m, JWp(p), 1.0


def _sample_weighted_jmu(rng, index: int):
    beta = _unimodular(rng)
    if index % 2 == 1:
        while True:
            m, conj = _general_self_map(rng), JMu(_unimodular(rng))
            if predicate_margin(CaseId.WEIGHTED_JMU, m, conj) >= FALSE_MARGIN:
                return m, conj, beta
    kind = index % 8
    if kind == 0:
        return (LinearFractionalMap(_disk_point(rng, 0.0, 1.0), 0.0, 0.0, 1.0),
                JMu(_unimodular(rng)), beta)
    if kind == 2:
        m, _, q = _automorphism(rng, qmax=0.6)
        return m, JMu(_unimodular(rng)), beta
    if kind == 4:
        m, a0, a1, _ = _hermitian_map(rng)
        mu = a0 / np.conj(a0) if abs(a0) > 0 else 1.0
        return m, JMu(mu), beta
    return _real_symmetric_map(rng), JMu(_unimodular(rng)), beta


def _sample_weighted_jw(rng, index: int):
    beta = _unimodular(rng)
    if index % 2 == 1:
        while True:
            m, conj = _general_self_map(rng), JWp(_disk_point(rng, 0.1, 0.7))
            if predicate_margin(CaseId.WEIGHTED_JW, m, conj) >= FALSE_MARGIN:
                return m, conj, beta
    kind = index % 6
    if kind == 0:
        return (LinearFractionalMap(1.0, 0.0, 0.0, 1.0),
                JWp(_disk_point(rng, 0.1, 0.7)), beta)
    if kind == 2:
        # automorphism symbol: keep |p| modest so the compounded mass
        # transport still leaves a stable matrix block
        return _real_symmetric_map(rng), JWp(_disk_point(rng, 0.1, 0.4)), beta
    m, _, _, p = _hermitian_map(rng, need_solvable_p=True)
    return m, JWp(p), beta


_SAMPLERS = {
    CaseId.COMP_JMU: _sample_comp_jmu,
    CaseId.COMP_JW: _sample_comp_jw,
    CaseId.WEIGHTED_JMU: _sample_weighted_jmu,
    CaseId.WEIGHTED_JW: _sample_weighted_jw,
}


def sample_case(case: CaseId, rng: np.random.Generator, index: int):
    """Draw one (map, conjugation, beta) instance for the case.

    Even indices draw from families satisfying the case equalities exactly;
    odd indices draw rejection-filtered instances violating them by a
    relative margin of at least 1e-3.
    """
    return _SAMPLERS[case](rng, index)


# --------------------------------------------------------------------------
# sweep driver
# --------------------------------------------------------------------------

def run_sweep(case: CaseId, samples: int, seed: int, grid_n: int = 12,
              truncations=(32, 64, 128), fixed_conj: Conjugation | None = None):
    """Evaluate `samples` seeded draws; returns (reports, extras, agreement_rate).

    extras[i] carries the beta-independence delta for weighted cases (the
    kernel residual is recomputed with a second unimodular beta).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(samples)

    def one(i: int):
        rng = np.random.default_rng(seeds[i])
        m, conj, beta = sample_case(case, rng, i)
        if fixed_conj is not None:
            conj = fixed_conj
        report = verify(case, m, conj, beta=beta, grid_n=grid_n,
                        truncations=truncations)
        extra = {"margin": predicate_margin(case, m, conj)}
        if case.weighted:
            beta2 = _unimodular(rng)
            r2 = cnormal.kernel_residual(case, m, conj, beta=beta2, grid_n=grid_n)
            extra["beta_residual_delta"] = abs(report.kernel_residual - r2)
        return report, extra

    results = [one(i) for i in range(samples)]
    reports = [r for r, _ in results]
    extras = [e for _, e in results]
    agreement = sum(r.consistent for r in reports) / samples
    return reports, extras, agreement


def sweep_csv(reports, agreement: float) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row(i) for i, r in enumerate(reports))
    lines.append(f"# agreement_rate={agreement!r} samples={len(reports)}")
    return "\n".join(lines) + "\n"


def sweep_json(reports, extras, agreement: float) -> str:
    rows = [{**r.to_json_dict(), **x, "sample": i}
            for i, (r, x) in enumerate(zip(reports, extras))]
    for row in rows:
        del row["timing_s"]   # wall-clock time would make the file non-reproducible
    return json.dumps({
        "agreement_rate": agreement,
        "samples": len(reports),
        "rows": rows,
    }, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def _check_writable(path: str):
    """Reject unwritable output paths before any computation or file creation."""
    import os

    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ValueError(f"output path {path!r} is not writable")


def _family(conj: Conjugation) -> str:
    return "jmu" if isinstance(conj, JMu) else "jw"


def _resolve_case(family: str, weighted: bool) -> CaseId:
    return CaseId(f"{'weighted' if weighted else 'comp'}_{family}")


def _parse_common(cfg: RunConfig):
    m = parse_map(cfg.map_text)
    conj = parse_conjugation(cfg.conj_text)
    beta = parse_complex(cfg.beta_text)
    case = _resolve_case(_family(conj), cfg.weighted)
    return m, conj, beta, case


def _emit(text: str, out: str):
    """Write text to the --out file (newline-terminated), or print it."""
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_classify(cfg: RunConfig) -> int:
    try:
        m, conj, beta, case = _parse_common(cfg)
        if cfg.weighted and beta == 0:
            raise ValueError("beta must be non-zero")
        verdict = cnormal.case_predicate(case, m, conj)
    except (ValueError, CnopsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {"case": case.value, "verdict": bool(verdict),
               "map": cfg.map_text, "conjugation": cfg.conj_text}
    if cfg.weighted:
        payload["beta"] = cfg.beta_text
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    try:
        m, conj, beta, case = _parse_common(cfg)
        report = verify(case, m, conj, beta=beta, grid_n=cfg.grid_n,
                        truncations=cfg.truncations)
    except IllConditionedGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, CnopsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report.to_json() if cfg.format == "json" else
          CSV_HEADER + "\n" + report.csv_row(0) + "\n", cfg.out)
    return 0 if report.consistent else 1


def cmd_sweep(cfg: RunConfig) -> int:
    try:
        if cfg.samples < 1:
            raise ValueError("samples must be >= 1")
        family = cfg.conj_text.strip().lower()
        fixed_conj = None
        if family not in ("jmu", "jw"):
            fixed_conj = parse_conjugation(cfg.conj_text)
            family = _family(fixed_conj)
        case = _resolve_case(family, cfg.weighted)
        if cfg.out:
            _check_writable(cfg.out)
        reports, extras, agreement = run_sweep(
            case, cfg.samples, cfg.seed, grid_n=cfg.grid_n,
            truncations=cfg.truncations, fixed_conj=fixed_conj)
    except (ValueError, CnopsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(sweep_json(reports, extras, agreement) if cfg.format == "json"
          else sweep_csv(reports, agreement), cfg.out)
    return 0 if agreement == 1.0 else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnops",
        description="Conjugation-normality checks for (weighted) composition "
                    "operators on the Hardy space of the disk.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_map: bool):
        if need_map:
            p.add_argument("--map", required=True, dest="map_text",
                           help="coefficients a,b,c,d; entries 're' or 're+imi'")
        p.add_argument("--conj", required=True, dest="conj_text",
                       help="conjugation 'jmu:<c>' or 'jw:<c>' "
                            "(sweep also accepts bare 'jmu'/'jw' to sample the parameter)")
        p.add_argument("--weighted", action="store_true",
                       help="use the weighted operator with weight beta*K_{sigma(0)}")
        p.add_argument("--beta", default="1", dest="beta_text",
                       help="non-zero weight constant (complex literal)")

    p_classify = sub.add_parser("classify", help="predicate verdict only")
    add_common(p_classify, need_map=True)

    p_verify = sub.add_parser("verify", help="predicate + kernel + matrix oracles")
    add_common(p_verify, need_map=True)
    p_verify.add_argument("--grid", type=int, default=12, dest="grid_n",
                          help="points per ring of the (w, z) evaluation grid")
    p_verify.add_argument("--trunc", default="32,64,128",
                          help="comma-separated matrix truncation sizes")
    p_verify.add_argument("--out", default="", help="write the report here")
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    p_sweep = sub.add_parser(
        "sweep", help="seeded randomized agreement sweep",
        description="Seeded agreement sweep for one case. Even sample indices "
                    "draw maps from families satisfying the case's coefficient "
                    "equalities exactly (dilations, rotations, automorphism and "
                    "Hermitian-type instances with matched parameters); odd "
                    "indices draw generic self-maps from the complex unit "
                    "square construction, rejection-filtered so the equalities "
                    "are violated by a relative margin of at least 1e-3. Exit "
                    "code 0 iff every row's verdict agrees with the kernel "
                    "oracle dichotomy.")
    add_common(p_sweep, need_map=False)
    p_sweep.add_argument("--grid", type=int, default=12, dest="grid_n")
    p_sweep.add_argument("--trunc", default="32,64,128")
    p_sweep.add_argument("--samples", type=int, default=1000)
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--out", default="", help="write rows here instead of stdout")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("map_text", "conj_text", "weighted", "beta_text", "grid_n",
                 "samples", "seed", "out", "format"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "trunc"):
        cfg.truncations = tuple(int(x) for x in str(args.trunc).split(","))
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.command == "classify":
        return cmd_classify(cfg)
    if cfg.command == "verify":
        return cmd_verify(cfg)
    return cmd_sweep(cfg)


if __name__ == "__main__":
    sys.exit(main())
