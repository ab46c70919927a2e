"""Command-line surface: classify, verify, sweep.

classify  --map a,b,c,d --conj jmu:<c>|jw:<c> [--weighted] [--beta c]
          prints the predicate verdict as JSON; exit 0.
verify    same selectors plus --grid/--trunc/--out/--format; runs the
          dual-oracle check.  exit 0 when predicate and oracles agree, 1 when
          they contradict (a hard failure).
sweep     --conj jmu|jw|<spec> [--weighted] --samples/--seed plus
          --grid/--trunc/--out/--format; seeded sampling of maps,
          conjugation parameters and (weighted) a unimodular beta for the
          selected case, so it takes no --map or --beta.  One row per
          sample, its verify report (CSV: csv_row; JSON: the report's fields
          without timing_s, plus sample).  Sampling is margin-aware:
          constructed instances satisfy the case equalities exactly, rejected
          ones violate them by at least 1e-3 relative.
          exit 0 iff the predicate/oracle agreement rate is 100%, else 1.

Each command returns its text and exit code to main, which alone maps errors
to exit codes and writes output.  Exit 1 means a contradiction only.  Every
command exits 2 on bad input or an arithmetic failure (a ValueError or an
ArithmeticError), with one "error: ..." line on stderr and nothing on
stdout.  Bad input includes a map that is not a self-map of the disk, a beta
for the weighted operator whose |beta|^2 is 0 or not finite
(cnormal.check_instance), a --trunc size outside [8, 4096]
(cnormal.MIN_TRUNCATION, MAX_TRUNCATION), a --grid outside [8, 512]
(cnormal.ring_grid) and an --out path that cannot be written, whether
_check_writable rejects it before the run or the write itself fails.  A map
is taken up to scale (moebius), so verify's params.map holds the stored
coefficients.  The text ends in exactly one newline, and stdout gets the
same bytes as the --out file.

Samples are drawn per-index from SeedSequence(seed).spawn, evaluated in
index order and written in that order, so identical configs produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import cnormal
from .cnormal import CSV_HEADER, STANDARD_TRUNCATIONS, CaseId, predicate_margin, verify
from .conjugations import FAMILIES, Conjugation, JMu, JWp, parse_conjugation
from .moebius import LinearFractionalMap, lft_is_self_map, parse_complex, parse_map

FALSE_MARGIN = 1e-3


# --------------------------------------------------------------------------
# per-case deterministic samplers
# --------------------------------------------------------------------------

def _unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _disk_point(rng, rmin=0.0, rmax=0.9) -> complex:
    return complex(rng.uniform(rmin, rmax) * np.exp(2j * np.pi * rng.uniform()))


def _automorphism(rng) -> LinearFractionalMap:
    """gamma (q - z)/(1 - conj(q) z), 0.05 <= |q| < 0.6, as a coefficient quadruple."""
    gamma = _unimodular(rng)
    q = _disk_point(rng, 0.05, 0.6)
    return LinearFractionalMap(-gamma, gamma * q, -np.conj(q), 1.0)


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
    """(m, a0, p) for a self-map phi(z) = a0 + a1 z/(1 - conj(a0) z) of the
    Hermitian family, (a, b, c, d) = (a, a0, -conj(a0), 1) with a1 real and
    a = a1 - |a0|^2.

    With need_solvable_p, a0 is real and p = 2 a0/(1 - a) is the real root
    of the weighted_jw equation e2 = 0 on the family,
    (a^2 - 1) p^2 = -(a + 1) 2 a0 p, kept in (0.02, 0.98); here a <= 0.5, so
    1 - a >= 0.5 and p > 0.  Otherwise p is None.
    """
    while True:
        if need_solvable_p:
            a0 = rng.uniform(0.05, 0.45)
        else:
            a0 = _disk_point(rng, 0.05, 0.5)
        a = rng.uniform(-0.4, 0.5) - abs(a0) ** 2
        m = LinearFractionalMap(a, a0, -np.conj(a0), 1.0)
        if not lft_is_self_map(m):
            continue
        if not need_solvable_p:
            return m, a0, None
        p = 2.0 * a0 / (1.0 - a)
        if 0.02 < p < 0.98:
            return m, a0, p


def _real_symmetric_map(rng) -> LinearFractionalMap:
    """(a z + b zeta)/(b conj(zeta) z + a): |b| = |c|, boundary fixed point at zeta.

    Hyperbolic automorphisms; b stays <= 0.5 so matrix truncations at the
    standard sizes keep a usable stable block.
    """
    a = 1.0
    b = rng.uniform(0.1, 0.5)
    zeta = _unimodular(rng)
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
        return _automorphism(rng), JMu(_unimodular(rng)), beta
    if kind == 4:
        m, a0, _ = _hermitian_map(rng)
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
    m, _, p = _hermitian_map(rng, need_solvable_p=True)
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

def run_sweep(case: CaseId, samples: int, seed: int, grid_n: int = cnormal.GRID_N,
              truncations=STANDARD_TRUNCATIONS, fixed_conj: Conjugation | None = None):
    """Verify `samples` seeded draws; returns (reports, agreement_rate).

    Each report is verify's for its draw and carries everything a sweep row
    writes, its margin included.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    reports = []
    for i, seq in enumerate(np.random.SeedSequence(seed).spawn(samples)):
        m, conj, beta = sample_case(case, np.random.default_rng(seq), i)
        reports.append(verify(case, m, conj if fixed_conj is None else fixed_conj,
                              beta=beta, grid_n=grid_n, truncations=truncations))
    return reports, sum(r.consistent for r in reports) / samples


def sweep_csv(reports, agreement: float) -> str:
    lines = [CSV_HEADER]
    lines.extend(r.csv_row(i) for i, r in enumerate(reports))
    lines.append(f"# agreement_rate={agreement!r} samples={len(reports)}")
    return "\n".join(lines) + "\n"


def sweep_json(reports, agreement: float) -> str:
    rows = [cnormal.finite_json_dict({**asdict(r), "sample": i})
            for i, r in enumerate(reports)]
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
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ValueError(f"output path {path!r} is not writable")


def _case(conj_type: type, weighted: bool) -> CaseId:
    """The case of the plain or weighted operator against a conjugation family."""
    return next(c for c in CaseId if c.conj_type is conj_type and c.weighted == weighted)


def _parse_common(args):
    m = parse_map(args.map_text)
    conj = parse_conjugation(args.conj_text)
    beta = parse_complex(args.beta_text)
    return m, conj, beta, _case(type(conj), args.weighted)


def cmd_classify(args) -> tuple[str, int]:
    m, conj, beta, case = _parse_common(args)
    cnormal.check_instance(case, m, conj, beta)
    payload = {"case": case.value, "verdict": bool(cnormal.case_predicate(case, m, conj)),
               "map": args.map_text, "conjugation": args.conj_text}
    if args.weighted:
        payload["beta"] = args.beta_text
    return json.dumps(payload, sort_keys=True), 0


def cmd_verify(args) -> tuple[str, int]:
    m, conj, beta, case = _parse_common(args)
    report = verify(case, m, conj, beta=beta, grid_n=args.grid_n,
                    truncations=args.truncations)
    text = (report.to_json() if args.format == "json"
            else CSV_HEADER + "\n" + report.csv_row(0))
    return text, 0 if report.consistent else 1


def cmd_sweep(args) -> tuple[str, int]:
    fixed_conj = None
    conj_type = FAMILIES.get(args.conj_text.strip().lower())
    if conj_type is None:
        fixed_conj = parse_conjugation(args.conj_text)
        conj_type = type(fixed_conj)
    reports, agreement = run_sweep(
        _case(conj_type, args.weighted), args.samples, args.seed,
        grid_n=args.grid_n, truncations=args.truncations, fixed_conj=fixed_conj)
    text = (sweep_json(reports, agreement) if args.format == "json"
            else sweep_csv(reports, agreement))
    return text, 0 if agreement == 1.0 else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _truncations(text: str) -> tuple:
    """The --trunc value: comma-separated truncation sizes."""
    return tuple(int(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnops",
        description="Conjugation-normality checks for (weighted) composition "
                    "operators on the Hardy space of the disk.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, one_instance: bool):
        if one_instance:   # sweep samples the map and draws its own beta
            p.add_argument("--map", required=True, dest="map_text",
                           help="coefficients a,b,c,d; entries 're' or 're+imi'")
            p.add_argument("--beta", default="1", dest="beta_text",
                           help="weight constant (complex literal) whose |beta|^2 "
                                "is a finite non-zero float")
        p.add_argument("--conj", required=True, dest="conj_text",
                       help="conjugation 'jmu:<c>' or 'jw:<c>' "
                            "(sweep also accepts bare 'jmu'/'jw' to sample the parameter)")
        p.add_argument("--weighted", action="store_true",
                       help="use the weighted operator with weight beta*K_{sigma(0)}")

    def add_oracle_output(p, fmt: str):
        p.add_argument("--grid", type=int, default=cnormal.GRID_N, dest="grid_n",
                       help="points per ring of the (w, z) evaluation grid")
        p.add_argument("--trunc", type=_truncations, default=STANDARD_TRUNCATIONS,
                       dest="truncations", help="comma-separated matrix truncation sizes")
        p.add_argument("--out", default="", help="write here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default=fmt)

    p_classify = sub.add_parser("classify", help="predicate verdict only")
    add_common(p_classify, one_instance=True)
    p_classify.set_defaults(run=cmd_classify)

    p_verify = sub.add_parser("verify", help="predicate + kernel + matrix oracles")
    add_common(p_verify, one_instance=True)
    add_oracle_output(p_verify, "json")
    p_verify.set_defaults(run=cmd_verify)

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
    add_common(p_sweep, one_instance=False)
    add_oracle_output(p_sweep, "csv")
    p_sweep.add_argument("--samples", type=int, default=1000)
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.set_defaults(run=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one command: the only place that turns errors into exit codes and
    writes a command's text, to --out or stdout alike."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = getattr(args, "out", "")
    try:
        if out:
            _check_writable(out)
        text, code = args.run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = text.rstrip("\n") + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:   # e.g. a file name too long, or a full device
            print(f"error: cannot write {out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
