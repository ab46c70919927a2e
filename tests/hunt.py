"""Contradiction scoreboard: run verify on the adversarial families of
tests/reference.py and print, per family, how many reports are inconsistent
and which route failed.

A report is inconsistent when a route contradicts its verdict.  A true
verdict fails on the kernel route when the kernel residual reaches
VERDICT_TRUE_MAX |beta|^2, and otherwise on the matrix route (its residuals
rise with N); a false verdict is tested on the kernel route alone.  Every
instance is valid, so each count is of reports that say "contradiction"
(exit 1) on a valid input.

Run from the repository root (pytest does not collect this file):

    PYTHONPATH=src python tests/hunt.py [--count 100] [--seed 7]
"""

import argparse

from cnops.cnormal import VERDICT_TRUE_MAX, CaseId, verify
from reference import comp_jw_dilations, near_circle_automorphisms, perturbed_automorphisms

# (family, case, draw(count, seed) -> (m, conj, beta) triples)
FAMILIES = [
    ("near-circle automorphisms", CaseId.WEIGHTED_JMU,
     lambda n, seed: near_circle_automorphisms(CaseId.WEIGHTED_JMU, n, seed)),
    ("near-circle automorphisms", CaseId.WEIGHTED_JW,
     lambda n, seed: near_circle_automorphisms(CaseId.WEIGHTED_JW, n, seed)),
    ("perturbed automorphisms", CaseId.WEIGHTED_JMU, perturbed_automorphisms),
    ("dilations, tiny p", CaseId.COMP_JW, lambda n, seed: comp_jw_dilations(n, seed, True)),
    ("dilations, a near the circle", CaseId.COMP_JW, lambda n, seed: comp_jw_dilations(n, seed, False)),
]


def failed_route(report, beta) -> str | None:
    """None for a consistent report, else the route that contradicts its verdict."""
    if report.consistent:
        return None
    unit = abs(beta) ** 2
    if report.verdict:
        return "kernel" if report.kernel_residual >= VERDICT_TRUE_MAX * unit else "matrix"
    return "kernel"


def scoreboard(count: int, seed: int) -> list:
    """[(family, case, draws, true verdicts, kernel failures, matrix failures)]."""
    rows = []
    for name, case, draw in FAMILIES:
        routes = {"kernel": 0, "matrix": 0}
        true = 0
        for m, conj, beta in draw(count, seed):
            report = verify(case, m, conj, beta)
            true += report.verdict
            route = failed_route(report, beta)
            if route:
                routes[route] += 1
        rows.append((name, case.value, count, true, routes["kernel"], routes["matrix"]))
    return rows


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=100, help="draws per family")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print("| family | case | draws | true verdicts | inconsistent | kernel | matrix |")
    print("|---|---|---|---|---|---|---|")
    for name, case, draws, true, kernel, matrix in scoreboard(args.count, args.seed):
        print(f"| {name} | {case} | {draws} | {true} | {kernel + matrix} | {kernel} | {matrix} |")


if __name__ == "__main__":
    main()
