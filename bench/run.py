"""cnops benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify_n128 --seed 1 --seconds 50 --trace 0

Run from any directory; the package is imported from `src/` next to this
directory, never from an installed copy.  Workloads are described in
`workloads.py` and, with the reason each was chosen, in BENCHMARK.json.

--trace 0  prints the end-to-end metrics of BENCHMARK.json, measured with
           tracing off: samples_per_s and latency_p50_ms (defined in
           workloads.PhaseResult), setup_s (median of SETUP_REPEATS fresh
           processes that import cnops and generate the inputs from the seed)
           and peak_rss_mb.  It also prints latency_tail_ms and error_rate,
           which are not gated: the tail needs 10 samples beyond it, and the
           error rate is 0 when the program is correct.  It also prints the
           inputs for which `cli.sample_case` broke its promise (see
           workloads.Instance.sampler_error); they are not failures of the
           measured operation.
--trace 1  runs the workload untraced for half of --seconds, then traced for
           the other half, then the layer probe (see layers.py), and prints the
           per-layer metrics of BENCHMARK.json, including tracing_overhead:
           the relative change of each timed end-to-end metric when traced.

BLAS threading is left as the environment sets it; the record notes it.
Every run writes a record with the environment to .bench_out/, and a traced
run also writes its spans there.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 12
SETUP_CHILD = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.make_workload(sys.argv[3], int(sys.argv[4]), ''); "
               "print(time.monotonic())")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or f"unavailable: {done.stderr.strip()}"
        except OSError as exc:
            commit = f"unavailable: {exc}"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": commit,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from launch of a fresh process until its inputs are ready."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.split()[-1]) - t0


def tail(latencies: list) -> dict:
    """The highest percentile with at least 10 samples beyond it."""
    n = len(latencies)
    if n < 11:
        return {"absent": f"only {n} samples; 11 are needed"}
    return {"value": sorted(latencies)[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def end_to_end(phase) -> dict:
    return {"samples_per_s": phase.samples_per_s(),
            "latency_p50_ms": phase.latency_p50_ms()}


def traced_run(args, wl, tmp):
    """Untraced half, traced half, probe; returns (metrics, record, ops)."""
    import layers
    import spans
    import workloads

    phase_u = workloads.run_phase(wl, args.seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        phase_t = workloads.run_phase(wl, args.seconds / 2)
        loop_spans, tracer.spans = tracer.spans, []
        subnormal = layers.probe_builders(args.seed)
        builder_spans, tracer.spans = tracer.spans, []
        probe_ops = layers.probe_sweep(args.seed, tmp)
    finally:
        tracer.uninstall()
    sweep_spans = tracer.spans

    loop = layers.span_metrics(loop_spans, phase_t.samples)
    probe = {**layers.span_metrics(sweep_spans, 0),
             **layers.span_metrics(builder_spans, 0)}
    metrics = {**probe, **loop}
    for n, count in subnormal.items():
        metrics[f"operators.T.N{n}.subnormal_entries"] = count
    metrics["cnormal.kernel_residual.excluded_pair_fraction"] = \
        workloads.excluded_pair_fraction(wl.distinct_instances())
    e2e_u, e2e_t = end_to_end(phase_u), end_to_end(phase_t)
    for key in e2e_u:
        metrics[f"tracing_overhead.{key}"] = e2e_t[key] / e2e_u[key] - 1.0

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    spans.write(spans_path, {"loop": loop_spans, "probe_builders": builder_spans,
                             "probe_sweep": sweep_spans})
    record = {
        "untraced": e2e_u, "traced": e2e_t,
        "from_probe": sorted(set(probe) - set(loop)),
        "probe_instances": [i.describe() for i in layers.probe_instances(args.seed)],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": {"loop": len(loop_spans), "probe_builders": len(builder_spans),
                  "probe_sweep": len(sweep_spans)},
        "computed": {f"N{n}": {"residual_flops": layers.residual_flops(n),
                               "residual_operand_bytes": layers.residual_operand_bytes(n)}
                     for n in layers.PROBE_TRUNCATIONS},
    }
    return metrics, record, phase_u.ops + phase_t.ops + probe_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "cnops" / "__init__.py").is_file():
        print(f"error: no cnops package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import cnops
    if Path(cnops.__file__).resolve().parent != SRC / "cnops":
        print(f"error: cnops imported from {cnops.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make_workload(args.workload, args.seed, tmp)
        ops = wl.warm_up()
        if args.trace:
            metrics, extra, traced_ops = traced_run(args, wl, tmp)
            ops += traced_ops
            record.update(extra)
        else:
            # Set-up runs go between the passes, so that they see the same
            # load from outside the process as the passes do.
            setup = []

            def set_up():
                if len(setup) < SETUP_REPEATS:
                    setup.append(measure_setup(args.workload, args.seed))

            phase = workloads.run_phase(wl, args.seconds, between=set_up)
            while len(setup) < SETUP_REPEATS:
                set_up()
            ops += phase.ops
            metrics = end_to_end(phase)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record.update(latency_tail_ms=tail(phase.latencies_ms),
                          setup_runs_s=setup, measured_s=phase.wall_s,
                          pass_s=phase.pass_s,
                          samples=phase.samples, operations=len(phase.ops),
                          calls_ms_by_input=phase.calls_ms(),
                          input_ms=phase.input_ms())
    sampler_errors = [i.describe() for i in wl.distinct_instances() if i.sampler_error]
    record["sampler_errors"] = sampler_errors

    failures = Counter(op.failure for op in ops if op.failure)
    failed = sum(failures.values())
    record.update(attempted=len(ops), failed=failed, error_rate=failed / len(ops),
                  failures=dict(failures), metrics=metrics,
                  failing_inputs=sorted({f"{op.label}: {op.failure}"
                                         for op in ops if op.failure}))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, value in result.items():
        print(f"{name:58s} {value['value']:.6g} {value['unit']}")
    if args.trace:
        print("layer self-time shares: " + " ".join(
            f"{layer} {metrics[f'layer.{layer}.self_share']:.3f}" for layer in spans.LAYERS))
    else:
        print(f"{'samples':58s} {record['samples']} in {len(record['pass_s'])} passes, "
              f"{record['operations']} operations, {record['measured_s']:.2f} s")
        t = record["latency_tail_ms"]
        print(f"{'latency_tail_ms':58s} " + (
            f"{t['value']:.6g} ms (p{t['percentile']:.2f} of {t['samples']} samples)"
            if "value" in t else t["absent"]))
    print(f"{'error_rate':58s} {record['error_rate']:.6g} "
          f"({failed}/{len(ops)} failed{', ' + str(dict(failures)) if failures else ''})")
    print(f"{'sample_case broken promises':58s} {len(sampler_errors)}" + "".join(
        f" {e['case']}#{e['index']}" for e in sampler_errors))
    env = record["environment"]
    print(f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']['name']} {env['blas']['version']} threads={env['threads']} "
          f"commit={env['commit']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
