"""The names the benchmark under bench/ traces or reads still exist.

bench/spans.py wraps every public function of the cnops layers and reports
it as "<layer>.<name>", taking the layer from the module that defines it
(`__module__`).  The spans of its TAGGED functions carry their truncation
size, read from the argument `N` (or `T` and `keep` for the residual).  A
benchmark run fails when a per-layer metric of BENCHMARK.json names a
function that no longer exists under its layer, when a tagged function loses
those arguments, or when a name or keyword that bench/ uses is gone.  A
short traced run of each workload must also produce every per-layer metric:
a metric whose function `verify` no longer calls is missing from the spans.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
# per-layer metrics "operators.useful_block_fraction.N*" and "operators.T.N*"
# are figures of the operators layer, not functions
NOT_FUNCTIONS = {"useful_block_fraction", "T"}


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _bench_spans()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _function(qualname: str):
    layer, name = qualname.split(".")
    return getattr(importlib.import_module(f"cnops.{layer}"), name, None)


def metric_functions() -> list:
    names = set()
    for metric in SPEC["per_layer"]:
        layer, name = metric["name"].split(".")[:2]
        if layer in SPANS.LAYERS and name not in NOT_FUNCTIONS:
            names.add(f"{layer}.{name}")
    return sorted(names)


def _resolve(dotted: str):
    """The object a dotted cnops path names; AttributeError when it is gone."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def bench_uses() -> dict:
    """{dotted cnops name: keywords bench/ passes to it} over bench/*.py.

    Covers names imported from cnops and attributes read off those names.
    """
    uses = {}
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cnops"):
                for a in node.names:
                    aliases[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("cnops"):
                        aliases[a.asname or a.name] = a.name
        uses.update((dotted, set()) for dotted in aliases.values())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                uses.setdefault(f"{aliases[node.value.id]}.{node.attr}", set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in aliases:
                dotted = f"{aliases[node.func.value.id]}.{node.func.attr}"
                uses[dotted] |= {k.arg for k in node.keywords if k.arg}
    return uses


USES = bench_uses()


def test_bench_uses_the_names_it_is_known_to_need():
    # guards the scan itself: these are the entry points named in bench/
    assert {"cnops.cli.main", "cnops.cli.sample_case", "cnops.cnormal.verify",
            "cnops.operators.cnormal_residual_matrix",
            "cnops.operators.stable_keep"} <= set(USES)
    assert USES["cnops.cnormal.verify"] >= {"grid_n", "truncations"}


@pytest.mark.parametrize("qualname", metric_functions())
def test_metric_function_is_traced_under_its_layer(qualname):
    fn = _function(qualname)
    assert inspect.isfunction(fn), f"no function {qualname}"
    assert fn.__module__ == f"cnops.{qualname.split('.')[0]}", \
        f"{qualname} is defined in {fn.__module__}, so spans report it there"


@pytest.mark.parametrize("qualname", SPANS.TAGGED)
def test_tagged_function_keeps_its_size_arguments(qualname):
    params = inspect.signature(_function(qualname)).parameters
    needed = {"T", "keep"} if qualname == "operators.cnormal_residual_matrix" else {"N"}
    assert needed <= set(params), f"{qualname} lost {needed - set(params)}"


@pytest.mark.parametrize("dotted", sorted(USES))
def test_bench_name_exists(dotted):
    obj = _resolve(dotted)
    keywords = USES[dotted]
    if keywords:
        params = inspect.signature(obj).parameters
        assert keywords <= set(params), f"{dotted} lost keywords {keywords - set(params)}"


def test_weighted_builder_goes_through_composition_matrix(monkeypatch):
    # the traced composition_matrix.N* figures come through this call
    from cnops import operators
    from cnops.moebius import LinearFractionalMap

    sizes = []
    original = operators.composition_matrix

    def counted(m, N):
        sizes.append(N)
        return original(m, N)

    monkeypatch.setattr(operators, "composition_matrix", counted)
    operators.weighted_composition_matrix(
        np.ones(16), LinearFractionalMap(0.5, 0.25, 0.25, 1), 16)
    assert sizes == [16]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_produces_every_per_layer_metric(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    missing = {m["name"] for m in SPEC["per_layer"]} - set(result["metrics"])
    assert not missing, f"traced run lacks {sorted(missing)}"
