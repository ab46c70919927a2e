"""Span tracing installed from outside the package.

`Tracer.install()` wraps every public module-level function of the traced
`cnops` modules and re-binds each wrapper under every name that refers to the
original function anywhere in the package, so names imported with
`from .x import y` (for example `operators.lft_is_self_map` or
`cnormal.verify` as reached from `cli`) are traced as well as attribute
lookups such as `hardy.series_multiply`.  `uninstall()` restores the
originals.

A span records (id, name, start, end, parent id, thread id, tag, cpu).  A
span opened on a thread with no open span of its own (a sweep pool worker)
takes as parent the innermost span open on the thread that installed the
tracer, which is the `cli.run_sweep` call that started the pool.  Spans stay
in memory until the run writes them with `write()` at its end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

# Layers are the package's modules; `errors` does no work and is not traced.
LAYERS = ("cli", "cnormal", "operators", "conjugations", "hardy", "moebius")

# Spans of these functions carry the truncation size N (and, for the
# residual, the kept block) as a tag, so timings can be split by N.
TAGGED = (
    "operators.composition_matrix",
    "operators.weighted_composition_matrix",
    "operators.conjugation_operator",
    "operators.cnormal_residual_matrix",
    "conjugations.jw_weighted_matrix",
)
# Spans of these functions also record process CPU time.
_CPU = ("cli.run_sweep",)


def _tag(name, sig, args, kwargs):
    bound = sig.bind(*args, **kwargs).arguments
    if name == "operators.cnormal_residual_matrix":
        n = len(bound["T"])
        keep = bound.get("keep")
        return (n, n // 2 if keep is None else int(keep))
    return (int(bound["N"]),)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        sig = inspect.signature(fn) if name in TAGGED else None
        cpu = name in _CPU

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            tag = _tag(name, sig, args, kwargs) if sig is not None else None
            sid = next(tracer._ids)
            stack.append(sid)
            c0 = time.process_time() if cpu else None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c = time.process_time() - c0 if cpu else None
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), tag, c))

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home_stack = self._stack()
        pkg = importlib.import_module("cnops")
        modules = [pkg] + [importlib.import_module(f"cnops.{m}") for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cnops.{layer}")
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []
        self._home_stack = None


def write(path, phases: dict):
    """Write {phase: spans} as gzip-compressed JSON lines, one span a line."""
    with gzip.open(path, "wt") as fh:
        for phase, spans in phases.items():
            for sid, name, t0, t1, parent, tid, tag, cpu in spans:
                fh.write(json.dumps({"phase": phase, "id": sid, "name": name,
                                     "start": t0, "end": t1, "parent": parent,
                                     "thread": tid, "tag": tag, "cpu_s": cpu}) + "\n")


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of the intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{span id: duration minus the part its child spans cover}."""
    children = defaultdict(list)
    for sid, _, t0, t1, parent, *_ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered(t0, t1, children.get(sid, ()))
            for sid, _, t0, t1, *_ in spans}
