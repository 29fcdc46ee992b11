"""Span tracing of the nkoszul layers for the traced benchmark run.

``install`` wraps, at run time, the public functions of the layer modules
and a few methods.  Each name is patched in its defining module, in every
nkoszul module that imported it by name (``from .grmod import ...``) and in
module-level registries such as ``verify.SUITES``.  A span records its
name, start, end and parent span; spans stay in memory until the run ends,
when ``summarize`` turns them into the per-layer metrics and ``dump`` writes
them out.

Self time is a span's duration minus the durations of its child spans.
Calls run on one thread and children end before their parent, so children
never overlap and self time is never negative.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "algebra", "grmod", "complexes", "koszul", "docio",
          "verify")
# Modules scanned for names imported from the layers.
IMPORTERS = LAYERS + ("quiver", "cli")
# Allocation helpers: their cost stays in the caller's self time, which keeps
# the wrapper overhead off the hottest calls.
UNTRACED = {"linalg.as_matrix", "linalg.zeros", "linalg.eye"}
METHODS = {
    ("algebra", "PathAlgebra"): ("ensure_degree", "mult", "reduce_vector"),
    ("linalg", "Subspace"): ("from_rows", "zero", "full", "contains_vector",
                             "contains", "sum", "intersect"),
}

# Span groups for the per-layer metrics: a metric prefix and the span names
# it covers (a trailing "." matches every span name with that prefix).
GROUPS = {
    "linalg.mat_mul": ("linalg.mat_mul",),
    "linalg.rref": ("linalg.rref",),
    "linalg.null_space": ("linalg.null_space",),
    "linalg.solve": ("linalg.solve", "linalg.solve_matrix", "linalg.inverse"),
    "linalg.subspace": ("linalg.Subspace.",),
    "linalg": ("linalg.",),
    "algebra.ensure_degree": ("algebra.PathAlgebra.ensure_degree",),
    "algebra.mult": ("algebra.PathAlgebra.mult",),
    "algebra.reduce_vector": ("algebra.PathAlgebra.reduce_vector",),
    "algebra": ("algebra.",),
    "grmod.hom_space": ("grmod.hom_space",),
    "grmod.submodule_as_module": ("grmod.submodule_as_module",),
    "grmod.morphism_kernel": ("grmod.morphism_kernel",),
    "grmod.free_module": ("grmod.free_module",),
    "grmod.iso_modules": ("grmod.iso_modules",),
    "grmod": ("grmod.",),
    "complexes.functors": ("complexes.psi", "complexes.nu",
                           "complexes.equivalence_F",
                           "complexes.cofree_module"),
    "complexes.extract_module": ("complexes.extract_module",),
    "complexes.iso_complexes": ("complexes.iso_complexes",),
    "complexes": ("complexes.",),
    "koszul": ("koszul.",),
    "docio": ("docio.",),
    "verify": ("verify.",),
}

# name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "linalg.mat_mul.calls": "count", "linalg.mat_mul.self_s": "s",
    "linalg.mat_mul.macs": "count",
    "linalg.rref.calls": "count", "linalg.rref.self_s": "s",
    "linalg.rref.cells": "count",
    "linalg.null_space.calls": "count", "linalg.null_space.self_s": "s",
    "linalg.solve.calls": "count", "linalg.solve.self_s": "s",
    "linalg.subspace.self_s": "s", "linalg.self_s": "s",
    "algebra.ensure_degree.self_s": "s", "algebra.paths_max": "count",
    "algebra.mult.calls": "count", "algebra.mult.self_s": "s",
    "algebra.reduce_vector.calls": "count", "algebra.self_s": "s",
    "grmod.hom_space.calls": "count", "grmod.hom_space.self_s": "s",
    "grmod.hom_space.unknowns": "count",
    "grmod.hom_space.unknowns_max": "count",
    "grmod.submodule_as_module.self_s": "s",
    "grmod.morphism_kernel.self_s": "s", "grmod.free_module.self_s": "s",
    "grmod.iso_modules.calls": "count",
    "grmod.iso_modules.found_ratio": "ratio", "grmod.self_s": "s",
    "complexes.functors.self_s": "s", "complexes.extract_module.self_s": "s",
    "complexes.iso_complexes.calls": "count",
    "complexes.iso_complexes.found_ratio": "ratio",
    "complexes.iso_complexes.self_s": "s", "complexes.self_s": "s",
    "koszul.self_s": "s", "koszul.terms_total_dim": "count",
    "docio.self_s": "s", "docio.report_digest_mismatch": "count",
    "verify.self_s": "s",
    "trace.untraced_s": "s", "trace.overhead_ratio": "ratio",
}


def _dims(a):
    s = np.shape(a)
    return (1, s[0]) if len(s) == 1 else (s[0], s[1]) if len(s) == 2 else (0, 0)


def _count_mat_mul(c, out, a, b, *_, **__):
    m, k = _dims(a)
    c["linalg.mat_mul.macs"] += m * k * _dims(b)[1]


def _count_rref(c, out, m, *_, **__):
    rows, cols = _dims(m)
    c["linalg.rref.cells"] += rows * cols


def _count_hom_space(c, out, m, n, *_, **__):
    unknowns = sum(m.dim(d) * n.dim(d)
                   for d in set(m.degrees()) | set(n.degrees()))
    c["grmod.hom_space.unknowns"] += unknowns
    c["grmod.hom_space.unknowns_max"] = max(
        c["grmod.hom_space.unknowns_max"], unknowns)


def _count_iso_modules(c, out, *args, **kw):
    c["grmod.iso_modules.found"] += out is not None


def _count_iso_complexes(c, out, *args, **kw):
    c["complexes.iso_complexes.found"] += bool(out)


def _count_resolution(c, out, *args, **kw):
    c["koszul.terms_total_dim"] += sum(pm.total_dim() for pm in out.pmods)


def _count_ensure_degree(c, out, alg, *_, **__):
    c["algebra.paths_max"] = max(c["algebra.paths_max"],
                                 max(len(ps) for ps in alg._paths))


COUNTERS = {
    "linalg.mat_mul": _count_mat_mul,
    "linalg.rref": _count_rref,
    "grmod.hom_space": _count_hom_space,
    "grmod.iso_modules": _count_iso_modules,
    "complexes.iso_complexes": _count_iso_complexes,
    "koszul.minimal_projective_resolution": _count_resolution,
    "algebra.PathAlgebra.ensure_degree": _count_ensure_degree,
}


def _builds_slice(alg, k, *_, **__):
    return alg._computed_to() < k


# PathAlgebra.dim calls ensure_degree on every lookup; only the calls that
# build a slice become spans, the rest stay in the caller's self time.
GATES = {"algebra.PathAlgebra.ensure_degree": _builds_slice}


class Tracer:
    """Spans kept in parallel lists; ``stack`` holds the open span ids."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.stack: list = []
        self.counters: Counter = Counter()

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        gate = GATES.get(name)
        clock = time.perf_counter_ns
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counters = self.parents, self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kw):
            if gate is not None and not gate(*args, **kw):
                return fn(*args, **kw)
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kw)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(counters, out, *args, **kw)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the layer functions and methods."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"nkoszul.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNTRACED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            wrapped[obj] = tracer.wrap(name, obj)
    for modname in IMPORTERS:
        mod = importlib.import_module(f"nkoszul.{modname}")
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
    for (layer, clsname), methods in METHODS.items():
        cls = getattr(importlib.import_module(f"nkoszul.{layer}"), clsname)
        for meth in methods:
            raw = cls.__dict__[meth]
            name = f"{layer}.{clsname}.{meth}"
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))


def _covered(name, patterns):
    return any(name == pat or (pat.endswith(".") and name.startswith(pat))
               for pat in patterns)


def summarize(tracer: Tracer, wall_ns: int) -> dict:
    """Per-span-name calls and self time, the per-layer metrics, and the
    nesting figures the self-test checks."""
    n = len(tracer.names)
    child = [0] * n
    top_ns = 0
    for i in range(n):
        dur = tracer.ends[i] - tracer.starts[i]
        par = tracer.parents[i]
        if par < 0:
            top_ns += dur
        else:
            child[par] += dur
    by_name: dict = {}
    min_self = 0
    for i in range(n):
        own = tracer.ends[i] - tracer.starts[i] - child[i]
        min_self = min(min_self, own)
        ent = by_name.setdefault(tracer.names[i], [0, 0])
        ent[0] += 1
        ent[1] += own
    metrics = {}
    for group, patterns in GROUPS.items():
        calls = self_ns = 0
        for name, (c, s) in by_name.items():
            if _covered(name, patterns):
                calls += c
                self_ns += s
        metrics[f"{group}.calls"] = calls
        metrics[f"{group}.self_s"] = self_ns / 1e9
    cnt = tracer.counters
    metrics.update({k: cnt[k] for k in (
        "linalg.mat_mul.macs", "linalg.rref.cells", "grmod.hom_space.unknowns",
        "grmod.hom_space.unknowns_max", "koszul.terms_total_dim",
        "algebra.paths_max")})
    for group, found in (("grmod.iso_modules", "grmod.iso_modules.found"),
                         ("complexes.iso_complexes",
                          "complexes.iso_complexes.found")):
        calls = metrics[f"{group}.calls"]
        metrics[f"{group}.found_ratio"] = cnt[found] / calls if calls else 0.0
    metrics["trace.untraced_s"] = (wall_ns - top_ns) / 1e9
    return {
        "metrics": metrics,
        "spans": n,
        "min_self_ns": min_self,
        "sum_self_ns": sum(s for _, s in by_name.values()),
        "wall_ns": wall_ns,
        "by_name": {k: {"calls": c, "self_s": s / 1e9}
                    for k, (c, s) in sorted(by_name.items(),
                                            key=lambda kv: -kv[1][1])},
    }


def dump(tracer: Tracer, path) -> None:
    """Write the spans as gzipped JSON lines: [name, start_ns, end_ns, parent]."""
    with gzip.open(path, "wt") as fh:
        for rec in zip(tracer.names, tracer.starts, tracer.ends,
                       tracer.parents):
            fh.write(json.dumps(rec) + "\n")
