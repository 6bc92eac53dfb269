"""In-memory span recorder for the traced benchmark run.

``install`` wraps the public entry points of each troplag module (the
layers) in spans: name, start, end, parent span and job.  A span's self
time is its duration minus the time its child spans cover.  Counts are
taken from argument and result sizes at the same boundaries, and an
exception leaving a span adds one to ``<layer>.errors``.  Nothing here
changes the program's results: a wrapper calls the original and returns
its value.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("polyhedral", "tropical", "lift", "pants", "coamoeba", "toric", "svg",
          "verify", "cli")
SUITES = ("hessian", "boundary", "region", "equivariance", "legendre",
          "decomposition", "appendix", "theorem41", "maslov", "exactness",
          "topology", "monotone")

# Entry points per layer; "Class.*" stands for every public method of the
# class and "*" for every public function and method of the module.
ENTRY_POINTS = {
    "polyhedral": ("regular_subdivision", "discrete_legendre"),
    "tropical": ("tropical_hypersurface", "is_smooth"),
    "lift": ("default_schedule", "validate_schedule", "smooth_lift",
             "PLLift.sample", "symplectic_residual", "hausdorff_distance",
             "LagrangianMesh.to_off", "LagrangianMesh.to_obj"),
    "pants": ("PantsMap.*", "ProjectionPair.fiber_solve"),
    "coamoeba": ("*",),
    "toric": ("lift_topology",),
    "svg": ("draw_curve_and_subdivision",),
    "verify": tuple(f"verify_{s}" for s in SUITES),
    "cli": ("main",),
}


def _rows(y):
    import numpy as np  # imported late: run.py pins BLAS threads first
    a = np.asarray(y)
    return 1 if a.ndim < 2 else a.shape[0]


def _count_subdivision(c, args, kwargs, S):
    c["polyhedral.lattice_points"] += len(S.polytope.lattice_points)
    c["polyhedral.cells"] += len(S.cells)


def _count_curve(c, args, kwargs, X):
    c["tropical.vertices"] += len(X.vertices)
    c["tropical.edges"] += len(X.edges)


def _count_mesh(c, args, kwargs, mesh):
    c["lift.mesh_points"] += sum(len(p.points) for p in mesh.pieces)
    c["lift.mesh_bytes"] += sum(p.points.nbytes + p.frames.nbytes for p in mesh.pieces)


def _count_export(c, args, kwargs, result):
    c["lift.export_bytes"] += os.path.getsize(kwargs.get("path", args[1]))


COUNTERS = {
    "polyhedral.regular_subdivision": _count_subdivision,
    "tropical.tropical_hypersurface": _count_curve,
    "pants.PantsMap.hessian": lambda c, a, k, r: c.update({"pants.hessian_rows": _rows(a[1])}),
    "pants.PantsMap.h": lambda c, a, k, r: c.update({"pants.h_rows": _rows(a[1])}),
    "lift.smooth_lift": _count_mesh,
    "lift.PLLift.sample": lambda c, a, k, r: c.update({"lift.pl_points": len(r)}),
    "lift.hausdorff_distance": lambda c, a, k, r: c.update(
        {"lift.hausdorff_points": len(a[0]) + len(a[1])}),
    "lift.LagrangianMesh.to_off": _count_export,
    "lift.LagrangianMesh.to_obj": _count_export,
}


class Recorder:
    """Spans and counts of the traced jobs, kept in memory until written."""

    def __init__(self):
        self.spans = []      # (job, id, parent, name, start, end, self_s)
        self.jobs = []       # per-job totals: {"self": ..., "calls": ..., "counts": ...}
        self._stack = []     # open spans: [id, name, start, child_seconds]
        self._job = None
        self._next_id = 0

    def begin_job(self, job):
        self._job = job
        self._self, self._calls, self.counts = Counter(), Counter(), Counter()

    def end_job(self):
        self.jobs.append({"self": self._self, "calls": self._calls, "counts": self.counts})

    def open(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def close(self):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((self._job, sid, parent[0] if parent else None, name,
                           start, end, dur - child))
        self._self[name] += dur - child
        self._calls[name] += 1

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for job, sid, parent, name, start, end, self_s in self.spans:
                fh.write(json.dumps({"job": job, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "self_s": self_s}) + "\n")


def _wrap(rec, span, fn, count):
    layer = span.split(".", 1)[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.open(span)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec.counts[f"{layer}.errors"] += 1
            raise
        finally:
            rec.close()
        if count is not None:
            count(rec.counts, args, kwargs, result)
        return result
    return traced


def _public_functions(owner, module_name):
    for attr, value in vars(owner).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module_name):
            yield attr, value


def _targets(layer, mod):
    """(owner, attribute, qualified name, function) for each entry point."""
    for entry in ENTRY_POINTS[layer]:
        if entry == "*":
            owners = [mod] + [c for c in vars(mod).values()
                              if inspect.isclass(c) and c.__module__ == mod.__name__
                              and not c.__name__.startswith("_")]
        elif entry.endswith(".*"):
            owners = [getattr(mod, entry[:-2])]
        else:
            cls, _, attr = entry.rpartition(".")
            owner = getattr(mod, cls) if cls else mod
            yield owner, attr, entry, vars(owner)[attr]
            continue
        for owner in owners:
            prefix = "" if owner is mod else owner.__name__ + "."
            for attr, fn in _public_functions(owner, mod.__name__):
                yield owner, attr, prefix + attr, fn


def install(rec):
    """Wrap every entry point; returns a function that undoes it."""
    undo = []
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"troplag.{layer}")
        for owner, attr, qual, fn in list(_targets(layer, mod)):
            span = f"{layer}.{qual}"
            w = _wrap(rec, span, fn, COUNTERS.get(span))
            undo.append((owner, attr, fn))
            setattr(owner, attr, w)
            if owner is mod:
                wrappers[id(fn)] = w
    # rebind the names other modules took with "from .module import name",
    # and the suite table, which holds the suite functions themselves
    loaded = [m for n, m in list(sys.modules.items())
              if n == "troplag" or n.startswith("troplag.")]
    tables = [importlib.import_module("troplag.verify").SUITES]
    for ns in [vars(m) for m in loaded] + tables:
        for attr, value in list(ns.items()):
            w = wrappers.get(id(value))
            if w is not None and ns.get(attr) is not w:
                undo.append((ns, attr, value))
                ns[attr] = w

    def restore():
        for owner, attr, fn in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
    return restore


def _layer_total(table, layer):
    return sum(v for k, v in table.items() if k.startswith(layer + "."))


def job_metrics(job):
    """Per-layer metric values of one traced job: name -> (value, unit)."""
    s, calls, c = job["self"], job["calls"], job["counts"]
    out = {
        "polyhedral.regular_subdivision_s": (s["polyhedral.regular_subdivision"], "s"),
        "polyhedral.discrete_legendre_s": (s["polyhedral.discrete_legendre"], "s"),
        "polyhedral.lattice_points": (c["polyhedral.lattice_points"], "count"),
        "polyhedral.cells": (c["polyhedral.cells"], "count"),
        "tropical.tropical_hypersurface_s": (s["tropical.tropical_hypersurface"], "s"),
        "tropical.is_smooth_s": (s["tropical.is_smooth"], "s"),
        "tropical.vertices": (c["tropical.vertices"], "count"),
        "tropical.edges": (c["tropical.edges"], "count"),
        "lift.default_schedule_s": (s["lift.default_schedule"], "s"),
        "lift.validate_schedule_s": (s["lift.validate_schedule"], "s"),
        "pants.self_s": (_layer_total(s, "pants"), "s"),
        "pants.hessian_s": (s["pants.PantsMap.hessian"], "s"),
        "pants.hessian_calls": (calls["pants.PantsMap.hessian"], "count"),
        "pants.hessian_rows": (c["pants.hessian_rows"], "count"),
        "pants.h_rows": (c["pants.h_rows"], "count"),
        "pants.fiber_solve_s": (s["pants.ProjectionPair.fiber_solve"], "s"),
        "lift.smooth_lift_s": (s["lift.smooth_lift"], "s"),
        "lift.mesh_points": (c["lift.mesh_points"], "count"),
        "lift.mesh_bytes": (c["lift.mesh_bytes"], "B"),
        "lift.pl_sample_s": (s["lift.PLLift.sample"], "s"),
        "lift.pl_points": (c["lift.pl_points"], "count"),
        "lift.hausdorff_distance_s": (s["lift.hausdorff_distance"], "s"),
        "lift.hausdorff_points": (c["lift.hausdorff_points"], "count"),
        "lift.symplectic_residual_s": (s["lift.symplectic_residual"], "s"),
        "lift.export_s": (s["lift.LagrangianMesh.to_off"]
                          + s["lift.LagrangianMesh.to_obj"], "s"),
        "lift.export_bytes": (c["lift.export_bytes"], "B"),
        "coamoeba.self_s": (_layer_total(s, "coamoeba"), "s"),
        "coamoeba.calls": (_layer_total(calls, "coamoeba"), "count"),
        "toric.lift_topology_s": (s["toric.lift_topology"], "s"),
        "svg.draw_s": (s["svg.draw_curve_and_subdivision"], "s"),
    }
    for suite in SUITES:
        out[f"verify.{suite}_s"] = (s[f"verify.verify_{suite}"], "s")
    out["cli.self_s"] = (_layer_total(s, "cli"), "s")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
    return out
