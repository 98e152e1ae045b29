"""Spans around torusflow's layers, installed from outside at run time.

``Tracer.install()`` replaces each traced callable with a wrapper that
records a span (name, start, end, parent, operation id) in memory, and
``Tracer.uninstall()`` puts every original back.  No torusflow source is
edited.  Names imported into a calling module are patched where they are
called (``torusflow.verifier.min_distance_batch``, ``torusflow.flow.
torus_closure``, ...), methods on their class.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from torusflow import cli, exactlinalg, flow, specfile, verifier
from torusflow.flats import CurveImage
from torusflow.lattice import Lattice
from torusflow.numberfield import AlgebraicNumber
from torusflow.verifier import ComponentEvaluator

# (owner, attribute, span name); the order is the order of installation
SPANNED = (
    (cli, "main", "cli"),
    (cli, "load_problem", "specfile.parse"),
    (specfile, "NumberField", "numberfield.field_init"),
    (cli, "flow_set", "flow.flow_set"),
    (flow, "variety_asymptotic_flats", "asymptotics.flats"),
    (flow, "torus_closure", "lattice.torus_closure"),
    (exactlinalg, "rref", "exactlinalg.rref"),
    (cli, "run_verification", "verifier.run"),
    (verifier, "sample_far_points", "verifier.sample"),
    (verifier, "min_distance_batch", "kernels.distance"),
    (verifier, "containment_check", "verifier.containment"),
    (verifier, "coverage_check", "verifier.coverage"),
    (ComponentEvaluator, "__init__", "verifier.evaluator_init"),
    (ComponentEvaluator, "distances", "verifier.containment"),
    (ComponentEvaluator, "base_cells", "verifier.base_cells"),
    (ComponentEvaluator, "torus_cells", "verifier.torus_cells"),
    (Lattice, "reduce_points", "lattice.reduce_points"),
    (CurveImage, "sample_at", "flats.curve_sample"),
)
# counted only: a span per field multiplication would swamp the exact layer
COUNTED = (
    (AlgebraicNumber, "__mul__", "numberfield.mul"),
    (AlgebraicNumber, "__rmul__", "numberfield.mul"),
)


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op_id = None
        self._stack = []
        self._saved = []

    # -- recording ----------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_after(self, name):
        counts = self.counts

        def after(args, result):
            counts[name + "_calls"] += 1
            if name == "kernels.distance":
                pts, offs, nodes = args[:3]
                counts["kernels.pair_evals"] += len(pts) * len(offs) * len(nodes)
            elif name == "lattice.reduce_points":
                counts["lattice.reduce_points_rows"] += len(result[0])
            elif name == "verifier.evaluator_init":
                counts["verifier.translates"] += len(args[0].offsets)
            elif name == "flow.flow_set":
                counts["flow.components"] += len(result.components)
            elif name == "verifier.run":
                total = sum(s["samples"] for s in result.per_shell)
                escaped = sum(s["escaped"] for s in result.per_shell)
                counts["verifier.samples"] += total
                counts["verifier.in_window"] += total - escaped

        return after

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANNED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._spanned(name, fn, self._count_after(name)))
        for owner, attr, name in COUNTED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counted(name + "_calls", fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def originals_restored():
    """True when no traced attribute still holds a tracer wrapper."""
    return all(
        getattr(owner.__dict__[attr], "__qualname__", "").split(".")[0] != "Tracer"
        for owner, attr, _ in SPANNED + COUNTED
    )


def layer_metrics(tracer, ops):
    """Per-layer metrics for ``ops`` traced operations (per operation)."""
    self_s = tracer.self_times()
    c = tracer.counts
    per_op = max(ops, 1)

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    return {
        "kernels.distance_s": (self_s["kernels.distance"] / per_op, "s/op"),
        "kernels.distance_calls": (c["kernels.distance_calls"] / per_op, "count/op"),
        "kernels.pair_evals": (c["kernels.pair_evals"] / per_op, "count/op"),
        "verifier.base_cells_s": (self_s["verifier.base_cells"] / per_op, "s/op"),
        "verifier.torus_cells_s": (self_s["verifier.torus_cells"] / per_op, "s/op"),
        "verifier.sample_s": (self_s["verifier.sample"] / per_op, "s/op"),
        "verifier.samples": (c["verifier.samples"] / per_op, "count/op"),
        "verifier.run_self_s": (self_s["verifier.run"] / per_op, "s/op"),
        "verifier.in_window_ratio": (ratio("verifier.in_window", "verifier.samples"), "ratio"),
        "verifier.evaluator_init_s": (self_s["verifier.evaluator_init"] / per_op, "s/op"),
        "verifier.translates": (
            ratio("verifier.translates", "verifier.evaluator_init_calls"), "count"),
        "verifier.containment_s": (self_s["verifier.containment"] / per_op, "s/op"),
        "verifier.coverage_s": (self_s["verifier.coverage"] / per_op, "s/op"),
        "flats.curve_sample_s": (self_s["flats.curve_sample"] / per_op, "s/op"),
        "lattice.reduce_points_s": (self_s["lattice.reduce_points"] / per_op, "s/op"),
        "lattice.reduce_points_rows": (
            c["lattice.reduce_points_rows"] / per_op, "count/op"),
        "numberfield.field_init_s": (
            self_s["numberfield.field_init"] / per_op, "s/op"),
        "numberfield.field_init_calls": (
            c["numberfield.field_init_calls"] / per_op, "count/op"),
        "numberfield.mul_calls": (c["numberfield.mul_calls"] / per_op, "count/op"),
        "exactlinalg.rref_s": (self_s["exactlinalg.rref"] / per_op, "s/op"),
        "exactlinalg.rref_calls": (c["exactlinalg.rref_calls"] / per_op, "count/op"),
        "lattice.torus_closure_s": (self_s["lattice.torus_closure"] / per_op, "s/op"),
        "lattice.torus_closure_calls": (
            c["lattice.torus_closure_calls"] / per_op, "count/op"),
        "asymptotics.flats_s": (self_s["asymptotics.flats"] / per_op, "s/op"),
        "flow.flow_set_s": (self_s["flow.flow_set"] / per_op, "s/op"),
        "flow.components": (c["flow.components"] / per_op, "count/op"),
        "specfile.parse_s": (self_s["specfile.parse"] / per_op, "s/op"),
        "cli.self_s": (self_s["cli"] / per_op, "s/op"),
    }
