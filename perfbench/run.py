#!/usr/bin/env python3
"""End-to-end benchmark of the torusflow CLI, with an optional layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-cells --seed 1 --seconds 50 --trace 0

Workloads (single process, closed loop: one operation at a time, the next
sent when the previous returns):

* ``verify-cells``  -- ``verify`` on the real golden problems; every other
  operation re-presents the lattice by a seeded unimodular basis.
* ``verify-curve``  -- ``verify`` on curve-based predictions: dinh_vu, its
  mutant, and plane_cylinder's limit set given as a curve or half of it.
* ``closure-exact`` -- ``closure`` on generated symbolic problems with known
  torus dimensions.

Each operation is one in-process call of ``torusflow.cli.main`` on a fresh
copy of its problem file under ``.perfbench/``, so ``problems/`` is never
written.  Answers are checked after the clock stops, against the expected
answers of ``perfbench.inputs``.  Operations run in whole cycles of the
workload's input mix until ``--seconds`` have passed and at least
``MIN_OPS`` operations are done.

``--trace 0`` prints the end-to-end metrics; times and rates are scaled to
the machine's speed during the run (see ``perfbench.speed``).  ``--trace 1`` runs every
operation twice, once plain and once with spans around each layer (see
``perfbench.tracing``), alternating which goes first; the wrappers are
installed only around the traced call.  It prints the per-layer metrics and
the tracing overhead, and writes the spans to
``.perfbench/spans-<workload>-<seed>.jsonl``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

``failed`` counts operations whose exit code or answer differs from the known
one, or that raised; ``fail_ratio`` is failed / attempted.  ``correct`` is
false when an output needed for the check is missing or malformed.

Inputs on which torusflow is known to answer wrongly now and then are not in
the timed loop: ``--trace 0`` runs ``DEFECT_OPS`` of them after it, untimed,
and prints their share of wrong answers as ``known_defect.fail_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
# p90 needs at least 10 operations above it
MIN_OPS = 100
DEFECT_OPS = 24
GOLDEN = (
    "parabola",
    "hyperbola",
    "irrational_direction",
    "plane_cylinder",
    "dinh_vu",
    "dinh_vu_mutated",
)
WORKLOADS = ("verify-cells", "verify-curve", "closure-exact")
# the reference computation that follows the machine's speed for each
# workload (perfbench/speed.py): verify-cells spends its time in the
# interpreter (parsing, exact arithmetic, numpy on batches of 10^4 points),
# verify-curve in numpy on large batches, closure-exact in exact arithmetic
SPEED_REFERENCE = {
    "verify-cells": "python",
    "verify-curve": "numpy",
    "closure-exact": "python",
}
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import torusflow.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def workload_ops(name, golden):
    """(cycle length, op(seed, index)) for a workload's timed loop."""
    from perfbench import inputs

    if name == "verify-cells":
        return len(inputs.CELLS_CYCLE), lambda s, i: inputs.verify_cells_op(golden, s, i)
    if name == "verify-curve":
        return len(inputs.CURVE_CYCLE), lambda s, i: inputs.verify_curve_op(golden, s, i)
    return len(inputs.CLOSURE_CYCLE), inputs.closure_exact_op


def defect_ops(name, golden):
    """op(seed, index) of the workload's known-defect inputs, or None."""
    from perfbench import inputs

    if name == "verify-cells":
        return lambda s, i: inputs.cells_defect_op(golden, s, i)
    if name == "verify-curve":
        return lambda s, i: inputs.curve_defect_op(golden, s, i)
    return None


# ---------------------------------------------------------------------------
# One operation
# ---------------------------------------------------------------------------


class Runner:
    """Writes, times and checks operations in one scratch directory."""

    def __init__(self, workdir):
        from torusflow import cli

        self.cli = cli
        self.spec = workdir / "op.tfp"
        self.outputs = {
            "verify": Path(str(self.spec) + ".report.json"),
            "closure": Path(str(self.spec) + ".closure.json"),
        }

    def prepare(self, op):
        for out in self.outputs.values():
            out.unlink(missing_ok=True)
        self.spec.write_text(op.spec_text)

    def call(self, op):
        """Time one CLI call; returns (seconds, exit code or None, error)."""
        sink = io.StringIO()
        argv = op.argv(str(self.spec))
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an operation that raised is a failed one
                code = None
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        return elapsed, code, error

    def check(self, op, code):
        """(answer matches, samples verified); raises if an output is malformed."""
        if code is None:
            return False, 0
        out = self.outputs[op.kind]
        if op.kind == "verify":
            if code not in (0, 5):
                return False, 0
            report = json.loads(out.read_text())
            samples = sum(int(s["samples"]) for s in report["per_shell"])
            ok = code == op.expect_exit and report["passed"] is op.expect_passed
            if op.expect_containment is not None:
                ok = ok and report["containment_passed"] is op.expect_containment
            return ok, samples
        if code != 0:
            return False, 0
        closure = json.loads(out.read_text())
        dims = tuple(sorted(int(c["torus_dim"]) for c in closure["components"]))
        return code == op.expect_exit and dims == op.expect_torus_dims, 0


class Tally:
    """Latencies and answers of a sequence of operations."""

    def __init__(self):
        self.latencies = []
        self.names = []
        self.failed = 0
        self.malformed = 0
        self.samples = 0
        self.failures = []

    def run(self, runner, op, index, tracer=None):
        """Write, time and check one operation; spans only if ``tracer``."""
        runner.prepare(op)
        if tracer is None:
            elapsed, code, error = runner.call(op)
        else:
            tracer.op_id = index
            with tracer:
                elapsed, code, error = runner.call(op)
        self.latencies.append(elapsed)
        self.names.append(op.name)
        try:
            ok, samples = runner.check(op, code)
        except (OSError, ValueError, KeyError, TypeError):
            ok, samples = False, 0
            self.malformed += 1
        self.samples += samples
        if not ok:
            self.failed += 1
            self.failures.append((index, op.name, code, error))


def op_indices(cycle, seconds=None, count=None, min_ops=0):
    """Operation indices in whole cycles until ``count``, or until ``seconds``
    have passed and at least ``min_ops`` were yielded."""
    deadline = time.perf_counter() + seconds if seconds is not None else None
    index = 0
    while True:
        if index % cycle == 0 and index:
            if count is not None and index >= count:
                return
            if (deadline is not None and index >= min_ops
                    and time.perf_counter() >= deadline):
                return
        yield index
        index += 1


# ---------------------------------------------------------------------------
# Set-up, environment, statistics
# ---------------------------------------------------------------------------


def setup_once(runner, make_op, seed, cycle):
    """Import probe + generating one cycle of inputs + one warm-up call each."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
        text=True, timeout=120, check=True,
    )
    import_s = float(probe.stdout.strip().splitlines()[-1])
    gen_start = time.perf_counter()
    first = {}
    for i in range(cycle):
        op = make_op(seed, i)
        first.setdefault(op.name, op)
    for op in first.values():
        runner.prepare(op)
        runner.call(op)
    # the probe's interpreter start-up is not set-up of this benchmark
    return import_s + (time.perf_counter() - gen_start)


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy

    from torusflow._kernels import backend_name

    return {
        "backend": backend_name(),
        "TORUSFLOW_THREADS": os.environ.get("TORUSFLOW_THREADS", "unset"),
        "TORUSFLOW_PURE": os.environ.get("TORUSFLOW_PURE", "unset"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "torusflow" / "__init__.py").is_file() or not all(
        (ROOT / "problems" / f"{g}.tfp").is_file() for g in GOLDEN
    ):
        print("error: run from the root of a torusflow source checkout "
              "(src/torusflow and problems/ not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent.parent)]
    import torusflow

    if Path(torusflow.__file__).resolve().parent != (ROOT / "src" / "torusflow").resolve():
        print(f"error: imported torusflow from {torusflow.__file__}", file=sys.stderr)
        return 2

    golden = {g: (ROOT / "problems" / f"{g}.tfp").read_text() for g in GOLDEN}
    cycle, make_op = workload_ops(args.workload, golden)
    scratch = ROOT / ".perfbench"
    workdir = scratch / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        from perfbench.speed import Speed

        runner = Runner(workdir)
        # set-up time goes mostly to the warm-up calls on large batches, so
        # it is scaled by the numpy reference timed right after it
        setup_speed = Speed("numpy")
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds = setup_once(runner, make_op, args.seed, cycle)
            setup_speed.measure()
            setups.append((seconds, seconds * setup_speed.scale_latest()))
        speed = Speed(SPEED_REFERENCE[args.workload])
        env = environment()
        print("environment: " + json.dumps(env, sort_keys=True))
        if args.trace:
            result = traced_run(runner, make_op, args, cycle, scratch)
        else:
            result = untraced_run(runner, make_op, args, cycle, setups, speed)
            make_defect = defect_ops(args.workload, golden)
            if make_defect is not None:
                defects = Tally()
                for index in range(DEFECT_OPS):
                    defects.run(runner, make_defect(args.seed, index), index)
                report_answers(defects, "known_defect.")
                # a wrong verdict here is known; a malformed report is not
                result["correct"] = result["correct"] and defects.malformed == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def report_answers(tally, prefix=""):
    attempted = len(tally.latencies)
    print(f"{prefix}operations: {attempted}, {prefix}failed: {tally.failed}, "
          f"{prefix}fail_ratio: {tally.failed / attempted:.4f} (share of operations)")
    for index, name, code, error in tally.failures:
        print(f"  wrong answer: op {index} {name} exit={code}")
        if error:
            print("    " + error.strip().replace("\n", "\n    "))


def time_metrics(latencies, names, setups):
    """The end-to-end time metrics of a run."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    # the run's operations, each at its kind's median latency: a load burst
    # moves a median less than a mean
    by_kind = {}
    for name, seconds in zip(names, latencies):
        by_kind.setdefault(name, []).append(seconds)
    typical_s = sum(statistics.median(by_kind[name]) for name in names)
    return {
        "latency_s.p50": deciles[4],
        "latency_s.p90": deciles[8],
        "throughput_ops_s": len(latencies) / typical_s,
        "setup_s": statistics.median(setups),
    }


def untraced_run(runner, make_op, args, cycle, setups, speed):
    tally = Tally()
    marks = []
    for index in op_indices(cycle, seconds=args.seconds, min_ops=MIN_OPS):
        tally.run(runner, make_op(args.seed, index), index)
        marks.append(speed.position())
        speed.after_op(tally.latencies[-1])
    speed.measure()
    lat = tally.latencies
    measured = time_metrics(lat, tally.names, [s for s, _ in setups])
    # times at the reference speed of the machine (see perfbench/speed.py)
    scaled = time_metrics(
        [s * speed.scale(m) for s, m in zip(lat, marks)],
        tally.names,
        [s for _, s in setups],
    )
    metrics = {
        "latency_s.p50": (scaled["latency_s.p50"], "s"),
        "latency_s.p90": (scaled["latency_s.p90"], "s"),
        "throughput_ops_s": (scaled["throughput_ops_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (scaled["setup_s"], "s"),
    }
    print(f"speed reference: {speed.reference}, {len(speed.times)} times, "
          f"median {statistics.median(speed.times):.6g} s")
    for name, (value, unit) in metrics.items():
        raw = f" (measured {measured[name]:.6g})" if name in measured else ""
        print(f"{name}: {value:.6g} {unit}{raw}")
    if tally.samples:
        print(f"samples_per_s: {tally.samples / sum(lat):.6g} 1/s "
              f"(far samples verified per second of operation time, measured)")
    report_answers(tally)
    return result_json(tally, metrics)


def traced_run(runner, make_op, args, cycle, scratch):
    """Each operation untraced and traced, alternating which goes first."""
    from perfbench import tracing

    tracer = tracing.Tracer()
    plain, traced = Tally(), Tally()
    for index in op_indices(cycle, seconds=args.seconds / 2):
        op = make_op(args.seed, index)
        if index % 2:
            traced.run(runner, op, index, tracer)
            plain.run(runner, op, index)
        else:
            plain.run(runner, op, index)
            traced.run(runner, op, index, tracer)
        if not tracing.originals_restored():
            raise RuntimeError("a traced callable was not restored")
    tracer.dump(scratch / f"spans-{args.workload}-{args.seed}.jsonl")
    count = len(traced.latencies)
    metrics = tracing.layer_metrics(tracer, count)
    overhead = sum(traced.latencies) / sum(plain.latencies) - 1.0
    metrics["tracing.overhead_ratio"] = (overhead, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(f"traced {count} operations: {sum(traced.latencies):.4f} s, "
          f"the same untraced: {sum(plain.latencies):.4f} s")
    report_answers(traced)
    return result_json(traced, metrics)


def result_json(tally, metrics):
    return {
        "correct": tally.malformed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
