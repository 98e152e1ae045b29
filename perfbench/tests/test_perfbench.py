"""Tests of the benchmark itself: generators, answers, trace coverage.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, run, tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = {g: (ROOT / "problems" / f"{g}.tfp").read_text() for g in run.GOLDEN}


def _det(m):
    rows = [[Fraction(x) for x in r] for r in m]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return 0
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_unimodular_has_unit_determinant_and_small_entries(n):
    for index in range(20):
        m = inputs.unimodular(inputs.op_rng("t", 0, index), n)
        assert abs(_det(m)) == 1
        assert max(abs(x) for r in m for x in r) <= inputs.MAX_BASIS_ENTRY


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_repeat_exactly_per_seed(workload):
    cycle, make_op = run.workload_ops(workload, GOLDEN)
    first = [make_op(7, i) for i in range(2 * cycle)]
    assert first == [make_op(7, i) for i in range(2 * cycle)]
    assert first != [make_op(8, i) for i in range(2 * cycle)]


def test_verify_cells_skews_every_other_operation():
    cycle, make_op = run.workload_ops("verify-cells", GOLDEN)
    ops = [make_op(3, i) for i in range(2 * cycle)]
    skewed = [op.name.endswith("+skew") for op in ops]
    never = sum(name in inputs.NEVER_SKEWED for name in inputs.CELLS_CYCLE)
    assert sum(skewed) == cycle - never
    for op in ops:
        if not op.name.endswith("+skew"):
            assert op.spec_text == GOLDEN[op.name]


@pytest.mark.parametrize("workload", ["verify-cells", "verify-curve"])
def test_known_defect_inputs_stay_out_of_the_timed_loop(workload):
    cycle, make_op = run.workload_ops(workload, GOLDEN)
    make_defect = run.defect_ops(workload, GOLDEN)
    defects = [make_defect(5, i) for i in range(run.DEFECT_OPS)]
    assert defects == [make_defect(5, i) for i in range(run.DEFECT_OPS)]
    timed = {make_op(5, i).name for i in range(2 * cycle)}
    assert {op.name for op in defects}.isdisjoint(timed)


def test_known_defect_inputs_give_well_formed_reports(tmp_path):
    runner = run.Runner(tmp_path)
    tally = run.Tally()
    for workload in ("verify-cells", "verify-curve"):
        make_defect = run.defect_ops(workload, GOLDEN)
        for index in range(2):
            tally.run(runner, make_defect(0, index), index)
    assert tally.malformed == 0 and tally.samples > 0


def test_expected_torus_dims_prunes_contained_components():
    line = [[1, 0]]
    full = [[1, 0], [0, 1]]
    c0, c1 = [Fraction(0), Fraction(0)], [Fraction(1, 3), Fraction(2, 7)]
    # a line inside the full torus is absorbed; two disjoint lines are not
    assert inputs.expected_torus_dims([line, full], [c0, c1], 2) == (2,)
    assert inputs.expected_torus_dims([line, line], [c0, c1], 2) == (1, 1)
    assert inputs.expected_torus_dims([line, line], [c0, c0], 2) == (1,)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_first_cycle_gives_the_known_answers(workload, tmp_path):
    cycle, make_op = run.workload_ops(workload, GOLDEN)
    runner = run.Runner(tmp_path)
    tally = run.Tally()
    for index in run.op_indices(cycle, count=cycle):
        tally.run(runner, make_op(0, index), index)
    assert len(tally.latencies) == cycle
    assert tally.malformed == 0
    assert tally.failures == []
    if workload.startswith("verify"):
        assert tally.samples > 0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["verify-curve", "closure-exact"])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0.01",
                  "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert f"{name}: " in proc.stdout
    metrics = result["metrics"]
    if workload == "verify-curve":
        for name in ("kernels.distance_s", "verifier.base_cells_s",
                     "flats.curve_sample_s", "lattice.reduce_points_rows"):
            assert metrics[name]["value"] > 0, name
    else:
        for name in ("exactlinalg.rref_s", "numberfield.mul_calls",
                     "lattice.torus_closure_calls", "flow.components"):
            assert metrics[name]["value"] > 0, name
        assert metrics["kernels.distance_calls"]["value"] == 0


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _bench("--workload", "closure-exact", "--seed", "1", "--seconds", "0.01",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in BENCH["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    assert "fail_ratio: " in proc.stdout


def test_tracer_restores_every_patched_callable():
    from torusflow import cli, verifier

    before = (cli.main, verifier.min_distance_batch,
              verifier.ComponentEvaluator.__init__)
    with tracing.Tracer():
        assert not tracing.originals_restored()
        assert cli.main is not before[0]
    assert tracing.originals_restored()
    assert (cli.main, verifier.min_distance_batch,
            verifier.ComponentEvaluator.__init__) == before


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(run.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "verify-cells", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_scale_uses_the_nearest_reference_times():
    from perfbench import speed

    ref = speed.Speed("python")
    ref.times = [0.01] * speed.WINDOW + [0.04] * speed.WINDOW
    assert ref.scale(0) == pytest.approx(speed.REFERENCE_S / 0.01)
    assert ref.scale(len(ref.times)) == pytest.approx(speed.REFERENCE_S / 0.04)
    ref.measure()
    assert ref.scale_latest() == speed.REFERENCE_S / ref.times[-1]
