"""Containment distances over the projected lattice Lambda': the float LLL
and its exact certificate, distances equal to brute-force minima over all of
Lambda, the same verdict on every basis of Lambda, the size guard, and the
dimension ladder in memory-limited child processes."""

import csv
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from torusflow import verifier
from torusflow.cli import main
from torusflow.flats import CurveImage, Flat, PointSet
from torusflow.flow import predicted_flow
from torusflow.lattice import Lattice, Subspace, lll_reduce
from torusflow.numberfield import NumberField, rationals
from torusflow.specfile import load_problem
from torusflow.verifier import ComponentEvaluator, SampleConfig

from oracles import brute_force_evaluator_distances, int_det

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def QQ():
    return rationals()


@pytest.fixture(scope="module")
def K():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


def unimodular(rng, n, bound):
    """A random n x n integer matrix of determinant +-1 with entries in
    [-bound, bound]: elementary row operations kept while they stay within
    the bound, then random row signs."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(n, 12 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        row = [a + c * b for a, b in zip(m[i], m[j])]
        if max(abs(x) for x in row) <= bound:
            m[i] = row
    return [[-x for x in row] if rng.random() < 0.5 else row for row in m]


# ---------------------------------------------------------------------------
# The float LLL and the exact certificate
# ---------------------------------------------------------------------------


def test_lll_sends_the_relation_of_a_skewed_basis_to_zero():
    # the basis (13, 8), (8, 5) of Z^2 projected onto the y-axis
    U, zero = lll_reduce([[8.0], [5.0]])
    assert zero == 1
    assert abs(int_det(U)) == 1
    assert 8 * U[0][0] + 5 * U[0][1] == 0
    assert abs(8 * U[1][0] + 5 * U[1][1]) == 1


def test_lll_reduces_a_skewed_basis_of_independent_rows():
    rows = np.array([[7.0, 5.0], [4.0, 3.0]]) @ np.array([[1.0, 0.0], [0.5, 2.0]])
    U, zero = lll_reduce(rows)
    assert zero == 0 and abs(int_det(U)) == 1
    reduced = np.asarray(U, dtype=float) @ rows
    assert np.allclose(sorted(np.linalg.norm(reduced, axis=1)), [1.0, 2.0615528128088303])


def _line_evaluator(field, lat, direction):
    """The evaluator of an affine base through 0 along ``direction``."""
    space = Subspace(2, [direction], field)
    comps = [(Flat([0, 0], space), Subspace(2, [], field), "line")]
    [comp] = predicted_flow(comps, lat, "real").components
    return ComponentEvaluator(comp, lat, SampleConfig())


def test_a_projection_that_is_not_discrete_keeps_the_box(K):
    # Z^2 projected along (1, sqrt 2) is dense in the normal line: no
    # lattice vector lies on the line, so the LLL's shrinking rows fail
    # the exact check, and the 9 x 9 box stays
    lat = Lattice(2, [[1, 0], [0, 1]], K)
    ev = _line_evaluator(K, lat, [1, K.gen])
    assert ev.projected is None
    assert len(ev.offsets) == 81


def test_a_rational_projection_is_certified(QQ):
    # along (1, 1) on the basis (13, 8), (8, 5): Lambda' is generated by the
    # projection of (1, 0), of length 1 / sqrt 2, and N holds the 3 points
    # around 0
    lat = Lattice(2, [[13, 8], [8, 5]], QQ)
    ev = _line_evaluator(QQ, lat, [1, 1])
    assert ev.projected.rank == 1
    assert np.allclose(ev.projected.gram, [[0.5]])
    assert sorted(ev.offsets[:, 0] ** 2) == pytest.approx([0.0, 0.5, 0.5])


# ---------------------------------------------------------------------------
# Distances against brute force
# ---------------------------------------------------------------------------


def _random_component(rng, QQ, kind):
    """(lattice, evaluator) of a random component: a lattice of rank 1-4 on
    a skewed basis of a random integer one, W spanned by lattice vectors,
    and a point, affine or curve base with small integer data."""
    r = int(rng.integers(1, 5))
    n = r + int(rng.integers(0, 3))
    while True:
        B0 = rng.integers(-2, 3, size=(r, n))
        if np.linalg.matrix_rank(B0) == r:
            break
    U = np.array(unimodular(random.Random(int(rng.integers(1 << 30))), r, 12))
    lat = Lattice(n, (U @ B0).tolist(), QQ)
    W = Subspace(n, (rng.integers(-2, 3, size=(int(rng.integers(0, r)), r)) @ B0).tolist(), QQ)
    if kind == "points":
        base = PointSet(
            [[Fraction(int(x), 3) for x in p] for p in rng.integers(-6, 7, size=(3, n))], QQ
        )
    elif kind == "affine":
        dirs = rng.integers(-2, 3, size=(int(rng.integers(1, 3)), n))
        base = Flat([Fraction(int(x), 5) for x in rng.integers(-9, 10, size=n)],
                    Subspace(n, dirs.tolist(), QQ))
    else:
        c = rng.uniform(-2.0, 2.0, size=(3, n))
        base = CurveImage(lambda u: c[0] + np.outer(u, c[1]) + np.outer(u * u, c[2]), (-2, 2))
    [comp] = predicted_flow([(base, W, kind)], lat, "real").components
    return lat, ComponentEvaluator(comp, lat, SampleConfig(curve_nodes=200))


def _queries(rng, lat, far):
    """Reduced rows: lattice-span parts up to 40 basis lengths out, and
    transverse parts within the window, or up to 1e6 when ``far``."""
    B = lat.float_basis()
    m = 60
    rows = rng.uniform(-40.0, 40.0, size=(m, len(B))) @ B
    normal = np.linalg.svd(B)[2][len(B):]
    if len(normal):
        size = 10.0 ** rng.uniform(1, 6, size=m) if far else rng.uniform(0, 9.0, size=m)
        dirs = rng.normal(size=(m, len(normal))) @ normal
        rows += dirs / np.linalg.norm(dirs, axis=1)[:, None] * size[:, None]
    return lat.reduce_points(rows)[0]


@pytest.mark.parametrize("kind", ["points", "affine", "curve"])
@pytest.mark.parametrize("far", [False, True], ids=["in-window", "far"])
def test_distances_equal_brute_force(QQ, kind, far):
    # the brute force takes every translate of a box of coordinates over an
    # exactly derived basis of Lambda' that holds each query's minimiser
    rng = np.random.default_rng([7, len(kind), far])
    # the curve's brute force refines row by row, so it takes fewer cases
    for _ in range(6 if kind == "curve" else 12):
        lat, ev = _random_component(rng, QQ, kind)
        reduced = _queries(rng, lat, far)
        got, _ = ev.distances(reduced)
        want = brute_force_evaluator_distances(ev, reduced)
        # far out one ulp of a coordinate passes 1e-12, so the bound there
        # is relative to the query's size
        scale = 1.0 + np.abs(reduced).max(axis=1) if far else 1.0
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@pytest.mark.parametrize("min_run, pairs", [(1, 1 << 20), (10**9, 1 << 20), (10**9, 0)])
def test_every_grouping_of_the_queries_gives_the_same_answer(QQ, monkeypatch, min_run, pairs):
    # runs alone, all runs in shared calls, and every run alone for its
    # pairs: each (query, translate, node) triple rounds alike in each
    rng = np.random.default_rng(11)
    cases = [_random_component(rng, QQ, kind) for kind in ("points", "curve") * 3]
    queries = [_queries(rng, lat, far) for (lat, _), far in zip(cases, [False, True] * 3)]
    expected = [ev.distances(r) for (_, ev), r in zip(cases, queries)]
    monkeypatch.setattr(verifier, "_MIN_RUN", min_run)
    monkeypatch.setattr(verifier, "_LOCAL_PAIRS", pairs)
    for (_, ev), r, (d, i) in zip(cases, queries, expected):
        got, got_i = ev.distances(r)
        assert np.array_equal(got, d) and np.array_equal(got_i, i)


def test_dinh_vu_sample_rows_equal_brute_force(tmp_path):
    # every row of the CSV, escaped ones included: their transverse parts
    # reach about 8e5, far outside any fixed box of translates
    spec = load_problem(ROOT / "problems" / "dinh_vu.tfp")
    out = tmp_path / "s.csv"
    assert main(["sample", str(ROOT / "problems" / "dinh_vu.tfp"), "--seed", "1",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    cols = [i for i, name in enumerate(rows[0]) if name.startswith("reduced_")]
    shell = np.array([int(r[0]) for r in rows[1:]])
    reduced = np.array([[float(r[i]) for i in cols] for r in rows[1:]])
    got = np.array([float(r[-1]) for r in rows[1:]])
    want = np.full(len(got), np.inf)
    for comp in spec.predicted_flow().components:
        ev = ComponentEvaluator(comp, spec.lattice, spec.sample_config)
        for s in np.unique(shell):
            # the sampler measures each shell in one call, and the curve
            # refine picks its rows per call
            sel = shell == s
            want[sel] = np.minimum(want[sel], brute_force_evaluator_distances(ev, reduced[sel]))
    assert np.max(np.abs(reduced)) > 5e5
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Basis invariance (ROADMAP item 3)
# ---------------------------------------------------------------------------


def _with_rows(text, rows):
    head, rest = text.split("[lattice]\n", 1)
    rest = "".join(line + "\n" for line in rest.splitlines() if not line.startswith("row ="))
    body = "".join("row = (" + ", ".join(map(str, r)) + ")\n" for r in rows)
    return head + "[lattice]\n" + body + rest


def _lattice_rows(text):
    return [
        [int(x) for x in line[line.index("(") + 1 : line.rindex(")")].split(",")]
        for line in text.splitlines()
        if line.startswith("row =")
    ]


def _verify(tmp_path, name, text):
    path = tmp_path / f"{name}.tfp"
    path.write_text(text)
    code = main(["verify", str(path)])
    report = json.loads((tmp_path / f"{name}.tfp.report.json").read_text())
    return code, report


def test_skewed_hyperbola_passes(tmp_path, capsys):
    text = (ROOT / "problems" / "hyperbola.tfp").read_text()
    code, report = _verify(tmp_path, "skewed", _with_rows(text, [[13, 8], [8, 5]]))
    assert code == 0 and report["passed"]
    assert capsys.readouterr().out.startswith("PASS: containment=9.981e-03")


@pytest.mark.parametrize("name", ["hyperbola", "irrational_direction", "plane_cylinder"])
def test_verdict_and_distance_do_not_depend_on_the_basis(tmp_path, name):
    # 20 unimodular basis changes with entries up to 50 (Chen, Cheung and
    # Yiu's metamorphic relations, 1998)
    text = (ROOT / "problems" / f"{name}.tfp").read_text()
    if name == "plane_cylinder":
        # a smaller sample of the same plane; the verdict stays PASS
        text = text.replace("count = 100000", "count = 20000")
    rows = _lattice_rows(text)
    code, report = _verify(tmp_path, "plain", text)
    rng = random.Random(f"basis/{name}")
    for i in range(20):
        u = unimodular(rng, len(rows), 50)
        skewed = [[sum(a * b for a, b in zip(ui, col)) for col in zip(*rows)] for ui in u]
        got_code, got = _verify(tmp_path, f"skew{i}", _with_rows(text, skewed))
        assert (got_code, got["passed"]) == (code, report["passed"])
        assert got["max_containment_distance"] == pytest.approx(
            report["max_containment_distance"], abs=1e-9
        )


# ---------------------------------------------------------------------------
# The size guard and the dimension ladder (ROADMAP item 18)
# ---------------------------------------------------------------------------


def test_a_candidate_set_past_the_guard_exits_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verifier, "MAX_TRANSLATES", 2)
    path = tmp_path / "h.tfp"
    path.write_text((ROOT / "problems" / "hyperbola.tfp").read_text())
    assert main(["verify", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "candidate translates, more than 2" in err


def test_a_box_past_the_guard_exits_with_one_line(K, monkeypatch):
    monkeypatch.setattr(verifier, "MAX_TRANSLATES", 80)
    lat = Lattice(2, [[1, 0], [0, 1]], K)
    with pytest.raises(Exception, match="81 translates in the coefficient box"):
        _line_evaluator(K, lat, [1, K.gen])


def ladder_problem(n):
    """The branch (t, 1/t, 3t, 1/t, 5t, ...) over Z^n; its closure is one
    circle along (1, 0, 3, 0, 5, ...), so Lambda' has rank n - 1."""
    coords = [f"{i + 1}*t" if i % 2 == 0 else "1/t" for i in range(n)]
    rows = "".join(
        "row = (" + ", ".join("1" if j == i else "0" for j in range(n)) + ")\n"
        for i in range(n)
    )
    return (
        "schema = 1\n[field]\nmin_poly = x\n[space]\nmode = real\n"
        f"ambient_dim = {n}\ndeclared_dim = 1\n[lattice]\n{rows}"
        f"[variety]\nbranch = ({', '.join(coords)})\n"
        "[verify]\nseed = 1\ncount = 2000\nradius_min = 1000\ntolerance = 0.01\n"
        "grid_eps = 0.05\ncoverage_threshold = 0.95\nwindow = 10\nshells = 4\n"
    )


def run_limited(argv, limit=1 << 30):
    """(exit status, stdout, stderr, wall seconds, peak RSS in MB) of a child
    ``python -m torusflow`` whose address space ``RLIMIT_AS`` caps; the
    limit is set in the child alone, before it runs."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "torusflow", *argv], env=env, preexec_fn=cap,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, err = child.communicate(timeout=600)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return child.returncode, out, err, wall, peak


@pytest.mark.parametrize("n", [4, 6, 8])
def test_dimension_ladder_in_a_memory_limit(tmp_path, n):
    path = tmp_path / f"ladder{n}.tfp"
    path.write_text(ladder_problem(n))
    code, out, err, _, _ = run_limited(["verify", str(path)])
    # a negative status is a kill by a signal, as an out-of-memory kill is
    assert code >= 0
    if n < 8 or code == 0:
        assert code == 0 and out.startswith("PASS"), err
    else:
        assert code == 4 and err.count("\n") == 1, err
