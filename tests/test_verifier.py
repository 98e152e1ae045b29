"""Far-point sampling, containment, coverage, shells, orbits."""

import dataclasses
import inspect
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torusflow import _kernels, verifier
from torusflow._kernels import min_distance_batch
from torusflow.cli import main
from torusflow.errors import ShellStarved, TorusflowError
from torusflow.flats import (
    CurveImage,
    Flat,
    GraphPiece,
    PointSet,
    VarietyInput,
)
from torusflow.flow import flow_set, predicted_flow
from torusflow.lattice import Lattice, Subspace, torus_closure
from torusflow.numberfield import NumberField, rationals
from torusflow.specfile import parse_problem
from torusflow.verifier import (
    ComponentEvaluator,
    SampleConfig,
    containment_check,
    coverage_check,
    distinct_rows,
    run_verification,
    sample_far_points,
    shell_stability,
)

from oracles import (
    box_offsets,
    branch,
    orbit_coverage,
    same_bits,
    stacked_hit_counts,
    subspace_orbit,
)


@pytest.fixture(scope="module")
def QQ():
    return rationals()


@pytest.fixture(scope="module")
def K():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


def hyperbola(field):
    return VarietyInput(
        [
            branch([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], field),
            branch([({-1: 1}, {0: 1}), ({1: 1}, {0: 1})], field),
        ],
        2,
        "real",
        1,
        field,
    )


class TestSampling:
    def test_deterministic(self, QQ):
        cfg = SampleConfig(radius_min=100, count=400, seed=9)
        X = hyperbola(QQ)
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        a = sample_far_points(X, cfg, lat)
        b = sample_far_points(X, cfg, lat)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.internal, sb.internal)

    def test_seed_changes_stream(self, QQ):
        X = hyperbola(QQ)
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        a = sample_far_points(X, SampleConfig(radius_min=100, count=400, seed=1), lat)
        b = sample_far_points(X, SampleConfig(radius_min=100, count=400, seed=2), lat)
        assert not np.array_equal(a[0].internal, b[0].internal)

    def test_norms_respect_shells(self, QQ):
        cfg = SampleConfig(radius_min=100, count=400, seed=3)
        shells = sample_far_points(hyperbola(QQ), cfg, Lattice(2, [[1, 0], [0, 1]], QQ))
        for sh in shells:
            norms = np.linalg.norm(sh.internal, axis=1)
            assert np.all(norms >= sh.radius)

    def test_parabola_scaling(self, QQ):
        # points (t, t^2) with norm >= R have |t| >= ~sqrt(R)
        X = VarietyInput(
            [branch([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)],
            2, "real", 1, QQ,
        )
        cfg = SampleConfig(radius_min=1000, count=100, seed=0, shells=1)
        (shell,) = sample_far_points(X, cfg, Lattice(2, [[1, 0], [0, 1]], QQ))
        ts = np.array([p[0].real for p in shell.params])
        assert np.all(np.abs(ts) >= 0.9 * np.sqrt(1000))

    def test_bounded_piece_starves(self, QQ):
        bounded = branch(
            [({-1: 1}, {0: 1}), ({-2: 1}, {0: 1})], QQ
        )
        X = VarietyInput([bounded], 2, "real", 1, QQ)
        cfg = SampleConfig(radius_min=1000, count=16, seed=0, shells=1)
        with pytest.raises(ShellStarved):
            sample_far_points(X, cfg, Lattice(2, [[1, 0], [0, 1]], QQ))

    def test_quota_cap_is_the_first_draw_cap(self, QQ, monkeypatch):
        # with a cap of 2048 draws a piece may own 1024 samples per shell:
        # hyperbola's two pieces fill one shell of 2048, and one more sample
        # is refused as a setting instead of starving the shell
        # (the cap bounds curve_nodes as well, hence curve_nodes=2048)
        monkeypatch.setattr(verifier, "MAX_DRAWS", 2048)
        X, lat = hyperbola(QQ), Lattice(2, [[1, 0], [0, 1]], QQ)
        one_shell = dict(shells=1, curve_nodes=2048)
        (shell,) = sample_far_points(X, SampleConfig(count=2048, **one_shell), lat)
        assert len(shell.internal) == 2048
        with pytest.raises(TorusflowError, match="count must be at most 2048"):
            sample_far_points(X, SampleConfig(count=2049, **one_shell), lat)

    def test_graph_sampling(self, QQ):
        g = GraphPiece(
            2,
            lambda v: np.stack([v[:, 0], v[:, 1], v[:, 0] * v[:, 1]], axis=-1),
        )
        X = VarietyInput([g], 3, "complex", 2, QQ)
        cfg = SampleConfig(radius_min=100, count=64, seed=4, shells=2)
        shells = sample_far_points(X, cfg, Lattice(6, np.eye(6, dtype=int).tolist(), QQ))
        assert all(len(sh.internal) == 32 for sh in shells)
        assert shells[0].internal.shape[1] == 6


class TestContainment:
    def test_hyperbola_bound(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=2000, seed=8)
        shells = sample_far_points(X, cfg, lat)
        pts = np.vstack([sh.internal for sh in shells])
        reduced, _, _ = lat.reduce_points(pts)
        evaluators = [ComponentEvaluator(c, lat, cfg) for c in fd.components]
        max_d, dists, worst = containment_check(
            reduced, [ev.distances(reduced) for ev in evaluators]
        )
        assert max_d <= 1.0 / 100.0 + 1e-12

    def test_wrong_prediction_detected(self, QQ):
        # prediction with only one circle misses the other branch
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        single = predicted_flow(
            [(PointSet([[0, 0]], QQ), Subspace(2, [[1, 0]], QQ), "only-x")],
            lat,
            "real",
        )
        cfg = SampleConfig(radius_min=100, count=2000, seed=8)
        report = run_verification(X, lat, single, cfg)
        assert not report.passed
        assert report.max_containment_distance > cfg.tolerance

    def test_empty_prediction_with_accumulation_fails(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        empty = predicted_flow([], lat, "real")
        cfg = SampleConfig(radius_min=100, count=500, seed=8)
        report = run_verification(X, lat, empty, cfg)
        assert report.mismatch_flag
        assert not report.passed

    def test_parabola_vacuous_pass(self, QQ):
        X = VarietyInput(
            [branch([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)],
            2, "real", 1, QQ,
        )
        lat = Lattice(2, [[1, 0]], QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=1000, count=2000, seed=7)
        report = run_verification(X, lat, fd, cfg)
        assert report.passed
        assert report.escaped_mass == 1.0
        assert not report.mismatch_flag
        assert all(s["new_cells"] == 0 for s in report.per_shell)


class TestCoverage:
    def test_two_circles_covered(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=10000, seed=6)
        shells = sample_far_points(X, cfg, lat)
        pts = np.vstack([sh.internal for sh in shells])
        reduced, _, _ = lat.reduce_points(pts)
        evaluators = [ComponentEvaluator(c, lat, cfg) for c in fd.components]
        fractions, _ = coverage_check(
            reduced, cfg, evaluators, [ev.distances(reduced) for ev in evaluators]
        )
        assert all(f >= 0.95 for f in fractions)

    def test_rational_line_closed_orbit(self, K):
        # span{(1,2)}: closure is a circle, orbit covers it and nothing else
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        V = Subspace(2, [[1, 2]], K)
        tc = torus_closure(V, lat)
        assert tc.torus_dim == 1
        pts = subspace_orbit(V, lat, 10000, seed=13)
        cov, off = orbit_coverage(tc, lat, pts, 0.05)
        assert cov >= 0.95
        assert off <= 1e-9


class TestShellStability:
    def test_containment_monotone_over_shells(self, QQ):
        # branch decay: the per-shell max distance shrinks as radii double
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=4000, seed=12)
        report = run_verification(X, lat, fd, cfg)
        maxima = [s["max_distance"] for s in report.per_shell]
        assert all(a >= b for a, b in zip(maxima, maxima[1:]))

    def test_new_cells_stabilize(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=8000, seed=2)
        report = run_verification(X, lat, fd, cfg)
        counts = [s["new_cells"] for s in report.per_shell]
        assert counts[-1] <= counts[0] * 0.2 + 2

    def test_monotone_union(self):
        shells = [
            np.array([[0, 0], [1, 0]]),
            np.array([[1, 0], [2, 0]]),
            np.array([[2, 0]]),
        ]
        assert shell_stability(shells) == [2, 1, 0]


class TestOrbits:
    def test_irrational_line_full_torus(self, K):
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        V = Subspace(2, [[K.one, K.gen]], K)
        tc = torus_closure(V, lat)
        pts = subspace_orbit(V, lat, 10000, seed=5)
        cov, off = orbit_coverage(tc, lat, pts, 0.05)
        assert cov >= 0.95
        assert off <= 1e-9

    def test_symmetric_plane_no_off_fiber(self, K):
        lat = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
        V = Subspace(3, [[K.one, K.one, K.gen]], K)
        tc = torus_closure(V, lat)
        assert tc.torus_dim == 2
        pts = subspace_orbit(V, lat, 10000, seed=6)
        cov, off = orbit_coverage(tc, lat, pts, 0.05)
        assert cov >= 0.95
        assert off <= 1e-6


class TestReportDeterminism:
    def test_identical_reports(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=1000, seed=20)
        r1 = run_verification(X, lat, fd, cfg)
        r2 = run_verification(X, lat, fd, cfg)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("name", ["hyperbola", "plane_cylinder"])
    def test_to_dict_matches_asdict(self, name):
        # to_dict shares the fields' lists and dicts; asdict copies them
        spec = parse_problem(open(f"problems/{name}.tfp").read())
        cfg = spec.sample_config
        cfg.count = 2000
        fd = flow_set(spec.variety, spec.lattice)
        report = run_verification(spec.variety, spec.lattice, fd, cfg)
        copied = {"schema_version": 2, **dataclasses.asdict(report)}
        assert json.dumps(report.to_dict(), indent=2, sort_keys=True) == json.dumps(
            copied, indent=2, sort_keys=True
        )

    def test_residuals_reported(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=500, seed=21)
        report = run_verification(X, lat, fd, cfg)
        assert report.residual_max <= 1e-9

    def test_torus_dims_exact(self, K):
        # V = span{(1, 1, sqrt2)}; the smallest rational subspace holding it
        # is span{(1, 1, 0), (0, 0, 1)}, so the closure is a 2-torus
        lat = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
        X = VarietyInput(
            [
                branch(
                    [({1: 1}, {0: 1}), ({1: 1}, {0: 1}), ({1: K.gen}, {0: 1})], K
                )
            ],
            3,
            "real",
            1,
            K,
        )
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=500, seed=22)
        report = run_verification(X, lat, fd, cfg)
        assert report.torus_dims == [2]
        assert report.to_dict()["schema_version"] == 2


# plane_cylinder's limit set predicted as the curve (0, u), u in (-10, hi):
# hi = 10 is the whole in-window limit set, hi = 0 only half of it
CYLINDER_CURVE = """schema = 1
[field]
min_poly = x
[space]
mode = real
ambient_dim = 2
declared_dim = 2
[lattice]
row = (1, 0)
[variety]
affine = point (0, 0) dirs (1, 0) (0, 1)
[flow]
component = base curve u in (-10, {hi}) : (0, u) ; span r(1, 0)
[verify]
seed = 3
count = 6000
radius_min = 100
tolerance = 0.01
grid_eps = 0.2
coverage_threshold = 0.95
window = 10
shells = 4
curve_nodes = 4000
"""


def refined_rows(ev, dists):
    """The rows ``_refine_curve`` refines: the 4096 roughest rough ones."""
    worst = np.nonzero(dists > 0.25 * ev.cfg.tolerance)[0]
    if len(worst) > 4096:
        worst = worst[np.argsort(dists[worst])[-4096:]]
    return worst


def in_cell_zero(ev, pts):
    """(pts, classes): projected samples moved into cell 0, and their slack
    classes, as ``distances`` hands them to ``_refine_curve``."""
    _, cls = ev.projected.cells(pts, ev.node_reach)
    return ev.projected.recentre(pts), cls


def refine_per_sample(ev, pts, dists, node_idx):
    """Reference for the batched refine: one kernel call per rough sample,
    against the coefficient box of translates the refine searched before
    the projected-lattice search (``oracles.box_offsets``)."""
    spacing = ev.curve_params[1] - ev.curve_params[0]
    lo, hi = ev.comp.base.param_range
    offsets = box_offsets(ev.lat, ev.proj)
    out = dists.copy()
    for idx in refined_rows(ev, dists):
        p0 = ev.curve_params[node_idx[idx]]
        local = np.linspace(max(p0 - spacing, lo), min(p0 + spacing, hi), 33)
        red, _, _ = ev.lat.reduce_points(ev.comp.base.sample_at(local))
        d, _ = min_distance_batch(pts[idx : idx + 1], offsets, red @ ev.proj.T)
        out[idx] = min(out[idx], d[0])
    return out


def curve_case(name):
    """(evaluator, projected samples, rough distances, nearest nodes) of a
    curve component on the far samples of its problem: the cylinder's half
    curve, with 4531 rough rows, 4096 of them refined, at 2 distinct nodes,
    or dinh_vu's complex curve-plus, with 686 rough rows at 44 distinct nodes.
    The rough distances are those of the coefficient box of translates, as
    the evaluator measured them before the projected-lattice search.
    """
    if name == "half-curve":
        text = CYLINDER_CURVE.format(hi=0)
    else:
        text = open("problems/dinh_vu.tfp").read()
    spec = parse_problem(text)
    cfg, lat = spec.sample_config, spec.lattice
    reduced = np.vstack(
        [lat.reduce_points(sh.internal)[0]
         for sh in sample_far_points(spec.variety, cfg, lat)]
    )
    ev = ComponentEvaluator(spec.predicted_flow().components[0], lat, cfg)
    pts = reduced @ ev.proj.T
    dists, node_idx = min_distance_batch(pts, box_offsets(lat, ev.proj), ev.nodes)
    return ev, pts, dists, node_idx, reduced


class TestCurveBase:
    def test_batched_refine_matches_per_sample_loop(self):
        ev, pts, dists, node_idx, _ = curve_case("half-curve")
        batched = ev._refine_curve(*in_cell_zero(ev, pts), dists, node_idx)
        reference = refine_per_sample(ev, pts, dists, node_idx)
        # every refined row lies past an end of the curve, whose end node is
        # nearest, so a window cut off at that end finds nothing nearer
        assert len(refined_rows(ev, dists)) == 4096
        assert np.array_equal(batched, dists)
        assert np.array_equal(batched, reference)

    def test_batched_refine_matches_per_sample_loop_on_a_complex_curve(self):
        ev, pts, dists, node_idx, _ = curve_case("complex-curve")
        batched = ev._refine_curve(*in_cell_zero(ev, pts), dists, node_idx)
        reference = refine_per_sample(ev, pts, dists, node_idx)
        # 37 of the 686 refined rows come nearer, all at inner nodes; none
        # of the 644 at the curve's end nodes can
        nearer = batched < dists
        assert np.sum(nearer) > 30
        assert not np.any(nearer & np.isin(node_idx, [0, len(ev.curve_params) - 1]))
        assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("case", ["half-curve", "complex-curve"])
    def test_refine_evaluates_one_window_per_distinct_node(self, monkeypatch, case):
        ev, pts, dists, node_idx, _ = curve_case(case)
        sizes = []
        sample_at = CurveImage.sample_at

        def spy(self, params):
            sizes.append(len(params))
            return sample_at(self, params)

        monkeypatch.setattr(CurveImage, "sample_at", spy)
        ev._refine_curve(*in_cell_zero(ev, pts), dists, node_idx)
        rows = refined_rows(ev, dists)
        nodes = len(np.unique(node_idx[rows]))
        assert len(rows) > nodes > 1
        assert sizes == [33 * nodes]

    @pytest.mark.parametrize("case", ["half-curve", "complex-curve"])
    def test_distances_equal_the_coefficient_box(self, case):
        # each row moved into cell 0 and each window handed to the kernel
        # once; the distances and nodes are those of the box
        ev, pts, dists, node_idx, reduced = curve_case(case)
        new, new_idx = ev.distances(reduced)
        assert np.array_equal(new_idx, node_idx)
        assert np.array_equal(new, refine_per_sample(ev, pts, dists, node_idx))

    def test_refine_window_stops_at_the_end_of_the_curve(self, tmp_path, capsys):
        # every sample lies 0.004 from the curve's end u = 0; a window that
        # ran one node spacing (10/3999) past that end measured 1.5e-3 and
        # passed at tolerance 0.003
        text = CYLINDER_CURVE.format(hi=0)
        text = text.replace("affine = point (0, 0) dirs (1, 0) (0, 1)",
                            "affine = point (0, 4/1000) dirs (1, 0)")
        head = text.split("[verify]")[0]
        path = tmp_path / "curve_end.tfp"
        path.write_text(head + "[verify]\ntolerance = 0.003\ncoverage_threshold = 0.0\n"
                        "count = 4000\ncurve_nodes = 4000\nseed = 1\n")
        assert main(["verify", str(path)]) == 5
        assert capsys.readouterr().out.startswith("FAIL: containment=4.000e-03")

    @pytest.mark.parametrize("hi, code", [(10, 0), (0, 5)])
    def test_whole_curve_passes_half_curve_fails(self, tmp_path, capsys, hi, code):
        path = tmp_path / "curve.tfp"
        path.write_text(CYLINDER_CURVE.format(hi=hi))
        assert main(["verify", str(path)]) == code
        out = capsys.readouterr().out
        assert out.startswith("PASS" if code == 0 else "FAIL")


# a curve in R^4 over the rank-one lattice Z x 0: its projection along the
# lattice has three coordinates, and 10^4 nodes, so in-window samples reach
# the kd leaves
DIAGONAL_CURVE = """schema = 1
[field]
min_poly = x
[space]
mode = real
ambient_dim = 4
declared_dim = 2
[lattice]
row = (1, 0, 0, 0)
[variety]
affine = point (0, 0, 0, 0) dirs (1, 0, 0, 0) (0, 1, 1, 1)
[flow]
component = base curve u in (-10, 10) : (0, u, u, u) ; span r(1, 0, 0, 0)
[verify]
count = 1000
"""


def test_kd_leaves_write_the_scan_report(tmp_path, capsys, monkeypatch):
    path = tmp_path / "diagonal.tfp"
    path.write_text(DIAGONAL_CURVE)
    report = tmp_path / "diagonal.tfp.report.json"
    queries = []
    leaves = _kernels._leaves

    def spy(points, targets):
        queries.append(points.shape)
        return leaves(points, targets)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "_leaves", spy)
        code = main(["verify", str(path)])
    indexed = capsys.readouterr(), report.read_bytes()
    assert queries and all(q == 3 for _, q in queries)
    with monkeypatch.context() as m:
        m.setattr(_kernels, "uses_index", lambda *shape: False)
        assert main(["verify", str(path)]) == code
    assert (capsys.readouterr(), report.read_bytes()) == indexed


# ---------------------------------------------------------------------------
# Array-at-a-time sampler and cells against per-sample references
# ---------------------------------------------------------------------------


def sample_per_index(X, cfg, lat):
    """Reference for the sampler's keep step: accepted draws appended one
    index at a time.  Returns per shell (params, internal), params as a list
    of tuples; also the number of rejected draws."""
    per_shell = -(-cfg.count // cfg.shells)
    shells, rejected = [], 0
    for shell, radius in enumerate(cfg.radius_schedule()):
        quota = [per_shell // len(X.pieces)] * len(X.pieces)
        for i in range(per_shell - sum(quota)):
            quota[i] += 1
        params, internals = [], []
        for pi, piece in enumerate(X.pieces):
            need = quota[pi]
            rng = verifier._rng(cfg, shell, pi)
            got = 0
            while got < need:
                draw = max(1024, 2 * (need - got))
                if piece.kind == "branch":
                    # fresh rays and frames for every draw: the sampler's
                    # cached ones must give the same draws
                    build = verifier._draw_branch(
                        piece, verifier._branch_rays(piece), draw, radius, rng,
                        X.mode,
                    )
                elif piece.kind == "affine":
                    frame = verifier._affine_frame(piece, lat)
                    build = verifier._draw_affine(
                        frame, draw, radius, rng, cfg.window
                    )
                else:
                    build = verifier._draw_graph(piece, draw, radius, rng, X.mode)
                # every row of the draw, not only those the sampler builds
                p, internal = build(0, draw)
                ok = np.linalg.norm(internal, axis=1) >= radius
                rejected += int(np.sum(~ok))
                for idx in np.nonzero(ok)[0]:
                    if got >= need:
                        break
                    got += 1
                    params.append(tuple(p[idx]))
                    internals.append(internal[idx])
        shells.append((params, np.array(internals)))
    return shells, rejected


def _branch(QQ, coords, rays=None):
    return branch(
        [({e: Fraction(c)}, {0: 1}) for e, c in coords], QQ, rays=rays
    )


def _sampler_cases(QQ):
    """(name, variety, lattice, params width, config) of each sampler case."""
    lat2 = Lattice(2, [[1, 0], [0, 1]], QQ)
    # (t/30, 1/t): accepted only for t >= 30 R, about half of the draws
    slow = [(1, Fraction(1, 30)), (-1, 1)]
    rays = VarietyInput(
        [_branch(QQ, slow, rays=[1, -1])], 2, "complex", 1, QQ
    )
    # (t/794, 1/t): accepted for t >= 794 R, about 1 draw in 30, so the
    # quota's rows fall short and every quota takes several draws
    sparse = VarietyInput(
        [_branch(QQ, [(1, Fraction(1, 794)), (-1, 1)])], 2, "real", 1, QQ
    )
    affine = VarietyInput(
        [Flat([3, 0, 0], Subspace(3, [[1, 0, 0], [0, 1, 1]], QQ))],
        3, "real", 2, QQ,
    )
    graph = VarietyInput(
        [GraphPiece(
            2,
            lambda v: np.stack([v[:, 0], v[:, 1], v[:, 0] * v[:, 1]], axis=-1),
        )],
        3, "complex", 2, QQ,
    )
    mixed = VarietyInput(
        [
            _branch(QQ, slow),
            GraphPiece(2, lambda v: v.copy()),
            Flat([0, 1], Subspace(2, [[1, 1]], QQ)),
        ],
        2, "real", 2, QQ,
    )
    lat3 = Lattice(3, [[1, 0, 0], [0, 1, 0]], QQ)

    def cfg(count=4003):
        return SampleConfig(radius_min=100, count=count, seed=11, shells=2)

    return [
        ("branch-rays", rays, lat2, 1, cfg()),
        ("affine", affine, lat3, 1, cfg()),
        ("graph", graph, Lattice(3, np.eye(3, dtype=int).tolist(), QQ), 2, cfg()),
        ("mixed", mixed, lat2, 2, cfg()),
        ("branch-sparse", sparse, lat2, 1, cfg()),
        # two samples per shell for three pieces: the affine piece gets none
        ("mixed-tiny", mixed, lat2, 2, cfg(count=3)),
    ]


def _record_builds(monkeypatch):
    """Patch the draw helpers to record, per draw, its size and the row
    ranges built from it; returns the list of (size, ranges) pairs."""
    draws = []
    for name in ("_draw_branch", "_draw_affine", "_draw_graph"):
        original = getattr(verifier, name)
        signature = inspect.signature(original)

        def recording(*args, _original=original, _signature=signature):
            ranges = []
            draws.append((_signature.bind(*args).arguments["count"], ranges))
            build = _original(*args)

            def recorded(lo, hi):
                ranges.append((lo, hi))
                return build(lo, hi)

            return recorded

        monkeypatch.setattr(verifier, name, recording)
    return draws


class TestArraySampler:
    @pytest.mark.parametrize("case", range(6))
    def test_keeps_the_per_index_draws(self, QQ, case):
        name, X, lat, width, cfg = _sampler_cases(QQ)[case]
        shells = sample_far_points(X, cfg, lat)
        reference, rejected = sample_per_index(X, cfg, lat)
        if name != "affine":
            assert rejected > 0
        for sh, (params, internal) in zip(shells, reference):
            assert sh.params.shape == (len(params), width)
            for row, ref in zip(sh.params, params):
                assert np.array_equal(row[: len(ref)], np.array(ref))
                assert np.all(np.isnan(row[len(ref):]))
            assert np.array_equal(sh.internal, internal)
            assert sh.internal.dtype == float

    @pytest.mark.parametrize("case", range(6))
    def test_builds_each_row_at_most_once(self, QQ, monkeypatch, case):
        name, X, lat, _, cfg = _sampler_cases(QQ)[case]
        draws = _record_builds(monkeypatch)
        sample_far_points(X, cfg, lat)
        assert draws
        for size, ranges in draws:
            # consecutive ranges from row 0, none past the draw
            assert ranges[0][0] == 0
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert ranges[-1][1] <= size
        if name == "branch-sparse":
            assert len(draws) > 2 * cfg.shells
            assert all(len(ranges) == 2 for _, ranges in draws)

    def test_rays_converted_once_per_piece(self, QQ, monkeypatch):
        X = VarietyInput(
            [
                _branch(QQ, [(1, Fraction(1, 794)), (-1, 1)], rays=[1, -1]),
                _branch(QQ, [(-1, 1), (1, 1)], rays=[1]),
            ],
            2, "complex", 1, QQ,
        )
        converted = []
        rays = verifier._branch_rays
        monkeypatch.setattr(
            verifier, "_branch_rays",
            lambda piece: converted.append(piece) or rays(piece),
        )
        draws = _record_builds(monkeypatch)
        cfg = SampleConfig(radius_min=100, count=4003, seed=11, shells=2)
        sample_far_points(X, cfg, Lattice(2, [[1, 0], [0, 1]], QQ))
        assert len(draws) > 2 * len(X.pieces)
        assert converted == X.pieces

    def test_all_accepted_evaluates_only_the_quota(self, QQ):
        X = hyperbola(QQ)
        rows = []
        for piece in X.pieces:
            piece.evaluate = (
                lambda t, _piece=piece, _evaluate=piece.evaluate:
                rows.append((_piece, len(t))) or _evaluate(t)
            )
        cfg = SampleConfig(radius_min=100, count=4003, seed=11, shells=2)
        shells = sample_far_points(X, cfg, Lattice(2, [[1, 0], [0, 1]], QQ))
        # 2002 samples per shell, 1001 per piece, every one outside the ball
        assert [len(sh.internal) for sh in shells] == [2002, 2002]
        assert rows == [(piece, 1001) for _ in range(2) for piece in X.pieces]

    def test_mixed_widths_in_csv(self, QQ, tmp_path):
        _, X, lat, _, _ = _sampler_cases(QQ)[3]
        cfg = SampleConfig(radius_min=100, count=12, seed=2, shells=1)
        shells = sample_far_points(X, cfg, lat)
        out = tmp_path / "mixed.csv"
        assert verifier.write_sample_csv(out, shells, lat, None, cfg) == 12
        header, *rows = out.read_text().splitlines()
        assert header.startswith("shell_index,param_0,param_1,raw_0")
        widths = {len(row.split(",")) for row in rows}
        assert widths == {len(header.split(","))}
        # branch rows carry one parameter, graph rows two
        assert rows[0].split(",")[2] == "" and rows[4].split(",")[2] != ""


class TestAffineFrame:
    @pytest.mark.parametrize("shells", [1, 4])
    def test_one_intersection_per_piece(self, QQ, monkeypatch, shells):
        X = VarietyInput(
            [
                Flat([3, 0, 0], Subspace(3, [[1, 0, 0], [0, 1, 1]], QQ)),
                Flat([0, 0, 1], Subspace(3, [[0, 1, 0]], QQ)),
            ],
            3, "real", 2, QQ,
        )
        lat = Lattice(3, [[1, 0, 0], [0, 1, 0]], QQ)
        calls = []
        intersect = Subspace.intersect

        def counted(self, other):
            calls.append(self)
            return intersect(self, other)

        monkeypatch.setattr(Subspace, "intersect", counted)
        cfg = SampleConfig(radius_min=100, count=3000 * shells, seed=4, shells=shells)
        sample_far_points(X, cfg, lat)
        # one draw per shell and piece: affine draws all land outside the ball
        assert calls == [p.directions for p in X.pieces]


NEAR_PARALLEL = """schema = 1
[field]
min_poly = x
[space]
mode = real
ambient_dim = 3
declared_dim = 2
[lattice]
row = (0, 0, 1)
[variety]
affine = point (0, 0, 0) dirs (1, 0, 0) (0, 1, 0)
[flow]
component = base affine point (0, 0, 0) dirs (1, 10^-12, 0) ; span r(1, 0, 0)
"""


class TestExactRanks:
    def test_projection_keeps_a_near_parallel_direction(self):
        # W + D is exactly the xy-plane, though its float rows are 1e-12
        # from parallel; distances are measured along z alone
        spec = parse_problem(NEAR_PARALLEL)
        lat = spec.lattice
        [comp] = spec.predicted_flow().components
        ev = ComponentEvaluator(comp, lat, spec.sample_config)
        reduced, _, _ = lat.reduce_points(np.array([[0.0, 5.0, 0.3], [3.0, -2.0, 0.0]]))
        assert np.allclose(ev.distances(reduced)[0], [0.3, 0.0], rtol=0.0, atol=1e-12)

    def test_affine_frame_rows_match_the_plane(self, QQ):
        # inside the lattice span lies one of the plane's two directions; a
        # float rank of the rest sees the rounding left by the long lattice
        # vector as a second direction
        piece = Flat([0, 0, 0], Subspace(3, [[1, 0, 10**6], [0, 1, 0]], QQ))
        lat = Lattice(3, [[1, 0, 10**6], [0, 0, 1]], QQ)
        _, din, _, out_f = verifier._affine_frame(piece, lat)
        assert (din, len(out_f)) == (1, 1)


def test_long_rank_one_vector_matches_brute_force(QQ):
    # |b| = 5 > 1 + tolerance: the translates still hold every nearest one
    lat = Lattice(2, [[3, 4]], QQ)
    pts = [[0, 0], [1, 2]]
    comps = [(PointSet(pts, QQ), Subspace(2, [], QQ), "points")]
    fd = predicted_flow(comps, lat, "real")
    cfg = SampleConfig()
    ev = ComponentEvaluator(fd.components[0], lat, cfg)
    rng = np.random.default_rng(5)
    raw = rng.uniform(-50.0, 50.0, size=(500, 2))
    reduced, _, _ = lat.reduce_points(raw)
    b = np.array([3.0, 4.0])
    k = np.arange(-20, 21)[:, None, None]
    targets = (np.array(pts, dtype=float)[None] + k * b).reshape(-1, 2)
    brute = np.linalg.norm(reduced[:, None, :] - targets[None], axis=2).min(axis=1)
    assert np.allclose(ev.distances(reduced)[0], brute, rtol=0.0, atol=1e-12)


def _cell_rows(d):
    return st.lists(
        st.tuples(*[st.integers(-3, 3)] * d), max_size=12
    ).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, d))


shell_lists = st.integers(1, 4).flatmap(
    lambda d: st.lists(_cell_rows(d), min_size=1, max_size=5)
)


def lexsort_first(rows):
    """Reference for distinct_rows: first occurrences by a stable sort."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    return order[first]


@st.composite
def cell_arrays(draw):
    """Integer rows whose column spans multiply to either side of the
    table cut-off 4 * rows + 4096, some far from zero or negative."""
    n = draw(st.integers(0, 300))
    d = draw(st.integers(1, 3))
    w = draw(st.integers(1, 2 * math.ceil((4 * n + 4096) ** (1 / d))))
    lo = draw(st.sampled_from([0, -3, -(w // 2), -(2**40), 2**40 - w]))
    return draw(hnp.arrays(np.int64, (n, d), elements=st.integers(lo, lo + w - 1)))


# columns spanning about 2^41 each, far past the cut-off; with two or more
# of them a packed key would overflow int64
wide_arrays = st.tuples(st.integers(0, 60), st.integers(1, 3)).flatmap(
    lambda shape: hnp.arrays(
        np.int64,
        shape,
        elements=st.sampled_from([-(2**40), 1 - 2**40, 0, 2**40 - 1, 2**40]),
    )
)


_magnitudes = st.floats(1e-300, 1e300)


@st.composite
def norm_inputs(draw):
    """Float arrays of 0-16 columns, entries of either sign from 1e-300 to
    1e300, with zeros, infinities and NaN among them."""
    shape = (draw(st.integers(0, 20)), draw(st.integers(0, 16)))
    elements = st.one_of(
        _magnitudes,
        _magnitudes.map(lambda x: -x),
        st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
    )
    return draw(hnp.arrays(np.float64, shape, elements=elements))


def _numpy_row_norms(x):
    with np.errstate(over="ignore"):
        return np.linalg.norm(x, axis=1)


class TestRowNorms:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(norm_inputs())
    def test_extreme_entries_match_numpy(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = verifier._row_norms(x)
        np.testing.assert_array_equal(norms, _numpy_row_norms(x))

    @pytest.mark.parametrize("q", range(8, 17))
    def test_layout_does_not_change_bits(self, q):
        # numpy's own norm sums in an order that follows the memory layout
        x = np.random.default_rng(q).normal(size=(5000, q))
        every_other_column = np.zeros((5000, 2 * q))
        every_other_column[:, ::2] = x
        every_other_row = np.zeros((10000, q))
        every_other_row[::2] = x
        expected = _numpy_row_norms(x)
        for same in (np.asfortranarray(x), every_other_column[:, ::2],
                     every_other_row[::2]):
            np.testing.assert_array_equal(verifier._row_norms(same), expected)

    @pytest.mark.parametrize("q", range(17))
    def test_comparable_entries_match_numpy(self, q):
        # entries of one scale round differently when summed in another
        # order: from 8 columns on, a column-order sum misses numpy's
        # pairwise one in hundreds of these rows
        x = np.random.default_rng(q).normal(size=(5000, q))
        np.testing.assert_array_equal(verifier._row_norms(x), _numpy_row_norms(x))


class TestSegmentLengths:
    @pytest.mark.parametrize("q", [1, 2, 6, 7, 8, 12])
    def test_columns_keep_the_bits_of_the_difference_rows(self, q):
        # below 8 columns the lengths are summed a column at a time, from 8
        # on numpy's norm sums the difference rows pairwise, as _row_norms
        rng = np.random.default_rng(q)
        raw = np.cumsum(rng.normal(size=(3000, q)), axis=0) * 10.0 ** rng.integers(
            -2, 3, size=(3000, 1))
        raw[100, 0] = 1e300
        raw[200] = -1e300
        raw[300, -1] = np.inf
        raw[400, 0] = np.nan
        with np.errstate(over="ignore", invalid="ignore"):
            expected = verifier._row_norms(np.diff(raw, axis=0))
            got = verifier._segment_lengths(raw)
        assert same_bits(got, expected)


class TestDistinctRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cell_arrays())
    def test_matches_sort(self, rows):
        assert np.array_equal(distinct_rows(rows.T), lexsort_first(rows))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wide_arrays)
    def test_wide_range_matches_sort(self, rows):
        assert np.array_equal(distinct_rows(rows.T), lexsort_first(rows))

    @pytest.mark.parametrize(
        "rows, sorts",
        [
            (np.zeros((0, 1), dtype=np.int64), True),
            (np.zeros((0, 2), dtype=np.int64), True),
            (np.array([[-5], [-5], [-9]]), False),
            # two rows: the cut-off is 4104 slots
            (np.array([[0], [4103]]), False),
            (np.array([[0], [4104]]), True),
            (np.array([[-(2**40), 2**40], [2**40, -(2**40)]]), True),
            (np.array([[0.5], [0.5]]), True),
        ],
    )
    def test_path_choice(self, monkeypatch, rows, sorts):
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(
            np, "lexsort", lambda keys: calls.append(1) or lexsort(keys)
        )
        first = distinct_rows(rows.T)
        assert bool(calls) == sorts
        assert np.array_equal(first, lexsort_first(rows))

    @settings(max_examples=200, deadline=None)
    @given(shell_lists)
    def test_first_occurrences(self, shells):
        rows = np.concatenate(shells)
        first = distinct_rows(rows.T)
        as_tuples = list(map(tuple, rows))
        assert len(first) == len(set(as_tuples))
        assert {as_tuples[i] for i in first} == set(as_tuples)
        for i in first:
            assert as_tuples.index(as_tuples[i]) == i

    @settings(max_examples=200, deadline=None)
    @given(shell_lists)
    def test_shell_stability_matches_sets(self, shells):
        seen, expected = set(), []
        for cells in shells:
            current = set(map(tuple, cells))
            expected.append(len(current - seen))
            seen |= current
        assert shell_stability(shells) == expected


# a line that misses the lattice's points: its closure is one circle with a
# direction-free affine base
AFFINE_LINE = """schema = 1
[field]
min_poly = x
[space]
mode = real
ambient_dim = 2
declared_dim = 1
[lattice]
row = (1, 0)
row = (0, 1)
[variety]
affine = point (0, 1/3) dirs (1, 0)
"""


def _arclength(raw):
    """Cumulative arclength at each vertex of a polyline."""
    cum = [0.0]
    for a, b in zip(raw[:-1], raw[1:]):
        cum.append(cum[-1] + math.dist(a, b))
    return cum


def _reference_base_cells(ev, sub, node_idx):
    """Each sample's base cell from the base's definition (None outside the
    window), and the number of base cells."""
    base, cfg = ev.comp.base, ev.cfg
    w, eps = cfg.window, cfg.grid_eps
    if base.kind == "affine" and base.directions.dim:
        q, _ = np.linalg.qr(base.directions.float_basis().T)
        cells = [
            None if np.any(np.abs(v) > w) else tuple(((v + w) / eps).astype(int))
            for v in (sub - ev.nodes_full[0]) @ q
        ]
        return cells, math.ceil(2.0 * w / eps) ** base.directions.dim
    if base.kind == "affine":
        return [(0,)] * len(sub), 1
    if base.kind == "points":
        return [(int(i),) for i in node_idx], len(base.points)
    cum = _arclength(base.sample_at(np.linspace(*base.param_range, cfg.curve_nodes)))
    return [(int(cum[i] // eps),) for i in node_idx], math.ceil(cum[-1] / eps)


class TestCoverageCells:
    def test_hits_match_stacked_table(self):
        # an affine base with directions, and every reduced sample, so that
        # the window mask keeps some rows of the cell table and drops others
        spec = parse_problem(open("problems/plane_cylinder.tfp").read())
        cfg, lat = spec.sample_config, spec.lattice
        cfg.count = 4000
        reduced = np.vstack(
            [lat.reduce_points(sh.internal)[0]
             for sh in sample_far_points(spec.variety, cfg, lat)]
        )
        fd = flow_set(spec.variety, lat)
        evaluators = [ComponentEvaluator(c, lat, cfg) for c in fd.components]
        per_component = [ev.distances(reduced) for ev in evaluators]
        _, hits = coverage_check(reduced, cfg, evaluators, per_component)
        assert hits == stacked_hit_counts(reduced, cfg, evaluators, per_component)
        assert min(hits) > 0
        for ev, (d, node_idx) in zip(evaluators, per_component):
            sel = d <= max(cfg.tolerance, cfg.grid_eps)
            in_window = ev.base_cells(reduced[sel], node_idx[sel])[1]
            assert ev.frame is not None
            assert 0 < in_window.sum() < len(in_window)

    def test_plane_cylinder_hits_match_tuple_sets(self):
        # an affine base with directions: the only kind with a window to leave
        self._check_hits_match_tuple_sets("plane_cylinder", "affine", True)

    @pytest.mark.parametrize(
        "name, kind",
        [
            ("hyperbola", "points"),
            ("affine_line", "affine"),
            ("whole_curve", "curve"),
        ],
    )
    def test_hits_match_tuple_sets(self, name, kind):
        self._check_hits_match_tuple_sets(name, kind, False)

    @staticmethod
    def _check_hits_match_tuple_sets(name, kind, masks):
        texts = {"affine_line": AFFINE_LINE, "whole_curve": CYLINDER_CURVE.format(hi=10)}
        spec = parse_problem(texts.get(name) or open(f"problems/{name}.tfp").read())
        cfg, lat = spec.sample_config, spec.lattice
        cfg.count = min(cfg.count, 20000)
        # the computed closure, or the prediction in the [flow] section
        fd = spec.predicted_flow() if spec.predicted else flow_set(spec.variety, lat)
        # all reduced samples, not only the in-window ones, so that the
        # affine base cells have out-of-window rows to mask out
        reduced = np.vstack(
            [lat.reduce_points(sh.internal)[0]
             for sh in sample_far_points(spec.variety, cfg, lat)]
        )
        evaluators = [ComponentEvaluator(c, lat, cfg) for c in fd.components]
        fractions, hits = coverage_check(
            reduced, cfg, evaluators, [ev.distances(reduced) for ev in evaluators]
        )

        masked = 0
        assign_tol = max(cfg.tolerance, cfg.grid_eps)
        eps = cfg.grid_eps
        k = int(np.ceil(1.0 / eps))
        for ev, n_hit, frac in zip(evaluators, hits, fractions):
            assert ev.comp.base.kind == kind
            d, node_idx = ev.distances(reduced)
            sel = d <= assign_tol
            sub = reduced[sel]
            base_cells, base_total = _reference_base_cells(ev, sub, node_idx[sel])
            torus = np.zeros((len(sub), 0), dtype=int)
            if ev.torus_dim:
                u = sub @ ev.torus_solve.T
                u = u - np.floor(u)
                torus = np.minimum((u / eps).astype(int), k - 1)
            reference = set()
            for bc, tc in zip(base_cells, torus):
                if bc is None:
                    masked += 1
                    continue
                reference.add((bc, tuple(tc)))
            assert n_hit == len(reference) > 0
            assert frac == min(1.0, len(reference) / (base_total * k**ev.torus_dim))
        # only an affine base with directions has a window to leave
        assert masked > 1000 if masks else masked == 0
