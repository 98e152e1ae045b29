"""Far-point sampling, containment, coverage, shells, orbits."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from torusflow import verifier
from torusflow._kernels import min_distance_batch
from torusflow.cli import main
from torusflow.errors import ShellStarved, TorusflowError
from torusflow.flats import (
    AffinePiece,
    Flat,
    GraphPiece,
    ParametricBranch,
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

from oracles import orbit_coverage, subspace_orbit


@pytest.fixture(scope="module")
def QQ():
    return rationals()


@pytest.fixture(scope="module")
def K():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


def hyperbola(field):
    return VarietyInput(
        [
            ParametricBranch([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], field),
            ParametricBranch([({-1: 1}, {0: 1}), ({1: 1}, {0: 1})], field),
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
            [ParametricBranch([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)],
            2, "real", 1, QQ,
        )
        cfg = SampleConfig(radius_min=1000, count=100, seed=0, shells=1)
        (shell,) = sample_far_points(X, cfg, Lattice(2, [[1, 0], [0, 1]], QQ))
        ts = np.array([p[0].real for p in shell.params])
        assert np.all(np.abs(ts) >= 0.9 * np.sqrt(1000))

    def test_bounded_piece_starves(self, QQ):
        bounded = ParametricBranch(
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
            complex_vars=True,
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
            [ParametricBranch([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)],
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
        import json

        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        fd = flow_set(X, lat)
        cfg = SampleConfig(radius_min=100, count=1000, seed=20)
        r1 = run_verification(X, lat, fd, cfg)
        r2 = run_verification(X, lat, fd, cfg)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(
            r2.to_dict(), sort_keys=True
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
                ParametricBranch(
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


def refine_per_sample(ev, pts, dists, node_idx):
    """Reference for the batched refine: one kernel call per rough sample."""
    spacing = ev.curve_params[1] - ev.curve_params[0]
    worst = np.nonzero(dists > 0.25 * ev.cfg.tolerance)[0]
    if len(worst) > 4096:
        worst = worst[np.argsort(dists[worst])[-4096:]]
    out = dists.copy()
    for idx in worst:
        p0 = ev.curve_params[node_idx[idx]]
        local = np.linspace(p0 - spacing, p0 + spacing, 33)
        red, _, _ = ev.lat.reduce_points(ev.comp.base.sample_at(local))
        d, _ = min_distance_batch(pts[idx : idx + 1], ev.offsets, red @ ev.proj.T)
        out[idx] = min(out[idx], d[0])
    return out


class TestCurveBase:
    def test_batched_refine_matches_per_sample_loop(self):
        spec = parse_problem(CYLINDER_CURVE.format(hi=0))
        cfg, lat = spec.sample_config, spec.lattice
        reduced = np.vstack(
            [lat.reduce_points(sh.internal)[0]
             for sh in sample_far_points(spec.variety, cfg, lat)]
        )
        ev = ComponentEvaluator(spec.predicted_flow().components[0], lat, cfg)
        pts = reduced @ ev.proj.T
        dists, node_idx = min_distance_batch(pts, ev.offsets, ev.nodes)
        batched = ev._refine_curve(pts, dists, node_idx)
        reference = refine_per_sample(ev, pts, dists, node_idx)
        assert np.sum(batched < dists) > 1000
        assert np.allclose(batched, reference, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("hi, code", [(10, 0), (0, 5)])
    def test_whole_curve_passes_half_curve_fails(self, tmp_path, capsys, hi, code):
        path = tmp_path / "curve.tfp"
        path.write_text(CYLINDER_CURVE.format(hi=hi))
        assert main(["verify", str(path)]) == code
        out = capsys.readouterr().out
        assert out.startswith("PASS" if code == 0 else "FAIL")


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
    return ParametricBranch(
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
        [AffinePiece(Flat([3, 0, 0], Subspace(3, [[1, 0, 0], [0, 1, 1]], QQ)))],
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
            GraphPiece(2, lambda v: v.copy(), complex_vars=False),
            AffinePiece(Flat([0, 1], Subspace(2, [[1, 1]], QQ))),
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
                AffinePiece(Flat([3, 0, 0], Subspace(3, [[1, 0, 0], [0, 1, 1]], QQ))),
                AffinePiece(Flat([0, 0, 1], Subspace(3, [[0, 1, 0]], QQ))),
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
        assert calls == [p.flat.directions for p in X.pieces]


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


class TestDistinctRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cell_arrays())
    def test_matches_sort(self, rows):
        assert np.array_equal(distinct_rows(rows), lexsort_first(rows))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(wide_arrays)
    def test_wide_range_matches_sort(self, rows):
        assert np.array_equal(distinct_rows(rows), lexsort_first(rows))

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
        first = distinct_rows(rows)
        assert bool(calls) == sorts
        assert np.array_equal(first, lexsort_first(rows))

    @settings(max_examples=200, deadline=None)
    @given(shell_lists)
    def test_first_occurrences(self, shells):
        rows = np.concatenate(shells)
        first = distinct_rows(rows)
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


class TestCoverageCells:
    def test_plane_cylinder_hits_match_tuple_sets(self):
        spec = parse_problem(open("problems/plane_cylinder.tfp").read())
        cfg, lat = spec.sample_config, spec.lattice
        cfg.count = 20000
        # all reduced samples, not only the in-window ones, so that the
        # affine base cells have out-of-window rows to mask out
        reduced = np.vstack(
            [lat.reduce_points(sh.internal)[0]
             for sh in sample_far_points(spec.variety, cfg, lat)]
        )
        fd = flow_set(spec.variety, lat)
        evaluators = [ComponentEvaluator(c, lat, cfg) for c in fd.components]
        fractions, hits = coverage_check(
            reduced, cfg, evaluators, [ev.distances(reduced) for ev in evaluators]
        )

        masked = 0
        assign_tol = max(cfg.tolerance, cfg.grid_eps)
        w, eps = cfg.window, cfg.grid_eps
        k = int(np.ceil(1.0 / eps))
        for ev, n_hit, frac in zip(evaluators, hits, fractions):
            d, _ = ev.distances(reduced)
            sub = reduced[d <= assign_tol]
            q, _ = np.linalg.qr(np.asarray(ev.base_dirs, dtype=float).T)
            u = sub @ ev.torus_solve.T
            u = u - np.floor(u)
            torus = np.minimum((u / eps).astype(int), k - 1)
            reference = set()
            for row, tc in zip((sub - ev.nodes_full[0]) @ q, torus):
                if np.any(np.abs(row) > w):
                    masked += 1
                    continue
                reference.add((tuple(((row + w) / eps).astype(int)), tuple(tc)))
            assert n_hit == len(reference)
            assert frac == min(1.0, len(reference) / ev.total_cells())
        assert masked > 1000
