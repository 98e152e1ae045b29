"""Acceptance battery: the golden examples and property suites.

One test per criterion; each prints a single PASS line on success (run with
-s to see them).  Tolerances are pinned here, not configurable.
"""

import json
import random
import shutil
import time
from fractions import Fraction as F

import pytest

from torusflow.cli import main
from torusflow.flats import AffinePiece, Flat, ParametricBranch, VarietyInput
from torusflow.flow import REAL_ONLY, check_span_condition, flow_set
from torusflow.lattice import (
    Lattice,
    Subspace,
    hermite_normal_form,
    int_kernel_basis,
    torus_closure,
)
from torusflow.numberfield import NumberField, rationals
from torusflow.specfile import load_problem

from oracles import (
    int_det,
    is_saturated,
    orbit_coverage,
    rational_closure,
    rational_rank,
    subspace_orbit,
)


def _matmul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


@pytest.fixture()
def workdir(tmp_path):
    for name in (
        "parabola",
        "hyperbola",
        "plane_cylinder",
        "irrational_direction",
        "dinh_vu",
        "dinh_vu_mutated",
    ):
        shutil.copy(f"problems/{name}.tfp", tmp_path / f"{name}.tfp")
    return tmp_path


def test_criterion_1_parabola_golden(workdir, capsys):
    """Parabola with a rank-one lattice: empty flow set, empty window."""
    start = time.perf_counter()
    spec = str(workdir / "parabola.tfp")
    assert main(["closure", spec]) == 0
    closure = json.loads(open(spec + ".closure.json").read())
    assert closure["components"] == []
    assert closure["pi_x_closed"] is True

    assert main(["verify", spec]) == 0
    report = json.loads(open(spec + ".report.json").read())
    assert report["config"]["count"] == 10000
    assert report["config"]["radius_min"] == 1000
    assert report["escaped_mass"] == 1.0
    assert all(s["new_cells"] == 0 for s in report["per_shell"])
    assert all(s["escaped"] == s["samples"] for s in report["per_shell"])
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: parabola golden test ({elapsed:.2f}s < 2s)")


def test_criterion_2_hyperbola(workdir, capsys):
    """Hyperbola: exactly two circle components, two-sided verification."""
    start = time.perf_counter()
    spec = str(workdir / "hyperbola.tfp")
    assert main(["closure", spec]) == 0
    closure = json.loads(open(spec + ".closure.json").read())
    assert len(closure["components"]) == 2
    for comp in closure["components"]:
        assert comp["torus_dim"] == 1
        assert comp["dim_C"] == 0

    assert main(["verify", spec]) == 0
    report = json.loads(open(spec + ".report.json").read())
    assert report["config"]["radius_min"] == 100
    assert report["config"]["count"] == 10000
    assert report["max_containment_distance"] <= 1e-2
    assert all(f >= 0.95 for f in report["coverage"])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"ACCEPTANCE 2 PASS: hyperbola circles ({elapsed:.2f}s < 5s)")


def test_criterion_3_noncompact_base(workdir, capsys):
    """Full plane over Z x 0: one component with a noncompact 1-dim base."""
    start = time.perf_counter()
    spec = str(workdir / "plane_cylinder.tfp")
    assert main(["closure", spec]) == 0
    closure = json.loads(open(spec + ".closure.json").read())
    assert len(closure["components"]) == 1
    comp = closure["components"][0]
    assert comp["dim_C"] == 1
    assert comp["torus_dim"] == 1
    assert comp["C"]["kind"] == "affine"

    assert main(["verify", spec]) == 0
    report = json.loads(open(spec + ".report.json").read())
    assert report["coverage"][0] >= 0.95
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"ACCEPTANCE 3 PASS: noncompact base, cylinder covered "
              f"({elapsed:.2f}s)")


def test_criterion_4_irrational_subtorus(capsys):
    """Closure of irrational lines: exact subspaces plus orbit density."""
    start = time.perf_counter()
    K = NumberField([-2, 0, 1], root_interval=(1, 2))

    lat2 = Lattice(2, [[1, 0], [0, 1]], K)
    V2 = Subspace(2, [[K.one, K.gen]], K)
    W2 = rational_closure(V2, lat2)
    assert W2.dim == 2 and W2 == Subspace(2, [[1, 0], [0, 1]], K)
    tc2 = torus_closure(V2, lat2)
    pts = subspace_orbit(V2, lat2, 10000, seed=41)
    cov, off = orbit_coverage(tc2, lat2, pts, 0.05)
    assert cov >= 0.95

    lat3 = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
    V3 = Subspace(3, [[K.one, K.one, K.gen]], K)
    tc3 = torus_closure(V3, lat3)
    assert tc3.W.dim == 2
    assert tc3.W.contains_vector([1, 1, 0]) and tc3.W.contains_vector([0, 0, 1])
    assert not tc3.W.contains_vector([1, 0, 0])
    assert tc3.torus_dim == 2
    pts3 = subspace_orbit(V3, lat3, 10000, seed=43)
    cov3, off3 = orbit_coverage(tc3, lat3, pts3, 0.05)
    assert cov3 >= 0.95
    assert off3 <= 1e-6
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"ACCEPTANCE 4 PASS: irrational subtorus closures ({elapsed:.2f}s)")


def test_criterion_5_dinh_vu(workdir, capsys):
    """Paper-supplied prediction verifies; mutated one fails; spans unequal."""
    start = time.perf_counter()
    spec = str(workdir / "dinh_vu.tfp")
    assert main(["verify", spec]) == 0
    report = json.loads(open(spec + ".report.json").read())
    assert report["config"]["count"] == 1000
    assert report["config"]["radius_min"] == 100
    assert report["max_containment_distance"] <= 5e-2
    assert report["span_condition"] == "real_only"

    problem = load_problem(spec)
    assert check_span_condition(problem.lattice) == REAL_ONLY

    mutated = str(workdir / "dinh_vu_mutated.tfp")
    assert main(["verify", mutated]) == 5
    mreport = json.loads(open(mutated + ".report.json").read())
    assert mreport["passed"] is False
    assert mreport["max_containment_distance"] > 5e-2
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"ACCEPTANCE 5 PASS: unequal-spans example ({elapsed:.2f}s < 30s)")


def test_criterion_6_exact_property_suites(capsys):
    """Normal-form properties and closure-vs-orbit agreement in bulk."""
    start = time.perf_counter()
    rng = random.Random(2024)

    # 500 random HNF and integer-kernel instances
    for _ in range(500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        H, U = hermite_normal_form(M)
        assert _matmul(U, M) == H
        assert abs(int_det(U)) == 1
        K = int_kernel_basis(M, n)
        assert all(_matmul(M, [[x] for x in k]) == [[0]] * m for k in K)
        assert len(K) == n - rational_rank(M)
        assert is_saturated(K, n)

    # 100 random rational closures over Q(sqrt2) against the density oracle:
    # the orbit of V must stay on the fiber of W (W is not too small) and
    # fill its cells (W is not too large)
    K = NumberField([-2, 0, 1], root_interval=(1, 2))
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        n = rng.choice([2, 3])
        vec = [
            K.from_coords([rng.randint(-3, 3), rng.randint(-2, 2)])
            for _ in range(n)
        ]
        V = Subspace(n, [vec], K)
        if V.dim == 0:
            continue
        lat = Lattice(n, [[int(i == j) for j in range(n)] for i in range(n)], K)
        tc = torus_closure(V, lat)
        assert tc.torus_dim == tc.W.dim
        count = 2000 if tc.torus_dim <= 1 else 12000
        pts = subspace_orbit(V, lat, count, seed=1000 + attempts)
        cov, off = orbit_coverage(tc, lat, pts, 0.05)
        assert off <= 1e-6, (vec, off)
        assert cov >= 0.9, (vec, cov)
        checked += 1

    # idempotence and monotonicity on 200 random pairs
    lat3 = Lattice(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], K)
    for _ in range(200):
        v1 = [K.from_coords([rng.randint(-3, 3), rng.randint(-2, 2)])
              for _ in range(3)]
        v2 = [K.from_coords([rng.randint(-3, 3), rng.randint(-2, 2)])
              for _ in range(3)]
        V = Subspace(3, [v1], K)
        V2 = Subspace(3, [v1, v2], K)
        W = rational_closure(V, lat3)
        W2 = rational_closure(V2, lat3)
        assert rational_closure(W, lat3) == W
        assert W2.contains(W)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"ACCEPTANCE 6 PASS: exact property suites ({elapsed:.2f}s < 60s)")


def test_criterion_7_dimension_clause(capsys):
    """Every emitted component across the battery has dim C < dim X."""
    QQ = rationals()
    K = NumberField([-2, 0, 1], root_interval=(1, 2))
    Ki = NumberField(
        [1, 0, 1],
        root_box=((F(-1, 2), F(1, 2)), (F(1, 2), 2)),
        i_coords=[0, 1],
        conj_coords=[0, -1],
    )

    def br(coords, field):
        return ParametricBranch(coords, field)

    battery = []
    battery.append(
        (
            VarietyInput(
                [
                    br([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ),
                    br([({-1: 1}, {0: 1}), ({1: 1}, {0: 1})], QQ),
                ],
                2, "real", 1, QQ,
            ),
            Lattice(2, [[1, 0], [0, 1]], QQ),
        )
    )
    battery.append(
        (
            VarietyInput(
                [br([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)], 2, "real", 1, QQ
            ),
            Lattice(2, [[1, 0]], QQ),
        )
    )
    battery.append(
        (
            VarietyInput(
                [AffinePiece(Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ)))],
                2, "real", 2, QQ,
            ),
            Lattice(2, [[1, 0]], QQ),
        )
    )
    battery.append(
        (
            VarietyInput(
                [br([({1: 1}, {0: 1}), ({1: K.gen}, {0: 1})], K)], 2, "real", 1, K
            ),
            Lattice(2, [[1, 0], [0, 1]], K),
        )
    )
    full = Subspace(
        4,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        Ki,
    )
    battery.append(
        (
            VarietyInput([AffinePiece(Flat([0, 0, 0, 0], full))], 2, "complex", 2, Ki),
            Lattice(4, [[1, 0, 0, 0], [0, 1, 0, 0]], Ki),
        )
    )

    total = 0
    for X, lat in battery:
        fd = flow_set(X, lat)
        for comp in fd.components:
            assert comp.dim_C < X.declared_dim
            total += 1
    assert total >= 4
    with capsys.disabled():
        print(f"ACCEPTANCE 7 PASS: dimension clause on {total} components")


def test_criterion_8_determinism(workdir, capsys):
    """Identical seeds give byte-identical verification reports."""
    spec = str(workdir / "hyperbola.tfp")
    assert main(["verify", spec]) == 0
    first = open(spec + ".report.json", "rb").read()
    assert main(["verify", spec]) == 0
    second = open(spec + ".report.json", "rb").read()
    assert first == second

    dv = str(workdir / "dinh_vu.tfp")
    assert main(["verify", dv]) == 0
    a = open(dv + ".report.json", "rb").read()
    assert main(["verify", dv]) == 0
    b = open(dv + ".report.json", "rb").read()
    assert a == b
    with capsys.disabled():
        print("ACCEPTANCE 8 PASS: byte-identical reports for fixed seeds")
