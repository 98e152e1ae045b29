"""Flow-set assembly: neat families, components, span condition."""

from fractions import Fraction as F

import pytest

from torusflow.errors import SymbolicUnsupported, TorusflowError
from torusflow.asymptotics import variety_asymptotic_flats
from torusflow.flats import (
    Flat,
    GraphPiece,
    PointSet,
    VarietyInput,
)
from torusflow.flow import (
    COMPLEX_THEOREM,
    REAL_ONLY,
    check_span_condition,
    closure_description,
    flow_set,
    predicted_flow,
)
from torusflow.lattice import Lattice, Subspace
from torusflow.numberfield import NumberField, rationals
from torusflow.specfile import parse_problem

from oracles import branch


@pytest.fixture(scope="module")
def QQ():
    return rationals()


@pytest.fixture(scope="module")
def K():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


@pytest.fixture(scope="module")
def Ki():
    K = NumberField([1, 0, 1], root_box=((F(-1, 2), F(1, 2)), (F(1, 2), 2)))
    K.declare_complex_structure([0, 1], [0, -1])
    return K


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


class TestGroupNeat:
    """The families come out neat: one direction space, connected base."""

    def test_finite_splits_to_singletons(self, QQ):
        fams = variety_asymptotic_flats(
            hyperbola(QQ), Subspace(2, [[1, 0], [0, 1]], QQ)
        )
        assert len(fams) == 2
        for base, V in fams:
            assert isinstance(base, PointSet) and len(base.points) == 1
            assert V.dim == 1
        assert {V.key() for _, V in fams} == {
            Subspace(2, [[1, 0]], QQ).key(),
            Subspace(2, [[0, 1]], QQ).key(),
        }

    def test_connected_base_kept(self, QQ):
        plane = Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ))
        X = VarietyInput([plane, plane], 2, "real", 2, QQ)
        fams = variety_asymptotic_flats(X, Subspace(2, [[1, 0]], QQ))
        assert len(fams) == 1
        base, V = fams[0]
        assert isinstance(base, Flat) and base.dim == 1
        assert V == Subspace(2, [[1, 0]], QQ)


class TestFlowSet:
    def test_hyperbola_two_circles(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        fd = flow_set(hyperbola(QQ), lat)
        assert len(fd.components) == 2
        for comp in fd.components:
            assert comp.base.kind == "points"
            assert comp.dim_C == 0
            assert comp.torus.torus_dim == 1
            pts = comp.base.points
            assert len(pts) == 1 and all(e.is_zero() for e in pts[0])

    def test_parabola_empty(self, QQ):
        X = VarietyInput(
            [branch([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)], 2, "real", 1, QQ
        )
        lat = Lattice(2, [[1, 0]], QQ)
        fd = flow_set(X, lat)
        assert fd.is_empty

    def test_plane_cylinder_noncompact_base(self, QQ):
        X = VarietyInput(
            [Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ))],
            2,
            "real",
            2,
            QQ,
        )
        lat = Lattice(2, [[1, 0]], QQ)
        fd = flow_set(X, lat)
        assert len(fd.components) == 1
        comp = fd.components[0]
        assert comp.dim_C == 1           # noncompact line base
        assert comp.torus.torus_dim == 1
        assert comp.base.kind == "affine"

    def test_complex_plane_family(self, Ki):
        full = Subspace(
            4,
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            Ki,
        )
        X = VarietyInput([Flat([0, 0, 0, 0], full)], 2, "complex", 2, Ki)
        lat = Lattice(4, [[1, 0, 0, 0], [0, 1, 0, 0]], Ki)
        fd = flow_set(X, lat)
        assert fd.span_condition == COMPLEX_THEOREM
        assert len(fd.components) == 1
        comp = fd.components[0]
        assert comp.dim_C == 1           # complex dimension of {0} x C
        assert comp.torus.torus_dim == 2

    def test_irrational_direction_upgrades_torus(self, K):
        X = VarietyInput(
            [branch([({1: 1}, {0: 1}), ({1: K.gen}, {0: 1})], K)],
            2,
            "real",
            1,
            K,
        )
        lat = Lattice(2, [[1, 0], [0, 1]], K)
        fd = flow_set(X, lat)
        comp = fd.components[0]
        assert comp.V.dim == 1
        assert comp.torus.W.dim == 2
        assert comp.torus.torus_dim == 2
        # base re-projected into the complement of W = R^2: the origin
        assert all(e.is_zero() for e in comp.base.points[0])

    def test_trivial_lattice_empty(self, QQ):
        lat = Lattice(2, [], QQ)
        fd = flow_set(hyperbola(QQ), lat)
        assert fd.is_empty

    def test_non_j_stable_closure(self):
        # a complex line whose rational closure is a 3-torus that is not
        # stable under multiplication by i
        Z8 = NumberField([1, 0, 0, 0, 1], root_box=((F(1, 2), 1), (F(1, 2), 1)))
        Z8.declare_complex_structure([0, 0, 1], [0, 0, 0, -1])
        s2 = Z8.gen - Z8.gen**3
        lat = Lattice(
            4, [[1, 0, 0, 0], [0, s2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], Z8
        )
        line = Subspace(4, [[1, 0, 1, 0], [0, 1, 0, 1]], Z8)
        X = VarietyInput([Flat([0, 0, 0, 0], line)], 2, "complex", 1, Z8)
        fd = flow_set(X, lat)
        assert fd.span_condition == COMPLEX_THEOREM
        comp = fd.components[0]
        assert comp.V.dim == 2
        assert comp.torus.W.dim == 3
        assert comp.torus.torus_dim == 3
        assert comp.dim_C == 0

    def test_idempotent_description(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        d1 = flow_set(hyperbola(QQ), lat).describe()
        d2 = flow_set(hyperbola(QQ), lat).describe()
        assert d1 == d2

    def test_dimension_clause(self, QQ, K, Ki):
        cases = []
        lat2 = Lattice(2, [[1, 0], [0, 1]], QQ)
        cases.append((hyperbola(QQ), lat2))
        cases.append(
            (
                VarietyInput(
                    [Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ))],
                    2,
                    "real",
                    2,
                    QQ,
                ),
                Lattice(2, [[1, 0]], QQ),
            )
        )
        for X, lat in cases:
            fd = flow_set(X, lat)
            for comp in fd.components:
                assert comp.dim_C < X.declared_dim

    def test_graph_piece_rejected(self, QQ):
        import numpy as np

        g = GraphPiece(1, lambda v: np.stack([v[:, 0], v[:, 0]], axis=-1))
        X = VarietyInput([g], 2, "real", 1, QQ)
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        with pytest.raises(SymbolicUnsupported):
            flow_set(X, lat)

    def test_redundant_component_pruned(self, QQ):
        # the x-axis branch flat is swallowed by the full plane family
        plane = Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ))
        X = VarietyInput(
            [plane, branch([({1: 1}, {0: 1}), ({0: 0, -1: 1}, {0: 1})], QQ)],
            2,
            "real",
            2,
            QQ,
        )
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        fd = flow_set(X, lat)
        # plane family: V = R^2, base {0}; branch flat (V = x-axis, C = 0)
        # is contained in it and must be pruned
        assert len(fd.components) == 1
        assert fd.components[0].V.dim == 2


# Two families and what pruning keeps of them, each case one way a base can
# hold another or not: (problem text, [(base kind, torus_dim) kept])
PRUNING_CASES = {
    # the line through (0, 1/2) lies in the irrational line's 2-torus, and
    # the outer base is a point set
    "point_set_outer": ("""schema = 1
[field]
min_poly = x^2 - 2
root = interval (1, 2)
[space]
mode = real
ambient_dim = 2
declared_dim = 1
[lattice]
row = (1, 0)
row = (0, 1)
[variety]
branch = (t, theta*t)
branch = (t, t + 1/2)
""", [("points", 2)]),
    # the xy-plane's base, a flat with no directions, equals the irrational
    # line's point base modulo their common W
    "directionless_flat_inner": ("""schema = 1
[field]
min_poly = x^2 - 2
root = interval (1, 2)
[space]
mode = real
ambient_dim = 3
declared_dim = 2
[lattice]
row = (1, 0, 0)
row = (0, 1, 0)
row = (0, 0, 1)
[variety]
branch = (t, theta*t, 0)
affine = point (0, 0, 0) dirs (1, 0, 0) (0, 1, 0)
""", [("points", 2)]),
    # the xz-plane, given through (0, 0, 5), lies in all of R^3; its base is
    # a flat with the direction z, inside the outer flat base
    "flat_in_flat": ("""schema = 1
[field]
min_poly = x
[space]
mode = real
ambient_dim = 3
declared_dim = 3
[lattice]
row = (1, 0, 0)
row = (0, 1, 0)
[variety]
affine = point (0, 0, 5) dirs (1, 0, 0) (0, 0, 1)
affine = point (0, 0, 0) dirs (1, 0, 0) (0, 1, 0) (0, 0, 1)
""", [("affine", 2)]),
    # the xz-plane's base direction z leaves the xy-plane, so neither
    # family holds the other and both stay
    "flat_direction_outside": ("""schema = 1
[field]
min_poly = x
[space]
mode = real
ambient_dim = 3
declared_dim = 2
[lattice]
row = (1, 0, 0)
row = (0, 1, 0)
[variety]
affine = point (0, 0, 0) dirs (1, 0, 0) (0, 0, 1)
affine = point (0, 0, 0) dirs (1, 0, 0) (0, 1, 0)
""", [("affine", 1), ("affine", 2)]),
}


@pytest.mark.parametrize("name", sorted(PRUNING_CASES))
def test_pruning(name):
    text, kept = PRUNING_CASES[name]
    spec = parse_problem(text)
    fd = flow_set(spec.variety, spec.lattice)
    assert fd.diagnostics == {"family_count": 2}
    assert [(c.base.kind, c.torus.torus_dim) for c in fd.components] == kept


class TestSpanCondition:
    def test_gaussian_lattice(self, Ki):
        lat = Lattice(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], Ki)
        assert check_span_condition(lat) == COMPLEX_THEOREM

    def test_z3_in_c3(self, Ki):
        rows = [[0] * 6 for _ in range(3)]
        rows[0][0] = 1
        rows[1][2] = 1
        rows[2][4] = 1
        lat = Lattice(6, rows, Ki)
        assert check_span_condition(lat) == REAL_ONLY

    def test_gaussian_times_zero(self, Ki):
        lat = Lattice(4, [[1, 0, 0, 0], [0, 1, 0, 0]], Ki)
        assert check_span_condition(lat) == COMPLEX_THEOREM

    def test_real_mode_rejected(self, QQ):
        lat = Lattice(3, [[1, 0, 0]], QQ)
        with pytest.raises(TorusflowError):
            check_span_condition(lat)


class TestClosureDescription:
    def test_parabola_closed(self, QQ):
        X = VarietyInput(
            [branch([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)], 2, "real", 1, QQ
        )
        lat = Lattice(2, [[1, 0]], QQ)
        rep = closure_description(X, flow_set(X, lat))
        assert rep["pi_x_closed"]
        assert "closed" in rep["note"]

    def test_hyperbola_report(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        X = hyperbola(QQ)
        rep = closure_description(X, flow_set(X, lat))
        assert not rep["pi_x_closed"]
        assert len(rep["components"]) == 2


class TestPredictedFlow:
    def test_wraps_raw_components(self, QQ):
        lat = Lattice(2, [[1, 0], [0, 1]], QQ)
        base = PointSet([[0, 0]], QQ)
        V = Subspace(2, [[1, 0]], QQ)
        fd = predicted_flow([(base, V, "circle")], lat, "real")
        assert fd.provenance == "user_supplied_predicted"
        comp = fd.components[0]
        assert comp.torus is not None  # V inside the lattice span
        assert comp.label == "circle"

    def test_outside_span_no_torus(self, QQ):
        lat = Lattice(2, [[1, 0]], QQ)
        base = PointSet([[0, 0]], QQ)
        V = Subspace(2, [[0, 1]], QQ)
        fd = predicted_flow([(base, V, "")], lat, "real")
        assert fd.components[0].torus is None
        assert fd.components[0].effective_span == V
