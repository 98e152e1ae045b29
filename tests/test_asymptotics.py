"""Expansion at infinity and asymptotic flats of the supported pieces."""

from fractions import Fraction as F

import numpy as np
import pytest

from torusflow.asymptotics import (
    affine_asymptotic_family,
    branch_asymptotic_flats,
    expand_at_infinity,
    variety_asymptotic_flats,
)
from torusflow.errors import SymbolicUnsupported
from torusflow.flats import (
    AffinePiece,
    Flat,
    GraphPiece,
    ParametricBranch,
    PointSet,
    VarietyInput,
    to_internal,
)
from torusflow.lattice import Subspace
from torusflow.numberfield import NumberField, rationals

from oracles import remainder_bound


@pytest.fixture(scope="module")
def QQ():
    return rationals()


@pytest.fixture(scope="module")
def K():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


def br(coords, field, rays=None):
    return ParametricBranch(coords, field, rays=rays)


def term_map(expansion):
    return {e: [c.coords for c in v] for e, v in expansion.terms}


class TestExpansion:
    def test_polynomial_division(self, QQ):
        # (t, (t^2+1)/t): divergent (1,1) at e=1, remainder O(1/t)
        e = expand_at_infinity(br([({1: 1}, {0: 1}), ({2: 1, 0: 1}, {1: 1})], QQ))
        assert [ex for ex, _ in e.terms] == [F(1)]
        vec = e.terms[0][1]
        assert list(vec) == [1, 1]
        assert e.remainder.q == 1
        # numeric spot check: terms + remainder reproduce the branch
        t = 100.0
        approx = np.array([t, t])
        true = np.array([t, (t * t + 1) / t])
        assert np.linalg.norm(true - approx) <= remainder_bound(e.remainder, t)

    def test_long_division(self, QQ):
        # (t^3+2t)/(t^2+1) = t + t/(t^2+1)
        e = expand_at_infinity(br([({3: 1, 1: 2}, {2: 1, 0: 1})], QQ))
        tm = term_map(e)
        assert set(tm) == {F(1)}
        assert tm[F(1)][0] == (F(1),)
        assert e.remainder.q == 1

    def test_constant_term(self, QQ):
        e = expand_at_infinity(br([({1: 1}, {0: 1}), ({0: 5, -1: 1}, {0: 1})], QQ))
        tm = term_map(e)
        assert tm[F(1)] == [(F(1),), (F(0),)]
        assert tm[F(0)] == [(F(0),), (F(5),)]

    def test_exponents_strictly_decreasing(self, QQ):
        e = expand_at_infinity(
            br([({2: 1, 1: 3, 0: -2}, {0: 1}), ({1: 1}, {0: 1})], QQ)
        )
        exps = [ex for ex, _ in e.terms]
        assert exps == sorted(exps, reverse=True)
        assert all(ex >= 0 for ex in exps)

    def test_fractional_exponents(self, QQ):
        e = expand_at_infinity(br([({F(3, 2): 1}, {0: 1}), ({1: 1}, {0: 1})], QQ))
        assert [ex for ex, _ in e.terms] == [F(3, 2), F(1)]

    def test_exact_division_no_remainder(self, QQ):
        e = expand_at_infinity(br([({2: 1}, {1: 1})], QQ))
        assert e.remainder.q is None
        assert remainder_bound(e.remainder, 10.0) == 0.0

    def test_certified_decay(self, QQ):
        # soundness: distance to the flat bounded by C/t^q, decreasing in t
        b = br([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ)
        e = expand_at_infinity(b)
        [flat] = branch_asymptotic_flats(
            b, Subspace(2, [[1, 0], [0, 1]], QQ), "real", False
        )
        proj = flat.directions.float_complement_projector()
        prev = None
        for t in (1e3, 1e4, 1e5):
            pt = to_internal(b.evaluate(np.array([t])), "real")
            d = float(np.linalg.norm((pt - flat.float_base()) @ proj.T))
            bound = remainder_bound(e.remainder, t)
            assert d <= bound
            if prev is not None:
                assert bound < prev
            prev = bound


class TestBranchFlats:
    def test_parabola_filtered(self, QQ):
        b = br([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)
        L = Subspace(2, [[1, 0]], QQ)
        assert branch_asymptotic_flats(b, L, "real", False) == []

    def test_parabola_full_space(self, QQ):
        b = br([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)
        [f] = branch_asymptotic_flats(
            b, Subspace(2, [[1, 0], [0, 1]], QQ), "real", False
        )
        assert f.dim == 2

    def test_hyperbola_branch(self, QQ):
        b = br([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ)
        [f] = branch_asymptotic_flats(
            b, Subspace(2, [[1, 0], [0, 1]], QQ), "real", False
        )
        assert f.directions == Subspace(2, [[1, 0]], QQ)
        assert all(e.is_zero() for e in f.base_point)

    def test_shifted_hyperbola(self, QQ):
        b = br([({1: 1}, {0: 1}), ({0: 5, -1: 1}, {0: 1})], QQ)
        [f] = branch_asymptotic_flats(
            b, Subspace(2, [[1, 0], [0, 1]], QQ), "real", False
        )
        assert list(f.base_point) == [0, 5]

    def test_bounded_branch_none(self, QQ):
        b = br([({-1: 1}, {0: 1}), ({-2: 1}, {0: 1})], QQ)
        L = Subspace(2, [[1, 0], [0, 1]], QQ)
        assert branch_asymptotic_flats(b, L, "real", False) == []

    def test_positive_dimension(self, K):
        # every returned flat has dimension >= 1
        import random

        rng = random.Random(9)
        L = Subspace(2, [[1, 0], [0, 1]], K)
        for _ in range(20):
            coords = [
                ({rng.randint(0, 3): K.from_coords([rng.randint(-2, 2),
                                                    rng.randint(-1, 1)])},
                 {0: 1})
                for _ in range(2)
            ]
            b = ParametricBranch(coords, K)
            for f in branch_asymptotic_flats(b, L, "real", False):
                assert f.dim >= 1

    def test_monotone_in_L(self, QQ):
        b = br([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ)
        small = Subspace(2, [[1, 0]], QQ)
        large = Subspace(2, [[1, 0], [0, 1]], QQ)
        [f_small] = branch_asymptotic_flats(b, small, "real", False)
        [f_large] = branch_asymptotic_flats(b, large, "real", False)
        assert f_small == f_large


class TestAffineFamilies:
    def test_plane_with_axis_lattice(self, QQ):
        piece = AffinePiece(Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ)))
        base, Q = affine_asymptotic_family(piece, Subspace(2, [[1, 0]], QQ))
        assert Q == Subspace(2, [[1, 0]], QQ)
        assert base.flat.directions == Subspace(2, [[0, 1]], QQ)

    def test_diagonal_excluded(self, QQ):
        piece = AffinePiece(Flat([0, 0], Subspace(2, [[1, 1]], QQ)))
        assert affine_asymptotic_family(piece, Subspace(2, [[1, 0]], QQ)) is None

    def test_axis_in_full_space(self, QQ):
        piece = AffinePiece(Flat([0, 0], Subspace(2, [[1, 0]], QQ)))
        base, Q = affine_asymptotic_family(piece, Subspace(2, [[1, 0], [0, 1]], QQ))
        assert Q == Subspace(2, [[1, 0]], QQ)
        assert base.flat.dim == 0

    def test_base_dimension_drop(self, QQ):
        # base dimension = dim P - dim Q < dim P
        piece = AffinePiece(
            Flat([0, 0, 1], Subspace(3, [[1, 0, 0], [0, 1, 0]], QQ))
        )
        base, _ = affine_asymptotic_family(piece, Subspace(3, [[1, 0, 0]], QQ))
        assert base.flat.dim == 1


class TestVarietyFlats:
    def test_hyperbola_union(self, QQ):
        X = VarietyInput(
            [
                br([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ),
                br([({-1: 1}, {0: 1}), ({1: 1}, {0: 1})], QQ),
            ],
            2,
            "real",
            1,
            QQ,
        )
        fams = variety_asymptotic_flats(X, Subspace(2, [[1, 0], [0, 1]], QQ))
        assert len(fams) == 2
        assert all(
            isinstance(base, PointSet) and len(base.points) == 1
            for base, _ in fams
        )
        dirs = {V.key() for _, V in fams}
        assert dirs == {
            Subspace(2, [[1, 0]], QQ).key(),
            Subspace(2, [[0, 1]], QQ).key(),
        }

    def test_parabola_empty(self, QQ):
        X = VarietyInput(
            [br([({1: 1}, {0: 1}), ({2: 1}, {0: 1})], QQ)], 2, "real", 1, QQ
        )
        assert variety_asymptotic_flats(X, Subspace(2, [[1, 0]], QQ)) == []

    def test_bounded_branch_contributes_nothing(self, QQ):
        plane = AffinePiece(Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ)))
        bounded = br([({-1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ)
        X = VarietyInput([plane, bounded], 2, "real", 2, QQ)
        fams = variety_asymptotic_flats(X, Subspace(2, [[1, 0]], QQ))
        assert len(fams) == 1
        assert fams[0][1] == Subspace(2, [[1, 0]], QQ)

    def test_graph_rejected(self, QQ):
        g = GraphPiece(1, lambda v: np.stack([v[:, 0], v[:, 0] ** 2], axis=-1))
        X = VarietyInput([g], 2, "real", 1, QQ)
        with pytest.raises(SymbolicUnsupported):
            variety_asymptotic_flats(X, Subspace(2, [[1, 0]], QQ))

    def test_span_filter_holds(self, QQ):
        X = VarietyInput(
            [br([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ)], 2, "real", 1, QQ
        )
        L = Subspace(2, [[1, 0]], QQ)
        for _, V in variety_asymptotic_flats(X, L):
            assert L.contains(V)


class TestComplexBranches:
    def test_ray_collapse_for_complex_flats(self, QQ):
        # complex flats absorb unit scalars: both rays give one flat
        b = ParametricBranch(
            [({1: 1}, {0: 1}), ({-1: 1}, {0: 1})],
            QQ,
            rays=[QQ.rational(1), QQ.rational(-1)],
        )
        L = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                     QQ)
        flats = branch_asymptotic_flats(b, L, "complex", complex_flats=True)
        assert len(flats) == 1
        assert flats[0].directions.dim == 2  # a complex line

    def test_per_ray_real_flats(self, K):
        # demoted mode: each ray contributes its own real flat
        b = ParametricBranch(
            [({1: 1}, {0: 1}), ({-1: 1}, {0: 1})],
            K,
            rays=[K.rational(1), K.rational(-1)],
        )
        L = Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], K)
        flats = branch_asymptotic_flats(b, L, "complex", complex_flats=False)
        assert len(flats) == 1  # (-1)^1 spans the same real line as ray 1
