"""Flat canonicalization, asymptotic families, base points, variety inputs."""

from fractions import Fraction as F

import numpy as np
import pytest

from torusflow.asymptotics import branch_asymptotic_flats, variety_asymptotic_flats
from torusflow.errors import TorusflowError
from torusflow.flats import (
    Flat,
    PointSet,
    TPoly,
    VarietyInput,
    embed_exact_vector,
    to_internal,
)
from torusflow.lattice import Subspace
from torusflow.numberfield import AlgebraicNumber, NumberField, rationals

from oracles import branch, same_bits, to_internal_by_copy, to_logical


@pytest.fixture(scope="module")
def QQ():
    return rationals()


@pytest.fixture(scope="module")
def K():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


class TestFlat:
    def test_canonical_base(self, QQ):
        xaxis = Subspace(2, [[1, 0]], QQ)
        f1 = Flat([3, 5], xaxis)
        f2 = Flat([-7, 5], xaxis)
        assert f1 == f2
        assert f1.base_point == [F(0), F(5)]

    def test_equality_by_point_sets(self, QQ):
        diag = Subspace(2, [[1, 1]], QQ)
        f1 = Flat([2, 0], diag)
        f2 = Flat([0, -2], diag)
        assert f1 == f2
        # sample points of one lie on the other
        for s in range(-5, 5):
            pt = [F(2) + s, F(s)]
            diff = [x - b for x, b in zip(pt, f2.base_point)]
            assert f2.directions.contains_vector(diff)

    def test_point_flat(self, QQ):
        p = Flat([1, 2], Subspace(2, [], QQ))
        assert p.directions.dim == 0
        assert p.dim == 0

    def test_full_plane(self, QQ):
        f = Flat([1, 2], Subspace(2, [[1, 0], [0, 1]], QQ))
        assert f.directions.dim == 2
        assert all(e.is_zero() for e in f.base_point)


def _perp_base_point(A: Flat, span: Subspace):
    """The point of A + span orthogonal to span, as PointSet.project gives it."""
    [pt] = PointSet([A.base_point], A.field).project(span).points
    return pt


class TestPerpBasePoint:
    def test_line_above_axis(self, QQ):
        A = Flat([0, 5], Subspace(2, [[1, 0]], QQ))
        span = Subspace(2, [[1, 0]], QQ)
        pt = _perp_base_point(A, span)
        assert pt == [F(0), F(5)]

    def test_axis_itself(self, QQ):
        A = Flat([0, 0], Subspace(2, [[1, 0]], QQ))
        pt = _perp_base_point(A, Subspace(2, [[1, 0]], QQ))
        assert all(e.is_zero() for e in pt)

    def test_full_span_projects_to_origin(self, QQ):
        A = Flat([3, 4], Subspace(2, [[1, 1]], QQ))
        pt = _perp_base_point(A, Subspace(2, [[1, 0], [0, 1]], QQ))
        assert all(e.is_zero() for e in pt)

    def test_orthogonality_and_membership(self, K):
        # output is orthogonal to span and lies in A + span
        span = Subspace(3, [[1, 0, 0], [0, 1, 1]], K)
        A = Flat([2, 3, 1], Subspace(3, [[1, 0, 0]], K))
        pt = _perp_base_point(A, span)
        for v in span.basis:
            acc = K.zero
            for a, b in zip(pt, v):
                acc = acc + a * b
            assert acc.is_zero()
        # pt - base lies in span + directions
        diff = [a - b for a, b in zip(pt, A.base_point)]
        assert span.sum(A.directions).contains_vector(diff)


class TestFamilies:
    """Asymptotic families are (base, V) pairs: the translates base + V."""

    def test_translate_family_span(self, QQ):
        # an affine piece's family has V = P cap L and a base across it
        plane = Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ))
        X = VarietyInput([plane], 2, "real", 2, QQ)
        [(base, V)] = variety_asymptotic_flats(X, Subspace(2, [[1, 0]], QQ))
        assert V == Subspace(2, [[1, 0]], QQ)
        assert isinstance(base, Flat)
        assert base.directions == Subspace(2, [[0, 1]], QQ)

    def test_singleton(self, QQ):
        # a branch flat becomes one pair: its base point and its directions
        b = branch([({1: 1}, {0: 1}), ({0: 3, -1: 1}, {0: 1})], QQ)
        X = VarietyInput([b], 2, "real", 1, QQ)
        L = Subspace(2, [[1, 0], [0, 1]], QQ)
        [line] = branch_asymptotic_flats(b, L, "real", False)
        [(base, V)] = variety_asymptotic_flats(X, L)
        assert V == line.directions
        assert base.points == [line.base_point]

    def test_dedup(self, QQ):
        # (t, 5 + 1/t) and (2t, 5) approach the same line y = 5
        a = branch([({1: 1}, {0: 1}), ({0: 5, -1: 1}, {0: 1})], QQ)
        b = branch([({1: 2}, {0: 1}), ({0: 5}, {0: 1})], QQ)
        X = VarietyInput([a, b], 2, "real", 1, QQ)
        fams = variety_asymptotic_flats(X, Subspace(2, [[1, 0], [0, 1]], QQ))
        assert len(fams) == 1
        base, V = fams[0]
        assert V == Subspace(2, [[1, 0]], QQ)
        assert base.points == [[0, 5]]


class TestConversions:
    def test_real_roundtrip(self):
        pts = np.array([[1.5, -2.0], [0.0, 3.0]])
        internal = to_internal(pts, "real")
        assert internal.shape == (2, 2)
        back = to_logical(internal, "real")
        assert np.allclose(back.real, pts)

    def test_complex_interleave(self):
        pts = np.array([[1 + 2j, 3 - 1j]])
        internal = to_internal(pts, "complex")
        assert np.allclose(internal, [[1, 2, 3, -1]])
        assert np.allclose(to_logical(internal, "complex"), pts)

    @pytest.mark.parametrize("mode", ["real", "complex"])
    def test_internal_view_keeps_the_bits_of_the_copy(self, mode):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3))
        pts[::7, 1] = complex(np.inf, np.nan)
        pts[3::11, 2] = complex(-0.0, -np.inf)
        for same in (pts, np.asfortranarray(pts), pts[::2], pts[0]):
            internal = to_internal(same, mode)
            assert internal.flags.c_contiguous
            assert same_bits(internal, to_internal_by_copy(same, mode))
        # a C-ordered complex array is viewed, not copied
        assert np.shares_memory(to_internal(pts, "complex"), pts)
        floats = pts.real.copy()
        assert to_internal(floats, "real") is floats

    def test_embed_exact_real_mode_rejects_complex(self):
        z8 = NumberField([1, 0, 0, 0, 1], root_box=((F(1, 2), 1), (F(1, 2), 1)))
        z8.declare_complex_structure([0, 0, 1], [0, 0, 0, -1])
        with pytest.raises(TorusflowError):
            embed_exact_vector([z8.gen], "real", z8)

    def test_embed_exact_complex_split(self):
        z8 = NumberField([1, 0, 0, 0, 1], root_box=((F(1, 2), 1), (F(1, 2), 1)))
        z8.declare_complex_structure([0, 0, 1], [0, 0, 0, -1])
        out = embed_exact_vector([z8.gen], "complex", z8)
        assert len(out) == 2
        assert out[0] == out[1]  # Re = Im = sqrt2/2

    def test_embed_rational_in_complex_mode(self, QQ):
        out = embed_exact_vector([QQ.rational(3)], "complex", QQ)
        assert out[0] == 3 and out[1].is_zero()


class TestTPoly:
    def test_arithmetic(self, QQ):
        t = TPoly.variable(QQ)
        p = (t * t + TPoly.constant(QQ, 1)) * t
        assert set(p.terms) == {F(3), F(1)}

    def test_cancellation(self, QQ):
        t = TPoly.variable(QQ)
        z = t - t
        assert z.is_zero()

    def test_eval(self, QQ):
        t = TPoly.variable(QQ)
        p = t * t + TPoly.constant(QQ, 3)
        assert np.allclose(p.eval_numeric(np.array([2.0])), [7.0])


    def test_eval_converts_coefficients_once(self, K, monkeypatch):
        theta = K.gen
        p = TPoly(K, {F(3, 2): theta, F(0): K.one + theta, F(-1): 3 * theta})
        t = np.array([0.5, 2.0, 1e3])
        expected = np.zeros(t.shape, dtype=complex)
        for e, c in p.terms.items():
            expected = expected + c.to_complex() * t ** float(e)
        calls = []
        to_complex = AlgebraicNumber.to_complex
        monkeypatch.setattr(
            AlgebraicNumber, "to_complex",
            lambda self, *a: calls.append(self) or to_complex(self, *a),
        )
        for _ in range(3):
            assert np.array_equal(p.eval_numeric(t), expected)
        assert len(calls) == len(p.terms)


class TestVarietyInput:
    def test_branch_evaluate(self, QQ):
        b = branch([({1: 1}, {0: 1}), ({-1: 1}, {0: 1})], QQ)
        pts = b.evaluate(np.array([2.0, 4.0]))
        assert np.allclose(pts, [[2.0, 0.5], [4.0, 0.25]])

    def test_zero_denominator_rejected(self, QQ):
        with pytest.raises(TorusflowError):
            branch([({1: 1}, {})], QQ)

    def test_ray_needs_integer_exponents(self, QQ):
        with pytest.raises(TorusflowError):
            branch(
                [({F(3, 2): 1}, {0: 1})], QQ, rays=[QQ.rational(1)]
            )

    def test_declared_dim_validation(self, QQ):
        plane = Flat([0, 0], Subspace(2, [[1, 0], [0, 1]], QQ))
        with pytest.raises(TorusflowError):
            VarietyInput([plane], 2, "real", 1, QQ)
