"""Exact field arithmetic and certified enclosures."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import BisectionEnclosures, FractionArithmetic

import torusflow.numberfield as nf
from torusflow.errors import DivisionByZero, FieldMismatch, TorusflowError
from torusflow.numberfield import (
    Box,
    Interval,
    NumberField,
    _psub,
    rational_coordinates,
    rational_factor,
    rational_root,
    rationals,
    sturm_root_count,
)


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


@pytest.fixture(scope="module")
def zeta8():
    return NumberField(
        [1, 0, 0, 0, 1],
        root_box=((F(1, 2), 1), (F(1, 2), 1)),
        i_coords=[0, 0, 1],
        conj_coords=[0, 0, 0, -1],
    )


# 50-digit reference evaluations (mpmath, dps=55)
SQRT2_REF = F("1.414213562373095048801688724209698078569671875376948")
ZETA8_RE_REF = F("0.707106781186547524400844362104849039284835937688474")


class TestConstruction:
    def test_monic_required(self):
        with pytest.raises(TorusflowError):
            NumberField([-2, 0, 2], root_interval=(1, 2))

    def test_squarefree_required(self):
        # (x-1)^2 = x^2 - 2x + 1
        with pytest.raises(TorusflowError):
            NumberField([1, -2, 1], root_interval=(0, 2))

    def test_interval_must_isolate(self):
        # x^2 - 2 has both roots in (-2, 2)
        with pytest.raises(TorusflowError):
            NumberField([-2, 0, 1], root_interval=(-2, 2))

    def test_rect_must_isolate(self):
        # all four roots of x^4+1 are in the unit square around 0
        with pytest.raises(TorusflowError):
            NumberField([1, 0, 0, 0, 1], root_box=((-2, 2), (-2, 2)))

    def test_degree_one(self):
        q = rationals()
        assert q.degree == 1
        assert q.rational(F(3, 4)).to_float() == 0.75

    def test_sturm_counts(self):
        # x^2 - 2: one root in (1, 2), two in (-2, 2)
        assert sturm_root_count([F(-2), F(0), F(1)], F(1), F(2)) == 1
        assert sturm_root_count([F(-2), F(0), F(1)], F(-2), F(2)) == 2

    def test_bad_conj_rejected(self):
        # -theta is a root and an involution but not the conjugate
        with pytest.raises(TorusflowError):
            NumberField(
                [1, 0, 0, 0, 1],
                root_box=((F(1, 2), 1), (F(1, 2), 1)),
                conj_coords=[0, -1],
            )

    def test_bad_i_rejected(self):
        with pytest.raises(TorusflowError):
            NumberField(
                [1, 0, 0, 0, 1],
                root_box=((F(1, 2), 1), (F(1, 2), 1)),
                i_coords=[0, 0, -1],  # squares to -1 but equals -i
            )


class TestArithmetic:
    def test_defining_relation(self, sqrt2):
        assert sqrt2.gen * sqrt2.gen == 2

    def test_zeta8_square_is_i(self, zeta8):
        sq = zeta8.gen * zeta8.gen
        assert sq.coords == (F(0), F(0), F(1), F(0))
        box = sq.enclosure(F(1, 10**9))
        # high-precision oracle: zeta8^2 = i exactly
        assert box.re.contains(F(0)) and box.im.contains(F(1))

    def test_add_zero_identity(self, sqrt2):
        import random

        rng = random.Random(11)
        for _ in range(20):
            a = sqrt2.from_coords([F(rng.randint(-9, 9), rng.randint(1, 9)),
                                   F(rng.randint(-9, 9), rng.randint(1, 9))])
            assert a + sqrt2.zero == a

    def test_division(self, sqrt2):
        a = sqrt2.from_coords([F(3), F(-2)])
        assert a * a.inverse() == 1
        assert (a / a) == 1

    def test_zero_division(self, sqrt2):
        with pytest.raises(DivisionByZero):
            sqrt2.one / sqrt2.zero

    def test_field_mismatch(self, sqrt2, zeta8):
        with pytest.raises(FieldMismatch):
            sqrt2.gen + zeta8.gen

    def test_power(self, zeta8):
        assert zeta8.gen**8 == 1
        assert zeta8.gen**4 == -1
        assert zeta8.gen**-1 == -(zeta8.gen**3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
             min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
             min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
             min_size=2, max_size=2),
)
def test_field_axioms(ca, cb, cc):
    K = NumberField([-2, 0, 1], root_interval=(1, 2))
    a, b, c = K.from_coords(ca), K.from_coords(cb), K.from_coords(cc)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == 1


# -- integer arithmetic against Fraction coordinates --------------------------

# name -> (field arguments, conj and i coordinates for the oracle)
ORACLE_FIELDS = {
    "Q": ({"min_poly": [0, 1]}, {}),
    "Q(sqrt2)": ({"min_poly": [-2, 0, 1], "root_interval": (1, 2)}, {}),
    "Q(zeta8)": (
        {"min_poly": [1, 0, 0, 0, 1], "root_box": ((F(1, 2), 1), (F(1, 2), 1))},
        {"conj": [0, 0, 0, -1], "i": [0, 0, 1]},
    ),
    # x^2 = 1/3 and x^3 = 1/2, x^4 = x/2: products fold over denominators 3, 2
    "Q(sqrt(1/3))": ({"min_poly": [F(-1, 3), 0, 1], "root_interval": (F(1, 2), 1)}, {}),
    "Q(cbrt(1/2))": (
        {"min_poly": [F(-1, 2), 0, 0, 1], "root_interval": (F(1, 2), 1)}, {}
    ),
    # theta = (1 + i) / 2: x^2 = x - 1/2, conj(theta) = 1 - theta, i = 2 theta - 1
    "Q((1+i)/2)": (
        {
            "min_poly": [F(1, 2), -1, 1],
            "root_box": ((F(1, 4), F(3, 4)), (F(1, 4), F(3, 4))),
        },
        {"conj": [1, -1], "i": [-1, 2]},
    ),
    # theta = 2 zeta8: conj(theta) = -theta^3 / 4 and i = theta^2 / 4
    "Q(2 zeta8)": (
        {"min_poly": [16, 0, 0, 0, 1], "root_box": ((1, 2), (1, 2))},
        {"conj": [0, 0, 0, F(-1, 4)], "i": [0, 0, F(1, 4)]},
    ),
}


def _oracle_field(name):
    args, structure = ORACLE_FIELDS[name]
    K = NumberField(
        i_coords=structure.get("i"), conj_coords=structure.get("conj"), **args
    )
    return K, FractionArithmetic(K, **structure)


FIELDS = {name: _oracle_field(name) for name in ORACLE_FIELDS}


def _assert_is(e, want):
    """e holds the coordinates want, in lowest terms, and equals every other
    way of building them."""
    assert e.den > 0 and math.gcd(e.den, *e.num) == 1
    assert all(type(n) is int for n in e.num) and type(e.den) is int
    assert e.coords == want
    assert all(type(c) is F for c in e.coords)
    other = e.field.from_coords(want)
    assert e == other and hash(e) == hash(other)
    assert (e.num, e.den) == (other.num, other.den)


_small_fractions = st.fractions(min_value=-7, max_value=7, max_denominator=9)
_coords = st.lists(_small_fractions, min_size=4, max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(FIELDS)), _small_fractions, _coords, _coords)
def test_arithmetic_matches_fraction_coordinates(name, c, ca, cb):
    K, oracle = FIELDS[name]
    x, y = K.from_coords(ca[: K.degree]), K.from_coords(cb[: K.degree])
    a, b = x.coords, y.coords
    r = K.rational(c)
    _assert_is(x + y, oracle.add(a, b))
    _assert_is(x - y, oracle.sub(a, b))
    _assert_is(-x, oracle.sub(K.zero.coords, a))
    _assert_is(x * y, oracle.mul(a, b))
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (x - y) + y == x and hash((x - y) + y) == hash(x)
    _assert_is(x.conjugate(), oracle.conjugate(a))
    _assert_is(x.real_part(), oracle.real_part(a))
    _assert_is(x.imag_part(), oracle.imag_part(a))
    if K.is_complex:
        assert x.real_part() + K.i * x.imag_part() == x
    # a rational operand scales the other's coordinates
    for got in (x * c, c * x, x * r, r * x):
        _assert_is(got, oracle.mul(a, r.coords))
    if c != 0:
        inv = oracle.inverse(r.coords)
        assert inv == (F(1) / c,) + (F(0),) * (K.degree - 1)
        _assert_is(r.inverse(), inv)
        _assert_is(x / c, oracle.mul(a, inv))
        _assert_is(x / r, oracle.mul(a, inv))
        _assert_is(r**-2, oracle.mul(inv, inv))
    if not y.is_zero():
        inv = oracle.inverse(b)
        _assert_is(y.inverse(), inv)
        _assert_is(x / y, oracle.mul(a, inv))
        _assert_is(c / y, oracle.mul(r.coords, inv))
        assert x / y * y == x


def test_coords_are_read_only():
    K, _ = FIELDS["Q(sqrt2)"]
    e = K.from_coords([F(1, 3), F(-2, 5)])
    assert (e.num, e.den) == ((5, -6), 15)
    assert e.coords == (F(1, 3), F(-2, 5))
    with pytest.raises(AttributeError):
        e.coords = (F(0), F(0))


class TestReducibleModulus:
    """x^2 - 1 is not irreducible: rationals still invert, theta - 1 does not."""

    @pytest.fixture(scope="class")
    def K(self):
        return NumberField([-1, 0, 1], root_interval=(F(1, 2), 2))

    def test_rational_inverts(self, K):
        two = K.rational(2)
        assert two.inverse() == K.rational(F(1, 2))
        assert two.inverse().coords == FractionArithmetic(K).inverse(two.coords)
        assert (K.gen / 2).coords == (F(0), F(1, 2))

    def test_zero_divisor_raises(self, K):
        with pytest.raises(DivisionByZero):
            (K.gen - 1).inverse()
        with pytest.raises(DivisionByZero):
            K.one / (K.gen - 1)


class TestEnclosures:
    def test_sqrt2_tight(self, sqrt2):
        eps = F(1, 10**6)
        box = sqrt2.gen.enclosure(eps)
        assert box.width() <= eps
        assert box.re.lo <= SQRT2_REF <= box.re.hi

    def test_sqrt2_50_digits(self, sqrt2):
        eps = F(1, 10**40)
        box = sqrt2.gen.enclosure(eps)
        assert box.re.lo <= SQRT2_REF <= box.re.hi
        assert box.width() <= eps

    def test_rational_degenerate(self, sqrt2):
        box = sqrt2.rational(F(3, 4)).enclosure(F(1, 10))
        assert box.re.lo == box.re.hi == F(3, 4)

    def test_zeta8_rectangle(self, zeta8):
        box = zeta8.gen.enclosure(F(1, 1000))
        assert box.re.lo <= ZETA8_RE_REF <= box.re.hi
        assert box.im.lo <= ZETA8_RE_REF <= box.im.hi
        assert box.width() <= F(1, 1000)

    def test_nested_refinement(self, sqrt2):
        coarse = sqrt2.gen.enclosure(F(1, 100))
        fine = sqrt2.gen.enclosure(F(1, 10**8))
        assert coarse.re.lo <= fine.re.lo and fine.re.hi <= coarse.re.hi

    def test_zero_test_vs_refinement(self, sqrt2):
        # a != 0 implies some refinement excludes 0
        a = sqrt2.from_coords([F(-1), F(1)])  # sqrt2 - 1 != 0
        assert not a.is_zero()
        box = a.enclosure(F(1, 10**6))
        assert not (box.re.contains(F(0)) and box.im.contains(F(0)))

    def test_conjugation(self, zeta8):
        th = zeta8.gen
        re = th.real_part()
        im = th.imag_part()
        assert re.is_real() and im.is_real()
        assert re == im  # both are sqrt2/2
        assert re + zeta8.i * im == th
        sqrt2_elem = th - th**3
        box = sqrt2_elem.enclosure(F(1, 10**12))
        assert box.re.lo <= SQRT2_REF <= box.re.hi


def _is_dyadic(q):
    return q.denominator & (q.denominator - 1) == 0


def _count_certifications(monkeypatch):
    calls = []
    certify = nf._certify_root

    def counted(*args, **kwargs):
        calls.append(args[2])
        return certify(*args, **kwargs)

    monkeypatch.setattr(nf, "_certify_root", counted)
    return calls


X4_PLUS_1 = [1, 0, 0, 0, 1]
X4_MINUS_2 = [-2, 0, 0, 0, 1]


class TestComplexIsolation:
    """One certification per conjugate pair, dyadic certified boxes."""

    # the roots of x^4 + 1 are (+-1 +- i)/sqrt(2); theta^2 is i in the first
    # and third quadrants and -i in the others; conj(theta) = 1/theta = -theta^3
    @pytest.mark.parametrize("sre, sim", [(1, 1), (-1, 1), (-1, -1), (1, -1)])
    def test_quadrant_rects(self, sre, sim):
        rect = tuple(
            (F(1, 2), 1) if sign > 0 else (-1, F(-1, 2)) for sign in (sre, sim)
        )
        K = NumberField(
            X4_PLUS_1,
            root_box=rect,
            i_coords=[0, 0, sre * sim],
            conj_coords=[0, 0, 0, -1],
        )
        box = K.root_enclosure(F(1, 10**20))
        assert box.re.contains(sre * ZETA8_RE_REF)
        assert box.im.contains(sim * ZETA8_RE_REF)
        assert K.i.enclosure(F(1, 10**9)).im.contains(F(1))
        assert K.gen.conjugate() * K.gen == 1

    def test_real_and_complex_roots(self):
        # x^4 - 2 has the real roots +-2^(1/4) and the complex roots +-i*2^(1/4)
        K = NumberField(X4_MINUS_2, root_box=((F(-1, 2), F(1, 2)), (1, F(3, 2))))
        assert len(K._all_root_boxes) == 4
        box = K.root_enclosure(F(1, 10**20))
        assert box.re.contains(F(0)) and box.im.lo > 1
        assert box.im.lo**4 < 2 < box.im.hi**4

    @pytest.mark.parametrize(
        "rect",
        [
            ((2, 3), (2, 3)),  # no root
            ((-1, 1), (F(1, 2), 1)),  # the two upper roots
        ],
        ids=["empty", "two-roots"],
    )
    def test_rect_must_hold_one_root(self, rect):
        with pytest.raises(TorusflowError):
            NumberField(X4_PLUS_1, root_box=rect)

    @pytest.mark.parametrize(
        "poly, rect, expected",
        [(X4_PLUS_1, ((F(1, 2), 1), (F(1, 2), 1)), 2),
         (X4_MINUS_2, ((F(-1, 2), F(1, 2)), (1, F(3, 2))), 3)],
        ids=["x^4+1", "x^4-2"],
    )
    def test_one_certification_per_pair(self, monkeypatch, poly, rect, expected):
        calls = _count_certifications(monkeypatch)
        NumberField(poly, root_box=rect)
        assert len(calls) == expected
        assert all(seed.imag >= 0 for seed in calls)

    def test_dyadic_box_contains_its_input(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            ends = [F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                    for _ in range(2)]
            width = F(1, rng.randint(1, 10**15))
            box = Box(Interval(ends[0], ends[0] + width),
                      Interval(ends[1], ends[1] + width * rng.randint(0, 1)))
            rounded = nf._dyadic_box(box)
            assert rounded.contains_box(box)
            assert rounded.width() < box.width() * F(9, 8)
            assert all(
                _is_dyadic(q)
                for q in (rounded.re.lo, rounded.re.hi, rounded.im.lo, rounded.im.hi)
            )

    def test_rounding_stays_inside_the_uniqueness_square(self):
        # bisect the half-width h down to where Newton's box K barely fits the
        # square Z; there the rounded box would poke out, so K is kept
        m = [F(-2), F(0), F(1)]
        md = nf._pderiv(m)
        z = (F(7, 5), F(0))
        lo, hi = F(1, 1000), F(1)
        assert nf._try_certify(m, md, *z, lo) is None
        for _ in range(60):
            mid = (lo + hi) / 2
            if nf._try_certify(m, md, *z, mid) is None:
                lo = mid
            else:
                hi = mid
        square = Box(Interval(z[0] - hi, z[0] + hi), Interval(z[1] - hi, z[1] + hi))
        assert square.strictly_contains(nf._try_certify(m, md, *z, hi))

    @pytest.mark.parametrize("eps", [F(1, 1 << 24), F(1, 10**20), F(1, 10**40)])
    def test_enclosure_is_dyadic(self, eps):
        K = NumberField(X4_PLUS_1, root_box=((F(1, 2), 1), (F(1, 2), 1)))
        box = K.root_enclosure(eps)
        ends = (box.re.lo, box.re.hi, box.im.lo, box.im.hi)
        assert box.width() <= eps and all(_is_dyadic(q) for q in ends)
        # numpy's value is a float approximation, off by a few ulps
        value = next(r for r in np.roots([1, 0, 0, 0, 1]) if r.real > 0 < r.imag)
        assert abs(box.to_complex() - value) < 1e-14

    def test_declared_structure_keeps_boxes_dyadic(self, zeta8):
        box = zeta8.root_enclosure(F(1, 10**30))
        ends = (box.re.lo, box.re.hi, box.im.lo, box.im.hi)
        assert all(_is_dyadic(q) for q in ends)
        assert all(
            _is_dyadic(q)
            for b in zeta8._all_root_boxes
            for q in (b.re.lo, b.re.hi, b.im.lo, b.im.hi)
        )


SMALL_RATIONALS = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


class TestRationalRoot:
    @pytest.mark.parametrize(
        "poly, root",
        [
            ([-1, 0, 1], F(1)),
            ([0, 1, 1], F(0)),
            ([F(-1, 4), 0, 1], F(1, 2)),
            # (x - 1/2)(x^2 - 2)
            ([1, -2, F(-1, 2), 1], F(1, 2)),
            # (3x + 2)(x^2 + 1) / 3
            ([F(2, 3), 1, F(2, 3), 1], F(-2, 3)),
        ],
    )
    def test_finds_the_root(self, poly, root):
        assert rational_root(poly) == root

    @pytest.mark.parametrize(
        "poly",
        [[-2, 0, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 1], [1, 0, -10, 0, 1],
         [F(-2, 10**50), 0, 1], [1, -10**6, 1]],
    )
    def test_irreducible_has_none(self, poly):
        assert rational_root(poly) is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(SMALL_RATIONALS, min_size=1, max_size=3), SMALL_RATIONALS)
    def test_planted_root_found(self, cofactor, root):
        # (x - root) * (x^k + cofactor...) has root as a rational root
        g = list(cofactor) + [F(1)]
        p = _psub([F(0)] + g, [root * c for c in g])
        found = rational_root(p)
        assert found is not None and _peval_exact(p, found) == 0


class TestRationalFactor:
    @pytest.mark.parametrize(
        "poly, embedding, factor",
        [
            # (x^2 - 2)(x^2 - 3)
            ([6, 0, -5, 0, 1], {"root_interval": (1, F(3, 2))}, [-3, 0, 1]),
            # (x^2 + 1)(x^2 - 2) at i: a complex field's own root boxes
            ([-2, 0, -1, 0, 1], {"root_box": ((F(-1, 2), F(1, 2)), (F(1, 2), 2))},
             [-2, 0, 1]),
            # (x^2 - 1/1000)(x^2 - 3/1000): factors of r = 10^18 p(y / 10^6)
            ([F(3, 10**6), 0, F(-4, 1000), 0, 1],
             {"root_interval": (F(3, 100), F(4, 100))}, [F(-3, 1000), 0, 1]),
            # (x^3 - 3)(x^3 - 2): only the degree-3 subsets
            ([6, 0, 0, -5, 0, 0, 1], {"root_interval": (F(5, 4), F(13, 10))},
             [-3, 0, 0, 1]),
            # (x^2 - 2)(x^3 - 3): degree 5
            ([6, 0, -3, -2, 0, 1], {"root_interval": (F(7, 5), F(143, 100))},
             [-2, 0, 1]),
            ([1, 0, 0, 0, 1], {"root_box": ((F(1, 2), 1), (F(1, 2), 1))}, None),
            ([1, 0, -10, 0, 1], {"root_interval": (3, 4)}, None),
            ([-2, 0, 0, 0, 1], {"root_interval": (1, 2)}, None),
            ([-2, 0, 0, 0, 0, 0, 1], {"root_interval": (1, 2)}, None),
        ],
    )
    def test_factor_found(self, poly, embedding, factor):
        K = NumberField(poly, **embedding)
        assert rational_factor(K.min_poly, K.root_boxes()) == factor

    def test_wide_boxes_are_refined(self, monkeypatch):
        # (x^2 - 2)(x^2 - 11) with unit boxes: each pair's product box is
        # too wide to pin an integer until the boxes are refined
        poly = [F(22), 0, F(-13), 0, F(1)]
        boxes = [
            Box(Interval(c - F(1, 2), c + F(1, 2)), Interval(F(-1, 2), F(1, 2)))
            for c in (F(-33, 10), F(-7, 5), F(7, 5), F(33, 10))
        ]
        refined = []
        refine = nf._refine_root_box
        monkeypatch.setattr(
            nf, "_refine_root_box", lambda *a: refined.append(a) or refine(*a)
        )
        assert rational_factor(poly, boxes) == [-11, 0, 1]
        assert len(refined) == 4


def _peval_exact(p, x):
    return sum(c * x**k for k, c in enumerate(p))


class TestRationalCoordinates:
    def test_standard(self, sqrt2):
        rows = rational_coordinates([sqrt2.one, sqrt2.gen], sqrt2)
        assert rows == [[F(1), F(0)], [F(0), F(1)]]

    def test_combined(self, sqrt2):
        rows = rational_coordinates([sqrt2.from_coords([1, 2])], sqrt2)
        assert rows == [[F(1), F(2)]]

    def test_zeta8_cube(self, zeta8):
        rows = rational_coordinates([zeta8.gen**3], zeta8)
        assert rows == [[F(0), F(0), F(0), F(1)]]

    def test_reassembly(self, sqrt2):
        v = [sqrt2.from_coords([F(1, 3), F(-2, 5)])]
        rows = rational_coordinates(v, sqrt2)
        rebuilt = sum(
            (sqrt2.gen**k) * c for k, c in enumerate(rows[0])
        )
        assert rebuilt == v[0]


class TestIntervalArithmetic:
    def test_mul_signs(self):
        a = Interval(F(-2), F(3))
        b = Interval(F(-1), F(4))
        prod = a * b
        assert prod.lo == F(-8) and prod.hi == F(12)

    def test_square_through_zero(self):
        s = Interval(F(-2), F(1)).square()
        assert s.lo == F(0) and s.hi == F(4)

    def test_box_divide(self):
        z = Box(Interval(F(1), F(1)), Interval(F(0), F(0)))
        w = Box(Interval(F(0), F(0)), Interval(F(1), F(1)))
        q = z.divide(w)  # 1 / i = -i
        assert q.re.contains(F(0)) and q.im.contains(F(-1))


# ---------------------------------------------------------------------------
# Field elements to floats: Newton-located bisection boxes, one theta width
# per enclosure, checked against the earlier bisection loop
# ---------------------------------------------------------------------------

CONVERSION_FIELDS = {
    "sqrt2": lambda: NumberField([-2, 0, 1], root_interval=(1, 2)),
    # theta = sqrt 2 + sqrt 3
    "quartic": lambda: NumberField([1, 0, -10, 0, 1], root_interval=(3, 4)),
    "zeta8": lambda: NumberField(
        [1, 0, 0, 0, 1],
        root_box=((F(1, 2), 1), (F(1, 2), 1)),
        i_coords=[0, 0, 1],
        conj_coords=[0, 0, 0, -1],
    ),
}
DEFAULT_EPS = F(1, 10**16)


def _random_elements(K, seed, count=25):
    rng = random.Random(seed)
    for _ in range(count):
        yield K.from_coords(
            F(rng.randint(-10 ** rng.randint(0, 5), 10 ** rng.randint(0, 5)),
              rng.randint(1, 10 ** rng.randint(0, 3)))
            for _ in range(K.degree)
        )


def _random_eps(rng):
    return DEFAULT_EPS if rng.random() < 0.5 else F(1, 10 ** rng.randint(1, 40))


def _sign_change_on(m, box):
    lo, hi = box.re.lo, box.re.hi
    if lo == hi:
        return nf._peval(m, lo) == 0
    return (nf._peval(m, lo) > 0) != (nf._peval(m, hi) > 0)


def _count(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestNewtonEnclosures:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CONVERSION_FIELDS))
    def test_matches_the_bisection_oracle(self, monkeypatch, name, seed):
        K = CONVERSION_FIELDS[name]()
        start = K._root_enclosure
        oracle = BisectionEnclosures(K)
        fine = BisectionEnclosures(CONVERSION_FIELDS[name]())
        refines = _count(monkeypatch, NumberField, "_refine_box")
        rng = random.Random(seed)
        for e in _random_elements(K, seed):
            eps = _random_eps(rng)
            del refines[:]
            box = e.enclosure(eps)
            if not K.is_complex:
                assert len(refines) <= 1
            assert box.width() <= eps
            ref = oracle.enclosure(e, eps)
            assert not box.disjoint(ref)
            assert box == ref
            # the element's value, enclosed through a far narrower theta
            assert not box.disjoint(fine.enclosure(e, F(1, 10**60)))
        theta = K._root_enclosure
        assert start.contains_box(theta)
        if not K.is_complex:
            assert _sign_change_on(K.min_poly, theta)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CONVERSION_FIELDS))
    def test_floats_are_the_oracles_bit_for_bit(self, name, seed):
        K = CONVERSION_FIELDS[name]()
        oracle = BisectionEnclosures(K)
        for e in _random_elements(K, seed):
            ref = oracle.enclosure(e, DEFAULT_EPS)
            if K.is_complex:
                assert e.to_complex() == ref.to_complex()
            else:
                assert e.to_float() == float(ref.re.mid())
                assert e.to_complex() == ref.to_complex()

    @pytest.mark.parametrize("q", [F(0), F(-7, 3), F(10**300), F(1, 10**300)])
    def test_rationals_convert_directly(self, q):
        e = CONVERSION_FIELDS["quartic"]().rational(q)
        assert e.to_float() == float(q)
        z = e.to_complex()
        assert z == complex(float(q), 0.0)
        assert z == Box.point(q).to_complex()
        assert e._box is None

    @pytest.mark.parametrize("name", ["sqrt2", "quartic"])
    def test_newton_boxes_are_certified_inside_the_last(self, monkeypatch, name):
        K = CONVERSION_FIELDS[name]()
        cells = []
        newton_cell = nf._newton_cell

        def recorded(m, md, lo, hi, n):
            cell = newton_cell(m, md, lo, hi, n)
            cells.append((lo, hi, n, cell))
            return cell

        monkeypatch.setattr(nf, "_newton_cell", recorded)
        rng = random.Random(5)
        for e in _random_elements(K, 5):
            e.enclosure(_random_eps(rng))
        assert cells and all(cell is not None for *_, cell in cells)
        for lo, hi, n, cell in cells:
            assert lo <= cell.re.lo and cell.re.hi <= hi
            assert cell.re.width() in (0, (hi - lo) / 2**n)
            assert _sign_change_on(K.min_poly, cell)

    def test_newton_two_cycle_falls_back_to_bisection(self, monkeypatch):
        # Newton's iteration for x^3 - 2x + 2 cycles 0 -> 1 -> 0 from the
        # interval's midpoint, far from the real root near -1.769
        K = NumberField([2, -2, 0, 1], root_interval=(-2, 2))
        oracle = BisectionEnclosures(NumberField([2, -2, 0, 1], root_interval=(-2, 2)))
        bisections = _count(monkeypatch, nf, "_bisect")
        eps = F(1, 10**20)
        box = K.gen.enclosure(eps)
        assert bisections
        assert box.width() <= eps
        assert box == oracle.enclosure(K.gen, eps)
        assert _sign_change_on(K.min_poly, K._root_enclosure)

    def test_newton_on_another_root_falls_back_to_bisection(self, monkeypatch):
        K = CONVERSION_FIELDS["sqrt2"]()
        oracle = BisectionEnclosures(CONVERSION_FIELDS["sqrt2"]())
        monkeypatch.setattr(nf, "_float_newton", lambda m, md, x: -1.4142135623730951)
        bisections = _count(monkeypatch, nf, "_bisect")
        assert K.gen.to_float() == float(oracle.enclosure(K.gen, DEFAULT_EPS).re.mid())
        assert len(bisections) == 1
        assert _sign_change_on(K.min_poly, K._root_enclosure)

    @pytest.mark.parametrize("where", ["near_endpoint", "tiny"])
    def test_awkward_starting_intervals(self, where):
        lo = F(math.isqrt(2 << 140), 1 << 70)  # sqrt 2 - lo < 2^-70
        interval = (lo, 2) if where == "near_endpoint" else (lo, lo + F(1, 1 << 70))
        K = NumberField([-2, 0, 1], root_interval=interval)
        oracle = BisectionEnclosures(NumberField([-2, 0, 1], root_interval=interval))
        for eps in (DEFAULT_EPS, F(1, 10**30), F(1, 10**60)):
            box = K.gen.enclosure(eps)
            assert box.width() <= eps
            assert box == oracle.enclosure(K.gen, eps)
        assert _sign_change_on(K.min_poly, K._root_enclosure)

    def test_root_beyond_the_float_range(self):
        # theta = sqrt(2) * 10^400: no float Newton start, bisection certifies
        poly = [-2 * 10**800, 0, 1]
        interval = (14 * 10**399, 15 * 10**399)
        K = NumberField(poly, root_interval=interval)
        oracle = BisectionEnclosures(NumberField(poly, root_interval=interval))
        eps = F(1, 10**6)
        box = K.gen.enclosure(eps)
        assert box.width() <= eps
        assert box == oracle.enclosure(K.gen, eps)

    def test_theta_stops_at_the_widest_sufficient_level(self, monkeypatch):
        # theta^3 over theta's box [3, 4] of width 1: the bound 3 * 4^2 = 48
        # asks for 4 * 13 halvings at this eps, while the enclosure's width,
        # about 3 * theta^2 = 29.7 times theta's, is within eps after 4 * 12
        K = CONVERSION_FIELDS["quartic"]()
        oracle = BisectionEnclosures(CONVERSION_FIELDS["quartic"]())
        e = K.from_coords([0, 0, 0, 1])
        eps = F(40, 16**12)
        refines = _count(monkeypatch, NumberField, "_refine_box")
        box = e.enclosure(eps)
        assert len(refines) == 1
        assert K._root_enclosure.width() == F(1, 16**12)
        assert box == oracle.enclosure(e, eps)

    def test_sqrt2_to_float_refines_theta_once(self, monkeypatch):
        K = NumberField([-2, 0, 1], root_interval=(1, 2))
        refines = _count(monkeypatch, NumberField, "_refine_box")
        evals = _count(monkeypatch, nf, "_peval")
        assert K.gen.to_float() == 1.4142135623730951
        assert len(refines) <= 1
        assert len(evals) <= 8


class TestFloatRows:
    def test_rows(self, sqrt2):
        rows = [[sqrt2.one, sqrt2.gen], [sqrt2.rational(F(-1, 4)), sqrt2.zero]]
        out = nf.float_rows(rows, 2)
        assert out.dtype == float
        assert out.tolist() == [[1.0, 1.4142135623730951], [-0.25, 0.0]]

    def test_no_rows_keep_their_width(self):
        assert nf.float_rows([], 3).shape == (0, 3)
