"""Exact field arithmetic and certified enclosures."""

import math
import random
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    FractionArithmetic,
    FractionBox,
    FractionInterval,
    fraction_at,
    fraction_dyadic_box,
    fraction_hull,
    fraction_narrowed,
    fraction_newton,
)

import torusflow.numberfield as nf
from torusflow.errors import DivisionByZero, FieldMismatch, TorusflowError
from torusflow.numberfield import (
    Box,
    Interval,
    NumberField,
    _psub,
    rational_factor,
    rational_root,
    rationals,
    sturm_root_count,
)


@pytest.fixture(scope="module")
def sqrt2():
    return NumberField([-2, 0, 1], root_interval=(1, 2))


def _zeta8():
    K = NumberField([1, 0, 0, 0, 1], root_box=((F(1, 2), 1), (F(1, 2), 1)))
    K.declare_complex_structure([0, 0, 1], [0, 0, 0, -1])
    return K


@pytest.fixture(scope="module")
def zeta8():
    return _zeta8()


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
        K = NumberField([1, 0, 0, 0, 1], root_box=((F(1, 2), 1), (F(1, 2), 1)))
        # -theta is a root and an involution but not the conjugate
        with pytest.raises(TorusflowError, match="not the conjugate of theta"):
            K.declare_complex_structure(conj_coords=[0, -1])

    @pytest.mark.parametrize(
        "poly, rect, conj, message",
        [
            # theta^2 is not a root of x^4 + 1: (theta^2)^4 + 1 = 2
            ([1, 0, 0, 0, 1], ((F(1, 2), 1), (F(1, 2), 1)), [0, 0, 1], "not a root"),
            # theta -> theta^2 permutes the primitive fifth roots of unity in
            # a 4-cycle
            ([1, 1, 1, 1, 1], ((F(1, 5), F(2, 5)), (F(9, 10), 1)), [0, 0, 1],
             "not an involution"),
        ],
        ids=["not-a-root", "not-an-involution"],
    )
    def test_conj_checks(self, poly, rect, conj, message):
        K = NumberField(poly, root_box=rect)
        with pytest.raises(TorusflowError, match=message):
            K.declare_complex_structure(conj_coords=conj)

    def test_conj_on_a_real_field_rejected(self, sqrt2):
        with pytest.raises(TorusflowError, match="only applies to complex fields"):
            sqrt2.declare_complex_structure(conj_coords=[0, -1])

    def test_bad_i_rejected(self):
        K = NumberField([1, 0, 0, 0, 1], root_box=((F(1, 2), 1), (F(1, 2), 1)))
        with pytest.raises(TorusflowError):
            # squares to -1 but equals -i
            K.declare_complex_structure(i_coords=[0, 0, -1])


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

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # in Q(2^(1/3)) the factors theta, theta^2 and theta^4 = 2 theta are
        # irrational, so each multiplication of them is a full product
        K = NumberField([-2, 0, 0, 1], root_interval=(1, 2))
        calls = []
        product = nf.AlgebraicNumber._product

        def counted(self, o):
            calls.append(o)
            return product(self, o)

        monkeypatch.setattr(nf.AlgebraicNumber, "_product", counted)
        counts = {}
        for n, coords in [(1, (0, 1, 0)), (2, (0, 0, 1)), (5, (0, 0, 2))]:
            calls.clear()
            assert (K.gen**n).coords == coords
            counts[n] = len(calls)
        assert counts == {1: 0, 2: 1, 5: 3}


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
    K = NumberField(**args)
    K.declare_complex_structure(structure.get("i"), structure.get("conj"))
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
    certify = nf._certify

    def counted(*args, **kwargs):
        calls.append(args[2])
        return certify(*args, **kwargs)

    monkeypatch.setattr(nf, "_certify", counted)
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
        K = NumberField(X4_PLUS_1, root_box=rect)
        K.declare_complex_structure([0, 0, sre * sim], [0, 0, 0, -1])
        box = K.root_enclosure(F(1, 10**20))
        assert box.re.contains(sre * ZETA8_RE_REF)
        assert box.im.contains(sim * ZETA8_RE_REF)
        assert K.i.enclosure(F(1, 10**9)).im.contains(F(1))
        assert K.gen.conjugate() * K.gen == 1

    def test_real_root_refused(self):
        # the rectangle isolates the real root 2^(1/4) of x^4 - 2
        with pytest.raises(TorusflowError, match="selected root looks real"):
            NumberField(X4_MINUS_2, root_box=((1, 2), (F(-1, 2), F(1, 2))))

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
        assert all(seed.im.lo >= 0 for seed in calls)

    def test_dyadic_box_contains_its_input(self):
        import random

        rng = random.Random(7)
        for _ in range(200):
            ends = [F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                    for _ in range(2)]
            width = F(1, rng.randint(1, 10**15))
            box = Box(Interval(ends[0], ends[0] + width),
                      Interval(ends[1], ends[1] + width * rng.randint(0, 1)))
            grid = width * rng.choice([1, 1, 10**rng.randint(1, 9)])
            for X in (box, box.re):
                rounded = nf._dyadic_box(X, grid)
                assert rounded.contains_box(X)
                assert rounded.width() < X.width() + grid / 8
                ends_out = (
                    (rounded.lo, rounded.hi) if X is box.re
                    else (rounded.re.lo, rounded.re.hi, rounded.im.lo, rounded.im.hi)
                )
                assert all(_is_dyadic(q) for q in ends_out)

    def test_rounding_stays_inside_the_uniqueness_square(self):
        # bisect the half-width h down to where Newton's box N barely fits the
        # square Z; rounded outward there it pokes out, and it is cut back
        m = [F(-2), F(0), F(1)]
        md = nf._pderiv(m)
        c = Box.point(F(7, 5), F(0))

        def image(h):
            Z = c.widened(h)
            N = nf._newton(m, md, c, Z)
            return Z, N if N is not None and Z.strictly_contains(N) else None

        lo, hi = F(1, 1000), F(1)
        assert image(lo)[1] is None
        for _ in range(60):
            mid = (lo + hi) / 2
            if image(mid)[1] is None:
                lo = mid
            else:
                hi = mid
        Z, N = image(hi)
        assert not Z.contains_box(nf._dyadic_box(N, N.width()))
        rounded = nf._narrowed(N, Z, N.width())
        assert Z.contains_box(rounded) and rounded.contains_box(N)

    def test_complex_fallback_certifies_from_the_centre(self, monkeypatch):
        # the box's right edge lies 10^-20 past sqrt 2: the certificate from
        # its centre's float, rounded for the width asked, pokes out of it,
        # and m'(X) = 2X holds 0, so no step from the centre narrows it
        m = [F(-2), F(0), F(1)]
        X = Box(Interval(F(0), SQRT2_REF + F(1, 10**20)), Interval(F(-1), F(1)))
        calls = _count_certifications(monkeypatch)
        width = F(1, 1000)
        box = nf._refine(m, nf._pderiv(m), X, width)
        assert len(calls) == 2
        assert X.contains_box(box) and box.width() <= width
        assert box.re.contains(SQRT2_REF) and box.im.contains(0)

    def test_refinement_that_drifts_is_refused(self, monkeypatch):
        m = [F(-2), F(0), F(1)]
        X = Box(Interval(F(0), F(2)), Interval(F(-1), F(1)))
        monkeypatch.setattr(
            nf, "_float_newton", lambda m, X: -1.4142135623730951 + 0j
        )
        with pytest.raises(TorusflowError, match="drifted"):
            nf._refine(m, nf._pderiv(m), X, F(1, 1000))

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
        refine = nf._refine
        monkeypatch.setattr(nf, "_refine", lambda *a: refined.append(a) or refine(*a))
        assert rational_factor(poly, boxes) == [-11, 0, 1]
        assert len(refined) == 4


def _peval_exact(p, x):
    return sum(c * x**k for k, c in enumerate(p))


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
# Integer endpoints against the Fraction-endpoint reference of tests/oracles.py
# ---------------------------------------------------------------------------


def _ends(X):
    """The endpoints of an Interval or Box of either kind, as Fractions."""
    if hasattr(X, "re"):
        return (X.re.lo, X.re.hi, X.im.lo, X.im.hi)
    return (X.lo, X.hi)


def _pair(lo, hi):
    """The same interval as an Interval and as the reference."""
    return Interval(lo, hi), FractionInterval(F(lo), F(hi))


def _box_pair(re, im):
    (a, ra), (b, rb) = _pair(*re), _pair(*im)
    return Box(a, b), FractionBox(ra, rb)


def _rational(rng, kind):
    """A random rational over a power of two, or over any denominator."""
    n = rng.randint(-10**6, 10**6)
    if kind == "dyadic":
        return F(n, 1 << rng.randint(0, 70))
    return F(n, rng.randint(1, 10**4))


def _random_pair(rng, sign=None):
    """Random endpoints, each dyadic or not (mixed denominators included),
    of the given sign: "pos" (lo >= 0), "neg" (hi <= 0) or "mixed" (lo < 0
    < hi)."""
    ends = sorted(abs(_rational(rng, rng.choice(["dyadic", "general"])))
                  for _ in range(2))
    if rng.random() < 0.1:
        ends[0] = F(0)
    if rng.random() < 0.1:
        ends[0] = ends[1]
    sign = sign or rng.choice(["pos", "neg", "mixed"])
    if sign == "neg":
        ends = [-ends[1], -ends[0]]
    elif sign == "mixed":
        ends = [-ends[0] - 1, ends[1] + 1]
    return _pair(*ends)


SIGNS = ["pos", "neg", "mixed"]


class TestIntegerEndpoints:
    """Each Interval and Box operation gives exactly the reference's
    endpoints."""

    @pytest.mark.parametrize("left", SIGNS)
    @pytest.mark.parametrize("right", SIGNS)
    def test_products_in_all_nine_sign_cases(self, left, right):
        rng = random.Random(f"{left}/{right}")
        for _ in range(200):
            (x, rx), (y, ry) = _random_pair(rng, left), _random_pair(rng, right)
            assert _ends(x * y) == _ends(rx * ry)

    @pytest.mark.parametrize("seed", range(3))
    def test_interval_operations(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            (x, rx), (y, ry) = _random_pair(rng), _random_pair(rng)
            assert _ends(x) == _ends(rx)
            assert _ends(x + y) == _ends(rx + ry)
            assert _ends(x - y) == _ends(rx - ry)
            assert _ends(-x) == _ends(-rx)
            assert _ends(x.square()) == _ends(rx.square())
            if not ry.lo <= 0 <= ry.hi:
                assert _ends(x.divide(y)) == _ends(rx.divide(ry))
            c = _rational(rng, rng.choice(["dyadic", "general"]))
            assert _ends(x.scale(c)) == _ends(rx.scale(c))
            assert _ends(x.scale(-abs(c))) == _ends(rx.scale(-abs(c)))
            h = abs(c)
            assert _ends(x.widened(h)) == _ends(rx.widened(h))
            if max(rx.lo, ry.lo) <= min(rx.hi, ry.hi):
                assert _ends(x.meet(y)) == _ends(rx.meet(ry))
            else:
                with pytest.raises(ValueError):
                    x.meet(y)
            assert x.width() == rx.width() and x.to_float() == float(rx.mid())
            assert _ends(x.centre()) == _ends(rx.centre())
            assert x.strictly_contains(y) == rx.strictly_contains(ry)
            assert x.contains_box(y) == (rx.lo <= ry.lo and ry.hi <= rx.hi)
            assert x.disjoint(y) == (rx.hi < ry.lo or ry.hi < rx.lo)
            assert (x == y) == (rx == ry) and x == x.meet(x)

    def test_square_through_zero_and_divide_refused(self):
        x, rx = _pair(F(-3, 7), F(5, 1 << 40))
        assert _ends(x.square()) == _ends(rx.square()) == (0, F(9, 49))
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2).divide(x)

    def test_endpoints_out_of_order_refused(self):
        with pytest.raises(ValueError):
            Interval(F(1, 3), F(1, 4))

    @pytest.mark.parametrize("seed", range(3))
    def test_box_operations(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            (xr, rxr), (xi, rxi), (yr, ryr), (yi, ryi) = (
                _random_pair(rng) for _ in range(4)
            )
            x, rx = Box(xr, xi), FractionBox(rxr, rxi)
            y, ry = Box(yr, yi), FractionBox(ryr, ryi)
            assert _ends(x + y) == _ends(rx + ry)
            assert _ends(x - y) == _ends(rx - ry)
            assert _ends(x * y) == _ends(rx * ry)
            assert _ends(x.conj()) == _ends(rx.conj())
            if ry.abs_squared().lo > 0:
                assert _ends(x.divide(y)) == _ends(rx.divide(ry))
            assert x.width() == rx.width()

    @pytest.mark.parametrize("seed", range(3))
    def test_rounding_onto_the_dyadic_grid(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            (x, rx), (y, ry) = _random_pair(rng), _random_pair(rng)
            width = abs(_rational(rng, rng.choice(["dyadic", "general"]))) + F(
                1, 1 << rng.randint(0, 200)
            )
            assert _ends(nf._dyadic_box(x, width)) == _ends(
                fraction_dyadic_box(rx, width)
            )
            box, rbox = Box(x, y), FractionBox(rx, ry)
            assert _ends(nf._dyadic_box(box, width)) == _ends(
                fraction_dyadic_box(rbox, width)
            )
            # cut back to a wider box around it, with the grid set by the
            # width asked for or, for a tiny one, by the box's own width
            outer = box.widened(F(1, 1 << 30))
            router = rbox.widened(F(1, 1 << 30))
            for w in (width, F(1, 1 << 300)):
                assert _ends(nf._narrowed(box, outer, w)) == _ends(
                    fraction_narrowed(rbox, router, w)
                )

    @pytest.mark.parametrize(
        "m",
        [[-2, 0, 1], [1, 0, 0, 0, 1], [1, 0, -10, 0, 1],
         [F(3, 10**6), 0, F(-4, 1000), 0, 1], [2, -2, 0, 1]],
        ids=["x^2-2", "x^4+1", "x^4-10x^2+1", "rational", "x^3-2x+2"],
    )
    def test_newton_and_hull(self, m):
        m = [F(c) for c in m]
        md = nf._pderiv(m)
        rng = random.Random(str(m))
        for _ in range(60):
            (x, rx), (y, ry) = _random_pair(rng), _random_pair(rng)
            box, rbox = Box(x, y), FractionBox(rx, ry)
            assert _ends(nf._hull(m, x)) == _ends(fraction_hull(m, rx))
            assert _ends(nf._hull(m, box)) == _ends(fraction_hull(m, rbox))
            centres = (FractionInterval.point(rx.mid()),
                       FractionBox.point(rx.mid(), ry.mid()))
            for X, RX, rc in zip((x, box), (rx, rbox), centres):
                c = X.centre()
                assert _ends(nf._at(m, c)) == _ends(fraction_at(m, rc))
                N, RN = nf._newton(m, md, c, X), fraction_newton(m, md, rc, RX)
                assert (N is None) == (RN is None)
                if N is not None:
                    assert _ends(N) == _ends(RN)


# x^4 + 1 at dinh_vu's rect: theta's box and the upper roots' boxes are
# [A, B]-sided squares
A = F("101904826760412361/144115188075855872")
B = F("1630477228166597777/2305843009213693952")
E61 = F(1, 1 << 61)  # a real root's box is 2^-60 tall
PINNED_FIELDS = {
    "x^4+1": (
        lambda: NumberField(X4_PLUS_1, root_box=((F(1, 2), 1), (F(1, 2), 1))),
        ([0, 0, 1], [0, 0, 0, -1]),
        [(-B, -A, A, B), (A, B, A, B), (-B, -A, -B, -A), (A, B, -B, -A)],
        (A, B, A, B),
        (F("14341829369545251819195376186229/20282409603651670423947251286016"),
         F("7170914684772625909597688093115/10141204801825835211973625643008")) * 2,
        (0.7071067811865476 + 0.7071067811865476j,
         -0.4714045207910317 + 0.9428090415820634j),
    ),
    "Q(i)": (
        lambda: NumberField([1, 0, 1], root_box=((F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)))),
        ([0, 1], [0, -1]),
        [(0, 0, 1, 1), (0, 0, -1, -1)],
        (0, 0, 1, 1),
        (0, 0, 1, 1),
        (1j, -0.6666666666666666j),
    ),
    "x^2-2": (
        lambda: NumberField([-2, 0, 1], root_interval=(1, 2)),
        None,
        [(F("-1630477228166597777/1152921504606846976"),
          F("-3260954456333195553/2305843009213693952"), -E61, E61),
         (F("3260954456333195553/2305843009213693952"),
          F("1630477228166597777/1152921504606846976"), -E61, E61)],
        (F("101904826760412361/72057594037927936"),
         F("815238614083298889/576460752303423488")),
        (F("14341829369545251819195376186229/10141204801825835211973625643008"),
         F("28683658739090503638390752372459/20282409603651670423947251286016")),
        (1.4142135623730951, 3.2998316455372216),
    ),
    "x^4-10x^2+1": (
        lambda: NumberField([1, 0, -10, 0, 1], root_interval=(3, 4)),
        None,
        [(F("-7254791702568824329/2305843009213693952"),
          F("-906848962821103041/288230376151711744"), -E61, E61),
         (F("906848962821103041/288230376151711744"),
          F("7254791702568824329/2305843009213693952"), -E61, E61),
         (F("-732882789902433223/2305843009213693952"),
          F("-366441394951216611/1152921504606846976"), -E61, E61),
         (F("366441394951216611/1152921504606846976"),
          F("732882789902433223/2305843009213693952"), -E61, E61)],
        (F("906848962821103041/288230376151711744"),
         F("1813697925642206083/576460752303423488")),
        (F("63813822672538131824627069015907/20282409603651670423947251286016"),
         F("15953455668134532956156767253977/5070602400912917605986812821504")),
        (3.1462643699419726, 32.193561244204595),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FIELDS))
def test_pinned_root_boxes(name):
    """Root boxes, theta's box and floats, recorded with Fraction endpoints
    before the endpoints moved to integers."""
    make, structure, boxes, theta, fine, floats = PINNED_FIELDS[name]
    K = make()
    assert [_ends(b) for b in K.root_boxes()] == boxes
    if structure is not None:
        K.declare_complex_structure(*structure)
    else:
        # a real field's theta is refined by its first float
        K.gen.to_float()
    assert _ends(K._root_enclosure) == theta
    assert _ends(K.root_enclosure(F(1, 10**30))) == fine
    assert (K.gen.to_complex(), (K.gen**3 + K.gen / 3).to_complex()) == tuple(
        complex(f) for f in floats
    )


def test_non_dyadic_user_interval():
    # theta's first box (1/3, 2) has a denominator of 3
    K = NumberField([-2, 0, 1], root_interval=(F(1, 3), 2))
    assert K.gen.to_float() == 1.4142135623730951
    assert _is_dyadic(K._root_enclosure.lo) and _is_dyadic(K._root_enclosure.hi)


# ---------------------------------------------------------------------------
# Field elements to floats: interval-Newton boxes of theta, checked against
# mpmath values at 80 digits
# ---------------------------------------------------------------------------

mpmath.mp.dps = 80
# the mpmath values are good to about 75 digits: a box "holds" one when it
# reaches within this of it
REF_SLACK = F(1, 10**70)


def _mp_sqrt2():
    return mpmath.sqrt(2)


CONVERSION_FIELDS = {
    "sqrt2": (lambda: NumberField([-2, 0, 1], root_interval=(1, 2)), _mp_sqrt2),
    # theta = sqrt 2 + sqrt 3
    "quartic": (
        lambda: NumberField([1, 0, -10, 0, 1], root_interval=(3, 4)),
        lambda: mpmath.sqrt(2) + mpmath.sqrt(3),
    ),
    "zeta8": (_zeta8, lambda: mpmath.expjpi(F(1, 4))),
}
DEFAULT_EPS = F(1, 10**16)


def _exact(x):
    """An mpmath real as the Fraction it holds."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


def _value(e, theta):
    """The mpmath value of the element e at theta."""
    return sum(
        mpmath.mpf(c.numerator) / c.denominator * theta**k for k, c in enumerate(e.coords)
    )


def _holds(box, value):
    """Whether the Box, or the real Interval, reaches within REF_SLACK of the
    mpmath value."""
    if isinstance(box, Interval):
        box = Box(box, Interval.point(0))
    value = mpmath.mpc(value)
    return all(
        iv.lo - REF_SLACK <= _exact(part) <= iv.hi + REF_SLACK
        for iv, part in ((box.re, value.real), (box.im, value.imag))
    )


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


def _sign_change_on(m, interval):
    lo, hi = interval.lo, interval.hi
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


def _assert_near(f, value, eps):
    """The float f lies within eps plus half an ulp of the mpmath value."""
    assert abs(F(f) - _exact(mpmath.mpf(value))) <= eps + F(math.ulp(f)) / 2 + REF_SLACK


class TestNewtonEnclosures:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CONVERSION_FIELDS))
    def test_enclosures_hold_the_value(self, name, seed):
        make, theta_ref = CONVERSION_FIELDS[name]
        K, theta = make(), theta_ref()
        rng = random.Random(seed)
        start = last = K._root_enclosure
        for e in _random_elements(K, seed):
            eps = _random_eps(rng)
            box = e.enclosure(eps)
            assert box.width() <= eps
            assert _holds(box, _value(e, theta))
            # finer enclosures nest inside coarser ones, and theta's boxes nest
            finer = e.enclosure(eps / 1000)
            assert finer.width() <= eps / 1000 and box.contains_box(finer)
            assert last.contains_box(K._root_enclosure)
            last = K._root_enclosure
            if not K.is_complex:
                assert _sign_change_on(K.min_poly, last)
        assert start.contains_box(last) and _holds(last, theta)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", sorted(CONVERSION_FIELDS))
    def test_floats_lie_within_eps_and_half_an_ulp(self, name, seed):
        make, theta_ref = CONVERSION_FIELDS[name]
        K, theta = make(), theta_ref()
        for e in _random_elements(K, seed):
            value = mpmath.mpc(_value(e, theta))
            z = e.to_complex()
            _assert_near(z.real, value.real, DEFAULT_EPS)
            _assert_near(z.imag, value.imag, DEFAULT_EPS)
            if not K.is_complex:
                assert e.to_float() == z.real and z.imag == 0

    @pytest.mark.parametrize("q", [F(0), F(-7, 3), F(10**300), F(1, 10**300)])
    def test_rationals_convert_directly(self, q):
        e = CONVERSION_FIELDS["quartic"][0]().rational(q)
        assert e.to_float() == float(q)
        z = e.to_complex()
        assert z == complex(float(q), 0.0)
        assert z == Box.point(q).to_complex()
        assert e._box is None

    @pytest.mark.parametrize("name", ["sqrt2", "quartic"])
    def test_newton_boxes_are_certified_inside_the_last(self, monkeypatch, name):
        make, theta_ref = CONVERSION_FIELDS[name]
        K, theta = make(), theta_ref()
        steps = []
        refine = nf._refine

        def recorded(m, md, X, width):
            box = refine(m, md, X, width)
            steps.append((X, width, box))
            return box

        monkeypatch.setattr(nf, "_refine", recorded)
        rng = random.Random(5)
        for e in _random_elements(K, 5):
            e.enclosure(_random_eps(rng))
        assert steps
        for X, width, box in steps:
            assert isinstance(box, Interval)
            assert X.contains_box(box) and box.width() <= width
            assert _sign_change_on(K.min_poly, box) and _holds(box, theta)

    def test_newton_two_cycle_falls_back_to_bisection(self, monkeypatch):
        # Newton's iteration for x^3 - 2x + 2 cycles 0 -> 1 -> 0 from the
        # interval's midpoint, far from the real root near -1.769, and
        # m'(x) = 3x^2 - 2 vanishes on the interval
        K = NumberField([2, -2, 0, 1], root_interval=(-2, 2))
        theta = mpmath.findroot(lambda x: x**3 - 2 * x + 2, -1.77)
        bisections = _count(monkeypatch, nf, "_halve")
        for eps in (F(1, 10**20), F(1, 10**45)):
            box = K.gen.enclosure(eps)
            assert box.width() <= eps
            assert _holds(box, theta)
            assert _sign_change_on(K.min_poly, K._root_enclosure)
        assert bisections
        _assert_near(K.gen.to_float(), theta, DEFAULT_EPS)

    def test_newton_on_another_root_falls_back_to_bisection(self, monkeypatch):
        # the float iterate lands on -sqrt 2, whose certificate lies outside
        # (0, 2); m'(x) = 2x vanishes there, so the interval is bisected
        K = NumberField([-2, 0, 1], root_interval=(0, 2))
        monkeypatch.setattr(nf, "_float_newton", lambda m, X: -1.4142135623730951)
        bisections = _count(monkeypatch, nf, "_halve")
        _assert_near(K.gen.to_float(), _mp_sqrt2(), DEFAULT_EPS)
        assert bisections
        assert _sign_change_on(K.min_poly, K._root_enclosure)
        assert _holds(K._root_enclosure, _mp_sqrt2())

    @pytest.mark.parametrize("where", ["near_endpoint", "tiny"])
    def test_awkward_starting_intervals(self, where):
        lo = F(math.isqrt(2 << 140), 1 << 70)  # sqrt 2 - lo < 2^-70
        interval = (lo, 2) if where == "near_endpoint" else (lo, lo + F(1, 1 << 70))
        K = NumberField([-2, 0, 1], root_interval=interval)
        last = K.gen.enclosure(1)
        for eps in (DEFAULT_EPS, F(1, 10**30), F(1, 10**60)):
            box = K.gen.enclosure(eps)
            assert box.width() <= eps
            assert last.contains_box(box) and _holds(box, _mp_sqrt2())
            last = box
        assert _sign_change_on(K.min_poly, K._root_enclosure)

    def test_root_beyond_the_float_range(self):
        # theta = sqrt(2) * 10^400: no float Newton start, steps from the
        # centre certify
        poly = [-2 * 10**800, 0, 1]
        K = NumberField(poly, root_interval=(14 * 10**399, 15 * 10**399))
        eps = F(1, 10**6)
        box = K.gen.enclosure(eps)
        assert box.width() <= eps
        # theta^2 = 2 * 10^800 exactly, beyond mpmath's 80 digits
        assert box.re.lo**2 < 2 * 10**800 < box.re.hi**2
        assert _sign_change_on(K.min_poly, K._root_enclosure)

    def test_theta_is_refined_once_without_overshoot(self, monkeypatch):
        # theta^3 over theta's box [3, 4]: B = 3 * 4^2 = 48, so theta is
        # refined once to t = eps / 96, rounded onto a grid of step between
        # t / 64 and t / 16, so not much below t
        K = CONVERSION_FIELDS["quartic"][0]()
        e = K.from_coords([0, 0, 0, 1])
        eps = F(40, 16**12)
        refines = _count(monkeypatch, nf, "_refine")
        box = e.enclosure(eps)
        t = eps / 96
        assert len(refines) == 1
        assert t / 64 < K._root_enclosure.width() <= t
        assert box.width() <= eps
        assert _holds(box, CONVERSION_FIELDS["quartic"][1]() ** 3)

    def test_sqrt2_to_float_refines_theta_once(self, monkeypatch):
        K = NumberField([-2, 0, 1], root_interval=(1, 2))
        refines = _count(monkeypatch, nf, "_refine")
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
