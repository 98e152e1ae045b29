"""Exact field arithmetic and certified enclosures."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow.errors import DivisionByZero, FieldMismatch, TorusflowError
from torusflow.numberfield import (
    Box,
    Interval,
    NumberField,
    _pdivmod,
    _pmul,
    _psub,
    _ptrim,
    rational_coordinates,
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


# -- rational-operand fast paths against the general polynomial path ---------

FIELDS = {
    "Q": rationals(),
    "Q(sqrt2)": NumberField([-2, 0, 1], root_interval=(1, 2)),
    "Q(zeta8)": NumberField(
        [1, 0, 0, 0, 1],
        root_box=((F(1, 2), 1), (F(1, 2), 1)),
        i_coords=[0, 0, 1],
        conj_coords=[0, 0, 0, -1],
    ),
}


def _padded(K, poly):
    return tuple(poly + [F(0)] * (K.degree - len(poly)))


def _general_product(K, a, b):
    """Coordinates of a * b by the polynomial product reduced mod min_poly."""
    return _padded(K, K._reduce(_pmul(list(a), list(b))))


def _euclid_inverse(K, a):
    """Coordinates of 1/a by the extended Euclidean algorithm over Q[x]."""
    r0, r1 = K.min_poly, _ptrim(list(a))
    s0, s1 = [], [F(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1))
    assert len(r0) == 1
    return _padded(K, K._reduce([c / r0[0] for c in s0]))


_small_fractions = st.fractions(min_value=-7, max_value=7, max_denominator=9)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(sorted(FIELDS)),
    _small_fractions,
    st.lists(_small_fractions, min_size=4, max_size=4),
)
def test_rational_operand_matches_general_path(name, c, coords):
    K = FIELDS[name]
    x = K.from_coords(coords[: K.degree])
    r = K.rational(c)
    want = _general_product(K, x.coords, r.coords)
    for got in (x * c, c * x, x * r, r * x):
        assert got.coords == want
        assert all(type(e) is F for e in got.coords)
    if c != 0:
        inv = _euclid_inverse(K, r.coords)
        assert r.inverse().coords == inv == (F(1) / c,) + (F(0),) * (K.degree - 1)
        assert (x / c).coords == (x / r).coords == _general_product(K, x.coords, inv)
        assert (r**-2).coords == _general_product(K, inv, inv)
    if not x.is_zero():
        inv = _euclid_inverse(K, x.coords)
        assert x.inverse().coords == inv
        assert (c / x).coords == (r / x).coords == _general_product(K, r.coords, inv)


class TestReducibleModulus:
    """x^2 - 1 is not irreducible: rationals still invert, theta - 1 does not."""

    @pytest.fixture(scope="class")
    def K(self):
        return NumberField([-1, 0, 1], root_interval=(F(1, 2), 2))

    def test_rational_inverts(self, K):
        two = K.rational(2)
        assert two.inverse() == K.rational(F(1, 2))
        assert two.inverse().coords == _euclid_inverse(K, two.coords)
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
