"""Exact arithmetic in a fixed number field with certified enclosures.

A field is Q[x]/(m(x)) together with a chosen embedding: an isolating
interval (real embedding) or rectangle (complex embedding) pinning one
root of m.  Elements are stored by their rational coordinates over the
power basis 1, theta, ..., theta^(d-1), so the zero test is exact and
arithmetic never touches floating point.

Enclosures are rectangles with rational endpoints that provably contain
the embedded value; they are produced by refining the root's certified
box (sign-change bisection for real roots, exact interval Newton for
complex ones) and evaluating the coordinate polynomial over it with
outward-rounded interval arithmetic.

Complex-embedded fields that participate in restriction-of-scalars
computations must supply expressions for the imaginary unit and for the
complex conjugate of theta; both are validated exactly at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DivisionByZero, FieldMismatch, TorusflowError

Rat = Fraction

# ---------------------------------------------------------------------------
# Dense polynomials over Q (index = degree, trailing zeros trimmed)
# ---------------------------------------------------------------------------


def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a, b):
    n = max(len(a), len(b))
    out = [Rat(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return [-c for c in a]


def _psub(a, b):
    return _padd(a, _pneg(b))


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Rat(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _ptrim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    if len(a) < len(b):
        return [], _ptrim(a)
    q = [Rat(0)] * (len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv_lead
        if c:
            q[k] = c
            for i, cb in enumerate(b):
                a[k + i] -= c * cb
    return _ptrim(q), _ptrim(a[: len(b) - 1])


def _pmod(a, b):
    return _pdivmod(a, b)[1]


def _pderiv(a):
    return _ptrim([i * c for i, c in enumerate(a)][1:])


def _pgcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _peval(p, x):
    acc = Rat(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pcompose_mod(f, g, m):
    """f(g(x)) reduced modulo m."""
    acc = []
    for c in reversed(f):
        acc = _pmod(_padd(_pmul(acc, g), [c]), m)
    return acc


def _sturm_chain(p):
    chain = [list(p), _pderiv(p)]
    while chain[-1]:
        chain.append(_pneg(_pmod(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _peval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def sturm_root_count(p, lo, hi):
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    chain = _sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


# ---------------------------------------------------------------------------
# Interval and rectangle arithmetic with rational endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(x):
        x = Rat(x)
        return Interval(x, x)

    def width(self):
        return self.hi - self.lo

    def mid(self):
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        vals = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(vals), max(vals))

    def square(self):
        if self.lo <= 0 <= self.hi:
            return Interval(Rat(0), max(self.lo * self.lo, self.hi * self.hi))
        vals = (self.lo * self.lo, self.hi * self.hi)
        return Interval(min(vals), max(vals))

    def divide(self, other):
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval divisor contains zero")
        vals = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(vals), max(vals))

    def scale(self, c):
        c = Rat(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def contains(self, x):
        return self.lo <= x <= self.hi

    def contains_interval(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other):
        return self.lo < other.lo and other.hi < self.hi

    def disjoint(self, other):
        return self.hi < other.lo or other.hi < self.lo

    def abs_upper(self):
        return max(abs(self.lo), abs(self.hi))


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    re: Interval
    im: Interval

    @staticmethod
    def point(re, im=0):
        return Box(Interval.point(re), Interval.point(im))

    def width(self):
        return max(self.re.width(), self.im.width())

    def __add__(self, other):
        return Box(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Box(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Box(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self):
        return Box(self.re, -self.im)

    def abs_squared(self):
        return self.re.square() + self.im.square()

    def divide(self, other):
        denom = other.abs_squared()
        num = self * other.conj()
        return Box(num.re.divide(denom), num.im.divide(denom))

    def contains_box(self, other):
        return self.re.contains_interval(other.re) and self.im.contains_interval(
            other.im
        )

    def strictly_contains(self, other):
        return self.re.strictly_contains(other.re) and self.im.strictly_contains(
            other.im
        )

    def disjoint(self, other):
        return self.re.disjoint(other.re) or self.im.disjoint(other.im)

    def abs_upper(self):
        # sqrt bound avoided: |z| <= |re| + |im|
        return self.re.abs_upper() + self.im.abs_upper()

    def to_complex(self):
        return complex(float(self.re.mid()), float(self.im.mid()))


def _box_poly_eval(coeffs, z):
    """Evaluate a rational-coefficient polynomial over a Box by Horner."""
    acc = Box.point(0)
    for c in reversed(coeffs):
        acc = acc * z + Box.point(c)
    return acc


# ---------------------------------------------------------------------------
# Certified root refinement
# ---------------------------------------------------------------------------


def _dyadic_round(x, bits):
    scale = 1 << bits
    return Rat(round(x * scale), scale)


def _cplx_eval(coeffs, zr, zi):
    ar, ai = Rat(0), Rat(0)
    for c in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr
    return ar, ai


def _newton_step(m, md, zr, zi):
    fr, fi = _cplx_eval(m, zr, zi)
    dr, di = _cplx_eval(md, zr, zi)
    den = dr * dr + di * di
    if den == 0:
        raise ZeroDivisionError
    qr = (fr * dr + fi * di) / den
    qi = (fi * dr - fr * di) / den
    return zr - qr, zi - qi


def _polish(m, md, zr, zi, bits):
    """Newton-iterate toward a root, rounding to dyadics to bound blowup."""
    for _ in range(64):
        try:
            nr, ni = _newton_step(m, md, zr, zi)
        except ZeroDivisionError:
            break
        nr, ni = _dyadic_round(nr, bits), _dyadic_round(ni, bits)
        if (nr, ni) == (zr, zi):
            break
        zr, zi = nr, ni
        fr, fi = _cplx_eval(m, zr, zi)
        if fr * fr + fi * fi < Rat(1, 1 << (2 * bits)):
            break
    return zr, zi


def _try_certify(m, md, zr, zi, h):
    """Interval-Newton contraction test on the square of half-width h.

    Returns a Box certified to contain exactly one root of m, or None.
    """
    Z = Box(Interval(zr - h, zr + h), Interval(zi - h, zi + h))
    dz = _box_poly_eval(md, Z)
    fr, fi = _cplx_eval(m, zr, zi)
    try:
        K = Box.point(zr, zi) - Box.point(fr, fi).divide(dz)
    except ZeroDivisionError:
        return None
    if Z.strictly_contains(K):
        return K
    return None


def _certify_root(m, md, seed, width, max_bits=None):
    """Certified box of width <= width around the root nearest the float seed."""
    bits = 64
    limit = max_bits or 4096
    while bits <= limit:
        zr = _dyadic_round(Rat(seed.real).limit_denominator(1 << 60), bits)
        zi = _dyadic_round(Rat(seed.imag).limit_denominator(1 << 60), bits)
        zr, zi = _polish(m, md, zr, zi, bits)
        fr, fi = _cplx_eval(m, zr, zi)
        res_sq = fr * fr + fi * fi
        h = width / 4
        while h > Rat(1, 1 << limit):
            if h * h < 4 * res_sq:
                break  # z not accurate enough for this h; raise precision
            box = _try_certify(m, md, zr, zi, h)
            if box is not None and box.width() <= width:
                return box
            h = h / 4
        bits *= 2
    raise TorusflowError("failed to certify a root box; is min_poly squarefree?")


# ---------------------------------------------------------------------------
# The number field and its elements
# ---------------------------------------------------------------------------


class NumberField:
    """Q[x]/(m(x)) with a distinguished embedded root.

    Parameters
    ----------
    min_poly:
        Coefficients of the monic defining polynomial, constant term first.
    root_interval:
        (lo, hi) rational isolating interval for a real embedding.
    root_box:
        ((re_lo, re_hi), (im_lo, im_hi)) isolating rectangle for a complex
        embedding.
    i_coords, conj_coords:
        Power-basis coordinates of the imaginary unit and of the complex
        conjugate of theta; required only for complex embeddings that feed
        restriction-of-scalars computations.
    """

    def __init__(
        self,
        min_poly: Sequence,
        root_interval=None,
        root_box=None,
        i_coords=None,
        conj_coords=None,
        name: str = "theta",
    ):
        self.min_poly = [Rat(c) for c in min_poly]
        _ptrim(self.min_poly)
        if len(self.min_poly) < 2:
            raise TorusflowError("min_poly must have degree >= 1")
        if self.min_poly[-1] != 1:
            raise TorusflowError("min_poly must be monic")
        self.degree = len(self.min_poly) - 1
        self._deriv = _pderiv(self.min_poly)
        g = _pgcd(self.min_poly, self._deriv)
        if len(g) > 1:
            raise TorusflowError("min_poly must be squarefree")
        self.name = name
        self.is_complex = root_box is not None
        if self.is_complex and root_interval is not None:
            raise TorusflowError("give either root_interval or root_box, not both")

        if self.degree == 1:
            root = -self.min_poly[0]
            self._root_enclosure = Box.point(root)
            self.is_complex = False
        elif not self.is_complex:
            if root_interval is None:
                raise TorusflowError("real embedding needs an isolating interval")
            lo, hi = Rat(root_interval[0]), Rat(root_interval[1])
            if _peval(self.min_poly, lo) == 0 or _peval(self.min_poly, hi) == 0:
                raise TorusflowError("isolating interval endpoint is a root")
            if sturm_root_count(self.min_poly, lo, hi) != 1:
                raise TorusflowError(
                    "isolating interval must contain exactly one real root"
                )
            if _peval(self.min_poly, lo) * _peval(self.min_poly, hi) >= 0:
                raise TorusflowError("min_poly must change sign on the interval")
            self._root_enclosure = Box(Interval(lo, hi), Interval.point(0))
        else:
            (rlo, rhi), (ilo, ihi) = root_box
            rect = Box(
                Interval(Rat(rlo), Rat(rhi)), Interval(Rat(ilo), Rat(ihi))
            )
            self._root_enclosure = self._isolate_complex_root(rect)

        self._key = (
            tuple(self.min_poly),
            self.is_complex,
            self._root_enclosure.re.lo,
            self._root_enclosure.im.lo,
        )
        self._power_box_cache = None

        self.zero = AlgebraicNumber(self, (Rat(0),) * self.degree)
        one = [Rat(0)] * self.degree
        one[0] = Rat(1)
        self.one = AlgebraicNumber(self, tuple(one))
        if self.degree > 1:
            gen = [Rat(0)] * self.degree
            gen[1] = Rat(1)
            self.gen = AlgebraicNumber(self, tuple(gen))
        else:
            self.gen = AlgebraicNumber(self, (-self.min_poly[0],))

        self.i = None
        self._conj_matrix = None
        self.declare_complex_structure(i_coords, conj_coords)

    def declare_complex_structure(self, i_coords=None, conj_coords=None):
        """Validate and install the declared conjugate of theta, then i.

        Both are checked exactly.  Certifying them refines the root
        enclosure, so the order (conj, then i) is part of what the field's
        float values are.
        """
        if conj_coords is not None:
            self._install_conj(conj_coords)
        if i_coords is not None:
            self._install_i(i_coords)

    # -- construction-time validation ---------------------------------------

    def _isolate_complex_root(self, rect):
        import numpy as np

        coeffs = [float(c) for c in self.min_poly]
        seeds = np.roots(list(reversed(coeffs)))
        m, md = self.min_poly, self._deriv
        width = Rat(1, 1 << 24)
        boxes = [_certify_root(m, md, complex(s), width) for s in seeds]
        for a in range(len(boxes)):
            for b in range(a + 1, len(boxes)):
                if not boxes[a].disjoint(boxes[b]):
                    raise TorusflowError(
                        "could not separate the roots of min_poly; refine seeds"
                    )
        self._all_root_boxes = boxes
        inside = [b for b in boxes if rect.contains_box(b)]
        outside = [b for b in boxes if rect.disjoint(b)]
        if len(inside) != 1 or len(inside) + len(outside) != len(boxes):
            raise TorusflowError(
                "isolating rectangle must contain exactly one root of min_poly"
            )
        box = inside[0]
        if box.im.contains(Rat(0)):
            refined = self._refine_box(box, box.width() / (1 << 10))
            if refined.im.contains(Rat(0)):
                raise TorusflowError(
                    "selected root looks real; use a real isolating interval"
                )
            box = refined
        return box

    def _install_conj(self, conj_coords):
        g = _ptrim([Rat(c) for c in conj_coords])
        if _pcompose_mod(self.min_poly, g, self.min_poly):
            raise TorusflowError("conj expression is not a root of min_poly")
        comp = _pcompose_mod(g, g, self.min_poly)
        x = [Rat(0), Rat(1)]
        if _psub(comp, x):
            raise TorusflowError("conj expression is not an involution")
        if not self.is_complex:
            raise TorusflowError("conj declaration only applies to complex fields")
        self._identify_value_as_conjugate(g)
        # matrix whose column k holds the coordinates of conj(theta)^k
        cols = []
        power = [Rat(1)]
        for _ in range(self.degree):
            col = list(power) + [Rat(0)] * (self.degree - len(power))
            cols.append(col)
            power = _pmod(_pmul(power, g), self.min_poly)
        self._conj_matrix = cols

    def _identify_value_as_conjugate(self, g):
        """Certify that g(theta) is the complex conjugate of theta."""
        width = Rat(1, 1 << 24)
        for _ in range(40):
            theta_box = self._root_enclosure
            target = theta_box.conj()
            refined = [self._refined(b, width) for b in self._all_root_boxes]
            hits = [i for i, b in enumerate(refined) if not b.disjoint(target)]
            val = _box_poly_eval(g, theta_box)
            val_hits = [i for i, b in enumerate(refined) if not b.disjoint(val)]
            if len(hits) == 1 and len(val_hits) == 1:
                if hits[0] == val_hits[0]:
                    self._all_root_boxes = refined
                    return
                raise TorusflowError(
                    "conj expression is a root but not the conjugate of theta"
                )
            width = width / (1 << 8)
            self._root_enclosure = self._refine_box(
                self._root_enclosure, self._root_enclosure.width() / 16
            )
        raise TorusflowError("could not certify the conjugate expression")

    def _refined(self, box, width):
        if box.width() <= width:
            return box
        new = _certify_root(self.min_poly, self._deriv, box.to_complex(), width)
        if new.disjoint(box):
            raise TorusflowError("root refinement drifted; roots too close")
        return new

    def _install_i(self, i_coords):
        coords = list(i_coords) + [Rat(0)] * (self.degree - len(i_coords))
        unit = AlgebraicNumber(self, tuple(Rat(c) for c in coords[: self.degree]))
        if (unit * unit + self.one).coords != self.zero.coords:
            raise TorusflowError("declared i does not square to -1")
        eps = Rat(1, 16)
        for _ in range(64):
            box = unit.enclosure(eps)
            if box.im.lo > 0:
                self.i = unit
                return
            if box.im.hi < 0:
                raise TorusflowError("declared i has negative imaginary part")
            eps = eps / 16
        raise TorusflowError("could not certify the sign of i")

    # -- enclosure machinery -------------------------------------------------

    def _refine_box(self, box, width):
        if box.width() <= width:
            return box
        if not self.is_complex:
            m = self.min_poly
            lo, hi = box.re.lo, box.re.hi
            flo = _peval(m, lo)
            while hi - lo > width:
                mid = (lo + hi) / 2
                fmid = _peval(m, mid)
                if fmid == 0:
                    lo = hi = mid
                    break
                if (flo > 0) != (fmid > 0):
                    hi = mid
                else:
                    lo, flo = mid, fmid
            return Box(Interval(lo, hi), Interval.point(0))
        return _certify_root(self.min_poly, self._deriv, box.to_complex(), width)

    def root_enclosure(self, eps) -> Box:
        """Certified enclosure of theta with width <= eps."""
        eps = Rat(eps)
        if self._root_enclosure.width() > eps:
            self._root_enclosure = self._refine_box(self._root_enclosure, eps)
            self._power_box_cache = None
        return self._root_enclosure

    def _power_boxes(self):
        if self._power_box_cache is None:
            theta = self._root_enclosure
            boxes = [Box.point(1)]
            for _ in range(1, self.degree):
                boxes.append(boxes[-1] * theta)
            self._power_box_cache = boxes
        return self._power_box_cache

    # -- element constructors -------------------------------------------------

    def from_coords(self, coords: Iterable) -> "AlgebraicNumber":
        coords = [Rat(c) for c in coords]
        if len(coords) > self.degree:
            raise TorusflowError("too many coordinates for this field")
        coords += [Rat(0)] * (self.degree - len(coords))
        return AlgebraicNumber(self, tuple(coords))

    def rational(self, q) -> "AlgebraicNumber":
        return self.from_coords([Rat(q)])

    def element(self, value) -> "AlgebraicNumber":
        if isinstance(value, AlgebraicNumber):
            if value.field._key != self._key:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into the field")

    def _reduce(self, poly):
        return _pmod(poly, self.min_poly)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        kind = "complex" if self.is_complex else "real"
        return f"NumberField(degree={self.degree}, {kind})"


def rationals() -> NumberField:
    """The degree-1 field Q, embedded at theta = 0."""
    return NumberField([0, 1])


class AlgebraicNumber:
    """Element of a NumberField, stored by power-basis coordinates."""

    __slots__ = ("field", "coords", "_box", "_box_eps")

    def __init__(self, field: NumberField, coords: tuple):
        self.field = field
        self.coords = coords
        self._box = None
        self._box_eps = None

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field._key != self.field._key:
                raise FieldMismatch("operands lie in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicNumber(
            self.field, tuple(a + b for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicNumber(
            self.field, tuple(a - b for a, b in zip(self.coords, o.coords))
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _scaled(self, c):
        """self times the rational c: a coordinate-wise scale, no reduction."""
        return AlgebraicNumber(self.field, tuple(a * c for a in self.coords))

    def _from_poly(self, poly):
        """The element whose coordinate polynomial is poly mod min_poly."""
        poly = self.field._reduce(poly)
        poly += [Rat(0)] * (self.field.degree - len(poly))
        return AlgebraicNumber(self.field, tuple(poly))

    def __mul__(self, other):
        # a rational operand scales the other's coordinates; that gives the
        # same coordinates as the polynomial product reduced mod min_poly
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            return self._scaled(o.coords[0])
        if self.is_rational():
            return o._scaled(self.coords[0])
        return self._from_poly(_pmul(list(self.coords), list(o.coords)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return self.field.rational(1 / self.coords[0])
        # extended euclid in Q[x]: u*a + v*m = g
        a = _ptrim(list(self.coords))
        m = self.field.min_poly
        r0, r1 = m, a
        s0, s1 = [], [Rat(1)]
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        if len(r0) != 1:
            raise DivisionByZero(
                "element is a zero divisor; min_poly is not irreducible"
            )
        return self._from_poly([c / r0[0] for c in s0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates -----------------------------------------------------------

    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self):
        return not any(self.coords[1:])

    def as_rational(self) -> Rat:
        if not self.is_rational():
            raise TorusflowError("element is not rational")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return self.is_zero()
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return self.field._key == other.field._key and self.coords == other.coords

    def __hash__(self):
        return hash((self.field._key, self.coords))

    # -- conjugation / real & imaginary parts ---------------------------------

    def conjugate(self):
        if not self.field.is_complex or self.is_rational():
            return self
        mat = self.field._conj_matrix
        if mat is None:
            raise TorusflowError(
                "field needs a conj declaration for exact conjugation"
            )
        d = self.field.degree
        out = [Rat(0)] * d
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            col = mat[k]
            for r in range(d):
                out[r] += c * col[r]
        return AlgebraicNumber(self.field, tuple(out))

    def real_part(self):
        if not self.field.is_complex:
            return self
        return (self + self.conjugate()) / 2

    def imag_part(self):
        if not self.field.is_complex or self.is_rational():
            return self.field.zero
        if self.field.i is None:
            raise TorusflowError("field needs an i declaration for imaginary parts")
        return (self - self.conjugate()) / (2 * self.field.i)

    def is_real(self):
        if not self.field.is_complex:
            return True
        return self.conjugate() == self

    # -- enclosures -----------------------------------------------------------

    def enclosure(self, eps) -> Box:
        """Certified rectangle of width <= eps containing the embedded value."""
        eps = Rat(eps)
        if eps <= 0:
            raise TorusflowError("eps must be positive")
        if self.is_rational():
            return Box.point(self.coords[0])
        if self._box is not None and self._box_eps <= eps:
            return self._box
        field = self.field
        theta_eps = field._root_enclosure.width()
        for _ in range(200):
            boxes = field._power_boxes()
            acc = Box.point(0)
            for c, pb in zip(self.coords, boxes):
                if c != 0:
                    acc = acc + Box(pb.re.scale(c), pb.im.scale(c))
            if acc.width() <= eps:
                self._box, self._box_eps = acc, acc.width()
                return acc
            theta_eps = theta_eps / 16
            field.root_enclosure(theta_eps)
        raise TorusflowError("enclosure refinement failed to converge")

    def to_complex(self, eps=Fraction(1, 10**16)) -> complex:
        return self.enclosure(eps).to_complex()

    def to_float(self, eps=Fraction(1, 10**16)) -> float:
        box = self.enclosure(eps)
        return float(box.re.mid())

    def abs_upper(self, eps=Fraction(1, 10**6)) -> Rat:
        return self.enclosure(eps).abs_upper()

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*{self.field.name}")
            else:
                terms.append(f"{c}*{self.field.name}^{k}")
        return " + ".join(terms) if terms else "0"


def rational_coordinates(vector, field: NumberField):
    """Power-basis coordinate rows for a vector of field elements.

    Row k of the result holds the d rational coordinates of entry k;
    reassembling each row against powers of theta reproduces the vector.
    """
    rows = []
    for entry in vector:
        e = field.element(entry)
        rows.append(list(e.coords))
    return rows
