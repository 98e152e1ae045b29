"""Exact arithmetic in a fixed number field with certified enclosures.

A field is Q[x]/(m(x)) together with a chosen embedding: an isolating
interval (real embedding) or rectangle (complex embedding) pinning one
root of m.  Elements are stored by their rational coordinates over the
power basis 1, theta, ..., theta^(d-1), held as integer numerators over one
positive denominator in lowest terms (Cohen, "A Course in Computational
Algebraic Number Theory", section 4.2), so the zero test is exact and
arithmetic runs on integers, one gcd per result, never on floating point.

Enclosures are rectangles with rational endpoints that provably contain
the embedded value; they are produced by refining the root's certified
box and evaluating the coordinate polynomial over it with interval
arithmetic.  One engine certifies and refines every root box, an interval
for a real root and a rectangle for a complex one: a float Newton iterate
certified by interval Newton (Moore, "Interval Analysis", 1966) on a small
interval or square around it, then interval-Newton steps from the box's
centre.  Each box is rounded outward to dyadic endpoints no finer than the
width asked for needs.

Complex-embedded fields that participate in restriction-of-scalars
computations must supply expressions for the imaginary unit and for the
complex conjugate of theta; both are validated exactly at construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

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
    acc = 0
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


def _integral(p):
    """p scaled by the lcm of its denominators: the same roots, int coefficients."""
    scale = math.lcm(*(c.denominator for c in p))
    return [int(c * scale) for c in p]


def _monic_integral(p):
    """(r, L): with q = p scaled to integer coefficients and L its leading
    one, the monic integer polynomial r(y) = L^(n-1) q(y / L), whose roots
    are L times those of p."""
    q = _integral(_ptrim([Rat(c) for c in p]))
    n, lead = len(q) - 1, q[-1]
    return [c * lead ** (n - 1 - k) for k, c in enumerate(q[:-1])] + [1], lead


def rational_root(p):
    """A rational root of p, or None.

    The rational roots x of p are y / L for the integer roots y of r, with
    (r, L) from ``_monic_integral`` (rational root theorem).  Integer Sturm
    bisection of r tests every integer that lies inside an interval holding
    a real root.  No endpoint is a root: the first two lie past the Cauchy
    bound, and each midpoint is tested before it becomes one.
    """
    r, lead = _monic_integral(p)
    chain = [_integral(f) for f in _sturm_chain([Rat(c) for c in r])]
    bound = 2 + max(abs(c) for c in r)
    stack = [
        (-bound, _sign_changes(chain, -bound), bound, _sign_changes(chain, bound))
    ]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi or hi - lo < 2:
            continue
        mid = (lo + hi) // 2
        if _peval(r, mid) == 0:
            return Rat(mid, lead)
        vmid = _sign_changes(chain, mid)
        stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return None


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

    def centre(self):
        return Interval.point(self.mid())

    def widened(self, h):
        return Interval(self.lo - h, self.hi + h)

    def meet(self, other):
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

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

    def contains_box(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains(self, other):
        return self.lo < other.lo and other.hi < self.hi

    def disjoint(self, other):
        return self.hi < other.lo or other.hi < self.lo

    def abs_upper(self):
        return max(abs(self.lo), abs(self.hi))


_ZERO = Interval.point(0)


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

    def centre(self):
        return Box(self.re.centre(), self.im.centre())

    def widened(self, h):
        return Box(self.re.widened(h), self.im.widened(h))

    def meet(self, other):
        return Box(self.re.meet(other.re), self.im.meet(other.im))

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

    def scale(self, c):
        return Box(self.re.scale(c), self.im.scale(c))

    def abs_squared(self):
        return self.re.square() + self.im.square()

    def divide(self, other):
        denom = other.abs_squared()
        num = self * other.conj()
        return Box(num.re.divide(denom), num.im.divide(denom))

    def contains_box(self, other):
        return self.re.contains_box(other.re) and self.im.contains_box(other.im)

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


def _hull(p, X):
    """Enclosure of the nonzero polynomial p over the Interval or Box X, by
    Horner."""
    acc = X.point(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * X + X.point(c)
    return acc


def _at(p, c):
    """p at the point c, an Interval or Box of width 0, exactly."""
    if isinstance(c, Interval):
        return Interval.point(_peval(p, c.lo))
    ar, ai = Rat(0), Rat(0)
    zr, zi = c.re.lo, c.im.lo
    for k in reversed(p):
        ar, ai = ar * zr - ai * zi + k, ar * zi + ai * zr
    return Box.point(ar, ai)


# ---------------------------------------------------------------------------
# Certified roots: interval Newton from a float seed
# ---------------------------------------------------------------------------


def _newton(m, md, c, X):
    """The interval-Newton image c - m(c) / m'(X) (Moore, "Interval
    Analysis", 1966), or None when m'(X) may vanish.

    c is a point of X, both Intervals or both Boxes.  Every root of m in X
    lies in the image; when the image lies strictly inside X, X holds
    exactly one root.
    """
    try:
        return c - _at(m, c).divide(_hull(md, X))
    except ZeroDivisionError:
        return None


def _dyadic_box(X, width):
    """X, an Interval or Box, rounded outward to a power-of-two grid 4 bits
    finer than width > 0.

    Each endpoint moves by less than width / 16; the endpoints'
    denominators shrink to about width's own size.
    """
    if isinstance(X, Box):
        return Box(_dyadic_box(X.re, width), _dyadic_box(X.im, width))
    k = max(width.denominator.bit_length() - width.numerator.bit_length() + 5, 0)
    lo = (X.lo.numerator << k) // X.lo.denominator
    hi = -((-X.hi.numerator << k) // X.hi.denominator)
    return Interval(Rat(lo, 1 << k), Rat(hi, 1 << k))


def _narrowed(N, X, width):
    """A Newton image N rounded outward to dyadics and cut back to X.

    The grid follows N's width, or the requested width once N is narrower,
    so a box finer than needed keeps the denominators the width needs.
    """
    return _dyadic_box(N, max(N.width(), width)).meet(X)


def _float_newton(m, X):
    """A float Newton iterate of m from the centre of X, a float for an
    Interval and a complex for a Box; None if it leaves the floats."""
    try:
        z = float(X.mid()) if isinstance(X, Interval) else X.to_complex()
        fm = [float(c) for c in reversed(m)]
        for _ in range(64):
            f = d = 0.0
            for c in fm:
                d = d * z + f
                f = f * z + c
            nz = z - f / d
            if nz == z:
                break
            z = nz
    except (OverflowError, ZeroDivisionError):
        return None
    return z if cmath.isfinite(z) else None


def _certify(m, md, X, width):
    """A certified box around the root of m at a float Newton iterate from
    the centre of X, or None.

    The iterate z is certified on the interval (X an Interval) or square
    (X a Box) Z of half-width h around it: the Newton image of Z lies
    strictly inside Z only when Z holds exactly one root, and then the image
    holds it.  h grows 16-fold from about 2^-48 max(1, |z|), a few float
    spacings, to 2^-16 max(1, |z|), for an iterate that rounding has left
    farther off.  The image is rounded by ``_narrowed`` for ``width`` and
    cut back to Z.
    """
    z = _float_newton(m, X)
    if z is None:
        return None
    if isinstance(z, complex):
        c = Box.point(Rat(z.real), Rat(z.imag))
    else:
        c = Interval.point(Rat(z))
    scale = math.frexp(max(1.0, abs(z)))[1]
    for bits in range(48 - scale, 15 - scale, -4):
        Z = c.widened(Rat(2) ** -bits)
        N = _newton(m, md, c, Z)
        if N is not None and Z.strictly_contains(N):
            return _narrowed(N, Z, width)
    return None


def _halve(m, X):
    """The half of the interval X, holding one root of m, that holds it."""
    mid = X.mid()
    fmid = _peval(m, mid)
    if fmid == 0:
        return Interval.point(mid)
    if _peval(m, X.lo) * fmid <= 0:
        return Interval(X.lo, mid)
    return Interval(mid, X.hi)


def _refine(m, md, X, width):
    """A certified box of width <= width inside X, around its root.

    X, an Interval (a real root) or a Box, holds exactly one root of m.
    ``_certify`` narrows X first when its box lies inside X; then each
    interval-Newton step from the centre is cut back to the box before it,
    so the boxes nest.  A step that does not halve the box falls back: an
    Interval to one sign-change bisection, a Box to a new certificate from
    its centre's float, which must meet the box and narrow it.
    """
    if X.width() <= width:
        return X
    Y = _certify(m, md, X, width)
    while X.width() > width:
        if Y is None or not X.contains_box(Y):
            Y = _newton(m, md, X.centre(), X)
            if Y is not None:
                Y = _narrowed(Y, X, width)
        if Y is None or 2 * Y.width() > X.width():
            if isinstance(X, Interval):
                Y = _halve(m, X)
            else:
                Y = _certify(m, md, X, width)
                if Y is not None and Y.disjoint(X):
                    raise TorusflowError("root refinement drifted; roots too close")
                if Y is None or Y.meet(X) == X:
                    raise TorusflowError(
                        "failed to certify a root box; is min_poly squarefree?"
                    )
                Y = Y.meet(X)
        X, Y = Y, None
    return X


def _root_boxes(m, md):
    """Certified pairwise disjoint boxes, one around each root of m.

    m has rational coefficients, so the mirror image of a box that holds
    exactly one root holds exactly one root: the conjugate.  Each root
    numpy finds on or above the real axis is certified once, on a square,
    and each upper box is mirrored for its lower partner.  The count and
    disjointness checks reject seeds with more lower than upper roots, or
    the reverse, and an upper box that reaches the real axis (it overlaps
    its mirror).  The boxes are 2^-56 wide or less: a float of an element
    whose bound B (see ``AlgebraicNumber.enclosure``) is up to about 3 needs
    no further refinement, and the certificate reaches that width at no
    extra cost.
    """
    seeds = [complex(s) for s in np.roots([float(c) for c in reversed(m)])]
    real = [s for s in seeds if s.imag == 0]
    upper = [s for s in seeds if s.imag > 0]
    boxes = []
    for s in real + upper:
        box = _certify(m, md, Box.point(Rat(s.real), Rat(s.imag)), Rat(1, 1 << 56))
        if box is None:
            raise TorusflowError("failed to certify a root box; is min_poly squarefree?")
        boxes.append(box)
    boxes += [b.conj() for b in boxes[len(real):]]
    separated = len(boxes) == len(m) - 1 and all(
        a.disjoint(b) for a, b in combinations(boxes, 2)
    )
    if not separated:
        raise TorusflowError("could not separate the roots of min_poly; refine seeds")
    return boxes


def _holds_integer(box):
    """Whether the box holds a real integer."""
    return box.im.contains(0) and math.ceil(box.re.lo) <= box.re.hi


def rational_factor(p, boxes):
    """A monic factor of p over Q of degree 2 to deg(p) / 2, or None.

    p has no rational root; ``boxes`` are certified disjoint boxes, one
    around each root of p.  By Gauss's lemma the monic factors of r (see
    ``_monic_integral``) over Q have integer coefficients, which are the
    elementary symmetric functions of a subset of r's roots, L times those
    of p.  A subset is tried only when the boxes of these functions each
    hold an integer, the root sum's first since it is the cheapest, and it
    gives a factor only when r divides exactly.  Boxes too wide to pin the
    integer are refined until they can.
    """
    r, lead = _monic_integral(p)
    r = [Rat(c) for c in r]
    md = _pderiv(p)
    n = len(boxes)
    # left to right, so that the factor named does not depend on root order
    boxes = sorted(boxes, key=lambda b: (b.re.lo, b.im.lo))
    while True:
        scaled = boxes if lead == 1 else [
            Box(b.re.scale(lead), b.im.scale(lead)) for b in boxes
        ]
        wide = False
        for k in range(2, n // 2 + 1):
            for index in combinations(range(n), k):
                # at k = n / 2 a subset divides r exactly when its complement
                # does; the subsets holding root 0 come first
                if 2 * k == n and index[0]:
                    break
                subset = [scaled[i] for i in index]
                if not _holds_integer(sum(subset[1:], subset[0])):
                    continue
                # e[j - 1] encloses e_j, and prod (y - root) has the
                # coefficient (-1)^j e_j at y^(k - j)
                e = [subset[0]]
                for root in subset[1:]:
                    e = [e[0] + root] + [a + root * b for a, b in zip(e[1:], e)] + [
                        root * e[-1]
                    ]
                if not all(_holds_integer(c) for c in e):
                    continue
                if any(c.re.width() >= 1 for c in e):
                    wide = True
                    continue
                g = [(-1) ** j * Rat(math.ceil(e[j - 1].re.lo)) for j in range(k, 0, -1)]
                g.append(Rat(1))
                if not _pmod(r, g):
                    return [c / lead ** (k - j) for j, c in enumerate(g)]
        if not wide:
            return None
        boxes = [_refine(p, md, b, b.width() / (1 << 16)) for b in boxes]


# ---------------------------------------------------------------------------
# The number field and its elements
# ---------------------------------------------------------------------------


def _integer_rows(polys):
    """(rows, den): rational polynomials as integers over one denominator.

    Row j lists the pairs (k, n), n != 0, with n / den the coefficient of
    x^k in polys[j].
    """
    den = math.lcm(*(c.denominator for p in polys for c in p))
    rows = [
        [(k, c.numerator * (den // c.denominator)) for k, c in enumerate(p) if c]
        for p in polys
    ]
    return rows, den


def _lowest(field, num, den):
    """The element sum_k num[k] theta^k / den, in lowest terms; den > 0."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [n // g for n in num]
        den //= g
    return AlgebraicNumber(field, tuple(num), den)


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
        # x^j mod min_poly for j = d .. 2d - 2, over one denominator: a
        # product's terms of degree >= d fold back through these rows
        high, power = [], [Rat(0)] * (self.degree - 1) + [Rat(1)]
        for _ in range(self.degree - 1):
            power = _pmod([Rat(0)] + power, self.min_poly)
            high.append(power)
        self._reduction, self._reduction_den = _integer_rows(high)
        self.name = name
        self.is_complex = root_box is not None
        if self.is_complex and root_interval is not None:
            raise TorusflowError("give either root_interval or root_box, not both")

        if self.degree == 1:
            self._root_enclosure = Interval.point(-self.min_poly[0])
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
            self._root_enclosure = Interval(lo, hi)
        else:
            (rlo, rhi), (ilo, ihi) = root_box
            rect = Box(
                Interval(Rat(rlo), Rat(rhi)), Interval(Rat(ilo), Rat(ihi))
            )
            self._root_enclosure = self._isolate_complex_root(rect)

        theta = self._root_enclosure
        corner = (theta.re.lo, theta.im.lo) if self.is_complex else (theta.lo, Rat(0))
        self._key = (tuple(self.min_poly), self.is_complex) + corner
        self._power_box_cache = None

        self._tail = (0,) * (self.degree - 1)
        self.zero = self.rational(0)
        self.one = self.rational(1)
        if self.degree > 1:
            self.gen = AlgebraicNumber(self, (0, 1) + self._tail[1:], 1)
        else:
            self.gen = self.rational(-self.min_poly[0])

        self.i = None
        self._inv_2i = None
        self._conj_matrix = None
        self.declare_complex_structure(i_coords, conj_coords)

    def declare_complex_structure(self, i_coords=None, conj_coords=None):
        """Validate and install the declared conjugate of theta, then i.

        Both are checked exactly.  Certifying them may refine the root
        enclosure.  Every box of theta is an interval-Newton box rounded
        outward to a power-of-two grid a few bits finer than the width asked
        for and cut back to the box it came from, so its endpoints keep
        small dyadic denominators, and so do the power boxes and element
        enclosures built on it.  Which box the field holds afterwards
        depends on the order (conj, then i), and so do the last bits of the
        field's float values.
        """
        if conj_coords is not None:
            self._install_conj(conj_coords)
        if i_coords is not None:
            self._install_i(i_coords)

    def root_boxes(self):
        """Certified disjoint boxes, one around each root of min_poly."""
        if self.is_complex:
            return self._all_root_boxes
        return _root_boxes(self.min_poly, self._deriv)

    # -- construction-time validation ---------------------------------------

    def _isolate_complex_root(self, rect):
        boxes = _root_boxes(self.min_poly, self._deriv)
        self._all_root_boxes = boxes
        inside = [b for b in boxes if rect.contains_box(b)]
        outside = [b for b in boxes if rect.disjoint(b)]
        if len(inside) != 1 or len(inside) + len(outside) != len(boxes):
            raise TorusflowError(
                "isolating rectangle must contain exactly one root of min_poly"
            )
        box = inside[0]
        if box.im.contains(Rat(0)):
            refined = _refine(self.min_poly, self._deriv, box, box.width() / (1 << 10))
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
        # column k holds the coordinates of conj(theta)^k, over _conj_den
        cols = []
        power = [Rat(1)]
        for _ in range(self.degree):
            cols.append(power)
            power = _pmod(_pmul(power, g), self.min_poly)
        self._conj_matrix, self._conj_den = _integer_rows(cols)

    def _identify_value_as_conjugate(self, g):
        """Certify that g(theta) is the complex conjugate of theta."""
        width = Rat(1, 1 << 24)
        for _ in range(40):
            theta_box = self._root_enclosure
            target = theta_box.conj()
            refined = [
                _refine(self.min_poly, self._deriv, b, width)
                for b in self._all_root_boxes
            ]
            hits = [i for i, b in enumerate(refined) if not b.disjoint(target)]
            val = _hull(g, theta_box)
            val_hits = [i for i, b in enumerate(refined) if not b.disjoint(val)]
            if len(hits) == 1 and len(val_hits) == 1:
                if hits[0] == val_hits[0]:
                    self._all_root_boxes = refined
                    return
                raise TorusflowError(
                    "conj expression is a root but not the conjugate of theta"
                )
            width = width / (1 << 8)
            self.root_enclosure(theta_box.width() / 16)
        raise TorusflowError("could not certify the conjugate expression")

    def _install_i(self, i_coords):
        unit = self.from_coords(list(i_coords)[: self.degree])
        if not (unit * unit + self.one).is_zero():
            raise TorusflowError("declared i does not square to -1")
        # i^2 = -1 exactly, so its imaginary part is 1 or -1, and a box of
        # width 1/16 decides which
        if unit.enclosure(Rat(1, 16)).im.hi < 0:
            raise TorusflowError("declared i has negative imaginary part")
        self.i = unit
        self._inv_2i = (2 * unit).inverse()

    # -- enclosure machinery -------------------------------------------------

    def root_enclosure(self, eps):
        """Certified enclosure of theta with width <= eps: an Interval for a
        real theta, so its arithmetic runs on intervals, and a Box for a
        complex one."""
        eps = Rat(eps)
        if self._root_enclosure.width() > eps:
            self._root_enclosure = _refine(
                self.min_poly, self._deriv, self._root_enclosure, eps
            )
            self._power_box_cache = None
        return self._root_enclosure

    def _power_boxes(self):
        """Boxes of theta^0, ..., theta^(d - 1) by repeated products."""
        if self._power_box_cache is None:
            boxes = [self._root_enclosure.point(1)]
            for _ in range(1, self.degree):
                boxes.append(boxes[-1] * self._root_enclosure)
            self._power_box_cache = boxes
        return self._power_box_cache

    # -- element constructors -------------------------------------------------

    def from_coords(self, coords: Iterable) -> "AlgebraicNumber":
        coords = [Rat(c) for c in coords]
        if len(coords) > self.degree:
            raise TorusflowError("too many coordinates for this field")
        coords += [Rat(0)] * (self.degree - len(coords))
        # over the lcm of the denominators the numerators have no common
        # factor with it: a prime power that divides the lcm exactly divides
        # some coordinate's denominator, whose numerator is prime to it
        den = math.lcm(*(c.denominator for c in coords))
        e = AlgebraicNumber(
            self, tuple(c.numerator * (den // c.denominator) for c in coords), den
        )
        e._coords = tuple(coords)
        return e

    def rational(self, q) -> "AlgebraicNumber":
        if not isinstance(q, int):
            q = Rat(q)
        return AlgebraicNumber(self, (q.numerator,) + self._tail, q.denominator)

    def element(self, value) -> "AlgebraicNumber":
        if isinstance(value, AlgebraicNumber):
            if value.field._key != self._key:
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into the field")

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


_HALF = Rat(1, 2)


class AlgebraicNumber:
    """Element of a NumberField: sum_k num[k] theta^k / den.

    ``num`` holds d integers and ``den`` is positive, with no common factor
    among them, so equal elements have equal ``(num, den)``.  ``coords``
    gives the same coordinates as a tuple of Fractions.
    """

    __slots__ = ("field", "num", "den", "_coords", "_box", "_box_eps")

    def __init__(self, field: NumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._coords = None
        self._box = None
        self._box_eps = None

    @property
    def coords(self):
        """The power-basis coordinates, a tuple of d Fractions."""
        if self._coords is None:
            den = self.den
            self._coords = tuple(Rat(n, den) for n in self.num)
        return self._coords

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if other.field is not self.field and other.field._key != self.field._key:
                raise FieldMismatch("operands lie in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            num = [x + y for x, y in zip(self.num, o.num)]
        else:
            g = math.gcd(a, b)
            sa, sb = b // g, a // g
            num = [x * sa + y * sb for x, y in zip(self.num, o.num)]
            a *= sa
        return _lowest(self.field, num, a)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraicNumber(self.field, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _scaled(self, p, q):
        """self times the rational p / q, q > 0: no reduction mod min_poly."""
        return _lowest(self.field, [x * p for x in self.num], self.den * q)

    def _product(self, o):
        """self times o: the integer polynomial product, its terms of degree
        d and up folded back through the field's rows of x^j mod min_poly."""
        field = self.field
        d = field.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in enumerate(o.num, i):
                    prod[j] += x * y
        scale = field._reduction_den
        out = prod[:d] if scale == 1 else [scale * c for c in prod[:d]]
        for row, c in zip(field._reduction, prod[d:]):
            if c:
                for k, r in row:
                    out[k] += c * r
        return _lowest(field, out, self.den * o.den * scale)

    def __mul__(self, other):
        # a rational operand scales the other's coordinates; that gives the
        # same coordinates as the polynomial product reduced mod min_poly
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_rational():
            return self._scaled(o.num[0], o.den)
        if self.is_rational():
            return o._scaled(self.num[0], self.den)
        return self._product(o)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        field = self.field
        if self.is_rational():
            # den / n is in lowest terms already
            n = self.num[0]
            sign = 1 if n > 0 else -1
            return AlgebraicNumber(field, (sign * self.den,) + field._tail, sign * n)
        # extended euclid in Q[x]: u*a + v*m = g
        a = _ptrim(list(self.coords))
        m = field.min_poly
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
        return field.from_coords(_pmod([c / r0[0] for c in s0], m))

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
        return not any(self.num)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self):
        return not any(self.num[1:])

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return self.is_zero()
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return (
            self.num == other.num
            and self.den == other.den
            and self.field._key == other.field._key
        )

    def __hash__(self):
        return hash((self.field._key, self.num, self.den))

    # -- conjugation / real & imaginary parts ---------------------------------

    def conjugate(self):
        field = self.field
        if not field.is_complex or self.is_rational():
            return self
        cols = field._conj_matrix
        if cols is None:
            raise TorusflowError(
                "field needs a conj declaration for exact conjugation"
            )
        out = [0] * field.degree
        for x, col in zip(self.num, cols):
            if x:
                for k, r in col:
                    out[k] += x * r
        return _lowest(field, out, self.den * field._conj_den)

    def real_part(self):
        if not self.field.is_complex:
            return self
        return (self + self.conjugate()) * _HALF

    def imag_part(self):
        if not self.field.is_complex or self.is_rational():
            return self.field.zero
        if self.field.i is None:
            raise TorusflowError("field needs an i declaration for imaginary parts")
        return (self - self.conjugate()) * self.field._inv_2i

    def is_real(self):
        if not self.field.is_complex:
            return True
        return self.conjugate() == self

    # -- enclosures -----------------------------------------------------------

    def enclosure(self, eps) -> Box:
        """Certified rectangle of width <= eps containing the embedded value.

        A box of theta of width t inside [-M, M] (or the square of
        half-width M) gives the sum an enclosure of width at most about B t,
        B = sum_k k |c_k| M^(k-1); theta is refined once to eps / 2B, and
        then narrowed 16-fold until the sum fits.
        """
        eps = Rat(eps)
        if eps <= 0:
            raise TorusflowError("eps must be positive")
        if self.is_rational():
            return Box.point(Rat(self.num[0], self.den))
        if self._box is not None and self._box_eps <= eps:
            return self._box
        field = self.field
        acc = self._sum(field._power_boxes())
        if acc.width() > eps:
            mag = field._root_enclosure.abs_upper()
            bound = sum(
                k * abs(c) * mag ** (k - 1) for k, c in enumerate(self.coords) if k
            )
            width = eps / (2 * bound)
            for _ in range(64):
                field.root_enclosure(width)
                acc = self._sum(field._power_boxes())
                if acc.width() <= eps:
                    break
                width = width / 16
            else:
                raise TorusflowError("enclosure refinement failed to converge")
        if isinstance(acc, Interval):
            acc = Box(acc, _ZERO)
        self._box, self._box_eps = acc, acc.width()
        return acc

    def _sum(self, powers):
        """Enclosure of sum_k c_k theta^k from boxes of theta's powers."""
        acc = powers[0].point(0)
        for c, pb in zip(self.coords, powers):
            if c != 0:
                acc = acc + pb.scale(c)
        return acc

    def to_complex(self, eps=Fraction(1, 10**16)) -> complex:
        if self.is_rational():
            return complex(self.num[0] / self.den)
        return self.enclosure(eps).to_complex()

    def to_float(self, eps=Fraction(1, 10**16)) -> float:
        if self.is_rational():
            return self.num[0] / self.den
        return float(self.enclosure(eps).re.mid())

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


def float_rows(rows, width):
    """The float matrix, len(rows) x width, of rows of field elements."""
    return np.array(
        [[e.to_float() for e in row] for row in rows], dtype=float
    ).reshape(len(rows), width)
