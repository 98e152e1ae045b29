"""Exact arithmetic in a fixed number field with certified enclosures.

A field is Q[x]/(m(x)) together with a chosen embedding: an isolating
interval (real embedding) or rectangle (complex embedding) pinning one
root of m.  Elements are stored by their rational coordinates over the
power basis 1, theta, ..., theta^(d-1), held as integer numerators over one
positive denominator in lowest terms (Cohen, "A Course in Computational
Algebraic Number Theory", section 4.2), so the zero test is exact and
arithmetic runs on integers, one gcd per result, never on floating point.

Enclosures are rectangles that provably contain the embedded value; they
are produced by refining the root's certified box and evaluating the
coordinate polynomial over it with interval arithmetic.  Each interval
holds integer numerators over one positive denominator, so the interval
arithmetic is exact and runs on integers, without a Fraction or a gcd.
One engine certifies and refines every root box, an interval for a real
root and a rectangle for a complex one: a float Newton iterate certified by
interval Newton (Moore, "Interval Analysis", 1966) on a small interval or
square around it, then interval-Newton steps from the box's centre.  Each
box is rounded outward to dyadic endpoints, over a power of two no finer
than the width asked for needs.

Complex-embedded fields that participate in restriction-of-scalars
computations must supply expressions for the imaginary unit and for the
complex conjugate of theta; both are validated exactly when declared.
"""

from __future__ import annotations

import cmath
import math
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
# Interval and rectangle arithmetic on integers over one denominator
# ---------------------------------------------------------------------------


def _common(d, e):
    """(D, s, t), D = d s = e t: a common multiple of the denominators d and
    e without a gcd, the larger one when the other divides it (always, for
    powers of two), else their product."""
    if d == e:
        return d, 1, 1
    if d > e:
        if not d % e:
            return d, 1, d // e
    elif not e % d:
        return e, e // d, 1
    return d * e, e, d


_new = object.__new__


def _iv(a, b, d):
    """The Interval [a / d, b / d]: integers a <= b, d > 0."""
    iv = _new(Interval)
    iv.a, iv.b, iv.d = a, b, d
    return iv


class Interval:
    """The closed interval [a / d, b / d]: integer numerators a <= b over
    one positive denominator d, not necessarily in lowest terms.

    Arithmetic and comparisons are exact and run on integers.  A sum takes
    the larger denominator when the other divides it, so dyadic endpoints
    stay over one power of two; a product splits on the endpoints' signs
    (Moore, "Interval Analysis", 1966) and forms two products of
    numerators, or four when both intervals hold zero inside.  ``lo``,
    ``hi``, ``width`` and ``abs_upper`` give Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, lo, hi):
        a, p = Rat(lo).as_integer_ratio()
        b, q = Rat(hi).as_integer_ratio()
        d, s, t = _common(p, q)
        if a * s > b * t:
            raise ValueError("interval endpoints out of order")
        self.a, self.b, self.d = a * s, b * t, d

    @staticmethod
    def point(x):
        """The interval [x, x] of an int, Fraction or float x."""
        n, q = x.as_integer_ratio()
        return _iv(n, n, q)

    @property
    def lo(self):
        return Rat(self.a, self.d)

    @property
    def hi(self):
        return Rat(self.b, self.d)

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"

    def _span(self):
        """The width as a pair (n, d), not in lowest terms."""
        return self.b - self.a, self.d

    def width(self):
        return Rat(self.b - self.a, self.d)

    def wider_than(self, w):
        """Whether the width exceeds the rational w."""
        return (self.b - self.a) * w.denominator > w.numerator * self.d

    def centre(self):
        m = self.a + self.b
        return _iv(m, m, 2 * self.d)

    def to_float(self):
        """The midpoint, rounded to the nearest float."""
        return (self.a + self.b) / (2 * self.d)

    def widened(self, h):
        n, q = h.as_integer_ratio()
        d, s, t = _common(self.d, q)
        return _iv(self.a * s - n * t, self.b * s + n * t, d)

    def meet(self, other):
        d, s, t = _common(self.d, other.d)
        a, b = max(self.a * s, other.a * t), min(self.b * s, other.b * t)
        if a > b:
            raise ValueError("interval endpoints out of order")
        return _iv(a, b, d)

    def _shift(self, c):
        """self + c for a rational c."""
        n, q = c.numerator * self.d, c.denominator
        if q == 1:
            return _iv(self.a + n, self.b + n, self.d)
        return _iv(self.a * q + n, self.b * q + n, self.d * q)

    def _rounded(self, k):
        """self rounded outward to the grid 2^-k."""
        d = self.d
        return _iv((self.a << k) // d, -((-self.b << k) // d), 1 << k)

    def __add__(self, other):
        d, s, t = _common(self.d, other.d)
        return _iv(self.a * s + other.a * t, self.b * s + other.b * t, d)

    def __sub__(self, other):
        d, s, t = _common(self.d, other.d)
        return _iv(self.a * s - other.b * t, self.b * s - other.a * t, d)

    def __neg__(self):
        return _iv(-self.b, -self.a, self.d)

    def __mul__(self, other):
        a, b, c, e = self.a, self.b, other.a, other.b
        if a >= 0:
            if c >= 0:
                lo, hi = a * c, b * e
            elif e <= 0:
                lo, hi = b * c, a * e
            else:
                lo, hi = b * c, b * e
        elif b <= 0:
            if c >= 0:
                lo, hi = a * e, b * c
            elif e <= 0:
                lo, hi = b * e, a * c
            else:
                lo, hi = a * e, a * c
        elif c >= 0:
            lo, hi = a * e, b * e
        elif e <= 0:
            lo, hi = b * c, a * c
        else:
            lo, hi = min(a * e, b * c), max(a * c, b * e)
        return _iv(lo, hi, self.d * other.d)

    def square(self):
        a, b = self.a, self.b
        if a >= 0:
            lo, hi = a * a, b * b
        elif b <= 0:
            lo, hi = b * b, a * a
        else:
            lo, hi = 0, max(a * a, b * b)
        return _iv(lo, hi, self.d * self.d)

    def divide(self, other):
        c, e = other.a, other.b
        if c <= 0 <= e:
            raise ZeroDivisionError("interval divisor contains zero")
        # 1 / [c, e] / f = [f c, f e] / (c e), whichever sign c and e share
        f = other.d
        return self * _iv(f * c, f * e, c * e)

    def scale(self, c):
        """self times the int or Fraction c."""
        n, q = c.numerator, c.denominator
        if n >= 0:
            return _iv(self.a * n, self.b * n, self.d * q)
        return _iv(self.b * n, self.a * n, self.d * q)

    def _over(self, q):
        """self / q for an integer q > 0."""
        return _iv(self.a, self.b, self.d * q)

    def contains(self, x):
        n, q = x.as_integer_ratio()
        n *= self.d
        return self.a * q <= n <= self.b * q

    def contains_box(self, other):
        d, e = self.d, other.d
        return self.a * e <= other.a * d and other.b * d <= self.b * e

    def strictly_contains(self, other):
        d, e = self.d, other.d
        return self.a * e < other.a * d and other.b * d < self.b * e

    def disjoint(self, other):
        d, e = self.d, other.d
        return self.b * e < other.a * d or other.b * d < self.a * e

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        d, e = self.d, other.d
        return self.a * e == other.a * d and self.b * e == other.b * d

    def abs_upper(self):
        return Rat(max(-self.a, self.b), self.d)


_ZERO = _iv(0, 0, 1)


class Box:
    """Axis-aligned rectangle in the complex plane: the Intervals re and im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    @staticmethod
    def point(re, im=0):
        return Box(Interval.point(re), Interval.point(im))

    def __repr__(self):
        return f"Box({self.re!r}, {self.im!r})"

    def _span(self):
        """The larger side's width as a pair (n, d)."""
        (n, d), (m, e) = self.re._span(), self.im._span()
        return (n, d) if n * e >= m * d else (m, e)

    def width(self):
        return max(self.re.width(), self.im.width())

    def wider_than(self, w):
        return self.re.wider_than(w) or self.im.wider_than(w)

    def centre(self):
        return Box(self.re.centre(), self.im.centre())

    def widened(self, h):
        return Box(self.re.widened(h), self.im.widened(h))

    def meet(self, other):
        return Box(self.re.meet(other.re), self.im.meet(other.im))

    def _shift(self, c):
        return Box(self.re._shift(c), self.im)

    def _rounded(self, k):
        return Box(self.re._rounded(k), self.im._rounded(k))

    def __add__(self, other):
        return Box(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Box(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return Box(a * c - b * d, a * d + b * c)

    def conj(self):
        return Box(self.re, -self.im)

    def scale(self, c):
        return Box(self.re.scale(c), self.im.scale(c))

    def _over(self, q):
        return Box(self.re._over(q), self.im._over(q))

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

    def __eq__(self, other):
        if not isinstance(other, Box):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def abs_upper(self):
        # sqrt bound avoided: |z| <= |re| + |im|
        return self.re.abs_upper() + self.im.abs_upper()

    def to_complex(self):
        return complex(self.re.to_float(), self.im.to_float())


def _hull(p, X):
    """Enclosure of the nonzero polynomial p over the Interval or Box X, by
    Horner."""
    acc = X.point(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * X
        if c:
            acc = acc._shift(c)
    return acc


def _horner(p, x, y):
    """(u, v) with p(x / y) = u / v and v > 0, for integers x and y > 0.

    Horner on numerators: each step multiplies v by y and by the
    coefficient's denominator.
    """
    u, v = p[-1].numerator, p[-1].denominator
    for k in reversed(p[:-1]):
        n, q = k.numerator, k.denominator
        if q == 1:
            u, v = u * x + n * v * y, v * y
        else:
            u, v = u * x * q + n * v * y, v * y * q
    return u, v


def _at(p, c):
    """p at the point c, an Interval or Box of width 0, exactly, by Horner on
    numerators: u + i w over v for a Box."""
    if isinstance(c, Interval):
        u, v = _horner(p, c.a, c.d)
        return _iv(u, u, v)
    y, s, t = _common(c.re.d, c.im.d)
    x, z = c.re.a * s, c.im.a * t
    u, v = p[-1].numerator, p[-1].denominator
    w = 0
    for k in reversed(p[:-1]):
        n, q = k.numerator, k.denominator
        u, w = u * x - w * z, u * z + w * x
        v *= y
        if q == 1:
            u += n * v
        else:
            u, w, v = u * q + n * v, w * q, v * q
    return Box(_iv(u, u, v), _iv(w, w, v))


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
    finer than width > 0, a Fraction or int.

    Each endpoint moves by less than width / 16; the endpoints'
    denominators shrink to about width's own size.
    """
    k = max(width.denominator.bit_length() - width.numerator.bit_length() + 5, 0)
    return X._rounded(k)


def _narrowed(N, X, width):
    """A Newton image N rounded outward to dyadics and cut back to X.

    The grid follows N's width, or the requested width once N is narrower,
    so a box finer than needed keeps the denominators the width needs.
    N's width becomes a Fraction, in lowest terms, only when it sets the
    grid.
    """
    n, d = N._span()
    if n * width.denominator > width.numerator * d:
        width = Rat(n, d)
    return _dyadic_box(N, width).meet(X)


def _float_newton(m, X):
    """A float Newton iterate of m from the centre of X, a float for an
    Interval and a complex for a Box; None if it leaves the floats."""
    try:
        z = X.to_float() if isinstance(X, Interval) else X.to_complex()
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
    c = Box.point(z.real, z.imag) if isinstance(z, complex) else Interval.point(z)
    scale = math.frexp(max(1.0, abs(z)))[1]
    for bits in range(48 - scale, 15 - scale, -4):
        # 2^-bits is a float exactly: |bits| stays below 1024
        Z = c.widened(math.ldexp(1.0, -bits))
        N = _newton(m, md, c, Z)
        if N is not None and Z.strictly_contains(N):
            return _narrowed(N, Z, width)
    return None


def _halve(m, X):
    """The half of the interval X, holding one root of m, that holds it."""
    a, b, d = X.a, X.b, X.d
    mid = a + b
    # m(x / y) = u / v with v > 0, so u carries the sign
    fmid = _horner(m, mid, 2 * d)[0]
    if fmid == 0:
        return _iv(mid, mid, 2 * d)
    if _horner(m, a, d)[0] * fmid <= 0:
        return _iv(2 * a, mid, 2 * d)
    return _iv(mid, 2 * b, 2 * d)


def _at_most_half(Y, X):
    """Whether the box Y is at most half as wide as the box X."""
    (n, d), (n2, d2) = Y._span(), X._span()
    return 2 * n * d2 <= n2 * d


def _refine(m, md, X, width):
    """A certified box of width <= width inside X, around its root.

    X, an Interval (a real root) or a Box, holds exactly one root of m.
    ``_certify`` narrows X first when its box lies inside X; then each
    interval-Newton step from the centre is cut back to the box before it,
    so the boxes nest.  A step that does not halve the box falls back: an
    Interval to one sign-change bisection, a Box to a new certificate from
    its centre's float, which must meet the box and narrow it.
    """
    if not X.wider_than(width):
        return X
    Y = _certify(m, md, X, width)
    while X.wider_than(width):
        if Y is None or not X.contains_box(Y):
            Y = _newton(m, md, X.centre(), X)
            if Y is not None:
                Y = _narrowed(Y, X, width)
        if Y is None or not _at_most_half(Y, X):
            if isinstance(X, Interval):
                Y = _halve(m, X)
            else:
                Y = _certify(m, md, X, width)
                if Y is not None and Y.disjoint(X):
                    raise TorusflowError("root refinement drifted; roots too close")
                if Y is None or Y.meet(X) == X:
                    raise TorusflowError(
                        "could not certify a root box of min_poly from a float seed"
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
        box = _certify(m, md, Box.point(s.real, s.imag), Rat(1, 1 << 56))
        if box is None:
            raise TorusflowError(
                "could not certify min_poly's roots from their float seeds"
            )
        boxes.append(box)
    boxes += [b.conj() for b in boxes[len(real):]]
    separated = len(boxes) == len(m) - 1 and all(
        a.disjoint(b) for a, b in combinations(boxes, 2)
    )
    if not separated:
        raise TorusflowError(
            "could not separate min_poly's roots from their float seeds"
        )
    return boxes


def _holds_integer(box):
    """Whether the box holds a real integer."""
    re = box.re
    return box.im.contains(0) and -(-re.a // re.d) * re.d <= re.b


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
        scaled = boxes if lead == 1 else [b.scale(lead) for b in boxes]
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

    A complex embedding that feeds restriction-of-scalars computations
    also needs the imaginary unit and the complex conjugate of theta; they
    are set only through ``declare_complex_structure``, after construction.
    """

    def __init__(self, min_poly: Sequence, root_interval=None, root_box=None):
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
            rect = Box(Interval(rlo, rhi), Interval(ilo, ihi))
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
        # a real seed's box is a square centred on the real axis, and an
        # upper box never meets the axis, so a box that meets it holds a
        # real root
        box = inside[0]
        if box.im.contains(0):
            raise TorusflowError(
                "selected root looks real; use a real isolating interval"
            )
        return box

    def _install_conj(self, conj_coords):
        g = _ptrim([Rat(c) for c in conj_coords])
        conj = self.from_coords(g)
        powers = [self.one, conj]
        while len(powers) <= self.degree:
            powers.append(powers[-1] * conj)

        def at_conj(p):
            return sum((e * c for c, e in zip(p, powers) if c), self.zero)

        if at_conj(self.min_poly):
            raise TorusflowError("conj expression is not a root of min_poly")
        if at_conj(g) != self.gen:
            raise TorusflowError("conj expression is not an involution")
        if not self.is_complex:
            raise TorusflowError("conj declaration only applies to complex fields")
        self._identify_value_as_conjugate(g)
        # column k holds the numerators of conj(theta)^k over _conj_den
        powers = powers[: self.degree]
        den = math.lcm(*(e.den for e in powers))
        self._conj_matrix = [
            [(k, n * (den // e.den)) for k, n in enumerate(e.num) if n] for e in powers
        ]
        self._conj_den = den

    def _identify_value_as_conjugate(self, g):
        """Certify that g(theta) is the complex conjugate of theta.

        theta's enclosure lies in its own root box, so its mirror lies in the
        mirrored box, which holds conj(theta) and meets no other root box.
        Narrowing theta narrows g(theta) until it meets exactly one box.
        """
        boxes = self._all_root_boxes
        target = self._root_enclosure.conj()
        (mirror,) = [i for i, b in enumerate(boxes) if not b.disjoint(target)]
        for _ in range(40):
            theta_box = self._root_enclosure
            val = _hull(g, theta_box)
            val_hits = [i for i, b in enumerate(boxes) if not b.disjoint(val)]
            if len(val_hits) == 1:
                if val_hits[0] == mirror:
                    return
                raise TorusflowError(
                    "conj expression is a root but not the conjugate of theta"
                )
            self.root_enclosure(theta_box.width() / 16)
        raise TorusflowError("could not certify the conjugate expression")

    def _install_i(self, i_coords):
        unit = self.from_coords(list(i_coords)[: self.degree])
        if not (unit * unit + self.one).is_zero():
            raise TorusflowError("declared i does not square to -1")
        # i^2 = -1 exactly, so its imaginary part is 1 or -1, and a box of
        # width 1/16 decides which
        if unit.enclosure(Rat(1, 16)).im.b < 0:
            raise TorusflowError("declared i has negative imaginary part")
        self.i = unit
        # 1 / (2i) = -i / 2, since i^2 = -1
        self._inv_2i = unit * Rat(-1, 2)

    # -- enclosure machinery -------------------------------------------------

    def root_enclosure(self, eps):
        """Certified enclosure of theta with width <= eps: an Interval for a
        real theta, so its arithmetic runs on intervals, and a Box for a
        complex one."""
        eps = Rat(eps)
        if self._root_enclosure.wider_than(eps):
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
        if not isinstance(q, (int, Fraction)):
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
# the enclosure width behind to_float and to_complex
_FLOAT_EPS = Rat(1, 10**16)


class AlgebraicNumber:
    """Element of a NumberField: sum_k num[k] theta^k / den.

    ``num`` holds d integers and ``den`` is positive, with no common factor
    among them, so equal elements have equal ``(num, den)``.  ``coords``
    gives the same coordinates as a tuple of Fractions.
    """

    __slots__ = ("field", "num", "den", "_coords", "_box")

    def __init__(self, field: NumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._coords = None
        self._box = None

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
            n >>= 1
            if n:
                base = base * base
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
            n = self.num[0]
            return Box(_iv(n, n, self.den), _ZERO)
        if self._box is not None and not self._box.wider_than(eps):
            return self._box
        field = self.field
        acc = self._sum(field._power_boxes())
        if acc.wider_than(eps):
            mag = field._root_enclosure.abs_upper()
            bound = sum(
                k * abs(c) * mag ** (k - 1) for k, c in enumerate(self.coords) if k
            )
            width = eps / (2 * bound)
            for _ in range(64):
                field.root_enclosure(width)
                acc = self._sum(field._power_boxes())
                if not acc.wider_than(eps):
                    break
                width = width / 16
            else:
                raise TorusflowError("enclosure refinement failed to converge")
        if isinstance(acc, Interval):
            acc = Box(acc, _ZERO)
        self._box = acc
        return acc

    def _sum(self, powers):
        """Enclosure of sum_k num[k] theta^k / den from boxes of theta's
        powers, for an element that is not rational."""
        acc = None
        for n, pb in zip(self.num, powers):
            if n:
                term = pb.scale(n)
                acc = term if acc is None else acc + term
        return acc._over(self.den)

    def to_complex(self) -> complex:
        if self.is_rational():
            return complex(self.num[0] / self.den)
        return self.enclosure(_FLOAT_EPS).to_complex()

    def to_float(self) -> float:
        if self.is_rational():
            return self.num[0] / self.den
        return self.enclosure(_FLOAT_EPS).re.to_float()

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*theta")
            else:
                terms.append(f"{c}*theta^{k}")
        return " + ".join(terms) if terms else "0"


def float_rows(rows, width):
    """The float matrix, len(rows) x width, of rows of field elements."""
    return np.array(
        [[e.to_float() for e in row] for row in rows], dtype=float
    ).reshape(len(rows), width)
