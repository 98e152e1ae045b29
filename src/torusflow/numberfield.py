"""Exact arithmetic in a fixed number field with certified enclosures.

A field is Q[x]/(m(x)) together with a chosen embedding: an isolating
interval (real embedding) or rectangle (complex embedding) pinning one
root of m.  Elements are stored by their rational coordinates over the
power basis 1, theta, ..., theta^(d-1), so the zero test is exact and
arithmetic never touches floating point.

Enclosures are rectangles with rational endpoints that provably contain
the embedded value; they are produced by refining the root's certified
box and evaluating the coordinate polynomial over it with interval
arithmetic.  A real root's refined box is the one sign-change bisection
reaches, located by Newton's method and certified by a sign change; a
complex root's is an exact interval-Newton box rounded outward to dyadic
endpoints.

Complex-embedded fields that participate in restriction-of-scalars
computations must supply expressions for the imaginary unit and for the
complex conjugate of theta; both are validated exactly at construction.
"""

from __future__ import annotations

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

    def __add__(self, other):
        return Box(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Box(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if self.im == _ZERO == other.im:
            # the general formula gives the same values on the real axis
            return Box(self.re * other.re, _ZERO)
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


def _float_newton(m, md, x):
    """A float Newton iterate of m from the rational x, or None if it
    leaves the floats."""
    try:
        x = float(x)
        fm = [float(c) for c in m]
        fd = [float(c) for c in md]
        for _ in range(64):
            f = d = 0.0
            for c in reversed(fm):
                f = f * x + c
            for c in reversed(fd):
                d = d * x + c
            nx = x - f / d
            if nx == x:
                break
            x = nx
    except (OverflowError, ZeroDivisionError):
        return None
    return x if math.isfinite(x) else None


def _newton_cell(m, md, lo, hi, n):
    """The box bisection of [lo, hi] reaches after n halvings, or None.

    [lo, hi] holds exactly one root r of m, and m is nonzero at both ends.
    Bisection returns the cell [lo + k s, lo + (k + 1) s], s = (hi - lo) / 2^n,
    that holds r inside, or the point r if r is one of the cells' ends (it
    tests every such end it meets as a midpoint).  A float Newton iterate
    from the midpoint, then exact Newton steps on dyadics, locate r well
    enough to name that cell; a sign change of m on it certifies the cell,
    since it lies inside [lo, hi].  None when the guess is not certified.
    """
    step = (hi - lo) / (1 << n)
    x = _float_newton(m, md, (lo + hi) / 2)
    if x is None:
        return None
    x = Rat(x)
    bits = max(step.denominator.bit_length() - step.numerator.bit_length() + 16, 1)
    for _ in range(8):
        d = _peval(md, x)
        if d == 0:
            return None
        delta = _peval(m, x) / d
        x = _dyadic_round(x - delta, bits)
        if abs(delta) <= step:
            break
    k = min(max(math.floor((x - lo) / step), 0), (1 << n) - 1)
    a = lo + k * step
    b = a + step
    fa = _peval(m, a)
    if fa == 0:
        return Box.point(a)
    fb = _peval(m, b)
    if fb == 0:
        return Box.point(b)
    if (fa > 0) != (fb > 0):
        return Box(Interval(a, b), _ZERO)
    return None


def _bisect(m, lo, hi, width):
    """Sign-change bisection of [lo, hi] down to width <= width."""
    flo = _peval(m, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fmid = _peval(m, mid)
        if fmid == 0:
            return Box.point(mid)
        if (flo > 0) != (fmid > 0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return Box(Interval(lo, hi), _ZERO)


def _halvings(w, width):
    """The least n >= 0 with w / 2^n <= width."""
    r = w / width
    n = max(r.numerator.bit_length() - r.denominator.bit_length() - 1, 0)
    while r > (1 << n):
        n += 1
    return n


def _bisection_cell(lo, hi, n, inner):
    """The box bisection of [lo, hi] reaches after n halvings, given the
    box ``inner`` it reaches after more."""
    step = (hi - lo) / (1 << n)
    q = (inner.re.lo - lo) / step
    if inner.re.width() == 0 and q.denominator == 1:
        return inner
    a = lo + (q.numerator // q.denominator) * step
    return Box(Interval(a, a + step), _ZERO)


def _power_boxes_of(theta, degree):
    """Boxes of theta^0, ..., theta^(degree - 1) by repeated products."""
    boxes = [Box.point(1)]
    for _ in range(1, degree):
        boxes.append(boxes[-1] * theta)
    return boxes


def _outward_dyadic(iv, k):
    """The smallest interval on the grid of step 2^-k that contains iv."""
    lo = (iv.lo.numerator << k) // iv.lo.denominator
    hi = -((-iv.hi.numerator << k) // iv.hi.denominator)
    return Interval(Rat(lo, 1 << k), Rat(hi, 1 << k))


def _dyadic_box(box):
    """box rounded outward to a power-of-two grid 4 bits finer than its width.

    The width grows by less than an eighth; the endpoints' denominators
    shrink to about the width's own size.
    """
    w = box.width()
    if w == 0:
        return box
    k = max(w.denominator.bit_length() - w.numerator.bit_length() + 5, 0)
    return Box(_outward_dyadic(box.re, k), _outward_dyadic(box.im, k))


def _try_certify(m, md, zr, zi, h):
    """Interval-Newton contraction test on the square of half-width h.

    Returns a Box certified to contain exactly one root of m, or None.
    The Newton image K is returned rounded outward to dyadic endpoints
    when the rounded box still lies strictly inside the square (then it
    holds the square's only root as well), and as it is otherwise.
    """
    Z = Box(Interval(zr - h, zr + h), Interval(zi - h, zi + h))
    dz = _box_poly_eval(md, Z)
    fr, fi = _cplx_eval(m, zr, zi)
    try:
        K = Box.point(zr, zi) - Box.point(fr, fi).divide(dz)
    except ZeroDivisionError:
        return None
    if not Z.strictly_contains(K):
        return None
    D = _dyadic_box(K)
    return D if Z.strictly_contains(D) else K


def _certify_root(m, md, seed, width):
    """Certified box of width <= width around the root nearest the float seed."""
    bits, limit = 64, 4096
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


def _refine_root_box(m, md, box, width):
    """A certified box of width <= width around the root in ``box``."""
    if box.width() <= width:
        return box
    new = _certify_root(m, md, box.to_complex(), width)
    if new.disjoint(box):
        raise TorusflowError("root refinement drifted; roots too close")
    return new


def _certify_roots(m, md, seeds, width):
    """Certified boxes for the real seeds and the upper seeds of m's roots.

    m has rational coefficients, so the mirror image of a box that holds
    exactly one root holds exactly one root: the conjugate.  Each upper
    box is certified once and mirrored for its lower partner.  The caller's
    count and disjointness checks reject seeds with more lower than upper
    roots, or the reverse, and an upper box that reaches the real axis
    (it overlaps its mirror).
    """
    real = [s for s in seeds if s.imag == 0]
    upper = [s for s in seeds if s.imag > 0]
    boxes = [_certify_root(m, md, s, width) for s in real + upper]
    return boxes + [b.conj() for b in boxes[len(real):]]


def _root_boxes(m, md):
    """Certified pairwise disjoint boxes, one around each root of m."""
    seeds = [complex(s) for s in np.roots([float(c) for c in reversed(m)])]
    boxes = _certify_roots(m, md, seeds, Rat(1, 1 << 24))
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
        boxes = [_refine_root_box(p, md, b, b.width() / (1 << 16)) for b in boxes]


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

        Both are checked exactly.  Certifying them may refine the root
        enclosure.  Every refined box of theta is an interval-Newton box
        rounded outward to a power-of-two grid a few bits finer than its
        width, so its endpoints keep small dyadic denominators, and so do
        the power boxes and element enclosures built on it.  Which box the
        field holds afterwards depends on the order (conj, then i), and so
        do the last bits of the field's float values.
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
            refined = [
                _refine_root_box(self.min_poly, self._deriv, b, width)
                for b in self._all_root_boxes
            ]
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
        """A certified box of width <= width around the root in ``box``.

        A real root's box is the one sign-change bisection of ``box``
        reaches, found by a Newton-located cell when it certifies, by
        bisection otherwise.
        """
        if box.width() <= width:
            return box
        if not self.is_complex:
            m, lo, hi = self.min_poly, box.re.lo, box.re.hi
            n = _halvings(hi - lo, width)
            cell = _newton_cell(m, self._deriv, lo, hi, n)
            return cell if cell is not None else _bisect(m, lo, hi, width)
        return _certify_root(self.min_poly, self._deriv, box.to_complex(), width)

    def root_enclosure(self, eps) -> Box:
        """Certified enclosure of theta with width <= eps."""
        eps = Rat(eps)
        if self._root_enclosure.width() > eps:
            self._set_root_enclosure(self._refine_box(self._root_enclosure, eps))
        return self._root_enclosure

    def _set_root_enclosure(self, box, power_boxes=None):
        self._root_enclosure = box
        self._power_box_cache = power_boxes

    def _power_boxes(self):
        if self._power_box_cache is None:
            self._power_box_cache = _power_boxes_of(self._root_enclosure, self.degree)
        return self._power_box_cache

    def _refine_for(self, element, eps):
        """Refine a real theta once for ``element``'s enclosure of width <= eps.

        The box taken is the one the loop of ``enclosure`` reaches: the
        widest of theta's bisection boxes, 4 halvings apart, whose
        enclosure has width <= eps.  An enclosure's width is at most
        sum_k |c_k| width(theta^k box) <= B t with B = sum_k k |c_k| M^(k-1)
        for a theta box of width t inside [-M, M], so the first level with
        B t <= eps suffices; theta is refined to it once, and the levels
        above it are its ancestors.  Boxes shrink with theta's, so the
        widest passing level is found walking up until one fails.
        """
        box = self._root_enclosure
        lo, hi, w = box.re.lo, box.re.hi, box.width()
        mag = box.abs_upper()
        bound = sum(
            k * abs(c) * mag ** (k - 1) for k, c in enumerate(element.coords) if k
        )
        j = (_halvings(bound * w, eps) + 3) // 4
        deep = self._refine_box(box, w / (1 << (4 * j)))
        best = deep, _power_boxes_of(deep, self.degree)
        for i in range(j - 1, 0, -1):
            cell = _bisection_cell(lo, hi, 4 * i, deep)
            powers = _power_boxes_of(cell, self.degree)
            if element._sum(powers).width() > eps:
                break
            best = cell, powers
        self._set_root_enclosure(*best)

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
        acc = self._sum(field._power_boxes())
        if acc.width() > eps and not field.is_complex:
            field._refine_for(self, eps)
            acc = self._sum(field._power_boxes())
        # a real theta is refined once above, so this loop only runs for
        # complex fields, or should the bound ever fail; it narrows theta
        # 16-fold per pass
        theta_eps = field._root_enclosure.width()
        for _ in range(200):
            if acc.width() <= eps:
                self._box, self._box_eps = acc, acc.width()
                return acc
            theta_eps = theta_eps / 16
            field.root_enclosure(theta_eps)
            acc = self._sum(field._power_boxes())
        raise TorusflowError("enclosure refinement failed to converge")

    def _sum(self, powers):
        """Enclosure of sum_k c_k theta^k from boxes of theta's powers."""
        acc = Box.point(0)
        for c, pb in zip(self.coords, powers):
            if c != 0:
                acc = acc + Box(pb.re.scale(c), pb.im.scale(c))
        return acc

    def to_complex(self, eps=Fraction(1, 10**16)) -> complex:
        if self.is_rational():
            return complex(float(self.coords[0]))
        return self.enclosure(eps).to_complex()

    def to_float(self, eps=Fraction(1, 10**16)) -> float:
        if self.is_rational():
            return float(self.coords[0])
        return float(self.enclosure(eps).re.mid())

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


def float_rows(rows, width):
    """The float matrix, len(rows) x width, of rows of field elements."""
    return np.array(
        [[e.to_float() for e in row] for row in rows], dtype=float
    ).reshape(len(rows), width)
