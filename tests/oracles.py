"""Reference computations the tests check torusflow against.

None of these run in the pipeline: the orbit-density oracle samples a
subspace's image numerically to cross-check exact torus closures,
``int_det`` checks unimodularity, ``rational_rank`` and ``is_saturated``
check integer kernels, ``in_span`` decides span membership by solving,
``to_logical`` inverts the samplers' ``to_internal``,
``BisectionEnclosures`` encloses field elements by the earlier 16-fold
refinement loop on bisected real roots, and ``serialize``
writes a parsed problem back as text for the parse -> serialize -> parse
round trip.
"""

import math
from fractions import Fraction

import numpy as np

from torusflow import exactlinalg as xl
from torusflow._kernels import min_distance_batch
from torusflow.lattice import hermite_normal_form, torus_closure
from torusflow.numberfield import Box, Interval, _certify_root, _peval
from torusflow.verifier import _torus_cells, distinct_rows


def int_det(M):
    """Determinant of a square integer matrix, by exact elimination."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, n):
            if A[r][c] != 0:
                f = A[r][c] * inv
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    assert det.denominator == 1
    return int(det)


def rational_rank(M):
    """Rank over Q of an integer matrix."""
    return len(xl.rref([[Fraction(x) for x in row] for row in M], xl.QQ)[0])


def is_saturated(rows, n):
    """Do the integer rows, each of length n, span a saturated sublattice of
    Z^n?  Exactly when the HNF of their transpose has the identity on top,
    the criterion ClosedSubgroupDescriptor.integer_dual uses."""
    k = len(rows)
    if k == 0:
        return True
    H, _ = hermite_normal_form([[row[i] for row in rows] for i in range(n)])
    return [row[:k] for row in H[:k]] == [
        [int(i == j) for j in range(k)] for i in range(k)
    ]


def in_span(vectors, v, dom):
    """Is v a linear combination of the vectors?  Decided by solving."""
    return xl.span_coordinates(vectors, v, dom) is not None


def rational_closure(V, lat):
    """Smallest Lambda-rational subspace containing V."""
    return torus_closure(V, lat).W


def to_logical(points, mode):
    """Real (m, N) internal coordinates -> complex (m, n) logical samples."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mode == "real":
        return pts.astype(complex)
    return pts[:, 0::2] + 1j * pts[:, 1::2]


# ---------------------------------------------------------------------------
# Field elements to enclosures, the way torusflow did it by bisection
# ---------------------------------------------------------------------------


def _box_mul(a, b):
    return Box(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


class BisectionEnclosures:
    """Enclosures of a field's elements by the earlier refinement loop.

    It keeps its own copy of theta's box, taken from ``field`` when it is
    made, and refines it as torusflow did before the Newton bracket: each
    pass narrows theta 16-fold, a real theta by sign-change bisection and a
    complex one by ``_certify_root``, until the element's enclosure has
    width <= eps.  Like the field's box, the copy carries over from one
    element to the next; there is no per-element cache.
    """

    def __init__(self, field):
        self.field = field
        self.theta = field._root_enclosure

    def _refine(self, width):
        K, box = self.field, self.theta
        if box.width() <= width:
            return
        if K.is_complex:
            self.theta = _certify_root(K.min_poly, K._deriv, box.to_complex(), width)
            return
        m, lo, hi = K.min_poly, box.re.lo, box.re.hi
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
        self.theta = Box(Interval(lo, hi), Interval.point(0))

    def enclosure(self, element, eps):
        eps = Fraction(eps)
        if element.is_rational():
            return Box.point(element.coords[0])
        theta_eps = self.theta.width()
        while True:
            powers = [Box.point(1)]
            for _ in range(1, self.field.degree):
                powers.append(_box_mul(powers[-1], self.theta))
            acc = Box.point(0)
            for c, pb in zip(element.coords, powers):
                if c != 0:
                    acc = acc + Box(pb.re.scale(c), pb.im.scale(c))
            if acc.width() <= eps:
                return acc
            theta_eps = theta_eps / 16
            self._refine(theta_eps)


# ---------------------------------------------------------------------------
# Orbit density: the numeric image of a subspace in the quotient
# ---------------------------------------------------------------------------


def subspace_orbit(V, lat, count, seed=0, spread=2000.0):
    """Reduced samples of the subspace V: the numeric orbit in the quotient."""
    rng = np.random.default_rng([seed, 977])
    basis = V.float_basis()
    if not len(basis):
        return np.zeros((1, lat.ambient_dim))
    coeffs = rng.uniform(-spread, spread, size=(count, len(basis)))
    reduced, _, _ = lat.reduce_points(coeffs @ basis)
    return reduced


def orbit_coverage(descriptor, lat, reduced, eps):
    """(coverage fraction of W's torus cells, max distance off the W fiber)."""
    if descriptor.torus_dim == 0:
        off = np.linalg.norm(reduced, axis=1)
        return (1.0 if len(reduced) else 0.0), float(np.max(off)) if len(off) else 0.0
    cells = _torus_cells(reduced, descriptor.torus_coordinate_matrix(lat), eps)
    hits = len(distinct_rows(cells))
    # distance off the fiber: orthogonal part, minimized over translates
    proj = descriptor.W.float_complement_projector()
    perp = reduced @ proj.T
    offsets = lat.translates(2) @ proj.T
    if len(offsets):
        rounded = np.unique(np.round(offsets, 9), axis=0)
        d, _ = min_distance_batch(perp, rounded, np.zeros((1, perp.shape[1])))
    else:
        d = np.linalg.norm(perp, axis=1)
    off_max = float(np.max(d)) if len(d) else 0.0
    k = int(math.ceil(1.0 / eps))
    return hits / (k**descriptor.torus_dim), off_max


# ---------------------------------------------------------------------------
# Problem files written back as text
# ---------------------------------------------------------------------------


def normalized_entries(spec):
    """(section, key, value) triples; the round-trip invariant."""
    return [(s, k, v) for s, k, v, _ in spec.entries]


def serialize(spec):
    """The problem file text of a parsed spec, top-level keys first."""
    lines = [f"{key} = {value}" for s, key, value, _ in spec.entries if s == "" and key]
    for section, key, value, _ in spec.entries:
        if section == "":
            continue
        if key is None:
            lines += ["", f"[{section}]"]
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
