"""Reference computations the tests check torusflow against.

None of these run in the pipeline: the orbit-density oracle samples a
subspace's image numerically to cross-check exact torus closures,
``int_det`` checks unimodularity, ``rational_rank`` and ``is_saturated``
check integer kernels, ``in_span`` decides span membership by solving,
``to_logical`` inverts the samplers' ``to_internal``, ``remainder_bound``
evaluates an expansion's certified tail bound C * t^(-q),
``FractionArithmetic`` does field arithmetic on Fraction coordinates by
polynomial division, and ``serialize`` writes a parsed problem back as text
for the parse -> serialize -> parse round trip.
"""

import math
from fractions import Fraction

import numpy as np

from torusflow import exactlinalg as xl
from torusflow._kernels import min_distance_batch
from torusflow.lattice import hermite_normal_form, torus_closure
from torusflow.numberfield import (
    _pcompose_mod,
    _pdivmod,
    _pmod,
    _pmul,
    _psub,
    _ptrim,
)
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
# Field arithmetic on Fraction coordinates
# ---------------------------------------------------------------------------


def remainder_bound(remainder, t):
    """The float value of a RemainderBound at t: 0 when the tail vanishes."""
    if remainder.q is None:
        return 0.0
    return float(remainder.C) * float(t) ** (-float(remainder.q))


class FractionArithmetic:
    """A field's arithmetic on tuples of d Fraction coordinates.

    Products are polynomial products reduced mod min_poly by division,
    inverses come from the extended Euclidean algorithm over Q[x], and the
    conjugate of a(theta) is a(conj(theta)) reduced mod min_poly.  ``conj``
    and ``i`` are the coordinates declared for a complex field.
    """

    def __init__(self, field, conj=None, i=None):
        self.m = field.min_poly
        self.d = field.degree
        self.complex = field.is_complex
        self.conj_poly = _ptrim([Fraction(c) for c in conj or []])
        self.i = self._pad(i or [])

    def _pad(self, poly):
        poly = [Fraction(c) for c in poly]
        return tuple(poly + [Fraction(0)] * (self.d - len(poly)))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        return self._pad(_pmod(_pmul(list(a), list(b)), self.m))

    def inverse(self, a):
        r0, r1 = self.m, _ptrim(list(a))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        assert len(r0) == 1
        return self._pad(_pmod([c / r0[0] for c in s0], self.m))

    def conjugate(self, a):
        if not self.complex:
            return a
        return self._pad(_pcompose_mod(_ptrim(list(a)), self.conj_poly, self.m))

    def real_part(self, a):
        return self.mul(self.add(a, self.conjugate(a)), self._pad([Fraction(1, 2)]))

    def imag_part(self, a):
        if not self.complex:
            return self._pad([])
        two_i = self.mul(self._pad([2]), self.i)
        return self.mul(self.sub(a, self.conjugate(a)), self.inverse(two_i))


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
