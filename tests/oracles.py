"""Reference computations the tests check torusflow against.

None of these run in the pipeline: the orbit-density oracle samples a
subspace's image numerically to cross-check exact torus closures,
``int_det`` checks unimodularity, ``rational_rank`` and ``is_saturated``
check integer kernels, ``solve`` is the RREF solver with which ``in_span``
decides span membership and ``project_onto_complement`` projects by a Gram
system, ``annihilator_closure`` finds Lambda cap W from a Fraction RREF of
the rational forms vanishing on V, ``to_logical`` inverts the samplers'
``to_internal``, ``branch`` builds a branch from exponent dicts,
``dense_expansion`` expands it at infinity by dense long division, the
reference for ``expand_at_infinity``, ``remainder_bound`` evaluates an
expansion's certified tail bound C * t^(-q), ``FractionArithmetic`` does
field arithmetic on Fraction coordinates by polynomial division,
``FractionInterval`` and ``FractionBox`` with the functions after them do
the certified-root box arithmetic on Fraction endpoints,
``stacked_hit_counts`` counts coverage hits from one 2-D cell table,
``translates`` lists the lattice points of a coefficient box and
``box_offsets`` the translates a distance took from such a box,
``projected_lattice_rows`` finds a basis of the projected lattice by exact
integer elimination, ``reduced_projected_rows`` moves such a basis to short
lifts and LLL-reduces it, and ``brute_force_distances`` measures distances
to its translates over a box that holds each query's minimiser,
``reduce_points_by_matmul``, ``reduction_residual_by_matmul``,
``to_internal_by_copy``, ``branch_by_complex_powers`` and
``stacked_points`` are the verifier's row stages as first written, with
``@`` products, complex powers, fresh arrays and strided copies, against
which ``same_bits`` compares the rewritten ones, and
``serialize`` writes a parsed problem back as text for the parse ->
serialize -> parse round trip.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from torusflow import exactlinalg as xl
from torusflow._kernels import min_distance_batch
from torusflow.asymptotics import _abs_lower, _abs_upper
from torusflow.expressions import compile_numeric, parse_expr, split_vector
from torusflow.flats import Flat, ParametricBranch, TPoly
from torusflow.lattice import (
    hermite_normal_form,
    int_kernel_basis,
    lll_reduce,
    torus_closure,
)
from torusflow.numberfield import (
    _padd,
    _pdivmod,
    _peval,
    _pmod,
    _pmul,
    _psub,
    _ptrim,
)
from torusflow.specfile import _parse_raw
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


class _Rationals:
    """Fraction scalars as an ``exactlinalg`` domain."""

    zero = Fraction(0)
    one = Fraction(1)


FRACTIONS = _Rationals()


def rational_rank(M):
    """Rank over Q of an integer matrix."""
    return len(xl.rref([[Fraction(x) for x in row] for row in M], FRACTIONS)[0])


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


def solve(rows, rhs, dom):
    """One exact solution of M x = rhs, or None if inconsistent: the last
    column of the RREF of [M | rhs] over its pivots."""
    if not rows:
        return None if any(b != 0 for b in rhs) else []
    ncols = len(rows[0])
    red, pivots = xl.rref([list(r) + [b] for r, b in zip(rows, rhs)], dom)
    if pivots and pivots[-1] == ncols:
        return None
    x = [dom.zero] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return x


def in_span(vectors, v, dom):
    """Is v a linear combination of the vectors?  Decided by solving."""
    if not vectors:
        return not any(v)
    cols = [[vec[j] for vec in vectors] for j in range(len(v))]
    return solve(cols, list(v), dom) is not None


def project_onto_complement(x, vectors, dom):
    """x minus its orthogonal projection onto span(vectors), which is the
    combination of the vectors whose coefficients solve the Gram system."""
    if not vectors:
        return list(x)
    gram = [[xl.dot(u, v) for v in vectors] for u in vectors]
    coeffs = solve(gram, [xl.dot(u, x) for u in vectors], dom)
    return xl.vec_sub(list(x), xl._combination(coeffs, vectors, dom))


def rational_closure(V, lat):
    """Smallest Lambda-rational subspace containing V."""
    return torus_closure(V, lat).W


def rational_annihilator(vectors, field):
    """Basis of the rational linear forms vanishing on every given vector.

    Each condition f . v = 0 over the field unfolds into one rational
    equation per power-basis coordinate; their kernel comes from a Fraction
    RREF.
    """
    rows = []
    for v in vectors:
        den = math.lcm(*(e.den for e in v))
        for k in range(field.degree):
            row = [Fraction(e.num[k] * (den // e.den)) for e in v]
            if any(row):
                rows.append(row)
    return xl.kernel_basis(rows, len(vectors[0]), FRACTIONS)


def annihilator_closure(V, lat):
    """Lambda-coordinates of a basis of Lambda cap W for the smallest
    Lambda-rational W containing V: the integer points on which every
    rational form annihilating V vanishes."""
    if V.dim == 0:
        return []
    forms = rational_annihilator(
        [lat.lambda_coordinates(v) for v in V.basis], lat.field
    )
    denom = math.lcm(*(c.denominator for row in forms for c in row))
    return int_kernel_basis(
        [[int(c * denom) for c in row] for row in forms], lat.rank
    )


def to_logical(points, mode):
    """Real (m, N) internal coordinates -> complex (m, n) logical samples."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mode == "real":
        return pts.astype(complex)
    return pts[:, 0::2] + 1j * pts[:, 1::2]


# ---------------------------------------------------------------------------
# Branch expansions at infinity
# ---------------------------------------------------------------------------


def branch(coords, field, rays=None):
    """A ParametricBranch whose coordinates are (numerator, denominator)
    pairs of {exponent: coefficient} dicts."""
    pairs = [(TPoly(field, num), TPoly(field, den)) for num, den in coords]
    return ParametricBranch(pairs, field, rays=rays)


def _tpoly_to_dense(poly, s):
    """Integer-exponent dense coefficient list after u = t^(1/s), plus shift."""
    if poly.is_zero():
        return [], 0
    exps = [int(e * s) for e in poly.terms]
    shift = min(0, *exps)
    coeffs = [poly.field.zero] * (max(exps) - shift + 1)
    for e, c in poly.terms.items():
        coeffs[int(e * s) - shift] = c
    return coeffs, shift


def dense_expansion(branch):
    """``expand_at_infinity(branch)``'s terms and its remainder's (C, q, t0),
    by dense long division: each coordinate's numerator and denominator
    become coefficient lists in u = t^(1/s), the one with the larger shift
    is padded with zeros below to the other's, and ``_pdivmod`` divides.
    The bound's coefficients are enclosed in the same order as in
    ``expand_at_infinity``, so on a fresh field they give the same values."""
    field, s = branch.field, branch.exponent_denominator
    n = len(branch.coords)
    vector_terms, C, q, t0 = {}, Fraction(0), None, Fraction(1)
    for j, (num, den) in enumerate(branch.coords):
        ncoeffs, nshift = _tpoly_to_dense(num, s)
        dcoeffs, dshift = _tpoly_to_dense(den, s)
        rel = nshift - dshift
        if rel > 0:
            ncoeffs = [field.zero] * rel + ncoeffs
        elif rel < 0:
            dcoeffs = [field.zero] * (-rel) + dcoeffs
        quot, rem = _pdivmod(ncoeffs, dcoeffs)
        for k, c in enumerate(quot):
            if c:
                vector_terms.setdefault(Fraction(k, s), [field.zero] * n)[j] = c
        if rem:
            m, r = len(dcoeffs) - 1, len(rem) - 1
            lead_lower = _abs_lower(dcoeffs[-1])
            cauchy = 1 + max(
                (_abs_upper(c) for c in dcoeffs[:-1] if not c.is_zero()),
                default=Fraction(0),
            ) / lead_lower
            rem_norm = sum((_abs_upper(c) for c in rem), Fraction(0))
            C += Fraction(2) ** m * rem_norm / lead_lower
            q = Fraction(m - r, s) if q is None else min(q, Fraction(m - r, s))
            t0 = max(t0, max(Fraction(1), 2 * cauchy) ** s)
    terms = sorted(vector_terms.items(), key=lambda kv: kv[0], reverse=True)
    return [(e, v) for e, v in terms if any(not c.is_zero() for c in v)], (C, q, t0)


def remainder_bound(remainder, t):
    """The float value of a RemainderBound at t: 0 when the tail vanishes."""
    if remainder.q is None:
        return 0.0
    return float(remainder.C) * float(t) ** (-float(remainder.q))


# ---------------------------------------------------------------------------
# Field arithmetic on Fraction coordinates
# ---------------------------------------------------------------------------


def _pcompose_mod(f, g, m):
    """f(g(x)) reduced modulo m."""
    acc = []
    for c in reversed(f):
        acc = _pmod(_padd(_pmul(acc, g), [c]), m)
    return acc


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
# Certified-root box arithmetic on Fraction endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractionInterval:
    """[lo, hi] with Fraction endpoints: each product forms all four
    endpoint products and takes their min and max."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(x):
        x = Fraction(x)
        return FractionInterval(x, x)

    def width(self):
        return self.hi - self.lo

    def mid(self):
        return (self.lo + self.hi) / 2

    def centre(self):
        return FractionInterval.point(self.mid())

    def widened(self, h):
        return FractionInterval(self.lo - h, self.hi + h)

    def meet(self, other):
        return FractionInterval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __add__(self, other):
        return FractionInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return FractionInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return FractionInterval(-self.hi, -self.lo)

    def __mul__(self, other):
        vals = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return FractionInterval(min(vals), max(vals))

    def square(self):
        if self.lo <= 0 <= self.hi:
            return FractionInterval(
                Fraction(0), max(self.lo * self.lo, self.hi * self.hi)
            )
        vals = (self.lo * self.lo, self.hi * self.hi)
        return FractionInterval(min(vals), max(vals))

    def divide(self, other):
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("interval divisor contains zero")
        vals = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return FractionInterval(min(vals), max(vals))

    def scale(self, c):
        c = Fraction(c)
        if c >= 0:
            return FractionInterval(self.lo * c, self.hi * c)
        return FractionInterval(self.hi * c, self.lo * c)

    def strictly_contains(self, other):
        return self.lo < other.lo and other.hi < self.hi


@dataclass(frozen=True)
class FractionBox:
    """A rectangle of two FractionIntervals."""

    re: FractionInterval
    im: FractionInterval

    @staticmethod
    def point(re, im=0):
        return FractionBox(FractionInterval.point(re), FractionInterval.point(im))

    def width(self):
        return max(self.re.width(), self.im.width())

    def widened(self, h):
        return FractionBox(self.re.widened(h), self.im.widened(h))

    def meet(self, other):
        return FractionBox(self.re.meet(other.re), self.im.meet(other.im))

    def __add__(self, other):
        return FractionBox(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionBox(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return FractionBox(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self):
        return FractionBox(self.re, -self.im)

    def abs_squared(self):
        return self.re.square() + self.im.square()

    def divide(self, other):
        denom = other.abs_squared()
        num = self * other.conj()
        return FractionBox(num.re.divide(denom), num.im.divide(denom))

    def strictly_contains(self, other):
        return self.re.strictly_contains(other.re) and self.im.strictly_contains(
            other.im
        )


def fraction_hull(p, X):
    """Enclosure of the polynomial p over X, by Horner."""
    acc = X.point(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * X + X.point(c)
    return acc


def fraction_at(p, c):
    """p at the point c exactly."""
    if isinstance(c, FractionInterval):
        return FractionInterval.point(_peval(p, c.lo))
    ar, ai = Fraction(0), Fraction(0)
    zr, zi = c.re.lo, c.im.lo
    for k in reversed(p):
        ar, ai = ar * zr - ai * zi + k, ar * zi + ai * zr
    return FractionBox.point(ar, ai)


def fraction_newton(m, md, c, X):
    """The interval-Newton image c - m(c) / m'(X), or None."""
    try:
        return c - fraction_at(m, c).divide(fraction_hull(md, X))
    except ZeroDivisionError:
        return None


def fraction_dyadic_box(X, width):
    """X rounded outward to the power-of-two grid 4 bits finer than width."""
    if isinstance(X, FractionBox):
        return FractionBox(
            fraction_dyadic_box(X.re, width), fraction_dyadic_box(X.im, width)
        )
    k = max(width.denominator.bit_length() - width.numerator.bit_length() + 5, 0)
    lo = (X.lo.numerator << k) // X.lo.denominator
    hi = -((-X.hi.numerator << k) // X.hi.denominator)
    return FractionInterval(Fraction(lo, 1 << k), Fraction(hi, 1 << k))


def fraction_narrowed(N, X, width):
    """N rounded outward for max(N's width, width) and cut back to X."""
    return fraction_dyadic_box(N, max(N.width(), width)).meet(X)


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


def translates(lat, m):
    """Float array of lattice points with coefficients in [-m, m]^rank, in
    the lexicographic order of their coefficients."""
    if lat.rank == 0:
        return np.zeros((1, lat.ambient_dim))
    grids = np.meshgrid(*[np.arange(-m, m + 1)] * lat.rank, indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    return coeffs @ lat.float_basis()


def box_offsets(lat, proj, m=4):
    """The translates a distance took before the projected-lattice search:
    the lattice points with coefficients in [-m, m]^rank, projected by
    ``proj``, the first of each distinct projection (to 9 digits) in the
    lexicographic order of their coefficients."""
    offs = translates(lat, m) @ proj.T
    if not offs.shape[1]:
        return offs[:1]
    return np.take(offs, np.sort(distinct_rows(np.round(offs, 9).T)), axis=0)


def projected_lattice_rows(lat, space):
    """(rows, kernel): integer rows k whose lattice vectors k B project,
    along the subspace ``space``, onto a basis of the projected lattice, and
    a basis of the integer k with k B in ``space``.

    Exact: the power-basis coordinates of the complement parts of the basis
    vectors, over one denominator, are integer rows M; with U M = H in
    Hermite normal form, the rows of U whose row of H is zero send the
    lattice into ``space``, and the others, U being unimodular, onto
    generators of the projection, independent over Q.  They are independent
    over R too, and the projection is discrete, when lattice vectors span
    the intersection of ``space`` with span Lambda.
    """
    field = lat.field
    parts = [space.complement_part(b) for b in lat.basis]
    den = math.lcm(1, *(e.den for v in parts for e in v))
    M = [[e.num[c] * (den // e.den) for e in v for c in range(field.degree)]
         for v in parts]
    H, U = hermite_normal_form(M)
    return [u for u, h in zip(U, H) if any(h)], [u for u, h in zip(U, H) if not any(h)]


def reduced_projected_rows(B, proj, rows, kernel=()):
    """(rows, kernel, lift): ``rows`` moved by the integer vectors
    ``kernel``, which project to 0, to short lifts k B by Babai rounding,
    so that their projections lose few digits, then LLL-reduced; the
    kernel, LLL-reduced, and the map ``lift`` that rounds a vector to its
    nearest combination of the kernel's lattice vectors, or None without a
    kernel.  The rows span the same projected lattice as before."""
    rows = np.asarray(rows, dtype=float).reshape(len(rows), len(B))
    lift = None
    if len(kernel):
        kernel = np.asarray(kernel, dtype=float)
        kernel = np.asarray(lll_reduce(kernel @ B), dtype=float) @ kernel
        short = kernel @ B
        lift = short.T @ np.linalg.inv(short @ short.T)
        rows = rows - np.rint((rows @ B) @ lift) @ kernel
    if len(rows):
        rows = np.asarray(lll_reduce((rows @ B) @ proj.T), dtype=float) @ rows
    return rows, kernel, lift


def brute_force_distances(pts, nodes, B, proj, rows, kernel=()):
    """(dists, node_idx): per query x, the least |x - (k @ B) @ proj.T - node|
    over the nodes and over k = j @ rows, j an integer vector in a box that
    holds the minimiser, squared and summed coordinate by coordinate, and a
    node that attains it.  ``rows`` are first reduced
    (``reduced_projected_rows``), which changes only the size of the boxes
    (any basis holds the minimiser in its box; a reduced one, a small box),
    and each k is moved to a short lift as they are.

    ``rows`` are integer rows whose projected lattice vectors form a basis
    b of the projected lattice, with Gram matrix G.  Rounding the
    coordinates of x - node over b leaves an in-span residual of at most
    h = sum |b_i| / 2, so the nearest translate's residual e b has
    |e b| <= h and |e_i| <= h sqrt((G^-1)_ii); the box spans that much
    around the coordinates of x minus those of every node.
    """
    rows, kernel, lift = reduced_projected_rows(B, proj, rows, kernel)
    basis = (rows @ B) @ proj.T
    gram_inv = np.linalg.inv(basis @ basis.T) if len(rows) else np.zeros((0, 0))
    pinv = basis.T @ gram_inv
    h = 0.5 * float(np.linalg.norm(basis, axis=1).sum())
    rho = h * np.sqrt(np.diag(gram_inv)) * (1 + 1e-9) + 1e-6
    # each node moved by its own cell into cell 0, so that the boxes stay
    # small however the nodes spread; the minimum over all translates stays
    cells = np.floor(nodes @ pinv)
    if len(rows) and cells.any():
        k = cells @ rows
        if lift is not None:
            k = k - np.rint((k @ B) @ lift) @ kernel
        nodes = nodes - (k @ B) @ proj.T
    cy = nodes @ pinv
    out = np.empty(len(pts))
    node_idx = np.empty(len(pts), dtype=np.intp)
    for i, x in enumerate(pts):
        c = x @ pinv
        lo = np.floor(c - cy.max(axis=0, initial=-np.inf) - rho).astype(int)
        hi = np.ceil(c - cy.min(axis=0, initial=np.inf) + rho).astype(int)
        assert np.prod(hi - lo + 1) <= 1 << 16, "brute-force box too large"
        if len(rows):
            axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
            js = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(rows))
        else:
            js = np.zeros((1, 0))
        k = js @ rows
        if lift is not None:
            k = k - np.rint((k @ B) @ lift) @ kernel
        offs = (k @ B) @ proj.T
        targets = offs[:, None, :] + nodes[None, :, :]
        d2 = np.zeros(targets.shape[:2])
        for k in range(len(x)):
            d2 += (x[k] - targets[..., k]) ** 2
        out[i] = math.sqrt(d2.min())
        node_idx[i] = np.argmin(d2.min(axis=0))
    return out, node_idx


def brute_force_evaluator_distances(ev, reduced, scale=1.0):
    """``ComponentEvaluator.distances`` of the reduced rows by brute force,
    the curve refine included: the rows it refines get the brute-force
    distance to the 33-point window around their nearest node too.

    The projection is along W + D plus the torus closure of its
    intersection with span Lambda, which the evaluator's ``proj`` must
    annihilate.  The rows measured are the projected rows as the evaluator
    moves them into cell 0, and each move must be a projected lattice
    vector: its coordinates over the basis from ``projected_lattice_rows``
    lie within 1e-9 of integers, times ``scale``, a float or one per row,
    for rows so far out that a move of their size rounds by more."""
    lat = ev.lat
    space = ev.comp.effective_span
    if isinstance(ev.comp.base, Flat):
        space = space.sum(ev.comp.base.directions)
    space = space.sum(torus_closure(space.intersect(lat.span), lat).W)
    assert len(ev.proj) == lat.ambient_dim - space.dim
    assert np.allclose(space.float_basis() @ ev.proj.T, 0.0, atol=1e-9)
    rows, kernel = projected_lattice_rows(lat, space)
    B = lat.float_basis()
    projected = reduced @ ev.proj.T
    pts = ev.projected.recentre(projected)
    if len(rows):
        # over the reduced rows, a unimodular change of that basis, whose
        # projections keep their digits
        short = reduced_projected_rows(B, ev.proj, rows, kernel)[0]
        basis = (short @ B) @ ev.proj.T
        coords = np.linalg.solve(basis @ basis.T, basis @ (projected - pts).T)
        assert np.all(np.abs(coords - np.rint(coords)) <= 1e-9 * scale)
    else:
        assert np.array_equal(pts, projected)
    nodes = ev.nodes_full @ ev.proj.T
    d, node_idx = brute_force_distances(pts, nodes, B, ev.proj, rows, kernel)
    if ev.curve_params is None:
        return d
    worst = np.nonzero(d > 0.25 * ev.cfg.tolerance)[0]
    if len(worst) > 4096:
        worst = worst[np.argsort(d[worst])[-4096:]]
    spacing = ev.curve_params[1] - ev.curve_params[0]
    lo, hi = ev.comp.base.param_range
    out = d.copy()
    for i in worst:
        p0 = ev.curve_params[node_idx[i]]
        local = np.linspace(max(p0 - spacing, lo), min(p0 + spacing, hi), 33)
        window = lat.reduce_points(ev.comp.base.sample_at(local))[0] @ ev.proj.T
        w, _ = brute_force_distances(pts[i : i + 1], window, B, ev.proj, rows, kernel)
        out[i] = min(out[i], w[0])
    return out


def orbit_coverage(descriptor, lat, reduced, eps):
    """(coverage fraction of W's torus cells, max distance off the W fiber)."""
    if descriptor.torus_dim == 0:
        off = np.linalg.norm(reduced, axis=1)
        return (1.0 if len(reduced) else 0.0), float(np.max(off)) if len(off) else 0.0
    cells = _torus_cells(reduced, descriptor.torus_coordinate_matrix(lat), eps)
    hits = len(distinct_rows(cells.T))
    # distance off the fiber: orthogonal part, minimized over translates
    proj = descriptor.W.float_complement_projector()
    perp = reduced @ proj.T
    offsets = translates(lat, 2) @ proj.T
    if len(offsets):
        rounded = np.unique(np.round(offsets, 9), axis=0)
        d, _ = min_distance_batch(perp, rounded, np.zeros((1, perp.shape[1])))
    else:
        d = np.linalg.norm(perp, axis=1)
    off_max = float(np.max(d)) if len(d) else 0.0
    k = int(math.ceil(1.0 / eps))
    return hits / (k**descriptor.torus_dim), off_max


def stacked_hit_counts(reduced, cfg, evaluators, per_component):
    """``coverage_check``'s hit counts from one stacked cell table per
    component: base and torus cells side by side, window rows kept by a
    boolean mask, distinct rows counted by ``np.unique``."""
    assign_tol = max(cfg.tolerance, cfg.grid_eps)
    counts = []
    for ev, (d, node_idx) in zip(evaluators, per_component):
        sel = d <= assign_tol
        sub = reduced[sel]
        bcells, in_window = ev.base_cells(sub, node_idx[sel])
        cells = np.hstack([bcells, ev.torus_cells(sub)])[in_window]
        counts.append(len(np.unique(cells, axis=0)))
    return counts


# ---------------------------------------------------------------------------
# Row stages as first written, for bit-for-bit checks of the rewritten ones
# ---------------------------------------------------------------------------


def same_bits(a, b):
    """Whether two arrays have one shape and dtype and the same bytes, so
    that signed zeros and NaN payloads count too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reduce_points_by_matmul(lat, points):
    """``Lattice.reduce_points`` of a lattice of rank >= 1, with ``@``
    products and a fresh array for every step."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    B, solve = lat._floats()
    coords = points @ solve.T
    frac = coords - np.floor(coords)
    span_part = frac @ B
    perp = points - coords @ B
    return span_part + perp, frac, perp


def reduction_residual_by_matmul(lat, points, reduced):
    """``Lattice.reduction_residual`` of a lattice of rank >= 1, with ``@``
    products."""
    diff = np.atleast_2d(points) - np.atleast_2d(reduced)
    B, solve = lat._floats()
    coeffs = diff @ solve.T
    nearest = np.round(coeffs)
    resid = diff - nearest @ B
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def to_internal_by_copy(points, mode):
    """``to_internal`` as a copy: the real parts in real mode, the real and
    imaginary parts written into alternate columns in complex mode."""
    pts = np.atleast_2d(np.asarray(points))
    if mode == "real":
        return np.ascontiguousarray(pts.real.astype(float))
    m, n = pts.shape
    out = np.empty((m, 2 * n), dtype=float)
    out[:, 0::2] = pts.real
    out[:, 1::2] = pts.imag
    return out


def branch_by_complex_powers(branch, t):
    """``ParametricBranch.evaluate`` as first written: each coordinate's
    ``c * t ** e`` summed from zero in complex numbers at float exponents
    e, num / den as a complex quotient, the columns stacked."""
    t = np.asarray(t, dtype=complex)

    def value(poly):
        acc = np.zeros(t.shape, dtype=complex)
        for e, c in poly.terms.items():
            acc = acc + c.to_complex() * t ** float(e)
        return acc

    return np.stack([value(num) / value(den) for num, den in branch.coords], axis=-1)


def stacked_points(text, names, columns, field):
    """The logical points of a vector text at one complex array per name:
    each compiled coordinate broadcast, cast to complex and stacked."""
    compiled = [
        compile_numeric(parse_expr(e), set(names), field)
        for e in split_vector(text.strip())
    ]
    env = dict(zip(names, columns))
    shape = np.shape(columns[0])
    return np.stack(
        [np.broadcast_to(fn(env), shape).astype(complex) for fn in compiled],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# Problem files written back as text
# ---------------------------------------------------------------------------


def normalized_entries(text):
    """(section, key, value) triples of a problem file; the round-trip
    invariant."""
    return [(s, k, v) for s, k, v, _ in _parse_raw(text)]


def serialize(text):
    """A problem file's text rewritten from its entries, top-level keys
    first."""
    entries = _parse_raw(text)
    lines = [f"{key} = {value}" for s, key, value, _ in entries if s == "" and key]
    for section, key, value, _ in entries:
        if section == "":
            continue
        if key is None:
            lines += ["", f"[{section}]"]
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
