"""Exact lattice algebra: normal forms, rational closures, reduction mod Lambda.

Internally every ambient space is a real coordinate space.  Complex problems
are converted by restriction of scalars before they reach this module, with
coordinates interleaved as (Re z_0, Im z_0, Re z_1, ...); the complex
structure is then the rational matrix J acting by J(re, im) = (-im, re) on
each pair.  All vector entries are AlgebraicNumbers with real embedded value,
so ranks over the scalar field agree with ranks over the reals and the
standard inner product is genuinely positive definite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from . import exactlinalg as xl
from .errors import InternalInvariantError, NotInSpan, TorusflowError
from .exactlinalg import QQ
from .numberfield import NumberField, rational_coordinates

Rat = Fraction


# ---------------------------------------------------------------------------
# Integer normal forms
# ---------------------------------------------------------------------------


def _exgcd(a, b):
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0.

    When a divides b the pair (x, y) = (sign(a), 0) is returned, so pivot
    rows stay fixed in the normal-form eliminations; anything else lets the
    clearing passes cycle without progress.
    """
    if a != 0 and b % a == 0:
        s = 1 if a > 0 else -1
        return abs(a), s, 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _rowcombine(A, r, i, a, b, c, d):
    """Rows r, i of A become (a*row_r + b*row_i, c*row_r + d*row_i)."""
    for k in range(len(A[r])):
        x, y = A[r][k], A[i][k]
        A[r][k] = a * x + b * y
        A[i][k] = c * x + d * y


def _colcombine(A, r, j, a, b, c, d):
    for row in A:
        x, y = row[r], row[j]
        row[r] = a * x + b * y
        row[j] = c * x + d * y


def hermite_normal_form(M):
    """Row-style Hermite normal form.

    Returns (H, U) with U*M = H, U unimodular, pivots positive and entries
    above each pivot reduced into [0, pivot).
    """
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    U = _identity(m)
    if m == 0:
        return A, U
    ncols = len(A[0])
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, m):
            if A[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            A[r], A[pivot_row] = A[pivot_row], A[r]
            U[r], U[pivot_row] = U[pivot_row], U[r]
        for i in range(r + 1, m):
            if A[i][c] == 0:
                continue
            a, b = A[r][c], A[i][c]
            g, x, y = _exgcd(a, b)
            _rowcombine(A, r, i, x, y, -(b // g), a // g)
            _rowcombine(U, r, i, x, y, -(b // g), a // g)
        if A[r][c] < 0:
            A[r] = [-v for v in A[r]]
            U[r] = [-v for v in U[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [v - q * w for v, w in zip(A[i], A[r])]
                U[i] = [v - q * w for v, w in zip(U[i], U[r])]
        r += 1
        if r == m:
            break
    return A, U


def smith_normal_form(M):
    """Smith normal form.  Returns (D, U, V) with U*M*V = D, d_i | d_{i+1}."""
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U, V = _identity(m), _identity(n)

    def clear_at(k):
        while True:
            dirty = False
            for i in range(k + 1, m):
                if A[i][k] == 0:
                    continue
                a, b = A[k][k], A[i][k]
                g, x, y = _exgcd(a, b)
                _rowcombine(A, k, i, x, y, -(b // g), a // g)
                _rowcombine(U, k, i, x, y, -(b // g), a // g)
                dirty = True
            for j in range(k + 1, n):
                if A[k][j] == 0:
                    continue
                a, b = A[k][k], A[k][j]
                g, x, y = _exgcd(a, b)
                _colcombine(A, k, j, x, y, -(b // g), a // g)
                _colcombine(V, k, j, x, y, -(b // g), a // g)
                dirty = True
            if not dirty:
                return

    for k in range(min(m, n)):
        # move a nonzero entry of the trailing block to (k, k)
        found = None
        for i in range(k, m):
            for j in range(k, n):
                if A[i][j] != 0:
                    found = (i, j)
                    break
            if found:
                break
        if not found:
            break
        i, j = found
        if i != k:
            A[k], A[i] = A[i], A[k]
            U[k], U[i] = U[i], U[k]
        if j != k:
            for row in A:
                row[k], row[j] = row[j], row[k]
            for row in V:
                row[k], row[j] = row[j], row[k]
        clear_at(k)
        if A[k][k] < 0:
            A[k] = [-v for v in A[k]]
            U[k] = [-v for v in U[k]]

    # enforce the divisibility chain d_k | d_{k+1}
    guard = 0
    changed = True
    while changed:
        changed = False
        guard += 1
        if guard > 16 * (min(m, n) ** 2 + 4):
            raise InternalInvariantError("SNF divisibility fix failed to settle")
        for k in range(min(m, n) - 1):
            a, b = A[k][k], A[k + 1][k + 1]
            if a == 0 and b != 0:
                A[k], A[k + 1] = A[k + 1], A[k]
                U[k], U[k + 1] = U[k + 1], U[k]
                for row in A:
                    row[k], row[k + 1] = row[k + 1], row[k]
                for row in V:
                    row[k], row[k + 1] = row[k + 1], row[k]
                changed = True
                continue
            if a != 0 and b % a != 0:
                # pull b into column k, then re-clear the 2x2 block
                _colcombine(A, k, k + 1, 1, 1, 0, 1)
                _colcombine(V, k, k + 1, 1, 1, 0, 1)
                clear_at(k)
                if A[k][k] < 0:
                    A[k] = [-v for v in A[k]]
                    U[k] = [-v for v in U[k]]
                if A[k + 1][k + 1] < 0:
                    A[k + 1] = [-v for v in A[k + 1]]
                    U[k + 1] = [-v for v in U[k + 1]]
                changed = True
    return A, U, V


def int_kernel_basis(M, ncols):
    """Basis of the integer solutions of M x = 0."""
    if not M:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    D, U, V = smith_normal_form(M)
    nrows = len(M)
    free = []
    for j in range(ncols):
        d = D[j][j] if j < min(nrows, ncols) else 0
        if d == 0:
            free.append(j)
    return [[V[i][j] for i in range(ncols)] for j in free]


def int_det(M):
    """Determinant of a square integer matrix (fraction-free enough for tests)."""
    n = len(M)
    A = [[Rat(x) for x in row] for row in M]
    det = Rat(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if A[r][c] != 0:
                piv = r
                break
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
    if det.denominator != 1:
        raise InternalInvariantError("integer determinant is not integral")
    return int(det)


# ---------------------------------------------------------------------------
# Subspaces over the ambient field
# ---------------------------------------------------------------------------


class Subspace:
    """A linear subspace with a canonical (RREF) basis of exact vectors.

    Row i of the basis has a 1 in its pivot column pivots[i] and a 0 in every
    other row's pivot column.
    """

    def __init__(self, ambient_dim, vectors, field: NumberField,
                 complex_structure: bool = False):
        self.ambient_dim = ambient_dim
        self.field = field
        vecs = [[field.element(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise TorusflowError("subspace vector has wrong length")
        self.basis, self.pivots = xl.rref(vecs, field)
        self.complex_structure = complex_structure

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        """Is v in the subspace?  In RREF the only candidate combination of
        the basis is the sum of v[p_i] * row_i over the pivots p_i."""
        v = [self.field.element(x) for x in v]
        if not self.basis:
            return not any(v)
        coeffs = [v[p] for p in self.pivots]
        return xl._combination(coeffs, self.basis, self.field) == v

    def contains(self, other: "Subspace"):
        return all(self.contains_vector(v) for v in other.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.field == other.field
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash(
            (self.ambient_dim, tuple(tuple(v.coords for v in row) for row in self.basis))
        )

    def key(self):
        """Deterministic sort key built from exact coordinates."""
        return (
            self.dim,
            tuple(tuple(tuple(e.coords) for e in row) for row in self.basis),
        )

    def intersect(self, other: "Subspace"):
        vecs = xl.intersect_spans(self.basis, other.basis, self.ambient_dim, self.field)
        return Subspace(self.ambient_dim, vecs, self.field)

    def sum(self, other: "Subspace"):
        return Subspace(
            self.ambient_dim, list(self.basis) + list(other.basis), self.field
        )

    def float_basis(self):
        return np.array(
            [[e.to_float() for e in row] for row in self.basis], dtype=float
        ).reshape(len(self.basis), self.ambient_dim)

    def float_complement_projector(self):
        """Numeric matrix projecting onto the orthogonal complement."""
        n = self.ambient_dim
        if self.dim == 0:
            return np.eye(n)
        q, _ = np.linalg.qr(self.float_basis().T)
        return np.eye(n) - q @ q.T

    def float_projector(self):
        """Numeric matrix projecting orthogonally onto the subspace."""
        return np.eye(self.ambient_dim) - self.float_complement_projector()

    def __repr__(self):
        return f"Subspace(dim={self.dim} in R^{self.ambient_dim})"


def apply_j(vec):
    """Multiply by i in interleaved restriction-of-scalars coordinates."""
    if len(vec) % 2:
        raise TorusflowError("J needs an even-dimensional ambient space")
    out = []
    for k in range(0, len(vec), 2):
        re, im = vec[k], vec[k + 1]
        out.extend([-im, re])
    return out


def j_stable_closure(space: Subspace) -> Subspace:
    """Smallest J-stable subspace containing the given one."""
    vecs = list(space.basis) + [apply_j(v) for v in space.basis]
    return Subspace(space.ambient_dim, vecs, space.field, complex_structure=True)


def is_j_stable(space: Subspace) -> bool:
    return all(space.contains_vector(apply_j(v)) for v in space.basis)


# ---------------------------------------------------------------------------
# The lattice
# ---------------------------------------------------------------------------


class Lattice:
    """Discrete subgroup given by an exact basis of linearly independent vectors."""

    def __init__(self, ambient_dim, basis_vectors, field: NumberField):
        self.ambient_dim = ambient_dim
        self.field = field
        self.basis = [[field.element(x) for x in v] for v in basis_vectors]
        for v in self.basis:
            if len(v) != ambient_dim:
                raise TorusflowError("lattice vector has wrong length")
        # the real span of the lattice; its RREF also gives the rank
        self.span = Subspace(ambient_dim, self.basis, field)
        if self.span.dim != len(self.basis):
            raise TorusflowError("lattice basis vectors must be linearly independent")
        self.rank = len(self.basis)
        self._float_cache = None

    def lambda_coordinates(self, vector):
        """Exact coordinates of a span member over the lattice basis."""
        v = [self.field.element(x) for x in vector]
        coeffs = xl.span_coordinates(self.basis, v, self.field)
        if coeffs is None:
            raise NotInSpan("vector lies outside the span of the lattice")
        return coeffs

    # -- numeric helpers -----------------------------------------------------

    def _floats(self):
        if self._float_cache is None:
            if self.rank:
                B = np.array(
                    [[e.to_float() for e in row] for row in self.basis], dtype=float
                )
                G = B @ B.T
                solve = np.linalg.solve(G, B)  # rank x ambient; coords = solve @ x
            else:
                B = np.zeros((0, self.ambient_dim))
                solve = np.zeros((0, self.ambient_dim))
            self._float_cache = (B, solve)
        return self._float_cache

    def float_basis(self):
        return self._floats()[0]

    def reduce_points(self, points):
        """Batch reduction of numeric points modulo the lattice.

        Returns (reduced, span_coords, perp_parts): reduced points differ from
        the input by lattice elements and have fundamental-domain coordinates
        in [0, 1); the perpendicular component is untouched.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        B, solve = self._floats()
        if self.rank == 0:
            zeros = np.zeros((len(points), 0))
            return points.copy(), zeros, points.copy()
        coords = points @ solve.T
        frac = coords - np.floor(coords)
        span_part = frac @ B
        perp = points - coords @ B
        return span_part + perp, frac, perp

    def reduction_residual(self, points, reduced):
        """Max distance of (point - reduced) from the lattice itself."""
        diff = np.atleast_2d(points) - np.atleast_2d(reduced)
        B, solve = self._floats()
        if self.rank == 0:
            return float(np.max(np.abs(diff))) if diff.size else 0.0
        coeffs = diff @ solve.T
        nearest = np.round(coeffs)
        resid = diff - nearest @ B
        return float(np.max(np.abs(resid))) if resid.size else 0.0

    def translates(self, coefficient_range):
        """Float array of lattice points with coefficients in [-m, m]^rank."""
        m = int(coefficient_range)
        B = self.float_basis()
        if self.rank == 0:
            return np.zeros((1, self.ambient_dim))
        grids = np.meshgrid(*[np.arange(-m, m + 1)] * self.rank, indexing="ij")
        coeffs = np.stack([g.ravel() for g in grids], axis=1)
        return coeffs @ B

    def __repr__(self):
        return f"Lattice(rank={self.rank} in R^{self.ambient_dim})"


def reduce_mod_lattice(x, lat: Lattice):
    """Fundamental-domain representative of a single numeric vector."""
    reduced, _, _ = lat.reduce_points(np.asarray(x, dtype=float))
    return reduced[0]


# ---------------------------------------------------------------------------
# Rational annihilators and closures
# ---------------------------------------------------------------------------


def rational_annihilator(vectors, field: NumberField):
    """Basis of rational linear forms vanishing on every given vector.

    Each condition f . v = 0 over the field unfolds into one rational
    equation per power-basis coordinate.
    """
    vectors = [[field.element(x) for x in v] for v in vectors]
    if not vectors:
        return []
    m = len(vectors[0])
    rows = []
    for v in vectors:
        if len(v) != m:
            raise TorusflowError("annihilator input vectors differ in length")
        coord_rows = rational_coordinates(v, field)
        for k in range(field.degree):
            row = [coord_rows[j][k] for j in range(m)]
            if any(c != 0 for c in row):
                rows.append(row)
    return xl.kernel_basis(rows, m, QQ)


class ClosedSubgroupDescriptor:
    """Closure of the image of a subspace in the quotient: a compact torus.

    W is the smallest Lambda-rational subspace containing the input V; the
    lattice points of Lambda inside W have full rank in W, which is exactly
    compactness of the image.
    """

    def __init__(self, W: Subspace, lattice_points, lattice_coords, source: Subspace):
        self.W = W
        self.lattice_points = lattice_points
        self.lattice_coords = lattice_coords
        self.source = source
        if len(lattice_points) != W.dim:
            raise InternalInvariantError(
                "torus closure lost compactness: rank(Lambda cap W) != dim W"
            )
        if not W.contains(source):
            raise InternalInvariantError("torus closure does not contain its source")

    @property
    def torus_dim(self):
        return len(self.lattice_points)

    def integer_dual(self):
        """Integer matrix D with D . (Lambda-coords of g_j) = e_j.

        Because Lambda cap W is saturated in Lambda, such a D exists; composed
        with Lambda-coordinates it gives torus coordinates that shift by
        integers under translation by ANY lattice element, so cell indices mod
        one are independent of the chosen fundamental-domain representative.
        """
        g = self.torus_dim
        if g == 0:
            return []
        r = len(self.lattice_coords[0])
        Ct = [[self.lattice_coords[j][i] for j in range(g)] for i in range(r)]
        H, U = hermite_normal_form(Ct)
        H0 = [row[:g] for row in H[:g]]
        if abs(int_det(H0)) != 1:
            raise InternalInvariantError(
                "lattice points of the torus closure are not saturated"
            )
        # the RREF of [H0 | U[:g]] is [I | D] with D = H0^{-1} U[:g], exact
        # over the rationals and then necessarily integral
        aug, _ = xl.rref([H0[i] + U[i] for i in range(g)], QQ)
        D = [row[g:] for row in aug]
        if any(x.denominator != 1 for row in D for x in row):
            raise InternalInvariantError("integer dual has non-integer entries")
        return [[int(x) for x in row] for row in D]

    def torus_coordinate_matrix(self, lat: "Lattice"):
        """(torus_dim, ambient) float map to torus coordinates mod 1."""
        D = self.integer_dual()
        _, solve = lat._floats()
        if not D:
            return np.zeros((0, lat.ambient_dim))
        return np.asarray(D, dtype=float) @ solve

    def __repr__(self):
        return f"ClosedSubgroupDescriptor(torus_dim={self.torus_dim})"


def rational_closure(V: Subspace, lat: Lattice) -> Subspace:
    """Smallest Lambda-rational subspace containing V.

    Minimality holds because the result is cut out by every rational form
    vanishing on V's lattice coordinates.
    """
    return torus_closure(V, lat).W


def torus_closure(V: Subspace, lat: Lattice) -> ClosedSubgroupDescriptor:
    """Closure descriptor of pi(V): the subspace W plus a basis of Lambda cap W."""
    if V.dim == 0:
        W = Subspace(lat.ambient_dim, [], lat.field)
        return ClosedSubgroupDescriptor(W, [], [], V)
    field = lat.field
    coord_vectors = [lat.lambda_coordinates(v) for v in V.basis]
    forms = rational_annihilator(coord_vectors, field)
    # W is spanned by the rational kernel of the forms, Lambda cap W by their
    # integer kernel, both mapped from Lambda-coordinates to the ambient space
    kernel = xl.kernel_basis(forms, lat.rank, QQ)
    W = Subspace(
        lat.ambient_dim,
        [xl._combination(map(field.rational, c), lat.basis, field) for c in kernel],
        field,
    )
    denom = lcm(*(c.denominator for row in forms for c in row))
    coords = int_kernel_basis(
        [[int(c * denom) for c in row] for row in forms], lat.rank
    )
    points = [
        xl._combination(map(field.rational, c), lat.basis, field) for c in coords
    ]
    return ClosedSubgroupDescriptor(W, points, coords, V)


# ---------------------------------------------------------------------------
# Heuristic integer-relation detection (non-certified)
# ---------------------------------------------------------------------------


def _lll(basis, delta=Rat(3, 4)):
    """Textbook LLL over exact rationals; basis rows are integer vectors.

    Gram-Schmidt runs once.  After that the coefficients mu[i][j] =
    <b_i, b*_j> / B_j and the squared norms B_j = <b*_j, b*_j> are updated
    in place on each size reduction and swap (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.3).  A zero b*_j has
    mu[i][j] = 0, so dependent rows give the same result as recomputing
    Gram-Schmidt after every step.
    """
    basis = [[Rat(x) for x in row] for row in basis]
    n = len(basis)
    ortho, mu = [], []
    for i, v in enumerate(basis):
        coeffs = []
        w = list(v)
        for j in range(i):
            denom = xl.dot(ortho[j], ortho[j])
            c = xl.dot(v, ortho[j]) / denom if denom else Rat(0)
            coeffs.append(c)
            w = xl.vec_sub(w, xl.vec_scale(ortho[j], c))
        ortho.append(w)
        mu.append(coeffs)
    B = [xl.dot(w, w) for w in ortho]
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Rat(1, 2):
                # b_k -= q b_j changes row k of mu only; mu[j][j] = 1
                q = round(mu[k][j])
                basis[k] = xl.vec_sub(basis[k], xl.vec_scale(basis[j], Rat(q)))
                for l in range(j):
                    mu[k][l] -= q * mu[j][l]
                mu[k][j] -= q
        m = mu[k][k - 1]
        if B[k] >= (delta - m**2) * B[k - 1]:
            k += 1
            continue
        # swap b_{k-1} and b_k; B[k - 1] > 0 here, else the test above held
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        b_prev, b_k = B[k - 1], B[k]
        B[k - 1] = b_k + m * m * b_prev
        m_new = m * b_prev / B[k - 1] if B[k - 1] else Rat(0)
        B[k] = b_prev * b_k / B[k - 1] if B[k - 1] else b_prev
        mu[k - 1], mu[k] = mu[k][: k - 1], mu[k - 1] + [m_new]
        for i in range(k + 1, n):
            t = mu[i][k]
            u = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + m_new * u
            mu[i][k] = u if B[k] else Rat(0)
        k = max(k - 1, 1)
    return basis


def integer_relations(values, scale_digits=9, max_coeff=10**6):
    """Candidate integer relations among float values via lattice reduction.

    Heuristic and NOT certified: callers must treat the result as a hint and
    verify independently.  Returns integer vectors q with q . values ~ 0.
    """
    m = len(values)
    if m == 0:
        return []
    scale = 10**scale_digits
    rows = []
    for i, v in enumerate(values):
        row = [0] * m + [int(round(v * scale))]
        row[i] = 1
        rows.append(row)
    reduced = _lll(rows)
    relations = []
    for row in reduced:
        q = [int(x) for x in row[:m]]
        tail = abs(float(row[m]))
        if any(q) and tail <= scale * 1e-6 and max(abs(c) for c in q) <= max_coeff:
            resid = abs(sum(c * v for c, v in zip(q, values)))
            if resid <= 1e-5 * max(1.0, max(abs(v) for v in values)):
                relations.append(q)
    return relations
