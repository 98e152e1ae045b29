"""Exact lattice algebra: Hermite forms, rational closures, reduction mod Lambda.

Internally every ambient space is a real coordinate space.  Complex problems
are converted by restriction of scalars before they reach this module, with
coordinates interleaved as (Re z_0, Im z_0, Re z_1, ...); the complex
structure is then the rational matrix J acting by J(re, im) = (-im, re) on
each pair.  All vector entries are AlgebraicNumbers with real embedded value,
so ranks over the scalar field agree with ranks over the reals and the
standard inner product is genuinely positive definite.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from . import exactlinalg as xl
from .errors import InternalInvariantError, NotInSpan, TorusflowError
from .exactlinalg import QQ
from .numberfield import NumberField, rational_coordinates


# ---------------------------------------------------------------------------
# Hermite normal form and integer kernels
# ---------------------------------------------------------------------------


def _exgcd(a, b):
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0.

    When a divides b the pair (x, y) = (sign(a), 0) is returned, so the
    Hermite elimination keeps the pivot row and only reduces the other one.
    The transform U, and with it the bases int_kernel_basis returns, depend
    on that choice.
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


def int_kernel_basis(M, ncols):
    """Basis of the integer solutions of M x = 0.

    With U * M^T = H in Hermite normal form, the rows of U whose row of H is
    zero are integer solutions; since U is unimodular and the nonzero rows of
    H are independent, they are a basis of all of them, hence saturated.
    """
    if not M:
        return _identity(ncols)
    H, U = hermite_normal_form([list(col) for col in zip(*M)])
    return [u for u, h in zip(U, H) if not any(h)]


# ---------------------------------------------------------------------------
# Subspaces over the ambient field
# ---------------------------------------------------------------------------


class Subspace:
    """A linear subspace with a canonical (RREF) basis of exact vectors.

    Row i of the basis has a 1 in its pivot column pivots[i] and a 0 in every
    other row's pivot column.
    """

    def __init__(self, ambient_dim, vectors, field: NumberField):
        self.ambient_dim = ambient_dim
        self.field = field
        vecs = [[field.element(x) for x in v] for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise TorusflowError("subspace vector has wrong length")
        self.basis, self.pivots = xl.rref(vecs, field)

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
    return Subspace(space.ambient_dim, vecs, space.field)


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

    W is the smallest Lambda-rational subspace containing the input V.  It is
    spanned by its lattice points, a basis of Lambda cap W, so its image is
    compact.
    """

    def __init__(self, W: Subspace, lattice_points, lattice_coords, source: Subspace):
        self.W = W
        self.lattice_points = lattice_points
        self.lattice_coords = lattice_coords
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
        # the HNF's pivots are positive and the entries above each pivot lie
        # in [0, pivot), so its top g x g block is unimodular exactly when it
        # is the identity; then U[:g] . Ct = I, which makes D = U[:g]
        if [row[:g] for row in H[:g]] != _identity(g):
            raise InternalInvariantError(
                "lattice points of the torus closure are not saturated"
            )
        return U[:g]

    def torus_coordinate_matrix(self, lat: "Lattice"):
        """(torus_dim, ambient) float map to torus coordinates mod 1."""
        D = self.integer_dual()
        _, solve = lat._floats()
        if not D:
            return np.zeros((0, lat.ambient_dim))
        return np.asarray(D, dtype=float) @ solve

    def __repr__(self):
        return f"ClosedSubgroupDescriptor(torus_dim={self.torus_dim})"


def torus_closure(V: Subspace, lat: Lattice) -> ClosedSubgroupDescriptor:
    """Closure descriptor of pi(V): the subspace W plus a basis of Lambda cap W."""
    if V.dim == 0:
        W = Subspace(lat.ambient_dim, [], lat.field)
        return ClosedSubgroupDescriptor(W, [], [], V)
    field = lat.field
    coord_vectors = [lat.lambda_coordinates(v) for v in V.basis]
    forms = rational_annihilator(coord_vectors, field)
    # the integer kernel of the forms, in Lambda-coordinates, is a basis of
    # Lambda cap W; it has full rank in the rational kernel, so it spans W
    denom = lcm(*(c.denominator for row in forms for c in row))
    coords = int_kernel_basis(
        [[int(c * denom) for c in row] for row in forms], lat.rank
    )
    points = [
        xl._combination(map(field.rational, c), lat.basis, field) for c in coords
    ]
    W = Subspace(lat.ambient_dim, points, field)
    return ClosedSubgroupDescriptor(W, points, coords, V)
