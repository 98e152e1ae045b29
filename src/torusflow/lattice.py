"""Exact lattice algebra: Hermite forms, torus closures, reduction mod Lambda.

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
from .numberfield import NumberField, float_rows


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
        self._orthogonal = None

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        """Is v in the subspace?  In RREF the only candidate combination of
        the basis is the sum of v[p_i] * row_i over the pivots p_i.  It
        equals v at the pivots, so only the other columns are compared."""
        v = [self.field.element(x) for x in v]
        coeffs = [v[p] for p in self.pivots]
        return all(
            sum((c * row[k] for c, row in zip(coeffs, self.basis)), self.field.zero)
            == v[k]
            for k in range(self.ambient_dim)
            if k not in self.pivots
        )

    def complement_part(self, x):
        """x minus its orthogonal projection onto the subspace.

        The projection onto each vector u of an orthogonal basis is
        (x . u / u . u) u; the entries are real, so u . u > 0.  The basis
        comes from Gram-Schmidt on the RREF basis, once per subspace.
        """
        x = [self.field.element(e) for e in x]
        if self._orthogonal is None:
            self._orthogonal = []
            for v in self.basis:
                # v against the u's before it: the Gram-Schmidt step
                u = self.complement_part(v)
                self._orthogonal.append((u, self.field.one / xl.dot(u, u)))
        for u, inv in self._orthogonal:
            x = xl.vec_sub(x, xl.vec_scale(u, xl.dot(x, u) * inv))
        return x

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
        return float_rows(self.basis, self.ambient_dim)

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
        self.rank = len(self.basis)
        # the RREF of [B | I] is [E | S] with S B = E, E the RREF basis of
        # the real span; a pivot past column ambient_dim means B is dependent
        eye = [[field.one if i == j else field.zero for j in range(self.rank)]
               for i in range(self.rank)]
        rows, pivots = xl.rref([b + e for b, e in zip(self.basis, eye)], field)
        if any(p >= ambient_dim for p in pivots):
            raise TorusflowError("lattice basis vectors must be linearly independent")
        # E is in RREF already, so the span's own RREF only copies it
        self.span = Subspace(ambient_dim, [r[:ambient_dim] for r in rows], field)
        self._transform = [r[ambient_dim:] for r in rows]
        self._float_cache = None

    def lambda_coordinates(self, vector):
        """Exact coordinates of a span member over the lattice basis.

        A member v is the sum of v[p_i] E_i over the span's pivots p_i
        (see Subspace.contains_vector), so v is the sum of v[p_i] S_i times B.
        """
        v = [self.field.element(x) for x in vector]
        if not self.span.contains_vector(v):
            raise NotInSpan("vector lies outside the span of the lattice")
        coeffs = [v[p] for p in self.span.pivots]
        return xl._combination(coeffs, self._transform, self.field) if coeffs else []

    # -- numeric helpers -----------------------------------------------------

    def _floats(self):
        if self._float_cache is None:
            if self.rank:
                B = float_rows(self.basis, self.ambient_dim)
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
# Torus closures
# ---------------------------------------------------------------------------


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
    """Closure descriptor of pi(V): the subspace W plus a basis of Lambda cap W.

    In Lambda-coordinates a rational form f vanishes on V exactly when
    R f = 0, where R has one integer row per vector v of V's basis and
    power-basis coordinate k: the k-th numerators of v's entries over the
    lcm of their denominators.  W is cut out by those forms, so in
    Lambda-coordinates W = span R and Lambda cap W = Z^r cap span_Q R.
    """
    if V.dim == 0:
        W = Subspace(lat.ambient_dim, [], lat.field)
        return ClosedSubgroupDescriptor(W, [], [], V)
    field = lat.field
    R = []
    for v in map(lat.lambda_coordinates, V.basis):
        den = lcm(*(e.den for e in v))
        scales = [den // e.den for e in v]
        for k in range(field.degree):
            row = [e.num[k] * s for e, s in zip(v, scales)]
            if any(row):
                R.append(row)
    # the inner kernel is a saturated Z-basis, hence a Q-basis, of ker_Q R,
    # so the outer one is a Z-basis of Z^r cap span_Q R
    coords = int_kernel_basis(int_kernel_basis(R, lat.rank), lat.rank)
    points = [
        xl._combination(map(field.rational, c), lat.basis, field) for c in coords
    ]
    W = Subspace(lat.ambient_dim, points, field)
    return ClosedSubgroupDescriptor(W, points, coords, V)
