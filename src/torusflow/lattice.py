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

import functools
import math
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
        return not any(self.residual(v))

    def residual(self, v):
        """v minus the sum of v[p_i] * row_i over the pivots p_i, at the
        other columns, in their order, one entry at a time: zero exactly
        when v is in the subspace, and linear in v, so vectors are
        independent modulo the subspace exactly when their residuals are
        independent."""
        v = [self.field.element(x) for x in v]
        terms = [(v[p], row) for p, row in zip(self.pivots, self.basis) if v[p]]
        for k in range(self.ambient_dim):
            if k not in self.pivots:
                x = v[k]
                for c, row in terms:
                    if row[k]:
                        x = x - c * row[k]
                yield x

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
# Float LLL reduction
# ---------------------------------------------------------------------------

# the Lovasz constant, and the steps after which a reduction gives up
_LLL_DELTA = 0.99
_LLL_MAX_STEPS = 10_000


def _gram_schmidt(vecs):
    """(star, norms): the Gram-Schmidt vectors of independent float rows and
    their squared norms, by modified Gram-Schmidt."""
    star, norms = [], []
    for v in vecs:
        w = v
        for s, n in zip(star, norms):
            w = w - (float(w @ s) / n) * s
        star.append(w)
        norms.append(float(w @ w))
    return star, norms


def lll_reduce(rows):
    """Integer row operations that LLL-reduce independent float rows.

    Returns U, a unimodular integer matrix as a list of rows, with U @ rows
    LLL-reduced (Lenstra, Lenstra and Lovasz, Math. Ann. 1982).  The rows
    must be independent, so that no Gram-Schmidt vector vanishes: which
    lattice vectors project to zero is decided exactly, before the
    reduction (``Lattice.projection``).  After _LLL_MAX_STEPS steps the
    reduction stops and returns the transform it has reached, which is
    unimodular still.
    """
    active = list(zip(np.asarray(rows, dtype=float), _identity(len(rows))))
    i = 1
    for _ in range(_LLL_MAX_STEPS):
        if i >= len(active):
            break
        star, norms = _gram_schmidt([v for v, _ in active[:i]])
        v, u = active[i]
        for j in range(i - 1, -1, -1):
            c = round(float(v @ star[j]) / norms[j])
            if c:
                vj, uj = active[j]
                v = v - c * vj
                u = [a - c * b for a, b in zip(u, uj)]
        active[i] = (v, u)
        proj = [float(v @ s) / n for s, n in zip(star, norms)]
        rest = float(v @ v) - sum(p * p * n for p, n in zip(proj, norms))
        if rest < (_LLL_DELTA - proj[-1] ** 2) * norms[-1]:
            active[i - 1], active[i] = active[i], active[i - 1]
            i = max(i - 1, 1)
        else:
            i += 1
    return [u for _, u in active]


@functools.lru_cache(maxsize=None)
def _neighbour_steps(r):
    """The rows +-e_i and +-e_i +- e_l, i < l, of an int64 array of width r."""
    eye = np.eye(r, dtype=np.int64)
    steps = [eye, -eye]
    for i in range(r):
        for l in range(i + 1, r):
            for s in (1, -1):
                steps += [(eye[i] + s * eye[l])[None], (-eye[i] - s * eye[l])[None]]
    steps = np.concatenate(steps)
    steps.setflags(write=False)
    return steps


class ProjectedLattice:
    """A discrete projection Lambda' of a lattice, in floats, for the
    closest-point searches of the verifier (``Lattice.projection``).

    Its basis rows are ``(U @ B) @ proj.T``, for integer rows U over the
    lattice basis B: ``rows``, moved by the lattice vectors ``kernel``,
    which project to 0, to their shortest lifts (a long lift cancels in the
    projection and loses digits), then LLL-reduced (``lll_reduce``).  A
    point's coordinates over that basis are ``pts @ solve``, and their
    floor its floor-Babai cell (Babai, Combinatorica 1986).  Coordinates
    carry rounding that grows with a point's size, so each point gets a
    slack class (``cells``): class j stands for a slack of 2^(j - 20) in
    coordinates, and class 0 holds every point within about 2^24 shortest
    Gram-Schmidt lengths of the origin.  At rank 0, when Lambda' = 0, every
    class has the one translate 0 and no point moves.
    """

    def __init__(self, rows, kernel, B, proj):
        self.B, self.proj = B, proj
        # the lattice vectors sent to 0, LLL-reduced, and the map that rounds
        # a vector to its nearest combination of them (Babai rounding)
        self.kernel = np.array(kernel, dtype=float).reshape(len(kernel), len(B))
        self.lift = np.zeros((B.shape[1], 0))
        U = np.array(rows, dtype=float).reshape(len(rows), len(B))
        if kernel:
            if len(kernel) > 1:
                found = lll_reduce(self.kernel @ B)
                self.kernel = np.asarray(found, dtype=float) @ self.kernel
            short = self.kernel @ B
            self.lift = short.T @ np.linalg.inv(short @ short.T)
            U = U - np.rint((U @ B) @ self.lift) @ self.kernel
        if len(U) > 1:
            U = np.asarray(lll_reduce((U @ B) @ proj.T), dtype=float) @ U
        self.U = U
        basis = (U @ B) @ proj.T
        self.rank = len(basis)
        self.gram = basis @ basis.T
        # Gram-Schmidt squares beta and coefficients mu (lower triangle)
        star, norms = _gram_schmidt(list(basis))
        self.beta = np.array(norms)
        self.mu = np.array(
            [[float(b @ s) / n for s, n in zip(star, norms)] for b in basis]
        ).reshape(self.rank, self.rank)
        if self.rank:
            self.solve = basis.T @ np.linalg.inv(self.gram)
        else:
            self.solve = np.zeros((proj.shape[0], 0))
        # a point's coordinates are at most its largest entry times this
        shortest = math.sqrt(min(norms)) if self.rank else 1.0
        self.inv_norm = max(float(np.abs(self.solve).sum(axis=0).max(initial=0.0)),
                            1.0 / shortest)
        self._offsets = {}   # slack class -> its translates

    def cells(self, pts, reach):
        """(cells, classes) of the rows of ``pts``: their int64 floor-Babai
        cells, and their slack classes, which grow with a row's largest
        absolute entry plus ``reach``.  A row that is not finite gets cell 0
        and class 0."""
        # np.dot: numpy's matmul is several times slower on a column
        c = np.dot(pts, self.solve)
        top = max(-float(pts.min(initial=0.0)), float(pts.max(initial=0.0)))
        if (top + reach) * self.inv_norm * 2.0**-44 <= 2.0**-20:
            # every entry is finite: a NaN or inf entry makes top NaN or inf
            return np.floor(c).astype(np.int64), np.zeros(len(pts), dtype=np.int64)
        mag = np.zeros(len(pts))
        finite = np.ones(len(pts), dtype=bool)
        for k in range(pts.shape[1]):
            finite &= np.isfinite(pts[:, k])
            mag = np.fmax(mag, np.abs(pts[:, k]))
        for k in range(c.shape[1]):
            finite &= np.isfinite(c[:, k])
        c = np.where(finite[:, None], np.clip(c, -2.0**62, 2.0**62), 0.0)
        need = np.where(finite, (mag + reach) * self.inv_norm * 2.0**-44, 0.0)
        cls = np.zeros(len(pts), dtype=np.int64)
        big = need > 2.0**-20
        cls[big] = np.ceil(np.log2(need[big])).astype(np.int64) + 20
        return np.floor(c).astype(np.int64), cls

    def candidates(self, j, limit):
        """N for slack class j: the integer vectors m that can be nearest to
        a u of the box [-1 - d, 1 + d]^r, d = 2^(j - 20), in Lambda'.  A
        TorusflowError if there are more than ``limit``, or if the first
        test below passes more than 16 times that.

        Fincke-Pohst (Math. Comp. 1985) from the last coordinate: with the
        Gram-Schmidt squares beta and coefficients mu of the basis,
        |(u - m) basis|^2 is the sum over i of beta_i t_i^2, with
        t_i = (u_i + sum_l mu_li u_l) - (m_i + sum_l mu_li m_l) over l > i.
        The first bracket lies within w_i = (1 + d)(1 + sum_l |mu_li|) of
        0 for every u of the box, so the sum of beta_i (|g_i| - w_i)^2 over
        the g_i = m_i + sum_l mu_li m_l past w_i is at most the squared
        distance from m to any u.  Every point lies within sqrt(sum beta) / 2
        of Lambda' (Babai's nearest plane), so m is kept only while that sum
        stays below the square of this radius, with a margin.

        Then m goes when some m - v, for v = +-e_i or +-e_i +- e_l, is
        nearer than m by a margin for every u of the box: with G the Gram
        matrix, |u - m + v|^2 - |u - m|^2 = 2 (u - m) G v + v G v, whose
        largest value over the box is 2 (1 + d) |G v|_1 - 2 m G v + v G v.
        A vector nearest to some u, or tied with the nearest, stays.
        """
        d = 2.0 ** (j - 20)
        r, beta, mu = self.rank, self.beta.tolist(), self.mu.tolist()
        longest = math.sqrt(float(np.diag(self.gram).max(initial=0.0)))
        radius = 0.5 * math.sqrt(sum(beta)) * (1 + 2.0**-20) + d * longest * r
        reach2 = radius * radius
        w = [
            (1 + d) * (1 + sum(abs(mu[l][i]) for l in range(i + 1, r))) * (1 + 2.0**-20)
            for i in range(r)
        ]
        found, m, budget = [], [0] * r, [16 * limit]

        def walk(i, acc):
            s = sum(mu[l][i] * m[l] for l in range(i + 1, r))
            reach = w[i] + math.sqrt(max(reach2 - acc, 0.0) / beta[i])
            for mi in range(math.ceil(-s - reach), math.floor(-s + reach) + 1):
                budget[0] -= 1
                if budget[0] < 0:
                    raise TorusflowError(
                        "the containment search would enumerate more than "
                        f"{16 * limit} lattice points"
                    )
                gap = max(abs(mi + s) - w[i], 0.0)
                a = acc + beta[i] * gap * gap
                if a <= reach2:
                    m[i] = mi
                    if i:
                        walk(i - 1, a)
                    else:
                        found.append(list(m))

        if r:
            walk(r - 1, 0.0)
        else:
            found = [[]]
        parts = np.array(found, dtype=np.int64).reshape(len(found), r)
        if r > 1:
            # at rank 1 the first test leaves the integers nearest to the
            # box alone, unless d is large, and a few extra candidates cost
            # less than this second test
            steps = _neighbour_steps(r)
            gv = steps @ self.gram
            worst = 2 * (1 + d) * np.abs(gv).sum(axis=1) + (steps * gv).sum(axis=1)
            margin = 4.0 * (r + 1) * d * longest * longest
            keep = np.ones(len(parts), dtype=bool)
            for a in range(0, len(parts), 4096):
                loss = worst - 2.0 * (parts[a : a + 4096] @ gv.T)
                keep[a : a + 4096] = (loss >= -margin).all(axis=1)
            parts = parts[keep]
        if len(parts) > limit:
            raise TorusflowError(
                f"the containment search needs {len(parts)} candidate "
                f"translates, more than {limit}"
            )
        return parts

    def offsets(self, j, limit):
        """(T, q): the projected translates (k @ B) @ proj.T that a point of
        slack class j in cell 0 takes against nodes in cell 0: k = m @ U for
        m in N, in the lexicographic order of k, one array per class.  Where
        lattice vectors project to 0, each k is first moved by them to its
        shortest lift k @ B, as Babai rounding finds it: the projection of a
        long lift cancels, and loses digits."""
        if j not in self._offsets:
            k = self.candidates(j, limit) @ self.U
            k = k - np.rint((k @ self.B) @ self.lift) @ self.kernel
            k = np.take(k, np.lexsort(k.T[::-1]), axis=0)
            self._offsets[j] = (k @ self.B) @ self.proj.T
        return self._offsets[j]

    def recentre(self, pts):
        """The rows of ``pts`` moved by the translates of their cells into
        cell 0, up to rounding; rows already in cell 0 are left as they
        are."""
        c = np.dot(pts, self.solve)
        if c.min(initial=0.0) >= 0.0 and c.max(initial=0.0) < 1.0:
            return pts
        cells, _ = self.cells(pts, 0.0)
        moved = np.nonzero(cells.any(axis=1))[0] if self.rank else []
        if not len(moved):
            return pts
        k = np.take(cells, moved, axis=0) @ self.U
        k = k - np.rint((k @ self.B) @ self.lift) @ self.kernel
        out = pts.copy()
        out[moved] -= (k @ self.B) @ self.proj.T
        return out


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
        self._projections = []   # (space, proj, Lattice.projection's result)
        self._widenings = []     # (space, Lattice.widen's result)

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
        # np.dot: numpy's matmul is several times slower on a column (an
        # inner dimension of 1, as on a rank-1 lattice), with the same bits
        coords = np.dot(points, solve.T)
        frac = np.floor(coords)
        np.subtract(coords, frac, out=frac)
        perp = np.dot(coords, B)
        np.subtract(points, perp, out=perp)
        reduced = np.dot(frac, B)
        reduced += perp
        return reduced, frac, perp

    def reduction_residual(self, points, reduced):
        """Max distance of (point - reduced) from the lattice itself."""
        diff = np.atleast_2d(points) - np.atleast_2d(reduced)
        B, solve = self._floats()
        if self.rank == 0:
            return float(np.max(np.abs(diff))) if diff.size else 0.0
        nearest = np.round(np.dot(diff, solve.T))
        diff -= np.dot(nearest, B)
        return float(np.max(np.abs(diff))) if diff.size else 0.0

    def projection(self, space: Subspace, proj):
        """The projection Lambda' of the lattice along ``space``, as a
        ``ProjectedLattice``; ``proj`` holds float rows spanning the
        orthogonal complement of ``space``.

        Lattice vectors must span the intersection of ``space`` with
        span Lambda (``widen``).  The ``Subspace.residual`` rows of the basis
        vectors, in power-basis coordinates over one denominator, are
        integer rows M, with k M = 0 exactly when k B lies in ``space``.  In
        the Hermite form U M = H, the rows of U whose row of H is zero are a
        basis of Lambda cap ``space``, and the others, U being unimodular,
        project onto a basis of Lambda', independent as Lambda cap ``space``
        spans the intersection, so Lambda' is discrete.  Components with the
        same ``space`` and ``proj`` share one result.
        """
        proj = np.asarray(proj, dtype=float)
        for seen, seen_proj, result in self._projections:
            if seen == space and np.array_equal(seen_proj, proj):
                return result
        res = [list(space.residual(b)) for b in self.basis]
        den = lcm(1, *(e.den for v in res for e in v))
        M = [[e.num[k] * (den // e.den) for e in v for k in range(self.field.degree)]
             for v in res]
        H, U = hermite_normal_form(M)
        kernel = [u for u, h in zip(U, H) if not any(h)]
        rows = [u for u, h in zip(U, H) if any(h)]
        result = ProjectedLattice(rows, kernel, self.float_basis(), proj)
        self._projections.append((space, proj, result))
        return result

    def widen(self, space: Subspace):
        """``space`` + W*, W* the smallest Lambda-rational subspace
        containing the intersection of ``space`` with span Lambda: the
        smallest subspace containing ``space`` along which the lattice
        projects to a discrete group.

        The Lambda-coordinates c of the intersection solve sum c_i r_i = 0
        over the ``Subspace.residual`` rows r_i of the basis vectors, and W*
        (``torus_closure``) adds nothing exactly when their canonical basis
        is rational, as it is when ``space`` and the lattice have rational
        bases.  Components with the same ``space`` share one result.
        """
        if all(e.is_rational() for v in space.basis + self.basis for e in v):
            return space
        for seen, wide in self._widenings:
            if seen == space:
                return wide
        res = [list(space.residual(b)) for b in self.basis]
        coords = xl.kernel_basis([list(c) for c in zip(*res)], self.rank, self.field)
        wide = space
        if not all(e.is_rational() for c in coords for e in c):
            inside = Subspace(self.ambient_dim, [
                xl._combination(c, self.basis, self.field) for c in coords
            ], self.field)
            wide = space.sum(torus_closure(inside, self).W)
        self._widenings.append((space, wide))
        return wide

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
