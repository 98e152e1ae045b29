"""Exact linear algebra over any field whose elements support +, -, *, /.

Works for fractions.Fraction and for AlgebraicNumber alike.  Every function
takes a domain object `dom` exposing `.zero` and `.one` so that empty inputs
still produce well-typed results; a NumberField is such a domain, and QQ
below covers plain rationals.

Matrices are lists of row lists; vectors are plain lists.  Dimensions stay
in the single digits, but this layer runs on every `verify`: on the first
64 operations of perfbench's verify-cells workload at seed 3 `rref` runs
10.2 times per operation.  Over Q and on rational pivots the field
arithmetic is a coordinate scale (see AlgebraicNumber.__mul__).

`rref` returns rows in reduced row echelon form: row i has a 1 in column
pivots[i] and a 0 in every other row's pivot column.  lattice.Subspace keeps
its basis in that form and tests membership against it without solving.
"""

from __future__ import annotations

from fractions import Fraction


class _RationalDomain:
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"


QQ = _RationalDomain()


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]

def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]

def vec_scale(u, c):
    return [a * c for a in u]

def _combination(coeffs, vectors, dom):
    """The vector sum of c * v over paired coefficients and (nonempty) vectors."""
    out = [dom.zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        out = vec_add(out, vec_scale(v, c))
    return out

def dot(u, v):
    acc = None
    for a, b in zip(u, v):
        acc = a * b if acc is None else acc + a * b
    return acc


def rref(rows, dom):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = dom.one / rows[r][c]
        rows[r] = vec_scale(rows[r], inv)
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = vec_sub(rows[i], vec_scale(rows[r], rows[i][c]))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(rows, ncols, dom):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(rows, dom)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [dom.zero] * ncols
        v[f] = dom.one
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def solve(rows, rhs, dom):
    """One exact solution of M x = rhs, or None if inconsistent."""
    if not rows:
        return None if any(b != 0 for b in rhs) else []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, dom)
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [dom.zero] * ncols
    for i, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = red[i][ncols]
    return x


def span_coordinates(vectors, v, dom):
    """Coefficients expressing v over the vectors, or None."""
    if not vectors:
        return [] if all(c == 0 for c in v) else None
    cols = [[vec[j] for vec in vectors] for j in range(len(v))]
    return solve(cols, list(v), dom)


def intersect_spans(a, b, ambient_dim, dom):
    """Vectors spanning span(a) intersected with span(b), not reduced."""
    if not a or not b:
        return []
    # solutions of sum_i s_i a_i - sum_j t_j b_j = 0
    rows = []
    for coord in range(ambient_dim):
        rows.append([u[coord] for u in a] + [-v[coord] for v in b])
    combos = kernel_basis(rows, len(a) + len(b), dom)
    return [_combination(c[: len(a)], a, dom) for c in combos]


def project_onto_span(x, vectors, dom):
    """Orthogonal projection of x onto span(vectors), exactly."""
    if not vectors:
        return [dom.zero] * len(x)
    gram = [[dot(u, v) for v in vectors] for u in vectors]
    rhs = [dot(u, x) for u in vectors]
    return _combination(solve(gram, rhs, dom), vectors, dom)


def project_onto_complement(x, vectors, dom):
    """x minus its orthogonal projection onto span(vectors)."""
    return vec_sub(list(x), project_onto_span(x, vectors, dom))
