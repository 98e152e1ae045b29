"""Exact linear algebra over a number field.

Entries are AlgebraicNumbers.  Functions that need a zero or a one take
their NumberField `dom`, whose `.zero` and `.one` also give empty inputs
well-typed results.

Matrices are lists of row lists; vectors are plain lists.  Dimensions stay
in the single digits, but this layer runs on every `verify`: on the first
64 operations of perfbench's verify-cells workload at seed 3 `rref` runs
5.25 times per operation.  Over Q and on rational pivots the field
arithmetic is a coordinate scale (see AlgebraicNumber.__mul__).

`rref` returns rows in reduced row echelon form: row i has a 1 in column
pivots[i] and a 0 in every other row's pivot column.  lattice.Subspace keeps
its basis in that form and tests membership against it without solving;
lattice.Lattice reads coordinates over its basis from the same form.
"""

from __future__ import annotations


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
        if rows[r][c] != dom.one:
            rows[r] = vec_scale(rows[r], dom.one / rows[r][c])
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
