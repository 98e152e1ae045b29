"""Seeded input generators with answers known independently of torusflow.

Every generator is a pure function of ``(seed, op_index)``: the same pair
always yields the same problem text, command arguments and expected answer.
Nothing here imports torusflow, so the expected answers cannot be borrowed
from the engine under test.

* ``unimodular`` -- a random integer matrix of determinant +-1 with small
  entries; used to re-present a lattice by a skewed basis.
* ``verify_cells_op`` -- a golden problem, every other time with a skewed
  basis.  The expected verdict stays PASS: the lattice, and so the limit set,
  does not change with its basis.
* ``verify_curve_op`` -- dinh_vu and the plane-cylinder limit set predicted
  as a curve base (PASS) or as half that curve (FAIL).
* ``cells_defect_op``, ``curve_defect_op`` -- inputs on which torusflow is
  known to answer wrongly now and then (hyperbola on a skewed basis,
  dinh_vu_mutated); they are kept out of the timed loop and run as a fixed
  number of operations after it.
* ``closure_exact_op`` -- a symbolic problem whose expected torus dimensions
  are computed here by exact rational rank.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

MAX_BASIS_ENTRY = 10


@dataclass(frozen=True)
class Op:
    """One operation: a problem file to write, a CLI call, its known answer.

    ``expect_exit`` is the documented exit code.  For ``verify``,
    ``expect_passed`` is the report's verdict and ``expect_containment`` (if
    not None) its containment verdict; for ``closure``, ``expect_torus_dims``
    is the sorted list of component torus dimensions.
    """

    kind: str
    name: str
    spec_text: str
    seed_arg: Optional[int]
    expect_exit: int
    expect_passed: Optional[bool] = None
    expect_containment: Optional[bool] = None
    expect_torus_dims: Optional[tuple] = None

    def argv(self, path):
        argv = [self.kind, path]
        if self.seed_arg is not None:
            argv += ["--seed", str(self.seed_arg)]
        return argv


def op_rng(workload, seed, index):
    """The random stream of one operation; string seeds hash stably."""
    return random.Random(f"{workload}/{seed}/{index}")


# ---------------------------------------------------------------------------
# Exact rational helpers
# ---------------------------------------------------------------------------


def rational_rank(rows):
    """Rank over Q of a list of rational row vectors (Gaussian elimination)."""
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def unimodular(rng, n, bound=MAX_BASIS_ENTRY):
    """Random n x n integer matrix with det +-1 and entries in [-bound, bound].

    Built from elementary row operations, each kept only while every entry
    stays within the bound, then random row signs.
    """
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(rng.randint(n, 4 * n)):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            row = [a + c * b for a, b in zip(m[i], m[j])]
            if max(abs(x) for x in row) <= bound:
                m[i] = row
    for row in m:
        if rng.random() < 0.5:
            row[:] = [-x for x in row]
    return m


def _vec(entries):
    return "(" + ", ".join(str(x) for x in entries) + ")"


# ---------------------------------------------------------------------------
# verify-cells: golden problems, every other one with a skewed basis
# ---------------------------------------------------------------------------

# Sorted by latency the kinds are parabola < hyperbola < irrational_direction
# < plane_cylinder.  With 6/20/5/1 per cycle of 32, p50 falls in the middle
# of the hyperbola operations and p90 in the middle of the
# irrational_direction ones, not on a gap between two kinds, where a few
# slow or fast operations would move it far.  The plane_cylinder operation
# takes about 30% of the run's time.
CELLS_CYCLE = (
    "parabola", "hyperbola", "hyperbola", "irrational_direction", "hyperbola",
    "hyperbola", "parabola", "hyperbola", "hyperbola", "irrational_direction",
    "hyperbola", "hyperbola", "parabola", "hyperbola", "hyperbola",
    "plane_cylinder", "hyperbola", "hyperbola", "irrational_direction",
    "parabola", "hyperbola", "hyperbola", "hyperbola", "irrational_direction",
    "hyperbola", "parabola", "hyperbola", "hyperbola", "irrational_direction",
    "hyperbola", "parabola", "hyperbola",
)
# hyperbola on a skewed basis FAILs containment on about 1 basis in 40
NEVER_SKEWED = ("hyperbola",)

_LATTICE_ROWS = re.compile(r"(\[lattice\]\n)((?:row = .*\n)+)")


def lattice_rows(text):
    """Integer lattice rows of a golden problem file."""
    block = _LATTICE_ROWS.search(text).group(2)
    return [
        [int(x) for x in line[line.index("(") + 1 : line.rindex(")")].split(",")]
        for line in block.splitlines()
    ]


def with_lattice_rows(text, rows):
    body = "".join(f"row = {_vec(r)}\n" for r in rows)
    return _LATTICE_ROWS.sub(lambda m: m.group(1) + body, text, count=1)


def skewed(text, rng):
    """The problem with its lattice basis changed by a random unimodular U."""
    rows = lattice_rows(text)
    u = unimodular(rng, len(rows))
    new_rows = [
        [sum(u[i][k] * rows[k][j] for k in range(len(rows)))
         for j in range(len(rows[0]))]
        for i in range(len(rows))
    ]
    return with_lattice_rows(text, new_rows)


def verify_cells_op(golden, seed, index):
    """Golden ``verify``; odd positions (alternating per cycle) get a skew,
    except for the problems in ``NEVER_SKEWED``.

    ``golden`` maps problem name to file text.  The problem files keep their
    own ``[verify]`` settings; only ``--seed`` and the basis change.
    """
    name = CELLS_CYCLE[index % len(CELLS_CYCLE)]
    rng = op_rng("verify-cells", seed, index)
    text = golden[name]
    if (index + index // len(CELLS_CYCLE)) % 2 == 1 and name not in NEVER_SKEWED:
        text = skewed(text, rng)
        name += "+skew"
    return Op(
        kind="verify",
        name=name,
        spec_text=text,
        seed_arg=rng.randrange(1, 2**31),
        expect_exit=0,
        expect_passed=True,
    )


# ---------------------------------------------------------------------------
# verify-curve: curve-based predictions
# ---------------------------------------------------------------------------

# Sorted by latency: dinh_vu < cylinder_curve < cylinder_half_curve.  With
# 1/3/1 per cycle, p50 falls in the middle of the cylinder_curve operations
# and p90 in the middle of the cylinder_half_curve ones.
CURVE_CYCLE = (
    "cylinder_curve",
    "dinh_vu",
    "cylinder_curve",
    "cylinder_half_curve",
    "cylinder_curve",
)

CURVE_VERIFY = """
[verify]
seed = 3
count = 6000
radius_min = 100
tolerance = 0.01
grid_eps = 0.2
coverage_threshold = 0.95
window = 10
shells = 4
curve_nodes = 4000
"""


def cylinder_curve_text(plane_cylinder_text, hi):
    """plane_cylinder's variety with the curve (0, u), u in (-10, hi), as C.

    With hi = 10 this is the whole in-window limit set (the window is 10),
    so it must PASS; with hi = 0 samples with y > 0 are far from it and
    containment must FAIL.
    """
    head = plane_cylinder_text.split("[verify]")[0].rstrip() + "\n"
    flow = (
        "\n[flow]\n"
        f"component = base curve u in (-10, {hi}) : (0, u) ; span r(1, 0)\n"
    )
    return head + flow + CURVE_VERIFY


def verify_curve_op(golden, seed, index):
    name = CURVE_CYCLE[index % len(CURVE_CYCLE)]
    rng = op_rng("verify-curve", seed, index)
    seed_arg = rng.randrange(1, 2**31)
    if name == "dinh_vu":
        return Op("verify", name, golden[name], seed_arg, 0, True)
    half = name == "cylinder_half_curve"
    text = cylinder_curve_text(golden["plane_cylinder"], 0 if half else 10)
    if half:
        return Op("verify", name, text, seed_arg, 5, False, False)
    return Op("verify", name, text, seed_arg, 0, True, True)


# ---------------------------------------------------------------------------
# Known wrong answers, run untimed after the timed loop
# ---------------------------------------------------------------------------


def cells_defect_op(golden, seed, index):
    """hyperbola on a skewed basis: PASS is right, torusflow sometimes FAILs
    containment, because its numeric check depends on the lattice basis."""
    rng = op_rng("verify-cells-defect", seed, index)
    text = skewed(golden["hyperbola"], rng)
    return Op("verify", "hyperbola+skew", text, rng.randrange(1, 2**31), 0, True)


def curve_defect_op(golden, seed, index):
    """dinh_vu_mutated: FAIL is right, torusflow PASSes it on about 1 seed in
    70, because only a handful of its samples fall in the window."""
    rng = op_rng("verify-curve-defect", seed, index)
    name = "dinh_vu_mutated"
    return Op("verify", name, golden[name], rng.randrange(1, 2**31), 5, False)


# ---------------------------------------------------------------------------
# closure-exact: generated symbolic problems with known torus dimensions
# ---------------------------------------------------------------------------

# (min_poly, root selector, degree); theta is the selected real root
FIELDS = (
    ("x", None, 1),
    ("x^2 - 2", "interval (1, 2)", 2),
    ("x^4 - 10*x^2 + 1", "interval (3, 4)", 4),
)
CLOSURE_DIMS = tuple(range(2, 9))
CLOSURE_CYCLE = tuple((n, f) for n in CLOSURE_DIMS for f in range(len(FIELDS)))
EXPONENTS = ("1/2", "1", "3/2", "2")


def _field_poly(coeffs):
    """Polynomial in theta from power-basis coefficients, or None if zero."""
    terms = []
    for d, c in enumerate(coeffs):
        if c == 0:
            continue
        mono = "" if d == 0 else ("theta" if d == 1 else f"theta^{d}")
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        elif c == -1:
            terms.append(f"-{mono}")
        else:
            terms.append(f"{c}*{mono}")
    return " + ".join(terms).replace("+ -", "- ") if terms else None


def _rat(q):
    return f"({q.numerator}/{q.denominator})"


def _coefficient_matrix(rng, k, degree):
    """k x degree integer matrix of a random target rank (exactly checked)."""
    target = rng.randint(1, min(k, degree))
    while True:
        left = [[rng.randint(-3, 3) for _ in range(target)] for _ in range(k)]
        right = [[rng.randint(-3, 3) for _ in range(degree)] for _ in range(target)]
        a = [
            [sum(left[m][t] * right[t][d] for t in range(target))
             for d in range(degree)]
            for m in range(k)
        ]
        if rational_rank(a) == target:
            return a


def expected_torus_dims(spans, consts, n):
    """Sorted torus dimensions of the minimal union of pi(c_i + W_i).

    ``spans[i]`` are ambient rational vectors spanning W_i, the smallest
    lattice-rational subspace containing the branch direction, so
    dim W_i = rank.  Component i is dropped when some other kept component
    j has W_i inside W_j and c_i - c_j in W_j (equal pairs keep the first).
    """
    dims = [rational_rank(s) for s in spans]

    def contains(j, vectors):
        return rational_rank(spans[j] + vectors) == dims[j]

    keep = [True] * len(spans)
    for i in range(len(spans)):
        for j in range(len(spans)):
            if i == j or not keep[j] or not contains(j, spans[i]):
                continue
            diff = [a - b for a, b in zip(consts[i], consts[j])]
            if contains(j, [diff]):
                mutual = dims[i] == dims[j]
                if not mutual or i > j:
                    keep[i] = False
                    break
    return tuple(sorted(d for d, k in zip(dims, keep) if k))


def closure_exact_op(seed, index):
    """A real branch problem over Q, Q(sqrt 2) or Q(sqrt 2 + sqrt 3).

    Each branch is t^r * v + c/t + const with v = sum_m a_m b_m inside the
    lattice span (a_m in the field, b_m lattice rows).  Writing a_m in the
    power basis gives a rational k x degree matrix A; the torus closure of
    R*v has dimension rank_Q(A), and W is spanned by the vectors
    sum_m A[m][d] b_m.
    """
    n, field_idx = CLOSURE_CYCLE[index % len(CLOSURE_CYCLE)]
    min_poly, root, degree = FIELDS[field_idx]
    rng = op_rng("closure-exact", seed, index)
    u = unimodular(rng, n)
    k = n if rng.random() < 0.5 else rng.randint(1, n - 1)
    basis = u[:k]

    branches, spans, consts = [], [], []
    for _ in range(rng.randint(1, 3)):
        a = _coefficient_matrix(rng, k, degree)
        # coordinate i of v in the power basis: sum_m A[m][d] * b_m[i]
        v = [
            [sum(a[m][d] * basis[m][i] for m in range(k)) for d in range(degree)]
            for i in range(n)
        ]
        spans.append(
            [[sum(a[m][d] * basis[m][i] for m in range(k)) for i in range(n)]
             for d in range(degree)]
        )
        r = rng.choice(EXPONENTS)
        decay = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
        const = [Fraction(rng.randint(-10**4, 10**4), 1009) for _ in range(n)]
        consts.append(const)
        coords = []
        for i in range(n):
            parts = []
            lead = _field_poly(v[i])
            if lead is not None:
                parts.append(f"({lead})*t^({r})")
            if decay[i]:
                parts.append(f"{_rat(decay[i])}/t")
            parts.append(_rat(const[i]))
            coords.append(" + ".join(parts))
        branches.append("branch = (" + ", ".join(coords) + ")")

    field_lines = f"min_poly = {min_poly}\n"
    if root is not None:
        field_lines += f"root = {root}\n"
    text = (
        "schema = 1\n\n[field]\n" + field_lines
        + f"\n[space]\nmode = real\nambient_dim = {n}\ndeclared_dim = 1\n"
        + "\n[lattice]\n" + "".join(f"row = {_vec(b)}\n" for b in basis)
        + "\n[variety]\n" + "\n".join(branches) + "\n"
    )
    return Op(
        kind="closure",
        name=f"n{n}-deg{degree}-rank{k}",
        spec_text=text,
        seed_arg=None,
        expect_exit=0,
        expect_torus_dims=expected_torus_dims(spans, consts, n),
    )
