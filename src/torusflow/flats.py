"""Affine flats, base sets, and the supported variety input classes.

Logical coordinates are the n coordinates the user writes; internally a
complex problem lives in R^(2n) with interleaved (Re, Im) pairs.  Exact
objects (flats, subspaces, coefficient vectors) are always stored in internal
coordinates with real-valued field entries; numeric samplers convert
logical samples to the internal picture with to_internal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import TorusflowError
from .lattice import Subspace
from .numberfield import NumberField, float_rows

Rat = Fraction

# a branch coordinate's exact expansion holds one coefficient per power of
# u = t^(1/s) in its exponent range; 10^4 of them take a closure seconds
MAX_BRANCH_DEGREE = 10**4


# ---------------------------------------------------------------------------
# Coordinate conversions between logical and internal pictures
# ---------------------------------------------------------------------------


def to_internal(points, mode):
    """Logical (m, n) samples -> real (m, N) internal coordinates.

    In complex mode the internal coordinates are the interleaved (Re, Im)
    pairs of a C-ordered complex array, so the result is that array's float
    view: a view of ``points`` themselves when they are one, else of a
    C-ordered complex copy.  In real mode it is the real parts, as C-ordered
    floats, ``points`` themselves when they are such floats already.
    """
    pts = np.atleast_2d(np.asarray(points))
    if mode == "real":
        return np.ascontiguousarray(pts.real, dtype=float)
    return np.ascontiguousarray(pts, dtype=complex).view(float)


def embed_exact_vector(vec, mode, field: NumberField):
    """Logical K-vector -> internal vector with real field entries."""
    elems = [field.element(x) for x in vec]
    if mode == "real":
        for e in elems:
            if not e.is_real():
                raise TorusflowError("real-mode coordinates must be real values")
        return elems
    out = []
    for e in elems:
        out.append(e.real_part())
        out.append(e.imag_part())
    return out


def internal_dim(logical_dim, mode):
    return logical_dim if mode == "real" else 2 * logical_dim


# ---------------------------------------------------------------------------
# Fractional-exponent polynomials in one variable over the field
# ---------------------------------------------------------------------------


class TPoly:
    """Finite sum of c * t^e with exact coefficients and rational exponents."""

    __slots__ = ("terms", "field", "_numeric")

    def __init__(self, field: NumberField, terms=None):
        self.field = field
        self._numeric = None
        self.terms = {}
        if terms:
            for e, c in dict(terms).items():
                c = field.element(c)
                if not c.is_zero():
                    self.terms[Rat(e)] = c

    @staticmethod
    def constant(field, value):
        return TPoly(field, {Rat(0): value})

    @staticmethod
    def variable(field):
        return TPoly(field, {Rat(1): field.one})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, self.field.zero) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return TPoly(self.field, out)

    def __neg__(self):
        return TPoly(self.field, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, self.field.zero) + c1 * c2
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return TPoly(self.field, out)

    def exponent_denominator(self):
        return math.lcm(*(e.denominator for e in self.terms))

    def eval_numeric(self, t):
        """Evaluate at positive real (or complex, if exponents integral) t."""
        t = np.asarray(t)
        if self._numeric is None:
            # terms are fixed after construction; convert them once
            self._numeric = [
                (float(e), c.to_complex()) for e, c in self.terms.items()
            ]
        acc = np.zeros(t.shape, dtype=complex)
        for e, c in self._numeric:
            acc = acc + c * t ** e
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = [f"({c})*t^{e}" for e, c in sorted(self.terms.items(), reverse=True)]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Flats
# ---------------------------------------------------------------------------


class Flat:
    """Affine flat base_point + directions, stored canonically.

    The base point is the orthogonal projection of the given point onto the
    complement of the direction space, so equal point sets get equal
    representations.  A flat serves both as an affine piece of the variety
    and as the base set that such a piece contributes to the flow set.
    """

    kind = "affine"

    def __init__(self, point, directions: Subspace):
        self.directions = directions
        field = directions.field
        pt = [field.element(x) for x in point]
        if len(pt) != directions.ambient_dim:
            raise TorusflowError("flat point has wrong length")
        self.base_point = directions.complement_part(pt)
        self.field = field

    @property
    def ambient_dim(self):
        return self.directions.ambient_dim

    @property
    def dim(self):
        return self.directions.dim

    def key(self):
        return (
            self.directions.key(),
            tuple(tuple(e.coords) for e in self.base_point),
        )

    def __eq__(self, other):
        if not isinstance(other, Flat):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def float_base(self):
        return float_rows([self.base_point], self.ambient_dim)[0]

    def project(self, span: Subspace):
        """The flat's image under the projection onto the complement of span."""
        new_point = span.complement_part(self.base_point)
        new_dirs = [span.complement_part(v) for v in self.directions.basis]
        return Flat(new_point, Subspace(span.ambient_dim, new_dirs, span.field))

    def describe(self):
        return {
            "kind": self.kind,
            "point": [repr(e) for e in self.base_point],
            "directions": [[repr(e) for e in v] for v in self.directions.basis],
        }

    def __repr__(self):
        return f"Flat(dim={self.dim} in R^{self.ambient_dim})"


# ---------------------------------------------------------------------------
# Base-set descriptors (the C pieces of flow components)
# ---------------------------------------------------------------------------


class PointSet:
    """Finite set of exact points."""

    kind = "points"

    def __init__(self, points, field: NumberField):
        self.field = field
        self.points = [[field.element(x) for x in p] for p in points]
        self.points.sort(key=lambda p: tuple(tuple(e.coords) for e in p))

    @property
    def dim(self):
        return 0

    def float_points(self):
        return float_rows(self.points, len(self.points[0]))

    def project(self, span: Subspace):
        pts = [span.complement_part(p) for p in self.points]
        return PointSet(pts, self.field)

    def describe(self):
        return {
            "kind": self.kind,
            "points": [[repr(e) for e in p] for p in self.points],
        }


class CurveImage:
    """Numeric curve base: a parametric sampler into internal coordinates."""

    kind = "curve"

    def __init__(self, sampler: Callable, param_range, projection=None):
        self.sampler = sampler
        self.param_range = (float(param_range[0]), float(param_range[1]))
        self.projection = projection  # optional (matrix) applied to samples

    @property
    def dim(self):
        return 1

    def sample_at(self, params):
        pts = np.atleast_2d(np.asarray(self.sampler(np.asarray(params)), dtype=float))
        if self.projection is not None:
            pts = pts @ self.projection.T
        return pts

    def project(self, span: Subspace):
        proj = span.float_complement_projector()
        if self.projection is not None:
            proj = proj @ self.projection
        return CurveImage(self.sampler, self.param_range, proj)


# ---------------------------------------------------------------------------
# Variety input
# ---------------------------------------------------------------------------


class ParametricBranch:
    """One curve branch with exact rational-function (or power-sum) coordinates.

    Each logical coordinate is a pair (numerator, denominator) of TPoly; the
    branch is followed along real t -> +infinity, or along declared unit rays
    for complex problems (integer exponents only in that case).
    """

    kind = "branch"

    def __init__(self, coords, field: NumberField, rays=None):
        self.field = field
        self.coords = list(coords)
        if any(den.is_zero() for _, den in self.coords):
            raise TorusflowError("branch denominator is identically zero")
        # every exponent becomes an integer after u = t^(1/s)
        self.exponent_denominator = math.lcm(
            *(poly.exponent_denominator() for pair in self.coords for poly in pair)
        )
        s = self.exponent_denominator
        for num, den in self.coords:
            exps = [Rat(0), *num.terms, *den.terms]
            if (max(exps) - min(exps)) * s > MAX_BRANCH_DEGREE:
                raise TorusflowError(
                    "branch coordinate has degree above "
                    f"{MAX_BRANCH_DEGREE} in u = t^(1/s)"
                )
        self.rays = None
        if rays is not None:
            self.rays = [field.element(r) for r in rays]
            if self.exponent_denominator != 1:
                raise TorusflowError(
                    "complex branches with rays need integer exponents"
                )

    @property
    def dim(self):
        return 1

    def evaluate(self, t):
        """Numeric logical coordinates at parameter values t (positive reals)."""
        t = np.asarray(t, dtype=complex)
        cols = []
        for num, den in self.coords:
            cols.append(num.eval_numeric(t) / den.eval_numeric(t))
        return np.stack(cols, axis=-1)


class GraphPiece:
    """Numeric-only graph of a polynomial map; never analyzed symbolically."""

    kind = "graph"

    def __init__(self, nvars, evaluate: Callable):
        self.nvars = nvars
        self.evaluate = evaluate

    @property
    def dim(self):
        return self.nvars


@dataclass
class VarietyInput:
    """The variety X as a finite union of supported pieces."""

    pieces: list
    logical_dim: int
    mode: str
    declared_dim: int
    field: NumberField

    def __post_init__(self):
        if self.mode not in ("real", "complex"):
            raise TorusflowError("mode must be 'real' or 'complex'")
        for piece in self.pieces:
            intrinsic = piece.dim
            if piece.kind == "affine" and self.mode == "complex":
                intrinsic = (intrinsic + 1) // 2
            if intrinsic > self.declared_dim:
                raise TorusflowError(
                    "declared_dim is smaller than a piece's intrinsic dimension"
                )

    @property
    def internal_dim(self):
        return internal_dim(self.logical_dim, self.mode)
