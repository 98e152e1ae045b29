"""Asymptotic flats of the supported symbolic variety pieces.

A branch coordinate P(t)/Q(t) is expanded by exact long division at
infinity: after substituting u = t^(1/s) to clear fractional exponents,
P = Q*S + R with deg R < deg Q, so the branch splits into exact divergent
terms (positive exponents of S), an exact constant term, and a remainder
R/Q that decays like a negative power with a certified constant.

The flat attached to a branch is (constant term) + span(divergent
coefficient vectors).  Distinct positive exponents make the divergent
monomials independent at scale, so this is the minimal flat the branch
approaches; that assumption is the mathematical core of the module and is
validated numerically by the soundness checks in the test suite.

Only flats whose direction span lies inside L = R*Lambda can matter for the
quotient closure: a branch unbounded transversally to L escapes every
compact window, so such branches are filtered out entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import SymbolicUnsupported, TorusflowError
from .flats import (
    AffinePiece,
    AffineSet,
    Flat,
    ParametricBranch,
    PointSet,
    TPoly,
    VarietyInput,
    embed_exact_vector,
)
from .lattice import Subspace, j_stable_closure
from .numberfield import _pdivmod

Rat = Fraction


@dataclass
class RemainderBound:
    """Certified tail bound: norm of the remainder <= C * t^(-q) for t >= t0."""

    C: Rat
    q: Optional[Rat]  # None means the remainder vanishes identically
    t0: Rat


@dataclass
class ExpansionAtInfinity:
    """Exact expansion of a branch to order t^0 plus a certified remainder."""

    terms: list  # [(exponent: Fraction >= 0, coeff vector: list[AlgebraicNumber])]
    remainder: RemainderBound
    field: object

    def divergent_terms(self):
        return [(e, v) for e, v in self.terms if e > 0]

    def constant_term(self):
        for e, v in self.terms:
            if e == 0:
                return v
        return None


def _tpoly_to_dense(poly: TPoly, s: int):
    """Integer-exponent dense coefficient list after u = t^(1/s), plus shift."""
    if poly.is_zero():
        return [], 0
    exps = [e * s for e in poly.terms]
    for e in exps:
        if e.denominator != 1:
            raise TorusflowError("exponent substitution failed")
    shift = min(0, min(int(e) for e in exps))
    degree = max(int(e) for e in exps) - shift
    coeffs = [poly.field.zero] * (degree + 1)
    for e, c in poly.terms.items():
        coeffs[int(e * s) - shift] = c
    return coeffs, shift


def _abs_upper(x, eps=Rat(1, 1 << 20)):
    return x.enclosure(eps).abs_upper()


def _abs_lower(x):
    """Certified positive lower bound on |x| for a nonzero element."""
    eps = Rat(1, 1 << 10)
    for _ in range(64):
        box = x.enclosure(eps)
        lo_re = max(Rat(0), box.re.lo if box.re.lo > 0 else -box.re.hi)
        lo_im = max(Rat(0), box.im.lo if box.im.lo > 0 else -box.im.hi)
        if lo_re > 0 or lo_im > 0:
            return max(lo_re, lo_im)
        eps = eps / (1 << 8)
    raise TorusflowError("could not bound a coefficient away from zero")


def _coordinate_expansion(num: TPoly, den: TPoly, s: int, field):
    """Expansion data for one coordinate: terms dict plus remainder bound."""
    ncoeffs, nshift = _tpoly_to_dense(num, s)
    dcoeffs, dshift = _tpoly_to_dense(den, s)
    if not dcoeffs:
        raise TorusflowError("branch denominator is identically zero")
    # multiply both by u^k to clear the relative shift
    rel = nshift - dshift
    if rel > 0:
        ncoeffs = [field.zero] * rel + ncoeffs
    elif rel < 0:
        dcoeffs = [field.zero] * (-rel) + dcoeffs
    quot, rem = _pdivmod(ncoeffs, dcoeffs)
    terms = {}
    for k, c in enumerate(quot):
        if c:
            terms[Rat(k, s)] = c
    if not rem:
        return terms, RemainderBound(Rat(0), None, Rat(1))
    m = len(dcoeffs) - 1
    r = len(rem) - 1
    lead_lower = _abs_lower(dcoeffs[-1])
    cauchy = Rat(1) + max(
        (_abs_upper(c) for c in dcoeffs[:-1] if not c.is_zero()), default=Rat(0)
    ) / lead_lower
    u0 = max(Rat(1), 2 * cauchy)
    rem_norm = sum((_abs_upper(c) for c in rem), Rat(0))
    C = (Rat(2) ** m) * rem_norm / lead_lower
    q = Rat(m - r, s)
    t0 = u0**s
    return terms, RemainderBound(C, q, t0)


def expand_at_infinity(branch: ParametricBranch) -> ExpansionAtInfinity:
    """Exact expansion of every coordinate to order t^0.

    Divergent and constant terms are exact; everything decaying is absorbed
    into one certified remainder bound shared by all coordinates.
    """
    field = branch.field
    s = branch.exponent_denominator
    n = len(branch.coords)
    vector_terms = {}
    bound_C = Rat(0)
    bound_q = None
    bound_t0 = Rat(1)
    for j, (numer, denom) in enumerate(branch.coords):
        terms, rb = _coordinate_expansion(numer, denom, s, field)
        for e, c in terms.items():
            vec = vector_terms.setdefault(e, [field.zero] * n)
            vec[j] = c
        if rb.q is not None:
            bound_C += rb.C
            bound_q = rb.q if bound_q is None else min(bound_q, rb.q)
            bound_t0 = max(bound_t0, rb.t0)
    term_list = sorted(vector_terms.items(), key=lambda kv: kv[0], reverse=True)
    term_list = [
        (e, v) for e, v in term_list if any(not c.is_zero() for c in v)
    ]
    return ExpansionAtInfinity(
        terms=term_list,
        remainder=RemainderBound(bound_C, bound_q, bound_t0),
        field=field,
    )


def _branch_flat_for_ray(expansion, ray, mode, complex_flats, field, internal_n, L):
    divergent = []
    for e, vec in expansion.divergent_terms():
        if ray is not None and not (ray == field.one):
            if e.denominator != 1:
                raise TorusflowError("ray analysis needs integer exponents")
            scaled = [c * ray ** int(e) for c in vec]
        else:
            scaled = vec
        divergent.append(embed_exact_vector(scaled, mode, field))
    if not divergent:
        return None
    span = Subspace(internal_n, divergent, field)
    if complex_flats:
        span = j_stable_closure(span)
    if not L.contains(span):
        return None
    const = expansion.constant_term()
    if const is None:
        const = [field.zero] * len(expansion.terms[0][1])
    point = embed_exact_vector(const, mode, field)
    return Flat(point, span)


def branch_asymptotic_flats(branch, L, mode, complex_flats):
    """One flat per ray, or one for a branch without rays (t real under the
    real statement, complex under the complex theorem, where the flat's span
    is closed under i)."""
    expansion = expand_at_infinity(branch)
    internal_n = L.ambient_dim
    field = branch.field
    flats = {}
    for ray in branch.rays or [None]:
        f = _branch_flat_for_ray(
            expansion, ray, mode, complex_flats, field, internal_n, L
        )
        if f is not None:
            flats[f.key()] = f
    return [flats[k] for k in sorted(flats)]


def affine_asymptotic_family(
    piece: AffinePiece, L: Subspace
) -> Optional[tuple[AffineSet, Subspace]]:
    """(base, Q): the translates approached by an affine piece, or None.

    The unbounded directions inside L are Q = P intersect L; the base is the
    projection of the piece onto the complement of Q, one flat per base point.
    Under the complex theorem P and L are closed under multiplication by i,
    and so is Q.
    """
    Q = piece.flat.directions.intersect(L)
    if Q.dim == 0:
        return None
    return AffineSet(piece.flat).project(Q), Q


def variety_asymptotic_flats(
    X: VarietyInput, L: Subspace, complex_flats: bool = False
):
    """(base, V) pairs, one per asymptotic family, deduplicated canonically.

    Each family is the set of translates base + V.  Distinct branch flats
    come first in canonical order, each as a one-point base with its
    direction space; then one pair per distinct affine family, in piece
    order.  Graph pieces are numeric-only and rejected here.
    """
    for piece in X.pieces:
        if piece.kind == "graph":
            raise SymbolicUnsupported(
                "graph pieces have no symbolic asymptotic analysis; "
                "verify against a predicted flow instead"
            )
    branch_flats = {}
    families = {}
    for piece in X.pieces:
        if piece.kind == "branch":
            for f in branch_asymptotic_flats(piece, L, X.mode, complex_flats):
                branch_flats[f.key()] = f
        elif piece.kind == "affine":
            fam = affine_asymptotic_family(piece, L)
            if fam is not None:
                base, Q = fam
                families.setdefault((Q.key(), base.flat.key()), fam)
        else:
            raise SymbolicUnsupported(f"unsupported piece kind {piece.kind!r}")
    out = [
        (PointSet([f.base_point], X.field), f.directions)
        for _, f in sorted(branch_flats.items())
    ]
    out.extend(families.values())
    for _, V in out:
        if not L.contains(V):
            raise TorusflowError("asymptotic family escaped L; internal error")
    return out
