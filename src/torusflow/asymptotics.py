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
    Flat,
    ParametricBranch,
    PointSet,
    TPoly,
    VarietyInput,
    embed_exact_vector,
)
from .lattice import Subspace, j_stable_closure

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

    def divergent_terms(self):
        return [(e, v) for e, v in self.terms if e > 0]

    def constant_term(self):
        for e, v in self.terms:
            if e == 0:
                return v
        return None


def _abs_upper(x):
    return x.enclosure(Rat(1, 1 << 20)).abs_upper()


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


def _coordinate_expansion(num: TPoly, den: TPoly, s: int):
    """Expansion data for one coordinate: terms dict plus remainder bound.

    Long division at infinity on the terms, keyed by the integer exponent
    k = s * e of u = t^(1/s).  Each step, from the numerator's top exponent
    down to the denominator's top exponent ``top``, pops the remainder's top
    term, which cancels exactly, and subtracts its quotient term times the
    denominator's lower terms.  The bound is the one for the polynomials in u
    of num and den times u^(-low), low = min(0, every k of num and den).
    """

    def in_u(poly):
        return {e.numerator * (s // e.denominator): c for e, c in poly.terms.items()}

    rem, lower = in_u(num), in_u(den)
    low = min(0, *rem, *lower)
    top = max(lower)
    lead = lower.pop(top)
    inv_lead = lead.inverse()
    zero = den.field.zero
    terms = {}
    for k in range(max(rem, default=top), top - 1, -1):
        if k in rem:
            c = rem.pop(k) * inv_lead
            terms[Rat(k - top, s)] = c
            for kd, cd in lower.items():
                j = k - top + kd
                r = rem.get(j, zero) - c * cd
                if r.is_zero():
                    del rem[j]
                else:
                    rem[j] = r
    if not rem:
        return terms, RemainderBound(Rat(0), None, Rat(1))
    # each bound may refine the field's shared root enclosure, which the
    # next bound then reads: take them in ascending order of exponent, so
    # the values do not depend on the order of the dict's insertions
    lead_lower = _abs_lower(lead)
    cauchy = Rat(1) + max(
        (_abs_upper(lower[k]) for k in sorted(lower)), default=Rat(0)
    ) / lead_lower
    u0 = max(Rat(1), 2 * cauchy)
    rem_norm = sum((_abs_upper(rem[k]) for k in sorted(rem)), Rat(0))
    C = (Rat(2) ** (top - low)) * rem_norm / lead_lower
    q = Rat(top - max(rem), s)
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
        terms, rb = _coordinate_expansion(numer, denom, s)
        for e, c in terms.items():
            vec = vector_terms.setdefault(e, [field.zero] * n)
            vec[j] = c
        if rb.q is not None:
            bound_C += rb.C
            bound_q = rb.q if bound_q is None else min(bound_q, rb.q)
            bound_t0 = max(bound_t0, rb.t0)
    return ExpansionAtInfinity(
        terms=sorted(vector_terms.items(), key=lambda kv: kv[0], reverse=True),
        remainder=RemainderBound(bound_C, bound_q, bound_t0),
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
    piece: Flat, L: Subspace
) -> Optional[tuple[Flat, Subspace]]:
    """(base, Q): the translates approached by an affine piece, or None.

    The unbounded directions inside L are Q = P intersect L; the base is the
    projection of the piece onto the complement of Q, one flat per base point.
    Under the complex theorem P and L are closed under multiplication by i,
    and so is Q.
    """
    Q = piece.directions.intersect(L)
    if Q.dim == 0:
        return None
    return piece.project(Q), Q


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
                families.setdefault((Q.key(), base.key()), fam)
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
