"""Assembly of the limit set: torus closures and base sets.

The limit set of the projected variety decomposes as a finite union of
pieces pi(C) + T, one per asymptotic family base + V, where T is the
compact torus closure of the direction space V and C is the family's base
in the orthogonal complement.  When the smallest Lambda-rational subspace W
strictly contains V, base points are re-projected into the complement of W
so each component is presented canonically; both V and W are recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import exactlinalg as xl
from .errors import InternalInvariantError, SymbolicUnsupported, TorusflowError
from .flats import AffineSet, CurveImage, PointSet, VarietyInput
from .lattice import (
    ClosedSubgroupDescriptor,
    Lattice,
    Subspace,
    is_j_stable,
    torus_closure,
)
from .asymptotics import variety_asymptotic_flats

COMPLEX_THEOREM = "complex_theorem_applies"
REAL_ONLY = "real_only"


def check_span_condition(lat: Lattice) -> str:
    """Whether the real span of the lattice is closed under multiplication by i.

    If it is not, the complex statement does not apply and the engine demotes
    the problem to the real one on R^(2n); the report records the verdict.
    """
    if lat.ambient_dim % 2:
        raise TorusflowError("span condition only makes sense in complex mode")
    return COMPLEX_THEOREM if is_j_stable(lat.span) else REAL_ONLY


def statement_for(X: VarietyInput, lat: Lattice) -> Optional[str]:
    """The statement a problem falls under: None in real mode.

    The complex theorem applies when the lattice span and every affine
    piece's directions are closed under multiplication by i and no branch is
    restricted to rays; otherwise the real (o-minimal) statement on R^(2n)
    does, which puts no condition on the pieces or on Lambda.
    """
    if X.mode != "complex":
        return None
    pieces_complex = all(
        is_j_stable(p.flat.directions) if p.kind == "affine"
        else not (p.kind == "branch" and p.rays)
        for p in X.pieces
    )
    if pieces_complex and check_span_condition(lat) == COMPLEX_THEOREM:
        return COMPLEX_THEOREM
    return REAL_ONLY


@dataclass
class FlowComponent:
    """One piece pi(C) + T of the limit set."""

    base: object                 # PointSet | AffineSet | CurveImage, inside W-perp
    V: Subspace                  # direction space of the family
    torus: Optional[ClosedSubgroupDescriptor]   # None for raw predictions
    dim_C: int                   # dimension in the problem's units
    label: str = ""

    @property
    def effective_span(self) -> Subspace:
        return self.torus.W if self.torus is not None else self.V

    def describe(self):
        d = {
            "C": self.base.describe(),
            "dim_C": self.dim_C,
            "V": [[repr(e) for e in v] for v in self.V.basis],
        }
        if self.torus is not None:
            d["W"] = [[repr(e) for e in v] for v in self.torus.W.basis]
            d["lattice_points"] = [
                [repr(e) for e in v] for v in self.torus.lattice_points
            ]
            d["torus_dim"] = self.torus.torus_dim
        if self.label:
            d["label"] = self.label
        return d

    def sort_key(self):
        base_key = {
            "points": 0,
            "affine": 1,
            "curve": 2,
        }[self.base.kind]
        return (self.effective_span.key(), self.V.key(), base_key)


@dataclass
class FlowDescription:
    """The computed (or predicted) limit set as a list of components."""

    components: list
    lattice: Lattice
    mode: str
    span_condition: Optional[str]
    provenance: str
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def is_empty(self):
        return not self.components

    def describe(self):
        return {
            "mode": self.mode,
            "span_condition": self.span_condition,
            "provenance": self.provenance,
            "components": [c.describe() for c in self.components],
            "diagnostics": self.diagnostics,
        }


def _mode_dim(real_dim, mode, complex_units):
    """Base dimension in the problem's units.

    Complex bases normally have even real dimension; re-projection into the
    complement of a non-J-stable rational closure can break that, in which
    case the odd real dimension rounds up (conservative for the dimension
    clause, which the pre-projection base already satisfied).
    """
    if mode == "complex" and complex_units:
        return (real_dim + 1) // 2
    return real_dim


def _family_component(base, V: Subspace, lat: Lattice, mode,
                      complex_units) -> FlowComponent:
    """The component of the family base + V: its base moved into W-perp,
    where W is the smallest Lambda-rational subspace containing V."""
    tc = torus_closure(V, lat)
    base = base.project(tc.W)
    return FlowComponent(
        base=base,
        V=V,
        torus=tc,
        dim_C=_mode_dim(base.dim, mode, complex_units),
    )


def _base_contained(inner, outer, W: Subspace):
    """Conservative exact containment of base sets modulo W."""
    if isinstance(outer, PointSet):
        targets = outer.points
        hull = W
    elif isinstance(outer, AffineSet):
        targets = [outer.flat.base_point]
        hull = W.sum(outer.flat.directions)
    else:
        return False
    if isinstance(inner, PointSet):
        probes = inner.points
        inner_dirs = []
    elif isinstance(inner, AffineSet):
        probes = [inner.flat.base_point]
        inner_dirs = list(inner.flat.directions.basis)
    else:
        return False
    if not all(hull.contains_vector(v) for v in inner_dirs):
        return False
    return all(
        any(hull.contains_vector(xl.vec_sub(p, q)) for q in targets)
        for p in probes
    )


def _prune_redundant(components):
    """Drop components whose (C, W) is contained in another's.

    Curve bases are never pruned: containment is undecidable at this
    representation level.
    """
    keep = [True] * len(components)
    for i, ci in enumerate(components):
        if isinstance(ci.base, CurveImage):
            continue
        for j, cj in enumerate(components):
            if i == j or not keep[j] or isinstance(cj.base, CurveImage):
                continue
            if not cj.effective_span.contains(ci.effective_span):
                continue
            if _base_contained(ci.base, cj.base, cj.effective_span):
                same = cj.effective_span == ci.effective_span and _base_contained(
                    cj.base, ci.base, ci.effective_span
                )
                if not same or i > j:
                    keep[i] = False
                    break
    return [c for c, k in zip(components, keep) if k]


def flow_set(X: VarietyInput, lat: Lattice) -> FlowDescription:
    """Compute the limit-set decomposition for a symbolic variety.

    A trivial lattice or a bounded variety produces a definite empty result,
    not an error.
    """
    if lat.ambient_dim != X.internal_dim:
        raise TorusflowError("lattice and variety ambient dimensions disagree")
    span_condition = statement_for(X, lat)
    complex_units = span_condition == COMPLEX_THEOREM
    if span_condition == REAL_ONLY and any(
        p.kind == "branch" and not p.rays for p in X.pieces
    ):
        raise SymbolicUnsupported(
            "the real statement applies, and it needs the rays of every "
            "complex branch; declare them as 'branch = rays (…) : (…)'"
        )
    L = lat.span
    families = variety_asymptotic_flats(X, L, complex_flats=complex_units)
    components = [
        _family_component(base, V, lat, X.mode, complex_units)
        for base, V in families
    ]
    components = _prune_redundant(components)
    components.sort(key=FlowComponent.sort_key)

    declared = X.declared_dim
    if X.mode == "complex" and not complex_units:
        declared = 2 * X.declared_dim
    for comp in components:
        if comp.dim_C >= declared:
            raise InternalInvariantError(
                "component dimension reached the variety dimension"
            )
        if not L.contains(comp.V):
            raise InternalInvariantError("component span escaped the lattice span")
    return FlowDescription(
        components=components,
        lattice=lat,
        mode=X.mode,
        span_condition=span_condition,
        provenance="computed_symbolic",
        diagnostics={"family_count": len(families)},
    )


def predicted_flow(components, lat: Lattice, mode, span_condition=None):
    """Wrap user-supplied (C, V) pairs for verification.

    Predictions need no torus certification: the verifier only measures
    distances to C + V + Lambda.  When V does lie in the lattice span the
    torus closure is attached for coverage enumeration.
    """
    comps = []
    for base, V, label in components:
        torus = None
        if lat.span.contains(V):
            torus = torus_closure(V, lat)
            base = base.project(torus.W)
        comps.append(
            FlowComponent(
                base=base,
                V=V,
                torus=torus,
                dim_C=base.dim,
                label=label,
            )
        )
    return FlowDescription(
        components=comps,
        lattice=lat,
        mode=mode,
        span_condition=span_condition,
        provenance="user_supplied_predicted",
    )


def closure_description(X: VarietyInput, flow: FlowDescription):
    """The ``closure`` report: the limit set plus the image of X.

    The image itself is X plus the reduction rule; when the limit set is
    empty the image is closed and the report says so.
    """
    report = {
        "schema_version": 1,
        **flow.describe(),
        "pi_x": {
            "pieces": [
                {"kind": p.kind, "label": getattr(p, "label", p.kind)}
                for p in X.pieces
            ],
            "reduction": "coordinates taken modulo the lattice",
        },
        "pi_x_closed": flow.is_empty,
    }
    if flow.is_empty:
        report["note"] = "flow set is empty; pi(X) is closed"
    return report
