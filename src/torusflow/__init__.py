"""torusflow: closures of variety images in torus quotients.

Computes, exactly where possible and numerically otherwise, the limit set
("flow set") of a variety projected into R^n/Lambda or C^n/Lambda for a
discrete subgroup Lambda, as a finite union of pieces pi(C) + T with T a
compact torus, and verifies predictions by deterministic far-point sampling.
"""

__version__ = "0.1.0"

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InternalInvariantError,
    NotInSpan,
    ShellStarved,
    SpecFileError,
    SymbolicUnsupported,
    TorusflowError,
)
from .numberfield import AlgebraicNumber, NumberField, rational_coordinates, rationals
from .lattice import (
    ClosedSubgroupDescriptor,
    Lattice,
    Subspace,
    hermite_normal_form,
    integer_relations,
    rational_annihilator,
    rational_closure,
    reduce_mod_lattice,
    smith_normal_form,
    torus_closure,
)
from .flats import (
    AffinePiece,
    AffineSet,
    CurveImage,
    Flat,
    GraphPiece,
    ParametricBranch,
    PointSet,
    VarietyInput,
)
from .asymptotics import (
    ExpansionAtInfinity,
    affine_asymptotic_family,
    expand_at_infinity,
    variety_asymptotic_flats,
)
from .flow import (
    FlowComponent,
    FlowDescription,
    check_span_condition,
    closure_description,
    flow_set,
    predicted_flow,
)
from .verifier import (
    SampleConfig,
    VerificationReport,
    containment_check,
    coverage_check,
    orbit_coverage,
    run_verification,
    sample_far_points,
    shell_stability,
    subspace_orbit,
)
from .specfile import ProblemSpec, load_problem, parse_problem

__all__ = [
    "AlgebraicNumber",
    "NumberField",
    "rationals",
    "rational_coordinates",
    "Lattice",
    "Subspace",
    "ClosedSubgroupDescriptor",
    "hermite_normal_form",
    "smith_normal_form",
    "rational_annihilator",
    "rational_closure",
    "torus_closure",
    "reduce_mod_lattice",
    "integer_relations",
    "Flat",
    "PointSet",
    "AffineSet",
    "CurveImage",
    "ParametricBranch",
    "AffinePiece",
    "GraphPiece",
    "VarietyInput",
    "ExpansionAtInfinity",
    "expand_at_infinity",
    "affine_asymptotic_family",
    "variety_asymptotic_flats",
    "FlowComponent",
    "FlowDescription",
    "flow_set",
    "check_span_condition",
    "closure_description",
    "predicted_flow",
    "SampleConfig",
    "VerificationReport",
    "sample_far_points",
    "containment_check",
    "coverage_check",
    "shell_stability",
    "run_verification",
    "subspace_orbit",
    "orbit_coverage",
    "ProblemSpec",
    "parse_problem",
    "load_problem",
    "TorusflowError",
    "FieldMismatch",
    "DivisionByZero",
    "NotInSpan",
    "SymbolicUnsupported",
    "ShellStarved",
    "SpecFileError",
    "InternalInvariantError",
]
