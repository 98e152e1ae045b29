"""Problem-description files: parse and validate.

Sectioned key = value text.  Repeated keys accumulate (lattice rows, variety
pieces, predicted components).  Unknown sections or keys are rejected with
their line number.

    schema = 1

    [field]
    min_poly = x^2 - 2
    root = interval (1, 2)

    [space]
    mode = real
    ambient_dim = 2
    declared_dim = 1

    [lattice]
    row = (1, 0)
    row = (0, 1)

    [variety]
    branch = (t, 1/t)

    [verify]
    seed = 42
    count = 10000

Complex fields add `root = rect (re_lo, re_hi) (im_lo, im_hi)` plus `i =` and
`conj =` declarations; complex constants are polynomials in theta.
"""

from __future__ import annotations

import keyword
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import SpecFileError, TorusflowError
from .expressions import (
    compile_numeric,
    eval_branch_coord,
    eval_scalar,
    parse_expr,
    split_vector,
    _const_rational,
    _split_top,
)
from .flats import (
    CurveImage,
    Flat,
    GraphPiece,
    ParametricBranch,
    PointSet,
    VarietyInput,
    embed_exact_vector,
    internal_dim,
    to_internal,
)
from .flow import FlowDescription, predicted_flow, statement_for
from .lattice import Lattice, Subspace, apply_j
from .numberfield import NumberField, rational_factor, rational_root, rationals
from .verifier import SampleConfig

Rat = Fraction

_KNOWN_SECTIONS = {"field", "space", "lattice", "variety", "flow", "verify"}
_KNOWN_KEYS = {
    "": {"schema"},
    "field": {"min_poly", "root", "i", "conj"},
    "space": {"mode", "ambient_dim", "declared_dim"},
    "lattice": {"row"},
    "variety": {"branch", "affine", "graph"},
    "flow": {"component"},
    "verify": {
        "seed",
        "count",
        "radius_min",
        "grid_eps",
        "tolerance",
        "shells",
        "coverage_threshold",
        "window",
        "curve_nodes",
    },
}


def _parse_raw(text):
    """(section, key, value, line) tuples with normalized whitespace."""
    entries = []
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_SECTIONS:
                raise SpecFileError(f"unknown section [{section}]", lineno)
            entries.append((section, None, None, lineno))
            continue
        if "=" not in line:
            raise SpecFileError("expected key = value", lineno)
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS.get(section, set()):
            where = f"[{section}]" if section else "top level"
            raise SpecFileError(f"unknown key {key!r} in {where}", lineno)
        entries.append((section, key, value, lineno))
    return entries


def _entries_of(entries, section):
    return [(k, v, ln) for s, k, v, ln in entries if s == section and k]


def _single(entries, section, key, default=None, required=False):
    found = [(v, ln) for k, v, ln in _entries_of(entries, section) if k == key]
    if not found:
        if required:
            raise SpecFileError(f"missing {key!r} in [{section}]")
        return default
    if len(found) > 1:
        raise SpecFileError(f"duplicate {key!r} in [{section}]", found[1][1])
    return found[0][0]


def _integer(entries, section, key, default=None):
    text = _single(entries, section, key, default, required=default is None)
    try:
        return int(text)
    except ValueError:
        raise SpecFileError(f"{key} must be an integer, got {text!r}")


def _rational_pair(text, what):
    parts = split_vector(text)
    if len(parts) != 2:
        raise SpecFileError(f"{what} needs two rational endpoints")
    return (_const_rational(parse_expr(parts[0])),
            _const_rational(parse_expr(parts[1])))


# its root enclosure is a point, so nothing ever refines it: one Q serves
# every load
_Q = rationals()


def _poly_coeffs(text):
    """Dense rational coefficient list (constant first) of a polynomial in x."""
    import re

    node = parse_expr(re.sub(r"\bx\b", "t", text))
    num, den = eval_branch_coord(node, _Q)
    if len(den.terms) != 1 or Rat(0) not in den.terms:
        raise SpecFileError("min_poly must be a polynomial in x")
    den_c = den.terms[Rat(0)].coords[0]
    coeffs = {}
    for e, c in num.terms.items():
        if e.denominator != 1 or e < 0:
            raise SpecFileError("min_poly must have nonnegative integer powers")
        coeffs[int(e)] = c.coords[0] / den_c
    if not coeffs:
        raise SpecFileError("min_poly is zero")
    out = [Rat(0)] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return out


def _poly_text(p):
    """A monic p (constant first) as min_poly text: [-2, 0, 1] -> 'x^2 - 2'."""
    terms = []
    for k, c in enumerate(p):
        if c:
            power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
            coef = "" if abs(c) == 1 and k else str(abs(c))
            terms.append(("- " if c < 0 else "+ ") + "*".join(filter(None, (coef, power))))
    return " ".join(reversed(terms))[2:]


def _build_field(entries):
    min_poly_text = _single(entries, "field", "min_poly", required=True)
    coeffs = _poly_coeffs(min_poly_text)
    root_text = _single(entries, "field", "root")
    i_text = _single(entries, "field", "i")
    conj_text = _single(entries, "field", "conj")
    root_interval = root_box = None
    if root_text:
        kind, arg = (root_text.split(None, 1) + [""])[:2]
        if kind == "interval":
            root_interval = _rational_pair(arg, "interval")
        elif kind == "rect":
            groups = _vectors_in(arg, "rect root selector")
            if len(groups) != 2:
                raise SpecFileError("malformed rect root selector")
            root_box = tuple(_rational_pair(g, "rect") for g in groups)
        else:
            raise SpecFileError("root must be 'interval (..)' or 'rect (..) (..)'")
    elif len(coeffs) > 2:
        raise SpecFileError("fields of degree > 1 need a root selector")
    if len(coeffs) > 2:
        root = rational_root(coeffs)
        if root is not None:
            raise SpecFileError(
                f"min_poly has the rational root {root}; it must be irreducible"
            )

    # one construction: i and conj are evaluated against the field itself
    # and then installed on it
    field = NumberField(coeffs, root_interval=root_interval, root_box=root_box)
    # below degree 4 a factor would have a rational root
    if field.degree >= 4:
        factor = rational_factor(field.min_poly, field.root_boxes())
        if factor is not None:
            raise SpecFileError(
                f"min_poly has the factor {_poly_text(factor)}; it must be irreducible"
            )
    i_coords = conj_coords = None
    if i_text is not None:
        i_coords = eval_scalar(parse_expr(i_text), field).coords
    if conj_text is not None:
        conj_coords = eval_scalar(parse_expr(conj_text), field).coords
    field.declare_complex_structure(i_coords, conj_coords)
    return field


def _tagged_groups(text, what, tags=("",)):
    """(tag, group) for each top-level parenthesized group of the text, in order.

    A group's tag is the text before it.  Groups are separated by whitespace
    or one comma.  A tag outside ``tags``, or any text after the last group,
    raises SpecFileError("<what>, got <text>").
    """
    groups, depth, start, prev = [], 0, None, 0
    for idx, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = idx
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                tag = text[prev:start].strip()
                if groups and tag.startswith(","):
                    tag = tag[1:].lstrip()
                if tag not in tags:
                    raise SpecFileError(f"{what}, got {tag!r}")
                groups.append((tag, text[start : idx + 1]))
                prev = idx + 1
    if depth != 0:
        raise SpecFileError(f"unbalanced parentheses in {text!r}")
    if text[prev:].strip():
        raise SpecFileError(f"{what}, got {text[prev:].strip()!r}")
    return groups


def _vectors_in(text, what):
    """The parenthesized groups of the text, which holds nothing else."""
    return [group for _, group in _tagged_groups(text, f"{what} takes (…) groups")]


class _SpaceInfo:
    def __init__(self, mode, logical_dim, declared_dim):
        self.mode = mode
        self.logical_dim = logical_dim
        self.declared_dim = declared_dim
        self.internal = internal_dim(logical_dim, mode)


def _embed_logical_vector(text, space, field):
    vec = [eval_scalar(parse_expr(p), field) for p in split_vector(text)]
    if len(vec) != space.logical_dim:
        raise SpecFileError(
            f"vector {text!r} has {len(vec)} coordinates, expected "
            f"{space.logical_dim}"
        )
    return embed_exact_vector(vec, space.mode, field)


def _parse_branch(value, space, field):
    rays = None
    body = value
    if value.startswith("rays"):
        head, _, body = value.partition(":")
        ray_texts = _vectors_in(head[len("rays"):], "rays")
        if not ray_texts:
            raise SpecFileError("rays prefix lists no ray expressions")
        rays = [
            eval_scalar(parse_expr(t[1:-1]), field) for t in ray_texts
        ]
        body = body.strip()
    coords = [
        eval_branch_coord(parse_expr(p), field) for p in split_vector(body)
    ]
    if len(coords) != space.logical_dim:
        raise SpecFileError("branch coordinate count mismatch")
    if space.mode == "real":
        for num, den in coords:
            for poly in (num, den):
                for c in poly.terms.values():
                    if not c.is_real():
                        raise SpecFileError(
                            "real-mode branch has non-real coefficients"
                        )
        if not all(r.is_real() for r in rays or ()):
            raise SpecFileError("real-mode branch has a non-real ray")
    return ParametricBranch(coords, field, rays=rays)


def _parse_affine(value, space, field):
    if not value.startswith("point"):
        raise SpecFileError("affine piece must start with 'point (…)'")
    what = "affine piece must be 'point (…) dirs (…) …'"
    groups = _tagged_groups(value[len("point"):], what, ("", "dirs", "rdirs"))
    if not groups:
        raise SpecFileError("affine piece needs a point vector")
    tags = [tag for tag, _ in groups]
    # only the first direction may carry the dirs/rdirs label
    if tags[0] or any(tags[2:]):
        raise SpecFileError(f"{what}, got {value!r}")
    point = _embed_logical_vector(groups[0][1], space, field)
    use_j = space.mode == "complex" and tags[1:2] != ["rdirs"]
    dir_vectors = []
    for _, g in groups[1:]:
        v = _embed_logical_vector(g, space, field)
        dir_vectors.append(v)
        if use_j:
            dir_vectors.append(apply_j(v))
    return Flat(point, Subspace(space.internal, dir_vectors, field))


def _numeric_vector(text, names, space, field, what):
    """Compile the vector text into a numeric map of the variables ``names``.

    The map takes one complex array per name, all of one shape, and returns
    the logical points, shape + (logical_dim,); constant coordinates are
    broadcast.  Each coordinate is written straight into one float array of
    shape + (internal_dim,): in complex mode through its complex view, which
    the map returns, and in real mode as its real part.  So ``to_internal``
    takes the points without a copy.
    """
    exprs = split_vector(text.strip())
    if len(exprs) != space.logical_dim:
        raise SpecFileError(f"{what} output count mismatch")
    compiled = [compile_numeric(parse_expr(e), set(names), field) for e in exprs]
    complex_mode = space.mode == "complex"

    def point_at(columns):
        env = dict(zip(names, columns))
        out = np.empty(np.shape(columns[0]) + (space.internal,))
        if complex_mode:
            out = out.view(complex)
            for k, fn in enumerate(compiled):
                out[..., k] = fn(env)
        else:
            for k, fn in enumerate(compiled):
                out[..., k] = np.real(fn(env))
        return out

    return point_at


def _variable(name, what):
    """The name as expressions read it: Python's parser normalises names to NFKC."""
    name = unicodedata.normalize("NFKC", name.strip())
    if keyword.iskeyword(name):
        raise SpecFileError(
            f"{what} variable {name!r} is a Python keyword, which expressions "
            "cannot use as a name"
        )
    return name


def _parse_graph(value, space, field):
    head, sep, body = value.partition(":")
    if not sep or not head.strip().startswith("vars"):
        raise SpecFileError("graph piece must look like 'vars x, y : (…)'")
    var_names = [_variable(v, "graph") for v in head.strip()[len("vars"):].split(",")]
    if any(not v.isidentifier() for v in var_names):
        raise SpecFileError("bad graph variable names")
    point_at = _numeric_vector(body, var_names, space, field, "graph")

    def evaluate(vars_matrix):
        vars_matrix = np.atleast_2d(np.asarray(vars_matrix, dtype=complex))
        return point_at(list(vars_matrix.T))

    return GraphPiece(nvars=len(var_names), evaluate=evaluate)


def _parse_span(text, space, field):
    """Entries look like r(…) (real span) or c(…) (complex: J-closed),
    separated by whitespace or one comma."""
    what = "span entries must be r(…) or c(…)"
    groups = _tagged_groups(text, what, ("", "r", "c"))
    vectors = []
    for tag, group in groups:
        v = _embed_logical_vector(group, space, field)
        vectors.append(v)
        if tag == "c":
            if space.mode != "complex":
                raise SpecFileError("c(…) span entries need complex mode")
            vectors.append(apply_j(v))
    return Subspace(space.internal, vectors, field)


def _parse_component(value, space, field):
    parts = _split_top(value, ";")
    base = None
    span = None
    label = ""
    for part in parts:
        if part.startswith("base"):
            base = _parse_base(part[len("base"):].strip(), space, field)
        elif part.startswith("span"):
            span = _parse_span(part[len("span"):].strip(), space, field)
        elif part.startswith("label"):
            label = part[len("label"):].strip()
        elif part:
            raise SpecFileError(f"unknown component clause {part!r}")
    if base is None or span is None:
        raise SpecFileError("component needs both 'base' and 'span' clauses")
    return base, span, label


def _parse_base(text, space, field):
    if text.startswith("point"):
        groups = _vectors_in(text[len("point"):], "point base")
        if not groups:
            raise SpecFileError("point base needs at least one vector")
        pts = [_embed_logical_vector(g, space, field) for g in groups]
        return PointSet(pts, field)
    if text.startswith("affine"):
        return _parse_affine(text[len("affine"):].strip(), space, field)
    if text.startswith("curve"):
        rest = text[len("curve"):].strip()
        head, sep, body = rest.partition(":")
        if not sep:
            raise SpecFileError("curve base must look like 'curve u in (a,b) : (…)'")
        head_parts = head.split()
        if len(head_parts) < 3 or head_parts[1] != "in":
            raise SpecFileError("curve base must look like 'curve u in (a,b) : (…)'")
        var = _variable(head_parts[0], "curve")
        rng_text = head[head.index("in") + 2 :].strip()
        lo, hi = _rational_pair(rng_text, "curve range")
        point_at = _numeric_vector(body, [var], space, field, "curve")
        mode = space.mode

        def sampler(params):
            params = np.asarray(params, dtype=float)
            return to_internal(point_at([params.astype(complex)]), mode)

        return CurveImage(sampler, (float(lo), float(hi)))
    raise SpecFileError(f"unknown base descriptor {text!r}")


@dataclass
class ProblemSpec:
    """A fully built problem instance."""

    lattice: Lattice
    variety: VarietyInput
    predicted: Optional[list]
    sample_config: SampleConfig

    def predicted_flow(self) -> FlowDescription:
        """The [flow] section's components; call only when it has some."""
        return predicted_flow(
            self.predicted,
            self.lattice,
            self.variety.mode,
            statement_for(self.variety, self.lattice),
        )


def parse_problem(text) -> ProblemSpec:
    entries = _parse_raw(text)
    schema = _integer(entries, "", "schema", default="1")
    if schema != 1:
        raise SpecFileError(f"unsupported schema version {schema}")

    field = _build_field(entries)

    mode = _single(entries, "space", "mode", default="real")
    if mode not in ("real", "complex"):
        raise SpecFileError("mode must be real or complex")
    logical_dim = _integer(entries, "space", "ambient_dim")
    declared_dim = _integer(entries, "space", "declared_dim")
    space = _SpaceInfo(mode, logical_dim, declared_dim)

    rows = []
    for key, value, ln in _entries_of(entries, "lattice"):
        try:
            rows.append(_embed_logical_vector(value, space, field))
        except (SpecFileError, TorusflowError) as exc:
            raise SpecFileError(f"bad lattice row: {exc}", ln)
    lattice = Lattice(space.internal, rows, field)

    pieces = []
    for key, value, ln in _entries_of(entries, "variety"):
        try:
            if key == "branch":
                pieces.append(_parse_branch(value, space, field))
            elif key == "affine":
                pieces.append(_parse_affine(value, space, field))
            elif key == "graph":
                pieces.append(_parse_graph(value, space, field))
        except (SpecFileError, TorusflowError) as exc:
            raise SpecFileError(f"bad {key} piece: {exc}", ln)
    if not pieces:
        raise SpecFileError("variety section defines no pieces")
    variety = VarietyInput(
        pieces=pieces,
        logical_dim=logical_dim,
        mode=mode,
        declared_dim=declared_dim,
        field=field,
    )

    predicted = None
    comp_entries = _entries_of(entries, "flow")
    if comp_entries:
        predicted = []
        for key, value, ln in comp_entries:
            try:
                predicted.append(_parse_component(value, space, field))
            except (SpecFileError, TorusflowError) as exc:
                raise SpecFileError(f"bad component: {exc}", ln)

    cfg_kwargs = {}
    int_keys = {"seed", "count", "shells", "curve_nodes"}
    for key, value, ln in _entries_of(entries, "verify"):
        try:
            cfg_kwargs[key] = int(value) if key in int_keys else float(value)
        except ValueError:
            raise SpecFileError(f"bad numeric value for {key!r}", ln)
    sample_config = SampleConfig(**cfg_kwargs)

    return ProblemSpec(
        lattice=lattice,
        variety=variety,
        predicted=predicted,
        sample_config=sample_config,
    )


def load_problem(path) -> ProblemSpec:
    with open(path) as fh:
        text = fh.read()
    return parse_problem(text)
