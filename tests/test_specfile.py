"""Problem-file parsing, validation, round-trips."""

import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from torusflow import specfile
from torusflow.errors import SpecFileError
from torusflow.expressions import (
    MAX_DEPTH,
    compile_numeric,
    eval_branch_coord,
    eval_scalar,
    parse_expr,
    split_vector,
)
from torusflow.numberfield import NumberField, rationals
from torusflow.specfile import load_problem, parse_problem

from oracles import normalized_entries, serialize

DINH_VU_FIELD = """\
[field]
min_poly = x^4 + 1
root = rect (1/2, 1) (1/2, 1)
i = theta^2
conj = -theta^3
"""

HYPERBOLA = """\
schema = 1

[field]
min_poly = x

[space]
mode = real
ambient_dim = 2
declared_dim = 1

[lattice]
row = (1, 0)
row = (0, 1)

[variety]
branch = (t, 1/t)
branch = (1/t, t)

[verify]
seed = 42
count = 1000
radius_min = 100
tolerance = 0.01
"""


def _num(q):
    return ("num", F(q))


class TestExpressions:
    def test_rational_literals(self):
        QQ = rationals()
        assert eval_scalar(parse_expr("3/4 - 1/2"), QQ) == F(1, 4)
        assert eval_scalar(parse_expr("0.25"), QQ) == F(1, 4)

    def test_theta_polynomials(self):
        K = NumberField([-2, 0, 1], root_interval=(1, 2))
        v = eval_scalar(parse_expr("theta^2 - 2"), K)
        assert v.is_zero()
        v2 = eval_scalar(parse_expr("(1 + theta)*(1 - theta)"), K)
        assert v2 == -1

    def test_power_right_assoc_negative(self):
        K = NumberField([-2, 0, 1], root_interval=(1, 2))
        v = eval_scalar(parse_expr("theta^-2"), K)
        assert v == F(1, 2)

    def test_i_requires_declaration(self):
        K = NumberField([-2, 0, 1], root_interval=(1, 2))
        with pytest.raises(SpecFileError):
            eval_scalar(parse_expr("i"), K)

    def test_branch_rational_function(self):
        QQ = rationals()
        num, den = eval_branch_coord(parse_expr("(t^2+1)/t"), QQ)
        assert set(num.terms) == {F(2), F(0)}
        assert set(den.terms) == {F(1)}

    def test_branch_fractional_power(self):
        QQ = rationals()
        num, den = eval_branch_coord(parse_expr("t^(3/2)"), QQ)
        assert set(num.terms) == {F(3, 2)}

    def test_numeric_constants_fold_to_the_per_call_values(self):
        K = NumberField([-2, 0, 1], root_interval=(1, 2))
        f = compile_numeric(
            parse_expr("u*exp(i*pi/4) + sqrt(theta)/3"), {"u"}, K
        )
        u = np.array([0.5, -2.0 + 1j])
        theta = K.gen.to_complex()
        expected = u * np.exp(1j * np.pi / complex(4)) + np.sqrt(theta) / complex(3)
        assert np.array_equal(f({"u": u}), expected)

    def test_split_vector_nested(self):
        assert split_vector("(a, (b, c), d)") == ["a", "(b, c)", "d"]

    def test_unbalanced_rejected(self):
        with pytest.raises(SpecFileError):
            parse_expr("(1 + 2")

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("-2^2", ("neg", ("^", _num(2), _num(2)))),
            ("2^3^2", ("^", _num(2), ("^", _num(3), _num(2)))),
            ("t^-2", ("^", ("name", "t"), ("neg", _num(2)))),
            ("a-b-c", ("-", ("-", ("name", "a"), ("name", "b")), ("name", "c"))),
            ("a/b/c", ("/", ("/", ("name", "a"), ("name", "b")), ("name", "c"))),
            ("2**3", ("^", _num(2), _num(3))),
            ("+t", ("name", "t")),
            (".5", _num(F(1, 2))),
            ("7.", _num(7)),
            ("0.1", _num(F(1, 10))),
            ("sqrt(u, 1)", ("call", "sqrt", [("name", "u"), _num(1)])),
            ("  a *\tb ", ("*", ("name", "a"), ("name", "b"))),
        ],
    )
    def test_tree_shapes(self, text, tree):
        # repr tells a Fraction from an int and a list from a tuple
        assert repr(parse_expr(text)) == repr(tree)

    @pytest.mark.parametrize(
        "text",
        [
            "a[1]", "a.b", "a == b", "a < b", "a % b", "a // b", "a & b",
            "a | b", "a << b", "~a", "not a", "(a, b)", "[a]", "True", "None",
            "1j", "'s'", "lambda: 1", "a if b else c", "(a := 1)",
            "f(x=1)", "f(*x)", "f(**x)", "a.f(x)", "f(x)(y)",
            "1e5", "0x10", "1_000", "1.2.3", "", "a b", "p#i", "2(t)",
            "1if t else 2", "in(t)",
        ],
    )
    def test_refused_forms(self, text):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SpecFileError):
                parse_expr(text)
        assert not caught

    def test_leading_zeros_are_read_as_before(self):
        assert parse_expr("007 + 0.05 - 00.5") == parse_expr("7 + 0.05 - 0.5")

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 3000 + "t" + ")" * 3000,
            "-" * 3000 + "t",
            "t" + "^1" * 3000,
            "-" * (MAX_DEPTH + 1) + "t",
            "+".join("t" * (MAX_DEPTH + 1)),
            "1." + "1" * 5000,
            "1" * 5000,
        ],
        ids=["parentheses", "signs", "powers", "signs-past-the-bound",
             "sum-past-the-bound", "long-decimal", "long-integer"],
    )
    def test_deep_or_long_input_is_refused_in_one_line(self, text):
        with pytest.raises(SpecFileError) as info:
            parse_expr(text)
        message = str(info.value)
        assert "\n" not in message and len(message) < 140

    def test_depth_bound_is_inclusive(self):
        assert parse_expr("-" * (MAX_DEPTH - 1) + "t")[0] == "neg"
        assert parse_expr("+".join("t" * MAX_DEPTH))[0] == "+"

    def test_names_are_read_as_nfkc(self):
        assert parse_expr("\u210c") == ("name", "H")


@pytest.mark.parametrize(
    "branch, accepted",
    [
        ("(t^10000, 1/t)", True),
        ("(t^5000, t^(-5000))", True),
        ("(t^10001, 1/t)", False),
        # degrees count in u = t^(1/s), s the branch's exponent denominator
        ("(t^(10001/2), 1/t)", False),
        ("(t^5000 + t^(1/3), 1/t)", False),
    ],
)
def test_branch_degree_bound(branch, accepted):
    text = HYPERBOLA.replace("branch = (t, 1/t)", f"branch = {branch}", 1)
    if accepted:
        parse_problem(text)
    else:
        with pytest.raises(SpecFileError, match="degree above 10000"):
            parse_problem(text)


class TestParsing:
    def test_golden_hyperbola(self):
        spec = parse_problem(HYPERBOLA)
        assert spec.mode == "real"
        assert spec.lattice.rank == 2
        assert len(spec.variety.pieces) == 2
        assert spec.sample_config.seed == 42
        assert spec.sample_config.tolerance == 0.01

    def test_round_trip_identity(self):
        spec = parse_problem(HYPERBOLA)
        text = serialize(spec)
        spec2 = parse_problem(text)
        assert normalized_entries(spec2) == normalized_entries(spec)
        assert serialize(spec2) == text

    def test_unknown_key_rejected_with_line(self):
        bad = HYPERBOLA.replace("count = 1000", "countt = 1000")
        with pytest.raises(SpecFileError) as err:
            parse_problem(bad)
        assert "countt" in str(err.value)
        assert "line" in str(err.value)

    def test_residual_tolerance_key_rejected(self):
        # the knob it set was read by nothing, so the key was dropped
        bad = HYPERBOLA.replace(
            "count = 1000", "count = 1000\nresidual_tolerance = 1e-9"
        )
        with pytest.raises(SpecFileError, match="unknown key 'residual_tolerance'"):
            parse_problem(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(SpecFileError):
            parse_problem(HYPERBOLA + "\n[nonsense]\nfoo = 1\n")

    def test_dimension_mismatch(self):
        bad = HYPERBOLA.replace("row = (1, 0)", "row = (1, 0, 0)")
        with pytest.raises(SpecFileError):
            parse_problem(bad)

    def test_duplicate_scalar_key(self):
        bad = HYPERBOLA + "\n[space]\nmode = real\n"
        with pytest.raises(SpecFileError):
            parse_problem(bad)

    def test_complex_field_declarations(self):
        text = """\
[field]
min_poly = x^4 + 1
root = rect (1/2, 1) (1/2, 1)
i = theta^2
conj = -theta^3

[space]
mode = complex
ambient_dim = 1
declared_dim = 1

[lattice]
row = (1)

[variety]
branch = (t)
"""
        spec = parse_problem(text)
        assert spec.field.is_complex
        assert spec.field.i == spec.field.gen ** 2
        assert spec.lattice.ambient_dim == 2

    def test_complex_lattice_rows_split(self):
        text = """\
[field]
min_poly = x^2 + 1
root = rect (-1/2, 1/2) (1/2, 2)
i = theta
conj = -theta

[space]
mode = complex
ambient_dim = 2
declared_dim = 2

[lattice]
row = (1, 0)
row = (i, 0)

[variety]
affine = point (0, 0) dirs (1, 0) (0, 1)
"""
        spec = parse_problem(text)
        assert spec.lattice.ambient_dim == 4
        B = spec.lattice.float_basis()
        assert np.allclose(B, [[1, 0, 0, 0], [0, 1, 0, 0]])
        # complex affine directions are J-closed: full C^2
        assert spec.variety.pieces[0].flat.directions.dim == 4

    def test_rdirs_keeps_real_span(self):
        text = """\
[field]
min_poly = x^2 + 1
root = rect (-1/2, 1/2) (1/2, 2)
i = theta
conj = -theta

[space]
mode = complex
ambient_dim = 2
declared_dim = 2

[lattice]
row = (1, 0)

[variety]
affine = point (0, 0) rdirs (1, 0)
"""
        spec = parse_problem(text)
        # a real line inside C^2: no J-closure applied
        assert spec.variety.pieces[0].flat.directions.dim == 1

    @pytest.mark.parametrize(
        "old, new",
        [
            ("vars x, y : (x, y, x*y", "vars x, lambda : (x, lambda, x*lambda"),
            ("curve u in (-40, 40) : (0, (-1 + sqrt(1 + 4*u*abs(u)",
             "curve if in (-40, 40) : (0, (-1 + sqrt(1 + 4*if*abs(if)"),
        ],
        ids=["graph", "curve"],
    )
    def test_keyword_variable_refused_where_declared(self, old, new):
        text = open("problems/dinh_vu.tfp").read()
        assert old in text
        with pytest.raises(SpecFileError, match="is a Python keyword"):
            parse_problem(text.replace(old, new, 1))

    def test_variables_are_read_as_nfkc(self):
        text = open("problems/dinh_vu.tfp").read()
        old = "vars x, y : (x, y, x*y*(-theta^3)*(y+1))"
        assert old in text
        # U+210C normalises to H, in the declaration and in the expressions
        new = "vars \u210c, y : (\u210c, y, \u210c*y*(-theta^3)*(y+1))"
        pts = np.array([[1.5 - 2j, 0.25 + 1j], [-3.0, 2j]])
        graph = parse_problem(text).variety.pieces[0]
        renamed = parse_problem(text.replace(old, new, 1)).variety.pieces[0]
        assert np.array_equal(renamed.evaluate(pts), graph.evaluate(pts))


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "name",
        [
            "parabola",
            "hyperbola",
            "plane_cylinder",
            "irrational_direction",
            "dinh_vu",
            "dinh_vu_mutated",
        ],
    )
    def test_parses_and_round_trips(self, name):
        spec = load_problem(f"problems/{name}.tfp")
        again = parse_problem(serialize(spec))
        assert normalized_entries(again) == normalized_entries(spec)
        assert serialize(again) == serialize(spec)

    def test_dinh_vu_structure(self):
        spec = load_problem("problems/dinh_vu.tfp")
        assert spec.mode == "complex"
        assert spec.lattice.ambient_dim == 6
        assert spec.predicted is not None and len(spec.predicted) == 3
        kinds = {base.kind for base, _, _ in spec.predicted}
        assert kinds == {"curve", "points"}
        fd = spec.predicted_flow()
        assert fd.span_condition == "real_only"
        spans = sorted(c.V.dim for c in fd.components)
        assert spans == [4, 4, 5]


class TestFieldBuild:
    def test_dinh_vu_builds_one_field(self, monkeypatch):
        fields, isolations = [], []
        isolate = NumberField._isolate_complex_root

        def counted_isolate(self, rect):
            isolations.append(rect)
            return isolate(self, rect)

        def counted_field(*args, **kwargs):
            fields.append(NumberField(*args, **kwargs))
            return fields[-1]

        monkeypatch.setattr(NumberField, "_isolate_complex_root", counted_isolate)
        # the constructor is looked up on the module, where tracers patch it
        monkeypatch.setattr(specfile, "NumberField", counted_field)
        spec = load_problem("problems/dinh_vu.tfp")
        assert len(isolations) == 1
        assert fields == [spec.field]

    def test_matches_two_step_build(self):
        field = specfile._build_field(specfile._parse_raw(DINH_VU_FIELD))
        coeffs, box = [1, 0, 0, 0, 1], ((F(1, 2), 1), (F(1, 2), 1))
        probe = NumberField(coeffs, root_box=box)
        two_step = NumberField(
            coeffs,
            root_box=box,
            i_coords=eval_scalar(parse_expr("theta^2"), probe).coords,
            conj_coords=eval_scalar(parse_expr("-theta^3"), probe).coords,
        )
        assert field._key == two_step._key
        assert field.i.coords == two_step.i.coords
        assert field._conj_matrix == two_step._conj_matrix
        for k in (1, 2, 3):
            assert (field.gen ** k).to_complex() == (two_step.gen ** k).to_complex()

    @pytest.mark.parametrize(
        "root",
        [
            "rect (1/2, 1)",
            "rect (1/2, 1) x (1/2, 1)",
            "rect (1/2, 1) (1/2, 1) y",
            "rect (1/2, 1) (1/2, 1) (0, 1)",
            "rect (1/2, 1 (1/2, 1)",
        ],
    )
    def test_malformed_rect_rejected(self, root):
        text = DINH_VU_FIELD.replace("rect (1/2, 1) (1/2, 1)", root)
        with pytest.raises(SpecFileError):
            specfile._build_field(specfile._parse_raw(text))

    def test_span_tags(self):
        spec = load_problem("problems/dinh_vu.tfp")
        space = specfile._SpaceInfo("complex", 3, 2)
        span = specfile._parse_span("r(theta, 0, 0) c(0, 1, 0)", space, spec.field)
        assert span.dim == 3
        # entries may be separated by one comma, with or without spaces
        for text in ("r(theta, 0, 0),c(0, 1, 0)", "r(theta, 0, 0) ,c(0, 1, 0)",
                     "r(theta, 0, 0), c(0, 1, 0)"):
            assert specfile._parse_span(text, space, spec.field) == span
        for bad in ("q(1, 0, 0)", "r(1, 0, 0) s(0, 1, 0)",
                    "c(1, 0, 0) junk c(0, 0, 1)", "c(1, 0, 0) c(0, 0, 1) trailing",
                    ",c(1, 0, 0)", "c(1, 0, 0),,c(0, 0, 1)", "junk"):
            with pytest.raises(SpecFileError, match="r\\(…\\) or c\\(…\\)"):
                specfile._parse_span(bad, space, spec.field)
        # the same through a whole problem file
        text = open("problems/dinh_vu.tfp").read()
        ray = "span r(theta, 0, 0) c(0, 1, 0) c(0, 0, 1)"
        assert ray in text
        commas = parse_problem(
            text.replace(ray, "span r(theta, 0, 0),c(0, 1, 0),c(0, 0, 1)")
        )
        assert [c[1] for c in commas.predicted] == [c[1] for c in spec.predicted]
        for bad in ("span r(theta, 0, 0) c(0, 1, 0) junk c(0, 0, 1)",
                    "span r(theta, 0, 0) c(0, 1, 0) c(0, 0, 1) trailing"):
            with pytest.raises(SpecFileError, match="r\\(…\\) or c\\(…\\)"):
                parse_problem(text.replace(ray, bad))


STRAY = [
    ("plane_cylinder", "affine = point (0, 0) dirs (1, 0) (0, 1)",
     "affine = point (0, 0) dirs (1, 0) junk (0, 1) tail"),
    ("plane_cylinder", "affine = point (0, 0) dirs (1, 0) (0, 1)",
     "affine = point junk (0, 0) dirs (1, 0) (0, 1)"),
    ("plane_cylinder", "affine = point (0, 0) dirs (1, 0) (0, 1)",
     "affine = point (0, 0) dirs (1, 0) dirs (0, 1)"),
    ("dinh_vu", "base point (0, 0, 0)", "base point junk (0, 0, 0) more words"),
    ("hyperbola", "branch = (t, 1/t)", "branch = rays (1) junk (-1) : (t, 1/t)"),
]


@pytest.mark.parametrize(
    "name, old, new", STRAY,
    ids=["affine-dirs", "affine-point", "affine-labels", "base-point", "rays"],
)
def test_stray_words_around_vectors_rejected(name, old, new):
    text = open(f"problems/{name}.tfp").read()
    assert old in text
    with pytest.raises(SpecFileError, match="got"):
        parse_problem(text.replace(old, new, 1))


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("plane_cylinder", "dirs (1, 0) (0, 1)", "dirs (1, 0), (0, 1)"),
        ("dinh_vu", "base point (0, 0, 0)", "base point (0, 0, 0) (0, 0, 0)"),
        ("hyperbola", "branch = (t, 1/t)", "branch = rays (1), (-1) : (t, 1/t)"),
    ],
)
def test_vectors_separated_by_whitespace_or_one_comma(name, old, new):
    text = open(f"problems/{name}.tfp").read()
    assert old in text
    parse_problem(text.replace(old, new, 1))
