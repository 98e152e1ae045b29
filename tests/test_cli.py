"""CLI subcommands, exit codes, report files."""

import json
import re
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_golden import GAUSSIAN
from torusflow import cli
from torusflow.cli import main
from torusflow.errors import InternalInvariantError, TorusflowError


@pytest.fixture()
def workdir(tmp_path):
    for name in (
        "parabola",
        "hyperbola",
        "dinh_vu",
        "dinh_vu_mutated",
    ):
        shutil.copy(f"problems/{name}.tfp", tmp_path / f"{name}.tfp")
    return tmp_path


class TestClosure:
    def test_hyperbola(self, workdir, capsys):
        spec = str(workdir / "hyperbola.tfp")
        assert main(["closure", spec]) == 0
        out = capsys.readouterr().out
        assert "components: 2" in out
        payload = json.loads(open(spec + ".closure.json").read())
        assert payload["schema_version"] == 1
        assert len(payload["components"]) == 2
        for comp in payload["components"]:
            assert {"C", "V", "W", "lattice_points", "dim_C"} <= set(comp)

    def test_parabola_closed(self, workdir, capsys):
        spec = str(workdir / "parabola.tfp")
        assert main(["closure", spec]) == 0
        out = capsys.readouterr().out
        assert "components: 0" in out
        assert "closed" in out
        payload = json.loads(open(spec + ".closure.json").read())
        assert payload["pi_x_closed"] is True

    def test_graph_unsupported(self, workdir, capsys):
        spec = str(workdir / "dinh_vu.tfp")
        assert main(["closure", spec]) == 3
        err = capsys.readouterr().err
        assert "verify" in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tfp"
        bad.write_text("[field]\nmin_poly = x\nbogus = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["closure", str(bad)])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["closure", "/nonexistent.tfp"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["closure", "verify", "sample"])
@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_problem_file_exits_with_one_line(tmp_path, capsys, command, kind):
    spec = tmp_path / "bad.tfp"
    if kind == "directory":
        spec.mkdir()
    else:
        spec.write_bytes(b"schema = 1\n# caf\xe9\n")
    out = tmp_path / "s.csv"
    argv = [command, str(spec)] + (["--out", str(out)] if command == "sample" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {spec}: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["closure", "verify", "sample"])
def test_unwritable_output_exits_with_one_line(workdir, capsys, command):
    # closure's JSON and verify's report onto a directory, sample's CSV
    # into a directory that does not exist
    spec = str(workdir / "hyperbola.tfp")
    if command == "closure":
        argv, target = ["closure", spec, "--json", str(workdir)], str(workdir)
    elif command == "verify":
        target = spec + ".report.json"
        Path(target).mkdir()
        argv = ["verify", spec]
    else:
        target = str(workdir / "missing" / "s.csv")
        argv = ["sample", spec, "--out", target]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1


class TestVerify:
    def test_hyperbola_passes(self, workdir, capsys):
        spec = str(workdir / "hyperbola.tfp")
        assert main(["verify", spec]) == 0
        report = json.loads(open(spec + ".report.json").read())
        assert report["passed"] is True
        assert report["max_containment_distance"] <= 0.01

    def test_mutated_prediction_fails(self, workdir, capsys):
        spec = str(workdir / "dinh_vu_mutated.tfp")
        assert main(["verify", spec]) == 5
        report = json.loads(open(spec + ".report.json").read())
        assert report["passed"] is False
        assert report["max_containment_distance"] > 0.05

    def test_dinh_vu_passes(self, workdir):
        spec = str(workdir / "dinh_vu.tfp")
        assert main(["verify", spec]) == 0

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_complex_branch_covers_its_torus(self, tmp_path, seed):
        # t = |t| e^(i phi) reaches the whole 2-torus of Z[i]; t on the
        # positive real axis alone covered 5% of it
        spec = tmp_path / "gaussian.tfp"
        spec.write_text(GAUSSIAN)
        argv = ["verify", str(spec)] + ([] if seed is None else ["--seed", str(seed)])
        assert main(argv) == 0
        report = json.loads(open(str(spec) + ".report.json").read())
        assert report["passed"] is True
        assert min(report["coverage"]) >= 0.95

    def test_overrides(self, workdir):
        spec = str(workdir / "hyperbola.tfp")
        assert main(["verify", spec, "--count", "500", "--seed", "1"]) == 0
        report = json.loads(open(spec + ".report.json").read())
        assert report["config"]["count"] == 500
        assert report["config"]["seed"] == 1

    def test_graph_without_prediction(self, workdir, tmp_path):
        text = open(workdir / "dinh_vu.tfp").read()
        lines = text.splitlines()
        start = lines.index("[flow]")
        end = next(i for i in range(start + 1, len(lines))
                   if lines[i].startswith("["))
        stripped = "\n".join(lines[:start] + lines[end:]) + "\n"
        target = tmp_path / "no_flow.tfp"
        target.write_text(stripped)
        assert main(["verify", str(target)]) == 3

    @pytest.mark.parametrize(
        "name",
        [
            path.stem
            for path in sorted(Path("problems").glob("*.tfp"))
            if "[flow]" not in path.read_text()
        ],
    )
    def test_torus_dims_match_closure(self, tmp_path, name):
        spec = tmp_path / f"{name}.tfp"
        shutil.copy(f"problems/{name}.tfp", spec)
        assert main(["closure", str(spec)]) == 0
        assert main(["verify", str(spec), "--count", "400"]) in (0, 5)
        closure = json.loads(Path(f"{spec}.closure.json").read_text())
        report = json.loads(Path(f"{spec}.report.json").read_text())
        assert closure["schema_version"] == 1
        assert report["schema_version"] == 2
        assert report["torus_dims"] == [
            comp["torus_dim"] for comp in closure["components"]
        ]

    def test_byte_identical_reports(self, workdir):
        spec = str(workdir / "hyperbola.tfp")
        assert main(["verify", spec, "--count", "2000"]) == 0
        first = open(spec + ".report.json", "rb").read()
        assert main(["verify", spec, "--count", "2000"]) == 0
        second = open(spec + ".report.json", "rb").read()
        assert first == second


class TestSample:
    def test_csv_rows(self, workdir, tmp_path):
        spec = str(workdir / "hyperbola.tfp")
        out = str(tmp_path / "dump.csv")
        assert main(["sample", spec, "--out", out, "--count", "400"]) == 0
        lines = open(out).read().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "shell_index"
        assert "min_distance" in header
        assert len(lines) == 401

    def test_bounded_starves(self, tmp_path):
        spec = tmp_path / "bounded.tfp"
        spec.write_text(
            """\
[field]
min_poly = x

[space]
mode = real
ambient_dim = 2
declared_dim = 1

[lattice]
row = (1, 0)

[variety]
branch = (1/t, 1/(t^2+1))

[verify]
count = 64
radius_min = 1000
shells = 1
"""
        )
        out = str(tmp_path / "dump.csv")
        assert main(["sample", str(spec), "--out", out]) == 6


class TestZeroDivisor:
    """A zero divisor in a rational constant is a parse error, exit 2."""

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("hyperbola", "branch = (t, 1/t)", "branch = (t^(1/0), t)"),
            ("irrational_direction", "root = interval (1, 2)",
             "root = interval (1/0, 2)"),
            ("irrational_direction", "root = interval (1, 2)",
             "root = interval (0^(-1), 2)"),
            ("dinh_vu", "curve u in (-40, 40)", "curve u in (-40/0, 40)"),
        ],
        ids=["exponent", "interval", "negative-power", "curve-range"],
    )
    def test_parse_error(self, tmp_path, capsys, name, old, new):
        text = open(f"problems/{name}.tfp").read()
        assert old in text
        spec = tmp_path / f"{name}.tfp"
        spec.write_text(text.replace(old, new, 1))
        assert _exit_code(["closure", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "division by zero" in err
        assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "min_poly, root",
    [
        # squarefree and irreducible, with roots near 1.2e-20 and 1e-20 i:
        # the float seeds are too far off for a certificate
        ("x^4 - 2/10^80", "interval (0, 1)"),
        ("x^2 + 10^-40", "rect (-1, 1) (0, 1)"),
    ],
    ids=["tiny-real-root", "tiny-complex-root"],
)
@pytest.mark.parametrize("command", ["closure", "verify"])
def test_uncertified_roots_exit_with_one_line(tmp_path, capsys, command, min_poly,
                                              root):
    """A field whose roots the float seeds cannot certify is refused with
    that cause, not with a squarefreeness the field has already proved."""
    text = open("problems/irrational_direction.tfp").read()
    text = text.replace("min_poly = x^2 - 2", f"min_poly = {min_poly}", 1)
    text = text.replace("root = interval (1, 2)", f"root = {root}", 1)
    spec = tmp_path / "field.tfp"
    spec.write_text(text)
    assert _exit_code([command, str(spec)]) == 2
    err = capsys.readouterr().err
    assert "float seeds" in err and "squarefree" not in err
    assert "Traceback" not in err and err.count("\n") == 1


# Q(i), embedded with theta = i
GAUSSIAN_FIELD = """\
[field]
min_poly = x^2 + 1
root = rect (-1/2, 1/2) (1/2, 2)
i = theta
conj = -theta

[space]
mode = complex
"""

# directions (1, 0) and (1, 1) span a real plane that is not closed under i
RDIRS_OVER_QI = GAUSSIAN_FIELD + """\
ambient_dim = 2
declared_dim = 1

[lattice]
row = (1, 0)
row = (theta, 0)

[variety]
affine = point (0, 0) rdirs (1, 0) (1, 1)
"""

# X = C, over a lattice whose span R*i is not closed under i
PLANE_OVER_IR = GAUSSIAN_FIELD + """\
ambient_dim = 1
declared_dim = 1

[lattice]
row = (theta)

[variety]
branch = (t)
"""

# the real half-line of C, over the Gaussian integers
RAY_OVER_ZI = GAUSSIAN_FIELD + """\
ambient_dim = 1
declared_dim = 1

[lattice]
row = (1)
row = (theta)

[variety]
branch = rays (1) : (t)
"""


def _closure_json(tmp_path, text):
    spec = tmp_path / "problem.tfp"
    spec.write_text(text)
    assert main(["closure", str(spec), "--json", str(tmp_path / "c.json")]) == 0
    return json.loads((tmp_path / "c.json").read_text())


def _verify(tmp_path, text, *extra):
    spec = tmp_path / "problem.tfp"
    spec.write_text(text)
    code = main(["verify", str(spec), *extra])
    return code, json.loads((tmp_path / "problem.tfp.report.json").read_text())


def test_affine_base_prediction(tmp_path, capsys):
    # the plane's flow set over Z x {0}, predicted as the affine base
    # {0} x R plus the x-axis direction
    flow = "[flow]\ncomponent = base affine point (0, 0) dirs (0, 1) ; span r(1, 0)"
    text = open("problems/plane_cylinder.tfp").read().replace(
        "[verify]", flow + "\n\n[verify]"
    )
    code, report = _verify(tmp_path, text)
    assert code == 0 and report["passed"]
    assert capsys.readouterr().out.startswith(
        "PASS: containment=0.000e+00 (tol 0.01), coverage=0.999 "
    )


def test_real_directions_take_the_real_statement(tmp_path):
    closure = _closure_json(tmp_path, RDIRS_OVER_QI)
    assert closure["span_condition"] == "real_only"
    [comp] = closure["components"]
    assert comp["C"]["kind"] == "affine" and comp["torus_dim"] == 1
    code, report = _verify(tmp_path, RDIRS_OVER_QI, "--count", "60000")
    assert code == 0 and report["span_condition"] == "real_only"
    assert report["coverage"][0] > 0.95


@pytest.mark.parametrize("command", ["closure", "verify"])
def test_complex_branch_without_rays_under_the_real_statement(tmp_path, capsys,
                                                              command):
    spec = tmp_path / "plane.tfp"
    spec.write_text(PLANE_OVER_IR)
    assert main([command, str(spec)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "error: the real statement applies, and it needs the rays of every "
        "complex branch"
    )


def test_branch_with_rays_takes_the_real_statement(tmp_path):
    closure = _closure_json(tmp_path, RAY_OVER_ZI)
    assert closure["span_condition"] == "real_only"
    [comp] = closure["components"]
    assert comp["torus_dim"] == 1
    code, report = _verify(tmp_path, RAY_OVER_ZI)
    assert code == 0 and report["span_condition"] == "real_only"
    assert report["coverage"] == [1.0]
    # a prediction is verified under the same statement
    predicted = RAY_OVER_ZI + "\n[flow]\ncomponent = base point (0) ; span r(1)\n"
    code, report = _verify(tmp_path, predicted)
    assert code == 0 and report["span_condition"] == "real_only"


@pytest.mark.parametrize("command", ["closure", "verify"])
def test_invariant_violation_exits_internal(workdir, capsys, monkeypatch, command):
    def broken(variety, lattice):
        raise InternalInvariantError("closure lost its source")

    monkeypatch.setattr(cli, "flow_set", broken)
    assert main([command, str(workdir / "hyperbola.tfp")]) == 4
    err = capsys.readouterr().err
    assert err == "internal invariant violation: closure lost its source\n"


def test_engine_error_exits_internal(workdir, capsys, monkeypatch):
    def unhandled(variety, lattice):
        raise TorusflowError("no exact answer for this input")

    monkeypatch.setattr(cli, "flow_set", unhandled)
    assert main(["closure", str(workdir / "hyperbola.tfp")]) == 4
    err = capsys.readouterr().err
    assert err == "error: no exact answer for this input\n"


def test_bounded_variety_starves_the_first_shell(tmp_path, capsys):
    # both branches tend to the origin as |t| grows, so no far point is found
    text = open("problems/hyperbola.tfp").read()
    for old, new in (
        ("branch = (t, 1/t)", "branch = (1/(1+t^2), t/(1+t^2))"),
        ("branch = (1/t, t)", "branch = (1/(2+t^2), 1/(1+t))"),
    ):
        assert old in text
        text = text.replace(old, new, 1)
    spec = tmp_path / "hyperbola.tfp"
    spec.write_text(text)
    assert main(["verify", str(spec)]) == 6
    err = capsys.readouterr().err
    assert err == (
        "error: could not fill shell 0 at radius 100.0; the variety may be bounded\n"
    )


def _reducible(min_poly, root, branch="(t, (theta-1)*t)"):
    return f"""\
[field]
min_poly = {min_poly}
root = interval {root}

[space]
mode = real
ambient_dim = 2
declared_dim = 1

[lattice]
row = (1, 0)
row = (0, 1)

[variety]
branch = {branch}
"""


@pytest.mark.parametrize(
    "min_poly, root, rational",
    [
        ("x^2 - 1", "(1/2, 2)", "1"),
        # (x - 1/2)(x^2 - 2): the interval isolates sqrt(2)
        ("x^3 - x^2/2 - 2*x + 1", "(1, 2)", "1/2"),
    ],
    ids=["quadratic", "cubic"],
)
@pytest.mark.parametrize("command", ["closure", "verify"])
def test_rational_root_refused(tmp_path, capsys, command, min_poly, root, rational):
    spec = tmp_path / "reducible.tfp"
    spec.write_text(_reducible(min_poly, root))
    assert _exit_code([command, str(spec)]) == 2
    err = capsys.readouterr().err
    assert f"rational root {rational};" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_irreducible_cubic_accepted(tmp_path):
    spec = tmp_path / "cubic.tfp"
    spec.write_text(_reducible("x^3 - 2", "(1, 2)"))
    assert _exit_code(["closure", str(spec)]) == 0


@pytest.mark.parametrize(
    "min_poly, root, branch, factor",
    [
        # (x^2 - 2)(x^2 - 3) at sqrt(2): closure said torus_dim=2, not 1
        ("x^4 - 5*x^2 + 6", "(1, 3/2)", "(t, (theta^2-2)*t)", "x^2 - 3"),
        # (x^2 + 1)(x^2 - 2)
        ("x^4 - x^2 - 2", "(1, 2)", "(t, (theta-1)*t)", "x^2 - 2"),
    ],
    ids=["two-real-quadratics", "complex-and-real-quadratic"],
)
@pytest.mark.parametrize("command", ["closure", "verify", "sample"])
def test_rational_factor_refused(tmp_path, capsys, command, min_poly, root,
                                 branch, factor):
    spec = tmp_path / "reducible.tfp"
    spec.write_text(_reducible(min_poly, root, branch))
    extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
    assert _exit_code([command, str(spec)] + extra) == 2
    err = capsys.readouterr().err
    assert f"min_poly has the factor {factor};" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "min_poly, root", [("x^4 - 10*x^2 + 1", "(3, 4)"), ("x^4 - 2", "(1, 2)")]
)
def test_irreducible_quartic_accepted(tmp_path, min_poly, root):
    spec = tmp_path / "quartic.tfp"
    spec.write_text(_reducible(min_poly, root))
    assert _exit_code(["closure", str(spec)]) == 0


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("hyperbola", "ambient_dim = 2", "ambient_dim = x"),
        ("hyperbola", "declared_dim = 1", "declared_dim = x"),
        ("irrational_direction", "root = interval (1, 2)", "root = interval"),
        ("dinh_vu", "root = rect (1/2, 1) (1/2, 1)", "root = rect"),
    ],
    ids=["ambient_dim", "declared_dim", "interval", "rect"],
)
def test_malformed_value_is_a_parse_error(tmp_path, capsys, name, old, new):
    text = open(f"problems/{name}.tfp").read()
    assert old in text
    spec = tmp_path / f"{name}.tfp"
    spec.write_text(text.replace(old, new, 1))
    assert _exit_code(["closure", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1


_GRAPH = "graph = vars x, y : (x, y, x*y*(-theta^3)*(y+1))"
_RAY_TERM = "base point (0, 0, 0) ; span r(theta, 0, 0) c(0, 1, 0) c(0, 0, 1)"
_CURVE_PLUS = "base curve u in (-40, 40) : (0, (-1 +"


@pytest.mark.parametrize(
    "name, old, new, fragment",
    [
        # min_poly
        pytest.param("irrational_direction", "min_poly = x^2 - 2",
                     "min_poly = x^2 - 2/x", "must be a polynomial in x",
                     id="poly-in-x"),
        pytest.param("irrational_direction", "min_poly = x^2 - 2",
                     "min_poly = x^(1/2) - 2", "nonnegative integer powers",
                     id="poly-powers"),
        pytest.param("hyperbola", "min_poly = x", "min_poly = x - x",
                     "min_poly is zero", id="poly-zero"),
        # root selector
        pytest.param("irrational_direction", "root = interval (1, 2)",
                     "root = box (1, 2)", "root must be", id="root-kind"),
        pytest.param("irrational_direction", "root = interval (1, 2)",
                     "root = interval (1, 2, 3)", "needs two rational endpoints",
                     id="root-endpoints"),
        pytest.param("irrational_direction", "root = interval (1, 2)",
                     "root = interval (1, 2^(1/2))", "powers must be integral",
                     id="root-power"),
        pytest.param("irrational_direction", "root = interval (1, 2)",
                     "root = interval (1, theta)", "expected a rational constant",
                     id="root-constant"),
        # pieces
        pytest.param("hyperbola", "branch = (t, 1/t)", "branch = rays : (t, 1/t)",
                     "lists no ray expressions", id="rays-empty"),
        pytest.param("hyperbola", "branch = (t, 1/t)", "branch = (t, 1/t, t)",
                     "coordinate count mismatch", id="branch-count"),
        pytest.param("plane_cylinder", "affine = point (0, 0) dirs (1, 0) (0, 1)",
                     "affine = point", "needs a point vector", id="affine-point"),
        pytest.param("dinh_vu", _GRAPH, "graph = vars x, y : (x, y)",
                     "output count mismatch", id="graph-count"),
        pytest.param("dinh_vu", "graph = vars x, y :", "graph = vars x, 2y :",
                     "bad graph variable names", id="graph-names"),
        # branch coordinates
        pytest.param("hyperbola", "branch = (t, 1/t)", "branch = (t, 1/(t-t))",
                     "division by zero in branch", id="branch-zero"),
        pytest.param("hyperbola", "branch = (t, 1/t)", "branch = (t, (2*t)^(1/2))",
                     "fractional powers", id="branch-scaled-root"),
        pytest.param("hyperbola", "branch = (t, 1/t)", "branch = (t, (t+1)^(1/2))",
                     "fractional powers", id="branch-sum-root"),
        pytest.param("hyperbola", "branch = (t, 1/t)", "branch = (t, exp(t))",
                     "not allowed in branch", id="branch-function"),
        # numeric expressions
        pytest.param("dinh_vu", _GRAPH, "graph = vars x, y : (x, y, z)",
                     "unknown name", id="numeric-name"),
        pytest.param("dinh_vu", _GRAPH, "graph = vars x, y : (x, y, foo(x))",
                     "unknown function", id="numeric-function"),
        pytest.param("dinh_vu", _GRAPH, "graph = vars x, y : (x, y, exp(x, y))",
                     "takes one argument", id="numeric-arity"),
        # exact expressions
        pytest.param("irrational_direction", "row = (0, 1)", "row = (0, theta^(1/2))",
                     "integer exponents", id="exact-power"),
        pytest.param("irrational_direction", "row = (0, 1)", "row = (0, exp(1))",
                     "not allowed in exact", id="exact-function"),
        # [flow] components
        pytest.param("dinh_vu", _RAY_TERM, "base point (0, 0, 0)",
                     "needs both 'base' and 'span'", id="component-span"),
        pytest.param("dinh_vu", "base point (0, 0, 0)", "base point",
                     "at least one vector", id="point-base"),
        pytest.param("dinh_vu", _CURVE_PLUS, _CURVE_PLUS.replace(" : ", " "),
                     "curve base must look like", id="curve-colon"),
        pytest.param("dinh_vu", _CURVE_PLUS, _CURVE_PLUS.replace(" in ", " "),
                     "curve base must look like", id="curve-range"),
        pytest.param("dinh_vu", "base point (0, 0, 0)", "base circle (0, 0, 0)",
                     "unknown base descriptor", id="base-kind"),
        # [variety]
        pytest.param("parabola", "branch = (t, t^2)", "", "defines no pieces",
                     id="no-pieces"),
    ],
)
@pytest.mark.parametrize("command", ["closure", "verify"])
def test_refused_line_is_a_parse_error(tmp_path, capsys, command, name, old, new,
                                       fragment):
    text = open(f"problems/{name}.tfp").read()
    assert text.count(old) == 1
    spec = tmp_path / f"{name}.tfp"
    spec.write_text(text.replace(old, new))
    assert _exit_code([command, str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and fragment in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("hyperbola", "branch = (t, 1/t)", "branch = (t, 1/t + 10^400)"),
        ("hyperbola", "branch = (t, 1/t)", "branch = (10^400*t, 1/t)"),
        ("hyperbola", "row = (0, 1)", "row = (0, 10^400)"),
        ("irrational_direction", "branch = (t, theta*t)",
         "branch = (t, theta^20000*t)"),
        # a 5001-digit denominator also passes the int-to-str limit that the
        # closure JSON writer meets
        ("hyperbola", "branch = (t, 1/t)", "branch = (t, 1/t + 10^5000)"),
        ("hyperbola", "branch = (t, 1/t)", "branch = (t, 1/t + 10^(-5000))"),
        ("hyperbola", "branch = (t, 1/t)", "branch = (t^(10^400), 1/t)"),
    ],
    ids=["offset", "coefficient", "row", "theta-power", "big", "tiny",
         "exponent"],
)
@pytest.mark.parametrize("command", ["closure", "verify", "sample"])
def test_out_of_float_range_is_a_parse_error(tmp_path, capsys, command, name,
                                             old, new):
    text = open(f"problems/{name}.tfp").read()
    assert old in text
    spec = tmp_path / f"{name}.tfp"
    spec.write_text(text.replace(old, new, 1))
    extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
    assert _exit_code([command, str(spec)] + extra) == 2
    err = capsys.readouterr().err
    assert "outside the float range" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "coordinate",
    [
        "(" * 3000 + "t" + ")" * 3000,
        "-" * 3000 + "t",
        "t" + "^1" * 3000,
        "1." + "1" * 5000 + "*t",
    ],
    ids=["parentheses", "signs", "powers", "long-decimal"],
)
@pytest.mark.parametrize("command", ["closure", "verify", "sample"])
def test_deep_or_long_expression_is_a_parse_error(tmp_path, capsys, command,
                                                  coordinate):
    text = open("problems/hyperbola.tfp").read()
    old = "branch = (t, 1/t)"
    assert old in text
    spec = tmp_path / "hyperbola.tfp"
    spec.write_text(text.replace(old, f"branch = ({coordinate}, 1/t)", 1))
    extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
    assert _exit_code([command, str(spec)] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: bad branch piece: ")
    assert "Traceback" not in err and err.count("\n") == 1 and len(err) < 200


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestConfigValidation:
    """Bad sample settings, in the file or on the command line, exit 2."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("shells", "0"),
            ("radius_min", "inf"),
            ("tolerance", "nan"),
            ("grid_eps", "nan"),
            ("window", "nan"),
            ("coverage_threshold", "1.5"),
            # the outermost shell's draws reach radius_min * 8 * 1e3 = inf
            ("radius_min", "1e306"),
            # the affine draw range and the cell indices overflow
            ("window", "1e306"),
            ("grid_eps", "1e-300"),
            # a quota of 1000001 per piece is over the draw cap at once
            ("count", "8000004"),
            # numpy's seeding rejects negative entries
            ("seed", "-1"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_file_value(self, workdir, tmp_path, capsys, command, key, value):
        spec = workdir / "hyperbola.tfp"
        text = spec.read_text()
        assert f"\n{key} = " in text
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} = ") else line
            for line in text.splitlines()
        ]
        spec.write_text("\n".join(lines) + "\n")
        extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
        assert _exit_code([command, str(spec)] + extra) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("curve_nodes", "0"),
            ("curve_nodes", "1"),
            # over MAX_DRAWS: the curve nodes would not fit in memory
            ("curve_nodes", "10000000000000"),
            # verify runs no relation search any more: the key is gone, so
            # any value exits 2 as an unknown key
            ("relation_digits", "400"),
            ("relation_digits", "-1"),
        ],
    )
    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_added_value(self, workdir, tmp_path, capsys, command, key, value):
        spec = workdir / "hyperbola.tfp"
        text = spec.read_text()
        assert text.rstrip().splitlines()[-1].startswith("shells = ")
        spec.write_text(text + f"{key} = {value}\n")  # [verify] is last
        extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
        assert _exit_code([command, str(spec)] + extra) == 2
        err = capsys.readouterr().err
        if key == "relation_digits":
            assert f"unknown key '{key}'" in err
        else:
            assert key in err and "unknown key" not in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, flags, key",
        [
            ("verify", ["--count", "0"], "count"),
            ("verify", ["--count", "-5"], "count"),
            ("verify", ["--eps", "0"], "grid_eps"),
            ("verify", ["--tol", "-1"], "tolerance"),
            ("verify", ["--tol", "nan"], "tolerance"),
            ("sample", ["--count", "0"], "count"),
            ("sample", ["--count", "-5"], "count"),
            ("verify", ["--count", "8000004"], "count"),
            ("sample", ["--count", "8000004"], "count"),
            ("verify", ["--seed", "-5"], "seed"),
            ("sample", ["--seed", "-5"], "seed"),
        ],
    )
    def test_override(self, workdir, tmp_path, capsys, command, flags, key):
        spec = str(workdir / "hyperbola.tfp")
        extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
        assert _exit_code([command, spec] + extra + flags) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err and err.count("\n") == 1


# Mutation fuzz: each mutant is a problems/*.tfp file with one value
# replaced, one token replaced, or one line dropped or duplicated.  Running
# it may pass, fail or be rejected, but never end in a traceback.

PROBLEMS = {
    path.name: path.read_text().splitlines()
    for path in sorted(Path("problems").glob("*.tfp"))
}
# edge values for numbers, expressions and vectors, then plain tokens
TOKENS = [
    "-1", "nan", "1e308", "()", "1/0", "0", "1", "2", "-0.5", "inf", "1e-300",
    "x", "t", "theta", "i", "(", ")", ",", "=", "[", "",
]
TOKEN_RE = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?|\w+|\S")
EXIT_CODES = {0, 2, 3, 4, 5, 6}
VERIFY = ["verify", "--count", "400"]


def _with_value(line, token):
    return f"{line.split(' = ', 1)[0]} = {token}"


def _mutant(name, key, token):
    """(name, text) of a problem file with ``key``'s value replaced."""
    lines = [
        _with_value(ln, token) if ln.startswith(f"{key} = ") else ln
        for ln in PROBLEMS[name]
    ]
    return name, "\n".join(lines) + "\n"


@st.composite
def mutants(draw):
    """(problem name, mutated text)."""
    name = draw(st.sampled_from(sorted(PROBLEMS)))
    lines = list(PROBLEMS[name])
    kind = draw(st.sampled_from(["value", "token", "drop", "duplicate"]))
    if kind in ("drop", "duplicate"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if kind == "drop" else [lines[i]] * 2
    elif kind == "value":
        i = draw(st.sampled_from([k for k, ln in enumerate(lines) if " = " in ln]))
        lines[i] = _with_value(lines[i], draw(st.sampled_from(TOKENS)))
    else:
        i = draw(st.sampled_from([k for k, ln in enumerate(lines) if ln.strip()]))
        start, end = draw(st.sampled_from(
            [m.span() for m in TOKEN_RE.finditer(lines[i])]
        ))
        token = draw(st.sampled_from(TOKENS))
        lines[i] = lines[i][:start] + token + lines[i][end:]
    return name, "\n".join(lines) + "\n"


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutants(), st.sampled_from([["closure"], VERIFY]))
# numpy's seeding raised ValueError here before the config checked the seed
@example(_mutant("hyperbola.tfp", "seed", "-1"), VERIFY)
def test_mutants_exit_with_a_documented_code(tmp_path_factory, mutant, command):
    name, text = mutant
    spec = tmp_path_factory.getbasetemp() / name
    spec.write_text(text)
    argv = [command[0], str(spec)] + command[1:]
    assert _exit_code(argv) in EXIT_CODES


def _curve_prediction(curve):
    """(name, old, new) giving plane_cylinder a [flow] curve component."""
    flow = f"[flow]\ncomponent = base curve u in (-10, 10) : {curve} ; span r(1, 0)"
    return "plane_cylinder", "[verify]", flow + "\n\n[verify]"


@pytest.mark.parametrize(
    "name, old, new, closure_code, message",
    [
        # the exact expansion of t^(10^300) would need 10^300 coefficients
        ("hyperbola", "branch = (t, 1/t)", "branch = (t^(10^300), 1/t)", 2,
         "degree above 10000"),
        # the exact layer takes the row; the sampler's cell indices cannot
        ("hyperbola", "row = (0, 1)", "row = (0, 10^300)", 0,
         "norms must sum to less than 2^22"),
        (*_curve_prediction("(0, u + 10^400)"), 2, "complex exponentiation"),
        (*_curve_prediction("(0, u + 1/0)"), 2, "complex division by zero"),
        (*_curve_prediction("(0, u + exp(1000))"), 2, "overflow encountered in exp"),
        # Python's complex product overflows to inf without raising
        (*_curve_prediction("(0, u + 10^308*10)"), 2, "not finite"),
    ],
    ids=["branch-degree", "row-norm", "curve-power", "curve-division",
         "curve-exp", "curve-inf"],
)
@pytest.mark.parametrize("command", ["closure", "verify", "sample"])
def test_unusable_scale_exits_with_one_line(tmp_path, capsys, command, name, old,
                                            new, closure_code, message):
    text = open(f"problems/{name}.tfp").read()
    assert old in text
    spec = tmp_path / f"{name}.tfp"
    spec.write_text(text.replace(old, new, 1))
    extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = _exit_code([command, str(spec)] + extra)
    err = capsys.readouterr().err
    if command == "closure" and closure_code == 0:
        assert code == 0 and err == ""
    else:
        assert code == 2 and message in err
        assert "Traceback" not in err and err.count("\n") == 1


def _hyperbola_with_branch(tmp_path, branch):
    text = open("problems/hyperbola.tfp").read()
    assert "branch = (t, 1/t)" in text
    spec = tmp_path / "hyperbola.tfp"
    spec.write_text(text.replace("branch = (t, 1/t)", f"branch = {branch}", 1))
    return spec


def _argv(command, spec, tmp_path):
    extra = ["--out", str(tmp_path / "dump.csv")] if command == "sample" else []
    return [command, str(spec)] + extra


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_overflowing_square_passes_without_warning(tmp_path, capsys, command):
    # the samples are finite, but the square of their second coordinate,
    # about 10^600, overflows; their norm is inf, past every shell radius
    spec = _hyperbola_with_branch(tmp_path, "(t, 1/t + 10^300)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = _exit_code(_argv(command, spec, tmp_path))
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_overflowing_square_raises_no_warning(tmp_path, command):
    # the same overflow in the first coordinate; the verdict is left open,
    # since the rows lose their fractional part to float spacing
    spec = _hyperbola_with_branch(tmp_path, "(10^300*t, 1/t)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = _exit_code(_argv(command, spec, tmp_path))
    assert code in (0, 5)
