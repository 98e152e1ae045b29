"""Problem-file expressions: a subset of Python's expression syntax, read by
Python's own parser.  Numbers (digits and at most one dot), names, ``+ - * /``,
signs, powers written ``^`` or ``**``, and calls of a bare name with
positional arguments, at most ``MAX_DEPTH`` levels deep.  One tree serves
three evaluation contexts:

* exact scalars: polynomials in theta (and i, when the field supplies it)
  with rational coefficients; decimal literals are converted exactly;
* branch coordinates: rational functions of t over the field, with rational
  exponents allowed on t itself (power sums);
* numeric expressions: graph pieces and predicted curves, evaluated over
  numpy arrays with sqrt/exp/cos/sin/abs, pi and the imaginary unit.
"""

from __future__ import annotations

import ast
import contextlib
import operator
import re
import sys
import warnings
from fractions import Fraction

import numpy as np

from .errors import SpecFileError
from .flats import TPoly
from .numberfield import NumberField

Rat = Fraction

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


def _in_float_range(q):
    """q, unless its numerator or denominator is larger than the largest float.

    Such a number overflows ``float()``, and past 4300 digits Python also
    refuses to print it, which the closure JSON needs.
    """
    if max(abs(q.numerator), q.denominator) > sys.float_info.max:
        raise SpecFileError(
            "exact constant outside the float range: its numerator or "
            "denominator is larger than the largest float"
        )
    return q


def _coords_in_float_range(e):
    """The field element e, unless one of its coordinates is out of range."""
    for c in e.coords:
        _in_float_range(c)
    return e


def _poly_in_float_range(p):
    """The TPoly p, unless an exponent or a coefficient is out of range."""
    for e, c in p.terms.items():
        _in_float_range(e)
        _coords_in_float_range(c)
    return p


def _power(base, k, one, check):
    """base^k for an integer k >= 0, by left-to-right square-and-multiply.

    ``check`` runs on every partial power, so a power out of the float range
    is refused after at most 2 * k.bit_length() products of in-range values
    instead of being computed in full.
    """
    value = one
    for bit in bin(k)[2:]:
        value = check(value * value)
        if bit == "1":
            value = check(value * base)
    return value


MAX_DEPTH = 100  # levels of an expression tree; bounds every evaluator's recursion

_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
# what Python's tokenizer warns about (3.10-3.13): a number run straight into
# a name or keyword, as in 1if or 1.or, and a backslash escape in a string
_MAY_WARN = re.compile(r"\d\.?[^\W\d]|\\")


def _quoted(text):
    """The text's first 60 characters, quoted, for an error message."""
    return repr(text[:60] + ("..." if len(text) > 60 else ""))


def parse_expr(text):
    """The tree ``("num", q)``, ``("name", s)``, ``("neg", x)``, ``(op, x, y)`` (op
    in ``+-*/^``) or ``("call", name, [args])`` of an expression.  ``ast.parse``
    only builds Python's syntax tree: nothing is compiled or run."""
    text = " ".join(text.split())
    # Python refuses leading zeros in an integer; the expressions take 007 as 7
    source = re.sub(r"(?<![\w.])0+(?=\d)", "", text.replace("^", "**"))
    try:
        if "#" in text:  # Python would read the rest as a comment
            raise SyntaxError
        if _MAY_WARN.search(source):
            with warnings.catch_warnings():  # 1if t warns before it is refused
                warnings.simplefilter("ignore")
                tree = ast.parse(source, mode="eval")
        else:
            tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        raise SpecFileError(f"cannot parse expression {_quoted(text)}") from None
    encoded = source.encode()  # node offsets count its UTF-8 bytes

    def convert(node, depth=1):
        if depth > MAX_DEPTH:
            raise SpecFileError(
                f"expression deeper than {MAX_DEPTH} levels: {_quoted(text)}"
            )
        kind, depth = type(node), depth + 1
        if kind is ast.BinOp and type(node.op) in _BINOPS:
            left, right = convert(node.left, depth), convert(node.right, depth)
            return (_BINOPS[type(node.op)], left, right)
        if kind is ast.UnaryOp and type(node.op) in (ast.UAdd, ast.USub):
            operand = convert(node.operand, depth)
            return operand if type(node.op) is ast.UAdd else ("neg", operand)
        if kind is ast.Name:
            return ("name", node.id)
        if kind is ast.Constant and type(node.value) in (int, float):
            literal = encoded[node.col_offset : node.end_col_offset].decode()
            # digits and at most one dot: 1e5, 0x10 and 1_000 are refused, and so
            # is a decimal past Python's 4300-digit limit, where Rat() fails; a
            # decimal is read from its text, as its float value is rounded
            with contextlib.suppress(ValueError):
                if literal.replace(".", "", 1).isdigit():
                    exact = node.value if type(node.value) is int else literal
                    return ("num", _in_float_range(Rat(exact)))
            raise SpecFileError(f"bad number literal {_quoted(literal)}")
        # a starred argument is refused where it is converted
        if kind is ast.Call and type(node.func) is ast.Name and not node.keywords:
            return ("call", node.func.id, [convert(a, depth) for a in node.args])
        refused = encoded[node.col_offset : node.end_col_offset].decode()
        raise SpecFileError(f"{_quoted(refused)} is not allowed in an expression")

    return convert(tree.body)


def _const_rational(node):
    """Evaluate a purely rational constant subtree, or raise."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "neg":
        return -_const_rational(node[1])
    if kind in "+-*/":
        a, b = _const_rational(node[1]), _const_rational(node[2])
        if kind == "/" and b == 0:
            raise SpecFileError("division by zero in a rational constant")
        return _in_float_range(_ARITH[kind](a, b))
    if kind == "^":
        base = _const_rational(node[1])
        expo = _const_rational(node[2])
        if expo.denominator != 1:
            raise SpecFileError("rational constant powers must be integral")
        if expo < 0:
            if base == 0:
                raise SpecFileError("division by zero in a rational constant")
            base, expo = 1 / base, -expo
        return _power(base, int(expo), Rat(1), _in_float_range)
    raise SpecFileError("expected a rational constant expression")


# ---------------------------------------------------------------------------
# Exact scalar evaluation
# ---------------------------------------------------------------------------


def eval_scalar(node, field: NumberField):
    """Evaluate to an AlgebraicNumber: polynomials in theta (and i) over Q."""
    kind = node[0]
    if kind == "num":
        return field.rational(node[1])
    if kind == "name":
        name = node[1]
        if name == "theta":
            return field.gen
        if name == "i":
            if field.i is None:
                raise SpecFileError(
                    "imaginary unit used but the field declares no i"
                )
            return field.i
        raise SpecFileError(f"unknown name {name!r} in exact expression")
    if kind == "neg":
        return -eval_scalar(node[1], field)
    if kind in "+-*/":
        a = eval_scalar(node[1], field)
        b = eval_scalar(node[2], field)
        return _coords_in_float_range(_ARITH[kind](a, b))
    if kind == "^":
        base = eval_scalar(node[1], field)
        expo = _const_rational(node[2])
        if expo.denominator != 1:
            raise SpecFileError("exact powers must have integer exponents")
        k = int(expo)
        if k < 0:
            base, k = base.inverse(), -k
        return _power(base, k, field.one, _coords_in_float_range)
    if kind == "call":
        raise SpecFileError(
            f"function {node[1]!r} is not allowed in exact expressions"
        )
    raise SpecFileError("malformed expression")


# ---------------------------------------------------------------------------
# Branch coordinates: rational functions of t with rational powers of t
# ---------------------------------------------------------------------------


def eval_branch_coord(node, field: NumberField):
    """Evaluate to a (numerator, denominator) TPoly pair."""
    one = TPoly.constant(field, field.one)

    def walk(nd):
        kind = nd[0]
        if kind == "num":
            return TPoly.constant(field, field.rational(nd[1])), one
        if kind == "name":
            if nd[1] == "t":
                return TPoly.variable(field), one
            return TPoly.constant(field, eval_scalar(nd, field)), one
        if kind == "neg":
            num, den = walk(nd[1])
            return -num, den
        if kind in "+-*/":
            (an, ad), (bn, bd) = walk(nd[1]), walk(nd[2])
            if kind == "+":
                return an * bd + bn * ad, ad * bd
            if kind == "-":
                return an * bd - bn * ad, ad * bd
            if kind == "*":
                return an * bn, ad * bd
            if bn.is_zero():
                raise SpecFileError("division by zero in branch coordinate")
            return an * bd, ad * bn
        if kind == "^":
            expo = _const_rational(nd[2])
            num, den = walk(nd[1])
            if expo.denominator == 1:
                k = int(expo)
                if k < 0:
                    num, den = den, num
                return (
                    _power(num, abs(k), one, _poly_in_float_range),
                    _power(den, abs(k), one, _poly_in_float_range),
                )
            # fractional powers only on a bare monomial in t
            if len(den.terms) == 1 and len(num.terms) == 1:
                (en, cn), = num.terms.items()
                (ed, cd), = den.terms.items()
                coeff = cn / cd
                if not (coeff == field.one):
                    raise SpecFileError(
                        "fractional powers allowed only on plain powers of t"
                    )
                return TPoly(field, {(en - ed) * expo: field.one}), one
            raise SpecFileError(
                "fractional powers allowed only on plain powers of t"
            )
        if kind == "call":
            raise SpecFileError(
                f"function {nd[1]!r} is not allowed in branch coordinates"
            )
        raise SpecFileError("malformed branch expression")

    num, den = walk(node)
    return _poly_in_float_range(num), _poly_in_float_range(den)


# ---------------------------------------------------------------------------
# Numeric evaluation over numpy arrays
# ---------------------------------------------------------------------------

_NUMERIC_OPS = {**_ARITH, "^": operator.pow}

_NUMERIC_FUNCS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "cos": np.cos,
    "sin": np.sin,
    "abs": np.abs,
    "conj": np.conj,
}


def compile_numeric(node, var_names, field: NumberField):
    """Compile to a function mapping numpy arrays (one per var) to an array.

    A subtree without a variable is evaluated once, here, by the same
    operations that would evaluate it per call, so the compiled function
    gives the same values.  A constant that overflows, divides by zero or is
    not finite is refused as a SpecFileError.
    """

    def const(value):
        return (lambda env: value), True

    def apply(op, *children):
        """The compiled node op(children); (function, whether constant)."""
        fns = [f for f, _ in children]
        if all(c for _, c in children):
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    value = op(*(f(None) for f in fns))
            except ArithmeticError as exc:
                raise SpecFileError(
                    f"constant in numeric expression cannot be evaluated: {exc}"
                ) from None
            if not np.isfinite(value):
                raise SpecFileError("constant in numeric expression is not finite")
            return const(value)
        return (lambda env: op(*(f(env) for f in fns))), False

    def walk(nd):
        kind = nd[0]
        if kind == "num":
            return const(complex(nd[1]))
        if kind == "name":
            name = nd[1]
            if name in var_names:
                return (lambda env: env[name]), False
            if name == "pi":
                return const(np.pi)
            if name == "i":
                return const(1j)
            if name == "theta":
                return const(field.gen.to_complex())
            raise SpecFileError(f"unknown name {name!r} in numeric expression")
        if kind == "neg":
            return apply(operator.neg, walk(nd[1]))
        if kind in "+-*/^":
            return apply(_NUMERIC_OPS[kind], walk(nd[1]), walk(nd[2]))
        if kind == "call":
            fname = nd[1]
            if fname not in _NUMERIC_FUNCS:
                raise SpecFileError(f"unknown function {fname!r}")
            if len(nd[2]) != 1:
                raise SpecFileError(f"{fname} takes one argument")
            return apply(_NUMERIC_FUNCS[fname], walk(nd[2][0]))
        raise SpecFileError("malformed numeric expression")

    return walk(node)[0]


def _split_top(text, sep):
    """Split on a separator character at paren depth zero."""
    parts, depth, start = [], 0, 0
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:idx])
            start = idx + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def split_vector(text):
    """Split '(a, b, c)' into component expression strings at depth one."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise SpecFileError(f"expected a parenthesized vector, got {text!r}")
    parts = _split_top(text[1:-1], ",")
    if not all(parts):
        raise SpecFileError(f"empty vector component in {text!r}")
    return parts
