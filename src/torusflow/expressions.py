"""Small expression language for problem files.

One grammar serves three evaluation contexts:

* exact scalars: polynomials in theta (and i, when the field supplies it)
  with rational coefficients; decimal literals are converted exactly;
* branch coordinates: rational functions of t over the field, with rational
  exponents allowed on t itself (power sums);
* numeric expressions: graph pieces and predicted curves, evaluated over
  numpy arrays with sqrt/exp/cos/sin/abs, pi and the imaginary unit.

No eval() anywhere: a hand-rolled tokenizer and recursive-descent parser.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SpecFileError
from .flats import TPoly
from .numberfield import NumberField

Rat = Fraction

_OPS = set("+-*/^(),")
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


@dataclass
class Token:
    kind: str  # "num", "name", "op"
    value: object
    pos: int


def tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            lit = text[i:j]
            try:
                value = Rat(lit)
            except ValueError:
                raise SpecFileError(f"bad number literal {lit!r}")
            tokens.append(Token("num", _in_float_range(value), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], i))
            i = j
            continue
        if ch == "*" and i + 1 < n and text[i + 1] == "*":
            tokens.append(Token("op", "^", i))
            i += 2
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        raise SpecFileError(f"unexpected character {ch!r} in expression")
    return tokens


class Parser:
    """expr -> term (± term)*; term -> unary (*/ unary)*; power binds tighter."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise SpecFileError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            raise SpecFileError(f"expected {op!r} in expression")

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise SpecFileError("trailing junk in expression")
        return node

    def expr(self):
        node = self.term()
        while (tok := self.peek()) and tok.kind == "op" and tok.value in "+-":
            self.next()
            rhs = self.term()
            node = (tok.value, node, rhs)
        return node

    def term(self):
        node = self.unary()
        while (tok := self.peek()) and tok.kind == "op" and tok.value in "*/":
            self.next()
            rhs = self.unary()
            node = (tok.value, node, rhs)
        return node

    def unary(self):
        tok = self.peek()
        if tok and tok.kind == "op" and tok.value in "+-":
            self.next()
            node = self.unary()
            return node if tok.value == "+" else ("neg", node)
        return self.power()

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok.kind == "op" and tok.value == "^":
            self.next()
            expo = self.unary()  # right-assoc, allows -2 etc.
            return ("^", base, expo)
        return base

    def atom(self):
        tok = self.next()
        if tok.kind == "num":
            return ("num", tok.value)
        if tok.kind == "name":
            nxt = self.peek()
            if nxt and nxt.kind == "op" and nxt.value == "(":
                self.next()
                args = [self.expr()]
                while (t := self.peek()) and t.kind == "op" and t.value == ",":
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                return ("call", tok.value, args)
            return ("name", tok.value)
        if tok.kind == "op" and tok.value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise SpecFileError(f"unexpected token {tok.value!r} in expression")


def parse_expr(text):
    return Parser(tokenize(text)).parse()


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


class _Pair:
    """num/den pair of TPoly; closed under field operations."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den


def eval_branch_coord(node, field: NumberField):
    """Evaluate to a (numerator, denominator) TPoly pair."""
    one = TPoly.constant(field, field.one)

    def walk(nd):
        kind = nd[0]
        if kind == "num":
            return _Pair(TPoly.constant(field, field.rational(nd[1])), one)
        if kind == "name":
            if nd[1] == "t":
                return _Pair(TPoly.variable(field), one)
            return _Pair(TPoly.constant(field, eval_scalar(nd, field)), one)
        if kind == "neg":
            p = walk(nd[1])
            return _Pair(-p.num, p.den)
        if kind in "+-*/":
            a, b = walk(nd[1]), walk(nd[2])
            if kind == "+":
                return _Pair(a.num * b.den + b.num * a.den, a.den * b.den)
            if kind == "-":
                return _Pair(a.num * b.den - b.num * a.den, a.den * b.den)
            if kind == "*":
                return _Pair(a.num * b.num, a.den * b.den)
            if b.num.is_zero():
                raise SpecFileError("division by zero in branch coordinate")
            return _Pair(a.num * b.den, a.den * b.num)
        if kind == "^":
            expo = _const_rational(nd[2])
            base = walk(nd[1])
            if expo.denominator == 1:
                k = int(expo)
                num, den = (base.num, base.den) if k >= 0 else (base.den, base.num)
                return _Pair(
                    _power(num, abs(k), one, _poly_in_float_range),
                    _power(den, abs(k), one, _poly_in_float_range),
                )
            # fractional powers only on a bare monomial in t
            if len(base.den.terms) == 1 and len(base.num.terms) == 1:
                (en, cn), = base.num.terms.items()
                (ed, cd), = base.den.terms.items()
                coeff = cn / cd
                if not (coeff == field.one):
                    raise SpecFileError(
                        "fractional powers allowed only on plain powers of t"
                    )
                return _Pair(
                    TPoly(field, {(en - ed) * expo: field.one}), one
                )
            raise SpecFileError(
                "fractional powers allowed only on plain powers of t"
            )
        if kind == "call":
            raise SpecFileError(
                f"function {nd[1]!r} is not allowed in branch coordinates"
            )
        raise SpecFileError("malformed branch expression")

    pair = walk(node)
    return _poly_in_float_range(pair.num), _poly_in_float_range(pair.den)


# ---------------------------------------------------------------------------
# Numeric evaluation over numpy arrays
# ---------------------------------------------------------------------------

_NUMERIC_FUNCS = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "cos": np.cos,
    "sin": np.sin,
    "abs": np.abs,
    "conj": np.conj,
}


def compile_numeric(node, var_names, field: NumberField):
    """Compile to a function mapping numpy arrays (one per var) to an array."""

    def walk(nd):
        kind = nd[0]
        if kind == "num":
            val = complex(nd[1])
            return lambda env: val
        if kind == "name":
            name = nd[1]
            if name in var_names:
                return lambda env: env[name]
            if name == "pi":
                return lambda env: np.pi
            if name == "i":
                return lambda env: 1j
            if name == "theta":
                val = field.gen.to_complex()
                return lambda env: val
            raise SpecFileError(f"unknown name {name!r} in numeric expression")
        if kind == "neg":
            f = walk(nd[1])
            return lambda env: -f(env)
        if kind in "+-*/^":
            a, b = walk(nd[1]), walk(nd[2])
            if kind == "+":
                return lambda env: a(env) + b(env)
            if kind == "-":
                return lambda env: a(env) - b(env)
            if kind == "*":
                return lambda env: a(env) * b(env)
            if kind == "/":
                return lambda env: a(env) / b(env)
            return lambda env: a(env) ** b(env)
        if kind == "call":
            fname = nd[1]
            if fname not in _NUMERIC_FUNCS:
                raise SpecFileError(f"unknown function {fname!r}")
            if len(nd[2]) != 1:
                raise SpecFileError(f"{fname} takes one argument")
            fn = _NUMERIC_FUNCS[fname]
            g = walk(nd[2][0])
            return lambda env: fn(g(env))
        raise SpecFileError("malformed numeric expression")

    return walk(node)


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
