"""Scalar expression language: parsing, evaluation, symbolic differentiation.

Grammar (whitespace insensitive, left-associative binaries):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)*        # '^' binds tighter than unary '-'
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

The exponent of '^' must fold to a numeric constant, so differentiation stays
inside the grammar. Supported functions: sin cos sinh cosh tan tanh exp log
sqrt. The public contract is a single variable ``s``; internally the parser
accepts a caller-specified variable tuple (used for the null-cone direction
functions of (s, t, w)).
"""
from __future__ import annotations

import itertools
import math
import operator
import re
import sys
import types
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownFunctionError

FUNCTIONS = {name: getattr(math, name)
             for name in ("sin", "cos", "sinh", "cosh", "tan", "tanh", "exp", "log", "sqrt")}


class Expr:
    """Immutable expression tree node."""

    __slots__ = ()

    def __str__(self) -> str:
        return _to_str(self, 0)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class _Binary(Expr):
    """left op right; the subclass is the operator (nodes of two classes never compare equal)."""

    left: Expr
    right: Expr


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    """base ^ exponent with a constant exponent."""

    base: Expr
    exponent: float


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPS = set("+-*/^()")
# How deep parentheses, and the tree, may nest: the parser recurses through the
# one, fold, differentiate and Python's compiler through the other
MAX_NESTING = 100
_SUBTREES = ("left", "right", "arg", "base")     # the Expr fields of the node types
MAX_DERIVATIVE_NODES = 10_000      # of a derivative tree (the product rule copies)


# a number: digits with at most one dot, and an exponent only if digits follow
_NUMBER, _NAME = re.compile(r"\d*\.?\d*(?:[eE][+-]?\d+)?"), re.compile(r"\w*")


def _tokenize(text):
    tokens = []  # (kind, value, offset)
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            depth += (c == "(") - (c == ")")
            if depth > MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING} levels", i)
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = _NUMBER.match(text, i).end()
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", i)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text[i:j]!r} is out of range", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = _NAME.match(text, i).end()
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        return self.advance()

    def parse_expr(self):
        return self._binary("+-", (Add, Sub), self.parse_term)

    def parse_term(self):
        return self._binary("*/", (Mul, Div), self.parse_unary)

    def _binary(self, ops, types, operand):
        """operand (op operand)* over the ops, left-associative."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = types[ops.index(self.advance()[1])](node, operand())
        return node

    def parse_unary(self):
        signs = 0
        while self.peek()[:2] == ("op", "-"):
            self.advance()
            signs += 1
        node = self.parse_power()
        for _ in range(signs):
            node = Neg(node)
        return node

    def parse_power(self):
        node = self.parse_atom()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value == "^":
                self.advance()
                # allow a leading sign on the exponent atom
                sign = 1.0
                k, v, _ = self.peek()
                while k == "op" and v == "-":
                    self.advance()
                    sign = -sign
                    k, v, _ = self.peek()
                exp_node = fold(_shallow(self.parse_atom(), offset))
                if not isinstance(exp_node, Const):
                    raise ExprSyntaxError("exponent must be a constant", offset)
                node = Pow(node, sign * exp_node.value)
            else:
                return node

    def parse_atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Const(value)
        if kind == "name":
            k, v, _ = self.peek()
            if k == "op" and v == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {value!r}")
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(value, arg)
            if value in self.variables:
                return Var(value)
            raise ExprSyntaxError(f"unknown variable {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)


def parse(text: str, variables: tuple[str, ...] = ("s",)) -> Expr:
    """Parse expression text into a tree. Raises ExprSyntaxError/UnknownFunctionError,
    also for a number literal that overflows to infinity and for nesting
    deeper than MAX_NESTING."""
    parser = _Parser(_tokenize(text), variables)
    node = parser.parse_expr()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {value!r}", offset)
    return fold(_shallow(node, 0))


def _levels(node: Expr):
    """The nodes of the tree level by level, from the root down."""
    level = [node]
    while level:
        yield level
        level = [getattr(n, f) for n in level for f in _SUBTREES if hasattr(n, f)]


def _shallow(node: Expr, offset) -> Expr:
    """The node, unless its tree nests deeper than MAX_NESTING levels above its
    leaves (ExprSyntaxError); measured level by level, without recursion."""
    for depth, _ in enumerate(_levels(node)):
        if depth > MAX_NESTING:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", offset)
    return node


# ---------------------------------------------------------------------------
# evaluation: one code generator

_MATH_ERRORS = (ValueError, OverflowError, ZeroDivisionError)
# the globals of every compiled function; the names are interned once here, or
# each compile would intern them anew, and a dropped one leaves a dead slot in
# the interpreter's table of interned strings, which grows with them
_NAMESPACE = {sys.intern(f"_{name}"): fn for name, fn in FUNCTIONS.items()}
_NAMESPACE["_pow"] = math.pow


def _per_element(fn):
    """fn through math on each element of an array (numpy's exp, cosh and
    power may differ from libm in the last bit), or on a float."""
    def apply(x, *args):
        if not isinstance(x, np.ndarray):
            return fn(x, *args)
        return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, len(x))
    return apply


# the array passes' globals: + - * / (the code's own operators) and sqrt run in
# numpy, which rounds them correctly, as Python floats do
_ARRAY_NAMESPACE = {**{k: _per_element(fn) for k, fn in _NAMESPACE.items()}, "_sqrt": np.sqrt}


def _domain_error(expr, variables, values, problem, name):
    """DomainError for a math error or a non-finite value at these values."""
    where = ", ".join(f"{k}={v!r}" for k, v in zip(variables, values))
    if not isinstance(problem, Exception):
        problem = f"non-finite value {problem!r}"
    what = f"{name}({', '.join(variables)}) = {expr}" if name else str(expr)
    return DomainError(f"{what} at {where}: {problem}")


def compile_expr(expr: Expr, variables: tuple[str, ...] = ("s",), name: str | None = None):
    """Compile to a positional function of the variables. Math errors and
    non-finite results raise DomainError instead of returning NaN/Inf; its
    message names the function (such as r' or x2'') when name is given. Its
    array attribute, over's pass, runs the same code under _ARRAY_NAMESPACE;
    None if a literal is not finite (Python folds 1e308*10 to inf, which
    1e308*10*s/0 would carry past the trapped division into exp(-inf) = 0)."""
    try:
        fn = eval(f"lambda {', '.join(variables)}: {_to_python(expr)}",
                  _NAMESPACE)  # code generated from our own AST
    except (SyntaxError, RecursionError) as exc:    # nested too deeply to compile
        raise ExprSyntaxError(f"cannot compile {name or 'expression'}: {exc}") from None

    def checked(*values):
        try:
            value = fn(*values)
        except _MATH_ERRORS as exc:
            raise _domain_error(expr, variables, values, exc, name) from exc
        if math.isfinite(value):
            return value
        raise _domain_error(expr, variables, values, value, name)
    finite = all(math.isfinite(c) for c in fn.__code__.co_consts if type(c) is float)
    checked.array = types.FunctionType(fn.__code__, _ARRAY_NAMESPACE) if finite else None
    return checked


def over(fns, *columns):
    """The compiled functions fns at each element of the aligned float arrays
    columns in one array pass: a (len(fns), n) array with the bits of their
    scalar calls, or None where the pass cannot vouch for every element (no
    array pass, an IEEE exception, a math error); the scalar calls decide
    then. With every IEEE exception trapped, no inf or nan forms in the pass."""
    passes = [getattr(fn, "array", None) for fn in fns]
    if None in passes:
        return None
    out = np.empty((len(fns), len(columns[0])))
    try:
        with np.errstate(all="raise", under="ignore"):
            for k, array_pass in enumerate(passes):
                out[k] = array_pass(*columns)       # a constant fills its row
    except (ArithmeticError, ValueError):           # FloatingPointError or math's errors
        return None
    return out if np.isfinite(out).all() else None


def values(fn, points):
    """fn at each point (floats), in order: the floats of its array pass where
    that succeeds, else map(fn, points), which meets each point's error where
    a loop of scalar calls does."""
    out = over((fn,), np.array(points, dtype=float))
    return map(fn, points) if out is None else out[0].tolist()


def evaluate(expr: Expr, **env: float) -> float:
    """compile_expr on the variables given, called once; a variable the
    expression needs but env lacks raises DomainError."""
    missing = variables_of(expr) - env.keys()
    if missing:
        raise DomainError(f"no value supplied for variable {min(missing)!r}")
    return compile_expr(expr, tuple(env))(*env.values())


_SYMBOL = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def _to_python(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_to_python(node.arg)})"
    if type(node) in _SYMBOL:
        return f"({_to_python(node.left)} {_SYMBOL[type(node)]} {_to_python(node.right)})"
    if isinstance(node, Pow):
        return f"_pow({_to_python(node.base)}, {node.exponent!r})"
    if isinstance(node, Call):
        return f"_{node.func}({_to_python(node.arg)})"
    raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# differentiation and constant folding

def differentiate(expr: Expr, var: str = "s") -> Expr:
    """Exact symbolic derivative, constant-folded; ExprSyntaxError past
    MAX_DERIVATIVE_NODES nodes, before the next order is taken of it."""
    out = fold(_diff(expr, var))
    size = sum(map(len, _levels(out)))
    if size > MAX_DERIVATIVE_NODES:
        raise ExprSyntaxError(f"expression too large to differentiate: a derivative of "
                              f"{size} nodes, more than {MAX_DERIVATIVE_NODES}")
    return out


_CHAIN = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
    "tan": lambda u: Div(Const(1.0), Pow(Call("cos", u), 2.0)),
    "tanh": lambda u: Sub(Const(1.0), Pow(Call("tanh", u), 2.0)),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: Div(Const(1.0), u),
    "sqrt": lambda u: Div(Const(1.0), Mul(Const(2.0), Call("sqrt", u))),
}


def _diff(node, var):
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var))
    if isinstance(node, (Add, Sub)):
        return type(node)(_diff(node.left, var), _diff(node.right, var))
    if isinstance(node, Mul):
        return Add(Mul(_diff(node.left, var), node.right),
                   Mul(node.left, _diff(node.right, var)))
    if isinstance(node, Div):
        return Div(Sub(Mul(_diff(node.left, var), node.right),
                       Mul(node.left, _diff(node.right, var))),
                   Pow(node.right, 2.0))
    if isinstance(node, Pow):
        c = node.exponent
        if c == 0.0:
            return Const(0.0)
        return Mul(Mul(Const(c), Pow(node.base, c - 1.0)), _diff(node.base, var))
    if isinstance(node, Call):
        return Mul(_CHAIN[node.func](node.arg), _diff(node.arg, var))
    raise TypeError(f"not an Expr node: {node!r}")


_ARITH = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def fold(node: Expr) -> Expr:
    """Constant folding plus trivial 0/1 identities; no other simplification.
    A Const is always finite."""
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Neg):
        a = fold(node.arg)
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(node, (Add, Sub, Mul, Div)):
        a, b = fold(node.left), fold(node.right)
        if isinstance(a, Const) and isinstance(b, Const):
            # keep a division by zero or an overflow: evaluation reports it
            if not (isinstance(node, Div) and b.value == 0.0):
                value = _ARITH[type(node)](a.value, b.value)
                if math.isfinite(value):
                    return Const(value)
            return type(node)(a, b)
        if isinstance(node, Add):
            if isinstance(a, Const) and a.value == 0.0:
                return b
            if isinstance(b, Const) and b.value == 0.0:
                return a
            return Add(a, b)
        if isinstance(node, Sub):
            if isinstance(b, Const) and b.value == 0.0:
                return a
            if isinstance(a, Const) and a.value == 0.0:
                return fold(Neg(b))
            return Sub(a, b)
        if isinstance(node, Mul):
            for u, v in ((a, b), (b, a)):
                if isinstance(u, Const):
                    if u.value == 0.0:
                        return Const(0.0)
                    if u.value == 1.0:
                        return v
                    if u.value == -1.0:
                        return fold(Neg(v))
            return Mul(a, b)
        if isinstance(b, Const) and b.value == 1.0:
            return a
        if isinstance(a, Const) and a.value == 0.0 and not (isinstance(b, Const) and b.value == 0.0):
            return Const(0.0)
        return Div(a, b)
    if isinstance(node, Pow):
        base = fold(node.base)
        if node.exponent == 1.0:
            return base
        if node.exponent == 0.0:
            return Const(1.0)
        if isinstance(base, Const):
            try:
                return Const(math.pow(base.value, node.exponent))
            except (ValueError, OverflowError):
                return Pow(base, node.exponent)
        return Pow(base, node.exponent)
    if isinstance(node, Call):
        arg = fold(node.arg)
        if isinstance(arg, Const):
            try:
                return Const(FUNCTIONS[node.func](arg.value))
            except (ValueError, OverflowError):   # math raises on overflow
                return Call(node.func, arg)
        return Call(node.func, arg)
    raise TypeError(f"not an Expr node: {node!r}")


def variables_of(expr: Expr) -> frozenset[str]:
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    return frozenset().union(*(variables_of(getattr(expr, f))
                               for f in _SUBTREES if hasattr(expr, f)))


# precedence levels for printing: + - (1), * / (2), unary - (3), ^ (4)
def _to_str(node, parent_prec):
    if isinstance(node, Const):
        v = node.value
        sign = "-" if math.copysign(1.0, v) < 0 else ""       # -0.0 prints as -0
        text = sign + repr(int(abs(v))) if v == int(v) and abs(v) < 1e15 else repr(v)
        return f"({text})" if sign and parent_prec > 1 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = f"-{_to_str(node.arg, 3)}"
        return f"({inner})" if parent_prec > 2 else inner
    if isinstance(node, (Add, Sub)):
        inner = f"{_to_str(node.left, 1)} {_SYMBOL[type(node)]} {_to_str(node.right, 2)}"
        return f"({inner})" if parent_prec > 1 else inner
    if isinstance(node, (Mul, Div)):
        inner = f"{_to_str(node.left, 2)}{_SYMBOL[type(node)]}{_to_str(node.right, 3)}"
        return f"({inner})" if parent_prec > 2 else inner
    if isinstance(node, Pow):
        e = node.exponent
        e_text = repr(int(e)) if e == int(e) and abs(e) < 1e15 else repr(e)
        if e < 0:
            e_text = f"({e_text})"
        inner = f"{_to_str(node.base, 5)}^{e_text}"
        return f"({inner})" if parent_prec > 4 else inner
    if isinstance(node, Call):
        return f"{node.func}({_to_str(node.arg, 0)})"
    raise TypeError(f"not an Expr node: {node!r}")
