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

Parsing, folding and differentiation build nodes in a Nodes table, which
interns them: equal subtrees are one object, fold's rules apply as each node is
built (on children folded already, so the parser builds no unfolded tree), and
each node is folded and differentiated once, so a curve's derivatives of orders
1..4 form one small DAG. Derived parses or folds its sources into the table
that derives them, and drops it once derived. compile_expr turns an
expression, or a list of them, into a step list (a Wengert list); Derived
compiles a curve's b .. b'''' (20 components), or a radius' r, r', r'', into
one, each distinct sin, cosh, ... evaluated once per call or array pass.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import re
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
    base: Expr
    exponent: float         # a constant


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


# the fields of each node type that hold a subtree
_KIDS = {cls: tuple(f for f in cls.__match_args__ if f in ("left", "right", "arg", "base"))
         for cls in (Const, Var, Neg, Pow, Call, Add, Sub, Mul, Div)}


def _fields(node):      # in the order its class takes them
    return [getattr(node, f) for f in node.__match_args__]


# ---------------------------------------------------------------------------
# tokenizer / parser

_OPS = set("+-*/^()")
# How deep parentheses, and the tree, may nest: the parser recurses through the
# one, fold and differentiate through the other
MAX_NESTING = 100
MAX_DERIVATIVE_NODES = 10_000      # of a derivative tree (the product rule copies)


# a number: digits with at most one dot, and an exponent only if digits follow
_NUMBER, _NAME = re.compile(r"\d*\.?\d*(?:[eE][+-]?\d+)?"), re.compile(r"\w*")


def _tokenize(text):
    tokens, i, n, depth = [], 0, len(text), 0      # tokens: (kind, value, offset)
    while i < n:
        c = text[i]
        j = i + 1       # the end of the token at i
        if c in _OPS:
            depth += (c == "(") - (c == ")")
            if depth > MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING} levels", i)
            tokens.append(("op", c, i))
        elif c.isdigit() or c == ".":
            j = _NUMBER.match(text, i).end()
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", i)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text[i:j]!r} is out of range", i)
            tokens.append(("num", value, i))
        elif c.isalpha() or c == "_":
            j = _NAME.match(text, i).end()
            tokens.append(("name", text[i:j], i))
        elif not c.isspace():
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
        i = j
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Builds each node through nodes.new, so fold's rules apply as it parses;
    each parse_* gives (node, the height of its unfolded tree above its leaves)."""

    def __init__(self, tokens, variables, nodes):
        self.tokens, self.pos, self.variables, self.new = tokens, 0, variables, nodes.new

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def parse_expr(self):
        return self._binary("+-", (Add, Sub), self.parse_term)

    def parse_term(self):
        return self._binary("*/", (Mul, Div), self.parse_unary)

    def _binary(self, ops, types, operand):
        """operand (op operand)* over the ops, left-associative."""
        node, height = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            cls = types[ops.index(self.advance()[1])]
            right, right_height = operand()
            node, height = self.new(cls, node, right), 1 + max(height, right_height)
        return node, height

    def _minus_signs(self):
        """How many '-' tokens come next; they are consumed."""
        start = self.pos
        while self.peek()[:2] == ("op", "-"):
            self.pos += 1
        return self.pos - start

    def parse_unary(self):
        signs = self._minus_signs()
        node, height = self.parse_power()
        for _ in range(signs):
            node = self.new(Neg, node)
        return node, height + signs

    def parse_power(self):
        node, height = self.parse_atom()
        while self.peek()[:2] == ("op", "^"):
            offset = self.advance()[2]
            sign = (-1.0) ** self._minus_signs()        # a leading sign on the exponent atom
            exp_node, exp_height = self.parse_atom()
            _shallow(exp_height, offset)
            if not isinstance(exp_node, Const):
                raise ExprSyntaxError("exponent must be a constant", offset)
            node, height = self.new(Pow, node, sign * exp_node.value), height + 1
        return node, height

    def parse_atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return self.new(Const, value), 0
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {value!r}")
                arg, height = self.parse_atom()             # '(' expr ')'
                return self.new(Call, value, arg), height + 1
            if value in self.variables:
                return self.new(Var, value), 0
            raise ExprSyntaxError(f"unknown variable {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            kind, value, offset = self.advance()
            if kind != "op" or value != ")":
                raise ExprSyntaxError("expected ')'", offset)
            return node
        raise ExprSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)


def parse(text: str, variables: tuple[str, ...] = ("s",), nodes: Nodes | None = None) -> Expr:
    """Parse expression text into a folded expression, built in nodes (a new
    table by default). Raises ExprSyntaxError/UnknownFunctionError, also for a
    number literal that overflows and for nesting deeper than MAX_NESTING."""
    parser = _Parser(_tokenize(text), variables, Nodes() if nodes is None else nodes)
    node, height = parser.parse_expr()
    kind, value, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {value!r}", offset)
    _shallow(height, 0)
    return node


def _shallow(height, offset):
    """ExprSyntaxError if an unfolded tree nests deeper than MAX_NESTING levels above its leaves."""
    if height > MAX_NESTING:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_NESTING} levels", offset)


# ---------------------------------------------------------------------------
# evaluation: one step list

_ARITH = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
# each step's function, by its node type (a Call's by its function's name)
_NAMESPACE = {**FUNCTIONS, Pow: math.pow, Neg: operator.neg, **_ARITH}


def _per_element(fn):
    """fn through math on each element of an array (numpy's exp, cosh and
    power may differ from libm in the last bit), or on a float."""
    def apply(x, *args):
        if not isinstance(x, np.ndarray):
            return fn(x, *args)
        return np.fromiter(map(fn, x.tolist(), *map(itertools.repeat, args)), float, len(x))
    return apply


# the array passes' functions: + - * /, unary minus (Python's operators) and
# sqrt run in numpy, which rounds them correctly, as Python floats do
_ARRAY_NAMESPACE = {**_NAMESPACE, **{k: _per_element(_NAMESPACE[k]) for k in [*FUNCTIONS, Pow]},
                    "sqrt": np.sqrt}


def _domain_error(expr, variables, values, problem, name):
    """DomainError for a math error or a non-finite value at these values."""
    where = ", ".join(f"{k}={v!r}" for k, v in zip(variables, values))
    what = f"{name}({', '.join(variables)}) = {expr}" if name else str(expr)
    return DomainError(f"{what} at {where}: {problem}")


def compile_expr(expr: Expr | list[Expr], variables: tuple[str, ...] = ("s",),
                 name: str | None = None):
    """Compile to a positional function of the variables that runs _steps'
    steps over floats. Math errors and non-finite results raise DomainError
    instead of returning NaN/Inf; its message names the function (such as r'
    or x2'') when name is given. Its array attribute, over's pass, runs the
    same steps over arrays; None if a constant they read is not finite
    (1e308*10 folds to inf, which 1e308*10*s/0 would carry past the trapped
    division into exp(-inf) = 0).

    A list of expressions compiles to one function giving their values as a
    list, each node they share evaluated once, with the bits of each one's
    own compile_expr; None where it cannot vouch for every value (a math
    error, a non-finite value), and each one's own function decides. Its
    array attribute gives the list of arrays (a constant stays a float).
    Lists, not tuples: CPython 3.11 keeps each dropped tuple of 20 items on
    a free list that it never takes one back from, up to 2,000 (368 KiB)."""
    many = isinstance(expr, list)
    values, outs, steps, finite = _steps(expr if many else [expr], variables)
    fn = _runner([(_NAMESPACE[key], i, j, k) for key, i, j, k, _ in steps], values, outs, many)

    def checked(*values):
        try:
            value = fn(*values)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            if many:
                return None
            raise _domain_error(expr, variables, values, exc, name) from exc
        if many:
            return value if all(map(math.isfinite, value)) else None
        if math.isfinite(value):
            return value
        raise _domain_error(expr, variables, values, f"non-finite value {value!r}", name)
    checked.array = _runner([(_ARRAY_NAMESPACE[key], i, j, k) for key, i, j, k, _ in steps],
                            values, outs, many, [drop for *_, drop in steps]) if finite else None
    return checked


def _runner(steps, values, outs, many, drops=None):
    """The function of the variables that runs steps (fn, i, j, k) on slots v, the
    variables' values then values: each sets v[k] to fn(v[i]) (j None) or fn(v[i],
    v[j]), then each slot of its drops entry (an array pass's) to None; gives v at outs."""
    def run(*args):
        v = [*args, *values]
        if drops is None:
            for fn, i, j, k in steps:
                v[k] = fn(v[i]) if j is None else fn(v[i], v[j])
        else:
            for (fn, i, j, k), drop in zip(steps, drops):
                v[k] = fn(v[i]) if j is None else fn(v[i], v[j])
                for d in drop:
                    v[d] = None
        return [v[k] for k in outs] if many else v[outs[0]]
    return run


def _steps(outputs, variables):
    """One walk of the outputs' DAG: the slots' values after the variables'
    (a constant's; None for a step's), the outputs' slots, the steps (key in
    _NAMESPACE, i, j, k, the slots it reads last; see _runner) and whether
    the constants they read are finite. They run as Python code of the
    outputs would, with a temp per node read more than once, assigned before
    the line that first reads it, and the rest inline, left to right. A + - *
    / or unary minus of inline constants runs here, as CPython folds it (not
    a division by zero); a temp is a name, which it does not fold further."""
    nv, values, uses, slots, literal, post, todo = len(variables), [], {}, {}, set(), [], outputs[::-1]

    def new(value):             # a new slot after the variables', holding value
        values.append(value)
        return nv + len(values) - 1

    while todo:     # post: (node, its operands' ids, where its walk began), after its operands'
        node = todo.pop()
        cls, key = type(node), id(node)
        if cls is tuple:
            post.append(node)
        elif key in uses:
            uses[key] += 1
        elif cls is Var:
            uses[key], slots[key] = 1, variables.index(node.name)
        elif cls is Const:
            uses[key], slots[key] = 1, new(node.value)
            literal.add(key)
        elif cls in _KIDS:
            uses[key], kids = 1, [getattr(node, f) for f in _KIDS[cls]]
            todo += [(node, [*map(id, kids)], len(post)), *kids[::-1]]
        else:
            raise TypeError(f"not an Expr node: {node!r}")
    steps, pending, marks = [], [], []      # the steps in order; the inline ones not yet run
    for node, kids, start in post:
        marks.append(len(pending))
        cls, key = type(node), id(node)
        if (cls is Neg or cls in _ARITH) and literal.issuperset(kids):
            with contextlib.suppress(ZeroDivisionError):
                slots[key] = new(_NAMESPACE[cls](*[values[slots[kid] - nv] for kid in kids]))
                if uses[key] == 1:
                    literal.add(key)
                continue
        j = slots[kids[1]] if len(kids) == 2 else new(node.exponent) if cls is Pow else None
        slots[key] = new(None)
        pending.append((node.func if cls is Call else cls, slots[kids[0]], j, slots[key]))
        if uses[key] > 1:       # a temp: its line runs now, the inline steps of its walk first
            steps += pending[marks[start]:]
            del pending[marks[start]:]
    steps += pending
    outs, later, drops = [slots[id(out)] for out in outputs], {None}, []
    later.update(outs)          # the slots read after the step
    for _, i, j, _ in reversed(steps):
        drops.append(tuple({i, j} - later))
        later |= {i, j}
    kept = [values[k - nv] for k in later - {None} if k >= nv]      # a step's value is None
    return (values, outs, [(*step, drop) for step, drop in zip(steps, drops[::-1])],
            all(math.isfinite(x) for x in kept if x is not None))


def over(fns, *columns):
    """The compiled functions fns at each element of the aligned float arrays
    columns in one array pass: an (outputs, n) array with the bits of their
    scalar calls, a row per output (a list's in order), or None where the
    pass cannot vouch for every element (no array pass, an IEEE exception, a
    math error); the scalar calls decide then. With every IEEE exception
    trapped, no inf or nan forms in the pass."""
    passes = [fn.array for fn in fns]
    if None in passes:
        return None
    rows = []
    try:
        with np.errstate(all="raise", under="ignore"):
            for array_pass in passes:
                value = array_pass(*columns)
                rows += value if type(value) is list else (value,)
    except (ArithmeticError, ValueError):           # FloatingPointError or math's errors
        return None
    out = np.empty((len(rows), len(columns[0])))
    for k, row in enumerate(rows):
        out[k] = row                                # a constant fills its row
    return out if np.isfinite(out).all() else None


class Derived:
    """Named expressions of s (a curve's x1..x4, a radius r) and their derivatives
    to max_order. Each source, text or tree, is parsed or folded into one Nodes
    table (exprs), in which the orders are derived on first use, up to the first
    order that differentiate refuses, and compiled into one function of all their
    values; the table is dropped then. Where that function gives None, each
    order's own functions decide with single compiles' errors: compiled per name
    on first use, or given (one name's, order 0 first)."""

    def __init__(self, names, sources, max_order, given=()):
        nodes = Nodes()
        self.names, self._max_order = names, max_order
        self.exprs = tuple(parse(c, nodes=nodes) if isinstance(c, str) else nodes.fold(c)
                           for c in sources)
        # the table until derive and each order's expressions (none if given), the one
        # function of them all, the refused order's (error, message), at's last (s, call)
        # and values' last (the bytes of its points, pass)
        self._nodes, self._orders = (None, []) if given else (nodes, None)
        self._all, self._refusal, self._last, self._pass = None, None, (None, None), (None, None)
        self._own = {k: [f] for k, f in enumerate(given)}     # order -> its own functions

    def derive(self, order=0):
        """The one function (None if given its functions), derived and compiled once;
        raises the refusal if differentiate refused an order up to order."""
        if self._orders is None:
            nodes, self._nodes, self._orders = self._nodes, None, [self.exprs]
            try:
                while len(self._orders) <= self._max_order:
                    self._orders.append([differentiate(e, nodes=nodes) for e in self._orders[-1]])
            except (ExprSyntaxError, RecursionError) as exc:
                self._refusal = type(exc), str(exc)
            self._all = compile_expr([e for k in self._orders for e in k])
        if order >= len(self._orders) and self._refusal:
            raise self._refusal[0](self._refusal[1])
        return self._all

    def _functions(self, order):
        """The order's own functions, compiled on first use."""
        if order not in self._own:
            self.derive(order)
            self._own[order] = [compile_expr(e, name=name + "'" * order)
                                for name, e in zip(self.names, self._orders[order])]
        return self._own[order]

    def at(self, s):
        """A function of each order k giving its values at s (a tuple, one per name):
        a slice of one call of the one function, else order k's own functions.
        The last call is kept: at the same s object again, the function is not called."""
        fn = self.derive()
        if s is not self._last[0]:
            self._last = s, None if fn is None else fn(s)
        out = self._last[1]
        n, derived = len(self.names), len(self._orders)
        return lambda k: tuple(out[n * k:n * k + n] if out is not None and k < derived
                               else [f(s) for f in self._functions(k)])

    def function(self, order):
        """The first name's order as a callable of s, through at."""
        return lambda s: self.at(s)(order)[0]

    def array(self, s, *orders):
        """The orders' values at the float array s in one array pass of the one
        function, an (orders, names, n) array with at's bits; None where it
        does not cover them or over cannot vouch for them, and at decides."""
        fn = self.derive()
        out = None if fn is None or max(orders) >= len(self._orders) else over((fn,), s)
        return None if out is None else out.reshape(-1, len(self.names), len(s))[list(orders)]

    def values(self, points, *orders):
        """The orders' values at each point, one flat sequence per point: array's
        rows, else at's point by point as a loop asks, meeting each point's error.
        The last pass, of every order, is kept: points of the same bits again
        (one admissibility sweep, read three times) run no pass."""
        s = np.array(points, dtype=float)
        if s.tobytes() != self._pass[0]:
            self._pass = s.tobytes(), self.derive() and self.array(s, *range(len(self._orders)))
        out = self._pass[1]
        if out is None or max(orders) >= len(out):
            return (list(itertools.chain.from_iterable(map(self.at(s), orders))) for s in points)
        return out[list(orders)].reshape(-1, len(points)).T.tolist()


def evaluate(expr: Expr, **env: float) -> float:
    """compile_expr on the variables given, called once; a variable the
    expression needs but env lacks raises DomainError."""
    missing = variables_of(expr) - env.keys()
    if missing:
        raise DomainError(f"no value supplied for variable {min(missing)!r}")
    return compile_expr(expr, tuple(env))(*env.values())


# ---------------------------------------------------------------------------
# constant folding and differentiation over interned nodes

# fold's rule for each node type, on subtrees folded already: a node of table n,
# or None where the node stays as it is
def _neg(n, a):
    if type(a) is Const:
        return n.new(Const, -a.value)
    return a.arg if type(a) is Neg else None


def _binary(cls, n, a, b):
    """Two constants combine unless the result is not finite or a division by
    zero (evaluation reports it); else x+0, 0+x, x-0, 0-x, 0*x, 1*x, -1*x, x/1, 0/x."""
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb:
        if not (cls is Div and b.value == 0.0):
            value = _ARITH[cls](a.value, b.value)
            if math.isfinite(value):
                return n.new(Const, value)
    elif cls is Mul:
        u, v = (a, b) if ca else (b, a)
        if type(u) is Const and u.value in (0.0, 1.0, -1.0):
            return n.new(Const, 0.0) if u.value == 0.0 else v if u.value == 1.0 else n.new(Neg, v)
    elif cb and b.value == (1.0 if cls is Div else 0.0):
        return a
    elif ca and a.value == 0.0:
        return b if cls is Add else n.new(Neg, b) if cls is Sub else n.new(Const, 0.0)


def _pow(n, base, exponent):
    if exponent == 1.0 or exponent == 0.0:
        return base if exponent else n.new(Const, 1.0)
    if type(base) is Const:
        with contextlib.suppress(ValueError, OverflowError):
            return n.new(Const, math.pow(base.value, exponent))


def _call(n, func, arg):
    if type(arg) is Const:
        with contextlib.suppress(ValueError, OverflowError):      # math raises on overflow
            return n.new(Const, FUNCTIONS[func](arg.value))


_RULES = {Neg: _neg, Pow: _pow, Call: _call, **{cls: functools.partial(_binary, cls) for cls in _ARITH}}


class Nodes:
    """A table of interned nodes: each distinct node built here is one object,
    so repeated subtrees are shared (a DAG). new applies fold's rules as it
    builds; fold, d and size are memoized per node, so each node is folded
    and differentiated once."""

    def __init__(self):
        self._table = {}        # (class, *fields as keys) -> node
        self._folds = {}        # id(node) -> node folded, for each node of the table and input
        self._inputs = []       # the input nodes folded, kept alive while their ids are keys
        self._derivs, self._sizes = {}, {}      # (var, id(node)) -> (node, derivative); sizes

    def new(self, cls, *fields):
        """cls(*fields) folded, its subtrees folded nodes of this table: fold's
        rule for cls applied, else the node of this table."""
        rule = _RULES.get(cls)
        node = rule(self, *fields) if rule else None
        if node is None:        # the key: each child by identity, a float with its sign
            key = (cls, *[id(f) if isinstance(f, Expr) else (f, math.copysign(1.0, f))
                          if type(f) is float else f for f in fields])
            node = self._table.get(key)
            if node is None:
                node = self._table[key] = self._folds[id(node)] = cls(*fields)
        return node

    def fold(self, node):
        """node folded into this table: constant folding plus trivial 0/1 identities."""
        out = self._folds.get(id(node))
        if out is None:
            if type(node) not in _KIDS:
                raise TypeError(f"not an Expr node: {node!r}")
            out = self._folds[id(node)] = self.new(type(node), *[
                self.fold(f) if isinstance(f, Expr) else f for f in _fields(node)])
            self._inputs.append(node)
        return out

    def d(self, node, var="s"):
        """The derivative of node in var, folded."""
        hit = self._derivs.get((var, id(node)))
        if hit is None:
            hit = self._derivs[var, id(node)] = node, self._d(node, var)
        return hit[1]

    def _d(self, x, var):
        cls, d, f, new = type(x), self.d, self.fold, self.new
        if cls is Const or cls is Var:
            return new(Const, 1.0 if cls is Var and x.name == var else 0.0)
        if cls is Neg:
            return new(Neg, d(x.arg, var))
        if cls is Add or cls is Sub:
            return new(cls, d(x.left, var), d(x.right, var))
        if cls is Pow:
            if x.exponent == 0.0:
                return new(Const, 0.0)
            return new(Mul, new(Mul, new(Const, x.exponent), new(Pow, f(x.base), x.exponent - 1.0)),
                       d(x.base, var))
        if cls is Call:
            return new(Mul, self._outer(_OUTER[x.func], f(x.arg)), d(x.arg, var))
        if cls is not Mul and cls is not Div:
            raise TypeError(f"not an Expr node: {x!r}")
        left, right = new(Mul, d(x.left, var), f(x.right)), new(Mul, f(x.left), d(x.right, var))
        if cls is Mul:
            return new(Add, left, right)
        return new(Div, new(Sub, left, right), new(Pow, f(x.right), 2.0))

    def _outer(self, t, u):
        """f'(u): the template t of _OUTER with u for its variable, folded."""
        return u if type(t) is Var else self.new(type(t), *[
            self._outer(f, u) if isinstance(f, Expr) else f for f in _fields(t)])

    def size(self, node):
        """The nodes of node's tree (one of this table's), a shared subtree counted at each use."""
        if id(node) not in self._sizes:
            self._sizes[id(node)] = 1 + sum(self.size(getattr(node, f)) for f in _KIDS[type(node)])
        return self._sizes[id(node)]


def differentiate(expr: Expr, var: str = "s", nodes: Nodes | None = None) -> Expr:
    """Exact symbolic derivative, constant-folded, built in nodes (a new
    table by default: derivatives taken in one table share their nodes and
    each node's derivative); ExprSyntaxError past MAX_DERIVATIVE_NODES nodes
    of its tree, before the next order is taken of it."""
    nodes = Nodes() if nodes is None else nodes
    out = nodes.d(expr, var)
    size = nodes.size(out)
    if size > MAX_DERIVATIVE_NODES:
        raise ExprSyntaxError(f"expression too large to differentiate: a derivative of "
                              f"{size} nodes, more than {MAX_DERIVATIVE_NODES}")
    return out


def fold(node: Expr) -> Expr:
    """Constant folding plus trivial 0/1 identities; no other simplification.
    A Const is always finite. Repeated subtrees of the result are one object."""
    return Nodes().fold(node)


# f'(u) of each function, a template in the variable u
_OUTER = {name: parse(text, ("u",)) for name, text in (
    ("sin", "cos(u)"), ("cos", "-sin(u)"), ("sinh", "cosh(u)"), ("cosh", "sinh(u)"),
    ("tan", "1/cos(u)^2"), ("tanh", "1 - tanh(u)^2"), ("exp", "exp(u)"), ("log", "1/u"),
    ("sqrt", "1/(2*sqrt(u))"))}


def variables_of(expr: Expr) -> frozenset[str]:
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    return frozenset().union(*(variables_of(getattr(expr, f)) for f in _KIDS[type(expr)]))


_SYMBOL = {Add: (" + ", 1), Sub: (" - ", 1), Mul: ("*", 2), Div: ("/", 2)}


def _to_str(root, prec):
    """root's text under an operator of precedence prec (+ - 1, * / 2, unary
    - 3, ^ 4), from a stack of texts and (subtree, precedence) pieces, so a
    tree of any depth prints."""
    out, todo = [], [(root, prec)]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        (node, prec), cls = piece, type(piece[0])
        if cls is Const:
            v = node.value
            sign = "-" if math.copysign(1.0, v) < 0 else ""       # -0.0 prints as -0
            text = sign + repr(int(abs(v))) if v == int(v) and abs(v) < 1e15 else repr(v)
            parts, wrap = [text], sign and prec > 1
        elif cls is Var or cls is Call:
            parts, wrap = [node.name] if cls is Var else [f"{node.func}(", (node.arg, 0), ")"], False
        elif cls is Neg:
            parts, wrap = ["-", (node.arg, 3)], prec > 2
        elif cls in _SYMBOL:
            symbol, level = _SYMBOL[cls]
            parts, wrap = [(node.left, level), symbol, (node.right, level + 1)], prec > level
        elif cls is Pow:
            e = node.exponent
            e_text = repr(int(e)) if e == int(e) and abs(e) < 1e15 else repr(e)
            parts, wrap = [(node.base, 5), f"^({e_text})" if e < 0 else f"^{e_text}"], prec > 4
        else:
            raise TypeError(f"not an Expr node: {node!r}")
        todo += reversed(["(", *parts, ")"] if wrap else parts)
    return "".join(out)
