"""Expression parsing, evaluation, and symbolic differentiation."""
import gc
import math
import random
import re
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canal4.canal import RadiusProfile
from canal4.curve import CurveSpec
from canal4.errors import DomainError, ExprSyntaxError, UnknownFunctionError
from canal4.expr import (FUNCTIONS, MAX_NESTING, Add, Call, Const, Derived, Div, Mul, Neg, Nodes,
                         Pow, Sub, Var, compile_expr, differentiate, evaluate, fold, over, parse,
                         variables_of)
from oracles import (reference_compile_expr, reference_differentiate, reference_fold,
                     reference_to_str)


def test_parse_linear():
    e = parse("2*s")
    assert evaluate(e, s=3.0) == 6.0


def test_parse_example_component():
    e = parse("2*sinh(s)")
    assert evaluate(e, s=1.0) == pytest.approx(2 * math.sinh(1.0), rel=1e-15)


def test_double_star_is_syntax_error():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2**s")
    assert err.value.offset == 2


def test_unknown_function():
    with pytest.raises(UnknownFunctionError):
        parse("sech(s)")


def test_unknown_variable_offset():
    with pytest.raises(ExprSyntaxError):
        parse("2*t")          # only s allowed by default


def test_precedence():
    assert evaluate(parse("2+3*4"), s=0.0) == 14.0
    assert evaluate(parse("2*s^2"), s=3.0) == 18.0
    assert evaluate(parse("-s^2"), s=2.0) == -4.0       # ^ binds before unary -
    assert evaluate(parse("2-3-4"), s=0.0) == -5.0      # left associative
    assert evaluate(parse("16/4/2"), s=0.0) == 2.0
    assert evaluate(parse("s^-2"), s=2.0) == 0.25


def test_nonconstant_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("2^s")


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(s)"), s=-1.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(s)"), s=0.0)
    with pytest.raises(DomainError):
        evaluate(parse("1/s"), s=0.0)
    with pytest.raises(DomainError):
        evaluate(parse("exp(s)"), s=1e6)   # overflow reported, not inf


@pytest.mark.parametrize("text, expected", [
    (".5e-3*s", [("num", 5e-4, 0), ("op", "*", 5), ("name", "s", 6)]),
    ("5.+x_1", [("num", 5.0, 0), ("op", "+", 2), ("name", "x_1", 3)]),
    ("2e+", [("num", 2.0, 0), ("name", "e", 1), ("op", "+", 2)]),   # no digits: no exponent
    ("1.2.3", [("num", 1.2, 0), ("num", 0.3, 3)]),             # the second dot starts a number
    (".", "bad number '.'"), ("9e999", "out of range")])
def test_number_and_name_tokens(text, expected):
    """A number is digits with at most one dot, and an exponent only if
    digits follow its e; a name is letters, digits and underscores."""
    from canal4.expr import _tokenize
    if isinstance(expected, str):
        with pytest.raises(ExprSyntaxError, match=expected):
            _tokenize(text)
    else:
        assert _tokenize(text) == expected + [("end", "", len(text))]


def test_missing_variable_is_a_domain_error():
    with pytest.raises(DomainError, match="'t'"):
        evaluate(parse("s + t", ("s", "t")), s=1.0)


def test_overflowing_literal_is_a_syntax_error():
    with pytest.raises(ExprSyntaxError):
        parse("1e309")


def test_overflowing_constant_product_is_a_domain_error():
    e = parse("1e308*10*s")
    assert "1e+308" in str(e)             # not folded to a non-finite constant
    with pytest.raises(DomainError):
        evaluate(e, s=1.0)
    with pytest.raises(DomainError):
        compile_expr(e)(1.0)


def test_compiled_function_reports_domain_errors():
    with pytest.raises(DomainError):
        compile_expr(parse("exp(s)"))(1e6)
    with pytest.raises(DomainError):
        compile_expr(parse("1/s"))(0.0)


@pytest.mark.parametrize("nested", [lambda n: "-" * n + "s",
                                    lambda n: "(" * n + "s" + ")" * n,
                                    lambda n: "sin(" * n + "s" + ")" * n,
                                    lambda n: "+".join(["s"] * (n + 1)),
                                    lambda n: "s^" + "(" + "+".join(["1"] * (n + 1)) + ")"],
                         ids=["minus", "parens", "calls", "sum", "exponent"])
def test_parse_nesting_bound(nested):
    """MAX_NESTING levels parse; more are a syntax error, not a RecursionError
    (a sum of n + 1 terms nests n levels)."""
    parse(nested(MAX_NESTING))
    for n in (MAX_NESTING + 1, 30 * MAX_NESTING):
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_NESTING} levels"):
            parse(nested(n))


def test_parse_reports_trailing_input_before_depth():
    """The unfolded depth is checked once the whole text has parsed, so a text
    both too deep and followed by more input reports the trailing input."""
    with pytest.raises(ExprSyntaxError, match=r"^trailing input '\)' \(at offset 102\)$"):
        parse("-" * 101 + "s)")
    with pytest.raises(ExprSyntaxError,
                       match=r"^expression nested deeper than 100 levels \(at offset 1\)$"):
        parse("s^(" + "-" * 101 + "2) + s)")


def test_parse_builds_in_the_given_table_and_derived_drops_it():
    """parse builds its folded nodes in the table it is given: they are that
    table's nodes, and the same text gives the same object. A CurveSpec holds
    the table its components were parsed into until it derives them; a derived
    CurveSpec or RadiusProfile holds no table."""
    nodes = Nodes()
    for text in ("2*sinh(s)", "-(-(s)) + 0*s", "s^(1+1) * 3/1"):
        node = parse(text, nodes=nodes)
        assert nodes.fold(node) is node and parse(text, nodes=nodes) is node
    curve = CurveSpec(("2*sinh(s)", "2*cosh(s)", "sqrt(3)*cos(s)", "sqrt(3)*sin(s)"), (0.25, 3.0))
    assert isinstance(curve.derived._nodes, Nodes)
    curve.frame(1.0)
    for derived in (curve.derived, RadiusProfile.from_expr("2*s").derived):
        assert not any(isinstance(v, Nodes) for v in vars(derived).values())


@pytest.mark.parametrize("depth", [300, 5000])
def test_a_deep_tree_compiles_and_fails_with_a_domain_error(depth):
    """A tree parse would not give (differentiate may), nested deeper than
    Python's compiler or its recursion limit allow, compiles: it gives the
    bits of the sum, and a call that fails raises DomainError, its message
    printing the whole tree, not RecursionError."""
    tree, total = Var("s"), 0.3
    for _ in range(depth):
        tree, total = Add(tree, Var("s")), total + 0.3
    fn = compile_expr(tree, name="r")
    assert fn(0.3).hex() == total.hex()
    with pytest.raises(DomainError) as err:
        fn(1e308)
    assert str(err.value) == f"r(s) = {' + '.join(['s'] * (depth + 1))} at s=1e+308: non-finite value inf"


@pytest.mark.parametrize("text, message", [
    ("1/(s-1) + log(s-2)*log(s-2)",
     "f(s) = 1/(s - 1) + log(s - 2)*log(s - 2) at s=1.0: math domain error"),
    ("sqrt(s-2) + 1/(s-1)/(s-1) + (1/(s-1))^2",
     "f(s) = sqrt(s - 2) + 1/(s - 1)/(s - 1) + (1/(s - 1))^2 at s=1.0: float division by zero")])
def test_a_failing_call_meets_the_errors_in_the_order_of_temps_then_inline(text, message):
    """The steps run as Python code with a temp per node read more than once
    ran them: a temp (log(s - 2); 1/(s - 1)) runs before the inline steps of
    the line that first reads it, so at s = 1 the first text meets log's
    error before the division by zero, and the second the division before
    sqrt's error. A post-order step list would swap both messages."""
    with pytest.raises(DomainError) as err:
        compile_expr(parse(text), name="f")(1.0)
    assert str(err.value) == message


def test_eval_cosh():
    assert evaluate(parse("2*cosh(s)"), s=0.0) == 2.0


def test_differentiate_basics():
    assert differentiate(parse("2*s")) == Const(2.0)
    d = differentiate(parse("sinh(s)"))
    assert evaluate(d, s=0.7) == pytest.approx(math.cosh(0.7), rel=1e-15)
    # second derivative of a linear radius vanishes identically
    assert differentiate(differentiate(parse("2*s"))) == Const(0.0)


def test_differentiate_quotient_and_power():
    e = parse("(s^2+1)/(s+2)")
    d = differentiate(e)
    h = 1e-6
    fd = (evaluate(e, s=1.3 + h) - evaluate(e, s=1.3 - h)) / (2 * h)
    assert evaluate(d, s=1.3) == pytest.approx(fd, abs=1e-8)


def test_multivariable_internal_parse():
    e = parse("w*cos(t) + s", ("s", "t", "w"))
    assert variables_of(e) == frozenset(("s", "t", "w"))
    assert evaluate(e, s=1.0, t=0.0, w=2.0) == 3.0


# ---------------------------------------------------------------------------
# random expression battery: symbolic derivative vs central finite difference

_FUNCS = ("sin", "cos", "sinh", "cosh", "tanh", "exp", "sqrt", "log")


def _random_expr(rng, depth):
    if depth == 0:
        return random.Random(rng.random()).choice(
            [f"{rng.uniform(0.3, 2.5):.4f}", "s", "s"])
    kind = rng.randrange(6)
    if kind == 0:
        return f"({_random_expr(rng, depth - 1)} + {_random_expr(rng, depth - 1)})"
    if kind == 1:
        return f"({_random_expr(rng, depth - 1)} - {_random_expr(rng, depth - 1)})"
    if kind == 2:
        return f"({_random_expr(rng, depth - 1)} * {_random_expr(rng, depth - 1)})"
    if kind == 3:
        # keep the denominator positive
        return f"({_random_expr(rng, depth - 1)} / ({_random_expr(rng, depth - 1)}^2 + 1))"
    if kind == 4:
        fn = _FUNCS[rng.randrange(len(_FUNCS))]
        arg = _random_expr(rng, depth - 1)
        if fn in ("sqrt", "log"):
            arg = f"(({arg})^2 + 0.5)"
        if fn == "exp":
            arg = f"(({arg}) / 4)"
        return f"{fn}({arg})"
    return f"({_random_expr(rng, depth - 1)})^{rng.choice([2, 3, 0.5, -1])}"


def test_derivative_matches_finite_difference_battery():
    rng = random.Random(987)
    checked = 0
    while checked < 100:
        text = _random_expr(rng, rng.randint(1, 3))
        e = parse(text)
        d = differentiate(e)
        s = rng.uniform(0.3, 1.5)
        h = 1e-5
        try:
            vm, vp = evaluate(e, s=s - h), evaluate(e, s=s + h)
            val = evaluate(e, s=s)
            dv = evaluate(d, s=s)
        except DomainError:
            continue
        if max(abs(vm), abs(vp), abs(val), abs(dv)) > 1e5:
            continue
        fd = (vp - vm) / (2 * h)
        assert abs(dv - fd) <= 1e-6 * (1.0 + abs(dv)), text
        checked += 1


def test_print_parse_round_trip():
    rng = random.Random(2718)
    for _ in range(60):
        text = _random_expr(rng, rng.randint(1, 3))
        e = parse(text)
        e2 = parse(str(e))
        for s in (0.4, 0.9, 1.4):
            try:
                a = evaluate(e, s=s)
            except DomainError:
                continue
            assert evaluate(e2, s=s) == pytest.approx(a, rel=1e-12, abs=1e-12)


@settings(max_examples=60)
@given(st.floats(min_value=-2, max_value=2, allow_nan=False),
       st.floats(min_value=0.2, max_value=2, allow_nan=False))
def test_polynomial_identity(a, b):
    e = parse(f"({a!r}) + ({b!r})*s^2")
    s = 0.7
    assert evaluate(e, s=s) == pytest.approx(a + b * s * s, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# array passes: the bits of the scalar calls, or None and the scalar error

_LEAVES = st.one_of(st.just(Var("s")), st.sampled_from([0.0, 1.0, -2.5, 0.5, 3.0]).map(Const),
                    st.floats(-4.0, 4.0, allow_nan=False).map(Const))


def _grow(children):
    return st.one_of(
        children.map(Neg),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([Add, Sub, Mul, Div]), children,
                  children),
        st.builds(Pow, children, st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 1.5, 1 / 3])),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), children))


_TREES = st.recursive(_LEAVES, _grow, max_leaves=10)
# points where log, sqrt, fractional powers, 1/s, exp and cosh fail or overflow
_POINTS = st.lists(st.one_of(st.sampled_from([0.0, -1.0, 1.0, 0.5, -0.5, 2.0, 750.0, -750.0]),
                             st.floats(-3.0, 3.0, allow_nan=False)), min_size=1, max_size=6)


def _values(tree, points):
    """The tree at each point through Derived.values: the floats of the array
    pass of its one function, else its scalar calls, point by point."""
    return [x for (x,) in Derived(("f",), (tree,), 0).values(points, 0)]


def _scalar_calls(fn, points):
    """[fn(p) for p in points] as hex strings (the sign of a zero counts), or
    the first DomainError."""
    try:
        return [fn(p).hex() for p in points]
    except DomainError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(_TREES, _POINTS, st.booleans())
def test_array_pass_gives_the_scalar_bits_or_the_scalar_error(tree, points, folded):
    """Every function, ^ with negative and fractional exponents, constant
    components: over gives the bits of the scalar calls, or None; where a
    scalar call fails it gives None, and Derived.values (of the folded tree)
    raises the scalar loop's first error, with its type and message."""
    fn = compile_expr(fold(tree) if folded else tree, name="f")
    expected = _scalar_calls(fn, points)
    out = over((fn,), np.array(points))
    if isinstance(expected, DomainError):
        assert out is None
    elif out is not None:       # None also where an overflow the scalar calls survive traps
        assert [x.hex() for x in out[0].tolist()] == expected
    expected = _scalar_calls(compile_expr(fold(tree), name="f"), points)
    if isinstance(expected, DomainError):
        with pytest.raises(DomainError) as err:
            _values(tree, points)
        assert type(err.value) is type(expected) and str(err.value) == str(expected)
    else:
        assert [x.hex() for x in _values(tree, points)] == expected


def _outcome(fn, point):
    """fn(point) as hex (a list of them, or None, for a list), or its DomainError's type and text."""
    try:
        value = fn(point)
    except DomainError as exc:
        return type(exc), str(exc)
    return value.hex() if type(value) is float else value and [x.hex() for x in value]


def _agree(expr_, points, name=None):
    """compile_expr and the source reference of expr_ give the same scalar
    bits, or DomainError type and message, at each point, and the same array
    pass bits, or None."""
    fn, ref = compile_expr(expr_, name=name), reference_compile_expr(expr_, name=name)
    assert [_outcome(fn, p) for p in points] == [_outcome(ref, p) for p in points]
    passes = [over((f,), np.array(points)) for f in (fn, ref)]
    got, want = [None if a is None else [x.hex() for x in a.ravel().tolist()] for a in passes]
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.lists(_TREES, min_size=1, max_size=4), _POINTS, st.booleans())
def test_step_lists_give_the_source_references_results(trees, points, interned):
    """compile_expr and the source reference (tests/oracles.py: Python code
    with a temp per node read more than once, compiled) agree on each tree,
    raw or interned in one table, and on a list of them that shares nodes."""
    if interned:
        nodes = Nodes()
        trees = [nodes.fold(t) for t in trees]
    for tree in trees:
        _agree(tree, points, "f")
    _agree([*trees, Add(trees[0], trees[-1]), Neg(trees[0])], points)


_BIG = Add(Const(1e300), Const(1e300))      # 2e300, folded by CPython; a temp where shared


@pytest.mark.parametrize("expr_", [
    Mul(Div(Const(1.0), Mul(Const(1e308), Const(10.0))), Var("s")),       # folds through inf to 0
    Div(Mul(Mul(Const(1e308), Const(10.0)), Var("s")), Const(0.0)),       # keeps inf: no array pass
    Add(Div(Const(1.0), Const(0.0)), Var("s")),                            # not folded: raises
    [_BIG, Call("exp", Neg(Mul(_BIG, Const(1e10)))), Mul(_BIG, Var("s"))],   # a temp is not folded
    [Call("exp", Neg(Mul(_BIG, Const(1e10)))), _BIG]])
def test_step_lists_fold_constants_as_the_source_reference_does(expr_):
    """A + - * / or unary minus of inline constants folds at compile, into
    the value CPython folds it to; a division by zero does not fold, and a
    temp is a name, which does not fold into its readers: the array pass
    exists where the reference's code holds only finite constants."""
    _agree(expr_, [0.5, 1.0, -2.0], None if isinstance(expr_, list) else "f")


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_trees_print_as_the_recursive_reference_prints_them(tree):
    """str prints each tree, raw or folded, as the recursive printer of
    tests/oracles.py does."""
    for t in (tree, fold(tree)):
        assert str(t) == reference_to_str(t)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_print_parse_round_trip_is_exact(tree):
    """A folded tree prints to text that parses back to the same tree, each
    constant bit for bit (repr tells -0.0 from 0.0): a reloaded patch takes
    its frames from the curve re-parsed from str(component)."""
    folded = fold(tree)
    back = parse(str(folded))
    assert back == folded and repr(back) == repr(folded)


def test_array_pass_runs_for_curves_and_constants():
    """The pass vouches for ordinary components, constants included."""
    s = np.array([0.3, 1.1, 2.9])
    fns = [compile_expr(parse(t)) for t in ("2*sinh(s)", "sqrt(3)*cos(s)", "0", "s^-2 + log(s)")]
    out = over(fns, s)
    assert out is not None and out.shape == (4, 3)
    assert out.tolist() == [[fn(x) for x in s.tolist()] for fn in fns]


@pytest.mark.parametrize("text", ["exp(-1/(s - 1.1))", "1/(1/(s - 1.1))", "tanh(1/(s - 1.1))",
                                  "exp(-(1e308*10*s)/(s - 1.1))", "1/(1e308*10*s/(s - 1.1))"])
def test_array_pass_traps_an_inf_that_would_vanish(text):
    """1/0 is inf in numpy, and exp(-inf), 1/inf and tanh(inf) are finite:
    the pass traps the division (and has no pass for a literal that Python
    folds to inf), so the scalar call's ZeroDivisionError stays."""
    fn = compile_expr(parse(text), name="f")
    assert over((fn,), np.array([1.1])) is None
    with pytest.raises(DomainError, match=r"^f\(s\) = .* at s=1.1: float division by zero"):
        _values(parse(text), [1.1])


def test_an_array_pass_drops_each_value_after_its_last_read(varying_curvature_curve):
    """Derived.array of the varying curve's orders 0-4 at 20,000 values (a
    3.2 MB result) peaks, as tracemalloc counts, below 7.2 MB: the source
    compiler's function (its temps live until it returns) peaked at 7.05 MB,
    and the pin adds 2%. A step list that kept every value would peak near
    12.8 MB; dropping each after its last read, it peaks near 6.4 MB."""
    s = np.linspace(0.3, 1.6, 20_000)
    varying_curvature_curve.derived.array(s[:10], 0, 1, 2, 3, 4)       # derived and compiled
    gc.collect()
    tracemalloc.start()
    try:
        out = varying_curvature_curve.derived.array(s, 0, 1, 2, 3, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 3_200_000 and peak < 7_200_000, peak


# ---------------------------------------------------------------------------
# interned derivation and the one compiled function per curve

def _reference_orders(components):
    """Orders 0..4 of the components as trees from the two-pass reference, up
    to the first it refuses, and that refusal's message (or None)."""
    orders = [tuple(components)]
    while len(orders) < 5:
        try:
            orders.append(tuple(reference_differentiate(c) for c in orders[-1]))
        except ExprSyntaxError as exc:
            return orders, str(exc)
    return orders, None


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_interned_derivatives_are_the_reference_trees(tree):
    """fold and orders 1..4 of differentiate, taken in one Nodes table, equal
    the two-pass tree reference, each constant bit for bit; the refusal
    comes at the same order with the same message."""
    assert repr(fold(tree)) == repr(reference_fold(tree))
    (_, *expected), refusal = _reference_orders([tree])
    nodes, got = Nodes(), tree
    for (want,) in expected:
        got = differentiate(got, nodes=nodes)
        assert repr(got) == repr(want)
    if refusal is not None:
        with pytest.raises(ExprSyntaxError, match=f"^{re.escape(refusal)}$"):
            differentiate(got, nodes=nodes)


def _hex_or_error(fn, point):
    try:
        return fn(point).hex()
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(_TREES, min_size=4, max_size=4), _POINTS)
def test_one_function_per_curve_gives_each_components_own_bits(trees, points):
    """A curve's derivatives through its one compiled function: derivative(s, k)
    has the bits of compile_expr on each reference component alone, or raises
    the first component's DomainError (or the refusal) with its text; an array
    pass of derivatives has the bits of those functions' array pass, and is
    None where theirs is. compile_expr of the list of every order's nodes
    agrees with each output's own function, or gives None where one raises."""
    curve = CurveSpec(trees, (-1e3, 1e3))
    assert list(map(repr, curve.components)) == [repr(reference_fold(t)) for t in trees]
    orders, refusal = _reference_orders(curve.components)
    for k in range(5):
        if k == len(orders):
            with pytest.raises(ExprSyntaxError, match=f"^{re.escape(refusal)}$"):
                curve.derivative(points[0], k)
            break
        fns = [compile_expr(c, name=f"x{i}" + "'" * k) for i, c in enumerate(orders[k], 1)]
        for p in points:
            expected = [_hex_or_error(fn, p) for fn in fns]
            error = next((e for e in expected if isinstance(e, tuple)), None)
            if error is None:
                assert [x.hex() for x in curve.derivative(p, k)] == expected
            else:
                with pytest.raises(error[0]) as err:
                    curve.derivative(p, k)
                assert str(err.value) == error[1]
        got, want = curve.derivatives(points, k), over(fns, np.array(points))
        if got is not None:
            assert want is not None and got[0].T.tolist() == want.tolist()
        assert want is not None or got is None
    nodes = Nodes()
    outputs = [[nodes.fold(t) for t in trees]]
    for _ in orders[1:]:
        outputs.append(tuple(differentiate(c, nodes=nodes) for c in outputs[-1]))
    outputs = [c for order in outputs for c in order]
    shared, alone = compile_expr(outputs), [compile_expr(c) for c in outputs]
    for p in points:
        expected = [_hex_or_error(fn, p) for fn in alone]
        got = shared(p)
        if got is None:
            assert any(isinstance(e, tuple) for e in expected)
        else:
            assert [x.hex() for x in got] == expected
    got, want = over((shared,), np.array(points)), over(alone, np.array(points))
    assert (got is None and want is None) or got.tolist() == want.tolist()


@settings(max_examples=150, deadline=None)
@given(_TREES, _POINTS)
def test_one_function_per_radius_gives_each_orders_own_bits(tree, points):
    """A radius through its one compiled function: r, r' and r'' of
    from_expr(tree) each have the bits of compile_expr on the reference order
    alone, or raise its DomainError with the same text, and the constructor
    raises the reference's refusal of r' or r''. The array pass of the three
    orders has the bits of those functions' array pass, and is None where
    theirs is."""
    orders, refusal = _reference_orders([reference_fold(tree)])
    if len(orders) < 3:
        with pytest.raises(ExprSyntaxError, match=f"^{re.escape(refusal)}$"):
            RadiusProfile.from_expr(tree)
        return
    radius = RadiusProfile.from_expr(tree)
    assert radius.generator == ("expr", str(orders[0][0]))
    fns = [compile_expr(c, name="r" + "'" * k) for k, (c,) in enumerate(orders[:3])]
    for got, want in zip((radius.r, radius.r_prime, radius.r_second), fns):
        for p in points:
            assert _hex_or_error(got, p) == _hex_or_error(want, p)
    got = radius.derived.array(np.array(points), 0, 1, 2)
    want = over(fns, np.array(points))
    assert (got is None) == (want is None)
    assert got is None or got[:, 0].tolist() == want.tolist()

    def sweep(rows):    # each row's bits, or the first DomainError's type and text
        try:
            return [[x.hex() for x in row] for row in rows]
        except DomainError as exc:
            return type(exc), str(exc)
    # a sweep of r', r, r'' is the scalar loop's, point by point and order by order
    assert sweep(radius.derived.values(points, 1, 0, 2)) == sweep(
        [fns[k](p) for k in (1, 0, 2)] for p in points)


def _retained(use, args):
    """Bytes still allocated after 200 calls of use, cycling through args,
    once each has run before and the collector has run after."""
    for a in args:
        use(*a)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(200):
            use(*args[i % len(args)])
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _held(fn):
    """The objects fn's closures hold, through cells, lists, tuples, sets and dicts."""
    held, todo = {}, [fn]
    while todo:
        obj = todo.pop()
        if id(obj) not in held:
            held[id(obj)] = obj
            if isinstance(obj, types.FunctionType):
                todo += [obj.__code__, *(cell.cell_contents for cell in obj.__closure__ or ())]
            elif isinstance(obj, (list, tuple, set, frozenset, dict)):
                todo += [*obj, *obj.values()] if isinstance(obj, dict) else obj
    return list(held.values())


def test_curve_specs_retain_no_memory(monkeypatch):
    """Building and using a CurveSpec or a RadiusProfile leaves nothing behind
    once it is dropped, and a compiled function keeps no code object or
    string made for it."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import inputs

    def use(components, domain):
        curve = CurveSpec(components, domain)
        sweep = curve.sweep(20)
        curve.frames(sweep)
        curve.frame(sweep[3])
        return [curve.derivative(sweep[5], k) for k in range(5)]

    curves = [(comps, domain) for comps, domain, _ in inputs.CURVES.values()]
    retained = _retained(use, curves)
    assert retained < 16 * 1024, f"{retained} bytes retained by 200 curves"

    def use_radius(kind, text, domain):
        radius = (RadiusProfile.from_expr(text) if kind == "expr"
                  else RadiusProfile.from_constant(float(text)))
        sweep = np.linspace(*domain, 20)
        radius.derived.array(sweep, 0, 1, 2)
        return ([radius.r(sweep[3]), radius.r_prime(sweep[4]), radius.r_second(sweep[5])],
                list(radius.derived.values(sweep.tolist(), 1, 0, 2)))

    radii = [(f.radius_kind, f.radius, f.domain) for f in inputs.families(3).values()
             if f.radius_kind in ("expr", "constant")]
    retained = _retained(use_radius, radii)
    assert retained < 16 * 1024, f"{retained} bytes retained by 200 radius profiles"
    # the code objects and strings that two compiles of one list hold (through
    # the closures of the function and its array pass) are the same objects
    nodes = Nodes()
    b = [nodes.fold(parse(c)) for c in curves[0][0]]           # b and b'' share their nodes
    outputs = [*b, *(differentiate(differentiate(c, nodes=nodes), nodes=nodes) for c in b)]
    first, second = [[*_held(fn), *_held(fn.array)] for fn in map(compile_expr, [outputs] * 2)]
    for kind in (types.CodeType, str):
        kept = [{id(x) for x in held if type(x) is kind} for held in (first, second)]
        assert kept[0] == kept[1] and (kind is str or kept[0])
