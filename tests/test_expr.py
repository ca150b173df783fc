import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsetree.expr import (
    FUNCTIONS,
    OPERATORS,
    VARIABLES,
    BinOp,
    Call,
    CoefficientExpr,
    EvalError,
    ExprError,
    Lit,
    Neg,
    Var,
    _require_finite,
    eval_expr,
    parse_expr,
)


def test_clamp_identity():
    expr = parse_expr("min(1, max(x, 0))")
    assert eval_expr(expr, {"x": 2}) == 1.0


def test_basic_arithmetic():
    assert eval_expr(parse_expr("x + 0.5*t"), {"x": 1, "t": 2}) == 2.0


def test_literal_needs_no_bindings():
    assert eval_expr(parse_expr("3"), {}) == 3.0


def test_range_expression():
    assert eval_expr(parse_expr("xmax - xmin"), {"xmax": 2, "xmin": 0.5}) == 1.5


def test_syntax_error_carries_offset():
    with pytest.raises(ExprError) as err:
        parse_expr("x +")
    assert err.value.offset == 3


def test_division_by_zero_is_an_error():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1/x"), {"x": 0})


def test_division_by_zero_not_masked_by_outer_ops():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("min(1/x, 5)"), {"x": 0})


def test_exp_overflow_is_an_error():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("exp(x)"), {"x": 1e9})


def test_unbound_variable():
    with pytest.raises(EvalError, match="unbound variable 'xavg'"):
        eval_expr(parse_expr("xavg + 1"), {"x": 0})


def test_unknown_identifier():
    with pytest.raises(ExprError, match="unknown identifier"):
        parse_expr("y + 1")


def test_unknown_function():
    with pytest.raises(ExprError, match="unknown function"):
        parse_expr("sqrt(x)")


def test_function_used_bare():
    with pytest.raises(ExprError, match="must be called"):
        parse_expr("min + 1")


def test_wrong_arity():
    with pytest.raises(ExprError, match="expects 3 argument"):
        parse_expr("clamp(x, 0)")
    with pytest.raises(ExprError, match="expects 1 argument"):
        parse_expr("abs(x, 1)")


def test_trailing_garbage():
    with pytest.raises(ExprError, match="trailing"):
        parse_expr("x 1")


def test_unexpected_character():
    with pytest.raises(ExprError) as err:
        parse_expr("x ^ 2")
    assert err.value.offset == 2


def test_scientific_notation():
    assert eval_expr(parse_expr("1e-9"), {}) == 1e-9
    assert eval_expr(parse_expr("2.5E+2"), {}) == 250.0


def test_unary_minus_precedence():
    # '-' binds tighter than '*': -x*y is (-x)*y
    assert eval_expr(parse_expr("-x*x"), {"x": 3}) == -9.0
    assert eval_expr(parse_expr("-(x*x)"), {"x": 3}) == -9.0
    assert eval_expr(parse_expr("2 - -3"), {}) == 5.0


def test_left_associativity():
    assert eval_expr(parse_expr("8 - 3 - 2"), {}) == 3.0
    assert eval_expr(parse_expr("8/4/2"), {}) == 1.0


def test_array_environment_broadcasts():
    expr = parse_expr("clamp(x + t, 0, 1)")
    x = np.array([-2.0, 0.25, 7.0])
    out = eval_expr(expr, {"x": x, "t": 0.5})
    np.testing.assert_array_equal(out, [0.0, 0.75, 1.0])


def test_eval_is_pure_and_bit_identical():
    expr = parse_expr("exp(x/3) + xmax*xmin - 0.1")
    env = {"x": 0.7071067811865476, "xmax": 1.1, "xmin": -2.2}
    first = eval_expr(expr, env)
    for _ in range(5):
        assert eval_expr(expr, env) == first


def test_variables_collection():
    expr = parse_expr("clamp(x + u, 0, xmax)")
    assert expr.variables == {"x", "u", "xmax"}


@pytest.mark.parametrize(
    "source",
    [
        "x + 0.5*t",
        "min(1, max(x, 0))",
        "-(x + 1)*2",
        "x - (xmin - xavg) - 1",
        "clamp(exp(-x/2), 0, 10)",
        "1e-9*xmax + 2.5E+2",
        "x/t/u",
        "abs(-x)",
        "-x + 1",
        "-x - xmax*2",
    ],
)
def test_sources_evaluate_as_python_reads_them(source):
    """Precedence and associativity are Python's: the same numpy operations
    in the same order give the same bits."""
    env = {"t": 2.0, "x": 0.3, "xmax": 1.5, "xmin": -0.7, "xavg": 0.4, "u": 3.0}
    names = {
        "min": np.minimum, "max": np.maximum, "abs": np.abs, "exp": np.exp,
        "clamp": lambda v, lo, hi: np.minimum(np.maximum(v, lo), hi),
        **{name: np.float64(v) for name, v in env.items()},
    }
    assert eval_expr(parse_expr(source), env) == eval(source, {"__builtins__": {}}, names)


_literals = st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False).map(
    lambda v: Lit(abs(float(v)))
)
_leaves = st.one_of(_literals, st.sampled_from(VARIABLES).map(Var))


def _compound(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: BinOp(t[0], t[1], t[2])),
        children.map(Neg),
        # A negated left operand of + or - is where the unary and additive
        # precedences meet; drawn on its own it is not rare.
        st.tuples(st.sampled_from("+-"), children.map(Neg), children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
        children.map(lambda c: Call("abs", (c,))),
        children.map(lambda c: Call("exp", (c,))),
        st.tuples(children, children, children).map(lambda t: Call("clamp", t)),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaves, _compound, max_leaves=20))
def test_parse_reads_back_any_ast_printed_with_fewest_parentheses(node):
    # Precedence levels: 1 for + and -, 2 for * and /, 3 for unary minus.
    # A node is wrapped only where its level is below its context's, so a
    # negation as the left operand of + or - is printed bare, as "-a + b".
    def source(n, context=0):
        if isinstance(n, Lit):
            return repr(n.value)
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Neg):
            text = "-" + source(n.operand, 3)
            return f"({text})" if context > 1 else text
        if isinstance(n, BinOp):
            prec = 1 if n.op in "+-" else 2
            text = f"{source(n.left, prec)} {n.op} {source(n.right, prec + 1)}"
            return f"({text})" if context > prec else text
        return f"{n.func}({', '.join(source(arg) for arg in n.args)})"

    assert parse_expr(source(node)) == CoefficientExpr(node)


def _checked_at_every_node(node, env):
    """The evaluation that checked the result of every operator and
    function: the reference for the one that skips the functions whose
    finite arguments give a finite result."""
    if isinstance(node, Lit):
        return np.float64(node.value)
    if isinstance(node, Var):
        value = env[node.name]
        return _require_finite(value if isinstance(value, np.ndarray) else np.float64(value), f"variable '{node.name}'")
    if isinstance(node, Neg):
        return -_checked_at_every_node(node.operand, env)
    if isinstance(node, BinOp):
        left, right = _checked_at_every_node(node.left, env), _checked_at_every_node(node.right, env)
        return _require_finite(OPERATORS[node.op][1](left, right), f"operator '{node.op}'")
    args = [_checked_at_every_node(arg, env) for arg in node.args]
    return _require_finite(FUNCTIONS[node.func][1](*args), f"function '{node.func}'")


# Literals up to and past the float range (1e999 parses to inf), and
# variables whose values overflow a product or an exp.
_extreme_leaves = st.one_of(
    st.sampled_from([0.0, 0.5, 3.0, 700.0, 1e200, 1e308, float("inf")]).map(Lit),
    st.sampled_from(VARIABLES).map(Var),
)
_EXTREME_ENV = {
    "t": 2.0,
    "x": np.array([0.3, -1e300, 1e300, 710.0]),
    "xmax": np.array([1.5, 1e308, -2.0, 0.0]),
    "xmin": -0.7,
    "xavg": np.array([0.4, 0.0, -0.0, 1e-300]),
    "u": np.array([[3.0], [-1e200]]),
}


@settings(max_examples=400, deadline=None)
@given(st.recursive(_extreme_leaves, _compound, max_leaves=12))
def test_only_overflowing_nodes_are_checked_with_the_same_errors(node):
    """The same bits, or the same EvalError naming the same node, as the
    evaluation that checked every operator and function."""
    try:
        with np.errstate(all="ignore"):
            want = _checked_at_every_node(node, _EXTREME_ENV)
    except EvalError as exc:
        with pytest.raises(EvalError) as got:
            eval_expr(CoefficientExpr(node), _EXTREME_ENV)
        assert str(got.value) == str(exc)
        return
    got = eval_expr(CoefficientExpr(node), _EXTREME_ENV)
    assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize(
    "source, node",
    [("abs(1e999)", "function 'abs'"), ("max(x, 1e999)", "function 'max'"), ("clamp(x, -1e999, 0)", None),
     ("min(-1e999, x)", "function 'min'"), ("clamp(x, 0, 1e999) + 1", None), ("-1e999", None)],
)
def test_a_non_finite_literal_is_caught_by_the_function_it_reaches(source, node):
    """abs, min, max and clamp are checked only where a literal argument is
    not finite, and then raise where the result is not; a bare or negated
    literal is not checked, as before."""
    env = {"x": np.array([0.5, -2.0])}
    if node is None:
        eval_expr(parse_expr(source), env)
    else:
        with pytest.raises(EvalError, match=f"non-finite result in {node}"):
            eval_expr(parse_expr(source), env)
