import math
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvedq.jets import FUNCTIONS
from curvedq.shapes import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    ShapeDomainError,
    ShapeError,
    ShapeExpr,
    ShapeSyntaxError,
    UnknownIdentifierError,
    Var,
    eval_jet2,
    eval_jet3,
    format_expr,
    parse_shape,
)

from _helpers import (
    poly_derivative,
    poly_eval,
    poly_source,
    random_poly,
    random_shape_tree,
    random_smooth_source,
    tree_walk_jet,
)


def test_parse_and_evaluate_quadratic():
    expr = parse_shape("0.5*rho^2")
    assert eval_jet2(expr, 1.0).value == 0.5


def test_parse_hemisphere_shape():
    expr = parse_shape("sqrt(4 - rho^2)")
    assert eval_jet2(expr, 0.0).value == 2.0


def test_syntax_error_offset_and_expected_tokens():
    with pytest.raises(ShapeSyntaxError) as info:
        parse_shape("rho +")
    assert info.value.offset == 5
    assert any("number" in e for e in info.value.expected)


def test_trailing_garbage_is_a_syntax_error():
    with pytest.raises(ShapeSyntaxError) as info:
        parse_shape("2 rho")
    assert info.value.offset == 2


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as info:
        parse_shape("1 + foo")
    assert info.value.name == "foo" and info.value.offset == 4
    with pytest.raises(UnknownIdentifierError):
        parse_shape("foo(rho)")


def test_malformed_sources_refused_at_their_offset():
    for src, offset, expected, found in (
        ("1.2.3", 0, ("a number",), "1.2.3"),
        ("rho$2", 3, ("a number", "'rho'", "'pi'", "a function name", "an operator"), "$"),
        ("(1+rho", 6, ("')'", "an operator"), None),
        ("sin(rho", 7, ("')'", "an operator"), None),
    ):
        with pytest.raises(ShapeSyntaxError) as info:
            parse_shape(src)
        assert (info.value.offset, info.value.expected, info.value.found) == (offset, expected, found), src


def test_function_requires_parenthesis():
    with pytest.raises(ShapeSyntaxError):
        parse_shape("sin + 1")


def test_jet_of_square():
    jet = eval_jet2(parse_shape("rho^2"), 2.0)
    assert (jet.value, jet.d1, jet.d2) == (4.0, 4.0, 2.0)


def test_jet_of_hemisphere():
    # symbolic oracle: S' = -rho/sqrt(4-rho^2), S'' = -4/(4-rho^2)^1.5
    jet = eval_jet2(parse_shape("sqrt(4-rho^2)"), 1.0)
    assert jet.value == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert jet.d1 == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-14)
    assert jet.d2 == pytest.approx(-4.0 / 3.0**1.5, rel=1e-14)


def test_jet_of_constant():
    for rho in (0.0, 1.3, 7.0):
        jet = eval_jet2(parse_shape("3"), rho)
        assert (jet.value, jet.d1, jet.d2) == (3.0, 0.0, 0.0)


def test_pi_constant():
    assert eval_jet2(parse_shape("pi"), 1.0).value == math.pi
    assert eval_jet2(parse_shape("cos(pi)"), 0.5).value == -1.0


def test_power_binds_tighter_than_unary_minus():
    assert eval_jet2(parse_shape("-rho^2"), 3.0).value == -9.0


def test_power_right_associative():
    assert eval_jet2(parse_shape("2^3^2"), 1.0).value == 512.0


def test_negative_exponent():
    assert eval_jet2(parse_shape("rho^-2"), 2.0).value == 0.25


def test_whitespace_insensitive():
    a = parse_shape(" 1+ 2 *rho ^ 2 ")
    b = parse_shape("1+2*rho^2")
    assert format_expr(a) == format_expr(b)


def test_roundtrip_idempotent_on_cases():
    cases = [
        "0.5*rho^2",
        "sqrt(4 - rho^2)",
        "-(rho+1)*3",
        "1/(2*rho)",
        "2^3^2",
        "rho^-2",
        "sin(cos(rho))+pi",
        "-(-rho)",
        "(1+2)*rho",
        "1-(2-3)",
        "rho+sqrt(1e-200)",
        "rho+sqrt(1e-100)",
    ]
    for src in cases:
        once = format_expr(parse_shape(src))
        twice = format_expr(parse_shape(once))
        assert once == twice


def test_roundtrip_idempotent_on_random_expressions():
    rng = np.random.default_rng(3)
    for _ in range(100):
        src = random_smooth_source(rng)
        once = format_expr(parse_shape(src))
        twice = format_expr(parse_shape(once))
        assert once == twice


def test_random_polynomials_against_symbolic_oracle():
    rng = np.random.default_rng(17)
    for _ in range(150):
        coeffs = random_poly(rng, max_degree=6)
        expr = parse_shape(poly_source(coeffs))
        x = float(rng.uniform(-2.0, 2.0))
        jet = eval_jet2(expr, x)
        d1c = poly_derivative(coeffs)
        d2c = poly_derivative(d1c)
        scale = max(1.0, abs(jet.value), abs(jet.d1), abs(jet.d2))
        assert abs(jet.value - poly_eval(coeffs, x)) <= 1e-14 * scale
        assert abs(jet.d1 - poly_eval(d1c, x)) <= 1e-14 * scale
        assert abs(jet.d2 - poly_eval(d2c, x)) <= 1e-14 * scale


def test_smooth_expressions_against_finite_differences():
    rng = np.random.default_rng(23)
    step = 1e-5
    done = 0
    while done < 60:
        expr = parse_shape(random_smooth_source(rng))
        x = float(rng.uniform(0.2, 1.8))
        jet = eval_jet2(expr, x)
        plus = eval_jet2(expr, x + step)
        minus = eval_jet2(expr, x - step)
        fd1 = (plus.value - minus.value) / (2.0 * step)
        fd2 = (plus.d1 - minus.d1) / (2.0 * step)
        if abs(jet.d1) > 1e-3:
            assert abs(fd1 - jet.d1) / abs(jet.d1) <= 1e-7
        if abs(jet.d2) > 1e-3:
            assert abs(fd2 - jet.d2) / abs(jet.d2) <= 1e-7
        done += 1


def test_domain_error_reports_subexpression():
    expr = parse_shape("sqrt(4-rho^2)")
    with pytest.raises(ShapeDomainError) as info:
        eval_jet2(expr, 3.0)
    assert "sqrt" in str(info.value)
    assert info.value.rho == 3.0


def test_domain_errors():
    with pytest.raises(ShapeDomainError):
        eval_jet2(parse_shape("ln(rho-2)"), 1.0)
    with pytest.raises(ShapeDomainError):
        eval_jet2(parse_shape("1/(rho-1)"), 1.0)
    with pytest.raises(ShapeDomainError):
        eval_jet2(parse_shape("(-2)^0.5"), 1.0)
    with pytest.raises(ShapeDomainError):
        eval_jet2(parse_shape("exp(rho)"), 1000.0)  # overflow is a domain error


def test_overflow_is_reported_by_the_name_of_its_node():
    # Python's pow raises OverflowError(34, 'Numerical result out of range'), libm's exp
    # and the hyperbolics "math range error"
    for src, rho, reason in (
        ("(rho-cos(rho))^1e+20", 2.7, "power overflows"),
        ("2^rho", 2000.0, "power overflows"),
        ("rho^rho", 500.0, "power overflows"),
        ("exp(rho)", 1000.0, "exp overflows"),
        ("1+cosh(rho)", -1000.0, "cosh overflows"),
    ):
        expr = parse_shape(src)
        for evaluate, at in ((eval_jet2, rho), (eval_jet3, rho), (eval_jet3, np.array([1.0, rho]))):
            with pytest.raises(ShapeDomainError) as info:
                evaluate(expr, at)
            assert (info.value.reason, info.value.rho) == (reason, rho), src
    assert str(info.value) == "cosh overflows in 'cosh(rho)' at rho=-1000.0"


def test_a_power_whose_exponent_folds_to_no_integer_fails_at_each_evaluation():
    # int() refuses the folded exponent (inf, then nan), so the compiler keeps power's
    # general rule, which raises at every rho, on both carriers
    overflow = parse_shape("rho^(1e308*10)")
    for at, rho in ((0.5, 0.5), (np.array([1.5, 0.7]), 1.5)):
        with pytest.raises(ShapeDomainError) as info:
            eval_jet3(overflow, at)
        assert str(info.value) == f"power overflows in 'rho^(1e+308*10.0)' at rho={rho!r}"
    no_number = parse_shape("rho^(1e308*10-1e308*10)")
    for evaluate in (eval_jet2, eval_jet3):
        for at, rho in ((0.5, 0.5), (np.array([1.5, 0.7]), 1.5)):
            with pytest.raises(ShapeDomainError) as info:
                evaluate(no_number, at)
            assert (info.value.subexpr, info.value.rho) == (str(no_number), rho)


def test_sqrt_of_a_tiny_constant_is_smooth():
    # sqrt's d2 and d3 factors divide by r*v and r*v*v, which underflow to 0 at
    # v = 1e-200; an argument with no derivative multiplies both by zero, so they
    # are skipped and the shape is the line rho + 1e-100
    for src, shift in (("rho+sqrt(1e-200)", 1e-100), ("rho+sqrt(1e-100)", 1e-50)):
        expr = parse_shape(src)
        for rho in (0.5, 0.75, 1.0):
            assert eval_jet3(expr, rho) == (rho + shift, 1.0, 0.0, 0.0)
        _assert_array_is_stacked_scalar(expr, [0.5, 0.75, 1.0])
    assert eval_jet3(parse_shape("sqrt(1e-200)"), 0.5) == (1e-100, 0.0, 0.0, 0.0)


def test_eval_jet3_matches_jet2_and_adds_third_order():
    expr = parse_shape("sin(2*rho)+rho^3")
    j2 = eval_jet2(expr, 0.4)
    j3 = eval_jet3(expr, 0.4)
    assert j3.value == pytest.approx(j2.value, rel=1e-15)
    assert j3.d1 == pytest.approx(j2.d1, rel=1e-15)
    assert j3.d2 == pytest.approx(j2.d2, rel=1e-15)
    assert j3.d3 == pytest.approx(-8.0 * math.cos(0.8) + 6.0, rel=1e-13)


def test_number_formats():
    assert eval_jet2(parse_shape("1e3"), 0.0).value == 1000.0
    assert eval_jet2(parse_shape(".5"), 0.0).value == 0.5
    assert eval_jet2(parse_shape("2.5e-1"), 0.0).value == 0.25


def test_non_finite_literal_is_a_syntax_error():
    with pytest.raises(ShapeSyntaxError) as info:
        parse_shape("1e400+rho^2")
    assert info.value.offset == 0
    assert info.value.expected == ("a finite number",)
    assert info.value.found == "1e400"
    with pytest.raises(ShapeSyntaxError) as info:
        parse_shape("rho*2e999")
    assert info.value.offset == 4
    # underflow to zero is a finite literal
    assert eval_jet2(parse_shape("1e-400+rho"), 2.0).value == 2.0


def test_shape_expr_equality_hash_and_repr_ignore_the_kernel():
    a, b = parse_shape("sin(rho)^2+1/rho"), parse_shape("sin( rho ) ^ 2 + 1 / rho")
    assert a == b and hash(a) == hash(b)
    assert a.kernel is not b.kernel
    assert a != parse_shape("sin(rho)^2+1/rho+0")
    assert repr(a) == f"ShapeExpr(root={a.root!r})"
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and eval_jet3(copy, 0.7) == eval_jet3(a, 0.7)


_LITERALS = st.one_of(
    st.integers(-4, 4).map(float),
    st.sampled_from((0.5, -0.5, 1.5, -2.5, 1.0 / 3.0)),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _shape_trees(depth):
    """Syntax trees of the whole grammar, at most depth levels deep."""
    # builds, not map: one_of would flatten a mapped one_of into its branches
    # and draw rho for only one leaf in six
    leaves = st.one_of(st.just(Var()), st.builds(Num, _LITERALS), st.just(Const("pi")))
    trees = leaves
    for _ in range(depth - 1):
        sub = trees
        trees = st.one_of(
            leaves,
            st.builds(Neg, sub),
            st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
            st.builds(Call, st.sampled_from(FUNCTIONS), sub),
        )
    return trees


def _outcome(evaluate, *args):
    try:
        return tuple(float.hex(c) for c in evaluate(*args))
    except ShapeDomainError as exc:
        return ("ShapeDomainError", exc.reason, exc.subexpr, float.hex(exc.rho))


def _assert_kernel_is_tree_walk(expr, rho):
    assert _outcome(eval_jet3, expr, rho) == _outcome(tree_walk_jet, expr, rho, 4)
    assert _outcome(eval_jet2, expr, rho) == _outcome(tree_walk_jet, expr, rho, 3)


# ln of a tiny literal folds to the jet (c, 0, nan, nan), since -inf * 0 is nan: the
# exponent carries a derivative, so power takes exp(c ln rho), which refuses rho = 0.0
# in ln and has no finite d2 at rho = 2.0; power's rule for c would do neither
_TINY_LN_EXPONENT = BinOp("^", Var(), Call("ln", Num(7.561963962585517e-172)))


@settings(max_examples=1000, deadline=None)
@given(tree=_shape_trees(5), rho=st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-3.0, 3.0)))
@example(tree=_TINY_LN_EXPONENT, rho=0.0)
@example(tree=_TINY_LN_EXPONENT, rho=2.0)
def test_compiled_kernel_matches_tree_walk_bit_for_bit(tree, rho):
    _assert_kernel_is_tree_walk(ShapeExpr(tree), rho)


def test_compiled_kernel_matches_tree_walk_on_seeded_trees():
    # hypothesis tends to repeat a subtree within one tree, and a product of
    # two equal factors hides a reordered sum in the product rule; independent
    # draws do not
    rng = np.random.default_rng(5)
    for _ in range(500):
        expr = ShapeExpr(random_shape_tree(rng, 5))
        for rho in rng.uniform(-3.0, 3.0, size=4).tolist():
            _assert_kernel_is_tree_walk(expr, rho)


def _stacked_outcome(evaluate, expr, grid):
    """The scalar calls over grid stacked into four columns, or the first call's error."""
    try:
        jets = [evaluate(expr, rho) for rho in grid]
    except ShapeDomainError as exc:
        return ("ShapeDomainError", exc.reason, exc.subexpr, float.hex(exc.rho))
    return tuple(np.array([jet[k] for jet in jets], dtype=float).tobytes() for k in range(4))


def _array_outcome(evaluate, expr, grid):
    try:
        jet = evaluate(expr, np.array(grid, dtype=float))
    except ShapeDomainError as exc:
        return ("ShapeDomainError", exc.reason, exc.subexpr, float.hex(exc.rho))
    assert all(type(c) is np.ndarray and c.dtype == float and c.shape == (len(grid),) for c in jet)
    return tuple(c.tobytes() for c in jet)


def _assert_array_is_stacked_scalar(expr, grid):
    for evaluate in (eval_jet3, eval_jet2):
        assert _array_outcome(evaluate, expr, grid) == _stacked_outcome(evaluate, expr, grid), (
            evaluate.__name__, format_expr(expr), grid,
        )


_GRID_POINTS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-3.0, 3.0))


@settings(max_examples=1000, deadline=None)
@given(tree=_shape_trees(5), grid=st.lists(_GRID_POINTS, min_size=1, max_size=8))
def test_array_jets_are_the_scalar_jets_stacked_bit_for_bit(tree, grid):
    _assert_array_is_stacked_scalar(ShapeExpr(tree), grid)


def test_array_jets_are_the_scalar_jets_stacked_on_seeded_trees():
    rng = np.random.default_rng(7)
    for _ in range(500):
        expr = ShapeExpr(random_shape_tree(rng, 5))
        grid = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 7))).tolist()
        for zero in (0.0, -0.0):
            grid.insert(int(rng.integers(0, len(grid) + 1)), zero)
        _assert_array_is_stacked_scalar(expr, grid)


def test_array_jets_round_each_function_and_power_as_libm_does():
    # numpy's exp, tan, the hyperbolics and x**3 round unlike libm in 0.1-30%
    # of draws; 2000 points make a miss of any one of them improbable
    grid = np.random.default_rng(3).uniform(0.05, 3.0, size=2000).tolist()
    sources = [f"{name}(1.3*rho-0.4)" for name in FUNCTIONS if name not in ("ln", "sqrt")]
    sources += ["ln(rho)", "sqrt(rho)", "rho^2", "rho^3", "rho^-2", "rho^1.5", "(rho+1)^-2.5", "2^rho", "rho^rho"]
    for src in sources:
        _assert_array_is_stacked_scalar(parse_shape(src), grid)


def test_array_jets_fall_back_where_only_the_scalar_rules_raise():
    # sqrt's d2 divides by r*v, which underflows to 0 near 1e-250: a Python
    # float raises there, an array leaves d3 = inf, even for eval_jet2
    expr = parse_shape("sqrt(rho)")
    grid = [1.0, 1e-250, 4.0]
    for evaluate in (eval_jet2, eval_jet3):
        with pytest.raises(ShapeDomainError) as info:
            evaluate(expr, np.array(grid))
        assert (info.value.reason, info.value.rho) == ("float division by zero", 1e-250)
    # a d3 that overflows is no error for eval_jet2, which returns it as the scalar calls do
    fast = parse_shape("sin(1e103*rho)")
    grid = [0.5, 1.0]
    assert not np.isfinite(eval_jet2(fast, np.array(grid)).d3[0])
    assert _array_outcome(eval_jet2, fast, grid) == _stacked_outcome(eval_jet2, fast, grid)
    with pytest.raises(ShapeDomainError, match="non-finite"):
        eval_jet3(fast, np.array(grid))


def test_an_empty_grid_of_a_shape_that_fails_everywhere_names_the_failing_node():
    # a subtree free of rho that leaves its domain fails at each evaluation; an empty
    # grid has no point to replay, so the array kernel's own guard reports the node
    cases = (
        ("rho+sqrt(-2)", "math domain error", "sqrt(-2.0)"),
        ("rho*(1/0)", "division by zero", "1.0/0.0"),
        ("exp(exp(pi*pi))*rho", "exp overflows", "exp(exp(pi*pi))"),
    )
    for src, reason, subexpr in cases:
        for evaluate in (eval_jet2, eval_jet3):
            with pytest.raises(ShapeDomainError) as info:
                evaluate(parse_shape(src), np.array([]))
            assert (info.value.reason, info.value.subexpr) == (reason, subexpr)
            assert info.value.rho.shape == (0,)
    assert all(c.shape == (0,) for c in eval_jet3(parse_shape("sqrt(rho)"), np.array([])))


def _nodes(node):
    """node and every node below it."""
    yield node
    if isinstance(node, (Neg, Call)):
        yield from _nodes(node.arg)
    elif isinstance(node, BinOp):
        yield from _nodes(node.left)
        yield from _nodes(node.right)


# few literals and functions, so that equal trees come up among distinct ones
_SMALL_TREES = st.recursive(
    st.one_of(st.just(Var()), st.builds(Num, st.sampled_from((1.0, 2.0))), st.just(Const("pi"))),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*^"), sub, sub),
        st.builds(Call, st.sampled_from(("sin", "exp")), sub),
    ),
    max_leaves=4,
)


@settings(max_examples=300, deadline=None)
@given(trees=st.lists(_SMALL_TREES, min_size=2, max_size=8))
def test_parsed_trees_are_equal_exactly_where_their_canonical_text_is(trees):
    parsed = [parse_shape(format_expr(ShapeExpr(tree))) for tree in trees]
    for a in parsed:
        for b in parsed:
            same_text = str(a) == str(b)
            assert (a.root == b.root) == (a == b) == same_text
            if same_text:
                assert hash(a.root) == hash(b.root) and hash(a) == hash(b)


def test_syntax_tree_nodes_are_immutable_and_round_trip_repr_and_pickle():
    namespace = {cls.__name__: cls for cls in (Num, Const, Var, Neg, BinOp, Call)}
    nodes = list(_nodes(parse_shape("-sin(pi*rho)^2/(1.5+rho)-cosh(-rho)").root))
    assert {type(node).__name__ for node in nodes} == set(namespace)
    for node in nodes:
        assert eval(repr(node), namespace) == node
        assert pickle.loads(pickle.dumps(node)) == node
        for name in type(node).__annotations__:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):  # not even past the class's own __setattr__
                object.__setattr__(node, name, None)
        with pytest.raises(AttributeError):
            node.extra = None


# -- the nesting bound ---------------------------------------------------------

_TOO_DEEP = ("at most 200 levels of nesting",)


def test_sources_nested_past_the_bound_are_refused_at_the_token_past_it():
    assert MAX_DEPTH == 200
    for src, offset, found in (
        ("(" * 201 + "rho" + ")" * 201, 200, "("),  # the 201st '(' opens level 201
        ("-" * 201 + "rho", 200, "-"),
        ("sqrt(" * 201 + "rho" + ")" * 201, 1004, "("),
        ("rho" + "^rho" * 201, 803, "^"),  # each '^' opens a level for its right operand
        ("+".join(["rho"] * 202), 803, "+"),  # the 201st '+' puts 201 operators on a path
        ("/".join(["rho"] * 202), 803, "/"),
        ("-(" + "+".join(["rho"] * 201) + ")", 0, "-"),
        ("sin(" + "*".join(["rho"] * 201) + ")", 0, "sin"),
    ):
        with pytest.raises(ShapeSyntaxError) as info:
            parse_shape(src)
        assert (info.value.offset, info.value.expected, info.value.found) == (offset, _TOO_DEEP, found), src[:12]


def _stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _from_depth(frames, call):
    """call() made with `frames` frames on the stack, or as many as there already are."""
    return call() if _stack_depth() >= frames else _from_depth(frames, call)


def test_sources_at_the_bound_compile_print_and_evaluate_from_a_deep_caller():
    assert _stack_depth() < 100
    for src in (
        "(" * 200 + "rho" + ")" * 200,
        "-" * 200 + "rho",
        "sqrt(" * 200 + "rho" + ")" * 200,  # three parser frames and two kernel frames a level
        "rho" + "^rho" * 200,
        "/".join(["rho"] * 201),
        "+".join(["rho"] * 201),
        "-(" + "+".join(["rho"] * 200) + ")",
    ):
        def whole():
            expr = parse_shape(src)
            assert parse_shape(format_expr(expr)) == expr
            return eval_jet3(expr, 0.7), eval_jet3(expr, np.array([0.7, 0.9]))

        scalar, grid = _from_depth(100, whole)
        assert all(math.isfinite(c) for c in scalar) and grid[0][0] == scalar[0], src[:12]
    # a failure at the deepest node is reported from there, with the float and on a grid
    failing = parse_shape("sqrt(" * 199 + "rho-1" + ")" * 199)
    for rho in (0.5, np.array([2.0, 0.5])):
        with pytest.raises(ShapeDomainError) as info:
            _from_depth(100, lambda: eval_jet3(failing, rho))
        assert (info.value.subexpr, info.value.rho) == ("sqrt(rho-1.0)", 0.5)


_SOURCE_PIECES = (
    "rho", "pi", *FUNCTIONS, "(", ")", "+", "-", "*", "/", "^", " ",
    "1", "2.5", ".5", "1e3", "2.5e-1", "1e400", "1.2.3", "e", ".", "x", "_", "$", "rhox",
)


@settings(max_examples=1000, deadline=None)
@given(src=st.one_of(
    st.text(alphabet="rhopisncotaexlq()+-*/^ .0123456789eE_$\t"),
    st.lists(st.sampled_from(_SOURCE_PIECES)).map("".join),
))
@example(src="(" * 300 + "rho" + ")" * 300)
@example(src="sqrt(" * 300 + "rho" + ")" * 300)
@example(src="-" * 1000 + "rho")
@example(src="+".join(["rho"] * 1000))
@example(src="/".join(["rho"] * 1000))
def test_any_source_parses_to_a_round_trip_or_raises_a_shape_error(src):
    try:
        expr = parse_shape(src)
    except ShapeError:
        return
    assert parse_shape(format_expr(expr)) == expr
