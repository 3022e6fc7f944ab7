"""The derivative rules of jets.py, through the route every caller takes:
a shape parsed by parse_shape and evaluated by its compiled kernel."""

import math

import numpy as np
import pytest

from curvedq import jets
from curvedq.jets import Jet3
from curvedq.shapes import FUNCTION_NAMES, ShapeDomainError, eval_jet3, parse_shape

from _helpers import poly_derivative, poly_eval, poly_source, random_poly


def jet(src, rho):
    return eval_jet3(parse_shape(src), rho)


def test_variable_and_constant():
    x = jet("rho", 2.0)
    assert type(x) is Jet3 and x == (2.0, 1.0, 0.0, 0.0)
    assert (x.value, x.d1, x.d2, x.d3) == (2.0, 1.0, 0.0, 0.0)
    assert jet("3", 2.0) == (3.0, 0.0, 0.0, 0.0)
    assert jet("pi", 2.0) == (math.pi, 0.0, 0.0, 0.0)


def test_jet3_is_a_plain_record():
    assert Jet3._fields == ("value", "d1", "d2", "d3")
    assert [name for name in vars(Jet3) if not name.startswith("_")] == ["value", "d1", "d2", "d3"]
    for name in ("__neg__", "__add__", "__mul__", "__truediv__", "__pow__", "variable", "constant") + jets.FUNCTIONS:
        assert name not in vars(Jet3), name
    # a tuple: + concatenates, it applies no rule
    assert Jet3(1.0, 2.0, 3.0, 4.0) + (5.0,) == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_product_rule_exact_on_monomials():
    left = jet("rho^3*rho^4", 1.7)
    right = jet("rho^7", 1.7)
    assert left.value == pytest.approx(right.value, rel=1e-15)
    assert left.d1 == pytest.approx(right.d1, rel=1e-15)
    assert left.d2 == pytest.approx(right.d2, rel=1e-15)
    assert left.d3 == pytest.approx(right.d3, rel=1e-14)


def test_quotient_rule():
    q = jet("(rho*rho+1)/(rho-3)", 2.0)
    # f/g with f = x^2+1, g = x-3 at x=2: value -5, d1 = -9, d2 = -20, d3 = -60
    assert q.value == pytest.approx(-5.0, abs=1e-14)
    assert q.d1 == pytest.approx(-9.0, abs=1e-13)
    assert q.d2 == pytest.approx(-20.0, abs=1e-13)
    assert q.d3 == pytest.approx(-60.0, abs=1e-12)


def test_chain_rule_through_sin():
    y = jet("sin(rho*rho)", 0.7)
    v = 0.7 * 0.7
    assert y.value == pytest.approx(math.sin(v))
    assert y.d1 == pytest.approx(2 * 0.7 * math.cos(v))
    assert y.d2 == pytest.approx(2 * math.cos(v) - 4 * v * math.sin(v))


def test_random_polynomials_match_symbolic_differentiation():
    rng = np.random.default_rng(42)
    for _ in range(200):
        coeffs = random_poly(rng)
        x = float(rng.uniform(-2.0, 2.0))
        j = jet(poly_source(coeffs), x)
        d1c = poly_derivative(coeffs)
        d2c = poly_derivative(d1c)
        for got, ref in (
            (j.value, poly_eval(coeffs, x)),
            (j.d1, poly_eval(d1c, x)),
            (j.d2, poly_eval(d2c, x)),
        ):
            assert got == pytest.approx(ref, rel=1e-14, abs=1e-13)


def _domain_error(src, rho, reason):
    with pytest.raises(ShapeDomainError) as info:
        jet(src, rho)
    assert (info.value.reason, info.value.subexpr, info.value.rho) == (reason, str(parse_shape(src)), rho)


def test_integer_power_edge_cases():
    assert jet("rho^2", 0.0) == (0.0, 0.0, 2.0, 0.0)
    assert jet("rho^0", 0.0).value == 1.0
    _domain_error("rho^-1", 0.0, "zero raised to a negative power")
    # the bare rule's own exception, which the kernel reports as a ShapeDomainError
    with pytest.raises(ZeroDivisionError):
        jets.SCALAR.table["^"]((0.0, 1.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 0.0))
    assert jet("rho^3", -2.0) == (-8.0, 12.0, -12.0, 6.0)


def test_fractional_power_of_negative_base_raises():
    _domain_error("rho^0.5", -2.0, "fractional power of a non-positive base")
    with pytest.raises(ValueError):
        jets.SCALAR.table["^"]((-2.0, 1.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0))


def test_variable_exponent():
    y = jet("rho^rho", 1.5)  # = exp(rho ln rho)
    v = 1.5**1.5
    assert y.value == pytest.approx(v)
    assert y.d1 == pytest.approx(v * (math.log(1.5) + 1.0))


def test_division_by_zero_raises():
    _domain_error("rho/0.0", 1.0, "division by zero")
    with pytest.raises(ZeroDivisionError):
        jets.SCALAR.table["/"]((1.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


def test_jet3_third_derivatives():
    # each function's third derivative at x = 0.6, in a closed form the rule does not use
    x = 0.6
    sec2, sech2 = 1.0 / math.cos(x) ** 2, 1.0 / math.cosh(x) ** 2
    cases = {
        "cos": math.sin(x),
        "cosh": math.sinh(x),
        "exp": math.exp(x),
        "ln": 2.0 / x**3,
        "sin": -math.cos(x),
        "sinh": math.cosh(x),
        "sqrt": 0.375 * x**-2.5,
        "tan": 2.0 * sec2 * sec2 + 4.0 * sec2 * math.tan(x) ** 2,
        "tanh": 4.0 * sech2 * math.tanh(x) ** 2 - 2.0 * sech2 * sech2,
    }
    # the grammar's functions in its order, which seeded test trees index into, are the rules' functions
    assert tuple(cases) == FUNCTION_NAMES
    for rules in (jets.SCALAR, jets.ARRAY):
        assert set(rules.table) == {"neg", "+", "-", "*", "/", "^"} | set(FUNCTION_NAMES)
    for name, ref in cases.items():
        assert jet(f"{name}(rho)", x).d3 == pytest.approx(ref, rel=1e-12), name
    # tanh third derivative cross-checked against the identity (1-t^2)(6t^2-2)
    t = math.tanh(x)
    assert jet("tanh(rho)", x).d3 == pytest.approx((1 - t * t) * (6 * t * t - 2), rel=1e-12)


def test_jet3_polynomials_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeffs = random_poly(rng)
        x = float(rng.uniform(-1.5, 1.5))
        d3c = poly_derivative(poly_derivative(poly_derivative(coeffs)))
        assert jet(poly_source(coeffs), x).d3 == pytest.approx(poly_eval(d3c, x), rel=1e-13, abs=1e-12)


def test_jet3_quotient_and_product_consistency():
    rng = np.random.default_rng(11)
    quotient_times_g = parse_shape("(sin(rho)+2)/(exp(rho)+rho)*(exp(rho)+rho)")
    f = parse_shape("sin(rho)+2")
    for _ in range(50):
        x = float(rng.uniform(0.5, 2.0))
        prod, ref = eval_jet3(quotient_times_g, x), eval_jet3(f, x)
        for name in ("value", "d1", "d2", "d3"):
            assert getattr(prod, name) == pytest.approx(getattr(ref, name), rel=1e-12)


def test_as_grid_tells_a_scalar_from_a_grid_and_refuses_the_rest():
    for scalar in (0.5, 2, np.float64(0.5), np.float32(0.5), np.array(0.5)):
        assert jets.as_grid(scalar) is None, type(scalar)
    source = np.array([1, 2])
    for grid in (source, [1.0, 2.0], (1, 2.0)):
        got = jets.as_grid(grid)
        assert got.dtype == np.float64 and got.tolist() == [1.0, 2.0]
    assert not np.shares_memory(jets.as_grid(source.astype(float)), source)
    for bad, shape in ((np.zeros((2, 3)), "(2, 3)"), ([[0.5]], "(1, 1)"), (np.zeros((1, 1, 2)), "(1, 1, 2)")):
        with pytest.raises(ValueError) as info:
            jets.as_grid(bad)
        assert str(info.value) == f"expected a float or a 1-D grid, got an array of shape {shape}"


def test_on_grid_replays_the_points_where_the_array_path_raises():
    def inverse(x):
        return 1.0 / x

    def jet(x):
        return Jet3(x, 1.0 / x, 0.0, 0.0)

    assert jets.on_grid(np.float64(2.0), type, inverse) is np.float64  # a scalar goes as given
    assert jets.on_grid([1.0, 4.0], inverse, inverse).tolist() == [1.0, 0.25]
    # numpy raises on the division by zero, and the float 0.0 raises its own error
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        jets.on_grid([1.0, 0.0], inverse, inverse)
    assert jets.on_grid(np.zeros(0), inverse, inverse).shape == (0,)
    # where only the array path raises, the scalar results come back stacked
    refused = np.array([0.5, 2.0])

    def refuse(grid):
        raise ValueError("refused")

    assert jets.on_grid(refused, inverse, refuse).tolist() == [2.0, 0.5]
    stacked = jets.on_grid(refused, jet, refuse)
    assert type(stacked) is Jet3 and [c.tolist() for c in stacked] == [[0.5, 2.0], [2.0, 0.5], [0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="refused"):
        jets.on_grid(np.zeros(0), inverse, refuse)  # no point to replay
