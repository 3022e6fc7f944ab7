import math

import numpy as np
import pytest

from curvedq.jets import Jet3

from _helpers import poly_derivative, poly_eval, random_poly


def jet_of_poly(coeffs, x):
    acc = Jet3.constant(0.0)
    var = Jet3.variable(x)
    for k, c in enumerate(coeffs):
        acc = acc + c * var**k
    return acc


def test_variable_and_constant():
    x = Jet3.variable(2.0)
    assert (x.value, x.d1, x.d2) == (2.0, 1.0, 0.0)
    c = Jet3.constant(3.0)
    assert (c.value, c.d1, c.d2) == (3.0, 0.0, 0.0)


def test_product_rule_exact_on_monomials():
    x = Jet3.variable(1.7)
    left = (x**3) * (x**4)
    right = x**7
    assert left.value == pytest.approx(right.value, rel=1e-15)
    assert left.d1 == pytest.approx(right.d1, rel=1e-15)
    assert left.d2 == pytest.approx(right.d2, rel=1e-15)


def test_quotient_rule():
    x = Jet3.variable(2.0)
    q = (x * x + 1.0) / (x - 3.0)
    # f/g with f = x^2+1, g = x-3 at x=2: value -5, d1 = -9, d2 = -20
    assert q.value == pytest.approx(-5.0, abs=1e-14)
    assert q.d1 == pytest.approx(-9.0, abs=1e-13)
    assert q.d2 == pytest.approx(-20.0, abs=1e-13)


def test_chain_rule_through_sin():
    x = Jet3.variable(0.7)
    y = (x * x).sin()
    v = 0.7 * 0.7
    assert y.value == pytest.approx(math.sin(v))
    assert y.d1 == pytest.approx(2 * 0.7 * math.cos(v))
    assert y.d2 == pytest.approx(2 * math.cos(v) - 4 * v * math.sin(v))


def test_random_polynomials_match_symbolic_differentiation():
    rng = np.random.default_rng(42)
    for _ in range(200):
        coeffs = random_poly(rng)
        x = float(rng.uniform(-2.0, 2.0))
        jet = jet_of_poly(coeffs, x)
        d1c = poly_derivative(coeffs)
        d2c = poly_derivative(d1c)
        for got, ref in (
            (jet.value, poly_eval(coeffs, x)),
            (jet.d1, poly_eval(d1c, x)),
            (jet.d2, poly_eval(d2c, x)),
        ):
            assert got == pytest.approx(ref, rel=1e-14, abs=1e-13)


def test_integer_power_edge_cases():
    zero = Jet3.variable(0.0)
    sq = zero**2
    assert (sq.value, sq.d1, sq.d2) == (0.0, 0.0, 2.0)
    assert (zero**0).value == 1.0
    with pytest.raises(ZeroDivisionError):
        zero**-1
    neg = Jet3.variable(-2.0)
    cube = neg**3
    assert cube.value == -8.0 and cube.d1 == 12.0 and cube.d2 == -12.0


def test_fractional_power_of_negative_base_raises():
    with pytest.raises(ValueError):
        Jet3.variable(-2.0) ** 0.5


def test_variable_exponent():
    x = Jet3.variable(1.5)
    y = x**x  # = exp(x ln x)
    v = 1.5**1.5
    assert y.value == pytest.approx(v)
    assert y.d1 == pytest.approx(v * (math.log(1.5) + 1.0))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Jet3.variable(1.0) / Jet3.constant(0.0)


def test_jet3_third_derivatives():
    x = Jet3.variable(0.6)
    cases = [
        (x.sin(), -math.cos(0.6)),
        (x.exp(), math.exp(0.6)),
        (x.ln(), 2.0 / 0.6**3),
        (x.sqrt(), 0.375 * 0.6**-2.5),
        (x.tanh(), None),
    ]
    for jet, ref in cases:
        if ref is not None:
            assert jet.d3 == pytest.approx(ref, rel=1e-12)
    # tanh third derivative cross-checked against the identity (1-t^2)(6t^2-2)
    t = math.tanh(0.6)
    assert x.tanh().d3 == pytest.approx((1 - t * t) * (6 * t * t - 2), rel=1e-12)


def test_jet3_polynomials_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        coeffs = random_poly(rng)
        x = float(rng.uniform(-1.5, 1.5))
        var = Jet3.variable(x)
        acc = Jet3.constant(0.0)
        for k, c in enumerate(coeffs):
            acc = acc + c * var**k
        d1c = poly_derivative(coeffs)
        d2c = poly_derivative(d1c)
        d3c = poly_derivative(d2c)
        assert acc.d3 == pytest.approx(poly_eval(d3c, x), rel=1e-13, abs=1e-12)


def test_jet3_quotient_and_product_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = Jet3.variable(float(rng.uniform(0.5, 2.0)))
        f = x.sin() + 2.0
        g = x.exp() + x
        prod = (f / g) * g
        for name in ("value", "d1", "d2", "d3"):
            assert getattr(prod, name) == pytest.approx(getattr(f, name), rel=1e-12)
