"""Derivative rules of forward-mode jets: exact derivatives, no finite differencing.

A jet is a 4-tuple (value, d1, d2, d3): a value with its first three
derivatives along one variable.  It has two carriers: its components are
floats, or 1-D arrays holding one jet per point of a grid, where a component
equal at every point may stay a float, which broadcasts.

Each derivative rule is written once.  The sum, difference and product rules
and the chain rule are plain arithmetic, the same on both carriers, and are
module-level functions.  The quotient, power and function rules also test
their argument and call libm; _rules writes them once over a few primitives
and is built twice: SCALAR with math and Python's pow, and ARRAY with their
forms for arrays.  Those compute every function value and every power
element by element with math and pow, because numpy's ufuncs round unlike
libm (exp, ln, tan, the hyperbolics and x**3 in 0.3-30% of draws); a guard
fires when it fires at any point; and where one rule does not hold at every
point (power at an exponent without derivative) the array primitive raises.
So an ARRAY rule returns the SCALAR results stacked, bit for bit, or raises,
or leaves a non-finite component, which shapes.py turns into a raise; then
on_grid, the one float-or-grid rule of every function of w, evaluates the
points one at a time.

The compiled shape kernels of shapes.py are the one route to these rules:
they call them on plain tuples, and eval_jet2 and eval_jet3 return the
result as a Jet3, a record of the four components with no arithmetic of
its own.

Shape evaluation and the curvatures read the first two derivatives, and the
second derivative of the slope factor Z of a graph reads the third.
"""

import math
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np


def neg(a):
    a0, a1, a2, a3 = a
    return (-a0, -a1, -a2, -a3)


def add(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3)


def sub(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 - b0, a1 - b1, a2 - b2, a3 - b3)


def mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0,
        a1 * b0 + a0 * b1,
        a2 * b0 + 2.0 * a1 * b1 + a0 * b2,
        a3 * b0 + 3.0 * a2 * b1 + 3.0 * a1 * b2 + a0 * b3,
    )


def _chain(a, u0, u1, u2, u3):
    """Jet of u(a) from the derivatives u0..u3 of u at a's value (Faa di Bruno)."""
    _, g1, g2, g3 = a
    return (
        u0,
        u1 * g1,
        u2 * g1 * g1 + u1 * g2,
        u3 * g1 * g1 * g1 + 3.0 * u2 * g1 * g2 + u1 * g3,
    )


class Rules(NamedTuple):
    """The derivative rules of one carrier."""

    table: dict  # by operator symbol ("neg" for unary minus) and function name
    power_rule: Callable  # c -> the rule of a ** c for a fixed float exponent c


def _rules(lib):
    """The rules of the carrier whose primitives are lib.

    lib.any(mask) tells whether a guard fires at some point, lib.pow(x, e)
    is x ** e, lib.constant(b) tells whether the exponent jet b carries no
    derivative, and lib.sin ... lib.tanh (lib.log for ln) are the values of
    the functions.
    """
    # closure cells, not attribute lookups: the scalar rules run once per point
    any_, pow_, constant = lib.any, lib.pow, lib.constant
    sin_, cos_, tan_, exp_, log_ = lib.sin, lib.cos, lib.tan, lib.exp, lib.log
    sqrt_, sinh_, cosh_, tanh_ = lib.sqrt, lib.sinh, lib.cosh, lib.tanh

    def div(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        if any_(b0 == 0.0):
            raise ZeroDivisionError("division by zero")
        q0 = a0 / b0
        q1 = (a1 - q0 * b1) / b0
        q2 = (a2 - 2.0 * q1 * b1 - q0 * b2) / b0
        q3 = (a3 - 3.0 * q2 * b1 - 3.0 * q1 * b2 - q0 * b3) / b0
        return (q0, q1, q2, q3)

    def power_rule(c):
        """Rule of a ** c: integer powers exactly, others for a > 0.

        The integer test and the falling factorials c (c-1) ... are decided
        here, once per c; the rule computes what a test at each call would.
        """
        if c == int(c) and abs(c) < 1e9:
            n = int(c)
            e1, e2, e3 = n - 1, n - 2, n - 3
            # a factor that vanishes leaves its derivative the literal 0.0
            k1, k2, k3 = float(n), float(n * e1), float(n * e1 * e2)

            def integer_power(a):
                f = a[0]
                if n < 0 and any_(f == 0.0):
                    raise ZeroDivisionError("zero raised to a negative power")
                return _chain(
                    a, pow_(f, n), k1 and k1 * pow_(f, e1), k2 and k2 * pow_(f, e2), k3 and k3 * pow_(f, e3)
                )

            return integer_power
        c1, c2, c3 = c - 1.0, c - 2.0, c - 3.0
        k2 = c * c1
        k3 = k2 * c2

        def fractional_power(a):
            f = a[0]
            if any_(f <= 0.0):
                raise ValueError("fractional power of a non-positive base")
            return _chain(a, pow_(f, c), c * pow_(f, c1), k2 * pow_(f, c2), k3 * pow_(f, c3))

        return fractional_power

    def power(a, b):
        """a ** b: power_rule(b's value) when b carries no derivative, else exp(b ln a)."""
        if constant(b):
            return power_rule(b[0])(a)
        return exp(mul(b, ln(a)))

    def sin(a):
        s, c = sin_(a[0]), cos_(a[0])
        return _chain(a, s, c, -s, -c)

    def cos(a):
        s, c = sin_(a[0]), cos_(a[0])
        return _chain(a, c, -s, -c, s)

    def tan(a):
        t = tan_(a[0])
        sec2 = 1.0 + t * t
        return _chain(a, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))

    def exp(a):
        e = exp_(a[0])
        return _chain(a, e, e, e, e)

    def ln(a):
        v = a[0]
        if any_(v <= 0.0):
            raise ValueError("logarithm of a non-positive value")
        iv = 1.0 / v
        return _chain(a, log_(v), iv, -iv * iv, 2.0 * iv * iv * iv)

    def sqrt(a):
        v = a[0]
        r = sqrt_(v)
        if any_(r == 0.0):
            raise ZeroDivisionError("derivative of sqrt at zero")
        if any_(a[1] != 0.0):
            return _chain(a, r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v))
        # with no first derivative the last two factors are multiplied by zero: zeros of
        # their signs stand in, as their denominators may underflow (v = 1e-200)
        return _chain(a, r, 0.5 / r, -0.0, 0.0)

    def sinh(a):
        s, c = sinh_(a[0]), cosh_(a[0])
        return _chain(a, s, c, s, c)

    def cosh(a):
        s, c = sinh_(a[0]), cosh_(a[0])
        return _chain(a, c, s, c, s)

    def tanh(a):
        t = tanh_(a[0])
        sech2 = 1.0 - t * t
        return _chain(a, t, sech2, -2.0 * t * sech2, sech2 * (6.0 * t * t - 2.0))

    table = {"neg": neg, "+": add, "-": sub, "*": mul, "/": div, "^": power}
    for rule in (cos, cosh, exp, ln, sin, sinh, sqrt, tan, tanh):
        table[rule.__name__] = rule
    return Rules(table, power_rule)


def _no_derivative(b):
    return b[1] == 0.0 and b[2] == 0.0 and b[3] == 0.0


def _derivative_everywhere(b):
    """The array carrier's exponent test: False when b carries a derivative at
    every point, so that exp(b ln a) is the rule everywhere, else a raise."""
    if np.any((b[1] == 0.0) & (b[2] == 0.0) & (b[3] == 0.0)):
        raise ValueError("exponent without a derivative")
    return False


def _each(fn):
    """fn of math on a float, and on each element of an array: libm's rounding, not numpy's.

    The float form serves the constant base of a power such as 2^rho, whose
    logarithm the array rule takes."""

    def apply(x):
        if isinstance(x, float):
            return fn(x)
        return np.fromiter(map(fn, x.tolist()), float, x.size)

    return apply


def each_pow(x, e):
    """x ** e by Python's pow, for each element of an array x."""
    return np.fromiter(map(pow, x.tolist(), repeat(e)), float, x.size)


_FUNCTION_VALUES = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")

SCALAR = _rules(SimpleNamespace(
    any=bool, pow=pow, constant=_no_derivative, **{name: getattr(math, name) for name in _FUNCTION_VALUES}
))
ARRAY = _rules(SimpleNamespace(
    any=np.any, pow=each_pow, constant=_derivative_everywhere,
    **{name: _each(getattr(math, name)) for name in _FUNCTION_VALUES},
))


def as_grid(x):
    """How on_grid and geometry.curvature_sample tell their carriers apart: None
    for a scalar (a float, a numpy scalar, a 0-d array), a fresh 1-D float array
    for a 1-D array or sequence, a list included, and ValueError for anything of
    more dimensions."""
    ndim = np.ndim(x)
    if ndim == 0:
        return None
    if ndim == 1:
        return np.array(x, dtype=float)
    raise ValueError(f"expected a float or a 1-D grid, got an array of shape {np.shape(x)}")


def on_grid(w, scalar, array):
    """The one rule by which every function of w (or rho) with an array builder
    takes a float or a grid: the patch frames, the lifted coefficients and
    drifts, the shape jets and the azimuthal drift.  (geometry.curvature_sample
    has no array builder: it stacks its float body by as_grid alone.)

    A scalar w goes to scalar(w) as given, a grid (as_grid) to array(grid)
    with numpy raising on division by zero and invalid values and, as Python
    floats do, ignoring overflow and underflow.  Where that raises ValueError
    or ArithmeticError, the points go to scalar in order, so the first
    failing point raises its own error, else their results come back stacked:
    an array, or a named tuple of arrays.  array must raise wherever it would
    not return what the scalar calls give, and should raise nowhere else.  A
    grid enters here once, at the public entry point: array passes no grid to
    a function that dispatches, so a failing grid replays once.
    """
    grid = as_grid(w)
    if grid is None:
        return scalar(w)
    try:
        with np.errstate(all="ignore", divide="raise", invalid="raise"):
            return array(grid)
    except (ValueError, ArithmeticError):
        if not grid.size:
            raise
        rows = [scalar(x) for x in grid.tolist()]
    first = rows[0]
    if isinstance(first, tuple):
        return first._make(np.array(rows, dtype=float).T.copy())
    return np.array(rows, dtype=float)


FUNCTIONS = ("cos", "cosh", "exp", "ln", "sin", "sinh", "sqrt", "tan", "tanh")  # names of the function rules, sorted


class Jet3(NamedTuple):
    """A shape's value and its first three derivatives at rho, as eval_jet2
    and eval_jet3 return them: four floats, or four 1-D arrays, one entry
    per point, for an array of rho.

    A plain record: the derivative rules are this module's functions, and
    only the compiled shape kernels call them.
    """

    value: float
    d1: float
    d2: float
    d3: float
