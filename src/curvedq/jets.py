"""Forward-mode dual numbers carrying exact derivatives (no finite differencing).

A jet is a 4-tuple (value, d1, d2, d3): a value with its first three
derivatives along one variable.  Each derivative rule is written once, as a
module-level function over such tuples: the sum, difference, product,
quotient and power rules, and one chain-rule function per name in
FUNCTIONS.  Compiled shape kernels (shapes.py) call these functions on plain
tuples; Jet3, the public jet type, is itself a 4-tuple whose operators and
methods apply the same functions, so the two routes are bit-identical.

Shape evaluation and the curvatures read the first two derivatives, and the
second derivative of the slope factor Z of a graph reads the third.
"""

import math
from typing import NamedTuple


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


def div(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if b0 == 0.0:
        raise ZeroDivisionError("division by zero")
    q0 = a0 / b0
    q1 = (a1 - q0 * b1) / b0
    q2 = (a2 - 2.0 * q1 * b1 - q0 * b2) / b0
    q3 = (a3 - 3.0 * q2 * b1 - 3.0 * q1 * b2 - q0 * b3) / b0
    return (q0, q1, q2, q3)


def _chain(a, u0, u1, u2, u3):
    """Jet of u(a) from the derivatives u0..u3 of u at a's value (Faa di Bruno)."""
    _, g1, g2, g3 = a
    return (
        u0,
        u1 * g1,
        u2 * g1 * g1 + u1 * g2,
        u3 * g1 * g1 * g1 + 3.0 * u2 * g1 * g2 + u1 * g3,
    )


def pow_scalar(a, c):
    """a ** c for a float exponent c: integer powers exactly, others for a > 0."""
    f = a[0]
    if c == int(c) and abs(c) < 1e9:
        n = int(c)
        if f == 0.0 and n < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        u0 = f**n
        u1 = 0.0 if n == 0 else n * f ** (n - 1)
        u2 = 0.0 if n in (0, 1) else n * (n - 1) * f ** (n - 2)
        u3 = 0.0 if n in (0, 1, 2) else n * (n - 1) * (n - 2) * f ** (n - 3)
        return _chain(a, u0, u1, u2, u3)
    if f <= 0.0:
        raise ValueError("fractional power of a non-positive base")
    u0 = f**c
    u1 = c * f ** (c - 1.0)
    u2 = c * (c - 1.0) * f ** (c - 2.0)
    u3 = c * (c - 1.0) * (c - 2.0) * f ** (c - 3.0)
    return _chain(a, u0, u1, u2, u3)


def power(a, b):
    """a ** b: pow_scalar when b carries no derivative, else exp(b ln a)."""
    if b[1] == 0.0 and b[2] == 0.0 and b[3] == 0.0:
        return pow_scalar(a, b[0])
    return exp(mul(b, ln(a)))


def sin(a):
    s, c = math.sin(a[0]), math.cos(a[0])
    return _chain(a, s, c, -s, -c)


def cos(a):
    s, c = math.sin(a[0]), math.cos(a[0])
    return _chain(a, c, -s, -c, s)


def tan(a):
    t = math.tan(a[0])
    sec2 = 1.0 + t * t
    return _chain(a, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))


def exp(a):
    e = math.exp(a[0])
    return _chain(a, e, e, e, e)


def ln(a):
    v = a[0]
    if v <= 0.0:
        raise ValueError("logarithm of a non-positive value")
    iv = 1.0 / v
    return _chain(a, math.log(v), iv, -iv * iv, 2.0 * iv * iv * iv)


def sqrt(a):
    v = a[0]
    r = math.sqrt(v)
    if r == 0.0:
        raise ZeroDivisionError("derivative of sqrt at zero")
    return _chain(a, r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v))


def sinh(a):
    s, c = math.sinh(a[0]), math.cosh(a[0])
    return _chain(a, s, c, s, c)


def cosh(a):
    s, c = math.sinh(a[0]), math.cosh(a[0])
    return _chain(a, c, s, c, s)


def tanh(a):
    t = math.tanh(a[0])
    sech2 = 1.0 - t * t
    return _chain(a, t, sech2, -2.0 * t * sech2, sech2 * (6.0 * t * t - 2.0))


FUNCTIONS = {
    "cos": cos,
    "cosh": cosh,
    "exp": exp,
    "ln": ln,
    "sin": sin,
    "sinh": sinh,
    "sqrt": sqrt,
    "tan": tan,
    "tanh": tanh,
}


def _lift(x):
    if isinstance(x, Jet3):
        return x
    if isinstance(x, (int, float)):
        return (float(x), 0.0, 0.0, 0.0)
    return NotImplemented


def _operator(rule, reflected=False):
    """Jet3 operator applying rule to self and other, a number lifted to a
    constant jet; reflected puts other on the left."""
    def apply(self, other):
        o = _lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3._make(rule(o, self) if reflected else rule(self, o))

    return apply


def _method(rule):
    def apply(self):
        return Jet3._make(rule(self))

    apply.__name__ = rule.__name__
    return apply


class Jet3(NamedTuple):
    """Value with exact first, second and third derivatives along one variable.

    Arithmetic obeys the product, quotient and chain rules exactly, so
    polynomial expressions propagate with no truncation error.  The
    operators apply the module-level rules with self on the left, unless
    reflected, and there is one method per name in FUNCTIONS.  The third
    derivative is needed only for Z'' of a graph (Z = sqrt(1 + S'^2)),
    which enters the Hermitian coefficients through the drift's slope.
    """

    value: float
    d1: float = 0.0
    d2: float = 0.0
    d3: float = 0.0

    # a numpy scalar on the left defers to the reflected operator here
    # instead of broadcasting over the tuple
    __array_ufunc__ = None

    @staticmethod
    def variable(x):
        return Jet3(float(x), 1.0, 0.0, 0.0)

    @staticmethod
    def constant(c):
        return Jet3(float(c), 0.0, 0.0, 0.0)

    __neg__ = _method(neg)
    __add__ = __radd__ = _operator(add)
    __sub__, __rsub__ = _operator(sub), _operator(sub, reflected=True)
    __mul__ = __rmul__ = _operator(mul)
    __truediv__, __rtruediv__ = _operator(div), _operator(div, reflected=True)
    __pow__, __rpow__ = _operator(power), _operator(power, reflected=True)


for _name, _rule in FUNCTIONS.items():
    setattr(Jet3, _name, _method(_rule))
