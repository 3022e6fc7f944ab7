"""Forward-mode dual numbers carrying exact derivatives (no finite differencing).

One jet type, Jet3, serves every caller: shape evaluation and the
curvatures read its first two derivatives, and the second derivative of
the slope factor Z of a graph reads the third.
"""

import math
from dataclasses import dataclass


def _is_number(x):
    return isinstance(x, (int, float))


@dataclass(frozen=True, slots=True)
class Jet3:
    """Value with exact first, second and third derivatives along one variable.

    Arithmetic obeys the product, quotient and chain rules exactly, so
    polynomial expressions propagate with no truncation error.  The third
    derivative is needed only for Z'' of a graph (Z = sqrt(1 + S'^2)),
    which enters the Hermitian coefficients through the drift's slope.
    """

    value: float
    d1: float = 0.0
    d2: float = 0.0
    d3: float = 0.0

    @staticmethod
    def variable(x):
        return Jet3(float(x), 1.0, 0.0, 0.0)

    @staticmethod
    def constant(c):
        return Jet3(float(c), 0.0, 0.0, 0.0)

    def _lift(self, x):
        if isinstance(x, Jet3):
            return x
        if _is_number(x):
            return Jet3(float(x), 0.0, 0.0, 0.0)
        return NotImplemented

    def __neg__(self):
        return Jet3(-self.value, -self.d1, -self.d2, -self.d3)

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return Jet3(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2,
            self.d3 * o.value + 3.0 * self.d2 * o.d1 + 3.0 * self.d1 * o.d2 + self.value * o.d3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0.0:
            raise ZeroDivisionError("division by zero")
        q0 = self.value / o.value
        q1 = (self.d1 - q0 * o.d1) / o.value
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q0 * o.d2) / o.value
        q3 = (self.d3 - 3.0 * q2 * o.d1 - 3.0 * q1 * o.d2 - q0 * o.d3) / o.value
        return Jet3(q0, q1, q2, q3)

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def _pow_scalar(self, c):
        f = self.value
        if c == int(c) and abs(c) < 1e9:
            n = int(c)
            if f == 0.0 and n < 0:
                raise ZeroDivisionError("zero raised to a negative power")
            u0 = f**n
            u1 = 0.0 if n == 0 else n * f ** (n - 1)
            u2 = 0.0 if n in (0, 1) else n * (n - 1) * f ** (n - 2)
            u3 = 0.0 if n in (0, 1, 2) else n * (n - 1) * (n - 2) * f ** (n - 3)
            return self._chain(u0, u1, u2, u3)
        if f <= 0.0:
            raise ValueError("fractional power of a non-positive base")
        u0 = f**c
        u1 = c * f ** (c - 1.0)
        u2 = c * (c - 1.0) * f ** (c - 2.0)
        u3 = c * (c - 1.0) * (c - 2.0) * f ** (c - 3.0)
        return self._chain(u0, u1, u2, u3)

    def __pow__(self, other, modulo=None):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        if o.d1 == 0.0 and o.d2 == 0.0 and o.d3 == 0.0:
            return self._pow_scalar(o.value)
        return (o * self.ln()).exp()

    def __rpow__(self, other):
        return self._lift(other).__pow__(self)

    def _chain(self, u0, u1, u2, u3):
        g1, g2, g3 = self.d1, self.d2, self.d3
        return Jet3(
            u0,
            u1 * g1,
            u2 * g1 * g1 + u1 * g2,
            u3 * g1 * g1 * g1 + 3.0 * u2 * g1 * g2 + u1 * g3,
        )

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s, -c)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c, s)

    def tan(self):
        t = math.tan(self.value)
        sec2 = 1.0 + t * t
        return self._chain(t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))

    def exp(self):
        e = math.exp(self.value)
        return self._chain(e, e, e, e)

    def ln(self):
        v = self.value
        if v <= 0.0:
            raise ValueError("logarithm of a non-positive value")
        iv = 1.0 / v
        return self._chain(math.log(v), iv, -iv * iv, 2.0 * iv * iv * iv)

    def sqrt(self):
        r = math.sqrt(self.value)
        if r == 0.0:
            raise ZeroDivisionError("derivative of sqrt at zero")
        v = self.value
        return self._chain(r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v))

    def sinh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._chain(s, c, s, c)

    def cosh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._chain(c, s, c, s)

    def tanh(self):
        t = math.tanh(self.value)
        sech2 = 1.0 - t * t
        return self._chain(t, sech2, -2.0 * t * sech2, sech2 * (6.0 * t * t - 2.0))
