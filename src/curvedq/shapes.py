"""Parsing and exact jet evaluation of surface shape functions S(rho).

A shape function is given as text over the grammar (whitespace insignificant,
no implicit multiplication)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?        right-associative
    atom   := NUMBER | 'rho' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
    FUNC   := sin cos tan exp ln sqrt sinh cosh tanh

'^' binds tighter than unary minus, so "-rho^2" is -(rho^2).  Parsed
expressions are immutable and evaluation is pure, so a ShapeExpr may be
shared freely across threads.  Derivatives come from dual-number
propagation (jets), never from finite differences: the principal
curvatures of a graph divide S_rho and S_rhorho by rho and Z^3, and
differencing noise would pollute them.
"""

import math
from dataclasses import dataclass

from .jets import Jet3

FUNCTION_NAMES = ("cos", "cosh", "exp", "ln", "sin", "sinh", "sqrt", "tan", "tanh")


class ShapeError(ValueError):
    """Base class for shape-expression failures."""


class ShapeSyntaxError(ShapeError):
    """Malformed source text; carries the byte offset and the expected tokens."""

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        shown = "end of input" if found is None else repr(found)
        super().__init__(
            f"syntax error at offset {offset}: expected {' or '.join(self.expected)}; found {shown}"
        )


class UnknownIdentifierError(ShapeError):
    def __init__(self, name, offset):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier {name!r} at offset {offset}")


class ShapeDomainError(ShapeError):
    """Evaluation left the domain of a subexpression (sqrt of a negative, ...)."""

    def __init__(self, reason, subexpr, rho):
        self.reason = reason
        self.subexpr = subexpr
        self.rho = rho
        super().__init__(f"{reason} in '{subexpr}' at rho={rho!r}")


# -- syntax tree -------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # only "pi"


@dataclass(frozen=True)
class Var:
    pass  # the radial variable rho


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class ShapeExpr:
    """Immutable parsed shape function S(rho)."""

    root: object

    def __str__(self):
        return format_expr(self)


# -- tokenizer ---------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ShapeSyntaxError(i, ("a number",), text) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ShapeSyntaxError(i, ("a number", "'rho'", "'pi'", "a function name", "an operator"), ch)
    tokens.append(("end", None, n))
    return tokens


# -- recursive-descent parser -------------------------------------------------

_ATOM_EXPECTED = ("a number", "'rho'", "'pi'", "a function name", "'('")


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, text, offset = self.peek()
        raise ShapeSyntaxError(offset, expected, None if kind == "end" else str(text))

    def expect(self, kind, expected):
        if self.peek()[0] != kind:
            self.fail(expected)
        return self.take()

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            return BinOp("^", base, self.factor())
        return base

    def atom(self):
        kind, text, offset = self.peek()
        if kind == "num":
            self.take()
            return Num(text)
        if kind == "(":
            self.take()
            node = self.expr()
            if self.peek()[0] != ")":
                self.fail(("')'", "an operator"))
            self.take()
            return node
        if kind == "ident":
            self.take()
            if text == "rho":
                return Var()
            if text == "pi":
                return Const("pi")
            if text in FUNCTION_NAMES:
                if self.peek()[0] != "(":
                    self.fail(("'(' after function name",))
                self.take()
                arg = self.expr()
                if self.peek()[0] != ")":
                    self.fail(("')'", "an operator"))
                self.take()
                return Call(text, arg)
            raise UnknownIdentifierError(text, offset)
        self.fail(_ATOM_EXPECTED)

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail(("an operator", "end of input"))
        return node


def parse_shape(src):
    """Parse shape-function source text into an immutable ShapeExpr.

    Raises ShapeSyntaxError (with byte offset and expected-token set) on
    malformed input and UnknownIdentifierError for names outside the
    grammar.
    """
    return ShapeExpr(_Parser(_tokenize(src)).parse())


# -- canonical printer --------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node):
    if isinstance(node, (Num, Const, Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if node.op in "+-":
        return _LEVEL_ADD
    if node.op in "*/":
        return _LEVEL_MUL
    return _LEVEL_POW


def _fmt(node, context):
    if isinstance(node, Num):
        out = repr(node.value)
    elif isinstance(node, Const):
        out = node.name
    elif isinstance(node, Var):
        out = "rho"
    elif isinstance(node, Call):
        out = f"{node.func}({_fmt(node.arg, _LEVEL_ADD)})"
    elif isinstance(node, Neg):
        out = "-" + _fmt(node.arg, _LEVEL_UNARY)
    elif node.op in "+-":
        out = _fmt(node.left, _LEVEL_ADD) + node.op + _fmt(node.right, _LEVEL_MUL)
    elif node.op in "*/":
        out = _fmt(node.left, _LEVEL_MUL) + node.op + _fmt(node.right, _LEVEL_UNARY)
    else:  # '^'
        out = _fmt(node.left, _LEVEL_ATOM) + "^" + _fmt(node.right, _LEVEL_UNARY)
    if _level(node) < context:
        return "(" + out + ")"
    return out


def format_expr(expr):
    """Canonical text form; parsing it back reproduces the same tree."""
    return _fmt(expr.root, _LEVEL_ADD)


# -- evaluation ---------------------------------------------------------------

def _eval(node, x, rho):
    cls = type(x)
    if isinstance(node, Num):
        return cls.constant(node.value)
    if isinstance(node, Const):
        return cls.constant(math.pi)
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.arg, x, rho)
    if isinstance(node, BinOp):
        left = _eval(node.left, x, rho)
        right = _eval(node.right, x, rho)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            return left**right
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ShapeDomainError(str(exc), _fmt(node, _LEVEL_ADD), rho) from None
    # function application
    arg = _eval(node.arg, x, rho)
    try:
        return getattr(arg, node.func)()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ShapeDomainError(str(exc), _fmt(node, _LEVEL_ADD), rho) from None


def _check_finite(expr, jet, rho, fields):
    for name in fields:
        if not math.isfinite(getattr(jet, name)):
            raise ShapeDomainError("non-finite result", format_expr(expr), rho)
    return jet


def eval_jet2(expr, rho):
    """Evaluate S at rho as a Jet3, checking only S, dS/drho and d2S/drho2.

    For callers that need no third derivative, so a non-finite d3 is not an
    error here.  It stays a function of its own, not an alias of eval_jet3,
    so that wrappers installed by name (bench/spans.py) count the two apart.
    """
    rho = float(rho)
    jet = _eval(expr.root, Jet3.variable(rho), rho)
    return _check_finite(expr, jet, rho, ("value", "d1", "d2"))


def eval_jet3(expr, rho):
    """Evaluate (S, dS/drho, d2S/drho2, d3S/drho3) at rho, all checked finite."""
    rho = float(rho)
    jet = _eval(expr.root, Jet3.variable(rho), rho)
    return _check_finite(expr, jet, rho, ("value", "d1", "d2", "d3"))


def eval_value(expr, rho):
    return eval_jet2(expr, rho).value
