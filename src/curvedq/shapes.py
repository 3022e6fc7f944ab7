"""Parsing and exact jet evaluation of surface shape functions S(rho).

A shape function is given as text over the grammar (whitespace insignificant,
no implicit multiplication)::

    expr := '-' expr | atom | expr OP expr           OP := + - * / ^
    atom := NUMBER | 'rho' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
    FUNC := sin cos tan exp ln sqrt sinh cosh tanh

made unambiguous by one table of levels, _OPERATORS, which the parser and
the canonical printer both read; an operand of a level below the least its
place allows is written in parentheses::

    operator   level   least left   least right
    + -          1         1             2         left-associative
    * /          2         2             3         left-associative
    unary -      3                       3
    ^            4         5             3         right-associative
    atom         5

So '^' binds tighter than unary minus, "-rho^2" is -(rho^2), and an
exponent may be negated, "rho^-2".

A source nests at most MAX_DEPTH = 200 levels, counted two ways: at any token
at most 200 parentheses, calls, unary minuses and operators reading their
right operand are open, and no path of the syntax tree passes through more
than 200 operators (a sum has at most 201 terms).  A deeper source is a
ShapeSyntaxError at the token past the bound.  Parser, compiler, printer and
kernels recurse once to three times per level, so a shape that parses also
compiles, prints and evaluates from a caller 100 frames deep within Python's
default recursion limit of 1000; unbounded, the first to fail there are 298
nested calls and 448 chained '/' or '^'.

Parsed expressions are immutable and evaluation is pure, so a ShapeExpr may
be shared freely across threads.  Derivatives come from dual-number
propagation (jets), never from finite differences: the principal curvatures
of a graph divide S_rho and S_rhorho by rho and Z^3, and differencing noise
would pollute them.

Each ShapeExpr compiles once, when it is built, into two kernels: nested
closures over jet 4-tuples that call the derivative rules of jets.py
directly, one over the SCALAR rules for a float rho and one over the ARRAY
rules for a 1-D array of rho.  Literals and pi are captured as constant
tuples, and a subtree free of rho is folded to its jet by the scalar rules,
so both kernels hold the same constants.  A '^' whose exponent folds to a
jet (c, 0, 0, 0) gets power's rule for c, with the integer test and the falling
factorials c (c-1) ... decided at compile time.  Evaluating a shape runs a
kernel, so no evaluation dispatches on node types or allocates per node
beyond the tuples the rules return.

Only '/', '^' and function calls can leave their domain; in both kernels,
compiled by one rule, each of those nodes reports the failure as a
ShapeDomainError naming itself and the rho it was evaluated at.  Where the
array kernel raises, or leaves a non-finite component the scalar kernel
refuses, jets.on_grid evaluates the points again one at a time by the scalar
kernel, so an array of rho gets the error of a loop over it, at the first offending rho.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import jets
from .jets import FUNCTIONS, Jet3, on_grid


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
# NamedTuples, not frozen dataclasses: every process that imports this module
# builds the six classes, and a NamedTuple takes about a seventh of the time.
# Each node is a tuple, so Var() is empty and falsy: no code tests a node for truth.

class Num(NamedTuple):
    value: float


class Const(NamedTuple):
    name: str  # only "pi"


class Var(NamedTuple):
    pass  # the radial variable rho


class Neg(NamedTuple):
    arg: object


class BinOp(NamedTuple):
    op: str
    left: object
    right: object


class Call(NamedTuple):
    func: str
    arg: object


@dataclass(frozen=True)
class ShapeExpr:
    """Immutable parsed shape function S(rho), compiled once into its two kernels.

    The kernel maps the variable jet (rho, 1, 0, 0) of a float rho to the jet
    of S, and array_kernel does the same for a 1-D array of rho.  Both are
    derived from root, so equality, hashing and repr see root alone.
    """

    root: object
    kernel: object = field(init=False, compare=False, repr=False)
    array_kernel: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name, rules in (("kernel", jets.SCALAR), ("array_kernel", jets.ARRAY)):
            jet = _compile(self.root, rules)
            object.__setattr__(self, name, jet if callable(jet) else _constant(jet))

    def __reduce__(self):
        return ShapeExpr, (self.root,)

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
            if not math.isfinite(value):  # overflowed to inf: no canonical form
                raise ShapeSyntaxError(i, ("a finite number",), text)
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


# -- parser and canonical printer ----------------------------------------------

# the operator table of the module docstring: level, least left, least right
_OPERATORS = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3), "^": (4, 5, 3)}
_NEG, _ATOM = 3, 5
MAX_DEPTH = 200  # the most levels a source may nest; see the module docstring

_ATOM_EXPECTED = ("a number", "'rho'", "'pi'", "a function name", "'('")
_TOO_DEEP = (f"at most {MAX_DEPTH} levels of nesting",)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def fail(self, expected):
        kind, text, offset = self.tokens[self.pos]
        raise ShapeSyntaxError(offset, expected, None if kind == "end" else str(text))

    def operand(self, least, depth):
        """The longest operand of level `least` or above from here, opened
        `depth` levels deep, and its height: the operators on its longest path."""
        if depth > MAX_DEPTH:
            self.pos -= 1  # refused at the token that opened the level
            self.fail(_TOO_DEEP)
        tokens = self.tokens
        at = self.pos
        if tokens[at][0] == "-":
            self.pos += 1
            arg, height = self.operand(_NEG, depth + 1)
            node, height, level = Neg(arg), height + 1, _NEG
        else:
            (node, height), level = self.atom(depth), _ATOM
        while height <= MAX_DEPTH:
            op = tokens[self.pos][0]
            if op not in _OPERATORS:
                return node, height
            own, left, right = _OPERATORS[op]
            if own < least or level < left:
                return node, height
            at = self.pos
            self.pos += 1
            arg, arg_height = self.operand(right, depth + 1)
            node, height, level = BinOp(op, node, arg), max(height, arg_height) + 1, own
        self.pos = at  # refused at the operator that made the tree too tall
        self.fail(_TOO_DEEP)

    def atom(self, depth):
        kind, text, offset = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return Num(text), 0
        if kind == "ident":
            if text == "rho":
                return Var(), 0
            if text == "pi":
                return Const("pi"), 0
            if text not in FUNCTIONS:
                raise UnknownIdentifierError(text, offset)
            if self.tokens[self.pos][0] != "(":
                self.fail(("'(' after function name",))
            arg, height = self.atom(depth)
            return Call(text, arg), height + 1
        if kind != "(":
            self.pos -= 1
            self.fail(_ATOM_EXPECTED)
        inner = self.operand(1, depth + 1)
        if self.tokens[self.pos][0] != ")":
            self.fail(("')'", "an operator"))
        self.pos += 1
        return inner

    def parse(self):
        node, _ = self.operand(1, 0)
        if self.tokens[self.pos][0] != "end":
            self.fail(("an operator", "end of input"))
        return node


def parse_shape(src):
    """Parse shape-function source text into an immutable ShapeExpr.

    Raises ShapeSyntaxError (with byte offset and expected-token set) on
    malformed input or on a source nested deeper than MAX_DEPTH, and
    UnknownIdentifierError for names outside the grammar.
    """
    return ShapeExpr(_Parser(_tokenize(src)).parse())


def _fmt(node, least):
    """Canonical text of node, in parentheses where its level is below `least`."""
    kind = type(node)
    if kind is BinOp:
        level, left, right = _OPERATORS[node.op]
        text = _fmt(node.left, left) + node.op + _fmt(node.right, right)
    elif kind is Neg:
        level, text = _NEG, "-" + _fmt(node.arg, _NEG)
    elif kind is Call:
        return f"{node.func}({_fmt(node.arg, 1)})"
    else:
        return "rho" if kind is Var else node.name if kind is Const else repr(node.value)
    return f"({text})" if level < least else text


def format_expr(expr):
    """Canonical text form; parsing it back reproduces the same tree."""
    return _fmt(expr.root, 1)


# -- compilation and evaluation -----------------------------------------------

_TOTAL_RULES = ("neg", "+", "-", "*")  # the only rules that cannot leave their domain
_DOMAIN_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


def _variable(x):
    return x


def _constant(jet):
    return lambda x: jet


def _kernel(rule, a, b=None):
    """Kernel applying rule to one or two compiled arguments, at most one constant;
    a bare rho is the variable jet x itself, passed on with no call."""
    if b is None:
        return rule if a is _variable else lambda x: rule(a(x))
    if not callable(a):
        return (lambda x: rule(a, x)) if b is _variable else lambda x: rule(a, b(x))
    if not callable(b):
        return (lambda x: rule(x, b)) if a is _variable else lambda x: rule(a(x), b)
    return lambda x: rule(a(x), b(x))


def _guard(kernel, node):
    """Report a failure of node's own rule as a ShapeDomainError at x's rho or grid.

    A subexpression's failure arrives already reported and passes through.
    An OverflowError, whose text is an errno tuple (Python's pow) or "math
    range error", is reported by the node's name: "power overflows", "exp
    overflows".
    """
    overflow = f"{node.func if isinstance(node, Call) else 'power'} overflows"

    def guarded(x):
        try:
            return kernel(x)
        except ShapeDomainError:
            raise
        except _DOMAIN_ERRORS as exc:
            reason = overflow if isinstance(exc, OverflowError) else str(exc)
            raise ShapeDomainError(reason, _fmt(node, 1), x[0]) from None

    return guarded


def _apply(rules, key, node, args):
    """Jet of the rule `key` over compiled args: folded now, by the scalar rule,
    when no arg involves rho; else a kernel, which _guard wraps when the rule
    can leave its domain."""
    if not any(map(callable, args)):
        try:
            return jets.SCALAR.table[key](*args)  # folded: the same rule on the same floats
        except _DOMAIN_ERRORS:
            args = [_constant(a) for a in args]  # fails at each evaluation, with its rho
    kernel = _kernel(rules.table[key], *args)
    return kernel if key in _TOTAL_RULES else _guard(kernel, node)


def _compile(node, rules):
    """Jet of node: a constant 4-tuple when node does not involve rho, else a
    kernel, a function of the variable jet x = (rho, 1.0, 0.0, 0.0), over the
    rules of one carrier; both carriers guard the same nodes, by _guard.

    Children are compiled, and so evaluated, left to right, so the first
    failing subexpression is the one a walk of the tree would meet first.  A
    '^' whose exponent folds to a jet with no derivative gets power's rule for
    its value, as power itself would choose at each evaluation.
    """
    if isinstance(node, Num):
        return (node.value, 0.0, 0.0, 0.0)
    if isinstance(node, Const):
        return (math.pi, 0.0, 0.0, 0.0)
    if isinstance(node, Var):
        return _variable
    if isinstance(node, Neg):
        return _apply(rules, "neg", node, [_compile(node.arg, rules)])
    if isinstance(node, BinOp):
        left, right = _compile(node.left, rules), _compile(node.right, rules)
        if node.op == "^" and callable(left) and not callable(right) and jets._no_derivative(right):
            try:
                rule = rules.power_rule(right[0])
            except _DOMAIN_ERRORS:
                pass  # an exponent int() refuses: power fails at each evaluation instead
            else:
                return _guard(_kernel(rule, left), node)
        return _apply(rules, node.op, node, [left, right])
    return _apply(rules, node.func, node, [_compile(node.arg, rules)])


def _array_jet(expr, rho, count):
    """Jets of S at the 1-D float array rho, from one run of the array kernel;
    FloatingPointError where it leaves a non-finite value in one of the first
    `count` components, those the scalar path checks, so on_grid replays the points."""
    jet = expr.array_kernel((rho, 1.0, 0.0, 0.0))  # the value of a bare rho is rho, on_grid's fresh copy
    columns = [c if isinstance(c, np.ndarray) else np.full(rho.shape, c) for c in jet]
    if not all(np.isfinite(c).all() for c in columns[:count]):
        raise FloatingPointError("non-finite jet component")
    return Jet3._make(columns)


def _eval_jet(expr, rho, count):
    """The jet of S at rho with its first `count` components checked finite."""
    if type(rho) is float:
        jet = expr.kernel((rho, 1.0, 0.0, 0.0))
        # zero times a finite float is a zero, times inf or nan a nan
        if math.prod(jet[:count], start=0.0) == 0.0:
            return tuple.__new__(Jet3, jet)  # Jet3._make without its Python-level length check
        raise ShapeDomainError("non-finite result", format_expr(expr), rho)
    return on_grid(rho, lambda r: _eval_jet(expr, float(r), count), lambda grid: _array_jet(expr, grid, count))


def eval_jet2(expr, rho):
    """Evaluate S at rho as a Jet3, checking only S, dS/drho and d2S/drho2.

    For callers that need no third derivative, so a non-finite d3 is not an
    error here.  rho is a float or a 1-D grid, by the rule of jets.on_grid:
    a grid's jets come back as four arrays, the scalar calls stacked, bit
    for bit, or the first failing point's error.  It stays a function of
    its own, not an alias of eval_jet3, so that wrappers installed by name
    (bench/spans.py) count the two apart.
    """
    return _eval_jet(expr, rho, 3)


def eval_jet3(expr, rho):
    """Evaluate (S, dS/drho, d2S/drho2, d3S/drho3) at rho, all checked finite.

    rho is a float or a 1-D grid, as for eval_jet2.
    """
    return _eval_jet(expr, rho, 4)
