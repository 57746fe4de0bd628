"""Expression mini-language for drifts, diffusions, and test functions.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' integer)?
    unary   := '-'? primary
    primary := number | 't' | 'x' | func '(' expr ')' | '(' expr ')'
    func    := sin | cos | exp | log | sqrt | bump | bump_d<k>

``bump(u)`` is exp(-1/(1-u^2)) for |u| < 1 and exactly 0 elsewhere, the
smooth compactly supported mollifier.  ``bump_d<k>`` names its k-th
derivative; these appear when printing differentiated expressions and are
accepted back by the parser so printing round-trips.  Exponents must be
literal non-negative integers, which keeps symbolic differentiation closed
over the language.

Differentiation is symbolic rather than numeric because the residual checks
downstream measure O(1/n) signals and need derivative error far below that.

Each expression compiles once to a numpy function, and one compiler emits
every such function.  It hash-conses a tuple of expressions into one DAG and
evaluates each distinct node once per call, and every bump over one argument
shares u, the support mask, w = 1-u^2 and exp(-1/w).  ``vectorized()``
returns the one-output case; ``TestFunction.jet`` evaluates phi_t, phi_x and
phi_xx together.  Each node runs the same numpy operation on the same
operands whichever function evaluates it, so the outputs of a jet, of
``vectorized()`` and of a scalar call ``e(t, x)`` (the one-output function
on float64 scalars) agree bit for bit.  A scalar call raises every
floating-point fault as ``ExprDomainError`` naming the innermost failing
subexpression, e.g. "division by zero in '1.0/(x - 1.0)'"; an overflow in
'+', '-', '*' or inside a bump names the whole expression.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache, partial
from typing import Callable, ClassVar

import numpy as np

from .grids import integer_in

__all__ = [
    "ExprError",
    "ExprSyntaxError",
    "ExprDomainError",
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "Bump",
    "parse",
    "as_expr",
    "TestFunction",
]


class ExprError(ValueError):
    """Base error for the expression language."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprDomainError(ExprError):
    def __init__(self, message: str, source: str):
        super().__init__(f"{message} in '{source}'")
        self.source = source


# Printer precedence levels; unary minus binds tighter than '^' in this
# grammar ("-x^2" parses as (-x)^2), so Neg sits above Pow.
_P_ADD, _P_MUL, _P_POW, _P_NEG, _P_ATOM = 1, 2, 3, 4, 5

_VectorFn = Callable[[object, object], object]


class Expr:
    """Immutable expression tree over the variables t and x."""

    def __call__(self, t: float, x: float) -> float:
        """Evaluate at one point; a floating-point fault raises ExprDomainError."""
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                return float(self._compiled(np.float64(t), np.float64(x)))
            except FloatingPointError:
                raise ExprDomainError("overflow", str(self)) from None

    def diff(self, var: str) -> "Expr":
        if var not in ("t", "x"):
            raise ExprError(f"unknown variable {var!r}")
        return self._diff(var)

    def vectorized(self) -> _VectorFn:
        """The compiled numpy function that scalar calls run too.

        Outside ``__call__`` domain faults follow the caller's numpy errstate,
        so under ``errstate(all="ignore")`` they surface as nan/inf.
        """
        return self._compiled

    def variables(self) -> frozenset[str]:
        return frozenset().union(*(v.variables() for v in vars(self).values() if isinstance(v, Expr)))

    def __str__(self) -> str:
        return self._src()[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    @cached_property
    def _compiled(self) -> _VectorFn:
        return _compile(self)

    # subclass hooks
    def _diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def _emit(self, c: "_Compiler", *args: str) -> str:
        """Emit this node's operation on its children's operands ``args``; return its operand."""
        raise NotImplementedError

    def _src(self) -> tuple[str, int]:
        raise NotImplementedError

    def _child(self, node: "Expr", min_prec: int) -> str:
        text, prec = node._src()
        return f"({text})" if prec < min_prec else text


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: float

    def _diff(self, var):
        return Const(0.0)

    def _emit(self, c):
        return c.constant(np.float64(self.value))

    def _src(self):
        text = repr(self.value)  # a leading minus, -0.0 included, prints as negation
        return text, _P_NEG if text.startswith("-") else _P_ATOM


@dataclass(frozen=True, repr=False)
class Var(Expr):
    name: str

    def __post_init__(self):
        if self.name not in ("t", "x"):
            raise ExprError(f"unknown variable {self.name!r}")

    def _diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def _emit(self, c):
        return self.name

    def variables(self):
        return frozenset((self.name,))

    def _src(self):
        return self.name, _P_ATOM


@dataclass(frozen=True, repr=False)
class Neg(Expr):
    arg: Expr

    def _diff(self, var):
        return _neg(self.arg._diff(var))

    def _emit(self, c, a):
        return c.assign(f"-{a}", (a,))

    def _src(self):
        return f"-{self._child(self.arg, _P_ATOM)}", _P_NEG


@dataclass(frozen=True, repr=False)
class _Binary(Expr):
    """``left symbol right``; a subclass gives its symbol, precedence and
    derivative.  The right operand binds one level tighter, so x - (t - 1.0)
    keeps its parentheses and x - t - 1.0 needs none.
    """

    left: Expr
    right: Expr

    symbol: ClassVar[str]
    prec: ClassVar[int]
    fault: ClassVar[str | None] = None  # a fault the node names in a scalar call

    def _emit(self, c, a, b):
        return c.assign(f"{a} {self.symbol.strip()} {b}", (a, b), self if self.fault else None)

    def _src(self):
        left, right = self._child(self.left, self.prec), self._child(self.right, self.prec + 1)
        return f"{left}{self.symbol}{right}", self.prec


class Add(_Binary):
    symbol, prec = " + ", _P_ADD

    def _diff(self, var):
        return _add(self.left._diff(var), self.right._diff(var))


class Sub(_Binary):
    symbol, prec = " - ", _P_ADD

    def _diff(self, var):
        return _sub(self.left._diff(var), self.right._diff(var))


class Mul(_Binary):
    symbol, prec = "*", _P_MUL

    def _diff(self, var):
        da, db = self.left._diff(var), self.right._diff(var)
        return _add(_mul(da, self.right), _mul(self.left, db))


class Div(_Binary):
    symbol, prec, fault = "/", _P_MUL, "division by zero"

    def _diff(self, var):
        da, db = self.left._diff(var), self.right._diff(var)
        num = _sub(_mul(da, self.right), _mul(self.left, db))
        return _div(num, _pow(self.right, 2))


@dataclass(frozen=True, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int

    fault: ClassVar[str] = "overflow"

    def __post_init__(self):
        message = "exponent must be a non-negative integer"
        object.__setattr__(self, "exponent", integer_in(self.exponent, 0, None, ExprError, message))

    def _diff(self, var):
        if self.exponent == 0:
            return Const(0.0)
        db = self.base._diff(var)
        return _mul(Const(float(self.exponent)), _mul(_pow(self.base, self.exponent - 1), db))

    def _emit(self, c, a):
        # numpy's scalar power rounds differently from its array power
        return c.assign(f"_asarray({a}) ** {self.exponent}", (a,), self)

    def _src(self):
        return f"{self._child(self.base, _P_NEG)}^{self.exponent}", _P_POW


# name -> (ufunc, message for a fault in its argument, derivative (u, du) -> Expr)
_FUNCTIONS = {
    "sin": (np.sin, "sin of an infinite value", lambda u, du: _mul(Call("cos", u), du)),
    "cos": (np.cos, "cos of an infinite value", lambda u, du: _mul(_neg(Call("sin", u)), du)),
    "exp": (np.exp, "overflow", lambda u, du: _mul(Call("exp", u), du)),
    "log": (np.log, "log of a non-positive value", lambda u, du: _div(du, u)),
    "sqrt": (np.sqrt, "sqrt of a negative value", lambda u, du: _div(du, _mul(Const(2.0), Call("sqrt", u)))),
}


@dataclass(frozen=True, repr=False)
class Call(Expr):
    name: str
    arg: Expr

    def __post_init__(self):
        if self.name not in _FUNCTIONS:
            raise ExprError(f"unknown function {self.name!r}")

    @property
    def fault(self) -> str:
        return _FUNCTIONS[self.name][1]

    def _diff(self, var):
        return _FUNCTIONS[self.name][2](self.arg, self.arg._diff(var))

    def _emit(self, c, a):
        return c.assign(f"_{self.name}({a})", (a,), self)

    def _src(self):
        return f"{self.name}({self.arg._src()[0]})", _P_ATOM


@lru_cache(maxsize=None)
def _bump_poly(order: int) -> tuple[int, ...]:
    """Integer coefficients P_k with bump^(k)(u) = bump(u) * P_k(u) / (1-u^2)^(2k).

    The recurrence follows from differentiating the quotient form:
    P_{k+1} = (1-u^2)^2 P_k' + 4k u (1-u^2) P_k - 2u P_k, with P_0 = 1.
    The last coefficient is nonzero.
    """
    if order == 0:
        return (1,)
    p = _bump_poly(order - 1)
    k = order - 1
    dp = tuple(c * i for i, c in enumerate(p))[1:] or (0,)
    # (1 - u^2)^2 = 1 - 2u^2 + u^4
    term1 = _poly_add(_poly_add(dp, _poly_shift(dp, 2, -2)), _poly_shift(dp, 4, 1))
    # 4k u (1 - u^2) = 4k u - 4k u^3
    term2 = _poly_add(_poly_shift(p, 1, 4 * k), _poly_shift(p, 3, -4 * k))
    term3 = _poly_shift(p, 1, -2)
    return _poly_add(_poly_add(term1, term2), term3)


def _poly_shift(p: tuple[int, ...], degree: int, scale: int) -> tuple[int, ...]:
    return (0,) * degree + tuple(c * scale for c in p)


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a + b without trailing zero coefficients, (0,) for the zero polynomial."""
    size = max(len(a), len(b))
    total = [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(size)]
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    return tuple(total)


def _poly_eval(p: tuple[int, ...], u):
    """Horner's rule, started at the last coefficient: from acc = 0 the first
    step, 0*u + p[-1], gives p[-1] exactly wherever u is finite.
    """
    acc = float(p[-1])
    for c in reversed(p[:-1]):
        acc = acc * u + c
    return acc


@dataclass(frozen=True, repr=False)
class Bump(Expr):
    """k-th derivative of the mollifier, exactly 0 for |arg| >= 1.

    Every derivative keeps the form bump(u) * rational(u); the rational
    blowup at u = +-1 is dominated by the exponential decay, so the guarded
    zero outside the open support is the correct continuous extension.
    """

    order: int
    arg: Expr

    def __post_init__(self):
        message = "bump derivative order must be a non-negative integer"
        object.__setattr__(self, "order", integer_in(self.order, 0, None, ExprError, message))

    def _diff(self, var):
        return _mul(Bump(self.order + 1, self.arg), self.arg._diff(var))

    def _emit(self, c, a):
        u, inside, w, support = c.bump_support(a)
        value = c.fresh()
        if not self.order:
            c.step(f"{value} = _where({inside}, {support}, 0.0)", defines=(value,), reads=(inside, support))
            return value
        c.step(
            "with _quiet():",  # lanes outside the support may overflow; they are zeroed below
            f"    {value} = {support} * _poly({_bump_poly(self.order)!r}, {u}) / {w} ** {2 * self.order}",
            f"{value} = _where({inside}, {value}, 0.0)",
            defines=(value,),
            reads=(u, inside, w, support),
        )
        return value

    def _src(self):
        name = "bump" if self.order == 0 else f"bump_d{self.order}"
        return f"{name}({self.arg._src()[0]})", _P_ATOM


# ----------------------------------------------------------------------
# compiler

# the names an emitted function reads besides its operands
_GLOBALS = {
    "_asarray": np.asarray,
    "_float64": np.float64,
    "_abs": np.abs,
    "_where": np.where,
    "_quiet": partial(np.errstate, over="ignore", invalid="ignore"),
    "_poly": _poly_eval,
    **{f"_{name}": ufunc for name, (ufunc, _, _) in _FUNCTIONS.items()},
}


def _fault(guarded: list[Expr], exc: FloatingPointError, i: int) -> ExprDomainError:
    node = guarded[i]
    return ExprDomainError("overflow" if str(exc).startswith("overflow") else node.fault, str(node))


class _Compiler:
    """Straight-line numpy code evaluating each distinct node once.

    A node's key is its type, its own fields and its children's operands,
    so structurally equal subtrees share one operand.  A float field is
    keyed with its sign too, because Const(0.0) == Const(-0.0).
    """

    def __init__(self):
        self.operands: dict[tuple, str] = {}
        self.guarded: list[Expr] = []
        self.globals = {**_GLOBALS, "_fault": partial(_fault, self.guarded)}
        # (lines, locals they define, operands they read), in evaluation order
        self.steps: list[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = []
        self.supports: dict[str, tuple[str, str, str, str]] = {}
        self.names = itertools.count()

    def operand(self, node: Expr) -> str:
        values = [getattr(node, f.name) for f in fields(node)]
        args = [self.operand(v) for v in values if isinstance(v, Expr)]
        own = [v for v in values if not isinstance(v, Expr)]
        key = (type(node), *((v, math.copysign(1.0, v)) if isinstance(v, float) else v for v in own), *args)
        if key not in self.operands:
            self.operands[key] = node._emit(self, *args)
        return self.operands[key]

    def fresh(self) -> str:
        return f"v{next(self.names)}"

    def constant(self, value) -> str:
        name = self.fresh()
        self.globals[name] = value
        return name

    def step(self, *lines: str, defines: tuple[str, ...], reads: tuple[str, ...]) -> None:
        self.steps.append((lines, defines, reads))

    def assign(self, text: str, reads: tuple[str, ...], guard: Expr | None = None) -> str:
        """A new local holding ``text``; under a scalar call's errstate a
        fault in it names ``guard``."""
        name = self.fresh()
        if guard is None:
            self.step(f"{name} = {text}", defines=(name,), reads=reads)
            return name
        self.guarded.append(guard)
        self.step(
            "try:",
            f"    {name} = {text}",
            "except FloatingPointError as exc:",
            f"    raise _fault(exc, {len(self.guarded) - 1}) from None",
            defines=(name,),
            reads=reads,
        )
        return name

    def bump_support(self, arg: str) -> tuple[str, str, str, str]:
        """u, |u| < 1 where exp(-1/w) > 0, w = 1-u^2 inside (1 outside) and
        exp(-1/w), once per bump argument.

        A lane where exp(-1/w) underflows to 0 is not inside, so every bump
        over it is 0 there: from order 17 on, w^(2k) underflows there too,
        and the quotient would be 0/0.
        """
        if arg not in self.supports:
            u, inside, w, support = names = tuple(self.fresh() for _ in range(4))
            self.step(
                f"{u} = _asarray({arg}, dtype=_float64)",
                f"{inside} = _abs({u}) < 1.0",
                "with _quiet():",  # lanes outside the support may overflow; each bump zeroes them
                f"    {w} = _where({inside}, 1.0 - {u} * {u}, 1.0)",
                f"    {support} = _exp(-1.0 / {w})",
                f"{inside} &= {support} > 0.0",
                defines=names,
                reads=(arg,),
            )
            self.supports[arg] = names
        return self.supports[arg]

    def function(self, outputs: list[str]) -> _VectorFn:
        """def compiled(t, x) returning the outputs, one bare or several as a
        tuple; each local is deleted after the step that reads it last."""
        last = {name: i for i, (_, defines, _) in enumerate(self.steps) for name in defines}
        for i, (_, _, reads) in enumerate(self.steps):
            last.update((name, i) for name in reads if name in last)
        for name in outputs:
            last.pop(name, None)
        body = []
        for i, (lines, _, _) in enumerate(self.steps):
            body += lines
            dead = [name for name, at in last.items() if at == i]
            if dead:
                body.append(f"del {', '.join(dead)}")
        result = outputs[0] if len(outputs) == 1 else f"({', '.join(outputs)},)"
        source = "\n    ".join(["def compiled(t, x):", *body, f"return {result}"])
        exec(source, self.globals)
        return self.globals["compiled"]


def _compile(*exprs: Expr) -> _VectorFn:
    """One numpy function of (t, x) returning the value of each expression."""
    c = _Compiler()
    return c.function([c.operand(e) for e in exprs])


# ----------------------------------------------------------------------
# smart constructors: fold additive/multiplicative identities so that
# differentiated expressions stay compact


def _is_const(e: Expr, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(base: Expr, exponent: int) -> Expr:
    if exponent == 0:
        return Const(1.0)
    if exponent == 1:
        return base
    return Pow(base, exponent)


# ----------------------------------------------------------------------
# parser

_NUM_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_BUMP_RE = re.compile(r"bump(?:_d(\d+))?$")
_BINARY = {node_type.symbol.strip(): node_type for node_type in (Add, Sub, Mul, Div)}


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        ch = source[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUM_RE.match(source, pos)
        if m:
            tokens.append(("num", m.group(0), pos))
            pos = m.end()
            continue
        m = _NAME_RE.match(source, pos)
        if m:
            tokens.append(("name", m.group(0), pos))
            pos = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, *ops: str) -> str | None:
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.advance()
            return text
        return None

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", offset)
        return e

    def expr(self, prec: int = _P_ADD) -> Expr:
        """One left-associative level: '+ -' at _P_ADD, '* /' at _P_MUL."""
        operand = self.factor if prec == _P_MUL else partial(self.expr, prec + 1)
        ops = [symbol for symbol, node_type in _BINARY.items() if node_type.prec == prec]
        node = operand()
        while (op := self.accept_op(*ops)) is not None:
            node = _BINARY[op](node, operand())
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.accept_op("^"):
            kind, text, offset = self.peek()
            if kind != "num" or "." in text or "e" in text or "E" in text:
                raise ExprSyntaxError("exponent must be a constant non-negative integer", offset)
            self.advance()
            node = Pow(node, int(text))
        return node

    def unary(self) -> Expr:
        if self.accept_op("-"):
            return Neg(self.primary())
        return self.primary()

    def primary(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            if text in ("t", "x"):
                return Var(text)
            bump = _BUMP_RE.match(text)
            if text in _FUNCTIONS or bump:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                if bump:
                    return Bump(int(bump.group(1) or 0), arg)
                return Call(text, arg)
            raise ExprSyntaxError(f"unknown identifier {text!r}", offset)
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


def parse(source: str) -> Expr:
    """Parse an expression in the variables t and x."""
    return _Parser(source).parse()


def as_expr(value) -> Expr:
    """Coerce a string, number, or Expr to an Expr."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(float(value))
    if isinstance(value, str):
        return parse(value)
    raise ExprError(f"cannot interpret {value!r} as an expression")


# ----------------------------------------------------------------------
# test functions

_UNBOUNDED = (-np.inf, np.inf)


def _product_factors(e: Expr) -> list[Expr]:
    if isinstance(e, Mul):
        return _product_factors(e.left) + _product_factors(e.right)
    if isinstance(e, Neg):
        return [Const(-1.0)] + _product_factors(e.arg)
    return [e]


@dataclass(frozen=True)
class TestFunction:
    """A smooth compactly supported function of (t, x) with stored derivatives.

    Built as a product of bump factors with affine arguments (optionally
    times extra smooth factors), so the function and the stored partial
    derivatives all evaluate to exactly 0 outside the declared support
    rectangle, including on its boundary.  Without a label it is labelled
    by its expression.
    """

    __test__ = False  # not a pytest class despite the name

    expr: Expr
    d_t: Expr
    d_x: Expr
    d_xx: Expr
    t_support: tuple[float, float]
    x_support: tuple[float, float]
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", str(self.expr))

    @classmethod
    def from_bumps(
        cls,
        x_center: float = 0.0,
        x_width: float = 1.0,
        t_center: float | None = None,
        t_width: float | None = None,
        extra=None,
        label: str = "",
    ) -> "TestFunction":
        """Product of axis bumps bump((v - center) / width), one per given axis."""
        given = {"x_center": x_center, "x_width": x_width, "t_center": t_center, "t_width": t_width}
        for name, value in given.items():
            if value is not None and not math.isfinite(value):
                raise ExprError(f"{name} must be finite, got {value!r}")
        factors: list[Expr] = []
        if t_center is not None:
            if t_width is None or t_width <= 0:
                raise ExprError("t_width must be positive when t_center is given")
            factors.append(Bump(0, _div(_sub(Var("t"), Const(float(t_center))), Const(float(t_width)))))
        if x_width <= 0:
            raise ExprError("x_width must be positive")
        factors.append(Bump(0, _div(_sub(Var("x"), Const(float(x_center))), Const(float(x_width)))))
        if extra is not None:
            factors.append(as_expr(extra))
        e = factors[0]
        for factor in factors[1:]:
            e = Mul(e, factor)
        return cls.from_expression(e, label)

    @classmethod
    def from_expression(cls, source, label: str = "") -> "TestFunction":
        """Infer the support rectangle from top-level bump factors.

        Each bump factor's argument u must be affine in a single variable v:
        du/dv has no variables and evaluates to a finite nonzero slope a,
        so u = a*v + u(0, 0).  The declared support is the intersection of
        the |u| < 1 intervals per axis (unbounded on an axis with no bump
        factor, which is sound: the true support can only be smaller).
        """
        e = as_expr(source)
        supports = {"t": _UNBOUNDED, "x": _UNBOUNDED}
        for factor in _product_factors(e):
            if not isinstance(factor, Bump):
                continue
            used = factor.arg.variables()
            if not used:
                continue
            if len(used) > 1:
                raise ExprError(
                    f"bump argument '{factor.arg}' mixes t and x; support inference needs one variable per factor"
                )
            (var,) = used
            slope = factor.arg.diff(var)
            try:
                a = math.nan if slope.variables() else slope(0.0, 0.0)
                b = factor.arg(0.0, 0.0)
            except ExprDomainError:
                a = math.nan
            if not math.isfinite(a) or a == 0.0:
                raise ExprError(f"bump argument '{factor.arg}' must be affine in {var} to infer support")
            lo, hi = sorted(((-1.0 - b) / a, (1.0 - b) / a))
            supports[var] = max(supports[var][0], lo), min(supports[var][1], hi)
        d_x = e.diff("x")
        return cls(e, e.diff("t"), d_x, d_x.diff("x"), supports["t"], supports["x"], label)

    def __call__(self, t: float, x: float) -> float:
        return self.expr(t, x)

    @cached_property
    def jet(self) -> Callable[[object, object], tuple]:
        """(phi_t, phi_x, phi_xx) at (t, x), as ``dt_fn``, ``dx_fn`` and ``dxx_fn``
        give them bit for bit, from one function that evaluates their shared
        subexpressions once."""
        return _compile(self.d_t, self.d_x, self.d_xx)

    @cached_property
    def value_fn(self) -> _VectorFn:
        return self.expr.vectorized()

    @cached_property
    def dt_fn(self) -> _VectorFn:
        return self.d_t.vectorized()

    @cached_property
    def dx_fn(self) -> _VectorFn:
        return self.d_x.vectorized()

    @cached_property
    def dxx_fn(self) -> _VectorFn:
        return self.d_xx.vectorized()
