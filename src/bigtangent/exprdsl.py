"""Recursive-descent parser and jet evaluator for the coordinate DSL.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' INT]      (no '^' after an atom starting with '-')
    atom   := NUMBER | VAR | FUNC '(' expr ')' | '(' expr ')' | '-' atom
    VAR    := ('x'|'y'|'z') INT
    FUNC   := sin | cos | exp | log | sqrt

Variables are 1-based per coordinate block: ``x1..xm, y1..ym, z1..zm``.
Exponents are integer literals only, so jets stay exact.  A unary minus
directly before an unparenthesised power (``-x1^2``) is a ``ParseError``:
write ``-(x1^2)`` or ``(-x1)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jets import Jet, JetDomainError, jet_space
from .points import ChartPoint

MAX_ORDER = 4

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Domain failure (log/sqrt/division), tagged with the AST node."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in `{node}`")
        self.node = node


# -- AST ------------------------------------------------------------------
@dataclass(frozen=True)
class Expr:
    pos: int

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    block: str  # 'x' | 'y' | 'z'
    index: int  # 1-based

    def __str__(self):
        return f"{self.block}{self.index}"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __str__(self):
        return f"({self.base}^{self.exponent})"


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr

    def __str__(self):
        return f"{self.name}({self.arg})"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def __str__(self):
        return f"(-{self.arg})"


# -- parser ---------------------------------------------------------------
class _Parser:
    def __init__(self, text: str, m: int):
        self.text = text
        self.m = m
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek() in ("+", "-"):
            start = self.pos
            op = self.text[self.pos]
            self.pos += 1
            e = BinOp(start, op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek() in ("*", "/"):
            start = self.pos
            op = self.text[self.pos]
            self.pos += 1
            e = BinOp(start, op, e, self.factor())
        return e

    def factor(self) -> Expr:
        negated = self.peek() == "-"
        e = self.atom()
        if self.peek() == "^":
            if negated:
                self.error("write -(a^n) or (-a)^n, not -a^n")
            start = self.pos
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            self.skip_ws()
            digits = self._digits()
            if not digits:
                self.error("exponent must be an integer literal")
            e = Pow(start, e, sign * int(digits))
        return e

    def atom(self) -> Expr:
        ch = self.peek()
        start = self.pos
        if ch == "-":
            self.pos += 1
            return Neg(start, self.atom())
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.take(")")
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            name = self._ident()
            if name in FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return Func(start, name, arg)
            if len(name) >= 2 and name[0] in "xyz" and name[1:].isdigit():
                index = int(name[1:])
                if not 1 <= index <= self.m:
                    raise ParseError(
                        f"variable {name} out of range for dimension {self.m}", start
                    )
                return Var(start, name[0], index)
            raise ParseError(f"unknown name '{name}'", start)
        self.error("expected a number, variable or '('")

    def number(self) -> Expr:
        start = self.pos
        digits = self._digits()
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.pos += 1
            digits += "." + self._digits()
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            exp = self._digits()
            if exp:
                digits = self.text[start : self.pos]
            else:
                self.pos = mark
        try:
            value = float(digits)
        except ValueError:
            raise ParseError("malformed number", start) from None
        return Num(start, value)

    def _digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return self.text[start : self.pos]

    def _ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_expr(text: str, m: int) -> Expr:
    """Parse ``text`` over the 3m chart variables x1..xm, y1..ym, z1..zm."""
    return _Parser(text, m).parse()


# -- evaluation -----------------------------------------------------------
def var_index(m: int, block: str, index: int) -> int:
    return {"x": 0, "y": 1, "z": 2}[block] * m + (index - 1)


def _eval(e: Expr, p: ChartPoint, space) -> Jet:
    try:
        if isinstance(e, Num):
            return Jet.constant(space, e.value, p.npoints)
        if isinstance(e, Var):
            var = var_index(p.m, e.block, e.index)
            return Jet.variable(space, var, np.atleast_1d(p.coord(var)))
        if isinstance(e, Neg):
            return -_eval(e.arg, p, space)
        if isinstance(e, Pow):
            return _eval(e.base, p, space) ** e.exponent
        if isinstance(e, Func):
            arg = _eval(e.arg, p, space)
            return getattr(arg, e.name)()
        if isinstance(e, BinOp):
            a = _eval(e.left, p, space)
            b = _eval(e.right, p, space)
            if e.op == "+":
                return a + b
            if e.op == "-":
                return a - b
            if e.op == "*":
                return a * b
            return a / b
    except JetDomainError as err:
        raise EvalDomainError(str(err), e) from None
    raise TypeError(f"unknown node {e!r}")


def eval_jet(e: Expr, p: ChartPoint, order: int) -> Jet:
    """Exact value and partials of ``e`` at ``p`` up to ``order``.

    Computed by truncated Taylor arithmetic, never finite differences.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    return _eval(e, p, jet_space(3 * p.m, order))


def fd_oracle(e: Expr, p: ChartPoint, multi_index, h: float = 1e-5) -> float:
    """Central-difference estimate of a partial derivative (tests only).

    ``multi_index`` is an exponent tuple of length 3m, total degree <= 3.
    """
    multi_index = tuple(int(a) for a in multi_index)
    if len(multi_index) != 3 * p.m:
        raise ValueError("multi_index must have length 3m")
    if sum(multi_index) > 3:
        raise ValueError("fd_oracle supports total degree <= 3")
    if h <= 0:
        raise ValueError("h must be positive")

    def rec(point: ChartPoint, alpha: tuple[int, ...]) -> float:
        for var, a in enumerate(alpha):
            if a > 0:
                down = list(alpha)
                down[var] -= 1
                down = tuple(down)
                return (
                    rec(point.shifted(var, h), down) - rec(point.shifted(var, -h), down)
                ) / (2.0 * h)
        return float(eval_jet(e, point, 0).value[0])

    return rec(p, multi_index)
