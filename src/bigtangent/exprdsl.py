"""Recursive-descent parser from the coordinate DSL to field-graph nodes.

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

The parser builds interned ``fields`` nodes as it reads: ``Const`` for a
number, ``Coord`` for a variable, and the field operators, with their
constant folds, for unary minus, ``^``, the functions and ``+ - * /``.
The same text therefore gives the very same node, and the field graph is
the only evaluator: ``f.jet(p, order)`` gives the exact value and partials,
and a domain error is a ``JetDomainError`` naming the sample point.

Two bounds validate the input.  Parentheses, function calls and unary
minus may nest at most ``MAX_HEIGHT`` deep, which keeps this parser, the
one recursive walk left, inside Python's recursion limit.  A graph may be
at most ``MAX_HEIGHT`` levels tall (a number or variable is one level,
each operator or function adds one), so a long flat sum is refused as
well as a deep nesting.  Evaluation keeps its own stack and needs neither
bound.  Past either bound the parser raises ``ParseError``.

A caller may name the coordinate blocks the text may read.  Once the text
has parsed, a variable of any other block raises ``DependencyError``,
also when a fold erased it from the graph (``0*y1`` in an x-only slot).
"""

from __future__ import annotations

from .fields import Const, Coord, ScalarField

# Input validation: the deepest nesting and the tallest graph one entry may
# have.  The nesting bound keeps the recursive-descent parser well inside
# Python's default limit of 1000 frames; evaluation keeps its own stack.
MAX_HEIGHT = 100

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")


class DependencyError(ValueError):
    """A component uses a coordinate block its role forbids."""


class _Parser:
    def __init__(self, text: str, m: int):
        self.text = text
        self.m = m
        self.pos = 0
        self.depth = 0
        self.heights: dict = {}  # node -> graph levels
        self.blocks: set = set()

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

    def parse(self) -> ScalarField:
        f = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return f

    def built(self, f: ScalarField, *operands: ScalarField) -> ScalarField:
        """Record the height of ``f``, made from ``operands`` by one operator
        (a leaf has none)."""
        if f not in self.heights:
            height = 1
            if type(f) is not Const:
                height += max((self.heights[a] for a in operands), default=0)
            if height > MAX_HEIGHT:
                self.error(f"expression is more than {MAX_HEIGHT} levels tall")
            self.heights[f] = height
        return f

    def nested(self, parse) -> ScalarField:
        """``parse()`` one nesting level deeper."""
        if self.depth == MAX_HEIGHT:
            self.error(f"expression nests more than {MAX_HEIGHT} levels deep")
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def expr(self) -> ScalarField:
        f = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            g = self.term()
            f = self.built(f + g if op == "+" else f - g, f, g)
        return f

    def term(self) -> ScalarField:
        f = self.factor()
        while self.peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            g = self.factor()
            f = self.built(f * g if op == "*" else f / g, f, g)
        return f

    def factor(self) -> ScalarField:
        negated = self.peek() == "-"
        f = self.atom()
        if self.peek() == "^":
            if negated:
                self.error("write -(a^n) or (-a)^n, not -a^n")
            self.pos += 1
            sign = 1
            if self.peek() == "-":
                sign = -1
                self.pos += 1
            self.skip_ws()
            digits = self._digits()
            if not digits:
                self.error("exponent must be an integer literal")
            f = self.built(f ** (sign * int(digits)), f)
        return f

    def atom(self) -> ScalarField:
        ch = self.peek()
        start = self.pos
        if ch == "-":
            self.pos += 1
            f = self.nested(self.atom)
            return self.built(-f, f)
        if ch == "(":
            self.pos += 1
            f = self.nested(self.expr)
            self.take(")")
            return f
        if ch.isdigit() or ch == ".":
            return self.built(self.number())
        if ch.isalpha():
            name = self._ident()
            if name in FUNCTIONS:
                self.take("(")
                f = self.nested(self.expr)
                self.take(")")
                return self.built(getattr(f, name)(), f)
            if len(name) >= 2 and name[0] in "xyz" and name[1:].isdigit():
                index = int(name[1:])
                if not 1 <= index <= self.m:
                    raise ParseError(
                        f"variable {name} out of range for dimension {self.m}", start
                    )
                self.blocks.add(name[0])
                return self.built(Coord("xyz".index(name[0]) * self.m + index - 1))
            raise ParseError(f"unknown name '{name}'", start)
        self.error("expected a number, variable or '('")

    def number(self) -> Const:
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
        return Const(value)

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


def parse_expr(
    text: str, m: int, allowed="xyz", what: str = "expression"
) -> ScalarField:
    """The field graph of ``text`` over the chart variables x1..xm, y1..ym, z1..zm.

    ``allowed`` names the coordinate blocks ``text`` may read; reading
    another raises ``DependencyError`` naming ``what``.
    """
    parser = _Parser(text, m)
    f = parser.parse()
    bad = parser.blocks - set(allowed)
    if bad:
        raise DependencyError(
            f"{what} may depend on {sorted(allowed)} only, found {sorted(bad)}"
        )
    return f

