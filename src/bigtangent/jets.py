"""Truncated multivariate Taylor jets.

A ``Jet`` carries the Taylor coefficients (value and scaled partial
derivatives) of a scalar quantity at a batch of evaluation points.
Coefficients are stored as an array of shape (nterms, npoints); all
arithmetic broadcasts over the point axis, so evaluating an expression
graph at 50 sample points costs one graph traversal, not fifty.

Coefficient convention: ``c[alpha] = (d^alpha f) / alpha!``, so the
partial derivative for a multi-index alpha is ``c[alpha] * alpha!``.
"""

from __future__ import annotations

import math

import numpy as np

from .multiindex import JetSpace, jet_space


class JetDomainError(ArithmeticError):
    """Evaluation hit a singular point (log/sqrt/division).

    ``index`` is the first bad sample of the batch.  The field node that
    evaluated the jet sets ``point`` to that sample's chart coordinates,
    and a caller may set ``where`` to name what was being evaluated; both
    appear in the message.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message, self.index = message, index
        self.point = self.where = None

    def __str__(self):
        text = self.message
        if self.point is not None:
            text = f"{text} at {self.point}"
        return text if self.where is None else f"{self.where}: {text}"


class Jet:
    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, c: np.ndarray):
        self.space = space
        self.c = c

    # -- constructors ----------------------------------------------------
    @staticmethod
    def constant(space: JetSpace, value, npoints: int) -> "Jet":
        c = np.zeros((space.nterms, npoints))
        c[0] = value
        return Jet(space, c)

    @staticmethod
    def variable(space: JetSpace, var: int, value: np.ndarray) -> "Jet":
        jet = Jet.constant(space, value, len(value))
        if space.order >= 1:
            e = [0] * space.nvars
            e[var] = 1
            jet.c[space.index[tuple(e)]] = 1.0
        return jet

    # -- basic accessors -------------------------------------------------
    @property
    def value(self) -> np.ndarray:
        return self.c[0]

    @property
    def npoints(self) -> int:
        return self.c.shape[1]

    def deriv(self, alpha) -> np.ndarray:
        """Partial derivative values for multi-index ``alpha``."""
        alpha = tuple(alpha)
        fac = 1.0
        for a in alpha:
            fac *= math.factorial(a)
        return self.c[self.space.index[alpha]] * fac

    def partial(self, var: int) -> "Jet":
        """The jet of d(self)/dx_var, one order lower."""
        src, fac = self.space.partial_table(var)
        lower = jet_space(self.space.nvars, self.space.order - 1)
        return Jet(lower, self.c[src] * fac[:, None])

    # -- ring operations -------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.space is not self.space:
                raise ValueError("jet space mismatch")
            return other
        return Jet.constant(self.space, other, self.npoints)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.c + other.c)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.space, self.c - other.c)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c * other)
        if other.space is not self.space:
            raise ValueError("jet space mismatch")
        # Each term's products are summed in mul_table order, starting from
        # +0.0, so results match np.add.at over mul_table bit for bit.
        layers, pos = self.space.mul_layers
        a, b = self.c, other.c
        if len(layers) == 1:  # order 0: one product per point
            return Jet(self.space, a * b + 0.0)
        (_, ai, bi), *rest = layers
        acc = a[ai] * b[bi]
        for start, ai, bi in rest:
            acc[start:] += a[ai] * b[bi]
        acc += 0.0  # a -0.0 sum becomes +0.0, as when accumulating from zeros
        return Jet(self.space, acc if pos is None else acc[pos])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.c / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, n: int):
        if not isinstance(n, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        if n < 0:
            return self.reciprocal() ** (-n)
        result = Jet.constant(self.space, 1.0, self.npoints)
        base = self
        k = int(n)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- analytic functions ----------------------------------------------
    def _compose(self, derivs: list[np.ndarray]) -> "Jet":
        """Compose a scalar power series with the nilpotent part.

        ``derivs[k]`` must hold f^(k)(value)/k! for k = 0..order.  The
        rows of w^k below degree k are exact zeros, so its term is added
        to the rows of degree >= k only: an overflowed f^(k) leaves the
        lower rows finite.  Where f^(k) overflowed, a row of degree >= k
        in which w^k is an exact zero takes no term either, as 0 * inf
        would make it NaN.
        """
        order = self.space.order
        w = Jet(self.space, self.c.copy())
        w.c[0] = 0.0
        out = Jet.constant(self.space, derivs[0], self.npoints)
        wk = None
        for k in range(1, order + 1):
            wk = w if wk is None else wk * w
            low = int(np.searchsorted(self.space.degrees, k))  # terms are sorted by degree
            d = derivs[k][None, :]
            if np.isinf(d).any():
                with np.errstate(invalid="ignore"):  # the 0 * inf products are dropped
                    term = wk.c[low:] * d
                out.c[low:] += np.where((wk.c[low:] == 0.0) & np.isinf(d), 0.0, term)
            else:
                out.c[low:] += wk.c[low:] * d
        return out

    def _checked_value(self, cond: np.ndarray, what: str) -> np.ndarray:
        if np.any(cond):
            raise JetDomainError(what, int(np.argmax(cond)))
        return self.value

    def reciprocal(self) -> "Jet":
        v = self._checked_value(self.value == 0.0, "division by zero")
        derivs = [((-1.0) ** k) / v ** (k + 1) for k in range(self.space.order + 1)]
        return self._compose(derivs)

    def sin(self) -> "Jet":
        v = self.value
        cycle = [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
        derivs = [cycle[k % 4] / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(derivs)

    def cos(self) -> "Jet":
        v = self.value
        cycle = [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
        derivs = [cycle[k % 4] / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(derivs)

    def exp(self) -> "Jet":
        e = np.exp(self.value)
        derivs = [e / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(derivs)

    def log(self) -> "Jet":
        v = self._checked_value(self.value <= 0.0, "log of a non-positive value")
        derivs = [np.log(v)]
        for k in range(1, self.space.order + 1):
            derivs.append(((-1.0) ** (k - 1)) / (k * v ** k))
        return self._compose(derivs)

    def sqrt(self) -> "Jet":
        bad = (self.value < 0.0) | ((self.value == 0.0) & (self.space.order >= 1))
        v = self._checked_value(bad, "sqrt at a non-positive value")
        derivs = [np.sqrt(v)]
        coef = 0.5
        for k in range(1, self.space.order + 1):
            derivs.append(coef * v ** (0.5 - k))
            coef *= (0.5 - k) / (k + 1)
        return self._compose(derivs)
