"""Truncated multivariate Taylor jets.

A jet is its coefficient array in a ``JetSpace``, of shape (nterms,
npoints): the Taylor coefficients (value and scaled partial derivatives)
of a scalar quantity at a batch of evaluation points.  Every operation
here is a function of the space and the array, and broadcasts over the
point axis, so evaluating an expression graph at 50 sample points costs
one graph traversal, not fifty.

Coefficient convention: ``c[alpha] = (d^alpha f) / alpha!``, so the
partial derivative for a multi-index alpha is ``c[alpha] * alpha!``.
"""

from __future__ import annotations

import math

import numpy as np

from .multiindex import JetSpace


class JetDomainError(ArithmeticError):
    """Evaluation hit a singular point (log/sqrt/division).

    ``index`` is the first bad sample of the batch.  The field node that
    evaluated the jet sets ``point`` to that sample's chart coordinates,
    which the message then names.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message, self.index = message, index
        self.point = None

    def __str__(self):
        return self.message if self.point is None else f"{self.message} at {self.point}"


def mul_coeffs(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product in ``space`` of coefficient arrays (nterms, ..., npoints)
    whose middle axes broadcast, one numpy call per layer.  Each term's
    products are summed in mul_table order, starting from +0.0, so results
    match np.add.at over mul_table bit for bit."""
    layers, pos = space.mul_layers
    if len(layers) == 1:  # order 0: one product per point
        return a * b + 0.0
    (_, ai, bi), *rest = layers
    acc = a[ai] * b[bi]
    for start, ai, bi in rest:
        acc[start:] += a[ai] * b[bi]
    acc += 0.0  # a -0.0 sum becomes +0.0, as when accumulating from zeros
    return acc if pos is None else acc[pos]


def constant(space: JetSpace, value, npoints: int) -> np.ndarray:
    """The jet of ``value`` (a number or one per point) at ``npoints`` points."""
    c = np.zeros((space.nterms, npoints))
    c[0] = value
    return c


def variable(space: JetSpace, var: int, value: np.ndarray) -> np.ndarray:
    """The jet of the ``var``-th variable of ``space``, at ``value``."""
    c = constant(space, value, len(value))
    if space.order >= 1:
        e = [0] * space.nvars
        e[var] = 1
        c[space.index[tuple(e)]] = 1.0
    return c


def power(space: JetSpace, c: np.ndarray, n: int) -> np.ndarray:
    """``c`` to the integer power ``n``, by binary exponentiation; a
    negative ``n`` raises the reciprocal to ``-n``."""
    if n < 0:
        return power(space, reciprocal(space, c), -n)
    result = constant(space, 1.0, c.shape[-1])
    base = c
    k = int(n)
    while k:
        if k & 1:
            result = mul_coeffs(space, result, base)
        k >>= 1
        if k:  # the square after the last bit would go unread
            base = mul_coeffs(space, base, base)
    return result


def compose(space: JetSpace, c: np.ndarray, derivs: list[np.ndarray]) -> np.ndarray:
    """Compose a scalar power series with the nilpotent part of ``c``.

    ``derivs[k]`` must hold f^(k)(value)/k! for k = 0..order.  The rows of
    w^k below degree k are exact zeros, so its term is added to the rows
    of degree >= k only: an overflowed f^(k) leaves the lower rows finite.
    Where f^(k) overflowed, a row of degree >= k in which w^k is an exact
    zero takes no term either, as 0 * inf would make it NaN.
    """
    w = c.copy()
    w[0] = 0.0
    out = constant(space, derivs[0], c.shape[-1])
    wk = None
    for k in range(1, space.order + 1):
        wk = w if wk is None else mul_coeffs(space, wk, w)
        low = int(np.searchsorted(space.degrees, k))  # terms are sorted by degree
        d = derivs[k][None, :]
        if np.isinf(d).any():
            with np.errstate(invalid="ignore"):  # the 0 * inf products are dropped
                term = wk[low:] * d
            out[low:] += np.where((wk[low:] == 0.0) & np.isinf(d), 0.0, term)
        else:
            out[low:] += wk[low:] * d
    return out


def _checked_value(c: np.ndarray, bad: np.ndarray, what: str) -> np.ndarray:
    if np.any(bad):
        raise JetDomainError(what, int(np.argmax(bad)))
    return c[0]


def reciprocal(space: JetSpace, c: np.ndarray) -> np.ndarray:
    v = _checked_value(c, c[0] == 0.0, "division by zero")
    derivs = [((-1.0) ** k) / v ** (k + 1) for k in range(space.order + 1)]
    return compose(space, c, derivs)


def sin(space: JetSpace, c: np.ndarray) -> np.ndarray:
    v = c[0]
    cycle = [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
    derivs = [cycle[k % 4] / math.factorial(k) for k in range(space.order + 1)]
    return compose(space, c, derivs)


def cos(space: JetSpace, c: np.ndarray) -> np.ndarray:
    v = c[0]
    cycle = [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
    derivs = [cycle[k % 4] / math.factorial(k) for k in range(space.order + 1)]
    return compose(space, c, derivs)


def exp(space: JetSpace, c: np.ndarray) -> np.ndarray:
    e = np.exp(c[0])
    derivs = [e / math.factorial(k) for k in range(space.order + 1)]
    return compose(space, c, derivs)


def log(space: JetSpace, c: np.ndarray) -> np.ndarray:
    v = _checked_value(c, c[0] <= 0.0, "log of a non-positive value")
    derivs = [np.log(v)]
    for k in range(1, space.order + 1):
        derivs.append(((-1.0) ** (k - 1)) / (k * v ** k))
    return compose(space, c, derivs)


def sqrt(space: JetSpace, c: np.ndarray) -> np.ndarray:
    bad = (c[0] < 0.0) | ((c[0] == 0.0) & (space.order >= 1))
    v = _checked_value(c, bad, "sqrt at a non-positive value")
    derivs = [np.sqrt(v)]
    coef = 0.5
    for k in range(1, space.order + 1):
        derivs.append(coef * v ** (0.5 - k))
        coef *= (0.5 - k) / (k + 1)
    return compose(space, c, derivs)


# name -> analytic function, the functions a ``fields.Func`` node applies
FUNCTIONS = {f.__name__: f for f in (reciprocal, sin, cos, exp, log, sqrt)}
