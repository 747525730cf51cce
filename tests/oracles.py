"""Independent oracles and constructions that several test modules share.

Each is compared against the package code it checks: finite differences
against exact jets, explicit Lie brackets against the Nijenhuis formula,
permutations against the stored antisymmetry of forms, and the lifted
metric of a base metric against the scene's and the double field's
constructions.  None is part of the package.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce

import numpy as np

from bigtangent import horizon, metrics, tensorcalc as tc
from bigtangent.fields import Const, ScalarField, fzeros
from bigtangent.jets import Jet, JetDomainError, mul_coeffs
from bigtangent.metrics import BigMetric
from bigtangent.points import ChartPoint
from bigtangent.tensorcalc import TensorField


# -- sample points ---------------------------------------------------------
def box_points(m: int, npoints: int, seed: int, low: float, high: float) -> ChartPoint:
    """Uniform sample points in the box [low, high)^{3m}, the draw
    ``sample_box`` makes for the unit box, for fields that need to keep
    away from a singular point."""
    rng = np.random.default_rng(seed)
    return ChartPoint(*rng.uniform(low, high, size=(3, m, npoints)))


# -- finite differences ---------------------------------------------------
def shifted(point: ChartPoint, var: int, h: float) -> ChartPoint:
    """``point`` with chart variable ``var`` moved by ``h``."""
    flat = point.flat.copy()
    flat[var] = flat[var] + h
    m = point.m
    return ChartPoint(flat[:m], flat[m : 2 * m], flat[2 * m :])


def fd_oracle(f: ScalarField, p: ChartPoint, multi_index, h: float = 1e-5) -> float:
    """Central-difference estimate of a partial derivative.

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
                    rec(shifted(point, var, h), down) - rec(shifted(point, var, -h), down)
                ) / (2.0 * h)
        return float(f.jet(point, 0).value[0])

    return rec(p, multi_index)


# -- sums of products -------------------------------------------------------
def hand_sum(terms, start):
    """The accumulation loop ``fields.fsum`` replaces, ``acc = start;
    acc = acc +/- f1 * f2 * ...``, every product built with the operators
    and none skipped: a chain of product and ``+``/``-`` nodes."""
    acc = start
    for sign, *factors in terms:
        prod = reduce(operator.mul, factors)
        acc = acc + prod if sign > 0 else acc - prod
    return acc


def operator_jet(op: str, a: ScalarField, b: ScalarField, ja: Jet, jb: Jet) -> Jet:
    """The jet of ``a op b``, ``op`` one of ``+ - * /``, by the two-operand
    rule, from the jets ``ja`` and ``jb`` of ``a`` and ``b`` in one space
    (``-a`` is ``ZERO - a``): ``+`` and ``-`` add or subtract the
    coefficients, ``*`` multiplies them with ``mul_coeffs`` and ``/`` is
    ``a * b.reciprocal()``.  A constant factor of ``*``, or a constant
    numerator of ``/``, scales the other jet as a number, ``c * x + 0.0``:
    a -0.0 becomes +0.0 as in the product, and an overflowed row takes no
    0 * inf."""
    space = ja.space
    if op in "+-":
        return Jet(space, ja.c + jb.c if op == "+" else ja.c - jb.c)
    if op == "/":
        jb = jb.reciprocal()
    if type(a) is Const:
        return Jet(space, a.v * jb.c + 0.0)
    if type(b) is Const and op == "*":
        return Jet(space, b.v * ja.c + 0.0)
    return Jet(space, mul_coeffs(space, ja.c, jb.c))


# -- tensors --------------------------------------------------------------
def check_antisymmetric(T: TensorField, p: ChartPoint, tol: float = 1e-12) -> bool:
    v = T.value(p)
    k = len(T.sig)
    for perm in itertools.permutations(range(k)):
        sign = _perm_sign(perm)
        if not np.allclose(v, sign * np.transpose(v, perm + (k,)), atol=tol):
            return False
    return True


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def nijenhuis_via_brackets(A: TensorField) -> TensorField:
    """Oracle: N(e_i, e_j) assembled from explicit Lie brackets."""
    tc._require_natural(A)
    n = A.n
    m = A.m
    out = fzeros(n, n, n)
    basis = [tc.basis_vector(i, m) for i in range(n)]
    for i in range(n):
        Ai = tc.apply_11(A, basis[i])
        for j in range(n):
            Aj = tc.apply_11(A, basis[j])
            term = tc.lie_bracket(Ai, Aj)
            term = term - tc.apply_11(A, tc.lie_bracket(Ai, basis[j]))
            term = term - tc.apply_11(A, tc.lie_bracket(basis[i], Aj))
            # A^2 [e_i, e_j] = 0 for coordinate fields
            for k in range(n):
                out[k, i, j] = term.comps[k]
    return TensorField(("up", "down", "down"), out, m)


# -- metrics --------------------------------------------------------------
def sasaki_metric(g, m: int) -> BigMetric:
    """Lifted metric of a base metric g(x): the coframe form over the
    horizontal bundle of the base Levi-Civita connection, so the fiber
    terms are the classical covariant differentials of y and z."""
    Gamma = metrics.base_christoffels(g, m)
    H = horizon.from_linear_connection(Gamma, m)
    return metrics.sasaki_type_metric(g, H)


def lagrangian_metric(L, m: int) -> BigMetric:
    """The Lagrangian metric of L over the bundle of its spray, as a scene
    with a ``[lagrangian]`` section builds it."""
    return metrics.lagrangian_metric(L, horizon.spray_from_lagrangian(L, m)[1])


# -- jets -------------------------------------------------------------------
def object_jet_inverse(A: np.ndarray) -> np.ndarray:
    """The Newton inverse of a square object array of jets run entry by
    entry: numpy's object ``@`` of ``Jet`` products, which adds each entry's
    products left to right from the first, and ``+ 2.0`` on the diagonal."""
    space, npoints = A[0, 0].space, A[0, 0].npoints
    n = len(A)
    values = np.moveaxis(np.array([[a.value for a in row] for row in A]), -1, 0)
    try:
        inv0 = np.linalg.inv(values)
    except np.linalg.LinAlgError:
        for k, value in enumerate(values):
            try:
                np.linalg.inv(value)
            except np.linalg.LinAlgError:
                raise JetDomainError("singular matrix", k) from None
        raise
    X = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        X[i, j] = Jet.constant(space, inv0[:, i, j], npoints)
    steps = 0 if space.order == 0 else math.ceil(math.log2(space.order + 1))
    diag = np.diag_indices(n)
    for _ in range(steps):
        E = -(A @ X)  # E = 2I - AX
        E[diag] = E[diag] + 2.0
        X = X @ E
    return X
