"""Independent oracles and constructions that several test modules share.

Each is compared against the package code it checks: finite differences
against exact jets, explicit Lie brackets and the dense component formula
against the Nijenhuis construction, the Courant bracket of generalized
sections against its component form, permutations against the stored
antisymmetry of forms, the lifted metric of a base metric against the
scene's and the double field's constructions, and the whole deformed
curvature against the components the Ricci trace reads.  None is part of
the package.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from bigtangent import dfield, horizon, metrics, tensorcalc as tc
from bigtangent.fields import Const, ScalarField, fdot, fsum, fzeros
from bigtangent.jets import JetDomainError, mul_coeffs
from bigtangent.metrics import BigMetric
from bigtangent.multiindex import JetSpace, jet_space
from bigtangent.points import ChartPoint
from bigtangent.tensorcalc import TensorField


# -- sample points ---------------------------------------------------------
def box_points(m: int, npoints: int, seed: int, low: float, high: float) -> ChartPoint:
    """Uniform sample points in the box [low, high)^{3m}, the draw
    ``sample_box`` makes for the unit box, for fields that need to keep
    away from a singular point."""
    rng = np.random.default_rng(seed)
    return ChartPoint(*rng.uniform(low, high, size=(3, m, npoints)))


# -- horizontal bundles ----------------------------------------------------
def horizontal_frame(H: horizon.HorizontalBundle) -> list:
    """The fields X_i of a horizontal bundle: the first m columns of its
    frame matrix."""
    E, _ = H.frame
    return [tc.vector(E[:, i], H.m) for i in range(H.m)]


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
        return float(f.jet(point, 0)[0, 0])

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


def operator_jet(op: str, a: ScalarField, b: ScalarField, space: JetSpace, ja, jb) -> np.ndarray:
    """The jet of ``a op b``, ``op`` one of ``+ - * /``, by the two-operand
    rule, from the coefficient arrays ``ja`` and ``jb`` of ``a`` and ``b``
    in ``space`` (``-a`` is ``ZERO - a``): ``+`` and ``-`` add or subtract
    them, ``*`` multiplies them with ``mul_coeffs`` and ``/`` is ``a``
    times the reference ``Jet.reciprocal`` of ``b``.  A constant factor of
    ``*``, or a constant numerator of ``/``, scales the other jet as a
    number, ``c * x + 0.0``: a -0.0 becomes +0.0 as in the product, and an
    overflowed row takes no 0 * inf."""
    if op in "+-":
        return ja + jb if op == "+" else ja - jb
    if op == "/":
        jb = Jet(space, jb).reciprocal().c
    if type(a) is Const:
        return a.v * jb + 0.0
    if type(b) is Const and op == "*":
        return b.v * ja + 0.0
    return mul_coeffs(space, ja, jb)


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


def apply_11(A: TensorField, v: TensorField) -> TensorField:
    """(1,1) tensor applied to a vector: (A v)^i = A^i_j v^j."""
    return tc.vector(fdot(A.comps, v.comps), A.m, A.frame)


def pair(alpha: TensorField, v: TensorField) -> ScalarField:
    """<alpha, v> = alpha_i v^i."""
    return fsum((1, alpha.comps[i], v.comps[i]) for i in range(alpha.n))


def nijenhuis_components(A: TensorField) -> TensorField:
    """Oracle: the Nijenhuis torsion N^k_{ij} of a (1,1) tensor from its
    dense component formula A^r_i d_r A^k_j - A^r_j d_r A^k_i
    - A^k_r d_i A^r_j + A^k_r d_j A^r_i, summed over every r."""
    n = A.n
    out = fzeros(n, n, n)  # [k, i, j]
    for k, i, j in np.ndindex(n, n, n):
        out[k, i, j] = fsum(
            term
            for r in range(n)
            for term in (
                (1, A.comps[r, i], A.comps[k, j].partial(r)),
                (-1, A.comps[r, j], A.comps[k, i].partial(r)),
                (-1, A.comps[k, r], A.comps[r, j].partial(i)),
                (1, A.comps[k, r], A.comps[r, i].partial(j)),
            )
        )
    return TensorField(("up", "down", "down"), out, A.m)


def pair_rows(N: TensorField) -> np.ndarray:
    """The components N^k_{AB} of a (1,2) tensor, one row per pair A < B:
    the layout of ``tc.nijenhuis``."""
    n = N.n
    return np.array([N.comps[:, A, B] for A in range(n) for B in range(A + 1, n)])


def nijenhuis_via_brackets(A: TensorField) -> TensorField:
    """Oracle: N(e_i, e_j) assembled from explicit Lie brackets."""
    tc._require_natural(A)
    n = A.n
    m = A.m
    out = fzeros(n, n, n)
    basis = [tc.basis_vector(i, m) for i in range(n)]
    for i in range(n):
        Ai = apply_11(A, basis[i])
        for j in range(n):
            Aj = apply_11(A, basis[j])
            term = tc.lie_bracket(Ai, Aj)
            term = term - apply_11(A, tc.lie_bracket(Ai, basis[j]))
            term = term - apply_11(A, tc.lie_bracket(basis[i], Aj))
            # A^2 [e_i, e_j] = 0 for coordinate fields
            for k in range(n):
                out[k, i, j] = term.comps[k]
    return TensorField(("up", "down", "down"), out, m)


# -- generalized sections --------------------------------------------------
@dataclass
class GeneralizedSection:
    """A pair (vector field, 1-form) on the chart."""

    X: TensorField
    alpha: TensorField

    def stacked(self) -> np.ndarray:
        """The components (X, alpha) as one 2n-vector."""
        return np.concatenate([self.X.comps, self.alpha.comps])


def courant_bracket(A: GeneralizedSection, B: GeneralizedSection) -> GeneralizedSection:
    """[(X,a),(Y,mu)] = ([X,Y], L_X mu - L_Y a + 1/2 d(a(Y) - mu(X))),
    assembled from the Lie bracket, Lie derivatives and the differential."""
    X, alpha = A.X, A.alpha
    Y, mu = B.X, B.alpha
    form = tc.lie_derivative(X, mu) - tc.lie_derivative(Y, alpha)
    corr = tc.differential(pair(alpha, Y) - pair(mu, X), X.m)
    return GeneralizedSection(tc.lie_bracket(X, Y), form + corr * 0.5)


def flat_field_form(W: TensorField, X: TensorField) -> TensorField:
    """Lowering by a (0,2) tensor: (flat X)_j = W_{ij} X^i."""
    return tc.one_form(fdot(X.comps, W.comps), W.m)


def pair_endo_P(pack, A: GeneralizedSection) -> GeneralizedSection:
    """S_P (X, a) = (S X + sharp_P a, -tS a), with (tS a)_i = a_j S^j_i."""
    X = apply_11(pack.S, A.X) + tc.sharp_field(pack.P, A.alpha)
    return GeneralizedSection(X, flat_field_form(pack.S, A.alpha) * -1.0)


def pair_endo_varpi(pack, A: GeneralizedSection) -> GeneralizedSection:
    """S_varpi (X, a) = (S X, flat_varpi X - tS a)."""
    X = apply_11(pack.S, A.X)
    form = flat_field_form(pack.varpi, A.X) - flat_field_form(pack.S, A.alpha)
    return GeneralizedSection(X, form)


def basis_sections(m: int) -> list:
    """The pairs (d/dx^a, 0), then the pairs (0, dx^a), over the 3m chart
    variables."""
    n = 3 * m
    zero_vec = tc.vector(fzeros(n), m)
    zero_form = tc.one_form(fzeros(n), m)
    return [GeneralizedSection(tc.basis_vector(i, m), zero_form) for i in range(n)] + [
        GeneralizedSection(zero_vec, tc.one_form(tc.basis_vector(i, m).comps, m))
        for i in range(n)
    ]


def courant_nijenhuis_via_brackets(pack, endo) -> np.ndarray:
    """Oracle: the Courant-Nijenhuis tensor of the pair endomorphism
    ``endo(pack, section)`` on pairs A < B of basis sections, assembled
    from three Courant brackets of sections and one image per pair; one
    stacked row per pair, as ``tc.nijenhuis(F, tc.courant_bracket)`` gives
    it."""
    basis = basis_sections(pack.m)
    images = [endo(pack, A) for A in basis]
    rows = []
    for a, (A, FA) in enumerate(zip(basis, images)):
        for B, FB in zip(basis[a + 1 :], images[a + 1 :]):
            N = courant_bracket(FA, FB)
            inner = courant_bracket(FA, B)
            inner2 = courant_bracket(A, FB)
            corr = endo(pack, GeneralizedSection(inner.X + inner2.X, inner.alpha + inner2.alpha))
            rows.append(GeneralizedSection(N.X - corr.X, N.alpha - corr.alpha).stacked())
    return np.array(rows)


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


# -- deformed curvature -----------------------------------------------------
def deformed_curvature_apply(nabla, Za, Zb, W, Yc) -> np.ndarray:
    """All 2m components of the deformed curvature of the direction pair
    (Za, Zb) applied to Yc: the antisymmetrized second derivative minus
    the derivative along W, the pair's ``deformed_bracket``."""
    first = dfield.vertical_derivative(nabla, Za, dfield.vertical_derivative(nabla, Zb, Yc))
    second = dfield.vertical_derivative(nabla, Zb, dfield.vertical_derivative(nabla, Za, Yc))
    third = dfield.vertical_derivative(nabla, W, Yc)
    return first - second - third


def dense_deformed_curvatures(nabla, F):
    """(R, Ric, rho): every component R[a, b, c, d] of the deformed
    curvature (direction pair a, b; argument c; output d), with the
    deformed bracket of the direction pair built again for every
    argument, its symmetrized Ricci trace and the scalar curvature."""
    m = nabla.m
    basis = dfield._coord_basis(m)
    R = fzeros(2 * m, 2 * m, 2 * m, 2 * m)
    for a in range(2 * m):
        for b in range(a + 1, 2 * m):
            for c in range(2 * m):
                W = dfield.metric_bracket(F, basis[a], basis[b]) + dfield.wedge_product(
                    nabla, F, basis[a], basis[b]
                )
                val = deformed_curvature_apply(nabla, basis[a], basis[b], W, basis[c])
                R[a, b, c] = val
                R[b, a, c] = -1.0 * val
    Ric = fzeros(2 * m, 2 * m)
    for b, c in np.ndindex(2 * m, 2 * m):
        Ric[b, c] = 0.5 * fsum(
            term for a in range(2 * m) for term in ((1, R[a, b, c, a]), (1, R[a, c, b, a]))
        )
    rho = fsum((1, F.Ginv[q, s], Ric[q, s]) for q, s in np.ndindex(2 * m, 2 * m))
    return R, Ric, rho


def contracted_curvature(R: np.ndarray) -> np.ndarray:
    """K[a, b, c] = R[a, b, c, a], the components of R the Ricci trace reads."""
    n = len(R)
    K = fzeros(n, n, n)
    for a, b, c in np.ndindex(n, n, n):
        K[a, b, c] = R[a, b, c, a]
    return K


# -- jets -------------------------------------------------------------------
class Jet:
    """A reference jet object: a ``JetSpace`` and its (nterms, npoints)
    coefficient array ``c``, with the ring operations and analytic
    functions as methods.  The array functions of ``bigtangent.jets`` are
    checked against it bit for bit; it also runs the object Newton inverse
    (``object_jet_inverse``) and the two-operand rule (``operator_jet``)."""

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
        rows, factor = self.space.partial_table(var)
        lower = jet_space(self.space.nvars, self.space.order - 1)
        return Jet(lower, self.c[rows] * factor)

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
        return Jet(self.space, mul_coeffs(self.space, self.c, other.c))

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
