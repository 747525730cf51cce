"""Tensor algebra and differential operators on the 3m-dimensional chart.

Components are stored as object arrays of ScalarField, one axis of
extent 3m per tensor slot.  All differential operators (Lie bracket,
Lie derivative, exterior derivative, Schouten bracket, Nijenhuis
tensor, Courant bracket) act in the natural frame only; adapted-frame
tensors must be converted before differentiating.

Conventions:
  - (1,1) tensor A: comps[i, j] = A^i_j, so (A v)^i = A^i_j v^j.
  - k-forms store the full antisymmetric component array,
    w[i1, ..., ik] = w(e_i1, ..., e_ik), wedge without 1/k! factors
    (a ^ b (X, Y) = a(X) b(Y) - a(Y) b(X)).
  - sharp of a 2-contravariant W contracts the first index:
    (sharp_W a)^j = W^{ij} a_i; flat is the pseudo-inverse of sharp
    restricted to its image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from .fields import ScalarField, as_field, field_array, fsum, fvalue, fzeros, is_zero
from .points import ChartPoint
from .report import largest


class FrameError(ValueError):
    pass


class TensorField:
    """Component fields with a variance signature and a frame tag."""

    __slots__ = ("sig", "comps", "frame", "m")

    def __init__(self, sig, comps, m: int, frame: str = "natural"):
        self.sig = tuple(sig)
        self.comps = field_array(comps, (3 * m,) * len(self.sig), "components")
        self.m = m
        self.frame = frame

    @property
    def n(self) -> int:
        return 3 * self.m

    def value(self, p: ChartPoint) -> np.ndarray:
        """Numeric components, shape sig_shape + (npoints,)."""
        return fvalue(self.comps, p)

    def __add__(self, other: "TensorField") -> "TensorField":
        self._match(other)
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = self.comps[idx] + other.comps[idx]
        return TensorField(self.sig, out, self.m, self.frame)

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self + (other * -1.0)

    def __mul__(self, scalar) -> "TensorField":
        s = as_field(scalar)
        out = np.empty(self.comps.shape, dtype=object)
        for idx in np.ndindex(out.shape):
            out[idx] = self.comps[idx] * s
        return TensorField(self.sig, out, self.m, self.frame)

    __rmul__ = __mul__

    def _match(self, other):
        if self.sig != other.sig or self.m != other.m or self.frame != other.frame:
            raise ValueError("tensor signature/frame mismatch")

    def max_abs(self, p: ChartPoint) -> float:
        return largest(self.value(p))


def vector(comps, m: int, frame: str = "natural") -> TensorField:
    return TensorField(("up",), comps, m, frame)

def one_form(comps, m: int, frame: str = "natural") -> TensorField:
    return TensorField(("down",), comps, m, frame)


def basis_vector(var: int, m: int) -> TensorField:
    c = fzeros(3 * m)
    c[var] = fields.ONE
    return vector(c, m)


def basis_form(var: int, m: int) -> TensorField:
    c = fzeros(3 * m)
    c[var] = fields.ONE
    return one_form(c, m)


@dataclass
class GeneralizedSection:
    """A pair (vector field, 1-form) on the chart."""

    X: TensorField
    alpha: TensorField

    def __post_init__(self):
        if self.X.m != self.alpha.m:
            raise ValueError("pair components disagree on dimension")
        if self.X.sig != ("up",) or self.alpha.sig != ("down",):
            raise ValueError("pair must be (vector, 1-form)")


def _require_natural(*tensors):
    for t in tensors:
        if t.frame != "natural":
            raise FrameError("differential operators act in the natural frame only")


# -- contractions ---------------------------------------------------------
def apply_11(A: TensorField, v: TensorField) -> TensorField:
    """(1,1) tensor applied to a vector: (A v)^i = A^i_j v^j."""
    out = np.tensordot(A.comps, v.comps, axes=([1], [0]))
    return vector(out, A.m, A.frame)


def pair(alpha: TensorField, v: TensorField) -> ScalarField:
    """<alpha, v> = alpha_i v^i."""
    return fsum((1, alpha.comps[i], v.comps[i]) for i in range(alpha.n))


def directional(X: TensorField, f: ScalarField) -> ScalarField:
    """X f = X^s d_s f."""
    return fsum(
        (1, X.comps[i], f.partial(i)) for i in sorted(f.support) if not is_zero(X.comps[i])
    )


# -- Lie bracket and Lie derivative ---------------------------------------
def bracket_components(X, Y) -> np.ndarray:
    """[X, Y]^k = X^j d_j Y^k - Y^j d_j X^k for natural-frame component
    sequences X, Y of one length n; j runs over the first n chart
    variables."""
    n = len(X)

    def terms(Xk, Yk):  # the dense j-loop's terms that can be nonzero
        for j in sorted(Xk.support | Yk.support):
            if j >= n:
                break
            if j in Yk.support and not is_zero(X[j]):
                yield 1, X[j], Yk.partial(j)
            if j in Xk.support and not is_zero(Y[j]):
                yield -1, Y[j], Xk.partial(j)

    out = fzeros(n)
    for k in range(n):
        out[k] = fsum(terms(X[k], Y[k]))
    return out


def lie_bracket(X: TensorField, Y: TensorField) -> TensorField:
    _require_natural(X, Y)
    return vector(bracket_components(X.comps, Y.comps), X.m)


def lie_derivative(X: TensorField, T: TensorField) -> TensorField:
    """L_X T for any (r,s) signature, natural frame."""
    _require_natural(X, T)
    n = T.n
    Xc = X.comps
    # the r with d_r X^i or d_i X^r possibly nonzero, for an upper or a lower slot i
    upper = [sorted(Xc[i].support) for i in range(n)]
    lower = [[r for r in range(n) if i in Xc[r].support] for i in range(n)]

    def terms(idx):
        for a, var in enumerate(T.sig):
            i = idx[a]
            for r in upper[i] if var == "up" else lower[i]:
                swapped = T.comps[idx[:a] + (r,) + idx[a + 1 :]]
                if is_zero(swapped):
                    continue
                if var == "up":
                    yield -1, swapped, Xc[i].partial(r)
                else:
                    yield 1, swapped, Xc[r].partial(i)

    out = np.empty(T.comps.shape, dtype=object)
    for idx in np.ndindex(T.comps.shape):
        out[idx] = fsum(terms(idx), start=directional(X, T.comps[idx]))
    return TensorField(T.sig, out, T.m)


# -- exterior derivative --------------------------------------------------
def exterior_derivative(w: TensorField) -> TensorField:
    """d of a fully antisymmetric covariant tensor (degree k -> k+1)."""
    _require_natural(w)
    if any(v != "down" for v in w.sig):
        raise ValueError("exterior derivative needs a covariant tensor")
    n = w.n
    k = len(w.sig)
    out = fzeros(*((n,) * (k + 1)))
    for idx in np.ndindex(out.shape):
        out[idx] = fsum(
            (-1 if a % 2 else 1, w.comps[idx[:a] + idx[a + 1 :]].partial(idx[a]))
            for a in range(k + 1)
        )
    return TensorField(("down",) * (k + 1), out, w.m)


def differential(f: ScalarField, m: int) -> TensorField:
    """df as a 1-form."""
    f = as_field(f)
    return one_form([f.partial(i) for i in range(3 * m)], m)


# -- Schouten bracket -----------------------------------------------------
def schouten_bracket(P1: TensorField, P2: TensorField) -> TensorField:
    """[P1,P2]^{ijk} = sum_cyc(ijk) (P1^{si} d_s P2^{jk} + P2^{si} d_s P1^{jk})."""
    _require_natural(P1, P2)
    if P1.sig != ("up", "up") or P2.sig != ("up", "up"):
        raise ValueError("Schouten bracket needs two bivectors")
    n = P1.n
    out = fzeros(n, n, n)
    for i, j, k in np.ndindex(n, n, n):
        out[i, j, k] = fsum(
            term
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            for r in range(n)
            for term in (
                (1, P1.comps[r, a], P2.comps[b, c].partial(r)),
                (1, P2.comps[r, a], P1.comps[b, c].partial(r)),
            )
        )
    return TensorField(("up", "up", "up"), out, P1.m)


# -- Nijenhuis tensor -----------------------------------------------------
def nijenhuis_tensor(A: TensorField) -> TensorField:
    """Nijenhuis torsion of a (1,1) tensor, components N^k_{ij}.

    The classical tensor N(X,Y) = A^2[X,Y] + [AX,AY] - A[AX,Y] - A[X,AY]
    evaluated on coordinate fields; the A^2 bracket term vanishes there.
    """
    _require_natural(A)
    if A.sig != ("up", "down"):
        raise ValueError("Nijenhuis tensor needs a (1,1) tensor")
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


# -- Courant bracket ------------------------------------------------------
def courant_bracket(A: GeneralizedSection, B: GeneralizedSection) -> GeneralizedSection:
    """[(X,a),(Y,mu)] = ([X,Y], L_X mu - L_Y a + 1/2 d(a(Y) - mu(X)))."""
    X, alpha = A.X, A.alpha
    Y, mu = B.X, B.alpha
    br = lie_bracket(X, Y)
    form = lie_derivative(X, mu) - lie_derivative(Y, alpha)
    corr = differential(pair(alpha, Y) - pair(mu, X), X.m)
    form = form + corr * 0.5
    return GeneralizedSection(br, form)


# -- musical maps (numeric, rank-aware) -----------------------------------
RANK_TOL = 1e-9


def sharp_value(W: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """(sharp_W a)^j = W^{ij} a_i for numeric W (n,n) and a (n,)."""
    return alpha @ W


def singular_rank(s: np.ndarray, tol: float = RANK_TOL) -> int:
    """The number of singular values ``s`` (descending) above ``tol`` times
    the largest one: the rank rule of every numeric rank and subspace."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def kernel_image(W: np.ndarray, tol: float = RANK_TOL):
    """Orthonormal bases (columns) of ker and im of the sharp map of W."""
    M = W.T  # sharp acts as a |-> M a
    U, s, Vt = np.linalg.svd(M)
    r = singular_rank(s, tol)
    im = U[:, :r]
    ker = Vt[r:].T
    return ker, im


def matrix_rank(W: np.ndarray, tol: float = RANK_TOL) -> int:
    return singular_rank(np.linalg.svd(W, compute_uv=False), tol)


# -- field-level musical helpers ------------------------------------------
def sharp_field(W: TensorField, alpha: TensorField) -> TensorField:
    """Field-level sharp of a (2,0) tensor: (sharp a)^j = W^{ij} a_i."""
    out = np.tensordot(alpha.comps, W.comps, axes=([0], [0]))
    return vector(out, W.m, W.frame)


def flat_field_form(W: TensorField, X: TensorField) -> TensorField:
    """Field-level lowering by a (0,2) tensor: (flat X)_j = W_{ij} X^i."""
    out = np.tensordot(X.comps, W.comps, axes=([0], [0]))
    return one_form(out, W.m, W.frame)
