"""Horizontal bundles on the 3m-chart: nonlinear connections.

A horizontal bundle is the span of the frame fields
X_i = d/dx^i - t_i^j d/dy^j - tau_ij d/dz_j, complementary to the
vertical coordinate distributions.  The module builds such bundles from
linear connection coefficients, from tangent-side or cotangent-side
horizontal data, from regular Lagrangians via their spray, and from
second-order vector fields; it also provides the adapted coframe, the
Ehresmann curvature, the bidegree decomposition of the exterior
derivative and the induced covariant derivative on base sections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields, tensorcalc as tc
from .bigcore import (
    canonical_pack,
    check_matrix,
    forced_fiber_part,
    parse_components,
    parse_grid,
    validation_values,
)
from .fields import ScalarField
from .points import ChartPoint, sample_box
from .report import largest
from .tensorcalc import TensorField


@dataclass
class HorizontalBundle:
    """Connection coefficients t_i^j and tau_ij, stored frame-indexed:
    t[i, j] and tau[i, j] are the coefficients inside X_i."""

    t: np.ndarray
    tau: np.ndarray
    m: int

    def __post_init__(self):
        self.t = parse_grid(self.t, self.m, "xyz", "t")
        self.tau = parse_grid(self.tau, self.m, "xyz", "tau")

    def frame_derivative(self, f: ScalarField, a: int) -> ScalarField:
        """Derivative of a scalar along the a-th adapted frame field:
        X_a for a < m, the coordinate field d/dy or d/dz otherwise."""
        m = self.m
        if a >= m:
            return f.partial(a)
        return fields.fsum(
            (
                (-1, coef[a, j], f.partial(block * m + j))
                for j in range(m)
                for block, coef in ((1, self.t), (2, self.tau))
            ),
            start=f.partial(a),
        )

    def horizontal_vector(self, i: int) -> TensorField:
        return self.horizontal_frame()[i]

    def horizontal_frame(self) -> list:
        """The fields X_i: the first m columns of the frame matrix."""
        E, _ = frame_matrices(self)
        return [tc.vector(E[:, i], self.m) for i in range(self.m)]

    def projector_h(self) -> TensorField:
        """Projection onto H along the fibers: the frame matrix with its
        fiber columns zeroed."""
        m = self.m
        comps = fields.fzeros(3 * m, 3 * m)
        comps[:, :m] = frame_matrices(self)[0][:, :m]
        return TensorField(("up", "down"), comps, m)

    def projector_v(self) -> TensorField:
        m = self.m
        eye = fields.fzeros(3 * m, 3 * m)
        np.fill_diagonal(eye, fields.ONE)
        return TensorField(("up", "down"), eye - self.projector_h().comps, m)


def frame_matrices(H: HorizontalBundle):
    """(E, C): frame matrix with columns (X_i, d/dy, d/dz) and its
    inverse, whose rows are the adapted coframe."""
    m = H.m
    E = fields.fzeros(3 * m, 3 * m)
    C = fields.fzeros(3 * m, 3 * m)
    for a in range(3 * m):
        E[a, a] = fields.ONE
        C[a, a] = fields.ONE
    for i in range(m):
        for j in range(m):
            E[m + j, i] = -1.0 * H.t[i, j]
            E[2 * m + j, i] = -1.0 * H.tau[i, j]
            C[m + j, i] = H.t[i, j]
            C[2 * m + j, i] = H.tau[i, j]
    return E, C


def flat_bundle(m: int) -> HorizontalBundle:
    return HorizontalBundle(fields.fzeros(m, m), fields.fzeros(m, m), m)


# -- constructors ---------------------------------------------------------
def from_linear_connection(Gamma, m: int) -> HorizontalBundle:
    """Bundle spanned by parallel-transport path tangents of a linear
    connection with coefficients Gamma[i][j][k] = Gamma^i_{jk}(x)."""
    raw = np.asarray(Gamma, dtype=object)
    if raw.shape != (m, m, m):
        raise ValueError(f"Gamma must have shape {(m, m, m)}")
    G = np.array(
        parse_components(raw.reshape(-1), m, {"x"}, "Gamma", count=m ** 3), dtype=object
    )
    G = G.reshape(m, m, m)
    t = fields.fzeros(m, m)
    tau = fields.fzeros(m, m)
    for i, j in np.ndindex(m, m):
        t[i, j] = fields.fsum((1, fields.Coord(m + k), G[j, i, k]) for k in range(m))
        tau[i, j] = fields.fsum((-1, fields.Coord(2 * m + k), G[k, i, j]) for k in range(m))
    return HorizontalBundle(t, tau, m)


def lift_from_tm(t, m: int) -> HorizontalBundle:
    """Complete tangent-side coefficients t_i^j(x,y) by
    tau_ij = -z_h dt_i^h/dy^j."""
    tg = parse_grid(t, m, "xy", "t")
    tau = fields.fzeros(m, m)
    for i, j in np.ndindex(m, m):
        tau[i, j] = forced_fiber_part(tg[i], m + j)
    return HorizontalBundle(tg, tau, m)


def lift_from_cotm(tau, m: int) -> HorizontalBundle:
    """Complete cotangent-side coefficients tau_ij(x,z) by
    t_i^j = -z_h dtau_ih/dz_j."""
    tg = parse_grid(tau, m, "xz", "tau")
    t = fields.fzeros(m, m)
    for i, j in np.ndindex(m, m):
        t[i, j] = forced_fiber_part(tg[i], 2 * m + j)
    return HorizontalBundle(t, tg, m)


@dataclass
class SecondOrderField:
    """Vector field y^i d/dx^i + eta^i d/dy^i + zeta_i d/dz_i."""

    eta: np.ndarray
    zeta: np.ndarray
    m: int

    def __post_init__(self):
        self.eta = parse_components(self.eta, self.m, {"x", "y", "z"}, "eta")
        self.zeta = parse_components(self.zeta, self.m, {"x", "y", "z"}, "zeta")

    def as_vector(self) -> TensorField:
        m = self.m
        comps = fields.fzeros(3 * m)
        for i in range(m):
            comps[i] = fields.Coord(m + i)
            comps[m + i] = self.eta[i]
            comps[2 * m + i] = self.zeta[i]
        return tc.vector(comps, m)


def canonical_second_order_extension(eta, m: int) -> SecondOrderField:
    """Extend tangent-side spray data eta^i(x,y,z) to the 3m-chart with
    zeta_i = -(1/2) z_h d eta^h / dy^i."""
    ec = parse_components(eta, m, {"x", "y", "z"}, "eta")
    zeta = fields.fzeros(m)
    for i in range(m):
        zeta[i] = fields.fsum(
            (-1, 0.5, fields.Coord(2 * m + h), ec[h].partial(m + i)) for h in range(m)
        )
    return SecondOrderField(ec, zeta, m)


def spray_from_lagrangian(L, m: int):
    """Spray and horizontal bundle of a regular Lagrangian L(x,y).

    eta solves the pointwise linear system
    (d2L/dy dy) eta = dL/dx - y.(d2L/dx dy); the tangent-side bundle has
    t_i^j = -(1/2) d eta^j / dy^i and lifts to the full chart.
    Returns (SecondOrderField, HorizontalBundle).
    """
    Lf = parse_components([L], m, {"x", "y"}, "L", count=1)[0]
    g = fields.fzeros(m, m)
    rhs = fields.fzeros(m)
    for j in range(m):
        for k in range(m):
            g[j, k] = Lf.partial(m + j).partial(m + k)
        rhs[j] = fields.fsum(
            ((-1, fields.Coord(m + k), Lf.partial(m + j).partial(k)) for k in range(m)),
            start=Lf.partial(j),
        )
    check_matrix(validation_values(g, m), "Lagrangian Hessian", invertible=True)
    eta = fields.fsolve(g, rhs)
    t = fields.fzeros(m, m)
    for i in range(m):
        for j in range(m):
            t[i, j] = -0.5 * eta[j].partial(m + i)
    return canonical_second_order_extension(eta, m), lift_from_tm(t, m)


def lagrangian_spray_residual(L, sof: SecondOrderField, p: ChartPoint) -> np.ndarray:
    """Components of i(spray)(d theta) + dE for theta = dL o S and
    E = y.dL/dy - L at the given points, shape (3m, npoints)."""
    m = sof.m
    Lf = parse_components([L], m, {"x", "y"}, "L", count=1)[0]
    theta_comps = fields.fzeros(3 * m)
    for i in range(m):
        theta_comps[i] = Lf.partial(m + i)
    E = fields.fsum(
        ((1, fields.Coord(m + i), Lf.partial(m + i)) for i in range(m)), start=-1.0 * Lf
    )
    theta = tc.exterior_derivative(tc.one_form(theta_comps, m))
    X = sof.as_vector()
    res = fields.fzeros(3 * m)
    dE = tc.differential(E, m)
    for j in range(3 * m):
        res[j] = fields.fsum(
            ((1, X.comps[i], theta.comps[i, j]) for i in range(3 * m)), start=dE.comps[j]
        )
    return fields.fvalue(res, p)


def second_order_projector(sof: SecondOrderField):
    """L_X S for a second-order field X: a (1,1) tensor Q with
    Q^3 = Q, whose (-1)-eigenbundle is horizontal.  Returns
    (Q, HorizontalBundle).  Q^3 = Q is checked to 1e-9 at a fixed
    validation batch."""
    m = sof.m
    S = canonical_pack(m).S
    Q = tc.lie_derivative(sof.as_vector(), S)
    Qv = np.moveaxis(Q.value(sample_box(m, 10, seed=1)), -1, 0)
    res = largest(Qv @ Qv @ Qv - Qv)
    if res > 1e-9:
        raise ValueError(f"Q^3 - Q residual {res:.3e}: input is not second order")
    t = fields.fzeros(m, m)
    tau = fields.fzeros(m, m)
    for i in range(m):
        for j in range(m):
            t[i, j] = -0.5 * sof.eta[j].partial(m + i)
            tau[i, j] = -1.0 * sof.zeta[j].partial(m + i)
    return Q, HorizontalBundle(t, tau, m)


# -- coframe, curvature, bigrading ----------------------------------------
def adapted_coframe(H: HorizontalBundle):
    """Dual cobasis (dx^i, theta^i, kappa_i) of the adapted frame: the rows
    of the coframe matrix."""
    m = H.m
    _, C = frame_matrices(H)
    forms = [tc.one_form(C[a], m) for a in range(3 * m)]
    return forms[:m], forms[m : 2 * m], forms[2 * m :]


def to_adapted(T: TensorField, H: HorizontalBundle) -> TensorField:
    """Re-express components in the adapted frame of H."""
    return _change_frame(T, H, "natural", "adapted")


def to_natural(T: TensorField, H: HorizontalBundle) -> TensorField:
    """Inverse of to_adapted."""
    return _change_frame(T, H, "adapted", "natural")


def _change_frame(T: TensorField, H: HorizontalBundle, source: str, target: str):
    """Components of T, given in frame ``source``, in frame ``target``: up
    slots contract with the coframe matrix C towards the adapted frame and
    with the frame matrix E back, down slots the other way round."""
    if T.frame != source:
        raise tc.FrameError(f"input must carry {source} components")
    E, C = frame_matrices(H)
    up, down = (C, E) if target == "adapted" else (E, C)
    comps = T.comps
    for var in T.sig:
        if var == "up":
            comps = np.tensordot(comps, up, axes=([0], [1]))
        else:
            comps = np.tensordot(comps, down, axes=([0], [0]))
    return TensorField(T.sig, comps, T.m, frame=target)


def ehresmann_curvature(H: HorizontalBundle) -> TensorField:
    """Vertical-valued curvature 2-form: R(Z1, Z2) = pr_V of the bracket
    of the horizontal parts, so that the no-mixed-torsion deformation of
    a torsionless connection has torsion -R."""
    m = H.m
    comps = fields.fzeros(3 * m, 3 * m, 3 * m)
    frame = H.horizontal_frame()
    for i in range(m):
        for j in range(i + 1, m):
            br = tc.lie_bracket(frame[i], frame[j])
            for k in range(m, 3 * m):
                comps[k, i, j] = br.comps[k]
                comps[k, j, i] = -1.0 * br.comps[k]
    return TensorField(("up", "down", "down"), comps, m)


def _bidegree_of_index(a: int, m: int) -> int:
    return 0 if a < m else 1


def decompose_d(omega: TensorField, H: HorizontalBundle):
    """Split d(omega) into its (p+1,q), (p,q+1) and (p+2,q-1) parts.

    omega must be homogeneous of some bidegree (p,q) with respect to the
    horizontal/vertical splitting; the bidegree is detected by
    evaluating the adapted components at a fixed validation batch.
    """
    m = omega.m
    k = len(omega.sig)
    if any(v != "down" for v in omega.sig):
        raise ValueError("decompose_d expects a differential form")
    p, q = _detect_bidegree(omega, H, sample_box(m, 8, seed=2))
    d = tc.exterior_derivative(omega)
    d_ad = to_adapted(d, H)
    parts = []
    for tp, tq in [(p + 1, q), (p, q + 1), (p + 2, q - 1)]:
        proj = fields.fzeros(*([3 * m] * (k + 1)))
        if 0 <= tp and 0 <= tq and tp + tq == k + 1:
            for idx in np.ndindex(proj.shape):
                deg = sum(_bidegree_of_index(a, m) for a in idx)
                if deg == tq:
                    proj[idx] = d_ad.comps[idx]
        part = to_natural(TensorField(d.sig, proj, m, frame="adapted"), H)
        parts.append(part)
    return tuple(parts)


def _detect_bidegree(omega: TensorField, H: HorizontalBundle, points: ChartPoint):
    m = omega.m
    k = len(omega.sig)
    if k == 0:
        return 0, 0
    ad = to_adapted(omega, H)
    vals = fields.fvalue(ad.comps, points)
    seen = set()
    for idx in np.ndindex(omega.comps.shape):
        if np.max(np.abs(vals[idx])) > 1e-10:
            seen.add(sum(_bidegree_of_index(a, m) for a in idx))
    if len(seen) > 1:
        raise ValueError(f"form is not bidegree-homogeneous: V-degrees {sorted(seen)}")
    q = seen.pop() if seen else 0
    return k - q, q


def nonlinear_covariant_derivative(H: HorizontalBundle, nu, kappa, xi):
    """Covariant derivative of a base section (nu^i(x), kappa_i(x))
    along X = xi^j(x) d/dx^j, with values in the pulled-back pair
    bundle: component arrays (vector part, form part)."""
    m = H.m
    nu = parse_components(nu, m, {"x"}, "nu")
    kap = parse_components(kappa, m, {"x"}, "kappa")
    xi = parse_components(xi, m, {"x"}, "xi")
    out_v = fields.fzeros(m)
    out_f = fields.fzeros(m)
    for i in range(m):
        out_v[i] = fields.fsum((1, xi[j], nu[i].partial(j) + H.t[j, i]) for j in range(m))
        out_f[i] = fields.fsum((1, xi[j], kap[i].partial(j) - H.tau[j, i]) for j in range(m))
    return out_v, out_f


def is_liouville_related(a: TensorField, points: ChartPoint, tol: float = 1e-10) -> bool:
    """True iff composing the 1-form with S gives the tautological form,
    i.e. the dy-coefficients equal the z-coordinates."""
    m = a.m
    vals = fields.fvalue(a.comps[m : 2 * m], points)
    return largest(vals - points.z) <= tol


def transformed_gamma_bundle(Gamma, A: np.ndarray, m: int) -> HorizontalBundle:
    """Bundle of the connection Gamma re-expressed in linear coordinates
    xt = A x (test helper for the equivariance law)."""
    A = np.asarray(A, dtype=float)
    Ainv = np.linalg.inv(A)
    raw = np.asarray(Gamma, dtype=object)
    G = np.array(
        parse_components(raw.reshape(-1), m, {"x"}, "Gamma", count=m ** 3), dtype=object
    )
    G = G.reshape(m, m, m)
    # substitute x = Ainv xt inside the coefficients and contract indices
    subs = [
        fields.fsum((1, float(Ainv[r, c]), fields.Coord(c)) for c in range(m))
        for r in range(m)
    ]
    Gt = fields.fzeros(m, m, m)
    for i, j, k in np.ndindex(m, m, m):
        Gt[i, j, k] = fields.fsum(
            (1, float(A[i, a] * Ainv[b, j] * Ainv[c, k]), _substitute_x(G[a, b, c], subs))
            for a, b, c in np.ndindex(m, m, m)
        )
    return from_linear_connection(Gt, m)


def _substitute_x(f: ScalarField, subs) -> ScalarField:
    """Replace Coord(i) (x-block only) by the given fields inside a
    field graph built from Coord/Const and arithmetic."""
    if isinstance(f, fields.Coord):
        return subs[f.var] if f.var < len(subs) else f
    if isinstance(f, fields.Const):
        return f
    if isinstance(f, fields.Bin):
        return fields.Bin(f.op, _substitute_x(f.a, subs), _substitute_x(f.b, subs))
    if isinstance(f, fields.Pow):
        return fields.Pow(_substitute_x(f.base, subs), f.n)
    if isinstance(f, fields.Func):
        return fields.Func(f.name, _substitute_x(f.arg, subs))
    if isinstance(f, fields.Partial):
        raise ValueError("cannot substitute under a derivative node")
    raise TypeError(f"unsupported node {type(f).__name__}")
