"""Horizontal bundles on the 3m-chart: nonlinear connections.

A horizontal bundle is the span of the frame fields
X_i = d/dx^i - t_i^j d/dy^j - tau_ij d/dz_j, complementary to the
vertical coordinate distributions.  The module builds such bundles from
linear connection coefficients, from tangent-side or cotangent-side
horizontal data, from regular Lagrangians via their spray, and from
second-order vector fields; it also provides the adapted frame and
coframe, the change to and from the adapted frame, the structure
functions of the adapted frame, and the Ehresmann curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields, tensorcalc as tc
from .bigcore import (
    canonical_pack,
    forced_fiber_part,
    parse_components,
    parse_grid,
    sample_matrix,
)
from .fields import ScalarField
from .points import ChartPoint
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

    # Built once per bundle and shared by every reader (the structure
    # functions, the frame change, the projected connections): read-only.
    @cached_property
    def frame(self):
        """(E, C): frame matrix with columns (X_i, d/dy, d/dz) and its
        inverse, whose rows are the adapted coframe."""
        m = self.m
        E = fields.fzeros(3 * m, 3 * m)
        C = fields.fzeros(3 * m, 3 * m)
        for a in range(3 * m):
            E[a, a] = fields.ONE
            C[a, a] = fields.ONE
        for i in range(m):
            for j in range(m):
                E[m + j, i] = -1.0 * self.t[i, j]
                E[2 * m + j, i] = -1.0 * self.tau[i, j]
                C[m + j, i] = self.t[i, j]
                C[2 * m + j, i] = self.tau[i, j]
        E.flags.writeable = C.flags.writeable = False
        return E, C

    # Built once per bundle: the Ehresmann curvature and the torsion and
    # curvature of every connection in the adapted frame read it.
    @cached_property
    def structure_functions(self) -> np.ndarray:
        """c[a, b, k]: adapted-frame components of the bracket [e_a, e_b]."""
        m = self.m
        n = 3 * m
        c = fields.fzeros(n, n, n)
        E, C = self.frame
        for a in range(n):
            for b in range(a + 1, n):
                if a >= m and b >= m:
                    continue  # coordinate vertical fields commute
                br = tc.bracket_components(E[:, a], E[:, b])
                s = fields.fdot(C, br)
                c[a, b] = s
                c[b, a] = -1.0 * s
        return c


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


def lagrangian_field(L, m: int) -> ScalarField:
    """A Lagrangian L(x, y), given as DSL text or as a field: a field
    passes through, so a caller that parsed L once can hand it on."""
    return parse_components([L], m, {"x", "y"}, "L", count=1)[0]


def fiber_hessian(L, m: int) -> np.ndarray:
    """The fiber Hessian d2L/dy^i dy^j of a Lagrangian: the matrix of the
    spray's linear system, the fiber metric of the Lagrangian big metric
    and the sigma of the Lagrangian double field."""
    Lf = lagrangian_field(L, m)
    g = fields.fzeros(m, m)
    for i, j in np.ndindex(m, m):
        g[i, j] = Lf.partial(m + i).partial(m + j)
    return g


def lagrangian_two_form(L, m: int) -> TensorField:
    """d theta for theta = dL o S = (dL/dy^i) dx^i: the 2-form of the
    spray's field equation, whose horizontal part is the psi of the
    Lagrangian double field."""
    Lf = lagrangian_field(L, m)
    theta = fields.fzeros(3 * m)
    for i in range(m):
        theta[i] = Lf.partial(m + i)
    return tc.exterior_derivative(tc.one_form(theta, m))


def spray_from_lagrangian(L, m: int):
    """Spray and horizontal bundle of a regular Lagrangian L(x,y).

    eta solves the pointwise linear system
    (d2L/dy dy) eta = dL/dx - y.(d2L/dx dy); the tangent-side bundle has
    t_i^j = -(1/2) d eta^j / dy^i and lifts to the full chart.
    Returns (SecondOrderField, HorizontalBundle); the loader checks the Hessian.
    """
    Lf = lagrangian_field(L, m)
    g = fiber_hessian(Lf, m)
    rhs = fields.fzeros(m)
    for j in range(m):
        rhs[j] = fields.fsum(
            ((-1, fields.Coord(m + k), Lf.partial(m + j).partial(k)) for k in range(m)),
            start=Lf.partial(j),
        )
    eta = fields.fdot(fields.finverse(g), rhs)
    t = fields.fzeros(m, m)
    for i in range(m):
        for j in range(m):
            t[i, j] = -0.5 * eta[j].partial(m + i)
    return canonical_second_order_extension(eta, m), lift_from_tm(t, m)


def lagrangian_spray_residual(L, sof: SecondOrderField, p: ChartPoint) -> np.ndarray:
    """Components of i(spray)(d theta) + dE for theta = dL o S and
    E = y.dL/dy - L at the given points, shape (3m, npoints)."""
    m = sof.m
    Lf = lagrangian_field(L, m)
    E = fields.fsum(
        ((1, fields.Coord(m + i), Lf.partial(m + i)) for i in range(m)), start=-1.0 * Lf
    )
    theta = lagrangian_two_form(Lf, m)
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
    (Q, HorizontalBundle).  Q^3 = Q is not checked here: the horizontal
    suite reports ``projector_defect``."""
    m = sof.m
    Q = tc.lie_derivative(sof.as_vector(), canonical_pack(m).S)
    t = fields.fzeros(m, m)
    tau = fields.fzeros(m, m)
    for i in range(m):
        for j in range(m):
            t[i, j] = -0.5 * sof.eta[j].partial(m + i)
            tau[i, j] = -1.0 * sof.zeta[j].partial(m + i)
    return Q, HorizontalBundle(t, tau, m)


def projector_defect(Q: TensorField, p: ChartPoint) -> np.ndarray:
    """Q^3 - Q at the points ``p``, shape (npoints, 3m, 3m): zero where Q
    is the projector of a second-order field."""
    Qv = sample_matrix(Q.comps, p)
    return Qv @ Qv @ Qv - Qv


# -- frame change and curvature -------------------------------------------
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
    E, C = H.frame
    up, down = (C, E) if target == "adapted" else (E, C)
    comps = T.comps
    for var in T.sig:
        if var == "up":
            comps = fields.fdot(np.moveaxis(comps, 0, -1), up.T)
        else:
            comps = fields.fdot(np.moveaxis(comps, 0, -1), down)
    return TensorField(T.sig, comps, T.m, frame=target)


def ehresmann_curvature(H: HorizontalBundle) -> TensorField:
    """Vertical-valued curvature 2-form: R(Z1, Z2) = pr_V of the bracket
    of the horizontal parts, so that the no-mixed-torsion deformation of
    a torsionless connection has torsion -R.  Its entries are the
    vertical structure functions c[i, j, k] of horizontal pairs."""
    m = H.m
    comps = fields.fzeros(3 * m, 3 * m, 3 * m)
    # the horizontal frame fields have constant horizontal components, so
    # the adapted vertical components of [X_i, X_j] are its natural ones
    comps[m:, :m, :m] = H.structure_functions[:m, :m, m:].transpose(2, 0, 1)
    return TensorField(("up", "down", "down"), comps, m)
