"""Fiber metrics compatible with the split pairing, and double fields.

The fibers of the 3m chart carry the split pairing
g = 1/2 (dy (.) dz + dz (.) dy).  Identifying the z-block with the dual
of the y-block writes a symmetric fiber metric as its 2m x 2m object matrix
G = (h, l^t; l, k); compatibility with the pairing means the associated
endomorphism squares to the identity, and such metrics correspond
bijectively to pairs (sigma, psi) of a nondegenerate y-block metric and
a 2-form.  A horizontal bundle plus such a pair is a double field.
No constructor here evaluates: ``scene.load_scene`` checks sigma and psi.

The module builds the connection ladder of a double field: a
sigma-preserving base connection from the projected Levi-Civita
connection of the block-diagonal lift of sigma, a psi-torsion pair, a
bracket-corrected pair, and finally a pairing- and metric-preserving
connection on the fibers whose totally skew torsion vanishes.  The
field holds the parts the rungs share (the fiber metric, the
eigenbundle frame, the base connection, the torsion pair), each a
cached property built once, the base connection from only the
Levi-Civita symbols its y-block reads.  On top of that sit the deformed
curvature, built only where the Ricci trace reads it, the Ricci and
scalar curvatures, and a truncated-box action integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce

import numpy as np

from . import conns, fields, horizon, metrics
from .bigcore import parse_components, parse_grid, sample_matrix
from .exprdsl import parse_expr
from .fields import ScalarField, fsum
from .jets import JetDomainError
from .points import ChartPoint, sample_box
from .report import Report, largest


def pairing_matrix(m: int) -> np.ndarray:
    """The split pairing on the fibers in (y, z) coordinates."""
    g2 = np.zeros((2 * m, 2 * m))
    g2[:m, m:] = 0.5 * np.eye(m)
    g2[m:, :m] = 0.5 * np.eye(m)
    return g2


# -- the (sigma, psi) correspondence --------------------------------------
def fiber_metric(sigma, psi, m: int) -> np.ndarray:
    """The fiber metric G = [[h, l^t], [l, k]] of a pair, a 2m x 2m object
    matrix in (y, z) coordinates: k = sigma^{-1}, l = -sharp_sigma flat_psi,
    h = sigma - psi sigma^{-1} psi."""
    S = parse_grid(sigma, m, "xyz", "sigma")
    P = parse_grid(psi, m, "xyz", "psi")
    Sinv = fields.finverse(S)
    SP = fields.fdot(Sinv, P)
    L = -1.0 * SP
    H = S - fields.fdot(P, SP)
    return np.block([[H, L.T], [L, Sinv]])


def sigma_psi_from_vm(G: np.ndarray):
    """Inverse correspondence: sigma = k^{-1}, psi = -sigma l."""
    m = len(G) // 2
    S = fields.finverse(G[m:, m:])
    P = -1.0 * fields.fdot(S, G[m:, :m])
    return S, P


def phi_matrix(G: np.ndarray) -> np.ndarray:
    """Endomorphism with 2 g(phi Z, Z') = gV(Z, Z'): G with its two block
    rows swapped, [[l, sharp_k], [flat_h, l^t]]."""
    m = len(G) // 2
    return np.concatenate([G[m:], G[:m]])


def compatibility_check(G: np.ndarray, p: ChartPoint) -> Report:
    """The defining identities of the compatibility endomorphism phi
    (``phi_matrix``) of the fiber metric G.

    Checks, at the points p, phi^2 = Id, the symmetry of phi for the
    split pairing, the two pairing/metric exchange identities, and the
    three block conditions equivalent to phi^2 = Id.
    """
    m = len(G) // 2
    rep = Report("fiber metric compatibility", tol=1e-9)

    Pv = sample_matrix(phi_matrix(G), p)
    Gv = sample_matrix(G, p)
    g2 = pairing_matrix(m)

    rep.add("phi squared is the identity", Pv @ Pv - np.eye(2 * m))
    rep.add("phi is symmetric for the split pairing", g2 @ Pv - np.swapaxes(Pv, 1, 2) @ g2)
    rep.add(
        "twice the pairing equals the metric of a phi-shifted slot",
        np.swapaxes(Pv, 1, 2) @ Gv - 2.0 * g2,
    )
    rep.add("phi is symmetric for the fiber metric", np.swapaxes(Pv, 1, 2) @ Gv - Gv @ Pv)

    hv, kv, lv = Gv[:, :m, :m], Gv[:, m:, m:], Gv[:, m:, :m]
    rep.add("block condition: l^2 + k h = id", lv @ lv + kv @ hv - np.eye(m))
    rep.add("block condition: l k + k l^t = 0", lv @ kv + kv @ np.swapaxes(lv, 1, 2))
    rep.add("block condition: h l + l^t h = 0", hv @ lv + np.swapaxes(lv, 1, 2) @ hv)
    return rep


def eigenbundles(G: np.ndarray, p: ChartPoint) -> Report:
    """Check the eigenbundle frames of the compatibility endomorphism of
    the fiber metric G.

    The columns of the 2m x m halves Ip, Im of ``_iota_frame`` are the
    images of the y-basis under iota_pm Y = (Y, (flat_psi pm flat_sigma) Y);
    they span the (pm 1)-eigenbundles.  The report checks, at the points
    p, the eigenvector property, the mutual orthogonality of the two
    bundles, and the two pullback identities for sigma.
    """
    m = len(G) // 2
    S, P = sigma_psi_from_vm(G)
    B = _iota_frame(S, P, m)
    Ip, Im = B[:, :m], B[:, m:]

    rep = Report("eigenbundles of the compatibility endomorphism", tol=1e-9)
    Gv = sample_matrix(G, p)
    Phiv = sample_matrix(phi_matrix(G), p)
    Ipv = sample_matrix(Ip, p)
    Imv = sample_matrix(Im, p)
    Sv = sample_matrix(S, p)
    g2 = pairing_matrix(m)

    rep.add(
        "iota images are eigenvectors of phi",
        Phiv @ Ipv - Ipv,
        Phiv @ Imv + Imv,
    )
    rep.add(
        "the two eigenbundles are orthogonal for the fiber metric",
        np.swapaxes(Ipv, 1, 2) @ Gv @ Imv,
    )
    rep.add(
        "sigma pulls back to half the fiber metric on each eigenbundle",
        np.swapaxes(Ipv, 1, 2) @ Gv @ Ipv - 2.0 * Sv,
        np.swapaxes(Imv, 1, 2) @ Gv @ Imv - 2.0 * Sv,
    )
    rep.add(
        "the split pairing restricts to plus/minus sigma",
        np.swapaxes(Ipv, 1, 2) @ g2 @ Ipv - Sv,
        np.swapaxes(Imv, 1, 2) @ g2 @ Imv + Sv,
    )
    return rep


# -- double fields ---------------------------------------------------------
@dataclass
class DoubleField:
    """A horizontal bundle plus a compatible fiber metric, stored
    through the component pair (sigma, psi) and an optional density.
    Builds only: the loader checks sigma and psi."""

    H: horizon.HorizontalBundle
    sigma: np.ndarray
    psi: np.ndarray | None = None
    density: ScalarField | None = None

    def __post_init__(self):
        m = self.H.m
        self.sigma = parse_grid(self.sigma, m, "xyz", "sigma")
        if self.psi is None:
            self.psi = fields.fzeros(m, m)
        self.psi = parse_grid(self.psi, m, "xyz", "psi")
        if self.density is None:
            self.density = fields.ZERO
        else:
            self.density = parse_components(
                [self.density], m, {"x", "y", "z"}, "density", count=1
            )[0]

    @property
    def m(self) -> int:
        return self.H.m

    # The parts of the connection ladder, each built once per field, so
    # the identity suite, the connections and every action share them
    # (and the section-derivative memo of D0).  No part holds the field,
    # so a field is freed by reference counting alone.
    @cached_property
    def G(self) -> np.ndarray:
        """The fiber metric of (sigma, psi) (``fiber_metric``)."""
        return fiber_metric(self.sigma, self.psi, self.m)

    @cached_property
    def Ginv(self) -> np.ndarray:
        return fields.finverse(self.G)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        return fields.finverse(self.sigma)

    @cached_property
    def B(self) -> np.ndarray:
        """The eigenbundle frame (``_iota_frame``) of (sigma, psi)."""
        return _iota_frame(self.sigma, self.psi, self.m)

    @cached_property
    def Binv(self) -> np.ndarray:
        return fields.finverse(self.B)

    @cached_property
    def c0(self) -> np.ndarray:
        """The base y-block connection c0[a, i, j].

        Lifts sigma to a block-diagonal chart metric over the adapted
        coframe (``metrics.block_lift``), projects its Levi-Civita
        connection onto the splitting, restricts to the y-block and
        corrects it to preserve sigma.  Only the y-block of the projection
        is built, and of the Levi-Civita symbols only those it reads,
        gamma[a, b, .] with a vertical and b in the y-block: a horizontal
        direction takes the bracket rule, which reads none.
        """
        m = self.m
        pairs = [(a, b) for a in range(m, 3 * m) for b in range(m, 2 * m)]
        Dsig = conns.levi_civita(metrics.block_lift(self.sigma, self.H), pairs)
        vb = conns.vranceanu_bott(Dsig, self.H, block=1)
        return _metricize(self, vb.gamma[:, m : 2 * m, m : 2 * m])

    @cached_property
    def D0(self) -> VerticalConnection:
        """The base fiber connection: c0 acting on both eigenbundles
        through the frame map."""
        return pair_connection(self, self.c0, self.c0)

    @cached_property
    def torsion_pair(self) -> tuple:
        """(cplus, cminus) of ``dpm_connections``."""
        return dpm_connections(self)

    @cached_property
    def frame_brackets(self) -> np.ndarray:
        """fb[q, i] = [B_{m+q}, B_i], the metric bracket of each minus-frame
        column with each plus-frame column, from which
        ``ladder_brackets`` expands the ladder's brackets."""
        m = self.m
        fb = fields.fzeros(m, m, 2 * m)
        for q, i in np.ndindex(m, m):
            fb[q, i] = metric_bracket(self, self.B[:, m + q], self.B[:, i])
        return fb

    @cached_property
    def connections(self) -> tuple:
        """(Dbar, Dtilde) of ``field_adapted_connection``, built from the
        field's frame brackets, without its third item, the field, which
        the field would hold in a cycle."""
        return field_adapted_connection(self)[:2]

    @cached_property
    def curvatures(self):
        """(K, Ric, rho) of ``deformed_curvatures`` for the final connection:
        the contracted curvature components, the Ricci trace and the
        scalar curvature."""
        return deformed_curvatures(self.connections[0], self)

    @cached_property
    def integrand_tape(self) -> fields.Tape:
        """The one tape of the action integrand's fields: rho, the density
        and det sigma."""
        return fields.Tape((self.curvatures[2], self.density, fields.fdet(self.sigma)), 0)


def field_from_lagrangian(L, H: horizon.HorizontalBundle) -> DoubleField:
    """Double field of a regular Lagrangian over H, the horizontal bundle
    of its spray: the fiber Hessian as sigma, and the horizontal part of
    d(dL o S) as psi."""
    m = H.m
    ad = horizon.to_adapted(horizon.lagrangian_two_form(L, m), H)
    return DoubleField(H, horizon.fiber_hessian(L, m), ad.comps[:m, :m])


# -- connections on the fibers --------------------------------------------
@dataclass
class VerticalConnection:
    """Coefficients gamma[a, b, c] of a connection on the fiber
    directions: a runs over the 3m adapted frame directions of H, b and
    c over the 2m fiber coordinates (y-block first)."""

    gamma: np.ndarray
    H: horizon.HorizontalBundle
    # section_derivative results, keyed by (direction, *section nodes)
    _derivatives: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.H.m
        self.gamma = fields.field_array(self.gamma, (3 * m, 2 * m, 2 * m), "gamma")

    @property
    def m(self) -> int:
        return self.H.m


def section_derivative(nabla: VerticalConnection, a: int, s: np.ndarray) -> np.ndarray:
    """Covariant derivative of a fiber section (2m components) along
    the a-th adapted frame direction.

    Results are memoised on ``nabla``, keyed by the direction and the
    section's nodes; nodes are interned, so a hit is the array a rebuild
    would return.  The array is read-only, since every caller with equal
    inputs shares it.
    """
    key = (a, *s)
    out = nabla._derivatives.get(key)
    if out is None:
        comps = [_section_derivative_component(nabla, a, s, c) for c in range(len(s))]
        out = np.array(comps, dtype=object)
        out.flags.writeable = False
        nabla._derivatives[key] = out
    return out


def _section_derivative_component(nabla, a: int, s: np.ndarray, c: int) -> ScalarField:
    """Component c of ``section_derivative(nabla, a, s)``, built alone."""
    return fsum(
        ((1, s[b], nabla.gamma[a, b, c]) for b in range(2 * nabla.m) if not fields.is_zero(s[b])),
        start=nabla.H.frame_derivative(s[c], a),
    )


def _direction_parts(nabla: VerticalConnection, Z: np.ndarray, s: np.ndarray) -> list:
    """(Z[v], section derivative along fiber direction v) for each v with a
    nonzero component; directions with a constant-zero component are
    skipped before their section derivative is built."""
    m = nabla.m
    return [
        (Z[v], section_derivative(nabla, m + v, s))
        for v in range(2 * m)
        if not fields.is_zero(Z[v])
    ]


def vertical_derivative(nabla: VerticalConnection, Z: np.ndarray, s: np.ndarray):
    """Covariant derivative along a fiber vector field Z (2m direction
    components)."""
    m = nabla.m
    parts = _direction_parts(nabla, Z, s)
    out = fields.fzeros(2 * m)
    for c in range(2 * m):
        out[c] = fsum((1, z, d[c]) for z, d in parts)
    return out


def _coord_basis(m: int) -> list:
    """The 2m coordinate fiber vectors as component arrays."""
    return list(fields.field_array(np.eye(2 * m), (2 * m, 2 * m), "basis"))


def _iota_frame(sigma: np.ndarray, psi: np.ndarray, m: int) -> np.ndarray:
    """Frame matrix whose columns are the images of the y-basis under
    iota_+, then under iota_-."""
    one = fields.field_array(np.eye(m), (m, m), "identity")
    return np.block([[one, one], [psi + sigma, psi - sigma]])


def pair_connection(F: DoubleField, cplus: np.ndarray, cminus: np.ndarray) -> VerticalConnection:
    """Fiber connection acting as the pair (cplus, cminus) through the
    eigenbundle frames: sections of each eigenbundle are differentiated
    by transporting their y-components with the matching connection."""
    m = F.m
    B = F.B
    n = 3 * m
    gamma = fields.fzeros(n, 2 * m, 2 * m)
    Z = fields.fzeros(m, m)
    for a in range(n):
        Ga = np.block([[cplus[a].T, Z], [Z, cminus[a].T]])
        dB = np.empty((2 * m, 2 * m), dtype=object)
        for idx in np.ndindex(2 * m, 2 * m):
            dB[idx] = F.H.frame_derivative(B[idx], a)
        gamma[a] = fields.fdot(fields.fdot(B, Ga) - dB, F.Binv).T
    return VerticalConnection(gamma, F.H)


def covariant_metric_differential(
    H: horizon.HorizontalBundle, gamma: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """(nabla_a G)_bc = X_a(G_bc) - sum_e gamma[a, b, e] G[e, c]
    - sum_e gamma[a, c, e] G[b, e] for a fiber metric G (a square matrix of
    fields) under connection coefficients gamma[a, b, e], a running over
    the 3m adapted frame directions of H."""
    n = len(G)
    out = fields.fzeros(3 * H.m, n, n)
    for a, b, c in np.ndindex(out.shape):
        out[a, b, c] = fsum(
            (
                term
                for e in range(n)
                for term in ((-1, gamma[a, b, e], G[e, c]), (-1, gamma[a, c, e], G[b, e]))
            ),
            start=H.frame_derivative(G[b, c], a),
        )
    return out


def _metricize(F: DoubleField, c: np.ndarray) -> np.ndarray:
    """Correct a y-block connection by half the sharped covariant
    differential of sigma, which makes sigma parallel."""
    m = F.m
    sinv = F.sigma_inv
    T = covariant_metric_differential(F.H, c, F.sigma)
    # corr[a, i, j] = sum_b sinv[j, b] T[a, b, i]
    corr = fields.fdot(sinv, T.transpose(1, 0, 2)).transpose(1, 2, 0)
    return c + 0.5 * corr


def dpm_connections(F: DoubleField):
    """The psi-torsion pair: along y-directions each connection of the
    pair picks up half the sharped contraction of the leafwise exterior
    derivative of psi, with opposite signs; both preserve sigma."""
    m = F.m
    sinv = F.sigma_inv
    dpsi = fields.fzeros(m, m, m)
    for i, j, k in np.ndindex(m, m, m):
        dpsi[i, j, k] = (
            F.psi[j, k].partial(m + i)
            - F.psi[i, k].partial(m + j)
            + F.psi[i, j].partial(m + k)
        )
    # corr[i, j, k] = sum_b sinv[k, b] dpsi[i, j, b]
    corr = fields.fdot(sinv, dpsi.transpose(2, 0, 1)).transpose(1, 2, 0)
    out = []
    for sign in (1.0, -1.0):
        c = F.c0.copy()
        c[m : 2 * m] = c[m : 2 * m] + (0.5 * sign) * corr
        out.append(_metricize(F, c))
    return out[0], out[1]


# -- metric bracket and skew torsion --------------------------------------
def wedge_product(
    nabla: VerticalConnection, F: DoubleField, Y1: np.ndarray, Y2: np.ndarray
) -> np.ndarray:
    """Fiber vector W with G(Y, W) = (1/2)[G(Y1, nabla_Y Y2)
    - G(Y2, nabla_Y Y1)] for every fiber direction Y."""
    m = nabla.m
    # (sign, Y factor, G factor, which derivative, q) of the (p, q)-sum's
    # terms whose first two factors are nonzero, in the sum's order
    terms = []
    for p_, q in np.ndindex(2 * m, 2 * m):
        g = F.G[p_, q]
        if fields.is_zero(g):
            continue
        if not fields.is_zero(Y1[p_]):
            terms.append((1, Y1[p_], g, 1, q))
        if not fields.is_zero(Y2[p_]):
            terms.append((-1, Y2[p_], g, 0, q))
    beta = fields.fzeros(2 * m)
    for b in range(2 * m):
        d = (section_derivative(nabla, m + b, Y1), section_derivative(nabla, m + b, Y2))
        beta[b] = fsum((sign, y, g, d[w][q]) for sign, y, g, w, q in terms)
    return 0.5 * fields.fdot(F.Ginv, beta)


def metric_bracket(F: DoubleField, Y1: np.ndarray, Y2: np.ndarray) -> np.ndarray:
    """Antisymmetrized base-connection derivative minus the wedge term."""
    a = vertical_derivative(F.D0, Y1, Y2)
    b = vertical_derivative(F.D0, Y2, Y1)
    w = wedge_product(F.D0, F, Y1, Y2)
    return a - b - w


def ladder_brackets(F: DoubleField) -> tuple:
    """(bp, bm): the frame components the connection ladder reads of the
    metric brackets of projected fiber directions and frame columns,
    bp[v, i, j] the plus one j of [pr_-(e_v), B_i], bm[v, i, j] the minus
    one j of [B_{m+i}, pr_+(e_v)].

    pr_-(e_v) = sum_q f_q B_{m+q} with f_q = Binv[m+q, v], and pr_+(e_v)
    likewise over the plus columns.  Skew symmetry and the deformed
    Leibniz rule [X, fY] = f[X, Y] + X(f) Y - 1/2 G(X, Y) grad f expand
    [sum_q f_q X_q, Y] into sum_q f_q [X_q, Y] - Y(f_q) X_q (and likewise
    [Y, sum_q f_q X_q]).  The G term is zero (the eigenbundles are
    G-orthogonal), and X_q has no component on the other eigenbundle, so
    the components read are those of ``F.frame_brackets`` in the frame,
    Binv fb, summed against f.
    """
    m, Binv = F.m, F.Binv
    fc = fields.fdot(F.frame_brackets, Binv.T)  # fc[q, i] = Binv @ [B_{m+q}, B_i]
    bp = fields.fdot(Binv[m:].T, fc[:, :, :m])
    bm = fields.fdot(Binv[:m].T, fc[:, :, m:].transpose(1, 0, 2))
    return bp, bm


def gualtieri_torsion(nabla: VerticalConnection, F: DoubleField) -> np.ndarray:
    """Totally covariant skew torsion via the cyclic sum of the
    difference tensor against the base connection."""
    m = nabla.m
    xi = fields.fdot(nabla.gamma[m:] - F.D0.gamma[m:], F.G)
    # tau[a, b, c] = xi[a, b, c] + xi[b, c, a] + xi[c, a, b]
    return xi + xi.transpose(2, 0, 1) + xi.transpose(1, 2, 0)


def gualtieri_via_deformed_torsion(
    nabla: VerticalConnection, F: DoubleField
) -> np.ndarray:
    """Oracle route: pair the deformed torsion (the antisymmetrized
    derivative minus the wedge-deformed bracket) with the metric."""
    m = nabla.m
    tau = fields.fzeros(2 * m, 2 * m, 2 * m)
    basis = _coord_basis(m)
    for a, b in np.ndindex(2 * m, 2 * m):
        br = metric_bracket(F, basis[a], basis[b])
        wd = wedge_product(nabla, F, basis[a], basis[b])
        T = nabla.gamma[m + a, b] - nabla.gamma[m + b, a] - br - wd
        tau[a, b] = fields.fdot(T, F.G)
    return tau


# -- the field-adapted connection -----------------------------------------
def field_adapted_connection(F: DoubleField):
    """Connection ladder ending in a pairing- and metric-preserving
    fiber connection with vanishing skew torsion.

    Returns (Dbar, Dtilde, F): the final connection, the
    bracket-corrected intermediate one (whose skew torsion supplies the
    final correction), and the field, which holds the shared parts of
    the ladder.

    Along fiber directions each side of the pair differentiates with
    its own connection only along the matching eigenbundle part of the
    direction; along the opposite part the projected metric bracket
    takes over.  (Taking the bracket term as an addition to the full
    directional derivative would break the preservation of sigma.)
    The projected brackets' components are read from the field's m^2
    frame brackets (``ladder_brackets``), not built one by one.
    """
    m = F.m
    cplus, cminus = F.torsion_pair
    bp, bm = ladder_brackets(F)
    # column v of each: an eigenbundle projection of the v-th fiber direction
    prp, prm = fields.fdot(F.B[:, :m], F.Binv[:m]), fields.fdot(F.B[:, m:], F.Binv[m:])
    ctp, ctm = cplus.copy(), cminus.copy()
    ctp[m:] = fields.fdot(prp.T, cplus[m:]) + bp
    ctm[m:] = fields.fdot(prm.T, cminus[m:]) - bm
    Dtilde = pair_connection(F, ctp, ctm)
    tau = gualtieri_torsion(Dtilde, F)
    gamma = Dtilde.gamma.copy()
    # phi[a, b, c] = sum_e Ginv[c, e] tau[a, b, e]
    phi = fields.fdot(F.Ginv, tau.transpose(2, 0, 1)).transpose(1, 2, 0)
    gamma[m:] = gamma[m:] - (1.0 / 3.0) * phi
    Dbar = VerticalConnection(gamma, F.H)
    return Dbar, Dtilde, F


# -- deformed curvatures and the action -----------------------------------
def deformed_bracket(nabla: VerticalConnection, F: DoubleField, Za, Zb) -> np.ndarray:
    """W, the wedge-deformed bracket of a direction pair: the metric
    bracket plus the wedge product under ``nabla``."""
    return metric_bracket(F, Za, Zb) + wedge_product(nabla, F, Za, Zb)


def _curvature_component(nabla, Za, Zb, W, Yc, inner: tuple, e: int) -> ScalarField:
    """Component e of the deformed curvature of the direction pair
    (Za, Zb) applied to Yc: nabla_Za nabla_Zb Yc - nabla_Zb nabla_Za Yc
    minus the derivative along W, the pair's ``deformed_bracket``.
    ``inner`` is (nabla_Zb Yc, nabla_Za Yc), two ``vertical_derivative``s;
    their derivatives are built for component e alone, while those of Yc
    come from the memo, which every pair shares."""
    m = nabla.m

    def outer(Z, s):
        return fsum(
            (1, Z[v], _section_derivative_component(nabla, m + v, s, e))
            for v in range(2 * m)
            if not fields.is_zero(Z[v])
        )

    third = fsum((1, w, d[e]) for w, d in _direction_parts(nabla, W, Yc))
    return outer(Za, inner[0]) - outer(Zb, inner[1]) - third


def deformed_curvatures(nabla: VerticalConnection, F: DoubleField):
    """(K, Ric, rho), object arrays: the components K[a, b, c] =
    R[a, b, c, a] of the deformed curvature (direction pair a, b; argument
    c; output a) that the symmetrized Ricci trace over the fiber coordinate
    frame, Ric[b, c] = 1/2 sum_a (K[a, b, c] + K[a, c, b]), reads, and the
    scalar contraction rho of Ric against the inverse metric.  Of each
    R(e_a, e_b) e_c, a < b, only the components a and b are built."""
    m = nabla.m
    basis = _coord_basis(m)
    K = fields.fzeros(2 * m, 2 * m, 2 * m)
    for a in range(2 * m):
        for b in range(a + 1, 2 * m):
            W = deformed_bracket(nabla, F, basis[a], basis[b])
            for c in range(2 * m):
                inner = tuple(vertical_derivative(nabla, basis[d], basis[c]) for d in (b, a))
                args = (nabla, basis[a], basis[b], W, basis[c], inner)
                K[a, b, c] = _curvature_component(*args, a)
                K[b, a, c] = -1.0 * _curvature_component(*args, b)
    Ric = fields.fzeros(2 * m, 2 * m)
    for b, c in np.ndindex(2 * m, 2 * m):
        Ric[b, c] = 0.5 * fsum(
            term for a in range(2 * m) for term in ((1, K[a, b, c]), (1, K[a, c, b]))
        )
    rho = fsum((1, F.Ginv[q, s], Ric[q, s]) for q, s in np.ndindex(2 * m, 2 * m))
    return K, Ric, rho


def scalar_curvature_in_basis(
    nabla: VerticalConnection, F: DoubleField, P: np.ndarray
) -> ScalarField:
    """Scalar curvature recomputed in the fiber basis whose columns are
    the (possibly point-dependent) combinations P of the coordinate
    frame; equality with the coordinate-frame value tests that the
    deformed curvature is tensorial.

    The Ricci trace reads only component a of the curvature applied to
    (e_a, P_k, P_l), so only that component is built
    (``_curvature_component``): the inner derivative nabla_{P_k} P_l is
    shared by every a, and the deformed bracket of (e_a, P_k) by every l.
    """
    m = nabla.m
    P = fields.field_array(P, (2 * m, 2 * m), "P")
    basis = _coord_basis(m)
    inner, bracket = {}, {}

    def component(a, k, l):
        if (k, l) not in inner:
            inner[k, l] = vertical_derivative(nabla, P[:, k], P[:, l])
        if (a, k) not in bracket:
            bracket[a, k] = deformed_bracket(nabla, F, basis[a], P[:, k])
        pair = (inner[k, l], vertical_derivative(nabla, basis[a], P[:, l]))
        return _curvature_component(nabla, basis[a], P[:, k], bracket[a, k], P[:, l], pair, a)

    Ric = fields.fzeros(2 * m, 2 * m)
    for q in range(2 * m):
        for s in range(q, 2 * m):
            Ric[q, s] = 0.5 * fsum(
                (1, component(a, k, l)) for a in range(2 * m) for k, l in ((q, s), (s, q))
            )
            Ric[s, q] = Ric[q, s]
    Gt = fields.fdot(fields.fdot(P.T, F.G), P)
    Gtinv = fields.finverse(Gt)
    return fsum((1, Gtinv[q, s], Ric[q, s]) for q, s in np.ndindex(2 * m, 2 * m))


@dataclass
class ActionResult:
    """An action value and its error estimate: the standard error of a
    Monte Carlo estimate, or the distance to the rule one level down."""

    value: float
    error: float


def _clenshaw_curtis(i: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Level i >= 1 of the nested Clenshaw-Curtis rules on [-1, 1], which
    has 1 node for i = 1 and 2^(i-1) + 1 nodes after that: the nodes'
    positions J in 0..2^top (node J is -cos(pi J / 2^top)) and weights."""
    if i == 1:
        return np.array([2 ** (top - 1)]), np.array([2.0])
    n = 2 ** (i - 1)
    j = np.arange(n + 1)
    k = np.arange(1, n // 2 + 1)
    b = np.where(2 * k == n, 1.0, 2.0) / (4 * k**2 - 1)
    w = (1.0 - b @ np.cos(2 * np.pi * np.outer(k, j) / n)) / n
    w[1:-1] *= 2.0
    return j * 2 ** (top - i + 1), w


def _level_tuples(d: int, budget: int):
    """Every d-tuple of 1-D levels >= 1 whose excesses over 1 sum to at
    most ``budget``."""
    if d == 0:
        yield ()
        return
    for extra in range(budget + 1):
        for rest in _level_tuples(d - 1, budget - extra):
            yield (extra + 1,) + rest


def sparse_grid(d: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-``level`` Smolyak rule on [-1, 1]^d built from nested
    Clenshaw-Curtis rules (Smolyak 1963; Gerstner and Griebel, Numer.
    Algorithms 18, 1998): its distinct nodes, shape (d, N), and weights,
    shape (N,).  It integrates every polynomial of total degree
    <= 2 level + 1 exactly.

    Nodes are ordered by the level at which they enter, so the first
    nodes of this grid are the nodes of level - 1, in the same order."""
    if d == 0:
        return np.zeros((0, 1)), np.ones(1)
    top = max(level, 1)
    rules = [_clenshaw_curtis(i, top) for i in range(1, level + 2)]
    entry = np.zeros(2**top + 1, dtype=np.int64)  # the level a 1-D node enters at, less 1
    for i in range(level + 1, 0, -1):
        entry[rules[i - 1][0]] = i - 1
    # combination technique: the rule is a signed sum of the tensor rules
    # whose levels' excesses q sum to level - d + 1 .. level.  A node is
    # coded by its positions J as digits in base 2^top + 1
    radix = 2**top + 1
    if radix**d > np.iinfo(np.int64).max:
        raise ValueError(f"a level-{level} sparse grid in {d} variables is too large")
    codes, weights = [], []
    for levels in _level_tuples(d, level):
        q = sum(levels) - d
        if q <= level - d:
            continue
        digits = (rules[i - 1][0] * radix**k for k, i in enumerate(levels))
        codes.append(reduce(np.add.outer, digits).reshape(-1))
        w = reduce(np.multiply.outer, (rules[i - 1][1] for i in levels))
        weights.append((-1) ** (level - q) * math.comb(d - 1, level - q) * w.reshape(-1))
    codes, inverse = np.unique(np.concatenate(codes), return_inverse=True)
    w = np.bincount(inverse, weights=np.concatenate(weights))
    keys = codes // radix ** np.arange(d)[:, None] % radix
    order = np.argsort(entry[keys].sum(axis=0), kind="stable")
    nodes = np.sin(np.pi * (2 * keys[:, order] - 2**top) / 2 ** (top + 1))
    return nodes, w[order]


def _integrand_values(m: int, tape: fields.Tape, pts: np.ndarray) -> np.ndarray:
    """exp(-2 density) * rho * |det sigma|^{1/2} at chart points given
    as an (3m, npoints) array, run on ``tape``, the field's
    ``integrand_tape``; a value that is not finite raises a
    ``JetDomainError`` at the first such point."""
    p = ChartPoint(pts[:m], pts[m : 2 * m], pts[2 * m :])
    rv, dv, detv = (jet[0] for jet in tape.run(p))
    vals = np.exp(-2.0 * dv) * rv * np.sqrt(np.abs(detv))
    bad = ~np.isfinite(vals)
    if bad.any():
        err = JetDomainError("the action integrand is not finite", int(np.argmax(bad)))
        err.point = p.text(err.index)
        raise err
    return vals


SPARSE_LEVEL = 4  # the sparse action's Smolyak level; its error estimate reads level - 1
CHUNK = 1024  # the most integrand points one tape run takes


def action(
    F: DoubleField,
    box=None,
    method: str = "mc",
    samples: int = 10000,
    seed: int = 0,
) -> ActionResult:
    """Truncated action integral of a double field.

    Integrates exp(-2 density) * rho * |det sigma|^{1/2} over a chart
    box (default [-1, 1]^{3m}); the adapted coframe volume has unit
    Jacobian against the chart coordinates, so plain chart quadrature
    applies.  method "mc" gives a seeded Monte Carlo estimate with its
    standard error.  method "sparse" applies the Smolyak rule of
    ``sparse_grid`` at ``SPARSE_LEVEL`` over S, the set of chart variables the
    integrand reads (the union of its fields' ``support``), with the
    other coordinates at their intervals' midpoints, and scales the sum
    by the volume of the other intervals; for such an integrand this is
    the Smolyak rule over all 3m variables.  Its error estimate is the
    difference from the rule of level - 1, whose nodes are among the
    evaluated ones.  The integrand is evaluated once per node, in runs
    of at most ``CHUNK`` points.
    """
    m = F.m
    n = 3 * m
    if box is None:
        box = tuple((-1.0, 1.0) for _ in range(n))
    box = tuple((float(lo), float(hi)) for lo, hi in box)
    if len(box) != n:
        raise ValueError(f"box must have {n} coordinate intervals")
    tape = F.integrand_tape
    lo = np.array([b[0] for b in box])[:, None]
    hi = np.array([b[1] for b in box])[:, None]
    volume = float(np.prod(hi - lo))

    if method == "mc":
        if samples < 2:  # the standard error divides by samples - 1
            raise ValueError(f"Monte Carlo needs samples >= 2, got {samples}")
        rng = np.random.default_rng(seed)
        vals = np.empty(samples)
        done = 0
        while done < samples:
            take = min(CHUNK, samples - done)
            pts = rng.uniform(0.0, 1.0, size=(n, take)) * (hi - lo) + lo
            vals[done : done + take] = _integrand_values(m, tape, pts)
            done += take
        est = volume * float(np.mean(vals))
        se = volume * float(np.std(vals, ddof=1)) / np.sqrt(samples)
        return ActionResult(est, se)

    if method == "sparse":
        S = sorted(set().union(*(f.support for f in tape.roots)))
        nodes, w = sparse_grid(len(S), SPARSE_LEVEL)
        coarse = sparse_grid(len(S), SPARSE_LEVEL - 1)[1]
        pts = np.repeat(0.5 * (hi + lo), nodes.shape[1], axis=1)
        pts[S] = 0.5 * (hi - lo)[S] * nodes + pts[S]
        vals = np.concatenate(
            [
                _integrand_values(m, tape, pts[:, start : start + CHUNK])
                for start in range(0, pts.shape[1], CHUNK)
            ]
        )
        scale = volume / 2 ** len(S)
        value = scale * float(w @ vals)
        error = abs(value - scale * float(coarse @ vals[: coarse.size]))
        return ActionResult(value, error)

    raise ValueError(f"unknown quadrature method {method!r}")


# -- aggregate verification ------------------------------------------------
@fields.collector_paused()  # its graphs hold no reference cycles
def verify_double_field(
    F: DoubleField, seed: int = 0, n: int = 10, tol: float = 1e-8
) -> Report:
    """Identity suite for one double field: the compatibility and
    eigenbundle reports, sigma preservation along the ladder, metric
    and pairing preservation of the base and final connections, the
    Leibniz rule of the metric bracket, the vanishing and total
    antisymmetry of the final skew torsion with a dual-route oracle,
    Ricci symmetry, and basis invariance of the scalar curvature.  It
    runs with the cyclic collector paused, and restores the caller's
    setting on return and on an exception."""
    m = F.m
    p = sample_box(m, n, seed=seed)
    rep = Report("double field identities", tol=tol)

    Dbar, Dtilde = F.connections
    rep.extend(compatibility_check(F.G, p))
    rep.extend(eigenbundles(F.G, p))

    S2, P2 = sigma_psi_from_vm(F.G)
    rt = []
    for i, j in np.ndindex(m, m):
        rt.append(S2[i, j] - F.sigma[i, j])
        rt.append(P2[i, j] - F.psi[i, j])
    rep.add(
        "component pair round trip",
        fields.fvalue(rt, p),
        tol=1e-10,
    )

    def preserved(gamma, G):
        """Sampled covariant differential of a fiber metric G (object or
        numeric matrix) under the coefficients gamma."""
        G = fields.field_array(G, np.shape(G), "G")
        return fields.fvalue(covariant_metric_differential(F.H, gamma, G), p)

    rep.add("base connection preserves sigma", preserved(F.c0, F.sigma))
    cplus, cminus = F.torsion_pair
    rep.add(
        "torsion pair preserves sigma", preserved(cplus, F.sigma), preserved(cminus, F.sigma)
    )
    g2 = pairing_matrix(m)
    rep.add("base connection preserves the fiber metric", preserved(F.D0.gamma, F.G))
    rep.add("base connection preserves the split pairing", preserved(F.D0.gamma, g2))
    rep.add("final connection preserves the fiber metric", preserved(Dbar.gamma, F.G))
    rep.add("final connection preserves the split pairing", preserved(Dbar.gamma, g2))

    # Leibniz rule of the metric bracket on seeded data
    rng = np.random.default_rng(seed + 1)
    Y1 = fields.field_array(rng.normal(size=2 * m), (2 * m,), "Y1")
    Y2 = fields.field_array(rng.normal(size=2 * m), (2 * m,), "Y2")
    f = parse_expr("exp(y1) + x1*z1", m)
    df = np.array([f.partial(m + r) for r in range(2 * m)], dtype=object)
    lhs = metric_bracket(F, Y1, Y2 * f)
    gYY = fsum((1, Y1[a], F.G[a, b], Y2[b]) for a, b in np.ndindex(2 * m, 2 * m))
    rhs = (
        metric_bracket(F, Y1, Y2) * f
        + Y2 * fields.fdot(Y1, df)[()]  # Y1(f)
        - fields.fdot(F.Ginv, df) * (0.5 * gYY)  # the sharped fiber differential of f
    )
    rep.add(
        "metric bracket satisfies the deformed Leibniz rule",
        fields.fvalue(lhs - rhs, p),
        tol=1e-9,
    )

    tau_bar = gualtieri_torsion(Dbar, F)
    rep.add("final connection has vanishing skew torsion", fields.fvalue(tau_bar, p))
    tau_tilde = gualtieri_torsion(Dtilde, F)
    tv = fields.fvalue(tau_tilde, p)
    rep.add(
        "skew torsion is totally antisymmetric",
        tv + np.swapaxes(tv, 0, 1),
        tv + np.swapaxes(tv, 1, 2),
    )
    tv2 = fields.fvalue(gualtieri_via_deformed_torsion(Dtilde, F), p)
    rep.add(
        "deformed-torsion route agrees with the cyclic-sum route",
        tv - tv2,
        tol=1e-9,
    )

    _, Ric, rho = F.curvatures
    ricv = fields.fvalue(Ric, p)
    rep.add("deformed Ricci tensor is symmetric", ricv - np.swapaxes(ricv, 0, 1))
    mix = rng.normal(size=(2 * m, 2 * m)) + 2.0 * np.eye(2 * m)
    P = fields.field_array(mix, (2 * m, 2 * m), "P")
    y1 = parse_expr("y1", m)
    for a, b in np.ndindex(2 * m, 2 * m):
        P[a, b] = P[a, b] + (0.1 * ((a + b) % 3)) * y1
    rho2 = scalar_curvature_in_basis(Dbar, F, P)
    rep.add(
        "scalar curvature is basis independent",
        fields.fvalue([rho - rho2], p),
        tol=1e-9,
    )
    rep.meta["scalar_curvature_max"] = largest(rho.value(p))
    return rep
