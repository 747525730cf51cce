"""Fiber metrics compatible with the split pairing, and double fields.

The fibers of the 3m chart carry the split pairing
g = 1/2 (dy (.) dz + dz (.) dy).  Identifying the z-block with the dual
of the y-block writes a symmetric fiber metric as a block matrix
(h, l^t; l, k); compatibility with the pairing means the associated
endomorphism squares to the identity, and such metrics correspond
bijectively to pairs (sigma, psi) of a nondegenerate y-block metric and
a 2-form.  A horizontal bundle plus such a pair is a double field.

The module builds the connection ladder of a double field: a
sigma-preserving base connection from the projected Levi-Civita
connection of the block-diagonal lift of sigma, a psi-torsion pair, a
bracket-corrected pair, and finally a pairing- and metric-preserving
connection on the fibers whose totally skew torsion vanishes.  On top
of that sit the deformed curvature, Ricci and scalar curvatures and a
truncated-box action integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce

import numpy as np

from . import conns, fields, horizon, metrics
from .bigcore import (
    check_matrix,
    parse_components,
    parse_grid,
    sample_matrix,
    validation_values,
    well_conditioned,
)
from .fields import ScalarField, fsum
from .points import ChartPoint, sample_box
from .report import Report, largest


def pairing_matrix(m: int) -> np.ndarray:
    """The split pairing on the fibers in (y, z) coordinates."""
    g2 = np.zeros((2 * m, 2 * m))
    g2[:m, m:] = 0.5 * np.eye(m)
    g2[m:, :m] = 0.5 * np.eye(m)
    return g2


@dataclass
class VerticalMetric:
    """Symmetric fiber metric in block form.

    h is the y-block (0,2) part, k the z-block written as a symmetric
    2-contravariant tensor on the y-side, and l the mixed block as a
    (1,1) tensor: the full matrix in (y, z) coordinates is
    [[h, l^t], [l, k]].  Invertibility of k, which the inverse
    correspondence ``sigma_psi_from_vm`` needs, is recorded in
    `strongly_nondegenerate`; operations that need the inverse of the
    full matrix enforce it.
    """

    h: np.ndarray
    k: np.ndarray
    l: np.ndarray
    m: int
    strongly_nondegenerate: bool = dc_field(init=False)

    def __post_init__(self):
        m = self.m
        for name in ("h", "k", "l"):
            setattr(self, name, fields.field_array(getattr(self, name), (m, m), name))
        Gv = validation_values(self.matrix(), m)
        check_matrix(Gv[:, :m, :m], "h block", symmetry=1)
        kv = check_matrix(Gv[:, m:, m:], "k block", symmetry=1)
        self.strongly_nondegenerate = well_conditioned(kv)

    def matrix(self) -> np.ndarray:
        """Full 2m x 2m object matrix in (y, z) coordinates."""
        m = self.m
        G = fields.fzeros(2 * m, 2 * m)
        for i, j in np.ndindex(m, m):
            G[i, j] = self.h[i, j]
            G[i, m + j] = self.l[j, i]
            G[m + i, j] = self.l[i, j]
            G[m + i, m + j] = self.k[i, j]
        return G


# -- the (sigma, psi) correspondence --------------------------------------
def vm_from_sigma_psi(sigma, psi, m: int) -> VerticalMetric:
    """Fiber metric of a pair: k = sigma^{-1}, l = -sharp_sigma flat_psi,
    h = sigma - psi sigma^{-1} psi."""
    S = parse_grid(sigma, m, "xyz", "sigma")
    P = parse_grid(psi, m, "xyz", "psi")
    Sinv = fields.finverse(S)
    L = -1.0 * fields.fmatmul(Sinv, P)
    H = S - fields.fmatmul(P, fields.fmatmul(Sinv, P))
    return VerticalMetric(H, Sinv, L, m)


def sigma_psi_from_vm(vm: VerticalMetric):
    """Inverse correspondence: sigma = k^{-1}, psi = -sigma l."""
    if not vm.strongly_nondegenerate:
        raise ValueError("the z-block restriction is degenerate")
    S = fields.finverse(vm.k)
    P = -1.0 * fields.fmatmul(S, vm.l)
    return S, P


def phi_matrix(vm: VerticalMetric) -> np.ndarray:
    """Endomorphism with 2 g(phi Z, Z') = gV(Z, Z'): blocks
    [[l, sharp_k], [flat_h, l^t]]."""
    m = vm.m
    phi = fields.fzeros(2 * m, 2 * m)
    for i, j in np.ndindex(m, m):
        phi[i, j] = vm.l[i, j]
        phi[i, m + j] = vm.k[i, j]
        phi[m + i, j] = vm.h[i, j]
        phi[m + i, m + j] = vm.l[j, i]
    return phi


def compatibility_check(vm: VerticalMetric, p: ChartPoint):
    """The compatibility endomorphism and its defining identities.

    Returns (phi, Report).  Checks, at the points p, phi^2 = Id, the
    symmetry of phi for the split pairing, the two pairing/metric
    exchange identities, and the three block conditions equivalent to
    phi^2 = Id.
    """
    m = vm.m
    phi = phi_matrix(vm)
    rep = Report("fiber metric compatibility", tol=1e-9)

    Pv = sample_matrix(phi, p)
    Gv = sample_matrix(vm.matrix(), p)
    g2 = pairing_matrix(m)

    rep.add("phi squared is the identity", Pv @ Pv - np.eye(2 * m))
    rep.add("phi is symmetric for the split pairing", g2 @ Pv - np.swapaxes(Pv, 1, 2) @ g2)
    rep.add(
        "twice the pairing equals the metric of a phi-shifted slot",
        np.swapaxes(Pv, 1, 2) @ Gv - 2.0 * g2,
    )
    rep.add("phi is symmetric for the fiber metric", np.swapaxes(Pv, 1, 2) @ Gv - Gv @ Pv)

    hv = sample_matrix(vm.h, p)
    kv = sample_matrix(vm.k, p)
    lv = sample_matrix(vm.l, p)
    rep.add("block condition: l^2 + k h = id", lv @ lv + kv @ hv - np.eye(m))
    rep.add("block condition: l k + k l^t = 0", lv @ kv + kv @ np.swapaxes(lv, 1, 2))
    rep.add("block condition: h l + l^t h = 0", hv @ lv + np.swapaxes(lv, 1, 2) @ hv)
    return phi, rep


def eigenbundles(vm: VerticalMetric, p: ChartPoint):
    """Eigenbundle frames of the compatibility endomorphism.

    Returns (Ip, Im, Report) where the columns of the 2m x m object
    matrices Ip, Im are the images of the y-basis under
    iota_pm Y = (Y, (flat_psi pm flat_sigma) Y); they span the
    (pm 1)-eigenbundles.  The report checks, at the points p, the
    eigenvector property, the mutual orthogonality of the two bundles,
    and the two pullback identities for sigma.
    """
    m = vm.m
    S, P = sigma_psi_from_vm(vm)
    B = _iota_frame(S, P, m)
    Ip, Im = B[:, :m], B[:, m:]

    rep = Report("eigenbundles of the compatibility endomorphism", tol=1e-9)
    Gv = sample_matrix(vm.matrix(), p)
    Phiv = sample_matrix(phi_matrix(vm), p)
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
    return Ip, Im, rep


# -- double fields ---------------------------------------------------------
@dataclass
class DoubleField:
    """A horizontal bundle plus a compatible fiber metric, stored
    through the component pair (sigma, psi) and an optional density."""

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
        check_matrix(validation_values(self.sigma, m), "sigma", symmetry=1, invertible=True)
        check_matrix(validation_values(self.psi, m), "psi", symmetry=-1)

    @property
    def m(self) -> int:
        return self.H.m

    def vertical_metric(self) -> VerticalMetric:
        return vm_from_sigma_psi(self.sigma, self.psi, self.m)

    # Built once per field, so the identity suite and every action share
    # one final connection, with its section-derivative memo, and one tape.
    @cached_property
    def connections(self):
        """(Dbar, Dtilde, pack) of ``field_adapted_connection``."""
        return field_adapted_connection(self)

    @cached_property
    def curvatures(self):
        """(R, Ric, rho) of ``deformed_curvatures`` for the final connection."""
        Dbar, _, pack = self.connections
        return deformed_curvatures(Dbar, pack)

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
        m = nabla.m
        nonzero = [b for b in range(2 * m) if not fields.is_zero(s[b])]
        out = fields.fzeros(2 * m)
        for c in range(2 * m):
            out[c] = fsum(
                ((1, s[b], nabla.gamma[a, b, c]) for b in nonzero),
                start=nabla.H.frame_derivative(s[c], a),
            )
        out.flags.writeable = False
        nabla._derivatives[key] = out
    return out


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


def _vertical_derivative_component(
    nabla: VerticalConnection, Z: np.ndarray, s: np.ndarray, c: int
) -> ScalarField:
    """Component c of ``vertical_derivative(nabla, Z, s)``, the same node."""
    return fsum((1, z, d[c]) for z, d in _direction_parts(nabla, Z, s))


def _coord_basis(m: int) -> list:
    """The 2m coordinate fiber vectors as component arrays."""
    basis = [fields.fzeros(2 * m) for _ in range(2 * m)]
    for a in range(2 * m):
        basis[a][a] = fields.ONE
    return basis


def _iota_frame(sigma: np.ndarray, psi: np.ndarray, m: int) -> np.ndarray:
    """Frame matrix whose columns are the images of the y-basis under
    iota_+, then under iota_-."""
    B = fields.fzeros(2 * m, 2 * m)
    for i in range(m):
        B[i, i] = fields.ONE
        B[i, m + i] = fields.ONE
        for j in range(m):
            B[m + j, i] = psi[j, i] + sigma[j, i]
            B[m + j, m + i] = psi[j, i] - sigma[j, i]
    return B


def pair_connection(F: DoubleField, cplus: np.ndarray, cminus: np.ndarray) -> VerticalConnection:
    """Fiber connection acting as the pair (cplus, cminus) through the
    eigenbundle frames: sections of each eigenbundle are differentiated
    by transporting their y-components with the matching connection."""
    m = F.m
    B = _iota_frame(F.sigma, F.psi, m)
    Binv = fields.finverse(B)
    n = 3 * m
    gamma = fields.fzeros(n, 2 * m, 2 * m)
    for a in range(n):
        Ga = fields.fzeros(2 * m, 2 * m)
        for j, k in np.ndindex(m, m):
            Ga[k, j] = cplus[a, j, k]
            Ga[m + k, m + j] = cminus[a, j, k]
        dB = np.empty((2 * m, 2 * m), dtype=object)
        for idx in np.ndindex(2 * m, 2 * m):
            dB[idx] = F.H.frame_derivative(B[idx], a)
        Ma = fields.fmatmul(fields.fmatmul(B, Ga) - dB, Binv)
        for b, c in np.ndindex(2 * m, 2 * m):
            gamma[a, b, c] = Ma[c, b]
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


def _metricize(F: "DoubleField | DoublePack", c: np.ndarray) -> np.ndarray:
    """Correct a y-block connection by half the sharped covariant
    differential of sigma, which makes sigma parallel; F is the field or
    its pack."""
    m = F.m
    sinv = fields.finverse(F.sigma)
    T = covariant_metric_differential(F.H, c, F.sigma)
    out = fields.fzeros(3 * m, m, m)
    for a, i, j in np.ndindex(3 * m, m, m):
        corr = fsum((1, sinv[j, b], T[a, b, i]) for b in range(m))
        out[a, i, j] = c[a, i, j] + 0.5 * corr
    return out


def sigma_preservation_residual(F: DoubleField, c: np.ndarray, p: ChartPoint) -> np.ndarray:
    """Sampled covariant differential of sigma under a y-block connection
    c[a, i, j]."""
    return fields.fvalue(covariant_metric_differential(F.H, c, F.sigma), p)


def metric_preservation_residual(
    nabla: VerticalConnection, G: np.ndarray, p: ChartPoint
) -> np.ndarray:
    """Sampled covariant differential of a fiber metric G (object or
    numeric 2m x 2m matrix) under a fiber connection."""
    G = fields.field_array(G, (2 * nabla.m, 2 * nabla.m), "G")
    return fields.fvalue(covariant_metric_differential(nabla.H, nabla.gamma, G), p)


@dataclass
class DoublePack:
    """Shared data of the connection ladder of a double field.

    It holds the field's bundle and components, not the field, so a
    field that caches its ladder is freed by reference counting alone.
    """

    H: horizon.HorizontalBundle
    sigma: np.ndarray
    psi: np.ndarray
    vm: VerticalMetric
    G: np.ndarray
    Ginv: np.ndarray
    B: np.ndarray
    Binv: np.ndarray
    c0: np.ndarray
    D0: VerticalConnection

    @property
    def m(self) -> int:
        return self.H.m


def d0_connection(F: DoubleField) -> DoublePack:
    """Base fiber connection of a double field.

    Lifts sigma to a block-diagonal chart metric over the adapted
    coframe (``metrics.block_lift``), projects its Levi-Civita
    connection onto the splitting, restricts to the y-block and corrects
    it to preserve sigma; the result acts on both eigenbundles through
    the frame map.
    """
    m = F.m
    Dsig = conns.levi_civita(metrics.block_lift(F.sigma, F.H))
    vb = conns.vranceanu_bott(Dsig, F.H)
    cprime = fields.fzeros(3 * m, m, m)
    for a in range(3 * m):
        for i, j in np.ndindex(m, m):
            cprime[a, i, j] = vb.gamma[a, m + i, m + j]
    c0 = _metricize(F, cprime)
    vm = F.vertical_metric()
    G = vm.matrix()
    Ginv = fields.finverse(G)
    B = _iota_frame(F.sigma, F.psi, m)
    D0 = pair_connection(F, c0, c0)
    return DoublePack(F.H, F.sigma, F.psi, vm, G, Ginv, B, fields.finverse(B), c0, D0)


def dpm_connections(pack: DoublePack):
    """The psi-torsion pair: along y-directions each connection of the
    pair picks up half the sharped contraction of the leafwise exterior
    derivative of psi, with opposite signs; both preserve sigma."""
    m = pack.m
    sinv = fields.finverse(pack.sigma)
    dpsi = fields.fzeros(m, m, m)
    for i, j, k in np.ndindex(m, m, m):
        dpsi[i, j, k] = (
            pack.psi[j, k].partial(m + i)
            - pack.psi[i, k].partial(m + j)
            + pack.psi[i, j].partial(m + k)
        )
    out = []
    for sign in (1.0, -1.0):
        c = pack.c0.copy()
        for i in range(m):
            for j, k in np.ndindex(m, m):
                corr = fsum((1, sinv[k, b], dpsi[i, j, b]) for b in range(m))
                c[m + i, j, k] = c[m + i, j, k] + (0.5 * sign) * corr
        out.append(_metricize(pack, c))
    return out[0], out[1]


# -- metric bracket and skew torsion --------------------------------------
def wedge_product(
    nabla: VerticalConnection, pack: DoublePack, Y1: np.ndarray, Y2: np.ndarray
) -> np.ndarray:
    """Fiber vector W with G(Y, W) = (1/2)[G(Y1, nabla_Y Y2)
    - G(Y2, nabla_Y Y1)] for every fiber direction Y."""
    m = nabla.m
    # (sign, Y factor, G factor, which derivative, q) of the (p, q)-sum's
    # terms whose first two factors are nonzero, in the sum's order
    terms = []
    for p_, q in np.ndindex(2 * m, 2 * m):
        g = pack.G[p_, q]
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
    out = fields.fzeros(2 * m)
    for c in range(2 * m):
        out[c] = 0.5 * fsum((1, pack.Ginv[c, b], beta[b]) for b in range(2 * m))
    return out


def metric_bracket(pack: DoublePack, Y1: np.ndarray, Y2: np.ndarray) -> np.ndarray:
    """Antisymmetrized base-connection derivative minus the wedge term."""
    a = vertical_derivative(pack.D0, Y1, Y2)
    b = vertical_derivative(pack.D0, Y2, Y1)
    w = wedge_product(pack.D0, pack, Y1, Y2)
    return a - b - w


def vertical_gradient(pack: DoublePack, f: ScalarField) -> np.ndarray:
    """Sharped fiber differential of a scalar."""
    m = pack.m
    out = fields.fzeros(2 * m)
    for c in range(2 * m):
        out[c] = fsum((1, pack.Ginv[c, b], f.partial(m + b)) for b in range(2 * m))
    return out


def gualtieri_torsion(nabla: VerticalConnection, pack: DoublePack) -> np.ndarray:
    """Totally covariant skew torsion via the cyclic sum of the
    difference tensor against the base connection."""
    m = nabla.m
    xi = fields.fzeros(2 * m, 2 * m, 2 * m)
    for a, b, c in np.ndindex(2 * m, 2 * m, 2 * m):
        xi[a, b, c] = fsum(
            (1, nabla.gamma[m + a, b, e] - pack.D0.gamma[m + a, b, e], pack.G[e, c])
            for e in range(2 * m)
        )
    tau = fields.fzeros(2 * m, 2 * m, 2 * m)
    for a, b, c in np.ndindex(2 * m, 2 * m, 2 * m):
        tau[a, b, c] = xi[a, b, c] + xi[b, c, a] + xi[c, a, b]
    return tau


def gualtieri_via_deformed_torsion(
    nabla: VerticalConnection, pack: DoublePack
) -> np.ndarray:
    """Oracle route: pair the deformed torsion (the antisymmetrized
    derivative minus the wedge-deformed bracket) with the metric."""
    m = nabla.m
    tau = fields.fzeros(2 * m, 2 * m, 2 * m)
    basis = _coord_basis(m)
    for a in range(2 * m):
        for b in range(2 * m):
            da = nabla.gamma[m + a, b, :].copy()
            db = nabla.gamma[m + b, a, :].copy()
            br = metric_bracket(pack, basis[a], basis[b])
            wd = wedge_product(nabla, pack, basis[a], basis[b])
            T = da - db - br - wd
            for c in range(2 * m):
                tau[a, b, c] = fsum((1, T[e], pack.G[e, c]) for e in range(2 * m))
    return tau


# -- the field-adapted connection -----------------------------------------
def field_adapted_connection(F: DoubleField):
    """Connection ladder ending in a pairing- and metric-preserving
    fiber connection with vanishing skew torsion.

    Returns (Dbar, Dtilde, pack): the final connection, the
    bracket-corrected intermediate one (whose skew torsion supplies the
    final correction), and the shared pack.

    Along fiber directions each side of the pair differentiates with
    its own connection only along the matching eigenbundle part of the
    direction; along the opposite part the projected metric bracket
    takes over.  (Taking the bracket term as an addition to the full
    directional derivative would break the preservation of sigma.)
    """
    m = F.m
    pack = d0_connection(F)
    cplus, cminus = dpm_connections(pack)
    ctp = cplus.copy()
    ctm = cminus.copy()
    for v in range(2 * m):
        # the two eigenbundle projections of the v-th fiber direction
        prUp = fields.fzeros(2 * m)
        prUm = fields.fzeros(2 * m)
        for r in range(2 * m):
            prUp[r] = fsum((1, pack.B[r, q], pack.Binv[q, v]) for q in range(m))
            prUm[r] = fsum((1, pack.B[r, m + q], pack.Binv[m + q, v]) for q in range(m))
        for i in range(m):
            brp = metric_bracket(pack, prUm, pack.B[:, i])
            brm = metric_bracket(pack, prUp, pack.B[:, m + i])
            for j in range(m):
                ctp[m + v, i, j] = fsum(
                    term
                    for r in range(2 * m)
                    for term in ((1, prUp[r], cplus[m + r, i, j]), (1, pack.Binv[j, r], brp[r]))
                )
                ctm[m + v, i, j] = fsum(
                    term
                    for r in range(2 * m)
                    for term in (
                        (1, prUm[r], cminus[m + r, i, j]),
                        (1, pack.Binv[m + j, r], brm[r]),
                    )
                )
    Dtilde = pair_connection(F, ctp, ctm)
    tau = gualtieri_torsion(Dtilde, pack)
    gamma = pack.D0.gamma.copy()
    for a in range(3 * m):
        for b, c in np.ndindex(2 * m, 2 * m):
            gamma[a, b, c] = Dtilde.gamma[a, b, c]
    for a, b, c in np.ndindex(2 * m, 2 * m, 2 * m):
        phi = fsum((1, pack.Ginv[c, e], tau[a, b, e]) for e in range(2 * m))
        gamma[m + a, b, c] = gamma[m + a, b, c] - (1.0 / 3.0) * phi
    Dbar = VerticalConnection(gamma, F.H)
    return Dbar, Dtilde, pack


# -- deformed curvatures and the action -----------------------------------
def deformed_curvature_apply(
    nabla: VerticalConnection,
    pack: DoublePack,
    Za: np.ndarray,
    Zb: np.ndarray,
    Yc: np.ndarray,
) -> np.ndarray:
    """The antisymmetrized second derivative minus the derivative along
    the wedge-deformed bracket of the direction pair."""
    m = nabla.m
    first = vertical_derivative(nabla, Za, vertical_derivative(nabla, Zb, Yc))
    second = vertical_derivative(nabla, Zb, vertical_derivative(nabla, Za, Yc))
    W = metric_bracket(pack, Za, Zb) + wedge_product(nabla, pack, Za, Zb)
    third = vertical_derivative(nabla, W, Yc)
    return first - second - third


def deformed_curvatures(nabla: VerticalConnection, pack: DoublePack):
    """Deformed curvature R[a, b, c, d] (direction pair a, b; argument
    c; output d), the symmetrized Ricci trace over the fiber coordinate
    frame, and the scalar contraction against the inverse metric.
    Returns (R, Ric, rho) with object-array components."""
    m = nabla.m
    basis = _coord_basis(m)
    R = fields.fzeros(2 * m, 2 * m, 2 * m, 2 * m)
    for a in range(2 * m):
        for b in range(a + 1, 2 * m):
            for c in range(2 * m):
                val = deformed_curvature_apply(nabla, pack, basis[a], basis[b], basis[c])
                for d in range(2 * m):
                    R[a, b, c, d] = val[d]
                    R[b, a, c, d] = -1.0 * val[d]
    Ric = fields.fzeros(2 * m, 2 * m)
    for b, c in np.ndindex(2 * m, 2 * m):
        Ric[b, c] = 0.5 * fsum(
            term for a in range(2 * m) for term in ((1, R[a, b, c, a]), (1, R[a, c, b, a]))
        )
    rho = fsum((1, pack.Ginv[q, s], Ric[q, s]) for q, s in np.ndindex(2 * m, 2 * m))
    return R, Ric, rho


def scalar_curvature_in_basis(
    nabla: VerticalConnection, pack: DoublePack, P: np.ndarray
) -> ScalarField:
    """Scalar curvature recomputed in the fiber basis whose columns are
    the (possibly point-dependent) combinations P of the coordinate
    frame; equality with the coordinate-frame value tests that the
    deformed curvature is tensorial.

    The Ricci trace reads only component a of the curvature applied to
    (e_a, P_k, P_l), so only that component is built, as
    ``deformed_curvature_apply`` builds it: the inner derivative
    nabla_{P_k} P_l is shared by every a, and the deformed bracket of
    (e_a, P_k) by every l.
    """
    m = nabla.m
    P = fields.field_array(P, (2 * m, 2 * m), "P")
    basis = _coord_basis(m)
    inner, bracket = {}, {}

    def component(a, k, l):
        if (k, l) not in inner:
            inner[k, l] = vertical_derivative(nabla, P[:, k], P[:, l])
        if (a, k) not in bracket:
            bracket[a, k] = metric_bracket(pack, basis[a], P[:, k]) + wedge_product(
                nabla, pack, basis[a], P[:, k]
            )
        first = _vertical_derivative_component(nabla, basis[a], inner[k, l], a)
        second = _vertical_derivative_component(
            nabla, P[:, k], vertical_derivative(nabla, basis[a], P[:, l]), a
        )
        third = _vertical_derivative_component(nabla, bracket[a, k], P[:, l], a)
        return first - second - third

    Ric = fields.fzeros(2 * m, 2 * m)
    for q in range(2 * m):
        for s in range(q, 2 * m):
            Ric[q, s] = 0.5 * fsum(
                (1, component(a, k, l)) for a in range(2 * m) for k, l in ((q, s), (s, q))
            )
            Ric[s, q] = Ric[q, s]
    Gt = fields.fmatmul(fields.fmatmul(fields.ftranspose(P), pack.G), P)
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
    ``integrand_tape``."""
    p = ChartPoint(pts[:m], pts[m : 2 * m], pts[2 * m :])
    rv, dv, detv = (jet.value for jet in tape.run(p))
    vals = np.exp(-2.0 * dv) * rv * np.sqrt(np.abs(detv))
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand sample")
    return vals


def action(
    F: DoubleField,
    box=None,
    method: str = "mc",
    samples: int = 10000,
    seed: int = 0,
    level: int = 4,
    chunk: int = 1024,
) -> ActionResult:
    """Truncated action integral of a double field.

    Integrates exp(-2 density) * rho * |det sigma|^{1/2} over a chart
    box (default [-1, 1]^{3m}); the adapted coframe volume has unit
    Jacobian against the chart coordinates, so plain chart quadrature
    applies.  method "mc" gives a seeded Monte Carlo estimate with its
    standard error.  method "sparse" applies the Smolyak rule of
    ``sparse_grid`` at ``level`` over S, the set of chart variables the
    integrand reads (the union of its fields' ``support``), with the
    other coordinates at their intervals' midpoints, and scales the sum
    by the volume of the other intervals; for such an integrand this is
    the Smolyak rule over all 3m variables.  Its error estimate is the
    difference from the rule of level - 1, whose nodes are among the
    evaluated ones.  The integrand is evaluated once per node, in runs
    of at most ``chunk`` points.
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
            take = min(chunk, samples - done)
            pts = rng.uniform(0.0, 1.0, size=(n, take)) * (hi - lo) + lo
            vals[done : done + take] = _integrand_values(m, tape, pts)
            done += take
        est = volume * float(np.mean(vals))
        se = volume * float(np.std(vals, ddof=1)) / np.sqrt(samples)
        return ActionResult(est, se)

    if method == "sparse":
        if level < 1:  # the error estimate needs the rule of level - 1
            raise ValueError(f"the sparse rule needs level >= 1, got {level}")
        S = sorted(set().union(*(f.support for f, _ in tape.keys)))
        nodes, w = sparse_grid(len(S), level)
        coarse = sparse_grid(len(S), level - 1)[1]
        pts = np.repeat(0.5 * (hi + lo), nodes.shape[1], axis=1)
        pts[S] = 0.5 * (hi - lo)[S] * nodes + pts[S]
        vals = np.concatenate(
            [
                _integrand_values(m, tape, pts[:, start : start + chunk])
                for start in range(0, pts.shape[1], chunk)
            ]
        )
        scale = volume / 2 ** len(S)
        value = scale * float(w @ vals)
        error = abs(value - scale * float(coarse @ vals[: coarse.size]))
        return ActionResult(value, error)

    raise ValueError(f"unknown quadrature method {method!r}")


# -- aggregate verification ------------------------------------------------
def verify_double_field(
    F: DoubleField, seed: int = 0, n: int = 10, tol: float = 1e-8
) -> Report:
    """Identity suite for one double field: the compatibility and
    eigenbundle reports, sigma preservation along the ladder, metric
    and pairing preservation of the base and final connections, the
    Leibniz rule of the metric bracket, the vanishing and total
    antisymmetry of the final skew torsion with a dual-route oracle,
    Ricci symmetry, and basis invariance of the scalar curvature."""
    m = F.m
    p = sample_box(m, n, seed=seed)
    rep = Report("double field identities", tol=tol)

    Dbar, Dtilde, pack = F.connections
    vm = pack.vm
    _, crep = compatibility_check(vm, p)
    rep.extend(crep)
    _, _, erep = eigenbundles(vm, p)
    rep.extend(erep)

    S2, P2 = sigma_psi_from_vm(vm)
    rt = []
    for i, j in np.ndindex(m, m):
        rt.append(S2[i, j] - F.sigma[i, j])
        rt.append(P2[i, j] - F.psi[i, j])
    rep.add(
        "component pair round trip",
        fields.fvalue(rt, p),
        tol=1e-10,
    )

    rep.add("base connection preserves sigma", sigma_preservation_residual(F, pack.c0, p))
    cplus, cminus = dpm_connections(pack)
    rep.add(
        "torsion pair preserves sigma",
        sigma_preservation_residual(F, cplus, p),
        sigma_preservation_residual(F, cminus, p),
    )
    g2 = pairing_matrix(m)
    rep.add(
        "base connection preserves the fiber metric",
        metric_preservation_residual(pack.D0, pack.G, p),
    )
    rep.add(
        "base connection preserves the split pairing",
        metric_preservation_residual(pack.D0, g2, p),
    )
    rep.add(
        "final connection preserves the fiber metric",
        metric_preservation_residual(Dbar, pack.G, p),
    )
    rep.add(
        "final connection preserves the split pairing",
        metric_preservation_residual(Dbar, g2, p),
    )

    # Leibniz rule of the metric bracket on seeded data
    rng = np.random.default_rng(seed + 1)
    Y1 = fields.field_array(rng.normal(size=2 * m), (2 * m,), "Y1")
    Y2 = fields.field_array(rng.normal(size=2 * m), (2 * m,), "Y2")
    f = fields.field("exp(y1) + x1*z1", m)
    lhs = metric_bracket(pack, Y1, Y2 * f)
    Yf = fsum((1, Y1[v], f.partial(m + v)) for v in range(2 * m))
    gYY = fsum((1, Y1[a], pack.G[a, b], Y2[b]) for a, b in np.ndindex(2 * m, 2 * m))
    rhs = (
        metric_bracket(pack, Y1, Y2) * f
        + Y2 * Yf
        - vertical_gradient(pack, f) * (0.5 * gYY)
    )
    rep.add(
        "metric bracket satisfies the deformed Leibniz rule",
        fields.fvalue(lhs - rhs, p),
        tol=1e-9,
    )

    tau_bar = gualtieri_torsion(Dbar, pack)
    rep.add("final connection has vanishing skew torsion", fields.fvalue(tau_bar, p))
    tau_tilde = gualtieri_torsion(Dtilde, pack)
    tv = fields.fvalue(tau_tilde, p)
    rep.add(
        "skew torsion is totally antisymmetric",
        tv + np.swapaxes(tv, 0, 1),
        tv + np.swapaxes(tv, 1, 2),
    )
    tv2 = fields.fvalue(gualtieri_via_deformed_torsion(Dtilde, pack), p)
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
    y1 = fields.field("y1", m)
    for a, b in np.ndindex(2 * m, 2 * m):
        P[a, b] = P[a, b] + (0.1 * ((a + b) % 3)) * y1
    rho2 = scalar_curvature_in_basis(Dbar, pack, P)
    rep.add(
        "scalar curvature is basis independent",
        fields.fvalue([rho - rho2], p),
        tol=1e-9,
    )
    rep.meta["scalar_curvature_max"] = largest(rho.value(p))
    return rep
