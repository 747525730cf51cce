"""Chart metrics with a nondegenerate vertical restriction.

A metric on the 3m-chart whose restriction to the vertical coordinate
blocks is invertible singles out a horizontal bundle: the orthogonal
complement of the fibers.  The module builds the classical lifted
metrics over a given bundle (coframe form, Lagrangian form), for which
that bundle is the orthogonal complement, constructs the canonical
metric connection by projecting the Levi-Civita connection onto its
blocks, and verifies its characterizing properties together with the
covariant curvature identities governed by the fiber derivative of the
horizontal metric (the Cartan tensor).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import conns, fields, horizon
from .bigcore import check_matrix, parse_grid, validation_values
from .points import ChartPoint
from .report import Report, largest
from .tensorcalc import TensorField


@dataclass
class BigMetric:
    """Symmetric natural-frame (0,2) chart tensor plus the horizontal
    bundle H its canonical connection projects onto."""

    tensor: TensorField
    m: int
    H: horizon.HorizontalBundle

    # Built once per metric, so the horizontal and both metric checks
    # share one Levi-Civita connection and one projection of it.
    @cached_property
    def levi_civita(self) -> conns.Connection:
        """The Levi-Civita connection of the metric, in the natural frame."""
        return conns.levi_civita(self.tensor)

    @cached_property
    def connection(self) -> conns.Connection:
        """The canonical metric connection: the Levi-Civita connection
        of the metric, projected onto the blocks of H."""
        return conns.vranceanu_bott(self.levi_civita, self.H)

    @cached_property
    def adapted(self) -> TensorField:
        """The metric's components in the adapted frame of H."""
        return horizon.to_adapted(self.tensor, self.H)


# -- constructors ---------------------------------------------------------
def base_christoffels(g, m: int):
    """Christoffel symbols Gamma[i][j][k] = Gamma^i_{jk} of a base metric
    g_{ij}(x)."""
    gm = parse_grid(g, m, "x", "g")
    return conns.christoffel_symbols(gm, range(m)).transpose(2, 0, 1)


def block_lift(g: np.ndarray, H: horizon.HorizontalBundle) -> TensorField:
    """Natural components of g dx (.) dx + g theta (.) theta
    + g^{-1} kappa (.) kappa over the adapted coframe of H."""
    m = H.m
    ginv = fields.finverse(g)
    comps = fields.fzeros(3 * m, 3 * m)
    for i, j in np.ndindex(m, m):
        comps[i, j] = g[i, j]
        comps[m + i, m + j] = g[i, j]
        comps[2 * m + i, 2 * m + j] = ginv[i, j]
    return horizon.to_natural(TensorField(("down", "down"), comps, m, frame="adapted"), H)


def check_lift(gm: BigMetric) -> BigMetric:
    """``gm``, once it is finite and symmetric at the validation points and
    its vertical restriction invertible there: the loader's check of a
    lift, run under the section that gave the lifted data."""
    m = gm.m
    gv = check_matrix(validation_values(gm.tensor.comps, m), "metric", symmetry=1)
    # each row scaled to a largest entry of 1 (a zero row stays zero):
    # the vertical restriction diag(s*g, g^-1/s) of a lift of s*g then
    # passes or fails as that of g does
    vert = gv[:, m:, m:]
    scale = np.max(np.abs(vert), axis=2, keepdims=True)
    vert = vert / np.where(scale > 0, scale, np.inf)
    check_matrix(vert, "vertical restriction", invertible=True)
    return gm


def sasaki_type_metric(g, H: horizon.HorizontalBundle) -> BigMetric:
    """The block lift of g over H; g may depend on (x, y).  Builds only:
    the loader checks g (``[base_metric]``, the spray's Hessian, or g the
    identity) and then the lift (``check_lift``)."""
    return BigMetric(block_lift(parse_grid(g, H.m, "xy", "g"), H), H.m, H)


def lagrangian_metric(L, H: horizon.HorizontalBundle) -> BigMetric:
    """Coframe-form metric of the fiber Hessian of a regular Lagrangian,
    over H, the horizontal bundle of its spray."""
    return sasaki_type_metric(horizon.fiber_hessian(L, H.m), H)


# -- canonical metric connection ------------------------------------------
def canonical_metric_connection(gm: BigMetric, p: ChartPoint, tol: float = 1e-8) -> Report:
    """Report on the three characterizing properties, at the points p, of
    the metric's canonical connection ``gm.connection`` (its projected
    Levi-Civita connection): block preservation, parallel transport of
    the blockwise metric, and cross-block torsion values."""
    m = gm.m
    nab = gm.connection
    rep = Report("canonical metric connection properties", tol=tol)

    pres = nab.preservation_residuals(p)
    rep.add("horizontal and vertical bundles are preserved", *pres.values(), tol=1e-10)

    dg = conns.covariant_differential(nab, gm.adapted)
    dgv = dg.value(p)
    rep.add("metric is parallel on horizontal triples", dgv[:m, :m, :m])
    rep.add("metric is parallel on vertical triples", dgv[m:, m:, m:])

    Tv = nab.torsion.value(p)
    rep.add("torsion on horizontal pairs is vertical", Tv[:m, :m, :m])
    rep.add("torsion on vertical pairs is horizontal", Tv[m:, m:, m:])

    rep.add(
        "fiber restriction is the leafwise Levi-Civita connection",
        leafwise_levi_civita_residual(gm, nab, p),
    )
    return rep


def leafwise_levi_civita_residual(
    gm: BigMetric, nab: conns.Connection, p: ChartPoint
) -> np.ndarray:
    """Sampled differences between the vertical-block coefficients and
    the Levi-Civita symbols of the fiber metric, differentiating along
    fibers only."""
    m = gm.m
    leaf = conns.christoffel_symbols(gm.tensor.comps[m:, m:], range(m, 3 * m))
    return fields.fvalue(leaf - nab.gamma[m:, m:, m:], p)


# -- Cartan tensor and curvature identities -------------------------------
def cartan_tensor(gm: BigMetric) -> TensorField:
    """Fiber derivative of the horizontal metric: adapted components
    C[i, j, k] = d g(X_j, X_k) / d y^i, zero outside the horizontal
    block.  Vanishes iff the horizontal metric is projectable."""
    m = gm.m
    comps = fields.fzeros(3 * m, 3 * m, 3 * m)
    for i, j, k in np.ndindex(m, m, m):
        comps[i, j, k] = gm.adapted.comps[j, k].partial(m + i)
    return TensorField(("down", "down", "down"), comps, m, frame="adapted")


def curvature_identity_suite(gm: BigMetric, p: ChartPoint, tol: float = 1e-7) -> Report:
    """Covariant curvature identities of the canonical connection at
    the points p.

    The covariant tensor is R4(z1, z2, z3, z4) = g(R(z3, z4) z2, z1).
    Checks the displayed antisymmetry and cyclic identities, the two
    correction identities balancing horizontal symmetry defects against
    the Cartan tensor, and the fully Riemannian symmetries whenever the
    correction terms vanish.
    """
    m = gm.m
    rep = Report("covariant curvature identities", tol=tol)

    nab = gm.connection
    Rv = nab.curvature.value(p)  # [e, a, b, c, pt]
    Tv = nab.torsion.value(p)
    gv = gm.adapted.value(p)
    Cv = cartan_tensor(gm).value(p)

    # R4[a1, a2, a3, a4] = g[a1, e] R[e, a3, a4, a2]
    R4 = np.einsum("iep,ecdbp->ibcdp", gv, Rv)

    rep.add(
        "covariant curvature is antisymmetric in the direction pair",
        R4 + np.swapaxes(R4, 2, 3),
    )

    cyc = (
        R4
        + np.transpose(R4, (0, 3, 1, 2, 4))
        + np.transpose(R4, (0, 2, 3, 1, 4))
    )
    rep.add("cyclic sum over three horizontal arguments vanishes", cyc[:, :m, :m, :m])

    # horizontal defect identities against the Cartan correction
    Rh = R4[:m, :m, :m, :m]
    corr = np.einsum("kabp,kcdp->abcdp", Cv[:m, :m, :m], Tv[m : 2 * m, :m, :m])
    lhs1 = Rh + np.transpose(Rh, (1, 0, 2, 3, 4))
    rep.add("first-pair symmetry defect equals the Cartan correction", lhs1 + corr)
    lhs2 = Rh - np.transpose(Rh, (2, 3, 0, 1, 4))
    rhs2 = 0.5 * (np.transpose(corr, (2, 3, 0, 1, 4)) - corr)
    rep.add(
        "pair-swap defect equals half the antisymmetrized Cartan correction",
        lhs2 - rhs2,
    )

    c_max = largest(Cv)
    t_hh = largest(Tv[:, :m, :m])
    rep.meta["cartan_max"] = c_max
    rep.meta["horizontal_torsion_max"] = t_hh
    if c_max <= tol or t_hh <= tol:
        rep.add(
            "riemannian symmetry: antisymmetric argument pair",
            Rh + np.transpose(Rh, (1, 0, 2, 3, 4)),
        )
        rep.add("riemannian symmetry: pair swap", Rh - np.transpose(Rh, (2, 3, 0, 1, 4)))
        bianchi = (
            Rh
            + np.transpose(Rh, (0, 3, 1, 2, 4))
            + np.transpose(Rh, (0, 2, 3, 1, 4))
        )
        rep.add("riemannian symmetry: first Bianchi sum", bianchi)
    return rep
