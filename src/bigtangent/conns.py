"""Linear connections on the 3m-chart adapted to a horizontal bundle.

A connection is stored through its coefficients in a frame: either the
natural coordinate frame, or the adapted frame (X_i, d/dy, d/dz) of a
horizontal bundle.  gamma[a, b, c] is the e_c-coefficient of
nabla_{e_a} e_b, so preservation of the horizontal/vertical blocks is a
sparsity pattern of gamma.  Torsion and curvature are computed in the
same frame with non-holonomy (structure function) corrections.

Provided constructions: the Levi-Civita connection of a chart metric,
the projected (Bott-type) connection of an ambient torsionless
connection, its variant preserving both vertical blocks, and the
canonical connection determined by the horizontal bundle alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields, horizon, tensorcalc as tc
from .fields import ScalarField
from .points import ChartPoint
from .report import Report, largest
from .tensorcalc import TensorField

def _block(a: int, m: int) -> int:
    """0 for horizontal, 1 for the y-block, 2 for the z-block."""
    return min(a // m, 2)


@dataclass
class Connection:
    """Frame coefficients gamma[a, b, c] of nabla_{e_a} e_b = gamma e_c.

    H is the horizontal bundle whose adapted frame the coefficients
    refer to; None means the natural coordinate frame.
    """

    gamma: np.ndarray
    m: int
    H: horizon.HorizontalBundle | None = None

    def __post_init__(self):
        n = 3 * self.m
        self.gamma = fields.field_array(self.gamma, (n, n, n), "gamma")

    @property
    def n(self) -> int:
        return 3 * self.m

    @property
    def frame(self) -> str:
        return "natural" if self.H is None else "adapted"

    def frame_derivative(self, f: ScalarField, a: int) -> ScalarField:
        """Directional derivative of a scalar along the frame field e_a."""
        return f.partial(a) if self.H is None else self.H.frame_derivative(f, a)

    def preservation_residuals(self, p: ChartPoint) -> dict:
        """Sampled cross-block coefficients gamma[a, b, c], b inside the
        block and c outside it, for the horizontal block "H" and the
        vertical block "V": zero where the connection preserves both, as
        the projected connections do."""
        gv = fields.fvalue(self.gamma, p)
        horizontal = np.arange(3 * self.m) < self.m
        return {
            "H": gv[:, horizontal][:, :, ~horizontal],
            "V": gv[:, ~horizontal][:, :, horizontal],
        }

    # Built once per connection: the horizontal and metric suites read
    # the torsion and curvature of the same connections.
    @cached_property
    def torsion(self) -> TensorField:
        """T(e_a, e_b) = nabla_a e_b - nabla_b e_a - [e_a, e_b], components
        comps[k, a, b] in the connection's frame."""
        n = self.n
        c = fields.fzeros(n, n, n) if self.H is None else self.H.structure_functions
        out = fields.fzeros(n, n, n)
        for a in range(n):
            for b in range(n):
                for k in range(n):
                    out[k, a, b] = self.gamma[a, b, k] - self.gamma[b, a, k] - c[a, b, k]
        return TensorField(("up", "down", "down"), out, self.m, frame=self.frame)

    @cached_property
    def curvature(self) -> TensorField:
        """R(e_a, e_b) e_c, components comps[e, a, b, c] in the connection's
        frame, with structure-function corrections for the non-holonomic
        adapted frame."""
        n = self.n
        g = self.gamma
        c = fields.fzeros(n, n, n) if self.H is None else self.H.structure_functions
        out = fields.fzeros(n, n, n, n)
        for a in range(n):
            for b in range(a + 1, n):
                for cc in range(n):
                    # (sign, d-factor, row of e-factors) of the d-sum, zero d-factors dropped
                    rows = [
                        (sign, f, row)
                        for d in range(n)
                        for sign, f, row in (
                            (1, g[b, cc, d], g[a, d]),
                            (-1, g[a, cc, d], g[b, d]),
                            (-1, c[a, b, d], g[d, cc]),
                        )
                        if not fields.is_zero(f)
                    ]
                    for e in range(n):
                        s = fields.fsum(
                            ((sign, f, row[e]) for sign, f, row in rows),
                            start=self.frame_derivative(g[b, cc, e], a)
                            - self.frame_derivative(g[a, cc, e], b),
                        )
                        out[e, a, b, cc] = s
                        out[e, b, a, cc] = -1.0 * s
        return TensorField(("up", "down", "down", "down"), out, self.m, frame=self.frame)


# -- constructors ---------------------------------------------------------
def christoffel_symbols(g: np.ndarray, variables, pairs=None) -> np.ndarray:
    """Levi-Civita symbols gamma[a, b, c] = 1/2 g^{cd} (d_a g_{db}
    + d_b g_{ad} - d_d g_{ab}) of a symmetric n x n matrix of fields,
    where d_a is the partial along chart variable ``variables[a]``.
    Only the symbols gamma[a, b, .] of the index pairs (a, b) in ``pairs``
    (default: every pair) are built; the others are left zero."""
    n = len(g)
    ginv = fields.finverse(g)
    gamma = fields.fzeros(n, n, n)
    for a, b in np.ndindex(n, n) if pairs is None else pairs:
        da, db = variables[a], variables[b]
        sym = [
            g[e, b].partial(da) + g[a, e].partial(db) - g[a, b].partial(variables[e])
            for e in range(n)
        ]
        gamma[a, b] = 0.5 * fields.fdot(ginv, sym)
    return gamma


def levi_civita(g: TensorField, pairs=None) -> Connection:
    """Levi-Civita connection of a symmetric (0,2) chart metric, in the
    natural frame; with ``pairs``, only the symbols
    ``christoffel_symbols`` builds for those index pairs."""
    if g.sig != ("down", "down") or g.frame != "natural":
        raise ValueError("levi_civita needs a natural-frame (0,2) tensor")
    return Connection(christoffel_symbols(g.comps, range(g.n), pairs), g.m, H=None)


def vranceanu_bott(
    D: Connection, H: horizon.HorizontalBundle, multi: bool = False, block=None
) -> Connection:
    """Project an ambient natural-frame connection onto the splitting.

    Horizontal pairs take pr_H of the ambient derivative, vertical pairs
    pr_V (or, with multi=True, the finer block projections with the
    bracket rule across the two vertical blocks); mixed pairs use the
    bracket rules nabla_X Y = pr_V [X, Y] and nabla_Y X = pr_H [Y, X].
    With ``block`` (0, 1 or 2), only the coefficients gamma[a, b, c] with
    b and c in that block are built.
    """
    if D.H is not None:
        raise ValueError("the ambient connection must be in the natural frame")
    m = H.m
    n = 3 * m
    E, C = H.frame
    gamma = fields.fzeros(n, n, n)
    span = range(n) if block is None else range(block * m, (block + 1) * m)
    for a in range(n):
        ba = _block(a, m)
        for b in span:
            bb = _block(b, m)
            if ba > 0 and bb > 0 and multi and ba != bb:
                continue  # pr_{V_b} of a vanishing coordinate bracket
            if (ba == 0) != (bb == 0):
                # mixed pair: bracket plus projection
                nat = tc.bracket_components(E[:, a], E[:, b])
                keep = range(m) if bb == 0 else range(m, n)
            else:
                # aligned pair: ambient derivative plus projection
                nat = [fields.fsum(_ambient_terms(D, E, a, b, k)) for k in range(n)]
                if bb == 0:
                    keep = range(m)
                elif multi:
                    keep = range(bb * m, (bb + 1) * m)
                else:
                    keep = range(m, n)
            cs = [c for c in keep if c in span]
            gamma[a, b, cs] = fields.fdot(C[cs], nat)
    # the finer vertical blocks are preserved along vertical directions
    # only; whether they survive horizontal directions depends on the
    # bundle, so preservation_residuals checks just the coarse H and V
    return Connection(gamma, m, H=H)


def _ambient_terms(D: Connection, E: np.ndarray, a: int, b: int, k: int):
    """fsum terms of the k-th natural component of D_{e_a} e_b for the
    frame fields e = columns of E."""
    n = len(E)
    Ekb = E[k, b]
    column = [j for j in range(n) if not fields.is_zero(E[j, b])]
    for l in range(n):
        Ela = E[l, a]
        if fields.is_zero(Ela):
            continue
        if l in Ekb.support:
            yield 1, Ela, Ekb.partial(l)
        for j in column:
            yield 1, Ela, E[j, b], D.gamma[l, j, k]


def canonical_bott(H: horizon.HorizontalBundle) -> Connection:
    """The connection determined by the horizontal bundle alone.

    Vertical directions are flat (the fibers carry an affine
    structure); along horizontal frame fields the coefficients are the
    fiber derivatives of the bundle coefficients, which realizes
    nabla_X X' as the horizontal image of the vertical part of
    [X, S X'] under the inverse of S restricted to H.
    """
    m = H.m
    n = 3 * m
    gamma = fields.fzeros(n, n, n)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                dy_t = H.t[i, k].partial(m + j)
                dz_t = H.t[i, k].partial(2 * m + j)
                dy_tau = H.tau[i, k].partial(m + j)
                dz_tau = H.tau[i, k].partial(2 * m + j)
                gamma[i, j, k] = dy_t
                gamma[i, m + j, m + k] = dy_t
                gamma[i, m + j, 2 * m + k] = dy_tau
                gamma[i, 2 * m + j, m + k] = dz_t
                gamma[i, 2 * m + j, 2 * m + k] = dz_tau
    return Connection(gamma, m, H=H)


# -- covariant differential -----------------------------------------------
def covariant_differential(conn: Connection, T: TensorField) -> TensorField:
    """nabla T with one extra leading down slot (the direction), all
    components in the connection's frame."""
    if T.frame != conn.frame:
        raise tc.FrameError("tensor components must be in the connection's frame")
    n = conn.n

    def terms(a, idx):
        for slot, var in enumerate(T.sig):
            for d in range(n):
                swapped = T.comps[idx[:slot] + (d,) + idx[slot + 1 :]]
                if var == "up":
                    yield 1, conn.gamma[a, d, idx[slot]], swapped
                else:
                    yield -1, conn.gamma[a, idx[slot], d], swapped

    out = fields.fzeros(*((n,) * (len(T.sig) + 1)))
    for a in range(n):
        for idx in np.ndindex(T.comps.shape):
            out[(a,) + idx] = fields.fsum(
                terms(a, idx), start=conn.frame_derivative(T.comps[idx], a)
            )
    return TensorField(("down",) + T.sig, out, conn.m, frame=conn.frame)


def projectability_residual(conn: Connection, p: ChartPoint) -> np.ndarray:
    """Sampled fiber derivatives of the horizontal-block coefficients;
    all zero iff nabla_X X' projects to the base for lifted fields."""
    m = conn.m
    devs = []
    for i, j, k in np.ndindex(m, m, m):
        for v in range(m, 3 * m):
            devs.append(conn.gamma[i, j, k].partial(v))
    return fields.fvalue(devs, p)


# -- verification suite ---------------------------------------------------
def _cyclic_sum(Rv: np.ndarray) -> np.ndarray:
    """Sum of R over cyclic permutations of its three argument axes."""
    p1 = np.transpose(Rv, (0, 2, 3, 1, 4))
    p2 = np.transpose(Rv, (0, 3, 1, 2, 4))
    return Rv + p1 + p2


def verify_section4(gm, p: ChartPoint, tol: float = 1e-8) -> Report:
    """Check the torsion and curvature identities of the projected and
    canonical connections of a big metric's bundle at the points p.

    ``gm`` is a ``metrics.BigMetric``: its bundle ``H``, its Levi-Civita
    connection ``levi_civita``, the torsionless ambient connection, and
    ``connection``, that connection projected onto H.  Projectable
    horizontal test fields are the lifts X_i of the constant base
    fields, which the frame already provides.
    """
    H = gm.H
    m = H.m
    dim = 3 * m
    rep = Report("horizontal bundle connection identities", tol=tol)

    D = gm.levi_civita
    rep.add("ambient connection is torsionless", D.torsion.value(p))

    nab = gm.connection
    nab_bar = vranceanu_bott(D, H, multi=True)
    can = canonical_bott(H)
    R_H = horizon.ehresmann_curvature(H)

    T = nab.torsion
    Tn = horizon.to_natural(T, H)
    rep.add("projected torsion is minus the curvature of H", (Tn + R_H).value(p))
    T_bar = nab_bar.torsion
    Tbv = T_bar.value(p)
    rep.add(
        "block-preserving variant has no mixed vertical torsion",
        Tbv[:, m : 2 * m, 2 * m :],
        Tbv[:, 2 * m :, m : 2 * m],
    )

    R = nab.curvature
    Rv = R.value(p)

    # curvature on two vertical directions and a horizontal argument
    rep.add("R(vertical, vertical) kills horizontal arguments", Rv[:, m:, m:, :m])

    # R(Y, X) X' equals the horizontal part of [Y, nabla_X X']
    E, C = H.frame
    res = []
    for i in range(m):
        for j in range(m):
            Wnat = fields.fdot(nab.gamma[i, j, :m], E[:, :m].T)
            for a in range(m, dim):
                rhs = fields.fzeros(dim)
                rhs[:m] = fields.fdot(C[:m], [w.partial(a) for w in Wnat])
                res.extend(R.comps[:, a, i, j] - rhs)
    rep.add("R(Y, X) X' is the horizontal part of [Y, nabla_X X']", fields.fvalue(res, p))

    # R(X, X') Y from the torsion and derivative of the H-curvature
    res = []
    for i in range(m):
        for j in range(i + 1, m):
            w = fields.fzeros(dim)
            for k in range(m, dim):
                w[k] = R_H.comps[k, i, j]
            for a in range(m, dim):
                for e in range(dim):
                    rhs = fields.fsum(
                        (
                            term
                            for b in range(dim)
                            for term in (
                                (1, T.comps[e, a, b], w[b]),
                                (-1, nab.gamma[a, b, e], w[b]),
                            )
                        ),
                        start=-1.0 * w[e].partial(a),
                    )
                    res.append(R.comps[e, i, j, a] - rhs)
    rep.add("R(X, X') Y = T(Y, R_H(X, X')) - nabla_Y R_H(X, X')", fields.fvalue(res, p))

    # finer vertical-block identities
    R_bar = nab_bar.curvature
    Rbv = R_bar.value(p)
    R_can = can.curvature
    Rcv = R_can.value(p)
    v1 = slice(m, 2 * m)
    v2 = slice(2 * m, None)
    # the same-block case R(Y_a, Y'_a) Y_a can pick up genuine leaf
    # curvature of the ambient connection, so only the cross-block
    # vanishing is asserted
    rep.add(
        "R(Y_a, Y'_a) kills the other vertical block",
        Rbv[:, v1, v1, 2 * m :],
        Rbv[:, v2, v2, m : 2 * m],
        Rcv[:, v1, v1, 2 * m :],
        Rcv[:, v2, v2, m : 2 * m],
    )

    # pair-swap symmetries of the projected curvature
    rep.add(
        "R(Y, X) X' is symmetric in the two horizontal slots",
        Rv[:, m:, :m, :m] - np.swapaxes(Rv[:, m:, :m, :m], 2, 3),
    )
    rep.add(
        "R(X, Y) Y' is symmetric in the two vertical slots",
        Rv[:, :m, m:, m:] - np.swapaxes(Rv[:, :m, m:, m:], 2, 3),
    )

    # R(X, X') Y as the derivative of the torsion along Y
    res = []
    for i in range(m):
        for j in range(i + 1, m):
            for a in range(m, dim):
                for e in range(dim):
                    rhs = fields.fsum(
                        ((1, nab.gamma[a, b, e], T.comps[b, i, j]) for b in range(dim)),
                        start=T.comps[e, i, j].partial(a),
                    )
                    res.append(R.comps[e, i, j, a] - rhs)
    rep.add("R(X, X') Y = nabla_Y T(X, X')", fields.fvalue(res, p))

    # the two cyclic (first Bianchi type) sums for both variants
    for label, values in (("projected", Rv), ("block-preserving", Rbv)):
        cyc = _cyclic_sum(values)
        rep.add(
            f"cyclic sum over horizontal triples vanishes ({label})",
            cyc[:, :m, :m, :m],
        )
        rep.add(f"cyclic sum over vertical triples vanishes ({label})", cyc[:, m:, m:, m:])

    # classical first Bianchi for the torsionless ambient connection
    RD = D.curvature
    rep.add("first Bianchi identity for the ambient connection", _cyclic_sum(RD.value(p)))

    # bracket rule along lifted fields
    res = []
    for i in range(m):
        for b in range(m, dim):
            br = fields.fzeros(dim)
            for k in range(m):
                br[m + k] = H.t[i, k].partial(b)
                br[2 * m + k] = H.tau[i, k].partial(b)
            res.extend(nab.gamma[i, b] - fields.fdot(C, br))
    rep.add("nabla_X Y = [X, Y] along lifted horizontal fields", fields.fvalue(res, p))

    # declared block preservation as coefficient sparsity
    pres = []
    for conn in (nab, nab_bar, can):
        pres += conn.preservation_residuals(p).values()
    rep.add("declared block preservation flags hold", *pres, tol=1e-10)

    gb = fields.fvalue(nab_bar.gamma, p)
    rep.add(
        "vertical directions preserve both vertical blocks (block-preserving variant)",
        gb[m:, m : 2 * m, :][:, :, ~_in_block(1, m)],
        gb[m:, 2 * m :, :][:, :, ~_in_block(2, m)],
        tol=1e-10,
    )

    proj = projectability_residual(can, p)
    rep.meta["canonical_projectability_residual"] = largest(proj)
    if rep.meta["canonical_projectability_residual"] <= 1e-10:
        rep.add("canonical connection projectability residual", proj, tol=1e-10)
        rep.add("projectable canonical connection: R(Y, X) X' = 0", Rcv[:, m:, :m, :m])
    return rep


def _in_block(block: int, m: int) -> np.ndarray:
    idx = np.arange(3 * m)
    return (idx >= block * m) & (idx < (block + 1) * m)
