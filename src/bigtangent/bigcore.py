"""Canonical structures on the 3m chart and the lift operations.

The chart carries constant-coefficient canonical tensors: the Liouville
form lam = z_i dx^i, its differential varpi = -dx^i ^ dz_i, the vertical
bivector P = dy_i ^ dz_i, the symmetric pairing Q = dy_i (.) dz_i, the
2-nilpotent S = dx^i (x) dy_i, U = (Q+P)/2, the evaluation function
ev = z_i y^i and the Euler field E = y^i d/dy^i + z_i d/dz_i.  Lifts take base data (components in
x only, or the declared extended dependencies) to vector fields on the
chart.  The pair structures S_P and S_varpi are matrices on stacked (X, a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprdsl, fields, tensorcalc as tc
from .exprdsl import DependencyError  # noqa: F401 (raised by parse_components)
from .fields import ScalarField, as_field
from .points import ChartPoint, sample_box
from .report import Report, largest
from .tensorcalc import TensorField


# Largest condition number a sampled matrix may have and still count as
# invertible.
COND_LIMIT = 1e8

MAX_M = 4  # the largest m a scene may have: every suite finishes in bounded time up to it


def sample_matrix(comps, p: ChartPoint) -> np.ndarray:
    """Values of an object matrix at the points ``p``, with shape
    (npoints, rows, cols)."""
    return np.moveaxis(fields.fvalue(comps, p), -1, 0)


def well_conditioned(values: np.ndarray) -> bool:
    """Whether every sampled matrix ``values[k]`` counts as invertible."""
    return bool(np.max(np.linalg.cond(values)) < COND_LIMIT)


def check_matrix(values, what: str, symmetry: int = 0, invertible: bool = False):
    """Raise ValueError naming ``what`` unless the sampled matrices
    ``values[k]`` are finite, symmetric (``symmetry`` 1) or antisymmetric
    (-1) to 1e-10 and, when ``invertible``, well conditioned with a finite
    inverse; return ``values``."""
    if not np.isfinite(values).all():  # first: a NaN residual passes any bound
        raise ValueError(f"{what} is not finite at a sample point")
    if symmetry and largest(values - symmetry * np.swapaxes(values, 1, 2)) > 1e-10:
        raise ValueError(f"{what} is not {'symmetric' if symmetry > 0 else 'antisymmetric'}")
    # a tiny matrix, such as [[1e-320]], is well conditioned, but its
    # inverse overflows in every object built from it
    if invertible and not (
        well_conditioned(values) and np.isfinite(np.linalg.inv(values)).all()
    ):
        raise ValueError(f"{what} is singular at a sample point")
    return values


def parse_components(
    comps, m: int, allowed: str, what: str, count: int | None = None
) -> list[ScalarField]:
    """Parse/convert a list of components, enforcing coordinate blocks.

    ``allowed`` is a string of permitted blocks, e.g. "x" or "xy".
    ScalarField inputs are passed through unchecked (the caller owns the
    dependency contract there).  ``count`` overrides the expected length
    (default m).
    """
    out = []
    for c in comps:
        if isinstance(c, ScalarField):
            out.append(c)
            continue
        if isinstance(c, (int, float)):
            out.append(as_field(c))
            continue
        out.append(exprdsl.parse_expr(str(c), m, allowed, what))
    expected = m if count is None else count
    if len(out) != expected:
        raise ValueError(f"{what} needs {expected} components")
    return out


def parse_grid(raw, m: int, allowed, what: str) -> np.ndarray:
    """Parse an m x m table of components into an object array, enforcing
    coordinate blocks as ``parse_components`` does."""
    arr = np.asarray(raw, dtype=object)
    if arr.shape != (m, m):
        raise ValueError(f"{what} must be an {m} x {m} table")
    flat = parse_components(arr.reshape(-1), m, allowed, what, count=m * m)
    return np.array(flat, dtype=object).reshape(m, m)


@dataclass
class CanonicalPack:
    m: int
    lam: TensorField
    varpi: TensorField
    P: TensorField
    Q: TensorField
    S: TensorField
    U: TensorField
    ev: ScalarField
    E: TensorField
    g_V: TensorField
    omega_V: TensorField


def canonical_pack(m: int) -> CanonicalPack:
    if not 1 <= m <= MAX_M:
        raise ValueError(f"dimension must be 1..{MAX_M}")
    n = 3 * m
    lam_c = fields.fzeros(n)
    P_c = fields.fzeros(n, n)
    Q_c = fields.fzeros(n, n)
    S_c = fields.fzeros(n, n)
    U_c = fields.fzeros(n, n)
    gV_c = fields.fzeros(n, n)
    wV_c = fields.fzeros(n, n)
    for i in range(m):
        yi, zi = m + i, 2 * m + i
        lam_c[i] = fields.Coord(zi)
        P_c[yi, zi] = fields.ONE
        P_c[zi, yi] = as_field(-1.0)
        Q_c[yi, zi] = fields.ONE
        Q_c[zi, yi] = fields.ONE
        S_c[yi, i] = fields.ONE
        U_c[yi, zi] = fields.ONE
        gV_c[yi, zi] = as_field(0.5)
        gV_c[zi, yi] = as_field(0.5)
        wV_c[zi, yi] = as_field(0.5)
        wV_c[yi, zi] = as_field(-0.5)
    lam = tc.one_form(lam_c, m)
    ev = fields.fsum((1, fields.Coord(2 * m + i), fields.Coord(m + i)) for i in range(m))
    E_c = fields.fzeros(n)
    for i in range(m):
        E_c[m + i] = fields.Coord(m + i)
        E_c[2 * m + i] = fields.Coord(2 * m + i)
    return CanonicalPack(
        m=m,
        lam=lam,
        varpi=tc.exterior_derivative(lam),
        P=TensorField(("up", "up"), P_c, m),
        Q=TensorField(("up", "up"), Q_c, m),
        S=TensorField(("up", "down"), S_c, m),
        U=TensorField(("up", "up"), U_c, m),
        ev=ev,
        E=tc.vector(E_c, m),
        g_V=TensorField(("down", "down"), gV_c, m),
        omega_V=TensorField(("down", "down"), wV_c, m),
    )


# -- lifts ----------------------------------------------------------------
def vertical_lift(X, alpha, m: int) -> TensorField:
    """(X^v, a^v) = xi^i dy_i + a_i dz_i for base data in x only."""
    xi = parse_components(X, m, "x", "vector components")
    al = parse_components(alpha, m, "x", "form components")
    comps = fields.fzeros(3 * m)
    for i in range(m):
        comps[m + i] = xi[i]
        comps[2 * m + i] = al[i]
    return tc.vector(comps, m)


def complete_lift(X, m: int) -> TensorField:
    """X^c = xi dx + y^j (d xi/dx^j) dy - z_j (d xi^j/dx) dz."""
    xi = parse_components(X, m, "x", "vector components")
    comps = fields.fzeros(3 * m)
    for i in range(m):
        comps[i] = xi[i]
        comps[m + i] = fields.fsum(
            (1, fields.Coord(m + j), xi[i].partial(j)) for j in range(m)
        )
        comps[2 * m + i] = fields.fsum(
            (-1, fields.Coord(2 * m + j), xi[j].partial(i)) for j in range(m)
        )
    return tc.vector(comps, m)


def forced_fiber_part(row, var: int) -> ScalarField:
    """-z_h d(row[h])/d(chart variable var), h < m = len(row): the fiber
    component that the given block of a lift, or of horizontal bundle
    coefficients, forces on the other block."""
    m = len(row)
    return fields.fsum((-1, fields.Coord(2 * m + h), row[h].partial(var)) for h in range(m))


def generalized_moment(X, alpha, m: int) -> ScalarField:
    """l = a_i y^i + z_i xi^i."""
    xi = parse_components(X, m, "x", "vector components")
    al = parse_components(alpha, m, "x", "form components")
    return fields.fsum(
        term
        for i in range(m)
        for term in ((1, al[i], fields.Coord(m + i)), (1, fields.Coord(2 * m + i), xi[i]))
    )


def base_bracket(X, Y, m: int) -> list[ScalarField]:
    """Bracket of base vector fields (components in x only)."""
    xi = parse_components(X, m, "x", "vector components")
    et = parse_components(Y, m, "x", "vector components")
    return list(tc.bracket_components(xi, et))


# -- pair endomorphisms of Prop 2.3 ---------------------------------------
def pair_endomorphisms(pack: CanonicalPack) -> tuple:
    """S_P (X, a) = (S X + sharp_P a, -tS a) and S_varpi (X, a) =
    (S X, flat_varpi X - tS a), with (tS a)_i = a_j S^j_i, as 6m x 6m
    object matrices on sections stacked as (X, a): [[S, P^T], [0, -S^T]]
    and [[S, 0], [varpi^T, -S^T]]."""
    S, zero = pack.S.comps, fields.fzeros(3 * pack.m, 3 * pack.m)
    minus_tS = S.T * -1.0
    return (
        np.block([[S, pack.P.comps.T], [zero, minus_tS]]),
        np.block([[S, zero], [pack.varpi.comps.T, minus_tS]]),
    )


# -- random base data helpers ---------------------------------------------
def rand_x_poly(m: int, rng) -> ScalarField:
    """A random quadratic polynomial in the base coordinates only."""
    f = as_field(float(rng.uniform(-1, 1)))

    def terms():  # draws the coefficients in the order they are summed
        for i in range(m):
            yield 1, float(rng.uniform(-1, 1)), fields.Coord(i)
            for j in range(i, m):
                yield 1, float(rng.uniform(-1, 1)), fields.Coord(i), fields.Coord(j)

    return fields.fsum(terms(), start=f)


# -- verification suite ---------------------------------------------------
def verify_section2(
    m: int,
    seed: int,
    n_samples: int,
    tol: float = 1e-9,
    perturb_S: float = 0.0,
) -> Report:
    """Check every canonical-structure identity at seeded random points.

    ``perturb_S`` adds eps * dx^1 (x) dz_1 to S as a negative control.
    """
    pack = canonical_pack(m)
    rep = Report(
        "canonical structures",
        tol=tol,
        meta={"m": m, "seed": seed, "n_samples": n_samples},
    )
    S = pack.S
    if perturb_S:
        comps = S.comps.copy()
        comps[2 * m, 0] = comps[2 * m, 0] + perturb_S
        S = TensorField(("up", "down"), comps, m)

    p = sample_box(m, n_samples, seed)
    # Euler identities need to stay off the zero section
    pe = sample_box(m, n_samples, seed + 1, min_vertical=0.1)

    Sv = S.value(p)
    Pv = pack.P.value(p)
    Qv = pack.Q.value(p)
    wv = pack.varpi.value(p)

    # Eq-level relations of the tensor triple
    rep.add("S.S = 0", np.einsum("ijp,jkp->ikp", Sv, Sv))
    # (S o sharp_P) a = S (sharp_P a); sharp_P as matrix P^T on covectors
    rep.add("S o sharp_P = 0", np.einsum("ijp,kjp->ikp", Sv, Pv))
    rep.add("flat_varpi o S = 0", np.einsum("jip,jkp->ikp", wv, Sv))

    # rank and subspace properties, per point
    rank_ok, sub_ok, prop2 = triple_axioms(Sv, Pv, Qv, 1e-9, np.random.default_rng(seed + 2))
    rank_ok &= all(tc.matrix_rank(wv[:, :, k]) == 2 * m for k in range(p.npoints))
    rep.add_bool("rank S = m, rank P = rank Q = rank varpi = 2m", rank_ok)
    rep.add_bool("ker S = im sharp_P = im sharp_Q", sub_ok)
    rep.add("sharp_P flat_Q = sharp_Q flat_P and sharp_Q flat_P S = -S", *prop2)

    # Remark list (Euler fields away from the zero section)
    rep.add("L_E lam = lam", (tc.lie_derivative(pack.E, pack.lam) - pack.lam).value(pe))
    rep.add(
        "L_E varpi = varpi",
        (tc.lie_derivative(pack.E, pack.varpi) - pack.varpi).value(pe),
    )
    rep.add("sharp_P lam = 0", tc.sharp_field(pack.P, pack.lam).value(p))
    dev = tc.differential(pack.ev, m)
    rep.add("sharp_Q d(ev) = E", (tc.sharp_field(pack.Q, dev) - pack.E).value(pe))
    rep.add("L_E P = -2P", (tc.lie_derivative(pack.E, pack.P) + pack.P * 2.0).value(pe))
    rep.add("L_E Q = -2Q", (tc.lie_derivative(pack.E, pack.Q) + pack.Q * 2.0).value(pe))

    # generalized 2-nilpotent pair structures
    for name, F in zip(("S_P", "S_varpi"), pair_endomorphisms(pack)):
        rep.add(f"{name}^2 = 0 on pairs", fields.fvalue(fields.fdot(F, F), p))
        rep.add(
            f"Courant-Nijenhuis of {name} on basis sections",
            fields.fvalue(tc.nijenhuis(F, tc.courant_bracket), p),
        )

    # complete/vertical lift identities on random base data
    rng = np.random.default_rng(seed + 3)
    X = [rand_x_poly(m, rng) for _ in range(m)]
    Y = [rand_x_poly(m, rng) for _ in range(m)]
    alpha = [rand_x_poly(m, rng) for _ in range(m)]
    f = rand_x_poly(m, rng)

    Xc = complete_lift(X, m)
    Yc = complete_lift(Y, m)
    zero = [fields.ZERO] * m
    Yv = vertical_lift(Y, zero, m)

    # pair-metric identity: (1/2)(p* a)(X^c) = (1/2)(a(X))^v
    lhs = fields.fsum((1, alpha[i], Xc.comps[i]) for i in range(m))
    rhs = fields.fsum((1, alpha[i], X[i]) for i in range(m))
    rep.add("g(X^c, a^v) = (1/2)(a(X))^v", 0.5 * lhs.value(p) - 0.5 * rhs.value(p))
    rep.add(
        "[X^c, Y^v] = [X,Y]^v",
        (tc.lie_bracket(Xc, Yv) - vertical_lift(base_bracket(X, Y, m), zero, m)).value(p),
    )
    rep.add(
        "[X^c, Y^c] = [X,Y]^c",
        (tc.lie_bracket(Xc, Yc) - complete_lift(base_bracket(X, Y, m), m)).value(p),
    )
    # (fX)^c = f^v X^c + l_df X^v - l_X (df)^v
    fX = [f * X[i] for i in range(m)]
    df = [f.partial(i) for i in range(m)]
    l_df = generalized_moment(zero, df, m)
    l_X = generalized_moment(X, zero, m)
    Xv = vertical_lift(X, zero, m)
    dfv = vertical_lift(zero, df, m)
    expect = Xc * f + Xv * l_df - dfv * l_X
    rep.add(
        "(fX)^c = f^v X^c + l_df X^v - l_X (df)^v",
        (complete_lift(fX, m) - expect).value(p),
    )
    return rep


def triple_axioms(Sv: np.ndarray, Pv: np.ndarray, Qv: np.ndarray, tol: float, rng):
    """Pointwise axioms of a triple (S, P, Q) sampled as (3m, 3m, npoints)
    arrays, with ``tol`` as the rank cutoff and pseudo-inverse rcond.

    Returns whether rank S = m and rank sharp_P = rank sharp_Q = 2m at
    every point, whether ker S = im sharp_P = im sharp_Q at every point,
    and the residuals of sharp_P flat_Q = sharp_Q flat_P on a vector
    v in im sharp_Q and of sharp_Q flat_P S = -S on a vector S w; v and
    then w are drawn from ``rng`` at each point.
    """
    n = Sv.shape[0]
    m = n // 3
    rank_ok = sub_ok = True
    residuals = []
    for k in range(Sv.shape[-1]):
        Sk, Pk, Qk = Sv[:, :, k], Pv[:, :, k], Qv[:, :, k]
        sharpP, sharpQ = Pk.T, Qk.T
        rank_ok &= tc.matrix_rank(Sk, tol) == m
        rank_ok &= tc.matrix_rank(sharpP, tol) == 2 * m
        rank_ok &= tc.matrix_rank(sharpQ, tol) == 2 * m
        kerS, _ = tc.kernel_image(Sk.T, tol)  # ker and im of Sk
        sub_ok &= tc.same_colspace(kerS, sharpP, tol)
        sub_ok &= tc.same_colspace(kerS, sharpQ, tol)
        flatP = np.linalg.pinv(sharpP, rcond=tol)
        v = sharpQ @ rng.standard_normal(n)
        lhs = (np.linalg.pinv(sharpQ, rcond=tol) @ v) @ Pk
        w = Sk @ rng.standard_normal(n)
        residuals += [lhs - (flatP @ v) @ Qk, (flatP @ w) @ Qk + w]
    return bool(rank_ok), bool(sub_ok), residuals

