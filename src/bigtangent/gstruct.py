"""Pointwise structure-group machinery for (S, P, Q) triples.

A triple of a 2-nilpotent (1,1) tensor S, an antisymmetric bivector P
and a symmetric 2-contravariant Q satisfying the canonical rank and
composition axioms is equivalent to a reduction of the frame bundle to
the block group Bt(3m): frames (a_i, b_i, c^i) with b_i = S a_i.  This
module checks the axioms at sample points, constructs such a frame
numerically and tests the integrability conditions.  Each check reads
the triple, and m, from a ``bigcore.CanonicalPack``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields, tensorcalc as tc
from .bigcore import CanonicalPack, triple_axioms
from .points import ChartPoint
from .report import Report


@dataclass
class AdaptedFrame:
    """Frame vectors (columns) grouped as (a_i, b_i, c^i) at one point."""

    a: np.ndarray  # (n, m)
    b: np.ndarray  # (n, m)
    c: np.ndarray  # (n, m)
    point: ChartPoint


# -- axiom check ----------------------------------------------------------
def triple_axiom_check(T: CanonicalPack, points: ChartPoint, tol: float = 1e-9) -> Report:
    """Rank and subspace axioms plus the composition identities, per point."""
    rep = Report("triple axioms", tol=tol, meta={"m": T.m})
    rank_ok, sub_ok, comp = triple_axioms(
        T.S.value(points), T.P.value(points), T.Q.value(points), tol, np.random.default_rng(0)
    )
    rep.add_bool("rank S = m and rank P = rank Q = 2m", rank_ok)
    rep.add_bool("ker S = im sharp_P = im sharp_Q", sub_ok)
    rep.add("sharp_P flat_Q = sharp_Q flat_P, sharp_Q flat_P S = -S", *comp)
    return rep


# -- adapted frame --------------------------------------------------------
def adapted_frame(
    T: CanonicalPack, p: ChartPoint, a_seed: np.ndarray | None = None
) -> AdaptedFrame:
    """Build a frame (a_i, b_i, c^i) at a one-point batch.

    a_i span the Euclidean-orthogonal complement of ker S (or the given
    ``a_seed`` columns), b_i = S a_i, and c^i is built from a dual basis
    of the vertical pairing metric projected onto the phi-eigenbundle
    complementary to im S, following the frame-existence recipe.
    """
    if p.npoints != 1:
        raise ValueError("adapted_frame works at a single point")
    m = T.m
    Sk = T.S.value(p)[:, :, 0]
    Pk = T.P.value(p)[:, :, 0]
    Qk = T.Q.value(p)[:, :, 0]
    if a_seed is None:
        # orthogonal complement of ker S = top-m right singular vectors
        _, s, Vt = np.linalg.svd(Sk)
        if tc.singular_rank(s) != m:
            raise ValueError("axioms violated: rank S != m at the point")
        a = Vt[:m].T
    else:
        a = np.asarray(a_seed, dtype=float)
    b = Sk @ a
    sharpP, sharpQ = Pk.T, Qk.T
    flatP = np.linalg.pinv(sharpP, rcond=tc.RANK_TOL)
    flatQ = np.linalg.pinv(sharpQ, rcond=tc.RANK_TOL)

    def g(Y1, Y2):
        return (flatQ @ Y1) @ Y2

    def phi(Y):
        return sharpQ @ (flatP @ Y)

    # dual vectors w^j in V with g(b_i, w^j) = delta; V = im sharp_Q
    _, V_im = tc.kernel_image(Qk)
    G = np.array([[g(b[:, i], V_im[:, r]) for r in range(2 * m)] for i in range(m)])
    W = V_im @ np.linalg.pinv(G, rcond=tc.RANK_TOL)  # (n, m), g(b_i, w^j) = delta
    # make the w's g-isotropic: subtract half the Gram matrix along b
    gram = np.array([[g(W[:, i], W[:, j]) for j in range(m)] for i in range(m)])
    ctil = W - 0.5 * b @ gram.T
    # eigenvalue of phi on im S determines the complementary projector
    eps = float(np.sum(phi(b[:, 0]) * b[:, 0]) / np.sum(b[:, 0] * b[:, 0]))
    eps = 1.0 if eps > 0 else -1.0
    c = 0.5 * (ctil - eps * np.apply_along_axis(phi, 0, ctil))
    return AdaptedFrame(a=a, b=b, c=c, point=p)


def frame_residuals(T: CanonicalPack, fr: AdaptedFrame) -> dict:
    """Residual arrays of the frame invariants at the frame's point."""
    p = fr.point
    m = T.m
    Sk = T.S.value(p)[:, :, 0]
    Pk = T.P.value(p)[:, :, 0]
    Qk = T.Q.value(p)[:, :, 0]
    res = {}
    res["b = S a"] = Sk @ fr.a - fr.b
    res["S b = 0"] = Sk @ fr.b
    res["S c = 0"] = Sk @ fr.c
    P_re = np.zeros_like(Pk)
    Q_re = np.zeros_like(Qk)
    for i in range(m):
        P_re += np.outer(fr.b[:, i], fr.c[:, i]) - np.outer(fr.c[:, i], fr.b[:, i])
        Q_re += np.outer(fr.b[:, i], fr.c[:, i]) + np.outer(fr.c[:, i], fr.b[:, i])
    res["P = b_i ^ c^i"] = P_re - Pk
    res["Q = b_i (.) c^i"] = Q_re - Qk
    return res


# -- integrability --------------------------------------------------------
def integrability_check(
    T: CanonicalPack,
    points: ChartPoint,
    test_functions=None,
    Delta=None,
    tol: float = 1e-9,
    seed: int = 0,
) -> Report:
    """The three tensor conditions of quasi-integrability, plus the
    distribution conditions for full integrability when Delta is given.
    """
    m = T.m
    n = 3 * m
    rep = Report("integrability", tol=tol, meta={"m": m})
    rep.add("N_S = 0", fields.fvalue(tc.nijenhuis(T.S.comps, tc.bracket_components), points))
    rep.add("[P,P] = 0", tc.schouten_bracket(T.P, T.P).value(points))
    if test_functions is None:
        # Defaults: the 3m coordinates plus random quadratics.  Quadratic
        # terms along im S are excluded: even in the model structure the
        # Hamiltonian flow of such functions shears S (for f = y1^2 the
        # field 2*y1*d/dz1 does not preserve S), so they are outside the
        # class for which the preservation condition can hold.
        rng = np.random.default_rng(seed)
        test_functions = [fields.Coord(i) for i in range(n)]
        for _ in range(5):
            f = fields.fsum((1, float(rng.uniform(-1, 1)), fields.Coord(i)) for i in range(n))
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, m)) if i >= m else int(rng.integers(0, n))
            f = f + float(rng.uniform(-1, 1)) * fields.Coord(i) * fields.Coord(j)
            test_functions.append(f)
    lie = []
    for f in test_functions:
        ham = tc.sharp_field(T.P, tc.differential(fields.as_field(f), m))
        lie.append(tc.lie_derivative(ham, T.S).value(points))
    rep.add("L_{sharp_P df} S = 0 on test functions", *lie)

    if Delta is not None:
        Pv = T.P.value(points)
        Qv = T.Q.value(points)
        Sv = T.S.value(points)
        Zv = np.stack([Z.value(points) for Z in Delta], axis=1)  # (n, m, pts)
        brackets = [
            tc.lie_bracket(Z1, Z2) for i, Z1 in enumerate(Delta) for Z2 in Delta[i + 1 :]
        ]
        Bv = (
            np.stack([B.value(points) for B in brackets], axis=1)
            if brackets
            else np.zeros((n, 0, points.npoints))
        )
        iso = []
        ok_invol = ok_split = True
        for k in range(points.npoints):
            Zk = Zv[:, :, k]
            for i in range(m):
                alphaP = np.linalg.pinv(Pv[:, :, k].T, rcond=tc.RANK_TOL) @ Zk[:, i]
                alphaQ = np.linalg.pinv(Qv[:, :, k].T, rcond=tc.RANK_TOL) @ Zk[:, i]
                for j in range(m):
                    iso += [alphaP @ Zk[:, j], alphaQ @ Zk[:, j]]
            stacked = np.hstack([Zk, Bv[:, :, k]])
            ok_invol &= tc.matrix_rank(stacked, 1e-8) == tc.matrix_rank(Zk, 1e-8)
            kerS, imS = tc.kernel_image(Sv[:, :, k].T)  # ker and im of S
            split = np.hstack([imS, Zk])
            ok_split &= tc.matrix_rank(split, 1e-8) == 2 * m
            ok_split &= tc.same_colspace(split, kerS, 1e-8)
        rep.add("Delta is P-Lagrangian and Q-isotropic", *iso)
        rep.add_bool("Delta involutive (no rank growth)", bool(ok_invol))
        rep.add_bool("ker S = im S (+) Delta", bool(ok_split))
    return rep

