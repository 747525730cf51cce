from dataclasses import replace

import numpy as np
import pytest

from bigtangent import bigcore, fields, gstruct, parse_expr, tensorcalc as tc
from bigtangent.bigcore import CanonicalPack
from bigtangent.points import ChartPoint, sample_box
from bigtangent.report import largest
from bigtangent.tensorcalc import TensorField
from oracles import nijenhuis_via_brackets


def _block_pattern(M, m, tol, zero_blocks):
    M = np.asarray(M, dtype=float)
    if M.shape != (3 * m, 3 * m):
        return False
    A = M[:m, :m]
    if abs(np.linalg.det(A)) < tol:
        return False
    scale = max(1.0, largest(M))
    for r, c in zero_blocks:
        if np.max(np.abs(M[r * m : (r + 1) * m, c * m : (c + 1) * m])) > tol * scale:
            return False
    if not np.allclose(M[m : 2 * m, m : 2 * m], A, atol=tol * scale):
        return False
    return np.allclose(M[2 * m :, 2 * m :], np.linalg.inv(A).T, atol=tol * scale)


def bt_pattern_check(M: np.ndarray, m: int, tol: float = 1e-9) -> bool:
    """True iff M has the Bt(3m) group block pattern.

    Blocks in m-sized groups: upper-left A invertible, middle block
    equal to A, lower-right the inverse transpose of A, zero blocks at
    (2,1), (2,3), (3,1), (3,2); blocks (1,2) and (1,3) are free.
    """
    return _block_pattern(M, m, tol, [(1, 0), (1, 2), (2, 0), (2, 1)])


def canonical_atlas_jacobian_check(
    J: np.ndarray, tol: float = 1e-9, integrable: bool = False
) -> bool:
    """True iff J has the block pattern of a coordinate-change Jacobian
    between charts of a canonical (quasi-integrable) atlas.

    Zero blocks at (2,1), (2,3), (3,1); middle block equals the
    invertible upper-left block and the lower-right block is its inverse
    transpose.  With ``integrable=True`` the (3,2) block must vanish too.
    """
    J = np.asarray(J, dtype=float)
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] % 3:
        return False
    zeros = [(1, 0), (1, 2), (2, 0)]
    if integrable:
        zeros.append((2, 1))
    return _block_pattern(J, J.shape[0] // 3, tol, zeros)


def push_forward_constant(T: CanonicalPack, G: np.ndarray) -> CanonicalPack:
    """Transform the triple by a constant invertible linear chart map G."""
    G = np.asarray(G, dtype=float)
    Ginv = np.linalg.inv(G)
    Sc = np.tensordot(np.tensordot(G, T.S.comps, axes=([1], [0])), Ginv, axes=([1], [0]))
    Pc = np.tensordot(np.tensordot(G, T.P.comps, axes=([1], [0])), G, axes=([1], [1]))
    Qc = np.tensordot(np.tensordot(G, T.Q.comps, axes=([1], [0])), G, axes=([1], [1]))
    return replace(
        T,
        S=TensorField(("up", "down"), Sc, T.m),
        P=TensorField(("up", "up"), Pc, T.m),
        Q=TensorField(("up", "up"), Qc, T.m),
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_triple_axiom_check_canonical(m):
    T = bigcore.canonical_pack(m)
    p = sample_box(m, 50, seed=m)
    rep = gstruct.triple_axiom_check(T, p)
    assert rep.passed, rep.to_json()


def test_triple_axiom_check_rank_failure():
    T = bigcore.canonical_pack(1)
    bad = replace(T, S=T.S * 0.0)
    rep = gstruct.triple_axiom_check(bad, sample_box(1, 5, seed=0))
    assert not rep["rank S = m and rank P = rank Q = 2m"]["pass"]


def test_triple_axiom_check_composition_failure():
    # doubling P keeps all ranks and subspaces but breaks the
    # compatibility of the two musical compositions
    T = bigcore.canonical_pack(1)
    bad = replace(T, P=T.P * 2.0)
    rep = gstruct.triple_axiom_check(bad, sample_box(1, 5, seed=1))
    assert rep["rank S = m and rank P = rank Q = 2m"]["pass"]
    assert not rep["sharp_P flat_Q = sharp_Q flat_P, sharp_Q flat_P S = -S"]["pass"]


def test_adapted_frame_canonical_spans():
    m = 2
    T = bigcore.canonical_pack(m)
    p = ChartPoint([0.1, 0.2], [0.3, 0.4], [0.5, 0.6])
    fr = gstruct.adapted_frame(T, p)
    # a spans the x-directions, b the y-directions, c the z-directions
    assert np.max(np.abs(fr.a[m:])) < 1e-12
    assert np.max(np.abs(fr.b[:m])) < 1e-12 and np.max(np.abs(fr.b[2 * m :])) < 1e-12
    assert np.max(np.abs(fr.c[:2 * m])) < 1e-12
    res = gstruct.frame_residuals(T, fr)
    assert largest(*res.values()) < 1e-8, res


@pytest.mark.parametrize("m", [1, 2, 3])
def test_adapted_frame_invariants_random_points(m):
    T = bigcore.canonical_pack(m)
    pts = sample_box(m, 10, seed=20 + m)
    for k in range(pts.npoints):
        p = ChartPoint(pts.x[:, k], pts.y[:, k], pts.z[:, k])
        fr = gstruct.adapted_frame(T, p)
        res = gstruct.frame_residuals(T, fr)
        assert largest(*res.values()) < 1e-8, res


def test_adapted_frame_on_pushed_forward_pack():
    m = 2
    rng = np.random.default_rng(7)
    T = bigcore.canonical_pack(m)
    for _ in range(5):
        G = rng.standard_normal((3 * m, 3 * m))
        G += 3 * m * np.eye(3 * m)  # keep it well conditioned
        T2 = push_forward_constant(T, G)
        rep = gstruct.triple_axiom_check(T2, sample_box(m, 5, seed=3))
        assert rep.passed, rep.to_json()
        p = ChartPoint([0.1, -0.2], [0.3, 0.4], [-0.5, 0.6])
        fr = gstruct.adapted_frame(T2, p)
        res = gstruct.frame_residuals(T2, fr)
        assert largest(*res.values()) < 1e-8, res


def test_change_of_frame_matrix_has_bt_pattern():
    m = 2
    rng = np.random.default_rng(11)
    T = bigcore.canonical_pack(m)
    p = ChartPoint([0.4, 0.1], [0.2, -0.3], [0.6, 0.5])
    fr1 = gstruct.adapted_frame(T, p)
    for _ in range(5):
        A = rng.standard_normal((m, m)) + 2 * np.eye(m)
        B = rng.standard_normal((m, m))
        C = rng.standard_normal((m, m))
        seed = fr1.a @ A + fr1.b @ B + fr1.c @ C
        fr2 = gstruct.adapted_frame(T, p, a_seed=seed)
        assert largest(*gstruct.frame_residuals(T, fr2).values()) < 1e-8
        M = np.linalg.solve(np.hstack([fr1.a, fr1.b, fr1.c]), np.hstack([fr2.a, fr2.b, fr2.c]))
        # frame vectors transform with the transposed group pattern
        assert bt_pattern_check(M.T, m, tol=1e-8)


@pytest.mark.parametrize("m", [1, 2])
def test_integrability_canonical_with_delta(m):
    T = bigcore.canonical_pack(m)
    p = sample_box(m, 50, seed=30 + m)
    Delta = [tc.basis_vector(2 * m + i, m) for i in range(m)]
    rep = gstruct.integrability_check(T, p, Delta=Delta)
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-9


def test_integrability_flags_nijenhuis():
    # S with a y1-dependent extra column is still 2-nilpotent but has
    # nonvanishing torsion: N(dx1, dx2) picks up d(y1)/dy1 = 1
    m = 2
    pk = bigcore.canonical_pack(m)
    comps = fields.fzeros(3 * m, 3 * m)
    comps[m, 0] = fields.ONE
    comps[m, 1] = fields.Coord(m)
    S = TensorField(("up", "down"), comps, m)
    T = replace(pk, S=S)
    p = sample_box(m, 10, seed=5)
    # cross-check against the bracket definition of the torsion
    assert nijenhuis_via_brackets(S).max_abs(p) > 0.5
    rep = gstruct.integrability_check(T, p)
    assert not rep["N_S = 0"]["pass"]


def test_x_dependent_s_deformation_has_flat_torsion():
    # an x1-coefficient on the extra column leaves the torsion zero:
    # no image direction differentiates it
    m = 2
    comps = fields.fzeros(3 * m, 3 * m)
    comps[m, 0] = fields.ONE
    comps[m, 1] = fields.Coord(0)
    S = TensorField(("up", "down"), comps, m)
    p = sample_box(m, 10, seed=5)
    assert tc.nijenhuis_tensor(S).max_abs(p) < 1e-12
    assert nijenhuis_via_brackets(S).max_abs(p) < 1e-12


def test_integrability_flags_lie_derivative():
    m = 1
    pk = bigcore.canonical_pack(m)
    comps = fields.fzeros(3, 3)
    f = fields.ONE + fields.Coord(1)  # 1 + y1
    comps[1, 2] = f
    comps[2, 1] = -1.0 * f
    P = TensorField(("up", "up"), comps, m)
    T = replace(pk, P=P)
    rep = gstruct.integrability_check(
        T, sample_box(m, 10, seed=6), test_functions=[parse_expr("x1*z1", m)]
    )
    assert rep["[P,P] = 0"]["pass"]
    assert not rep["L_{sharp_P df} S = 0 on test functions"]["pass"]


def test_jacobian_check_identity_and_scaling():
    assert canonical_atlas_jacobian_check(np.eye(3))
    J = np.diag([2.0, 2.0, 0.5])
    assert canonical_atlas_jacobian_check(J)


def test_jacobian_check_rejects_bad_blocks():
    J = np.eye(3)
    J[1, 0] = 0.3  # (2,1) block must vanish
    assert not canonical_atlas_jacobian_check(J)
    J = np.eye(3)
    J[2, 2] = 0.9  # lower-right must invert upper-left
    assert not canonical_atlas_jacobian_check(J)
    J = np.eye(3)
    J[1, 1] = 1.5  # middle must equal upper-left
    assert not canonical_atlas_jacobian_check(J)


def test_jacobian_check_integrable_flag():
    J = np.eye(3)
    J[2, 1] = 0.4  # quasi-integrable case allows this block
    assert canonical_atlas_jacobian_check(J)
    assert not canonical_atlas_jacobian_check(J, integrable=True)
    J[0, 1] = 0.7  # (1,2) stays free either way
    assert canonical_atlas_jacobian_check(J)


def test_jacobian_check_shape_guard():
    assert not canonical_atlas_jacobian_check(np.eye(4))
    assert not canonical_atlas_jacobian_check(np.zeros((3, 3)))
