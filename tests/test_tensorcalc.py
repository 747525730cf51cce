import numpy as np
import pytest

from bigtangent import fields, parse_expr, tensorcalc as tc
from bigtangent.points import ChartPoint, sample_box
from bigtangent.report import largest
from oracles import (
    apply_11,
    check_antisymmetric,
    nijenhuis_components,
    nijenhuis_via_brackets,
    pair_rows,
)


def flat_value(W: np.ndarray, v: np.ndarray, tol: float = tc.RANK_TOL) -> np.ndarray:
    """Minimal-norm preimage of v under the sharp map of W.

    Raises ValueError when v is not in the image (residual > 1e-8).
    """
    M = W.T
    alpha = np.linalg.pinv(M, rcond=tol) @ v
    resid = np.linalg.norm(M @ alpha - v)
    scale = max(1.0, np.linalg.norm(v))
    if resid > 1e-8 * scale:
        raise ValueError(f"value outside the image of sharp (residual {resid:.3e})")
    return alpha


def f(text, m):
    return parse_expr(text, m)


def rand_poly_vector(m, rng):
    """A vector field with random quadratic polynomial components."""
    n = 3 * m
    comps = []
    for _ in range(n):
        c = fields.as_field(float(rng.uniform(-1, 1)))
        for v in range(n):
            c = c + float(rng.uniform(-1, 1)) * fields.Coord(v)
        v1, v2 = rng.integers(0, n, size=2)
        c = c + float(rng.uniform(-1, 1)) * fields.Coord(int(v1)) * fields.Coord(int(v2))
        comps.append(c)
    return tc.vector(comps, m)


def test_lie_bracket_basics():
    m = 1
    p = sample_box(m, 5, seed=1)
    dx = tc.basis_vector(0, m)
    dy = tc.basis_vector(1, m)
    assert tc.lie_bracket(dx, dy).max_abs(p) == 0.0
    # [x1 dx, dx] = -dx
    X = tc.vector([f("x1", m), 0, 0], m)
    br = tc.lie_bracket(X, dx)
    v = br.value(p)
    np.testing.assert_allclose(v[0], -1.0, atol=1e-14)
    np.testing.assert_allclose(v[1:], 0.0, atol=1e-14)


def test_jacobi_identity():
    m = 1
    rng = np.random.default_rng(4)
    p = sample_box(m, 10, seed=8)
    X = rand_poly_vector(m, rng)
    Y = rand_poly_vector(m, rng)
    Z = rand_poly_vector(m, rng)
    s = tc.lie_bracket(X, tc.lie_bracket(Y, Z))
    s = s + tc.lie_bracket(Y, tc.lie_bracket(Z, X))
    s = s + tc.lie_bracket(Z, tc.lie_bracket(X, Y))
    assert s.max_abs(p) < 1e-9


def test_lie_derivative_scalar_is_directional():
    m = 2
    rng = np.random.default_rng(0)
    p = sample_box(m, 10, seed=5)
    X = rand_poly_vector(m, rng)
    fun = f("sin(x1*y2) + z1*x2", m)
    a = tc.directional(X, fun).value(p)
    T = tc.TensorField((), np.array(fun, dtype=object), m)
    b = tc.lie_derivative(X, T).value(p)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_lie_derivative_one_one():
    # (L_X S)(Y) = [X, SY] - S[X, Y] for random inputs
    m = 1
    rng = np.random.default_rng(12)
    p = sample_box(m, 8, seed=2)
    n = 3 * m
    A = tc.TensorField(
        ("up", "down"),
        [[rand_poly_vector(m, rng).comps[0] for _ in range(n)] for _ in range(n)],
        m,
    )
    X = rand_poly_vector(m, rng)
    Y = rand_poly_vector(m, rng)
    left = apply_11(tc.lie_derivative(X, A), Y)
    right = tc.lie_bracket(X, apply_11(A, Y)) - apply_11(A, tc.lie_bracket(X, Y))
    assert (left - right).max_abs(p) < 1e-9


def test_exterior_derivative_of_liouville_form():
    # d(z_i dx^i) evaluated on (dx_i, dz_i) slots gives -1
    m = 2
    p = sample_box(m, 4, seed=6)
    comps = fields.fzeros(3 * m)
    for i in range(m):
        comps[i] = fields.Coord(2 * m + i)  # z_i on the dx^i slot
    lam = tc.one_form(comps, m)
    w = tc.exterior_derivative(lam)
    v = w.value(p)
    for i in range(m):
        np.testing.assert_allclose(v[i, 2 * m + i], -1.0, atol=1e-14)
        np.testing.assert_allclose(v[2 * m + i, i], 1.0, atol=1e-14)
    assert check_antisymmetric(w, p)


def test_d_squared_zero():
    m = 1
    p = sample_box(m, 6, seed=3)
    w = tc.one_form([f("x1*y1", m), f("z1^2", m), f("sin(x1)", m)], m)
    dd = tc.exterior_derivative(tc.exterior_derivative(w))
    assert dd.max_abs(p) < 1e-12


def test_d_of_scalar_is_gradient():
    m = 1
    p = sample_box(m, 6, seed=13)
    fun = f("x1^2*z1", m)
    g = tc.differential(fun, m).value(p)
    np.testing.assert_allclose(g[0], 2 * p.x[0] * p.z[0], rtol=1e-13)
    np.testing.assert_allclose(g[1], 0.0, atol=1e-14)
    np.testing.assert_allclose(g[2], p.x[0] ** 2, rtol=1e-13)


def test_schouten_canonical_p_vanishes():
    m = 2
    p = sample_box(m, 10, seed=7)
    n = 3 * m
    comps = fields.fzeros(n, n)
    for i in range(m):
        comps[m + i, 2 * m + i] = fields.ONE
        comps[2 * m + i, m + i] = fields.as_field(-1.0)
    P = tc.TensorField(("up", "up"), comps, m)
    assert tc.schouten_bracket(P, P).max_abs(p) < 1e-14


def test_schouten_decomposable_involutive_is_zero():
    # P = y1 dx1 ^ dy1: decomposable with involutive span, hence Poisson
    m = 1
    p = sample_box(m, 5, seed=9)
    comps = fields.fzeros(3, 3)
    comps[0, 1] = fields.Coord(1)  # y1
    comps[1, 0] = -fields.Coord(1)
    P = tc.TensorField(("up", "up"), comps, m)
    assert tc.schouten_bracket(P, P).max_abs(p) < 1e-13


def test_schouten_nonzero_hand_case():
    # P = dx1 ^ (dy1 + x1 dz1): span{d/dx, d/dy + x d/dz} is not
    # involutive, so [P,P] != 0; check against a brute-force expansion
    # of the convention formula with hand-coded derivatives.
    m = 1
    p = sample_box(m, 5, seed=9)
    comps = fields.fzeros(3, 3)
    comps[0, 1] = fields.ONE
    comps[1, 0] = fields.as_field(-1.0)
    comps[0, 2] = fields.Coord(0)  # x1
    comps[2, 0] = -fields.Coord(0)
    P = tc.TensorField(("up", "up"), comps, m)
    v = tc.schouten_bracket(P, P).value(p)
    Pv = P.value(p)
    dP = np.zeros((3, 3, 3, p.npoints))
    dP[0, 0, 2] = 1.0  # d_x1 P^{02}
    dP[0, 2, 0] = -1.0
    expect = np.zeros((3, 3, 3, p.npoints))
    for i, j, k in np.ndindex(3, 3, 3):
        s = np.zeros(p.npoints)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for r in range(3):
                s = s + 2 * Pv[r, a] * dP[r, b, c]
        expect[i, j, k] = s
    np.testing.assert_allclose(v, expect, atol=1e-12)
    assert np.max(np.abs(v)) > 1.0


def test_schouten_bilinear():
    m = 1
    p = sample_box(m, 4, seed=10)
    comps = fields.fzeros(3, 3)
    comps[0, 1] = f("y1", m)
    comps[1, 0] = -fields.Coord(1)
    P = tc.TensorField(("up", "up"), comps, m)
    lhs = tc.schouten_bracket(P * 2.0, P * 3.0).value(p)
    rhs = 6.0 * tc.schouten_bracket(P, P).value(p)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def canonical_S(m):
    n = 3 * m
    comps = fields.fzeros(n, n)
    for i in range(m):
        comps[m + i, i] = fields.ONE  # S dx_i = dy_i
    return tc.TensorField(("up", "down"), comps, m)


def lie_nijenhuis(S: tc.TensorField) -> np.ndarray:
    """The rows of N_S over pairs of coordinate fields, as the triple
    suite builds them."""
    return tc.nijenhuis(S.comps, tc.bracket_components)


def test_nijenhuis_canonical_s_zero():
    m = 2
    p = sample_box(m, 8, seed=11)
    S = canonical_S(m)
    assert largest(fields.fvalue(lie_nijenhuis(S), p)) < 1e-14


def test_nijenhuis_identity_zero():
    m = 1
    p = sample_box(m, 5, seed=12)
    n = 3 * m
    comps = fields.fzeros(n, n)
    for i in range(n):
        comps[i, i] = fields.ONE
    I = tc.TensorField(("up", "down"), comps, m)
    assert largest(fields.fvalue(lie_nijenhuis(I), p)) < 1e-14


def test_nijenhuis_matches_bracket_oracle():
    m = 1
    p = sample_box(m, 6, seed=14)
    comps = fields.fzeros(3, 3)
    comps[1, 0] = fields.ONE  # dx1 (x) dy1
    comps[2, 0] = f("y1", m)  # y1 dx1 (x) dz1
    S = tc.TensorField(("up", "down"), comps, m)
    got = fields.fvalue(lie_nijenhuis(S), p)
    for oracle in (nijenhuis_components(S), nijenhuis_via_brackets(S)):
        assert largest(got - fields.fvalue(pair_rows(oracle), p)) < 1e-12
        # antisymmetric in the two down slots, so the pairs A < B hold it all
        v = oracle.value(p)
        np.testing.assert_allclose(v, -np.transpose(v, (0, 2, 1, 3)), atol=1e-12)


def stacked(comps) -> np.ndarray:
    """A section of TM + T*M as the 2n-vector (X, a) of its component fields."""
    return fields.field_array(comps, (len(comps),), "section")


def test_courant_bracket_cases():
    m = 1
    n = 3 * m
    p = sample_box(m, 6, seed=15)
    A = stacked([1, 0, 0, 0, 0, 0])  # (d/dx1, 0)
    B = stacked([0, 1, 0, 0, 0, 0])  # (d/dy1, 0)
    out = fields.fvalue(tc.courant_bracket(A, B), p)
    assert largest(out[:n]) == 0.0 and largest(out[n:]) == 0.0
    # [(dx1, 0), (0, x1 dx1)] = (0, 1/2 dx1)
    C = stacked([0, 0, 0, f("x1", m), 0, 0])
    out = fields.fvalue(tc.courant_bracket(A, C), p)
    assert largest(out[:n]) == 0.0
    v = out[n:]
    np.testing.assert_allclose(v[0], 0.5, atol=1e-14)
    np.testing.assert_allclose(v[1:], 0.0, atol=1e-14)


def test_courant_antisymmetric_and_reduces_to_lie():
    m = 1
    n = 3 * m
    rng = np.random.default_rng(21)
    p = sample_box(m, 8, seed=16)
    def rand_section():
        X = rand_poly_vector(m, rng).comps
        return np.concatenate([X, rand_poly_vector(m, rng).comps])
    A, B = rand_section(), rand_section()
    both = fields.fvalue(tc.courant_bracket(A, B) + tc.courant_bracket(B, A), p)
    assert largest(both[:n]) < 1e-10
    assert largest(both[n:]) < 1e-10
    # pairs (X, 0) reduce to the Lie bracket
    zf = fields.fzeros(n)
    red = tc.courant_bracket(np.concatenate([A[:n], zf]), np.concatenate([B[:n], zf]))
    lie = tc.lie_bracket(tc.vector(A[:n], m), tc.vector(B[:n], m))
    assert (tc.vector(red[:n], m) - lie).max_abs(p) < 1e-12
    assert largest(fields.fvalue(red[n:], p)) < 1e-12


def test_sharp_flat_numeric():
    rng = np.random.default_rng(2)
    # canonical P on m=1: matrix with P^{y z} = 1, P^{z y} = -1
    P = np.zeros((3, 3))
    P[1, 2], P[2, 1] = 1.0, -1.0
    lam = np.array([0.7, 0.0, 0.0])  # z-value on dx slot
    out = lam @ P  # (sharp_P a)^j = P^{ij} a_i
    ker, im = tc.kernel_image(P)
    np.testing.assert_allclose(out, 0.0, atol=1e-14)
    assert ker.shape[1] == 1 and im.shape[1] == 2
    # flat of a vector in the image, then sharp back
    v = np.array([0.0, 0.3, -0.4])
    alpha = flat_value(P, v)
    np.testing.assert_allclose(alpha @ P, v, atol=1e-12)
    with pytest.raises(ValueError):
        flat_value(P, np.array([1.0, 0.0, 0.0]))  # dx not in image
    assert tc.matrix_rank(P) == 2


def test_frame_mismatch_rejected():
    m = 1
    X = tc.vector([1, 0, 0], m, frame="adapted")
    Y = tc.basis_vector(0, m)
    with pytest.raises(tc.FrameError):
        tc.lie_bracket(X, Y)


def test_tensor_sum_and_scaling_are_the_elementwise_nodes():
    # the field graph interns its nodes, so each entry is the very node the
    # scalar operator builds on the two entries
    m = 1
    rng = np.random.default_rng(3)
    X, Y = rand_poly_vector(m, rng), rand_poly_vector(m, rng)
    A = tc.TensorField(("up", "down"), np.outer(X.comps, Y.comps), m)
    B = tc.TensorField(("up", "down"), np.outer(Y.comps, X.comps), m)
    s = f("exp(x1)*y1", m)
    for got, want in (
        ((A + B).comps, lambda idx: A.comps[idx] + B.comps[idx]),
        ((A * s).comps, lambda idx: A.comps[idx] * s),
        ((2.5 * A).comps, lambda idx: A.comps[idx] * fields.as_field(2.5)),
        ((A - B).comps, lambda idx: A.comps[idx] + B.comps[idx] * fields.as_field(-1.0)),
    ):
        for idx in np.ndindex(got.shape):
            assert got[idx] is want(idx)
    scalar = tc.TensorField((), np.array(s, dtype=object), m)
    assert (scalar + scalar).comps[()] is s + s
