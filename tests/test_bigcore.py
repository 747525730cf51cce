import numpy as np
import pytest

from bigtangent import bigcore, fields, parse_expr, tensorcalc as tc
from bigtangent.bigcore import forced_fiber_part, parse_components
from bigtangent.points import ChartPoint, sample_box
from bigtangent.tensorcalc import TensorField
from oracles import check_antisymmetric


def extended_lift_tm(xi, eta, m: int, generalized: bool = False) -> TensorField:
    """Lift of xi(x) dx + eta(x,y) dy on TM; the z-part is forced."""
    dep_xi = "xz" if generalized else "x"
    dep_eta = "xyz" if generalized else "xy"
    xi = parse_components(xi, m, dep_xi, "x-components")
    eta = parse_components(eta, m, dep_eta, "y-components")
    comps = fields.fzeros(3 * m)
    for i in range(m):
        comps[i] = xi[i]
        comps[m + i] = eta[i]
        comps[2 * m + i] = forced_fiber_part(eta, m + i)
    return tc.vector(comps, m)


def extended_lift_cotm(xi, zeta, m: int, generalized: bool = False) -> TensorField:
    """Lift of xi(x) dx + zeta(x,z) dz on T*M; the y-part is forced."""
    dep_xi = "xy" if generalized else "x"
    dep_zeta = "xyz" if generalized else "xz"
    xi = parse_components(xi, m, dep_xi, "x-components")
    zeta = parse_components(zeta, m, dep_zeta, "z-components")
    comps = fields.fzeros(3 * m)
    for i in range(m):
        comps[i] = xi[i]
        comps[m + i] = forced_fiber_part(zeta, 2 * m + i)
        comps[2 * m + i] = zeta[i]
    return tc.vector(comps, m)


def test_canonical_pack_m1_components():
    pk = bigcore.canonical_pack(1)
    p = ChartPoint([0.3], [0.5], [0.7])
    Pv = pk.P.value(p)
    assert Pv[1, 2, 0] == 1.0 and Pv[2, 1, 0] == -1.0
    assert np.count_nonzero(Pv) == 2
    Sv = pk.S.value(p)
    # S dx1 = dy1, S dy1 = 0
    e0 = np.zeros(3); e0[0] = 1
    np.testing.assert_allclose(Sv[:, :, 0] @ e0, [0, 1, 0])
    e1 = np.zeros(3); e1[1] = 1
    np.testing.assert_allclose(Sv[:, :, 0] @ e1, 0.0)


def test_ev_and_euler():
    pk = bigcore.canonical_pack(2)
    p = ChartPoint([0.0, 0.0], [1.0, 2.0], [3.0, 4.0])
    assert pk.ev.value(p)[0] == 11.0
    Ev = pk.E.value(p)
    np.testing.assert_allclose(Ev[:, 0], [0, 0, 1, 2, 3, 4])


def test_varpi_is_d_lambda():
    pk = bigcore.canonical_pack(2)
    p = sample_box(2, 5, seed=0)
    w = pk.varpi.value(p)
    for i in range(2):
        np.testing.assert_allclose(w[i, 4 + i], -1.0)
    assert check_antisymmetric(pk.varpi, p)


def test_dimension_range():
    with pytest.raises(ValueError):
        bigcore.canonical_pack(0)
    with pytest.raises(ValueError, match=rf"dimension must be 1\.\.{bigcore.MAX_M}"):
        bigcore.canonical_pack(bigcore.MAX_M + 1)


def test_vertical_lift_and_dependency_check():
    m = 1
    v = bigcore.vertical_lift(["1"], ["1"], m)
    p = sample_box(m, 4, seed=1)
    np.testing.assert_allclose(v.value(p), [[0] * 4, [1] * 4, [1] * 4])
    with pytest.raises(bigcore.DependencyError):
        bigcore.vertical_lift(["y1"], ["0"], m)
    # the fold 0*y1 -> 0 erases y1 from the graph, but the text reads it
    with pytest.raises(bigcore.DependencyError, match=r"found \['y'\]"):
        bigcore.vertical_lift(["0*y1"], ["0"], m)


def test_complete_lift_hand_case():
    # X = x1 d/dx1 -> x1 dx1 + y1 dy1 - z1 dz1
    m = 1
    p = sample_box(m, 6, seed=2)
    Xc = bigcore.complete_lift(["x1"], m)
    v = Xc.value(p)
    np.testing.assert_allclose(v[0], p.x[0])
    np.testing.assert_allclose(v[1], p.y[0])
    np.testing.assert_allclose(v[2], -p.z[0])
    # constant field lifts to itself
    c = bigcore.complete_lift(["1"], m).value(p)
    np.testing.assert_allclose(c, [[1] * 6, [0] * 6, [0] * 6])


def test_complete_lift_moment_identity():
    # X^c(l_Y) = l_[X,Y] at random points
    m = 2
    rng = np.random.default_rng(3)
    p = sample_box(m, 15, seed=4)
    X = [bigcore.rand_x_poly(m, rng) for _ in range(m)]
    Y = [bigcore.rand_x_poly(m, rng) for _ in range(m)]
    zero = [fields.ZERO] * m
    Xc = bigcore.complete_lift(X, m)
    lY = bigcore.generalized_moment(Y, zero, m)
    lhs = tc.directional(Xc, lY).value(p)
    rhs = bigcore.generalized_moment(bigcore.base_bracket(X, Y, m), zero, m).value(p)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_extended_lift_tm():
    m = 1
    p = sample_box(m, 5, seed=5)
    # xi = 0, eta = y1 -> y1 dy1 - z1 dz1
    v = extended_lift_tm(["0"], ["y1"], m).value(p)
    np.testing.assert_allclose(v[0], 0.0)
    np.testing.assert_allclose(v[1], p.y[0])
    np.testing.assert_allclose(v[2], -p.z[0])
    with pytest.raises(bigcore.DependencyError):
        extended_lift_tm(["z1"], ["y1"], m)
    # the generalized flag admits the wider dependencies
    extended_lift_tm(["z1"], ["y1*z1"], m, generalized=True)


def test_extended_lift_tm_of_complete_lift_is_complete_lift():
    m = 2
    rng = np.random.default_rng(6)
    p = sample_box(m, 10, seed=7)
    X = [bigcore.rand_x_poly(m, rng) for _ in range(m)]
    # the TM complete lift of X has eta^i = y^j d xi^i/dx^j
    eta = []
    for i in range(m):
        s = fields.ZERO
        for j in range(m):
            s = s + fields.Coord(m + j) * X[i].partial(j)
        eta.append(s)
    lifted = extended_lift_tm(X, eta, m)
    direct = bigcore.complete_lift(X, m)
    assert (lifted - direct).max_abs(p) < 1e-12


def test_extended_lift_cotm():
    m = 1
    p = sample_box(m, 5, seed=8)
    v = extended_lift_cotm(["0"], ["z1"], m).value(p)
    np.testing.assert_allclose(v[0], 0.0)
    np.testing.assert_allclose(v[1], -p.z[0])
    np.testing.assert_allclose(v[2], p.z[0])


def test_generalized_moment():
    m = 1
    p = sample_box(m, 5, seed=9)
    assert np.allclose(
        bigcore.generalized_moment(["1"], ["0"], m).value(p), p.z[0]
    )
    assert np.allclose(
        bigcore.generalized_moment(["0"], ["1"], m).value(p), p.y[0]
    )


def test_vertical_lift_pairing_identity():
    # (X^v, a^v)(l_(Y,b)) = a(Y) + b(X)
    m = 2
    rng = np.random.default_rng(10)
    p = sample_box(m, 10, seed=11)
    X = [bigcore.rand_x_poly(m, rng) for _ in range(m)]
    Y = [bigcore.rand_x_poly(m, rng) for _ in range(m)]
    a = [bigcore.rand_x_poly(m, rng) for _ in range(m)]
    b = [bigcore.rand_x_poly(m, rng) for _ in range(m)]
    v = bigcore.vertical_lift(X, a, m)
    lY = bigcore.generalized_moment(Y, b, m)
    lhs = tc.directional(v, lY).value(p)
    rhs = np.zeros_like(lhs)
    for i in range(m):
        rhs = rhs + (a[i] * Y[i] + b[i] * X[i]).value(p)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_vertical_brackets_vanish_and_s_projects():
    m = 1
    rng = np.random.default_rng(12)
    p = sample_box(m, 8, seed=13)
    X = [bigcore.rand_x_poly(m, rng)]
    a = [bigcore.rand_x_poly(m, rng)]
    Y = [bigcore.rand_x_poly(m, rng)]
    b = [bigcore.rand_x_poly(m, rng)]
    v1 = bigcore.vertical_lift(X, a, m)
    v2 = bigcore.vertical_lift(Y, b, m)
    assert tc.lie_bracket(v1, v2).max_abs(p) < 1e-12
    # S Z = (p_* Z)^v for a random chart field Z
    pk = bigcore.canonical_pack(m)
    n = 3 * m
    Z = tc.vector([parse_expr("x1*z1", m), parse_expr("y1", m), fields.ONE], m)
    SZ = tc.apply_11(pk.S, Z)
    expect = fields.fzeros(n)
    expect[m] = Z.comps[0]
    assert (SZ - tc.vector(expect, m)).max_abs(p) < 1e-12


def test_pushforward_relations():
    # sharp_Q a = (q' a)^v + (q'' a)^v and (q'' a)^v = U(a)
    m = 2
    pk = bigcore.canonical_pack(m)
    p = sample_box(m, 10, seed=14)
    rng = np.random.default_rng(15)
    comps = [bigcore.rand_x_poly(m, rng) for _ in range(3 * m)]
    a = tc.one_form(comps, m)
    sq = tc.sharp_field(pk.Q, a)
    # q' a = gamma^i d/dx^i (dz-components), q'' a = beta_i dx^i
    lifted = fields.fzeros(3 * m)
    for i in range(m):
        lifted[m + i] = a.comps[2 * m + i]  # (q' a)^v hits dy
        lifted[2 * m + i] = a.comps[m + i]  # (q'' a)^v hits dz
    assert (sq - tc.vector(lifted, m)).max_abs(p) < 1e-12
    Ua = tc.sharp_field(pk.U, a)
    uv = fields.fzeros(3 * m)
    for i in range(m):
        uv[2 * m + i] = a.comps[m + i]
    assert (Ua - tc.vector(uv, m)).max_abs(p) < 1e-12


@pytest.mark.parametrize("m", [1, 2])
def test_verify_section2_passes(m):
    rep = bigcore.verify_section2(m, seed=0, n_samples=25)
    assert rep.passed, [e for e in rep.entries if not e["pass"]]
    assert rep.max_residual < 1e-9


def test_verify_section2_negative_control():
    rep = bigcore.verify_section2(1, seed=0, n_samples=10, perturb_S=1e-3)
    assert not rep["flat_varpi o S = 0"]["pass"]


def test_report_json_deterministic():
    a = bigcore.verify_section2(1, seed=5, n_samples=10).to_json()
    b = bigcore.verify_section2(1, seed=5, n_samples=10).to_json()
    assert a == b
