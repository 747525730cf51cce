import numpy as np
import pytest

from bigtangent import conns, fields, horizon, parse_expr, tensorcalc as tc
from bigtangent.bigcore import canonical_pack
from bigtangent.metrics import BigMetric
from bigtangent.points import ChartPoint, sample_box
from bigtangent.report import Report, largest
from bigtangent.tensorcalc import TensorField
from oracles import apply_11, horizontal_frame


def _diag_metric(entries, m):
    n = 3 * m
    comps = fields.fzeros(n, n)
    for i, e in enumerate(entries):
        comps[i, i] = parse_expr(e, m) if isinstance(e, str) else fields.as_field(e)
    return TensorField(("down", "down"), comps, m)


def _gamma_curved(m=2):
    # Christoffel symbols of the base metric diag(1, exp(2*x1))
    G = [[["0"] * m for _ in range(m)] for _ in range(m)]
    G[1][0][1] = "1"
    G[1][1][0] = "1"
    G[0][1][1] = "0 - exp(2*x1)"
    return G


def test_levi_civita_euclidean_is_flat():
    g = _diag_metric([1, 1, 1], 1)
    lc = conns.levi_civita(g)
    p = sample_box(1, 10, seed=0)
    assert np.max(np.abs(fields.fvalue(lc.gamma, p))) < 1e-12
    assert lc.torsion.max_abs(p) < 1e-12
    assert lc.curvature.max_abs(p) < 1e-12


def test_levi_civita_exponential_metric_hand_value():
    g = _diag_metric(["exp(2*x1)", 1, 1], 1)
    lc = conns.levi_civita(g)
    p = sample_box(1, 10, seed=1)
    gv = fields.fvalue(lc.gamma, p)
    assert np.max(np.abs(gv[0, 0, 0] - 1.0)) < 1e-10
    other = gv.copy()
    other[0, 0, 0] = 0.0
    assert np.max(np.abs(other)) < 1e-10


def test_levi_civita_exponential_metric_is_flat():
    # x-rescaling xt = exp(x1) turns this metric into the Euclidean one,
    # so the curvature must vanish identically
    g = _diag_metric(["exp(2*x1)", 1, 1], 1)
    lc = conns.levi_civita(g)
    p = sample_box(1, 20, seed=2)
    assert lc.curvature.max_abs(p) < 1e-10


def test_levi_civita_metric_compatibility_and_torsion():
    m = 1
    n = 3 * m
    comps = fields.fzeros(n, n)
    comps[0, 0] = parse_expr("exp(2*x1)", m)
    comps[1, 1] = parse_expr("2 + y1^2", m)
    comps[2, 2] = fields.ONE
    comps[0, 1] = comps[1, 0] = fields.as_field(0.3)
    g = TensorField(("down", "down"), comps, m)
    lc = conns.levi_civita(g)
    p = sample_box(m, 20, seed=3)
    assert conns.covariant_differential(lc, g).max_abs(p) < 1e-9
    assert lc.torsion.max_abs(p) < 1e-9


def test_levi_civita_hyperbolic_plane_curvature_component():
    # dx^2 + exp(2*x1) dy^2 on the first two chart directions:
    # R(d/dx, d/dy) d/dy = -exp(2*x1) d/dx
    g = _diag_metric([1, "exp(2*x1)", 1], 1)
    R = conns.levi_civita(g).curvature
    p = sample_box(1, 10, seed=4)
    want = np.exp(2.0 * p.x[0])
    got = R.comps[0, 0, 1, 1].value(p)
    assert np.max(np.abs(got + want)) < 1e-9


def test_covariant_differential_of_basis_vector():
    g = _diag_metric([1, "exp(2*x1)", 1], 1)
    lc = conns.levi_civita(g)
    v = tc.basis_vector(1, 1)
    dv = conns.covariant_differential(lc, v)
    p = sample_box(1, 5, seed=5)
    # components [a, e] must be the Christoffel column gamma[a, 1, e]
    assert np.max(np.abs(dv.value(p) - fields.fvalue(lc.gamma[:, 1, :], p))) < 1e-12


def test_vranceanu_bott_flat_everything():
    m = 2
    H = horizon.flat_bundle(m)
    D = conns.levi_civita(_diag_metric([1] * 6, m))
    vb = conns.vranceanu_bott(D, H)
    p = sample_box(m, 10, seed=6)
    assert np.max(np.abs(fields.fvalue(vb.gamma, p))) < 1e-12
    assert vb.torsion.max_abs(p) < 1e-12
    assert vb.curvature.max_abs(p) < 1e-12


def test_vranceanu_bott_torsion_is_minus_ehresmann():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(m), m)
    D = conns.levi_civita(_diag_metric([1] * 6, m))
    vb = conns.vranceanu_bott(D, H)
    p = sample_box(m, 20, seed=7)
    T = horizon.to_natural(vb.torsion, H)
    R_H = horizon.ehresmann_curvature(H)
    assert R_H.max_abs(p) > 0.1  # genuinely curved fixture
    assert (T + R_H).max_abs(p) < 1e-9


def test_vranceanu_bott_multi_kills_mixed_vertical_torsion():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(m), m)
    D = conns.levi_civita(_diag_metric([1, "exp(2*x1)", 1, 1, 1, 1], m))
    vb = conns.vranceanu_bott(D, H, multi=True)
    Tv = vb.torsion.value(sample_box(m, 10, seed=8))
    assert np.max(np.abs(Tv[:, m : 2 * m, 2 * m :])) < 1e-12
    assert np.max(np.abs(Tv[:, 2 * m :, m : 2 * m])) < 1e-12


def test_vranceanu_bott_variants_agree_off_vertical_blocks():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(m), m)
    # a z-block entry depending on y1 produces cross-vertical Christoffels
    D = conns.levi_civita(_diag_metric([1, "exp(2*x1)", 1, 1, "2 + y1^2", 1], m))
    a = conns.vranceanu_bott(D, H)
    b = conns.vranceanu_bott(D, H, multi=True)
    p = sample_box(m, 10, seed=9)
    av = fields.fvalue(a.gamma, p)
    bv = fields.fvalue(b.gamma, p)
    diff = np.abs(av - bv)
    diff[m:, m:, :] = 0.0  # the vertical-vertical rules may differ
    assert np.max(diff) < 1e-12
    assert np.max(np.abs(av[m:, m:, :] - bv[m:, m:, :])) > 1e-6


def test_canonical_bott_flat_and_gamma_bundle():
    m = 2
    p = sample_box(m, 10, seed=10)
    flat = conns.canonical_bott(horizon.flat_bundle(m))
    assert np.max(np.abs(fields.fvalue(flat.gamma, p))) < 1e-12

    H = horizon.from_linear_connection(_gamma_curved(m), m)
    can = conns.canonical_bott(H)
    assert largest(conns.projectability_residual(can, p)) < 1e-12
    # vertical directions are flat: all such coefficients vanish
    assert np.max(np.abs(fields.fvalue(can.gamma[m:, :, :], p))) < 1e-12
    Rv = can.curvature.value(p)
    assert np.max(np.abs(Rv[:, m:, m:, :])) < 1e-12


def canonical_rule_check(H: horizon.HorizontalBundle, p: ChartPoint) -> Report:
    """Verify the three defining derivative rules of canonical_bott on
    the adapted frame fields at the points p, each built from first
    principles."""
    m = H.m
    n = 3 * m
    conn = conns.canonical_bott(H)
    S = canonical_pack(m).S
    E, C = H.frame
    rep = Report("canonical connection derivative rules", tol=1e-9)

    # rule 1: nabla_X X' as S^{-1} of the V1 part of [X, S X']
    res = []
    Xs = horizontal_frame(H)
    for i in range(m):
        for j in range(m):
            SXj = apply_11(S, Xs[j])
            br = tc.lie_bracket(Xs[i], SXj)
            ad = np.tensordot(br.comps, C, axes=([0], [1]))
            for r in range(n):
                # S^{-1}|_H sends d/dy_k to X_k
                rhs = fields.fsum((1, ad[m + k], E[r, k]) for k in range(m))
                lhs = fields.fsum((1, conn.gamma[i, j, cix], E[r, cix]) for cix in range(n))
                res.append(lhs - rhs)
    rep.add("horizontal rule: nabla_X X' = S^{-1} pr_V1 [X, S X']", fields.fvalue(res, p))

    # rule 2: nabla along the y-block is S pr_H [Y1, S^{-1} Y1']
    res = []
    for i in range(m):
        for j in range(m):
            br = tc.lie_bracket(tc.basis_vector(m + i, m), Xs[j])
            ad = np.tensordot(br.comps, C, axes=([0], [1]))
            for k in range(m):  # S maps the horizontal part back into V1
                res.append(ad[k])
            for cix in range(n):
                res.append(conn.gamma[m + i, m + j, cix])
    rep.add("y-block rule: nabla_{Y1} Y1' = S pr_H [Y1, S^{-1} Y1']", fields.fvalue(res, p))

    # rule 3: nabla along the z-block via the transposed map into H*
    res = []
    for i in range(m):
        for j in range(m):
            # transpose of S pairs d/dz_j with the coframe form dy^j o S
            form = fields.fzeros(n)
            for r in range(n):
                form[r] = S.comps[m + j, r]
            lder = tc.lie_derivative(tc.basis_vector(2 * m + i, m), tc.one_form(form, m))
            # H*-part: coefficients on the dx's of the adapted coframe
            for k in range(m):
                res.append(fields.fsum((1, lder.comps[r], E[r, k]) for r in range(n)))
            for cix in range(n):
                res.append(conn.gamma[2 * m + i, 2 * m + j, cix])
    rep.add(
        "z-block rule: nabla_{Y2} Y2' from the H*-projected Lie derivative",
        fields.fvalue(res, p),
    )
    return rep


def test_canonical_bott_rule_check():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(m), m)
    rep = canonical_rule_check(H, sample_box(m, 10, seed=0))
    assert rep.passed, rep.to_json()


def test_canonical_bott_nonprojectable_case():
    # a quartic-type tangent bundle has fiber-dependent coefficients
    H = horizon.lift_from_tm([["y1^2"]], 1)
    can = conns.canonical_bott(H)
    p = sample_box(1, 10, seed=11)
    assert largest(conns.projectability_residual(can, p)) > 0.1
    assert largest(*can.preservation_residuals(p).values()) < 1e-12


def test_preservation_flags_flag_violations():
    H = horizon.lift_from_tm([["y1^2"]], 1)
    can = conns.canonical_bott(H)
    p = sample_box(1, 10, seed=12)
    # nabla_X moves the y-block into the z-block for this bundle
    gv = fields.fvalue(can.gamma, p)
    assert largest(gv[:, 1:2][:, :, [0, 2]]) > 0.1


def test_torsion_curvature_antisymmetry():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(m), m)
    D = conns.levi_civita(_diag_metric([1, "exp(2*x1)", 1, 1, 1, 1], m))
    vb = conns.vranceanu_bott(D, H)
    p = sample_box(m, 5, seed=13)
    Tv = vb.torsion.value(p)
    Rv = vb.curvature.value(p)
    assert np.max(np.abs(Tv + np.swapaxes(Tv, 1, 2))) < 1e-12
    assert np.max(np.abs(Rv + np.swapaxes(Rv, 1, 2))) < 1e-12


def test_verify_section4_flat():
    m = 2
    gm = BigMetric(_diag_metric([1] * 6, m), m, horizon.flat_bundle(m))
    rep = conns.verify_section4(gm, sample_box(m, 10, seed=0))
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-12


def test_verify_section4_curved_gamma_bundle():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(m), m)
    g = _diag_metric([1, "exp(2*x1)", 1, "2 + y1^2", 1, 1], m)
    rep = conns.verify_section4(BigMetric(g, m, H), sample_box(m, 20, seed=1))
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-8
    # the projectable branch must have been exercised
    rep["projectable canonical connection: R(Y, X) X' = 0"]


def test_verify_section4_nonprojectable_bundle_skips_corollary():
    H = horizon.lift_from_tm([["y1^2"]], 1)
    g = _diag_metric([1, 1, 1], 1)
    rep = conns.verify_section4(BigMetric(g, 1, H), sample_box(1, 10, seed=2))
    with pytest.raises(KeyError):
        rep["projectable canonical connection: R(Y, X) X' = 0"]
    assert rep.meta["canonical_projectability_residual"] > 0.1
    assert rep.passed, rep.to_json()
