import numpy as np
import pytest

from bigtangent import conns, fields, horizon, metrics, tensorcalc as tc
from bigtangent.points import sample_box
from bigtangent.tensorcalc import TensorField
from oracles import lagrangian_metric, sasaki_metric


def _curved_base(m=2):
    g = [["0"] * m for _ in range(m)]
    g[0][0] = "1"
    g[1][1] = "exp(2*x1)"
    return g


def test_sasaki_metric_flat_base_is_block_identity():
    m = 2
    gm = sasaki_metric([["1", "0"], ["0", "1"]], m)
    p = sample_box(m, 10, seed=0)
    vals = np.moveaxis(gm.tensor.value(p), -1, 0)
    assert np.max(np.abs(vals - np.eye(3 * m))) < 1e-12
    assert np.max(np.abs(fields.fvalue(gm.H.t, p))) < 1e-12
    assert np.max(np.abs(fields.fvalue(gm.H.tau, p))) < 1e-12


def test_sasaki_metric_vertical_restriction_blocks():
    m = 2
    gm = sasaki_metric(_curved_base(m), m)
    p = sample_box(m, 10, seed=1)
    vv = np.moveaxis(fields.fvalue(gm.tensor.comps[m:, m:], p), -1, 0)
    e = np.exp(2.0 * p.x[0])
    for k in range(p.npoints):
        want = np.diag([1.0, e[k], 1.0, 1.0 / e[k]])
        assert np.max(np.abs(vv[k] - want)) < 1e-10


def test_sasaki_metric_horizontal_bundle_matches_christoffels():
    m = 2
    gm = sasaki_metric(_curved_base(m), m)
    H2 = horizon.from_linear_connection(metrics.base_christoffels(_curved_base(m), m), m)
    p = sample_box(m, 10, seed=2)
    assert np.max(np.abs(fields.fvalue(gm.H.t, p) - fields.fvalue(H2.t, p))) < 1e-10
    assert np.max(np.abs(fields.fvalue(gm.H.tau, p) - fields.fvalue(H2.tau, p))) < 1e-10


def test_big_metric_rejects_degenerate_vertical_part():
    m = 1
    comps = fields.fzeros(3, 3)
    comps[0, 0] = fields.ONE
    comps[1, 2] = comps[2, 1] = fields.ONE
    comps[1, 1] = fields.ONE
    # z-z entry identically zero but the block is still invertible
    gm = metrics.BigMetric(TensorField(("down", "down"), comps, m), m, horizon.flat_bundle(m))
    assert metrics.check_lift(gm) is gm
    comps2 = fields.fzeros(3, 3)
    comps2[0, 0] = fields.ONE
    comps2[1, 1] = fields.ONE
    gm2 = metrics.BigMetric(TensorField(("down", "down"), comps2, m), m, horizon.flat_bundle(m))
    with pytest.raises(ValueError, match="^vertical restriction is singular"):
        metrics.check_lift(gm2)


def test_big_metric_rejects_asymmetry():
    m = 1
    comps = fields.fzeros(3, 3)
    comps[0, 0] = comps[1, 1] = comps[2, 2] = fields.ONE
    comps[0, 1] = fields.ONE
    gm = metrics.BigMetric(TensorField(("down", "down"), comps, m), m, horizon.flat_bundle(m))
    with pytest.raises(ValueError, match="^metric is not symmetric$"):
        metrics.check_lift(gm)


def test_canonical_metric_connection_flat():
    m = 2
    gm = sasaki_metric([["1", "0"], ["0", "1"]], m)
    rep = metrics.canonical_metric_connection(gm, sample_box(m, 10, seed=0))
    assert rep.passed, rep.to_json()
    p = sample_box(m, 5, seed=3)
    assert np.max(np.abs(fields.fvalue(gm.connection.gamma, p))) < 1e-12


def test_canonical_metric_connection_curved_sasaki():
    m = 2
    gm = sasaki_metric(_curved_base(m), m)
    rep = metrics.canonical_metric_connection(gm, sample_box(m, 20, seed=0))
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-8


def test_canonical_metric_connection_arbitrary_bundle():
    # the characterizing properties do not need the bundle to come from
    # a linear connection
    m = 1
    H = horizon.lift_from_tm([["y1^2"]], m)
    gm = metrics.sasaki_type_metric([["exp(2*x1)"]], H)
    rep = metrics.canonical_metric_connection(gm, sample_box(m, 15, seed=0))
    assert rep.passed, rep.to_json()


def test_lagrangian_metric_hand_blocks():
    m = 1
    gm = lagrangian_metric("(1/2)*exp(x1)*y1^2", m)
    p = sample_box(m, 10, seed=4)
    e = np.exp(p.x[0])
    vv = fields.fvalue(gm.tensor.comps[m:, m:], p)
    assert np.max(np.abs(vv[0, 0] - e)) < 1e-10
    assert np.max(np.abs(vv[1, 1] - 1.0 / e)) < 1e-10
    assert np.max(np.abs(vv[0, 1])) < 1e-10


def test_cartan_tensor_projectable_and_exponential():
    m = 2
    gm = sasaki_metric(_curved_base(m), m)
    p = sample_box(m, 50, seed=5)
    assert metrics.cartan_tensor(gm).max_abs(p) < 1e-12

    gm2 = lagrangian_metric("(1/2)*exp(x1)*y1^2", 1)
    assert metrics.cartan_tensor(gm2).max_abs(sample_box(1, 20, seed=6)) < 1e-12


def test_cartan_tensor_quartic_hand_value():
    m = 1
    gm = lagrangian_metric("(1/4)*y1^4 + (1/2)*y1^2", m)
    p = sample_box(m, 10, seed=7)
    C = metrics.cartan_tensor(gm)
    vals = C.value(p)
    assert np.max(np.abs(vals[0, 0, 0] - 6.0 * p.y[0])) < 1e-10


def test_cartan_tensor_total_symmetry_for_hessian_metrics():
    m = 2
    gm = lagrangian_metric(
        "(1/4)*(y1^4 + y2^4) + (1/2)*(y1^2 + y2^2)*exp(x1)", m
    )
    p = sample_box(m, 20, seed=8)
    v = metrics.cartan_tensor(gm).value(p)
    for perm in [(1, 0, 2, 3), (0, 2, 1, 3), (2, 1, 0, 3)]:
        assert np.max(np.abs(v - np.transpose(v, perm))) < 1e-10


def cartan_via_lie_derivative(gm: metrics.BigMetric) -> TensorField:
    """Oracle for the Cartan tensor: (L_{S X_i} g)(X_j, X_k) with g the
    horizontal metric extended by zero."""
    m = gm.m
    H = gm.H
    gad = horizon.to_adapted(gm.tensor, H)
    hcomps = fields.fzeros(3 * m, 3 * m)
    for i in range(m):
        for j in range(m):
            hcomps[i, j] = gad.comps[i, j]
    g_ext = horizon.to_natural(
        TensorField(("down", "down"), hcomps, m, frame="adapted"), H
    )
    E, _ = H.frame
    comps = fields.fzeros(3 * m, 3 * m, 3 * m)
    for i in range(m):
        # S X_i is the i-th y-direction for the standard nilpotent S
        lg = tc.lie_derivative(tc.basis_vector(m + i, m), g_ext)
        for j, k in np.ndindex(m, m):
            comps[i, j, k] = fields.fsum(
                (1, lg.comps[r, q], E[r, j], E[q, k]) for r, q in np.ndindex(3 * m, 3 * m)
            )
    return TensorField(("down", "down", "down"), comps, m, frame="adapted")


def test_cartan_tensor_matches_lie_derivative_oracle():
    m = 2
    gm = lagrangian_metric(
        "(1/4)*(y1^4 + y2^4) + (1/2)*(y1^2 + y2^2)*exp(x1)", m
    )
    p = sample_box(m, 10, seed=9)
    a = metrics.cartan_tensor(gm).value(p)
    b = cartan_via_lie_derivative(gm).value(p)
    assert np.max(np.abs(a - b)) < 1e-9


def test_curvature_identity_suite_flat():
    m = 2
    gm = sasaki_metric([["1", "0"], ["0", "1"]], m)
    rep = metrics.curvature_identity_suite(gm, sample_box(m, 10, seed=0))
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-12


def test_curvature_identity_suite_curved_sasaki():
    m = 2
    gm = sasaki_metric(_curved_base(m), m)
    rep = metrics.curvature_identity_suite(gm, sample_box(m, 20, seed=0))
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-7
    # projectable base metric: the Riemannian branch must be present
    rep["riemannian symmetry: pair swap"]


def test_curvature_identity_suite_quartic_cartan():
    m = 2
    gm = lagrangian_metric(
        "(1/4)*(y1^4 + y2^4) + (1/2)*(y1^2 + y2^2)*exp(x1)", m
    )
    rep = metrics.curvature_identity_suite(gm, sample_box(m, 20, seed=0))
    assert rep.meta["cartan_max"] > 0.1
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-7
