import gc
import itertools
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from bigtangent import dfield, fields, horizon, metrics, scene
from bigtangent.bigcore import (
    parse_components,
    sample_matrix,
    validation_values,
    well_conditioned,
)
from bigtangent.jets import JetDomainError
from bigtangent.points import ChartPoint, sample_box
from bigtangent.report import largest
from oracles import sasaki_metric

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _curved_field(m=2, psi=False, H=None):
    sigma = [["1 + (1/2)*y1^2", "0"], ["0", "1"]]
    psi_tab = [["0", "x1*y2"], ["0 - x1*y2", "0"]] if psi else None
    return dfield.DoubleField(H or horizon.flat_bundle(m), sigma, psi_tab)


def test_vm_from_sigma_psi_identity():
    vm = dfield.vm_from_sigma_psi([["1"]], [["0"]], 1)
    p = sample_box(1, 5, seed=0)
    assert np.max(np.abs(fields.fvalue(vm.h, p) - 1.0)) < 1e-12
    assert np.max(np.abs(fields.fvalue(vm.k, p) - 1.0)) < 1e-12
    assert np.max(np.abs(fields.fvalue(vm.l, p))) < 1e-12


def test_vm_from_sigma_psi_matrix_oracle():
    m = 2
    vm = dfield.vm_from_sigma_psi(
        [["1", "0"], ["0", "2"]], [["0", "x1"], ["0 - x1", "0"]], m
    )
    p = sample_box(m, 10, seed=1)
    hv = np.moveaxis(fields.fvalue(vm.h, p), -1, 0)
    kv = np.moveaxis(fields.fvalue(vm.k, p), -1, 0)
    lv = np.moveaxis(fields.fvalue(vm.l, p), -1, 0)
    for idx in range(p.npoints):
        S = np.diag([1.0, 2.0])
        P = np.array([[0.0, p.x[0, idx]], [-p.x[0, idx], 0.0]])
        Sinv = np.linalg.inv(S)
        assert np.max(np.abs(kv[idx] - Sinv)) < 1e-10
        assert np.max(np.abs(lv[idx] + Sinv @ P)) < 1e-10
        assert np.max(np.abs(hv[idx] - (S - P @ Sinv @ P))) < 1e-10


def test_sigma_psi_round_trip():
    m = 2
    F = _curved_field(m, psi=True)
    S, P = dfield.sigma_psi_from_vm(F.vertical_metric())
    p = sample_box(m, 10, seed=2)
    ds = fields.fvalue(S - F.sigma, p)
    dp = fields.fvalue(P - F.psi, p)
    assert np.max(np.abs(ds)) < 1e-12
    assert np.max(np.abs(dp)) < 1e-12


def test_compatibility_flat_swap():
    vm = dfield.vm_from_sigma_psi([["1"]], [["0"]], 1)
    phi, rep = dfield.compatibility_check(vm, sample_box(1, 5, seed=0))
    assert rep.passed, rep.to_json()
    p = sample_box(1, 5, seed=3)
    pv = np.moveaxis(fields.fvalue(phi, p), -1, 0)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.max(np.abs(pv - swap)) < 1e-12


def test_compatibility_of_constructed_metrics():
    vm = _curved_field(2, psi=True).vertical_metric()
    _, rep = dfield.compatibility_check(vm, sample_box(2, 20, seed=0))
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-9


def test_compatibility_flags_incompatible_metric():
    one = fields.ONE
    bad = dfield.VerticalMetric([[one]], [[one]], [[one]], 1)
    assert not well_conditioned(validation_values(bad.matrix(), 1))
    _, rep = dfield.compatibility_check(bad, sample_box(1, 5, seed=0))
    assert not rep.passed
    # l^2 + k h = 2 for this metric, one away from the identity
    assert abs(rep["block condition: l^2 + k h = id"]["max_residual"] - 1.0) < 1e-12


def test_eigenbundles_flat_hand_value():
    vm = dfield.vm_from_sigma_psi([["1"]], [["0"]], 1)
    Ip, Im, rep = dfield.eigenbundles(vm, sample_box(1, 5, seed=0))
    assert rep.passed, rep.to_json()
    p = sample_box(1, 5, seed=4)
    assert np.max(np.abs(fields.fvalue(Ip, p)[:, 0] - np.array([[1.0], [1.0]]))) < 1e-12
    assert np.max(np.abs(fields.fvalue(Im, p)[:, 0] - np.array([[1.0], [-1.0]]))) < 1e-12


def test_eigenbundles_curved():
    vm = _curved_field(2, psi=True).vertical_metric()
    _, _, rep = dfield.eigenbundles(vm, sample_box(2, 20, seed=0))
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-9


def hessian_vm(K, m: int) -> dfield.VerticalMetric:
    """Fiber metric from the fiber Hessian of a chart function: the
    three blocks are the second partials on the (y,y), (z,z) and (y,z)
    coordinate pairs."""
    Kf = parse_components([K], m, {"x", "y", "z"}, "K", count=1)[0]
    h = fields.fzeros(m, m)
    k = fields.fzeros(m, m)
    l = fields.fzeros(m, m)
    for i, j in np.ndindex(m, m):
        h[i, j] = Kf.partial(m + i).partial(m + j)
        k[i, j] = Kf.partial(2 * m + i).partial(2 * m + j)
        # l maps the y-block to itself; row index from the z-slot
        l[i, j] = Kf.partial(m + j).partial(2 * m + i)
    return dfield.VerticalMetric(h, k, l, m)


def legendre_involution(vm: dfield.VerticalMetric, p: ChartPoint) -> ChartPoint:
    """(x, y, z) -> (x, k z, k^{-1} y) with k evaluated at the point."""
    if not vm.strongly_nondegenerate:
        raise ValueError("the z-block restriction is degenerate")
    kv = sample_matrix(vm.k, p)
    y = np.einsum("pij,jp->ip", kv, p.z)
    z = np.linalg.solve(kv, np.moveaxis(p.y, -1, 0)[..., None])[..., 0].T
    return ChartPoint(p.x, y, z)


def test_hessian_vm_hand_values():
    vm = hessian_vm("y1*z1", 1)
    assert not vm.strongly_nondegenerate
    assert well_conditioned(validation_values(vm.matrix(), 1))
    p = sample_box(1, 5, seed=5)
    assert np.max(np.abs(fields.fvalue(vm.h, p))) < 1e-12
    assert np.max(np.abs(fields.fvalue(vm.k, p))) < 1e-12
    assert np.max(np.abs(fields.fvalue(vm.l, p) - 1.0)) < 1e-12

    vm2 = hessian_vm("(1/2)*(y1^2 + z1^2) + y1*z1", 1)
    assert vm2.strongly_nondegenerate
    assert not well_conditioned(validation_values(vm2.matrix(), 1))
    for blk in (vm2.h, vm2.k, vm2.l):
        assert np.max(np.abs(fields.fvalue(blk, p) - 1.0)) < 1e-12


def test_legendre_involution_swaps_and_squares_to_identity():
    vm = dfield.vm_from_sigma_psi([["1"]], [["0"]], 1)
    p = sample_box(1, 10, seed=6)
    q = legendre_involution(vm, p)
    assert np.allclose(q.y, p.z) and np.allclose(q.z, p.y)
    qq = legendre_involution(vm, q)
    assert np.allclose(qq.y, p.y) and np.allclose(qq.z, p.z)


def test_legendre_involution_needs_invertible_k():
    vm = hessian_vm("y1*z1", 1)
    lame = dfield.VerticalMetric(vm.l, vm.h, vm.l, 1)  # k block is zero
    with pytest.raises(ValueError):
        legendre_involution(lame, sample_box(1, 3, seed=7))


def test_double_field_validation():
    H = horizon.flat_bundle(2)
    with pytest.raises(ValueError):
        dfield.DoubleField(H, [["1", "1"], ["0", "1"]])  # not symmetric
    with pytest.raises(ValueError):
        dfield.DoubleField(H, [["1", "1"], ["1", "1"]])  # singular
    with pytest.raises(ValueError):
        dfield.DoubleField(
            H, [["1", "0"], ["0", "1"]], [["0", "x1"], ["x1", "0"]]
        )  # psi not antisymmetric


def test_d0_connection_flat_is_flat():
    F = dfield.DoubleField(horizon.flat_bundle(2), [["1", "0"], ["0", "1"]])
    pack = dfield.d0_connection(F)
    p = sample_box(2, 5, seed=8)
    assert np.max(np.abs(fields.fvalue(pack.c0, p))) < 1e-12
    assert np.max(np.abs(fields.fvalue(pack.D0.gamma, p))) < 1e-12


def test_d0_connection_preserves_sigma():
    m = 2
    F = dfield.DoubleField(horizon.flat_bundle(m), [["exp(2*x1)", "0"], ["0", "1"]])
    pack = dfield.d0_connection(F)
    p = sample_box(m, 15, seed=9)
    assert largest(dfield.sigma_preservation_residual(F, pack.c0, p)) < 1e-9
    # y-independent sigma: nothing to differentiate along the leaves
    pv = fields.fvalue(pack.c0[m : 2 * m], p)
    assert np.max(np.abs(pv)) < 1e-12


def test_d0_connection_leafwise_levi_civita():
    m = 2
    F = _curved_field(m)
    pack = dfield.d0_connection(F)
    sinv = fields.finverse(F.sigma)
    res = []
    for i, j, k in np.ndindex(m, m, m):
        s = fields.ZERO
        for d in range(m):
            s = s + sinv[k, d] * (
                F.sigma[d, j].partial(m + i)
                + F.sigma[i, d].partial(m + j)
                - F.sigma[i, j].partial(m + d)
            )
        res.append(0.5 * s - pack.c0[m + i, i * 0 + j, k])
    p = sample_box(m, 10, seed=10)
    assert np.max(np.abs(fields.fvalue(np.array(res, dtype=object), p))) < 1e-9


def test_dpm_connections_need_leafwise_psi_variation():
    m = 2
    # psi constant along the leaves: the torsion pair collapses
    F = dfield.DoubleField(
        horizon.flat_bundle(m),
        [["1", "0"], ["0", "1"]],
        [["0", "x1"], ["0 - x1", "0"]],
    )
    pack = dfield.d0_connection(F)
    cp, cm = dfield.dpm_connections(pack)
    p = sample_box(m, 5, seed=11)
    assert np.max(np.abs(fields.fvalue(cp - pack.c0, p))) < 1e-12
    assert np.max(np.abs(fields.fvalue(cm - pack.c0, p))) < 1e-12


def test_dpm_connections_differ_on_leaf_directions_only():
    # the leafwise differential of psi is a 3-form along the fibers of
    # the tangent side, so the smallest dimension where the torsion
    # pair can split is m = 3
    m = 3
    F = dfield.DoubleField(
        horizon.flat_bundle(m),
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["0", "y3", "0"], ["0 - y3", "0", "0"], ["0", "0", "0"]],
    )
    pack = dfield.d0_connection(F)
    cp, cm = dfield.dpm_connections(pack)
    p = sample_box(m, 10, seed=12)
    dv = fields.fvalue(cp - pack.c0, p)
    assert np.max(np.abs(dv[:m])) < 1e-12
    assert np.max(np.abs(dv[2 * m :])) < 1e-12
    assert np.max(np.abs(dv[m : 2 * m])) > 1e-3
    # opposite signs and sigma-skew corrections
    assert np.max(np.abs(fields.fvalue(cp + cm - 2.0 * pack.c0, p))) < 1e-12
    assert largest(dfield.sigma_preservation_residual(F, cp, p)) < 1e-9
    assert largest(dfield.sigma_preservation_residual(F, cm, p)) < 1e-9


def test_metric_bracket_flat_constant_sections():
    F = dfield.DoubleField(horizon.flat_bundle(1), [["1"]])
    pack = dfield.d0_connection(F)
    Y1 = np.array([fields.as_field(1.0), fields.as_field(0.5)], dtype=object)
    Y2 = np.array([fields.as_field(-2.0), fields.as_field(1.0)], dtype=object)
    p = sample_box(1, 5, seed=13)
    assert np.max(np.abs(fields.fvalue(dfield.metric_bracket(pack, Y1, Y2), p))) < 1e-12


def test_metric_bracket_antisymmetry():
    F = _curved_field(2, psi=True)
    pack = dfield.d0_connection(F)
    rng = np.random.default_rng(14)
    y1 = fields.field("y1", 2)
    Y1 = np.array(
        [fields.as_field(v) + v * y1 for v in rng.normal(size=4)], dtype=object
    )
    Y2 = np.array([fields.as_field(v) for v in rng.normal(size=4)], dtype=object)
    s = dfield.metric_bracket(pack, Y1, Y2) + dfield.metric_bracket(pack, Y2, Y1)
    p = sample_box(2, 10, seed=15)
    assert np.max(np.abs(fields.fvalue(s, p))) < 1e-12


def test_gualtieri_torsion_of_base_connection_vanishes():
    F = _curved_field(2, psi=True)
    pack = dfield.d0_connection(F)
    p = sample_box(2, 5, seed=16)
    tau = dfield.gualtieri_torsion(pack.D0, pack)
    assert np.max(np.abs(fields.fvalue(tau, p))) < 1e-12


def test_field_adapted_connection_flat():
    F = dfield.DoubleField(horizon.flat_bundle(2), [["1", "0"], ["0", "1"]])
    Dbar, _, pack = dfield.field_adapted_connection(F)
    p = sample_box(2, 5, seed=17)
    assert np.max(np.abs(fields.fvalue(Dbar.gamma, p))) < 1e-12


def test_verify_double_field_sigma_curved():
    rep = dfield.verify_double_field(_curved_field(2), n=5)
    assert rep.passed, rep.to_json()
    assert rep.max_residual < 1e-8


def test_verified_field_is_freed_without_the_cycle_collector():
    # the field caches its ladder, whose pack must not point back at it
    F = dfield.DoubleField(horizon.flat_bundle(1), [["1 + y1^2"]], density="x1*z1")
    dfield.verify_double_field(F)
    ref = weakref.ref(F)
    gc.disable()
    try:
        del F
        assert ref() is None
    finally:
        gc.enable()


def test_verify_double_field_sigma_psi_curved():
    rep = dfield.verify_double_field(_curved_field(2, psi=True), n=5)
    assert rep.passed, rep.to_json()


def test_verify_double_field_curved_bundle():
    H = horizon.from_linear_connection(
        metrics.base_christoffels([["1", "0"], ["0", "exp(2*x1)"]], 2), 2
    )
    rep = dfield.verify_double_field(_curved_field(2, psi=True, H=H), n=5)
    assert rep.passed, rep.to_json()


def test_deformed_curvatures_flat():
    F = dfield.DoubleField(horizon.flat_bundle(1), [["1"]])
    Dbar, _, pack = dfield.field_adapted_connection(F)
    R, Ric, rho = dfield.deformed_curvatures(Dbar, pack)
    p = sample_box(1, 5, seed=18)
    assert np.max(np.abs(fields.fvalue(R, p))) < 1e-12
    assert np.max(np.abs(np.asarray(rho.value(p)))) < 1e-12


def test_deformed_scalar_curvature_is_nontrivial_somewhere():
    m = 2
    F = dfield.DoubleField(
        horizon.flat_bundle(m), [["1 + (1/2)*y2^2", "0"], ["0", "1"]]
    )
    Dbar, _, pack = dfield.field_adapted_connection(F)
    _, _, rho = dfield.deformed_curvatures(Dbar, pack)
    p = sample_box(m, 10, seed=19)
    assert np.max(np.abs(np.asarray(rho.value(p)))) > 0.1


def test_action_flat_gauss_is_zero():
    F = dfield.DoubleField(
        horizon.flat_bundle(2), [["1", "0"], ["0", "1"]], density="x1"
    )
    r = dfield.action(F, method="sparse", level=3)
    assert abs(r.value) < 1e-12


def test_action_constant_sigma_scales_nothing():
    F = dfield.DoubleField(horizon.flat_bundle(1), [["4"]])
    r = dfield.action(F, method="sparse", level=3)
    assert abs(r.value) < 1e-12


def test_action_mc_is_seeded_and_matches_gauss():
    m = 2
    F = dfield.DoubleField(
        horizon.flat_bundle(m), [["1 + (1/2)*y2^2", "0"], ["0", "1"]]
    )
    r1 = dfield.action(F, method="mc", samples=4000, seed=20)
    r1b = dfield.action(F, method="mc", samples=4000, seed=20)
    assert r1.value == r1b.value
    rg = dfield.action(F, method="sparse", level=4)
    assert abs(r1.value - rg.value) < 4.0 * r1.error + abs(rg.error)


@pytest.mark.parametrize(
    "d,counts", [(5, (241, 801)), (6, (389, 1457)), (9, (1177, 6001)), (12, (2649, 17265))]
)
def test_sparse_grid_point_counts_and_nesting(d, counts):
    (x3, w3), (x4, w4) = dfield.sparse_grid(d, 3), dfield.sparse_grid(d, 4)
    assert (x3.shape, x4.shape, w3.shape, w4.shape) == (
        (d, counts[0]), (d, counts[1]), (counts[0],), (counts[1],)
    )
    # the level-3 nodes are the first nodes of level 4, so the integrand
    # values at level 4 give both rules
    assert np.array_equal(x3, x4[:, : counts[0]])
    assert len({tuple(x) for x in x4.T}) == counts[1]
    assert np.all(np.abs(x4) <= 1.0)


@pytest.mark.parametrize("level", [3, 4])
def test_sparse_grid_is_exact_to_total_degree_2l_plus_1(level):
    # on a box symmetric about no axis, every monomial of total degree
    # <= 2 level + 1 integrates to rounding; some of degree 2 level + 2 do not
    box = np.array([(-1.3, 0.7), (0.2, 1.5), (-2.0, -0.5), (0.5, 0.9), (-0.4, 2.2)])
    lo, hi = box[:, :1], box[:, 1:]
    nodes, w = dfield.sparse_grid(len(box), level)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    w = w * np.prod(0.5 * (hi - lo))
    worst = {}
    for deg in range(2 * level + 3):
        for c in itertools.combinations_with_replacement(range(len(box)), deg):
            a = np.bincount(c, minlength=len(box))
            f = np.prod(x ** a[:, None], axis=0)
            exact = np.prod((hi[:, 0] ** (a + 1) - lo[:, 0] ** (a + 1)) / (a + 1))
            # rounding is relative to the sum of the terms' magnitudes
            err = abs(float(w @ f) - exact) / float(np.abs(w) @ np.abs(f))
            worst[deg] = max(worst.get(deg, 0.0), err)
    assert max(worst[deg] for deg in range(2 * level + 2)) < 1e-14
    assert worst[2 * level + 2] > 1e-5


def test_sparse_grid_over_the_variables_read_is_the_full_rule():
    # an integrand of x1, x2 only: the rule in 2 variables, times the
    # volume 2^2 of the others, is the rule in all 4
    def f(x):
        return np.exp(x[0]) * np.cos(3.0 * x[1])

    nodes, w = dfield.sparse_grid(4, 4)
    sub_nodes, sub_w = dfield.sparse_grid(2, 4)
    full = float(w @ f(nodes))
    rounding = 1e-13 * float(np.abs(w) @ np.abs(f(nodes)))
    assert abs(4.0 * float(sub_w @ f(sub_nodes)) - full) < rounding
    # and f is not integrated exactly, so the two rules are compared
    assert abs(full - 4.0 * (np.e - 1 / np.e) * 2 * np.sin(3.0) / 3.0) > 1e-9


def _full_grid_gauss(F, box, order, chunk=1024):
    """The tensor Gauss-Legendre rule of ``order`` with the integrand
    evaluated at every point of its full grid, and the difference from
    order - 1 as its error estimate: the oracle for the sparse rule."""
    tape = F.integrand_tape
    results = []
    for deg in (max(order - 1, 1), order):
        nodes, weights = [], []
        for lo, hi in box:
            xg, wg = np.polynomial.legendre.leggauss(deg)
            nodes.append(0.5 * (hi - lo) * xg + 0.5 * (hi + lo))
            weights.append(0.5 * (hi - lo) * wg)
        grids = np.meshgrid(*nodes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids])
        wgrid = np.meshgrid(*weights, indexing="ij")
        w = np.prod(np.stack([g.reshape(-1) for g in wgrid]), axis=0)
        total = 0.0
        for start in range(0, pts.shape[1], chunk):
            sl = slice(start, start + chunk)
            total += float(np.sum(w[sl] * dfield._integrand_values(F.m, tape, pts[:, sl])))
        results.append(total)
    return results[1], abs(results[1] - results[0])


def _integrand_reads(F):
    """S: the chart variables the integrand's fields read."""
    return set().union(*(f.support for f, _ in F.integrand_tape.keys))


_GAUSS_FIELDS = {
    "kitchen-sink": lambda: scene.load_scene(str(SCENES / "kitchen-sink.scene")).double_field,
    # the integrand reads all 3m = 6 variables
    "all variables": lambda: dfield.DoubleField(
        horizon.flat_bundle(2),
        [["2 + sin(y2)", "0"], ["0", "3/2 + cos(y1)"]],
        density="(1/5)*log(2 + x2) + (1/10)*x1*z1*z2",
    ),
    # constant sigma and density: one node, the box's center
    "empty support": lambda: dfield.DoubleField(
        horizon.flat_bundle(2), [["2", "1/2"], ["1/2", "1"]], density="1/4"
    ),
    "sin, cos, log": lambda: dfield.DoubleField(
        horizon.flat_bundle(2),
        [["2 + sin(y2)", "0"], ["0", "3/2 + cos(y1)"]],
        density="(1/5)*log(2 + x2)",
    ),
}


@pytest.mark.parametrize("name", list(_GAUSS_FIELDS))
def test_action_sparse_matches_the_gauss_oracle(name, monkeypatch):
    F = _GAUSS_FIELDS[name]()
    n = 3 * F.m
    box = ((-1.0, 1.0),) * n
    k = len(_integrand_reads(F))
    assert k == {"kitchen-sink": 5, "all variables": n, "empty support": 0, "sin, cos, log": 3}[name]
    widths = []
    values = dfield._integrand_values

    def counted(m, tape, pts):
        widths.append(pts.shape[1])
        return values(m, tape, pts)

    monkeypatch.setattr(dfield, "_integrand_values", counted)
    r = dfield.action(F, method="sparse")
    monkeypatch.setattr(dfield, "_integrand_values", values)
    # each node of the level-4 grid over the variables read, once
    assert sum(widths) == dfield.sparse_grid(k, 4)[0].shape[1]
    assert max(widths) <= 1024
    if name == "kitchen-sink":
        assert widths == [801]
    want = _full_grid_gauss(F, box, 4)
    # the two rules agree within both error estimates, up to rounding
    assert abs(r.value - want[0]) <= r.error + want[1] + 1e-12 * abs(want[0])
    if name in ("all variables", "sin, cos, log"):
        assert r.value != 0.0 and r.error > 0.0
    if name == "empty support":
        assert r.error == 0.0


@pytest.fixture(scope="module")
def all_variables_m3():
    """An m = 3 double field whose action integrand reads all 9 chart
    variables."""
    g = [["1", "0", "0"], ["0", "exp(2*x1)", "0"], ["0", "0", "1"]]
    H = horizon.from_linear_connection(metrics.base_christoffels(g, 3), 3)
    sigma = [["1 + y1^2/10", "0", "0"], ["0", "1 + z2^2/10", "0"], ["0", "0", "1 + y3^2/10"]]
    F = dfield.DoubleField(H, sigma, density="(x2^2 + x3^2 + z1^2 + z3^2 + y2^2)/10")
    assert _integrand_reads(F) == set(range(9))
    return F


def test_action_evaluates_the_integrand_at_6001_points_at_m3(all_variables_m3, monkeypatch):
    # 3^9 + 4^9 = 281,827 points for the tensor rule of orders 3 and 4
    widths = []
    values = dfield._integrand_values

    def counted(m, tape, pts):
        widths.append(pts.shape[1])
        return values(m, tape, pts)

    monkeypatch.setattr(dfield, "_integrand_values", counted)
    r = dfield.action(all_variables_m3, method="sparse")
    assert widths == [1024] * 5 + [881]
    assert np.isfinite([r.value, r.error]).all()


def test_action_sparse_weights_sum_to_the_volume_without_a_full_grid(all_variables_m3, monkeypatch):
    # 3m = 9 variables read, on a box symmetric about no axis
    F = all_variables_m3
    box = tuple((-1.0 - k / 10, 1.0 + k / 20) for k in range(9))
    volume = float(np.prod([hi - lo for lo, hi in box]))
    # an integrand of 1 makes the action the sum of the weights
    widths = []

    def ones(m, tape, pts):
        widths.append(pts.shape[1])
        return np.ones(pts.shape[1])

    monkeypatch.setattr(dfield, "_integrand_values", ones)
    tracemalloc.start()
    try:
        r = dfield.action(F, box=box, method="sparse")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(widths) == 6001
    # the weights' magnitudes sum to 110 times their sum at d = 9, so the
    # rounding of the signed sum reaches about 1e-13 of the volume
    assert abs(r.value - volume) < 1e-12 * volume and r.error < 1e-12 * volume
    # no array over the 4^9 points of the tensor rule's full grid
    assert peak < 3 * 8 * 4**9


def test_action_gauss_domain_error_names_a_bad_node():
    # log(x1 + 3/2) is defined on [-1, 1] but not at the ends of [-2, 1];
    # the error names the first node where it fails: x1 = -2, the other
    # coordinates at their intervals' midpoints
    F = dfield.DoubleField(horizon.flat_bundle(2), [["1", "0"], ["0", "1"]], density="log(x1 + 3/2)")
    box = ((-2.0, 1.0),) + ((-1.0, 1.0),) * 5
    with pytest.raises(JetDomainError) as sub:
        dfield.action(F, box=box, method="sparse")
    assert str(sub.value) == "log of a non-positive value at x=-2.0,0.0;y=0.0,0.0;z=0.0,0.0"
    x1 = float(sub.value.point.split("=")[1].split(",")[0])
    assert x1 + 1.5 <= 0.0


def test_action_mc_needs_two_samples():
    F = dfield.DoubleField(horizon.flat_bundle(1), [["1"]])
    for samples in (-1, 0, 1):
        with pytest.raises(ValueError, match="samples >= 2"):
            dfield.action(F, method="mc", samples=samples)


def test_action_sparse_needs_level_1():
    # level 0 has no coarser rule to estimate its error from
    F = dfield.DoubleField(horizon.flat_bundle(1), [["1"]])
    for level in (-1, 0):
        with pytest.raises(ValueError, match="level >= 1"):
            dfield.action(F, method="sparse", level=level)


def test_field_from_riemannian_matches_sasaki_vertical_part():
    m = 2
    g = [["1", "0"], ["0", "exp(2*x1)"]]
    H = horizon.from_linear_connection(metrics.base_christoffels(g, m), m)
    F = dfield.DoubleField(H, g)
    gm = sasaki_metric(g, m)
    p = sample_box(m, 10, seed=21)
    Gv = fields.fvalue(F.vertical_metric().matrix(), p)
    assert np.max(np.abs(Gv - fields.fvalue(gm.tensor.comps[m:, m:], p))) < 1e-10
    assert np.max(np.abs(fields.fvalue(F.psi, p))) < 1e-12


def test_field_from_lagrangian_free():
    m = 2
    L = "(1/2)*(y1^2 + y2^2)"
    F = dfield.field_from_lagrangian(L, horizon.spray_from_lagrangian(L, m)[1])
    p = sample_box(m, 10, seed=22)
    sv = np.moveaxis(fields.fvalue(F.sigma, p), -1, 0)
    assert np.max(np.abs(sv - np.eye(m))) < 1e-12
    assert np.max(np.abs(fields.fvalue(F.psi, p))) < 1e-12
    assert np.max(np.abs(fields.fvalue(F.H.t, p))) < 1e-12


def test_field_from_lagrangian_curved_has_valid_psi():
    m = 2
    L = "(1/2)*(exp(x1)*y1^2 + y2^2) + (1/2)*x2*y1*y2"
    F = dfield.field_from_lagrangian(L, horizon.spray_from_lagrangian(L, m)[1])
    rep = dfield.verify_double_field(F, n=5)
    assert rep.passed, rep.to_json()
