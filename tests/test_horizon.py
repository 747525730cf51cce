from pathlib import Path

import numpy as np
import pytest

from bigtangent import bigcore, fields, horizon, metrics, parse_expr, scene, tensorcalc as tc
from bigtangent.bigcore import parse_components
from bigtangent.fields import ScalarField
from bigtangent.points import ChartPoint, sample_box
from bigtangent.report import largest
from bigtangent.tensorcalc import TensorField
from oracles import horizontal_frame, pair

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _gamma_zero(m):
    return fields.fzeros(m, m, m)


def _gamma_curved():
    # Christoffels of the base metric diag(1, e^(2 x1)) in dimension 2
    G = fields.fzeros(2, 2, 2)
    G[1, 0, 1] = fields.ONE
    G[1, 1, 0] = fields.ONE
    G[0, 1, 1] = parse_expr("0 - exp(2*x1)", 2)
    return G


def test_from_linear_connection_flat():
    H = horizon.from_linear_connection(_gamma_zero(2), 2)
    p = sample_box(2, 5, seed=0)
    X1 = horizontal_frame(H)[0].value(p)
    np.testing.assert_allclose(X1[0], 1.0)
    np.testing.assert_allclose(X1[1:], 0.0)


def test_from_linear_connection_hand_case():
    m = 1
    G = fields.fzeros(1, 1, 1)
    G[0, 0, 0] = parse_expr("x1", 1)
    H = horizon.from_linear_connection(G, m)
    p = sample_box(m, 8, seed=1)
    np.testing.assert_allclose(H.t[0, 0].value(p), p.y[0] * p.x[0])
    np.testing.assert_allclose(H.tau[0, 0].value(p), -p.z[0] * p.x[0])


def test_gamma_bundle_satisfies_both_lift_equations():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(), m)
    p = sample_box(m, 10, seed=2)
    for i in range(m):
        for j in range(m):
            lhs = H.tau[i, j]
            rhs = fields.ZERO
            for h in range(m):
                rhs = rhs - fields.Coord(2 * m + h) * H.t[i, h].partial(m + j)
            assert np.max(np.abs((lhs - rhs).value(p))) < 1e-10
            # mirror relation recovering t from tau (y contracted against
            # the target index, the exact mirror of the tau formula)
            lhs = H.t[i, j]
            rhs = fields.ZERO
            for h in range(m):
                rhs = rhs - fields.Coord(m + h) * H.tau[i, h].partial(2 * m + j)
            assert np.max(np.abs((lhs - rhs).value(p))) < 1e-10


def test_dependency_violations():
    with pytest.raises(bigcore.DependencyError):
        horizon.from_linear_connection(np.array([[["y1"]]], dtype=object), 1)
    with pytest.raises(bigcore.DependencyError):
        horizon.lift_from_tm([["z1"]], 1)
    with pytest.raises(bigcore.DependencyError):
        horizon.lift_from_cotm([["y1"]], 1)


def test_lift_from_tm_hand_cases():
    H = horizon.lift_from_tm([["0"]], 1)
    p = sample_box(1, 5, seed=3)
    assert np.max(np.abs(H.tau[0, 0].value(p))) == 0.0
    H = horizon.lift_from_tm([["y1^2"]], 1)
    np.testing.assert_allclose(H.tau[0, 0].value(p), -2.0 * p.z[0] * p.y[0])


def test_lift_from_cotm_hand_case():
    p = sample_box(1, 5, seed=4)
    H = horizon.lift_from_cotm([["z1*x1"]], 1)
    np.testing.assert_allclose(H.t[0, 0].value(p), -p.z[0] * p.x[0])


def test_lift_round_trip_reads_back():
    m = 2
    p = sample_box(m, 10, seed=5)
    t = np.array([["y1*y2", "x1"], ["sin(x2)", "y2^2"]], dtype=object)
    H = horizon.lift_from_tm(t, m)
    for i in range(m):
        for j in range(m):
            want = parse_expr(str(t[i, j]) if isinstance(t[i, j], str) else "0", m)
            assert np.max(np.abs((H.t[i, j] - want).value(p))) < 1e-12
    G = _gamma_curved()
    HG = horizon.from_linear_connection(G, m)
    H3 = horizon.lift_from_tm(HG.t, m)
    for i in range(m):
        for j in range(m):
            assert np.max(np.abs((H3.tau[i, j] - HG.tau[i, j]).value(p))) < 1e-12


def test_spray_free_particle():
    sof, H = horizon.spray_from_lagrangian("(y1^2 + y2^2)/2", 2)
    p = sample_box(2, 5, seed=6)
    for i in range(2):
        assert np.max(np.abs(sof.eta[i].value(p))) == 0.0
        for j in range(2):
            assert np.max(np.abs(H.t[i, j].value(p))) == 0.0
            assert np.max(np.abs(H.tau[i, j].value(p))) == 0.0


def test_spray_exponential_lagrangian():
    sof, H = horizon.spray_from_lagrangian("exp(x1)*y1^2/2", 1)
    p = sample_box(1, 10, seed=7)
    np.testing.assert_allclose(sof.eta[0].value(p), -0.5 * p.y[0] ** 2, atol=1e-12)


def test_spray_equation_residual():
    for L in ["exp(x1)*y1^2/2", "(y1^2 + y2^2)/2 + x1*y2^2", "y1*y2 + y1^2 - x2^2"]:
        m = 2 if "y2" in L else 1
        sof, H = horizon.spray_from_lagrangian(L, m)
        p = sample_box(m, 20, seed=8)
        assert largest(horizon.lagrangian_spray_residual(L, sof, p)) < 1e-8


def test_second_order_projector_flat():
    m = 1
    sof = horizon.SecondOrderField(["0"], ["0"], m)
    Q, H = horizon.second_order_projector(sof)
    p = sample_box(m, 5, seed=9)
    X1 = horizontal_frame(H)[0].value(p)
    np.testing.assert_allclose(X1[0], 1.0)
    np.testing.assert_allclose(X1[1:], 0.0)
    # Q acts as +1 on dy, 0 on dz, -1 on the horizontal lift
    Qv = Q.value(p)[:, :, 0]
    e = np.zeros(3)
    e[1] = 1
    np.testing.assert_allclose(Qv @ e, e, atol=1e-12)
    e = np.zeros(3)
    e[2] = 1
    np.testing.assert_allclose(Qv @ e, 0.0, atol=1e-12)


def test_second_order_projector_matches_tm_lift():
    m = 2
    eta = ["x1*y2 + y1^2", "sin(x2)*y1"]
    sof = horizon.canonical_second_order_extension(eta, m)
    Q, H = horizon.second_order_projector(sof)
    H2 = horizon.lift_from_tm([[-0.5 * parse_expr(e, m).partial(m + i) for e in eta]
                               for i in range(m)], m)
    p = sample_box(m, 10, seed=10)
    for i in range(m):
        for j in range(m):
            assert np.max(np.abs((H.t[i, j] - H2.t[i, j]).value(p))) < 1e-12
            assert np.max(np.abs((H.tau[i, j] - H2.tau[i, j]).value(p))) < 1e-12


def test_second_order_projector_eigenvalues():
    m = 2
    rng = np.random.default_rng(11)
    eta = [bigcore.rand_x_poly(m, rng) * fields.Coord(m) for _ in range(m)]
    zeta = [bigcore.rand_x_poly(m, rng) * fields.Coord(m + 1) for _ in range(m)]
    sof = horizon.SecondOrderField(eta, zeta, m)
    Q, H = horizon.second_order_projector(sof)
    p = sample_box(m, 10, seed=12)
    Qv = np.moveaxis(Q.value(p), -1, 0)
    assert np.max(np.abs(Qv @ Qv @ Qv - Qv)) < 1e-9
    for k in range(p.npoints):
        ev = np.sort(np.linalg.eigvals(Qv[k]).real)
        np.testing.assert_allclose(
            ev, [-1] * m + [0] * m + [1] * m, atol=1e-8
        )


def test_coframe_duality_and_projectors():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(), m)
    p = sample_box(m, 10, seed=13)
    frame = horizontal_frame(H) + [tc.basis_vector(m + i, m) for i in range(m)] + [
        tc.basis_vector(2 * m + i, m) for i in range(m)
    ]
    E, C = H.frame
    coframe = [tc.one_form(C[a], m) for a in range(3 * m)]
    for a, al in enumerate(coframe):
        for b, v in enumerate(frame):
            got = fields.as_field(pair(al, v)).value(p)
            np.testing.assert_allclose(got, 1.0 if a == b else 0.0, atol=1e-12)
    hcomps = fields.fzeros(3 * m, 3 * m)
    hcomps[:, :m] = E[:, :m]
    prH = tc.TensorField(("up", "down"), hcomps, m)
    eye = fields.fzeros(3 * m, 3 * m)
    np.fill_diagonal(eye, fields.ONE)
    prV = tc.TensorField(("up", "down"), eye - prH.comps, m)
    vH = np.moveaxis(prH.value(p), -1, 0)
    vV = np.moveaxis(prV.value(p), -1, 0)
    assert np.max(np.abs(vH @ vH - vH)) < 1e-12
    assert np.max(np.abs(vH + vV - np.eye(3 * m))) < 1e-12


def test_the_frame_is_built_once_and_read_only():
    # every reader of the bundle shares (E, C), so neither can be written
    H = horizon.from_linear_connection(_gamma_curved(), 2)
    E, C = H.frame
    assert H.frame[0] is E and H.frame[1] is C
    for arr in (E, C):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = fields.ZERO


def test_adapted_natural_round_trip():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(), m)
    p = sample_box(m, 6, seed=14)
    rng = np.random.default_rng(15)
    comps = fields.fzeros(3 * m, 3 * m)
    for idx in np.ndindex(comps.shape):
        comps[idx] = bigcore.rand_x_poly(m, rng)
    T = tc.TensorField(("up", "down"), comps, m)
    back = horizon.to_natural(horizon.to_adapted(T, H), H)
    assert (back - T).max_abs(p) < 1e-10


def test_ehresmann_flat_bundle_vanishes():
    H = horizon.flat_bundle(2)
    p = sample_box(2, 5, seed=16)
    assert horizon.ehresmann_curvature(H).max_abs(p) < 1e-12


def test_ehresmann_constant_quadratic_spray_is_flat():
    # quadratic form Lagrangian with constant coefficients
    sof, H = horizon.spray_from_lagrangian("y1^2/2 + y1*y2 + y2^2", 2)
    p = sample_box(2, 5, seed=17)
    assert horizon.ehresmann_curvature(H).max_abs(p) < 1e-10


def test_ehresmann_curvature_is_the_vertical_structure_functions():
    # R_H[k, i, j] is the node c[i, j, k] for k >= m, and that is the node
    # the bracket of the horizontal frame fields gives; every other entry
    # is ZERO
    sc = scene.load_scene(str(SCENES / "kitchen-sink.scene"))
    g = [["1", "0", "0"], ["0", "exp(2*x1)", "0"], ["0", "0", "1"]]
    bundles = [
        sc.bundle,
        sc.lagrangian_metric.H,  # the spray's
        horizon.from_linear_connection(metrics.base_christoffels(g, 3), 3),
        horizon.lift_from_cotm([["x1*z1 + z2^2", "z1"], ["0", "sin(x2)*z2"]], 2),
    ]
    for H in bundles:
        m = H.m
        R = horizon.ehresmann_curvature(H).comps
        c = H.structure_functions
        assert H.structure_functions is c  # built once
        X = horizontal_frame(H)
        for k, i, j in np.ndindex(R.shape):
            if k >= m and i < m and j < m:
                assert R[k, i, j] is c[i, j, k]
                if i != j:
                    br = tc.lie_bracket(X[min(i, j)], X[max(i, j)]).comps[k]
                    assert R[k, i, j] is (br if i < j else -1.0 * br)
            else:
                assert R[k, i, j] is fields.ZERO
        assert any(not fields.is_zero(e) for e in R.flat)  # genuinely curved


def _fd_bracket(H, i, j, p0, h=1e-5):
    """Finite-difference bracket of the horizontal frame fields at an
    unbatched point (independent oracle)."""
    m = H.m
    Xi = horizontal_frame(H)[i]
    Xj = horizontal_frame(H)[j]
    base = np.concatenate([np.ravel(p0.x), np.ravel(p0.y), np.ravel(p0.z)])

    def val(F, coords):
        q = ChartPoint(coords[:m], coords[m : 2 * m], coords[2 * m :])
        return F.value(q)[:, 0]

    vi = val(Xi, base)
    vj = val(Xj, base)
    dji = (val(Xj, base + h * vi) - val(Xj, base - h * vi)) / (2 * h)
    dij = (val(Xi, base + h * vj) - val(Xi, base - h * vj)) / (2 * h)
    return dji - dij


def test_ehresmann_curved_bundle_matches_fd_bracket():
    m = 2
    H = horizon.from_linear_connection(_gamma_curved(), m)
    p0 = ChartPoint([0.3, -0.2], [0.7, 0.4], [0.5, -0.6])
    R = horizon.ehresmann_curvature(H).value(p0)[:, :, :, 0]
    fd = _fd_bracket(H, 0, 1, p0)
    np.testing.assert_allclose(R[:, 0, 1], fd, atol=1e-6)
    assert np.max(np.abs(R)) > 0.1  # genuinely curved
    np.testing.assert_allclose(R[:, 1, 0], -R[:, 0, 1], atol=1e-12)


def _bidegree_of_index(a: int, m: int) -> int:
    return 0 if a < m else 1


def decompose_d(omega: TensorField, H: horizon.HorizontalBundle):
    """Split d(omega) into its (p+1,q), (p,q+1) and (p+2,q-1) parts.

    omega must be homogeneous of some bidegree (p,q) with respect to the
    horizontal/vertical splitting; the bidegree is detected by
    evaluating the adapted components at a fixed validation batch.
    """
    m = omega.m
    k = len(omega.sig)
    if any(v != "down" for v in omega.sig):
        raise ValueError("decompose_d expects a differential form")
    p, q = _detect_bidegree(omega, H, sample_box(m, 8, seed=2))
    d = tc.exterior_derivative(omega)
    d_ad = horizon.to_adapted(d, H)
    parts = []
    for tp, tq in [(p + 1, q), (p, q + 1), (p + 2, q - 1)]:
        proj = fields.fzeros(*([3 * m] * (k + 1)))
        if 0 <= tp and 0 <= tq and tp + tq == k + 1:
            for idx in np.ndindex(proj.shape):
                deg = sum(_bidegree_of_index(a, m) for a in idx)
                if deg == tq:
                    proj[idx] = d_ad.comps[idx]
        part = horizon.to_natural(TensorField(d.sig, proj, m, frame="adapted"), H)
        parts.append(part)
    return tuple(parts)


def _detect_bidegree(omega: TensorField, H: horizon.HorizontalBundle, points: ChartPoint):
    m = omega.m
    k = len(omega.sig)
    if k == 0:
        return 0, 0
    ad = horizon.to_adapted(omega, H)
    vals = fields.fvalue(ad.comps, points)
    seen = set()
    for idx in np.ndindex(omega.comps.shape):
        if np.max(np.abs(vals[idx])) > 1e-10:
            seen.add(sum(_bidegree_of_index(a, m) for a in idx))
    if len(seen) > 1:
        raise ValueError(f"form is not bidegree-homogeneous: V-degrees {sorted(seen)}")
    q = seen.pop() if seen else 0
    return k - q, q


def nonlinear_covariant_derivative(H: horizon.HorizontalBundle, nu, kappa, xi):
    """Covariant derivative of a base section (nu^i(x), kappa_i(x))
    along X = xi^j(x) d/dx^j, with values in the pulled-back pair
    bundle: component arrays (vector part, form part)."""
    m = H.m
    nu = parse_components(nu, m, {"x"}, "nu")
    kap = parse_components(kappa, m, {"x"}, "kappa")
    xi = parse_components(xi, m, {"x"}, "xi")
    out_v = fields.fzeros(m)
    out_f = fields.fzeros(m)
    for i in range(m):
        out_v[i] = fields.fsum((1, xi[j], nu[i].partial(j) + H.t[j, i]) for j in range(m))
        out_f[i] = fields.fsum((1, xi[j], kap[i].partial(j) - H.tau[j, i]) for j in range(m))
    return out_v, out_f


def is_liouville_related(a: TensorField, points: ChartPoint, tol: float = 1e-10) -> bool:
    """True iff composing the 1-form with S gives the tautological form,
    i.e. the dy-coefficients equal the z-coordinates."""
    m = a.m
    vals = fields.fvalue(a.comps[m : 2 * m], points)
    return largest(vals - points.z) <= tol


def transformed_gamma_bundle(Gamma, A: np.ndarray, m: int) -> horizon.HorizontalBundle:
    """Bundle of the connection Gamma re-expressed in linear coordinates
    xt = A x."""
    A = np.asarray(A, dtype=float)
    Ainv = np.linalg.inv(A)
    raw = np.asarray(Gamma, dtype=object)
    G = np.array(
        parse_components(raw.reshape(-1), m, {"x"}, "Gamma", count=m ** 3), dtype=object
    )
    G = G.reshape(m, m, m)
    # substitute x = Ainv xt inside the coefficients and contract indices
    subs = [
        fields.fsum((1, float(Ainv[r, c]), fields.Coord(c)) for c in range(m))
        for r in range(m)
    ]
    Gt = fields.fzeros(m, m, m)
    for i, j, k in np.ndindex(m, m, m):
        Gt[i, j, k] = fields.fsum(
            (1, float(A[i, a] * Ainv[b, j] * Ainv[c, k]), _substitute_x(G[a, b, c], subs))
            for a, b, c in np.ndindex(m, m, m)
        )
    return horizon.from_linear_connection(Gt, m)


def _substitute_x(f: ScalarField, subs) -> ScalarField:
    """Replace Coord(i) (x-block only) by the given fields inside a
    field graph built from Coord/Const and arithmetic."""
    if isinstance(f, fields.Coord):
        return subs[f.var] if f.var < len(subs) else f
    if isinstance(f, fields.Const):
        return f
    if isinstance(f, fields.Sum):
        terms = tuple((sign, *(_substitute_x(g, subs) for g in factors)) for sign, *factors in f.terms)
        return fields.Sum(_substitute_x(f.start, subs), terms)
    if isinstance(f, fields.Pow):
        return fields.Pow(_substitute_x(f.base, subs), f.n)
    if isinstance(f, fields.Func):
        return fields.Func(f.name, _substitute_x(f.arg, subs))
    if isinstance(f, fields.Partial):
        raise ValueError("cannot substitute under a derivative node")
    raise TypeError(f"unsupported node {type(f).__name__}")


def test_decompose_d_flat_splitting():
    m = 1
    H = horizon.flat_bundle(m)
    comps = fields.fzeros(3)
    comps[0] = parse_expr("x1*y1 + z1^2", m)
    w = tc.one_form(comps, m)
    dp, dpp, dd = decompose_d(w, H)
    p = sample_box(m, 6, seed=18)
    assert dd.max_abs(p) < 1e-12
    # d'' part carries exactly the vertical derivatives of the coefficient
    v = dpp.value(p)
    np.testing.assert_allclose(v[1, 0], p.x[0], atol=1e-12)
    np.testing.assert_allclose(v[2, 0], 2 * p.z[0], atol=1e-12)
    total = dp.value(p) + dpp.value(p) + dd.value(p)
    np.testing.assert_allclose(total, tc.exterior_derivative(w).value(p), atol=1e-10)


def test_decompose_d_partial_term_tracks_curvature():
    m = 2
    p = sample_box(m, 6, seed=19)
    for H, curved in [
        (horizon.flat_bundle(m), False),
        (horizon.from_linear_connection(_gamma_curved(), m), True),
    ]:
        _, C = H.frame
        kappas = [tc.one_form(C[a], m) for a in range(2 * m, 3 * m)]
        dp, dpp, dd = decompose_d(kappas[0], H)
        assert (dd.max_abs(p) > 1e-3) == curved
        total = dp.value(p) + dpp.value(p) + dd.value(p)
        np.testing.assert_allclose(
            total, tc.exterior_derivative(kappas[0]).value(p), atol=1e-10
        )


def test_decompose_d_rejects_mixed_forms():
    m = 1
    comps = fields.fzeros(3)
    comps[0] = fields.ONE
    comps[1] = fields.ONE
    with pytest.raises(ValueError):
        decompose_d(tc.one_form(comps, m), horizon.flat_bundle(m))


def test_nonlinear_covariant_derivative():
    m = 1
    flat = horizon.flat_bundle(m)
    dv, df = nonlinear_covariant_derivative(flat, ["1"], ["1"], ["1"])
    p = sample_box(m, 4, seed=20)
    assert np.max(np.abs(dv[0].value(p))) == 0.0
    assert np.max(np.abs(df[0].value(p))) == 0.0
    c = 2.5
    G = fields.fzeros(1, 1, 1)
    G[0, 0, 0] = fields.Const(c)
    H = horizon.from_linear_connection(G, m)
    q = ChartPoint([0.3], [1.0], [1.0])
    dv, df = nonlinear_covariant_derivative(H, ["1"], ["1"], ["1"])
    np.testing.assert_allclose(dv[0].value(q), c)
    np.testing.assert_allclose(df[0].value(q), c)
    # linearity in the direction argument
    dv2, df2 = nonlinear_covariant_derivative(H, ["1"], ["1"], ["3"])
    np.testing.assert_allclose(dv2[0].value(q), 3 * dv[0].value(q))
    np.testing.assert_allclose(df2[0].value(q), 3 * df[0].value(q))


def test_is_liouville_related():
    m = 2
    p = sample_box(m, 6, seed=21)
    comps = fields.fzeros(3 * m)
    comps[0] = parse_expr("x1*y2", m)
    comps[m] = fields.Coord(2 * m)
    comps[m + 1] = fields.Coord(2 * m + 1)
    comps[2 * m] = parse_expr("sin(x1)", m)
    assert is_liouville_related(tc.one_form(comps, m), p)
    assert not is_liouville_related(tc.one_form(fields.fzeros(3 * m), m), p)
    comps[m] = fields.Coord(m)  # y-coefficient y1 instead of z1
    assert not is_liouville_related(tc.one_form(comps, m), p)


def test_transh_equivariance_linear_change():
    m = 2
    rng = np.random.default_rng(22)
    A = rng.standard_normal((m, m)) + 2 * np.eye(m)
    Ainv = np.linalg.inv(A)
    H = horizon.from_linear_connection(_gamma_curved(), m)
    Ht = transformed_gamma_bundle(_gamma_curved(), A, m)
    p = sample_box(m, 8, seed=23)
    pt = ChartPoint(A @ p.x, A @ p.y, Ainv.T @ p.z)
    tv = np.empty((m, m, p.npoints))
    tauv = np.empty((m, m, p.npoints))
    ttv = np.empty((m, m, p.npoints))
    ttauv = np.empty((m, m, p.npoints))
    for i in range(m):
        for j in range(m):
            tv[i, j] = H.t[i, j].value(p)
            tauv[i, j] = H.tau[i, j].value(p)
            ttv[i, j] = Ht.t[i, j].value(pt)
            ttauv[i, j] = Ht.tau[i, j].value(pt)
    for k in range(p.npoints):
        # storage is [direction, target]: t~ = Ainv^T t A^T, tau~ = Ainv^T tau Ainv
        np.testing.assert_allclose(ttv[:, :, k], Ainv.T @ tv[:, :, k] @ A.T, atol=1e-9)
        np.testing.assert_allclose(
            ttauv[:, :, k], Ainv.T @ tauv[:, :, k] @ Ainv, atol=1e-9
        )
