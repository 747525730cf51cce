"""End-to-end acceptance checks at their contract tolerances."""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from bigtangent import cli, conns, dfield, fields, gstruct, horizon, metrics
from bigtangent.bigcore import canonical_pack, verify_section2
from bigtangent.exprdsl import parse_expr
from bigtangent.multiindex import jet_space
from bigtangent.points import ChartPoint, sample_box
from bigtangent.report import largest
from bigtangent.tensorcalc import TensorField
import bigtangent.tensorcalc as tc
from oracles import Jet, fd_oracle, lagrangian_metric, sasaki_metric

SCENES = Path(__file__).resolve().parent.parent / "scenes"


# -- 1. derivative soundness ----------------------------------------------
def _random_expr(rng, m):
    """A random polynomial/transcendental expression string."""

    def atom():
        block = rng.choice(["x", "y", "z"])
        idx = int(rng.integers(1, m + 1))
        v = f"{block}{idx}"
        if rng.random() < 0.3:
            v = f"{v}^{int(rng.integers(2, 4))}"
        return v

    def term():
        coef = f"{rng.integers(1, 5)}"
        factors = [atom() for _ in range(int(rng.integers(1, 3)))]
        t = "*".join([coef] + factors)
        if rng.random() < 0.4:
            fn = rng.choice(["sin", "cos", "exp", "log", "sqrt"])
            inner = "*".join([atom() for _ in range(int(rng.integers(1, 3)))])
            if fn in ("log", "sqrt"):
                inner = f"3 + {inner}"
            elif fn == "exp":
                inner = f"(1/4)*{inner}"
            t = f"{t} + {fn}({inner})"
        return t

    return " + ".join(term() for _ in range(int(rng.integers(1, 4))))


def _fd_richardson(e, p, alpha, h):
    a = fd_oracle(e, p, alpha, h=h)
    b = fd_oracle(e, p, alpha, h=h / 2)
    return (4.0 * b - a) / 3.0


def test_acceptance_1_jet_derivatives_match_finite_differences():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for k in range(200):
        m = int(rng.integers(1, 3))
        text = _random_expr(rng, m)
        e = parse_expr(text, m)
        p = ChartPoint(
            rng.uniform(0.2, 0.8, size=m),
            rng.uniform(0.2, 0.8, size=m),
            rng.uniform(0.2, 0.8, size=m),
        )
        j = Jet(jet_space(3 * m, 3), e.jet(p, 3))
        for order, h, rich in ((1, 1e-5, False), (2, 2e-3, True), (3, 5e-3, True)):
            for _ in range(2):
                alpha = [0] * (3 * m)
                for _ in range(order):
                    alpha[int(rng.integers(0, 3 * m))] += 1
                exact = float(j.deriv(alpha)[0])
                fd = (
                    _fd_richardson(e, p, alpha, h)
                    if rich
                    else fd_oracle(e, p, alpha, h=h)
                )
                assert abs(exact - fd) <= 1e-6 * max(1.0, abs(fd)), (
                    text,
                    alpha,
                    exact,
                    fd,
                )
    assert time.perf_counter() - t0 < 10.0


# -- 2. canonical structure suite -----------------------------------------
def test_acceptance_2_canonical_identities():
    for m in (1, 2, 3):
        rep = verify_section2(m, seed=10 + m, n_samples=25, tol=1e-9)
        assert rep.passed, rep.to_json()
        assert rep.max_residual < 1e-9


# -- 3. triple and frame suite --------------------------------------------
def test_acceptance_3_triple_integrability_and_frames():
    for m in (1, 2, 3):
        T = canonical_pack(m)
        p = sample_box(m, 50, seed=40 + m)
        rep = gstruct.triple_axiom_check(T, p, tol=1e-9)
        assert rep.passed, rep.to_json()
        Delta = [tc.basis_vector(2 * m + i, m) for i in range(m)]
        rep2 = gstruct.integrability_check(T, p, Delta=Delta, tol=1e-9)
        assert rep2.passed, rep2.to_json()
        fp = sample_box(m, 20, seed=60 + m)
        for k in range(fp.npoints):
            fr = gstruct.adapted_frame(T, fp.select(k))
            assert largest(*gstruct.frame_residuals(T, fr).values()) < 1e-8


def test_acceptance_3_negative_controls_flagged():
    m = 2
    pack = canonical_pack(m)
    p = sample_box(m, 20, seed=7)
    comps = pack.S.comps.copy()
    comps[m, 1] = comps[m, 1] + fields.Coord(m)
    bad_S = replace(pack, S=TensorField(("up", "down"), comps, m))
    rep = gstruct.integrability_check(bad_S, p)
    assert not rep.passed
    bad_P = replace(pack, P=pack.P * 2.0)
    rep2 = gstruct.triple_axiom_check(bad_P, p)
    assert not rep2.passed


# -- 4. horizontal bundle suite -------------------------------------------
_BASE = [["1", "0"], ["0", "exp(2*x1)"]]


def test_acceptance_4_gamma_bundle_identities():
    m = 2
    H = horizon.from_linear_connection(metrics.base_christoffels(_BASE, m), m)
    gm = metrics.sasaki_type_metric(_BASE, H)
    rep = conns.verify_section4(gm, sample_box(m, 20, seed=0), tol=1e-8)
    assert rep["projected torsion is minus the curvature of H"]["max_residual"] < 1e-8
    for name in (
        "R(Y, X) X' is the horizontal part of [Y, nabla_X X']",
        "R(X, X') Y = T(Y, R_H(X, X')) - nabla_Y R_H(X, X')",
        "R(X, X') Y = nabla_Y T(X, X')",
        "cyclic sum over horizontal triples vanishes (projected)",
        "cyclic sum over vertical triples vanishes (projected)",
        "cyclic sum over horizontal triples vanishes (block-preserving)",
        "cyclic sum over vertical triples vanishes (block-preserving)",
    ):
        assert rep[name]["max_residual"] < 1e-8, rep.to_json()
    assert rep.meta["canonical_projectability_residual"] < 1e-10
    assert rep.passed, rep.to_json()


def test_acceptance_4_second_order_projectors():
    m = 2
    S = canonical_pack(m).S
    p = sample_box(m, 15, seed=3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        eta = []
        for _ in range(m):
            f = fields.as_field(float(rng.uniform(-1, 1)))
            for i in range(3 * m):
                f = f + float(rng.uniform(-1, 1)) * fields.Coord(i)
            i, j = rng.integers(0, 3 * m, size=2)
            f = f + float(rng.uniform(-1, 1)) * fields.Coord(int(i)) * fields.Coord(
                int(j)
            )
            eta.append(f)
        sof = horizon.canonical_second_order_extension(eta, m)
        Qv = np.moveaxis(
            tc.lie_derivative(sof.as_vector(), S).value(p), -1, 0
        )
        assert np.max(np.abs(Qv @ Qv @ Qv - Qv)) < 1e-10


def test_acceptance_4_spray_residuals():
    m = 2
    p = sample_box(m, 20, seed=9)
    for L in (
        "(1/2)*(y1^2 + y2^2)",
        "(1/2)*(exp(x1)*y1^2 + y2^2)",
        "(1/4)*(y1^4 + y2^4) + (1/2)*(y1^2 + y2^2)",
    ):
        sof, _ = horizon.spray_from_lagrangian(L, m)
        assert largest(horizon.lagrangian_spray_residual(L, sof, p)) < 1e-8


# -- 5. big metric suite ---------------------------------------------------
def test_acceptance_5_metric_connection_and_cartan():
    m = 2
    gm = sasaki_metric(_BASE, m)
    rep = metrics.canonical_metric_connection(gm, sample_box(m, 20, seed=0), tol=1e-8)
    assert rep.passed, rep.to_json()

    crep = metrics.curvature_identity_suite(gm, sample_box(m, 20, seed=0))
    assert crep.passed, crep.to_json()
    # projectable metric: the Riemannian branch must appear and hold
    assert crep["riemannian symmetry: pair swap"]["pass"]
    assert crep["riemannian symmetry: first Bianchi sum"]["pass"]

    quartic = lagrangian_metric(
        "(1/4)*(y1^4 + y2^4) + (1/2)*(y1^2 + y2^2)*exp(x1)", m
    )
    Cv = metrics.cartan_tensor(quartic).value(sample_box(m, 20, seed=11))
    for perm in [(1, 0, 2, 3), (0, 2, 1, 3), (2, 1, 0, 3)]:
        assert np.max(np.abs(Cv - np.transpose(Cv, perm))) < 1e-10
    qrep = metrics.curvature_identity_suite(quartic, sample_box(m, 20, seed=0))
    assert qrep.meta["cartan_max"] > 1e-3
    assert (
        qrep["first-pair symmetry defect equals the Cartan correction"]["max_residual"]
        < 1e-7
    )
    assert (
        qrep["pair-swap defect equals half the antisymmetrized Cartan correction"][
            "max_residual"
        ]
        < 1e-7
    )


# -- 6. double field suite -------------------------------------------------
def _fixture_fields():
    m = 2
    flat = dfield.DoubleField(
        horizon.flat_bundle(m), [["1", "0"], ["0", "1"]]
    )
    sigma = [["1 + (1/2)*y1^2", "0"], ["0", "1"]]
    curved = dfield.DoubleField(horizon.flat_bundle(m), sigma)
    psi = [["0", "x1*y2"], ["0 - x1*y2", "0"]]
    twisted = dfield.DoubleField(horizon.flat_bundle(m), sigma, psi)
    return flat, curved, twisted


def test_acceptance_6_double_field_identities():
    for F in _fixture_fields():
        rep = dfield.verify_double_field(F, seed=1, n=8)
        assert rep.passed, rep.to_json()
        assert rep["component pair round trip"]["max_residual"] < 1e-12
        assert rep["phi squared is the identity"]["max_residual"] < 1e-10
        assert (
            rep["twice the pairing equals the metric of a phi-shifted slot"][
                "max_residual"
            ]
            < 1e-10
        )
        for name in (
            "iota images are eigenvectors of phi",
            "the two eigenbundles are orthogonal for the fiber metric",
            "sigma pulls back to half the fiber metric on each eigenbundle",
            "the split pairing restricts to plus/minus sigma",
            "base connection preserves sigma",
            "torsion pair preserves sigma",
            "scalar curvature is basis independent",
        ):
            assert rep[name]["max_residual"] < 1e-9, (name, rep[name])
        assert rep["final connection has vanishing skew torsion"]["max_residual"] < 1e-8


def test_acceptance_6_action_checks():
    flat, _, _ = _fixture_fields()
    res = dfield.action(flat, method="sparse")
    assert abs(res.value) < 1e-12

    # a field whose deformed scalar curvature is genuinely nonzero
    F = dfield.DoubleField(
        horizon.flat_bundle(2), [["1 + (1/2)*y2^2", "0"], ["0", "1"]]
    )
    small = dfield.action(F, method="mc", samples=10 ** 4, seed=0)
    big = dfield.action(F, method="mc", samples=10 ** 5, seed=1)
    se = np.hypot(small.error, big.error)
    assert abs(small.value - big.value) <= 3.0 * se, (small, big)


# -- 7. end-to-end scene run ----------------------------------------------
def test_acceptance_7_kitchen_sink_scene(tmp_path, capsys):
    scene = str(SCENES / "kitchen-sink.scene")
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    t0 = time.perf_counter()
    assert cli.main(["check", scene, "--json", a]) == 0
    assert time.perf_counter() - t0 < 60.0
    assert cli.main(["check", scene, "--json", b]) == 0
    capsys.readouterr()
    assert Path(a).read_bytes() == Path(b).read_bytes()
    payload = json.loads(Path(a).read_text())
    assert payload["pass"]
    assert len(payload["suites"]) == 5
