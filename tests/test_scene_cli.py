import contextlib
import io
import json
import os
import re
import string
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigtangent import cli, conns, fields, metrics
from bigtangent.bigcore import canonical_pack
from bigtangent.exprdsl import MAX_HEIGHT
from bigtangent.points import sample_box
from bigtangent.scene import OBJECTS, SUITE_NAMES, SceneError, load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def _write(tmp_path, text, name="t.scene"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_minimal_scene(tmp_path):
    sc = load_scene(_write(tmp_path, "[scene]\nm = 1\n"))
    assert sc.m == 1
    assert sc.seed == 0 and sc.samples == 20
    assert sc.suites == ("canonical", "triple", "horizontal", "metric", "double")
    # flat defaults: identity sigma, flat bundle
    p_ = np.zeros((1, 1))
    from bigtangent.points import ChartPoint

    pt = ChartPoint(p_, p_, p_)
    assert float(fields.fvalue(sc.double_field.sigma, pt)[0, 0, 0]) == 1.0
    assert np.max(np.abs(fields.fvalue(sc.bundle.t, pt))) == 0.0


def test_load_scene_index_out_of_range(tmp_path):
    path = _write(tmp_path, "[scene]\nm = 1\n\n[base_metric]\nrow1 = 1 + x2^2\n")
    with pytest.raises(SceneError) as err:
        load_scene(path)
    assert "base_metric" in str(err.value)


def test_load_scene_errors(tmp_path):
    with pytest.raises(SceneError):
        load_scene(_write(tmp_path, "m = 1\n"))  # no [scene] section
    with pytest.raises(SceneError):
        load_scene(_write(tmp_path, "[scene]\nm = 9\n"))
    with pytest.raises(SceneError):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nsuites = nope\n"))
    with pytest.raises(SceneError, match=r"\[scene\]: suites: must name at least one suite"):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nsuites =\n"))
    with pytest.raises(SceneError, match=r"\[scene\]: suites: 'triple' is named twice"):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nsuites = triple triple\n"))
    with pytest.raises(SceneError):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nwhatever = 3\n"))
    with pytest.raises(SceneError, match=r"\[scene\]: seed: invalid literal for int\(\)"):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nseed = x1\n"))
    with pytest.raises(SceneError, match=r"\[scene\]: perturb_s: could not convert"):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nperturb_s = 1e-3x\n"))
    with pytest.raises(SceneError):
        load_scene(_write(tmp_path, "[scene]\nm = 1\n\n[garbage]\na = 1\n"))
    conn = "[scene]\nm = 2\n\n[connection]\nc1_1 = x1; 0\nc2_1 = 0; 0\nc2_2 = 0; 0\n"
    with pytest.raises(SceneError, match=r"\[connection\]: missing key c1_2$"):
        load_scene(_write(tmp_path, conn))
    with pytest.raises(SceneError, match=r"\[connection\]: c1_2 has 3 entries, expected 2$"):
        load_scene(_write(tmp_path, conn + "c1_2 = 0; x2; 1\n"))
    asym = "[scene]\nm = 2\n\n[base_metric]\nrow1 = 1; x1\nrow2 = 0; 1\n"
    with pytest.raises(SceneError) as err:
        load_scene(_write(tmp_path, asym))
    assert "symmetric" in str(err.value)
    with pytest.raises(FileNotFoundError):
        load_scene(str(tmp_path / "missing.scene"))


def test_load_scene_box(tmp_path):
    sc = load_scene(_write(tmp_path, "[scene]\nm = 1\nbox = 0 1; -2 2; 0 0.5\n"))
    assert sc.box == ((0.0, 1.0), (-2.0, 2.0), (0.0, 0.5))
    with pytest.raises(SceneError):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nbox = 0 1\n"))
    with pytest.raises(SceneError):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nbox = 1 0; -2 2; 0 1\n"))
    with pytest.raises(SceneError, match=r"\[scene\]: box interval 'a 1'"):
        load_scene(_write(tmp_path, "[scene]\nm = 1\nbox = a 1; -2 2; 0 1\n"))


def test_bundle_resolution_precedence(tmp_path):
    text = (
        "[scene]\nm = 1\n\n"
        "[base_metric]\nrow1 = exp(2*x1)\n\n"
        "[horizontal_bundle]\nt1 = y1^2\n"
    )
    sc = load_scene(_write(tmp_path, text))
    from bigtangent.points import ChartPoint

    pt = ChartPoint([[0.3]], [[0.5]], [[0.2]])
    # the explicit bundle wins over the metric's Levi-Civita bundle
    assert abs(float(fields.fvalue(sc.bundle.t, pt)[0, 0, 0]) - 0.25) < 1e-12


def test_kitchen_sink_scene_loads_everything():
    sc = load_scene(str(SCENES / "kitchen-sink.scene"))
    assert sc.m == 2
    assert sc.base_metric is not None
    assert sc.lagrangian is not None and sc.spray is not None
    assert sc.lagrangian_metric is not None
    assert "w" in sc.vector_fields
    assert sc.double_field is not None and sc.double_field.density is not None


def test_run_suites_flat_scene_passes():
    sc = load_scene(str(SCENES / "flat.scene"))
    code, out = cli.run_suites(sc)
    assert code == 0 and out["pass"]
    assert [s["suite"] for s in out["suites"]] == [
        "canonical",
        "triple",
        "horizontal",
        "metric",
        "double",
    ]


def test_run_suites_perturbed_scene_fails_named():
    sc = load_scene(str(SCENES / "perturbed.scene"))
    code, out = cli.run_suites(sc)
    assert code == 1 and not out["pass"]
    failed = [
        e["identity"]
        for s in out["suites"]
        for r in s["reports"]
        for e in r["identities"]
        if not e["pass"]
    ]
    assert failed, "a perturbed S must produce at least one named failure"


def test_run_suites_unknown_suite():
    sc = load_scene(str(SCENES / "flat.scene"))
    with pytest.raises(SceneError):
        cli.run_suites(sc, which=["nope"])


def test_check_json_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    scene = str(SCENES / "flat.scene")
    assert cli.main(["check", scene, "--json", a]) == 0
    assert cli.main(["check", scene, "--json", b]) == 0
    capsys.readouterr()
    assert Path(a).read_bytes() == Path(b).read_bytes()
    payload = json.loads(Path(a).read_text())
    assert payload["tool"] == "bigtangent" and payload["pass"]


@pytest.mark.parametrize(
    "args",
    [
        ["check", str(SCENES / "flat.scene"), "--suite", "triple"],
        ["eval", str(SCENES / "flat.scene"), "--object", "S", "--point", "x=0.1;y=0.2;z=0.3"],
    ],
    ids=["check", "eval"],
)
def test_unwritable_json_path_exits_2_with_nothing_on_stdout(tmp_path, capsys, args):
    code = cli.main(args + ["--json", str(tmp_path / "missing" / "out.json")])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: [Errno 2]")


def test_check_suite_and_flag_overrides(capsys):
    scene = str(SCENES / "flat.scene")
    code = cli.main(["check", scene, "--suite", "canonical", "--seed", "3"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert [s["suite"] for s in payload["suites"]] == ["canonical"]
    assert payload["seed"] == 3


def test_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["check", str(tmp_path / "nope.scene")]) == 2
    assert cli.main(["version"]) == 0
    scene = str(SCENES / "kitchen-sink.scene")
    assert (
        cli.main(["eval", scene, "--object", "nosuch", "--point", "x=0,0"]) == 2
    )
    assert (
        cli.main(["eval", scene, "--object", "P", "--point", "x=0,0;y=0;z=0"]) == 2
    )
    capsys.readouterr()


def test_cli_domain_error_exits_2_without_traceback(tmp_path, capsys):
    # log(x1) leaves its domain at sample points with x1 <= 0: at load time
    # in [base_metric], inside the double suite when it is the density
    cases = {
        "[base_metric]": "[scene]\nm = 2\n\n[base_metric]\nrow1 = 1 + log(x1); 0\nrow2 = 0; 1\n",
        "suite double": (
            "[scene]\nm = 2\nsuites = double\n\n[double_field]\n"
            "sigma1 = 1; 0\nsigma2 = 0; 1\ndensity = 2 + log(x1)\n"
        ),
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for where, text in cases.items():
        path = _write(tmp_path, text)
        proc = subprocess.run(
            [sys.executable, "-m", "bigtangent.cli", "check", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        head, sep, point = proc.stderr.strip().partition(" at ")
        assert where + ": log of a non-positive value" in head and sep
        assert cli.parse_point(point, 2).x[0, 0] <= 0.0
    # eval names the object and reports the point it was given
    assert cli.main(["eval", path, "--object", "dfield.density", "--point", "x=-0.5,0.25"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: object dfield.density: log of a non-positive value"
        " at x=-0.5,0.25;y=0.0,0.0;z=0.0,0.0\n"
    )


def test_out_of_range_options_exit_2_at_load(tmp_path, capsys):
    # each would otherwise fail inside a suite: a NaN Monte Carlo error
    # (exit 1), a numpy error (exit 2 without the key) or no passing identity
    cases = {
        "mc_samples = 0": "[scene]: mc_samples: must be >= 2, got 0",
        "mc_samples = 1": "[scene]: mc_samples: must be >= 2, got 1",
        "mc_samples = -1": "[scene]: mc_samples: must be >= 2, got -1",
        "samples = 0": "[scene]: samples: must be >= 1, got 0",
        "samples = -3": "[scene]: samples: must be >= 1, got -3",
        "seed = -1": "[scene]: seed: must be >= 0, got -1",
        "tol = -1": "[scene]: tol: must be finite and > 0, got -1.0",
        "tol = nan": "[scene]: tol: must be finite and > 0, got nan",
        "tol = 0": "[scene]: tol: must be finite and > 0, got 0.0",
        "\n[tolerances]\ndouble = -1": "[tolerances]: double: must be finite and > 0, got -1.0",
        "\n[tolerances]\nmetric = inf": "[tolerances]: metric: must be finite and > 0, got inf",
        # an infinite perturb_s would hang the canonical suite's SVD, a NaN
        # one fail it; a non-finite box fails the double suite with warnings
        "perturb_s = inf": "[scene]: perturb_s: must be finite, got inf",
        "perturb_s = nan": "[scene]: perturb_s: must be finite, got nan",
        "box = -inf 1; -1 1; -1 1": (
            "[scene]: box: intervals must have finite bounds and width, got -inf 1.0"
        ),
        "box = -1 1; -1 nan; -1 1": (
            "[scene]: box: intervals must have finite bounds and width, got -1.0 nan"
        ),
        "box = -1 1; -1 1; -1e308 1e308": (
            "[scene]: box: intervals must have finite bounds and width, got -1e+308 1e+308"
        ),
        # each width is finite, but the volume 4e400 is not
        "box = -1e200 1e200; -1 1; -1e200 1e200": (
            "[scene]: box: the volume, the product of the widths, must be finite, got inf"
        ),
    }
    for line, message in cases.items():
        path = _write(tmp_path, f"[scene]\nm = 1\n{line}\n")
        # at load time, so no suite runs on the value
        with pytest.raises(SceneError) as info:
            load_scene(path)
        assert str(info.value) == f"{path}: {message}", line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["check", path]) == 2, line
        out, err = capsys.readouterr()
        assert not caught and out == "", line
        assert err == f"error: {path}: {message}\n"
    # the least values in range run every suite
    path = _write(tmp_path, "[scene]\nm = 1\nseed = 0\nsamples = 1\nmc_samples = 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["check", path]) == 0
    assert not caught
    capsys.readouterr()


def test_out_of_range_check_flags_exit_2(capsys):
    scene = str(SCENES / "flat.scene")
    for flag, value, message in (
        ("--seed", "-1", "must be >= 0, got -1"),
        ("--samples", "0", "must be >= 1, got 0"),
        ("--tol", "-1", "must be finite and > 0, got -1.0"),
        ("--tol", "nan", "must be finite and > 0, got nan"),
        ("--seed", "x", "invalid int value: 'x'"),
    ):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["check", scene, flag, value])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1] == f"bigtangent check: error: argument {flag}: {message}"
    assert cli.main(["check", scene, "--suite", "triple", "--suite", "triple"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: suite 'triple' is named twice\n"


_BUNDLE_SOURCES = {
    "t rows": "[horizontal_bundle]\nt1 = x1*y1; y2^2\nt2 = y1*y2; sin(x2)*y1\n",
    "tau rows": "[horizontal_bundle]\ntau1 = x1*z1; z2*x2\ntau2 = z2*z1; sin(x1)*z1\n",
    "t and tau rows": (
        "[horizontal_bundle]\nt1 = x1*y1; y2^2\nt2 = y1*y2; sin(x2)*y1\n"
        "tau1 = x1*z1; z2*x2\ntau2 = z2*z1; sin(x1)*z1\n"
    ),
    "connection": (
        "[connection]\nc1_1 = x1; 0\nc1_2 = 0; x2\nc2_1 = sin(x1); 0\nc2_2 = 0; x1*x2\n"
    ),
}


@pytest.mark.parametrize("source", _BUNDLE_SOURCES)
def test_check_passes_on_every_bundle_source(tmp_path, capsys, source):
    # the tangent-side and cotangent-side lifts, the constructor from both
    # tables and the bundle of a linear connection, each read from a scene
    path = _write(
        tmp_path, "[scene]\nm = 2\nsamples = 6\nmc_samples = 64\n\n" + _BUNDLE_SOURCES[source]
    )
    assert cli.main(["check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["suite"] for s in payload["suites"]] == list(SUITE_NAMES)
    assert all(
        e["pass"] for s in payload["suites"] for r in s["reports"] for e in r["identities"]
    )


def test_action_domain_error_names_a_gauss_node(tmp_path, capsys):
    # the density is defined on [-1, 1]^6, where the identities sample it,
    # but not at the quadrature's node x1 = -2, the low end of the box's
    # x1 interval [-2, 1]
    path = _write(
        tmp_path,
        "[scene]\nm = 2\nsuites = double\nbox = -2 1; -1 1; -1 1; -1 1; -1 1; -1 1\n\n"
        "[double_field]\nsigma1 = 1; 0\nsigma2 = 0; 1\ndensity = log(x1 + 3/2)\n",
    )
    assert cli.main(["check", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    head, sep, point = err.strip().partition(" at ")
    assert head == "error: suite double: log of a non-positive value" and sep
    assert cli.parse_point(point, 2).x[0, 0] + 1.5 <= 0.0


def test_m3_double_suite_runs_in_bounded_time(tmp_path):
    # the sparse rule evaluates the integrand over the chart variables it
    # reads (the 1,457 level-4 nodes in 6 variables here), not over all 9
    path = _write(
        tmp_path,
        "[scene]\nm = 3\nseed = 5\nsamples = 3\nmc_samples = 64\nsuites = double\n\n"
        "[base_metric]\nrow1 = 1; 0; 0\nrow2 = 0; exp(2*x1); 0\nrow3 = 0; 0; 1\n",
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bigtangent.cli", "check", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    meta = json.loads(proc.stdout)["suites"][0]["reports"][0]["meta"]
    assert np.isfinite(meta["action_value"]) and np.isfinite(meta["action_mc_value"])


def test_overdeep_expressions_exit_2(tmp_path, capsys):
    # a graph taller than the parser's bound, or a nesting deeper, is an
    # input error; in-process, a RecursionError would escape main()
    for row in ("(" * 3000 + "1" + ")" * 3000, " + ".join(["x1"] * 5000)):
        path = _write(tmp_path, f"[scene]\nm = 2\n\n[base_metric]\nrow1 = {row}; 0\nrow2 = 0; 1\n")
        for argv in (["check", path], ["eval", path, "--object", "dfield.rho", "--point", "x=0,0"]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.count("\n") == 1
            assert err.startswith(f"error: {path}: [base_metric]: expression ")


def test_tallest_double_field_entry_evaluates_rho(tmp_path, capsys):
    # sigma11 = 1 + 0.97*y2^2, written as a sum as tall as the parser allows:
    # "1" is one level, "0.01*y2^2" three, and each "+" adds one.  At m = 4
    # this is the tallest graph a scene can build; it is evaluated at
    # Python's default recursion limit, so evaluation must not recurse.
    points = {
        2: "x=0.3,-0.2;y=0.1,0.4;z=-0.5,0.2",
        4: "x=0.3,-0.2,0.1,0.2;y=0.1,0.4,-0.3,0.2;z=-0.5,0.2,0.1,0.3",
    }

    def rows(m, key, first, second):
        diagonal = [first, second] + ["1"] * (m - 2)
        return "".join(
            f"{key}{i + 1} = " + "; ".join(diagonal[i] if i == j else "0" for j in range(m)) + "\n"
            for i in range(m)
        )

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    try:
        for m, point in points.items():
            rho = {}
            for name, terms in (("tallest", MAX_HEIGHT - 3), ("too tall", MAX_HEIGHT - 2), ("short", 0)):
                entry = " + ".join(["1"] + ["0.01*y2^2"] * terms) if terms else "1 + 0.97*y2^2"
                text = (
                    f"[scene]\nm = {m}\n\n[base_metric]\n{rows(m, 'row', '1', 'exp(2*x1)')}\n"
                    f"[double_field]\n{rows(m, 'sigma', entry, '1')}"
                )
                code = cli.main(["eval", _write(tmp_path, text), "--object", "dfield.rho", "--point", point])
                out, err = capsys.readouterr()
                if name == "too tall":
                    assert code == 2 and "levels tall" in err
                else:
                    assert code == 0, err
                    rho[name] = json.loads(out)["components"][0]
            assert rho["short"] != 0.0
            assert rho["tallest"] == pytest.approx(rho["short"], rel=1e-12)
    finally:
        sys.setrecursionlimit(limit)


def test_parse_point():
    p = cli.parse_point("x=0.1,0.2;y=0.3,0.4;z=0.5,0.6", 2)
    assert p.flat.shape == (6, 1) and p.npoints == 1
    assert np.allclose(p.flat[:, 0], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    # omitted blocks default to zero
    p2 = cli.parse_point("y=1,2", 2)
    assert np.allclose(p2.x[:, 0], 0.0) and np.allclose(p2.y[:, 0], [1, 2])
    with pytest.raises(SceneError):
        cli.parse_point("q=1,2", 2)
    with pytest.raises(SceneError):
        cli.parse_point("x=1", 2)
    with pytest.raises(SceneError, match="coordinate block 'x' is given twice"):
        cli.parse_point("x=0.1;x=0.7;y=0.2;z=0.3", 1)


def test_eval_object_matches_library(capsys):
    scene = str(SCENES / "kitchen-sink.scene")
    code = cli.main(
        ["eval", scene, "--object", "P", "--point", "x=0.1,0.2;y=0.3,0.4;z=0.5,0.6"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    pack = canonical_pack(2)
    pt = cli.parse_point("x=0.1,0.2;y=0.3,0.4;z=0.5,0.6", 2)
    want = pack.P.value(pt)[..., 0]
    assert np.max(np.abs(np.array(payload["components"]) - want)) < 1e-12


def test_eval_spray_hand_value(capsys):
    scene = str(SCENES / "kitchen-sink.scene")
    code = cli.main(
        ["eval", scene, "--object", "spray.eta", "--point", "x=0,0;y=0.5,0.25;z=0,0"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    # L = (1/2)(e^{x1} y1^2 + y2^2): eta1 = -(1/2) y1^2 at x = 0
    assert np.allclose(payload["components"], [-0.125, 0.0])


def test_eval_rho_matches_library(capsys):
    scene = str(SCENES / "flat.scene")
    code = cli.main(
        ["eval", scene, "--object", "dfield.rho", "--point", "x=0.2;y=0.3;z=0.1"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert abs(payload["components"][0]) < 1e-12


def test_check_double_builds_rho_and_its_tape_once(tmp_path, capsys, monkeypatch):
    # the identity suite, the sparse-grid action and the Monte Carlo action (three
    # chunks) share one rho and one integrand tape
    from bigtangent import dfield

    text = (
        "[scene]\nm = 1\nsamples = 4\nmc_samples = 2500\n\n"
        "[double_field]\nsigma1 = 1 + (1/2)*y1^2\ndensity = (1/10)*x1^2\n"
    )
    rhos, compiled = [], []
    curvatures, compile_ = dfield.deformed_curvatures, fields._compile

    def counting_curvatures(nabla, pack):
        out = curvatures(nabla, pack)
        rhos.append(out[2])
        return out

    def counting_compile(keys, memo):
        compiled.append(list(keys))
        return compile_(keys, memo)

    monkeypatch.setattr(dfield, "deformed_curvatures", counting_curvatures)
    monkeypatch.setattr(fields, "_compile", counting_compile)
    assert cli.main(["check", _write(tmp_path, text), "--suite", "double"]) == 0
    capsys.readouterr()
    assert len(rhos) == 1
    # the tape's roots are rho, the density and det sigma, all at order 0
    tapes = [keys for keys in compiled if len(keys) == 3 and keys[0] == (rhos[0], 0)]
    assert len(tapes) == 1


def test_metric_suite_builds_each_connection_once_on_one_batch(capsys, monkeypatch):
    # both metric checks read the metric's one connection, at the suite's
    # one batch of points
    scene = str(SCENES / "kitchen-sink.scene")
    sc = load_scene(scene)
    p = sample_box(sc.m, 3, seed=0)
    for gm in (sc.big_metric, sc.lagrangian_metric):
        nab, _ = metrics.canonical_metric_connection(gm, p)
        assert nab is gm.connection

    built, drawn = [], []
    vranceanu_bott = conns.vranceanu_bott

    def counting_vranceanu_bott(*args, **kwargs):
        built.append(vranceanu_bott(*args, **kwargs))
        return built[-1]

    def counting_sample_box(*args, **kwargs):
        drawn.append(sample_box(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(conns, "vranceanu_bott", counting_vranceanu_bott)
    monkeypatch.setattr(cli, "sample_box", counting_sample_box)
    assert cli.main(["check", scene, "--suite", "metric"]) == 0
    capsys.readouterr()
    assert len(built) == 2  # the big metric's and the Lagrangian metric's
    assert len(drawn) == 1


def test_vector_field_cannot_take_a_builtin_name(tmp_path, capsys):
    # such a vector field would hide the built-in object from `eval`, or
    # be hidden by it
    for name in ("lambda", "metric.tensor", "dfield.rho"):
        path = _write(tmp_path, f"[scene]\nm = 1\n\n[vector_fields]\n{name} = 1; 2; 3\n")
        message = f"{path}: [vector_fields]: {name}: reserved for a built-in object"
        with pytest.raises(SceneError) as info:
            load_scene(path)
        assert str(info.value) == message
        assert cli.main(["eval", path, "--object", name, "--point", "x=0;y=0;z=0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"


_M3_SCENE = """\
[scene]
m = 3

[base_metric]
row1 = 1; 0; 0
row2 = 0; exp(2*x1); 0
row3 = 0; 0; 1
"""


@pytest.mark.parametrize("name", ["flat", "kitchen-sink", "m3"])
def test_eval_every_builtin_object(tmp_path, capsys, name):
    path = _write(tmp_path, _M3_SCENE) if name == "m3" else str(SCENES / f"{name}.scene")
    sc = load_scene(path)
    m = sc.m
    point = ";".join(f"{b}=" + ",".join(str(0.1 * (k + 1)) for k in range(m)) for b in "xyz")
    names = [n for n in OBJECTS if sc.spray is not None or not n.startswith("spray.")]
    assert len(names) == (16 if name == "kitchen-sink" else 14)
    for obj in names:
        assert cli.main(["eval", path, "--object", obj, "--point", point]) == 0, obj
        payload = json.loads(capsys.readouterr().out)
        vals = np.asarray(payload["components"], dtype=float)
        assert payload["object"] == obj and list(vals.shape) == payload["shape"]
        assert np.isfinite(vals).all(), obj


def test_eval_spray_without_a_lagrangian_is_unknown(capsys):
    path = str(SCENES / "flat.scene")
    assert cli.main(["eval", path, "--object", "spray.eta", "--point", "x=0;y=0;z=0"]) == 2
    out, err = capsys.readouterr()
    known = (
        "H.t, H.tau, P, Q, S, U, dfield.density, dfield.psi, dfield.sigma, g_V, lambda, "
        "metric.tensor, omega_V, dfield.rho"
    )
    assert out == "" and err == f"error: unknown object 'spray.eta' (known: {known})\n"


def test_load_builds_the_spray_once(tmp_path, monkeypatch):
    # its bundle carries the Lagrangian metric and, without another source,
    # the scene's bundle and the Lagrangian double field
    from bigtangent import horizon

    built = []
    spray_from_lagrangian = horizon.spray_from_lagrangian

    def counting(L, m):
        built.append(L)
        return spray_from_lagrangian(L, m)

    monkeypatch.setattr(horizon, "spray_from_lagrangian", counting)
    load_scene(str(SCENES / "kitchen-sink.scene"))
    assert len(built) == 1
    built.clear()
    sc = load_scene(_write(tmp_path, "[scene]\nm = 1\n\n[lagrangian]\nL = exp(x1)*y1^2/2\n"))
    assert len(built) == 1
    assert sc.bundle is sc.double_field.H is sc.lagrangian_metric.H


def test_eval_builds_only_the_object_it_names(capsys, monkeypatch):
    from bigtangent import bigcore

    packs = []
    canonical = bigcore.canonical_pack

    def counting(m):
        packs.append(m)
        return canonical(m)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("bigtangent") and getattr(mod, "canonical_pack", None) is canonical:
            monkeypatch.setattr(mod, "canonical_pack", counting)
    path = str(SCENES / "kitchen-sink.scene")
    point = "x=0.1,0.2;y=0.3,0.4;z=0.5,0.6"
    assert cli.main(["eval", path, "--object", "metric.tensor", "--point", point]) == 0
    assert packs == []
    assert cli.main(["eval", path, "--object", "P", "--point", point]) == 0
    assert packs == [2]
    capsys.readouterr()


def test_docs_name_every_reserved_object_name():
    # keys are stored lowercased, so only a lowercase built-in name can
    # clash with a vector field
    text = (Path(__file__).resolve().parent.parent / "docs" / "scene-format.md").read_text()
    section = text.split("### `[vector_fields]`")[1].split("###")[0]
    reserved, rest = section.split("are input errors")
    lowercase = {n for n in OBJECTS if n == n.lower()}
    assert set(re.findall(r"`([^`]+)`", reserved.split(":", 1)[1])) == lowercase
    assert set(re.findall(r"`([^`]+)`", rest)) == set(OBJECTS) - lowercase


def test_load_scene_lets_program_errors_propagate(tmp_path, monkeypatch):
    # only input errors become SceneError (exit 2); a TypeError is a bug
    def broken(g, H):
        raise TypeError("bug inside sasaki_type_metric")

    monkeypatch.setattr(metrics, "sasaki_type_metric", broken)
    with pytest.raises(TypeError, match="bug inside"):
        load_scene(_write(tmp_path, "[scene]\nm = 1\n"))


_FUZZ_TOKENS = (
    "x1", "y2", "z1", "x5", "q1", "exp(", "log(x1)", "sqrt(y1 - 2)", "1/0", "0/0",
    "-x1^2", "x1^", "x1^-1", "^", "(", ")", ";", "1; 2; 3", "", "nan", "inf", "1e400",
    "0", "-1", "2.5e-3", "[", "=", "%(m)s", "exp(exp(exp(9)))", "x1^40",
)


@st.composite
def _mutated_scene(draw):
    # kitchen-sink twice: it is the only shipped scene with expression tables
    name = draw(st.sampled_from(["kitchen-sink", "kitchen-sink", "flat", "perturbed"]))
    lines = (SCENES / f"{name}.scene").read_text().splitlines()
    for _ in range(draw(st.integers(1, 2))):
        keyed = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
        if not keyed:
            break
        i = draw(st.sampled_from(keyed))
        key, _, value = lines[i].partition("=")
        entries = value.split(";")
        op = draw(st.sampled_from(["drop", "duplicate", "token", "garbage", "m"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op in ("token", "garbage"):
            # replace one entry of a row, so the row keeps its length
            k = draw(st.integers(0, len(entries) - 1))
            if op == "token":
                entries[k] = draw(st.sampled_from(_FUZZ_TOKENS))
            else:
                entries[k] = draw(st.text(string.printable + "üπ", max_size=12))
            lines[i] = f"{key}= " + ";".join(entries)
        else:
            m = draw(st.integers(0, 5))
            lines = [f"m = {m}" if re.match(r"m\s*=", line) else line for line in lines]
    return "\n".join(lines) + "\n"


def _main_on_scene(text, argv):
    """In-process ``main`` on ``text`` written to a scene file, output discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.scene")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([argv[0], path, *argv[1:]])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_mutated_scene())
def test_fuzzed_scenes_exit_0_or_2(text):
    found = re.search(r"(?m)^m\s*=\s*([1-4])\s*$", text)
    m = int(found.group(1)) if found else 1
    point = ";".join(f"{b}=" + ",".join(["0.25"] * m) for b in "xyz")
    assert _main_on_scene(text, ["eval", "--object", "H.t", "--point", point]) in (0, 2)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_mutated_scene())
def test_fuzzed_scenes_check_exits_0_1_or_2(text):
    # the triple suite is the cheapest; loading still builds every object
    assert _main_on_scene(text, ["check", "--suite", "triple"]) in (0, 1, 2)
