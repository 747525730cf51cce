"""Command line front end: scene checking, object evaluation, version.

Exit code contract: 0 all identities pass, 1 at least one identity
fails, 2 input error (bad scene, unknown object, bad point, a scene
expression evaluated outside its domain, such as log of a non-positive
value, whose message names the suite or object and the chart point, or
a derived object that fails its check, whose message names the suite
or object).
Reports are emitted as JSON and are byte-identical across runs for the
same scene, seed, and flags; each suite evaluates its fields at one
batch of points, and report assembly is sequential and ordered.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, bigcore, conns, dfield, fields, gstruct, horizon
from . import metrics, scene as scene_mod, tensorcalc as tc
from .points import ChartPoint, parse_point, sample_box
from .scene import SceneError, SceneFile, load_scene, located


# -- suite runners ---------------------------------------------------------
def _suite_canonical(sc: SceneFile, seed, samples, tol) -> list:
    return [
        bigcore.verify_section2(
            sc.m, seed, samples, tol=tol, perturb_S=sc.perturb_s
        )
    ]


def _suite_triple(sc: SceneFile, seed, samples, tol) -> list:
    m = sc.m
    T = bigcore.canonical_pack(m)
    p = sample_box(m, samples, seed=seed)
    rep = gstruct.triple_axiom_check(T, p, tol=tol)
    Delta = [tc.basis_vector(2 * m + i, m) for i in range(m)]
    rep.extend(gstruct.integrability_check(T, p, Delta=Delta, tol=tol, seed=seed))
    frame = []
    for k in range(min(samples, 10)):
        frame += gstruct.frame_residuals(T, gstruct.adapted_frame(T, p.select(k))).values()
    rep.add("adapted frame reconstructs the canonical pair", *frame)
    return [rep]


def _suite_horizontal(sc: SceneFile, seed, samples, tol) -> list:
    p = sample_box(sc.m, samples, seed=seed)
    rep = conns.verify_section4(sc.big_metric, p, tol=tol)
    if sc.spray is not None:
        rep.add(
            "spray satisfies the Lagrangian field equation",
            horizon.lagrangian_spray_residual(sc.lagrangian, sc.spray, p),
        )
        Q, _ = horizon.second_order_projector(sc.spray)
        rep.add(
            "second-order projector satisfies Q^3 = Q", horizon.projector_defect(Q, p), tol=1e-10
        )
    return [rep]


def _suite_metric(sc: SceneFile, seed, samples, tol) -> list:
    p = sample_box(sc.m, samples, seed=seed)
    reports = []
    for gm, title in (
        (sc.big_metric, None),
        (sc.lagrangian_metric, "lagrangian metric identities"),
    ):
        if gm is None:
            continue
        rep = metrics.canonical_metric_connection(gm, p, tol=tol)
        rep.extend(metrics.curvature_identity_suite(gm, p, tol=max(tol, 1e-7)))
        rep.title = title or rep.title
        reports.append(rep)
    return reports


def _suite_double(sc: SceneFile, seed, samples, tol) -> list:
    F = sc.double_field
    rep = dfield.verify_double_field(F, seed=seed, n=samples, tol=tol)
    quad = dfield.action(F, box=sc.box, method="sparse")
    mc = dfield.action(F, box=sc.box, method="mc", samples=sc.mc_samples, seed=seed)
    rep.meta["action_value"] = quad.value
    rep.meta["action_quadrature_error"] = quad.error
    rep.meta["action_mc_value"] = mc.value
    rep.meta["action_mc_stderr"] = mc.error
    rep.add_bool(
        "action values are finite",
        bool(np.isfinite([quad.value, quad.error, mc.value, mc.error]).all()),
    )
    rep.add_bool(
        "monte carlo action is within four standard errors of the quadrature",
        abs(mc.value - quad.value) <= 4.0 * mc.error + quad.error + 1e-12,
    )
    return [rep]


_SUITES = dict(zip(
    scene_mod.SUITE_NAMES,
    (_suite_canonical, _suite_triple, _suite_horizontal, _suite_metric, _suite_double),
    strict=True))


def run_suites(
    sc: SceneFile,
    which=None,
    seed: int | None = None,
    samples: int | None = None,
    tol: float | None = None,
) -> tuple[int, dict]:
    """Run the selected verification suites; return (exit code, report).

    ``which`` defaults to the scene's suite selection; seed, samples,
    and tol override the scene's values when given.  An input error
    inside a suite raises a SceneError that names it, ``suite NAME: ...``.
    """
    which = list(which) if which else list(sc.suites)
    if err := scene_mod.suite_error(which):
        raise SceneError(err)
    seed = sc.seed if seed is None else seed
    samples = sc.samples if samples is None else samples
    out = {
        "tool": "bigtangent",
        "version": __version__,
        "scene": sc.path,
        "m": sc.m,
        "seed": seed,
        "samples": samples,
        "suites": [],
    }
    all_pass = True
    for name in which:
        with located(f"suite {name}"):
            reports = _SUITES[name](sc, seed, samples, sc.suite_tol(name, tol))
        ok = all(r.passed for r in reports)
        all_pass &= ok
        out["suites"].append(
            {"suite": name, "pass": ok, "reports": [r.as_dict() for r in reports]}
        )
    out["pass"] = all_pass
    return (0 if all_pass else 1), out


# -- point evaluation ------------------------------------------------------
def eval_object(sc: SceneFile, name: str, point: ChartPoint) -> dict:
    """Evaluate a named object of the scene at one chart point; an input
    error in it raises a SceneError that names it, ``object NAME: ...``."""
    objects = sc.objects()
    if name not in objects:
        known = ", ".join(sorted(n for n in objects if n != "dfield.rho") + ["dfield.rho"])
        raise SceneError(f"unknown object {name!r} (known: {known})")
    with located(f"object {name}"):
        comps = np.asarray(objects[name](sc), dtype=object)
        vals = fields.fvalue(comps, point)[..., 0]
    return {
        "object": name,
        "frame": "natural",
        "shape": list(vals.shape),
        "components": vals.tolist(),
    }


# -- entry point -----------------------------------------------------------
def _in_range(key: str, convert):
    """An argparse type: ``convert``, then the scene file's range for ``key``."""

    def parse(text):
        value = convert(text)
        err = scene_mod.option_error(key, value)
        if err:
            raise argparse.ArgumentTypeError(err)
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _emit(payload: dict, json_path: str | None):
    """Write the report to ``json_path``, when given, then to stdout: a path
    that cannot be written fails the run before anything is printed."""
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


# Built once per process: a parser holds reference cycles.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bigtangent",
        description="Verify big-tangent geometry identities from scene files.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run verification suites on a scene")
    p_check.add_argument("scene")
    p_check.add_argument("--suite", action="append", default=None)
    p_check.add_argument("--seed", type=_in_range("seed", int), default=None)
    p_check.add_argument("--samples", type=_in_range("samples", int), default=None)
    p_check.add_argument("--tol", type=_in_range("tol", float), default=None)
    p_check.add_argument("--json", dest="json_path", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a named object at a point")
    p_eval.add_argument("scene")
    p_eval.add_argument("--object", required=True)
    p_eval.add_argument("--point", required=True)
    p_eval.add_argument("--json", dest="json_path", default=None)

    sub.add_parser("version", help="print the package version")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    return _run(args)


# Graphs hold no cycles, so reference counting frees them; the collector
# resumes after _run returns, so no collection scans a command's graphs.
@fields.collector_paused()
@np.errstate(all="ignore")  # checks report non-finite samples
def _run(args) -> int:
    try:
        sc = load_scene(args.scene)
        if args.command == "check":
            code, payload = run_suites(
                sc,
                which=args.suite,
                seed=args.seed,
                samples=args.samples,
                tol=args.tol,
            )
            _emit(payload, args.json_path)
            return code
        point = parse_point(args.point, sc.m)
        payload = eval_object(sc, args.object, point)
        _emit(payload, args.json_path)
        return 0
    except (OSError, ValueError) as exc:  # a SceneError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
