"""Command line front end: scene checking, object evaluation, version.

Exit code contract: 0 all identities pass, 1 at least one identity
fails, 2 input error (bad scene, unknown object, bad point, or a scene
expression evaluated outside its domain, such as log of a non-positive
value; its message names the suite or object and the chart point).
Reports are emitted as JSON and are byte-identical across runs for the
same scene, seed, and flags; each suite evaluates its fields at one
batch of points, and report assembly is sequential and ordered.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, bigcore, conns, dfield, fields, gstruct, horizon
from . import metrics, scene as scene_mod, tensorcalc as tc
from .jets import JetDomainError
from .points import ChartPoint, sample_box
from .scene import SceneError, SceneFile, load_scene


# -- suite runners ---------------------------------------------------------
def _suite_canonical(sc: SceneFile, seed, samples, tol) -> list:
    return [
        bigcore.verify_section2(
            sc.m, seed, samples, tol=tol, perturb_S=sc.perturb_s
        )
    ]


def _suite_triple(sc: SceneFile, seed, samples, tol) -> list:
    m = sc.m
    T = gstruct.triple_from_pack(bigcore.canonical_pack(m))
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
    rep = conns.verify_section4(sc.bundle, sc.big_metric.tensor, p, tol=tol)
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
        _, rep = metrics.canonical_metric_connection(gm, p, tol=tol)
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


_SUITES = {
    "canonical": _suite_canonical,
    "triple": _suite_triple,
    "horizontal": _suite_horizontal,
    "metric": _suite_metric,
    "double": _suite_double,
}


def run_suites(
    sc: SceneFile,
    which=None,
    seed: int | None = None,
    samples: int | None = None,
    tol: float | None = None,
) -> tuple[int, dict]:
    """Run the selected verification suites; return (exit code, report).

    ``which`` defaults to the scene's suite selection; seed, samples,
    and tol override the scene's values when given.
    """
    which = list(which) if which else list(sc.suites)
    for k, name in enumerate(which):
        if name not in _SUITES:
            raise SceneError(f"unknown suite {name!r}")
        if name in which[:k]:
            raise SceneError(f"suite {name!r} is named twice")
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
        try:
            reports = _SUITES[name](sc, seed, samples, sc.suite_tol(name, tol))
        except JetDomainError as err:
            err.where = f"suite {name}"
            raise
        ok = all(r.passed for r in reports)
        all_pass &= ok
        out["suites"].append(
            {"suite": name, "pass": ok, "reports": [r.as_dict() for r in reports]}
        )
    out["pass"] = all_pass
    return (0 if all_pass else 1), out


# -- point evaluation ------------------------------------------------------
def parse_point(text: str, m: int) -> ChartPoint:
    """Parse "x=a,b;y=c,d;z=e,f" into a one-point batch."""
    blocks = {"x": None, "y": None, "z": None}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise SceneError(f"bad point component {part!r}")
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in blocks:
            raise SceneError(f"unknown coordinate block {key!r}")
        if blocks[key] is not None:
            raise SceneError(f"coordinate block {key!r} is given twice")
        try:
            arr = np.array([float(v) for v in vals.split(",")], dtype=float)
        except ValueError as exc:
            raise SceneError(f"bad number in {part!r}: {exc}") from exc
        if arr.shape != (m,):
            raise SceneError(f"{key} needs {m} values, got {arr.size}")
        blocks[key] = arr
    for key, arr in blocks.items():
        if arr is None:
            blocks[key] = np.zeros(m)
    return ChartPoint(blocks["x"], blocks["y"], blocks["z"])


def eval_object(sc: SceneFile, name: str, point: ChartPoint) -> dict:
    """Evaluate a named object of the scene at one chart point."""
    objects = sc.objects()
    if name not in objects:
        known = ", ".join(sorted(n for n in objects if n != "dfield.rho") + ["dfield.rho"])
        raise SceneError(f"unknown object {name!r} (known: {known})")
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


def main(argv=None) -> int:
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

    args = ap.parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
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
        try:
            payload = eval_object(sc, args.object, point)
        except JetDomainError as err:
            err.where = f"object {args.object}"
            raise
        _emit(payload, args.json_path)
        return 0
    except (SceneError, OSError, ValueError, JetDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
