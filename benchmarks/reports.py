"""Write the reports of one checkout, for a byte-identity check between two.

Usage::

    python3 benchmarks/reports.py --root CHECKOUT --out DIR
    diff -r DIR_A DIR_B

For each run below, the script writes ``NAME.out``, ``NAME.err`` and
``NAME.code`` (stdout, stderr and the exit code) into ``DIR``.  Every run
is a fresh interpreter with ``CHECKOUT/src`` on ``PYTHONPATH``, and every
scene is named by a path that is the same for any checkout, so two
directories written from two checkouts differ only where the program's
output does:

- ``check`` on each ``scenes/*.scene`` (run from ``CHECKOUT``);
- ``check`` on the four bundle-source scenes of
  ``test_check_passes_on_every_bundle_source``, read from that test's
  ``_BUNDLE_SOURCES`` table in ``CHECKOUT/tests/test_scene_cli.py``;
- ``check`` on the perfbench m3-identities scene at benchmark seed 7,
  written by ``make_inputs`` of ``CHECKOUT/perfbench/workloads.py``;
- ``verify_double_field(F, seed=S, n=10).as_dict()`` as JSON for that
  scene's double field, with S its scene seed, as the benchmark's
  m3-identities body calls it (``verify-m3``): the scene's own suites
  leave out the double suite, so this is the one m = 3 run of the base
  connection c0 and the Ricci trace;
- ``check``, all five suites, on the ROADMAP's Baseline m = 4 scene,
  ``M4_SCENE`` below, which this script writes (its double suite is the
  heaviest integrand run, about 12,500 sparse-grid points);
- ``check``, all five suites, on ``LAGRANGIAN_SCENE`` below, an m = 2
  scene with a ``[lagrangian]`` and no ``[base_metric]`` or
  ``[double_field]``, which this script writes: its double field is the
  Lagrangian one (``dfield.field_from_lagrangian``) over the spray's
  bundle, which no other run here builds;
- ``eval --object NAME`` for every name of ``EVAL_OBJECTS`` on
  ``scenes/kitchen-sink.scene`` and ``scenes/flat.scene``, at the scene's
  point in ``EVAL_POINTS``.  On ``flat``, which has no Lagrangian and no
  vector field, ``spray.*`` and ``w`` exit 2 as unknown objects;
- ``check`` on each scene of ``ERROR_SCENES``, which this script writes:
  each exits 2 with one ``error:`` line, so the load-time and suite-time
  input errors, their text and their order, are pinned too.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

M3_SEED = 7  # the perfbench seed whose m3-identities scene is checked
# the 16 built-in names of scene.OBJECTS, then kitchen-sink's vector field
EVAL_OBJECTS = (
    "S", "P", "Q", "U", "lambda", "g_V", "omega_V", "H.t", "H.tau", "metric.tensor",
    "dfield.sigma", "dfield.psi", "dfield.density", "dfield.rho", "spray.eta", "spray.zeta",
    "w",
)
# scene -> the --point of its eval runs, in the scene's m
EVAL_POINTS = {"kitchen-sink": "x=0.3,-0.2;y=0.1,0.4;z=-0.5,0.2", "flat": "x=0.3;y=0.1;z=-0.5"}
# the scene header that test_check_passes_on_every_bundle_source writes
BUNDLE_HEADER = "[scene]\nm = 2\nsamples = 6\nmc_samples = 64\n\n"
# the ROADMAP's Baseline m = 4 scene
M4_SCENE = """\
[scene]
m = 4
seed = 0
samples = 10
mc_samples = 1024

[base_metric]
row1 = 1; 0; 0; 0
row2 = 0; exp(2*x1); 0; 0
row3 = 0; 0; 1 + x2^2/10; 0
row4 = 0; 0; 0; 1

[lagrangian]
L = (1/2)*(exp(x1)*y1^2 + y2^2 + y3^2 + y4^2)

[vector_fields]
w = y1; 0 - x2; z1*z2; 1; 0; x1*y2; 0; 0; 0; 0; 0; 0

[double_field]
sigma1 = 1 + (1/2)*y2^2; 0; 0; 0
sigma2 = 0; 1; 0; 0
sigma3 = 0; 0; 1 + y1^2/10; 0
sigma4 = 0; 0; 0; 1
psi1 = 0; x1*y2; 0; 0
psi2 = 0 - x1*y2; 0; 0; 0
psi3 = 0; 0; 0; x3
psi4 = 0; 0; 0 - x3; 0
density = (x1^2 + y1^2 + x4^2)/10
"""
# an m = 2 scene with a Lagrangian alone: the double field of L over its spray
LAGRANGIAN_SCENE = """\
[scene]
m = 2
samples = 6
mc_samples = 64

[lagrangian]
L = (1/2)*(exp(x1)*y1^2 + y2^2)
"""
# name -> a scene that ``check`` refuses: the three bundles whose lift
# overflows, a domain error and an inverse that overflows at load, the
# loader's checks of sigma, psi and the Hessian, and a domain error
# inside the double suite
ERROR_SCENES = {
    "lift-overflow-t": "[scene]\nm = 1\n\n[horizontal_bundle]\nt1 = 1e200\n",
    "lift-overflow-tau": "[scene]\nm = 1\n\n[horizontal_bundle]\ntau1 = 1e200\n",
    "lift-overflow-connection": "[scene]\nm = 1\n\n[connection]\nc1_1 = 1e200\n",
    "base-metric-log": "[scene]\nm = 1\n\n[base_metric]\nrow1 = log(x1)\n",
    "sigma-inverse-overflows": "[scene]\nm = 1\n\n[double_field]\nsigma1 = 1e-320\n",
    "sigma-not-symmetric": "[scene]\nm = 2\n\n[double_field]\nsigma1 = 1; 1\nsigma2 = 0; 1\n",
    "psi-not-antisymmetric": (
        "[scene]\nm = 2\n\n[double_field]\nsigma1 = 1; 0\nsigma2 = 0; 1\n"
        "psi1 = 0; x1\npsi2 = x1; 0\n"
    ),
    "hessian-singular": "[scene]\nm = 1\n\n[lagrangian]\nL = x1*y1\n",
    "density-log": (
        "[scene]\nm = 2\nsuites = double\n\n[double_field]\n"
        "sigma1 = 1; 0\nsigma2 = 0; 1\ndensity = 2 + log(x1)\n"
    ),
}
VERIFY = (
    "import json, sys\n"
    "from bigtangent import dfield, scene\n"
    "sc = scene.load_scene(sys.argv[1])\n"
    "rep = dfield.verify_double_field(sc.double_field, seed=int(sys.argv[2]), n=10)\n"
    "print(json.dumps(rep.as_dict(), indent=2))\n"
)


def bundle_sources(root: Path) -> dict:
    """The test's ``_BUNDLE_SOURCES`` literal, read without importing it."""
    tree = ast.parse((root / "tests" / "test_scene_cli.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_BUNDLE_SOURCES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit("error: no _BUNDLE_SOURCES in tests/test_scene_cli.py")


def m3_scene(root: Path, work: Path) -> tuple[str, int]:
    """(scene file name in ``work``, scene seed) of perfbench's m3 workload."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    sys.dont_write_bytecode = True  # leave the checkout's perfbench/ as it is
    spec.loader.exec_module(workloads)
    workloads.WORK = work
    inp = workloads.make_inputs("m3-identities", M3_SEED)
    return Path(inp.scene).name, inp.scene_seed


def run(out: Path, name: str, argv: list, cwd: Path, src: Path):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True
    )
    (out / f"{name}.out").write_text(proc.stdout)
    (out / f"{name}.err").write_text(proc.stderr)
    (out / f"{name}.code").write_text(f"{proc.returncode}\n")
    print(f"{name}: exit {proc.returncode}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()
    out = Path(args.out).resolve()
    work = out / "scenes"
    work.mkdir(parents=True, exist_ok=True)
    src = root / "src"
    cli = ["-m", "bigtangent.cli"]

    for path in sorted((root / "scenes").glob("*.scene")):
        run(out, f"check-{path.stem}", cli + ["check", f"scenes/{path.name}"], root, src)
    for k, (source, table) in enumerate(bundle_sources(root).items()):
        name = f"bundle-{k}.scene"
        (work / name).write_text(f"# {source}\n" + BUNDLE_HEADER + table)
        run(out, f"check-bundle-{k}", cli + ["check", name], work, src)
    name, scene_seed = m3_scene(root, work)
    run(out, "check-m3", cli + ["check", name], work, src)
    run(out, "verify-m3", ["-c", VERIFY, name, str(scene_seed)], work, src)
    (work / "m4.scene").write_text(M4_SCENE)
    run(out, "check-m4", cli + ["check", "m4.scene"], work, src)
    (work / "lagrangian.scene").write_text(LAGRANGIAN_SCENE)
    run(out, "check-lagrangian", cli + ["check", "lagrangian.scene"], work, src)
    for stem, point in EVAL_POINTS.items():
        for obj in EVAL_OBJECTS:
            argv = ["eval", f"scenes/{stem}.scene", "--object", obj, "--point", point]
            run(out, f"eval-{stem}-{obj}", cli + argv, root, src)
    for stem, text in ERROR_SCENES.items():
        (work / f"error-{stem}.scene").write_text(text)
        run(out, f"error-{stem}", cli + ["check", f"error-{stem}.scene"], work, src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
