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
  scene's double field, with S its scene seed, as the benchmark calls it;
- ``eval kitchen-sink.scene --object dfield.rho`` at one fixed point.
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
RHO_POINT = "x=0.3,-0.2;y=0.1,0.4;z=-0.5,0.2"
# the scene header that test_check_passes_on_every_bundle_source writes
BUNDLE_HEADER = "[scene]\nm = 2\nsamples = 6\nmc_samples = 64\n\n"
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
    run(
        out,
        "eval-rho",
        cli + ["eval", "scenes/kitchen-sink.scene", "--object", "dfield.rho", "--point", RHO_POINT],
        root,
        src,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
