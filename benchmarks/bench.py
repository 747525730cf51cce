"""Record one perfbench run of every workload as ``BENCH_<label>.json``.

Usage::

    python3 benchmarks/bench.py --label after [--root CHECKOUT]

For each workload that ``perfbench/run.py`` of ``CHECKOUT`` (default: this
checkout) defines, the script runs ``python3 perfbench/run.py --workload W
--seed 1 --trace 0`` there as a subprocess and keeps the JSON object that run
prints on its last line.  It adds the git revision of the checkout (with
``-dirty`` when ``src/`` has uncommitted changes), a sha256 over its ``src/bigtangent/*.py``
files (names and contents, in name order), so a dirty tree can be tied to
the files it measured, and the line count of those files
(``cat src/bigtangent/*.py | wc -l``), and writes the result into this
directory as ``BENCH_<label>.json``.  When any workload reports
``correct: false`` or a failed operation, it names them on stderr, writes
nothing and exits 1.  Every file is taken
with perfbench's default seed 1, so any two files compare two revisions when
taken one after the other on the same machine; the perfbench times are
already scaled to a reference host speed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1  # perfbench's default seed


def perfbench_workloads(root: Path) -> list[str]:
    """The workload names that ``perfbench/run.py`` of ``root`` defines."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def run_workload(root: Path, workload: str) -> dict:
    """The JSON object on the last line of one untraced perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git(root: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)


def _src_files(root: Path) -> list[Path]:
    return sorted((root / "src" / "bigtangent").glob("*.py"))


def src_lines(root: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in _src_files(root))


def src_sha256(root: Path) -> str:
    """sha256 over each source file's name and contents, in name order."""
    digest = hashlib.sha256()
    for path in _src_files(root):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def failures(workloads: dict) -> list[str]:
    """The workloads whose run is not correct or failed an operation."""
    return [
        f"{name}: correct={run.get('correct')} failed={run.get('failed')}"
        for name, run in workloads.items()
        if run.get("correct") is not True or run.get("failed") != 0
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    ap.add_argument("--root", type=Path, default=HERE.parent,
                    help="checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    revision = _git(root, "rev-parse", "HEAD").stdout.strip()
    if _git(root, "diff", "--quiet", "HEAD", "--", "src").returncode:
        revision += "-dirty"  # src/ differs from the commit
    workloads = {w: run_workload(root, w) for w in perfbench_workloads(root)}
    bad = failures(workloads)
    if bad:
        print("not written, a workload failed:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    result = {
        "label": args.label,
        "revision": revision,
        "src_sha256": src_sha256(root),
        "src_lines": src_lines(root),
        "seed": SEED,
        "workloads": workloads,
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
