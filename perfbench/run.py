"""Benchmark of the bigtangent verifier: three workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kitchen-sink --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --write-spec                       # rewrite BENCHMARK.json
    python3 perfbench/run.py --write-manifest                   # rebuild the identity manifest

With ``--trace 0`` a run measures the end-to-end metrics with no probes
installed: set-up time in fresh interpreters, the wall time of the workload's
body, ``bigtangent eval`` probe latencies and the peak memory of the process.
Times are scaled to a reference host speed, measured while they are taken
(``hostspeed.py``), because the shared host's own speed drifts by more than
the bounds; each unscaled median is printed beside its metric.
With ``--trace 1`` it runs the body once untraced and twice traced, reports
the per-layer metrics of the traced runs, checks that every count repeats
exactly, and writes the spans to ``.perfbench/trace-<workload>-<seed>.json``.

Each run checks the program's outputs (see ``workloads.py``) and prints, as
its last line, one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout; no package needs to be installed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Cap BLAS and OpenMP threads at the cores this process may use, before
# numpy loads; the set-up children inherit the setting.
for _var in THREAD_VARS:
    _cur = os.environ.get(_var, "")
    if not _cur.isdigit() or not 1 <= int(_cur) <= NPROC:
        os.environ[_var] = str(NPROC)

SETUP_REPEATS = 5
SETUP_SPINS = 30  # host-speed spins before and after each set-up interpreter
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import bigtangent\n"
    "from bigtangent import scene\n"
    "scene.load_scene(sys.argv[1])\n"
    "print(repr(time.perf_counter() - t0))\n"
)

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 12,
    "workloads": [
        {
            "name": "kitchen-sink",
            "why": "check, all 5 suites, on the m = 2 kitchen-sink scene with 1024 Monte Carlo "
            "samples: action quadrature dominates, so the jet multiply kernel sets the time",
        },
        {
            "name": "m3-identities",
            "why": "m = 3 scene, four suites plus double-field identities: 9 chart "
            "variables, 10 points, no quadrature, so field-graph build and traversal dominate",
        },
        {
            "name": "rho-probe",
            "why": "one-point eval of dfield.rho on kitchen-sink: every probe rebuilds "
            "the curvature graph at batch width 1, so per-call and graph-build cost show",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "probe_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "probe_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "scene.load_s", "unit": "s", "better": "lower"},
        {"name": "exprdsl.parse_calls", "unit": "count", "better": "lower"},
        {"name": "multiindex.spaces_built", "unit": "count", "better": "lower"},
        {"name": "multiindex.table_s", "unit": "s", "better": "lower"},
        {"name": "fields.nodes_built", "unit": "count", "better": "lower"},
        {"name": "fields.build_s", "unit": "s", "better": "lower"},
        {"name": "fields.jet.calls", "unit": "count", "better": "lower"},
        {"name": "fields.jet.hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "fields.jet.max_order", "unit": "order", "better": "lower"},
        {"name": "jets.mul.calls", "unit": "count", "better": "lower"},
        {"name": "jets.mul.s", "unit": "s", "better": "lower"},
        {"name": "jets.mul.terms_mean", "unit": "terms", "better": "lower"},
        {"name": "jets.mul.width_mean", "unit": "points", "better": "higher"},
        {"name": "jets.compose.calls", "unit": "count", "better": "lower"},
        {"name": "jets.partial.calls", "unit": "count", "better": "lower"},
        {"name": "kernels.mul_accum.s", "unit": "s", "better": "lower"},
        {"name": "kernels.mul_accum.flops_computed", "unit": "flop", "better": "lower"},
        {"name": "kernels.mul_accum.bytes_computed", "unit": "B", "better": "lower"},
        {"name": "kernels.mul_accum.flops_per_byte", "unit": "flop/B", "better": "higher"},
        {"name": "cli.suite.canonical.s", "unit": "s", "better": "lower"},
        {"name": "cli.suite.triple.s", "unit": "s", "better": "lower"},
        {"name": "cli.suite.horizontal.s", "unit": "s", "better": "lower"},
        {"name": "cli.suite.metric.s", "unit": "s", "better": "lower"},
        {"name": "cli.suite.double.s", "unit": "s", "better": "lower"},
        {"name": "dfield.verify_s", "unit": "s", "better": "lower"},
        {"name": "dfield.action.points", "unit": "count", "better": "lower"},
        {"name": "dfield.action.s", "unit": "s", "better": "lower"},
        {"name": "dfield.action.us_per_point", "unit": "us", "better": "lower"},
        {"name": "report.assemble_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace.layers_absent", "unit": "count", "better": "lower"},
    ],
}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# per-layer metric -> (probe it needs, how to read it off a finished Tracer)
def _span(name):
    return lambda tr, spans: spans.get(name, (0.0,))[0]


def _count(name):
    return lambda tr, spans: tr.counts.get(name, 0)


def _ratio(num, den, scale=1.0):
    return lambda tr, spans: scale * num(tr, spans) / den(tr, spans) if den(tr, spans) else 0.0


def _secs(name):
    return lambda tr, spans: tr.seconds.get(name, 0.0)


LAYER_METRICS = {
    "scene.load_s": ("scene", _span("scene.load")),
    "exprdsl.parse_calls": ("exprdsl", _count("exprdsl.parse.calls")),
    "multiindex.spaces_built": ("multiindex", _count("multiindex.spaces_built")),
    "multiindex.table_s": ("multiindex", _secs("multiindex.table")),
    "fields.nodes_built": ("fields.nodes", _count("fields.nodes_built")),
    "fields.build_s": ("fields.build", _span("fields.build")),
    "fields.jet.calls": ("fields.jet", _count("fields.jet.calls")),
    "fields.jet.hit_ratio": ("fields.jet", _ratio(_count("fields.jet.hits"), _count("fields.jet.calls"))),
    "fields.jet.max_order": ("fields.jet", _count("fields.jet.max_order")),
    "jets.mul.calls": ("jets", _count("jets.mul.calls")),
    "jets.mul.s": ("jets", _secs("jets.mul")),
    "jets.mul.terms_mean": ("jets", _ratio(_count("jets.mul.terms"), _count("jets.mul.calls"))),
    "jets.mul.width_mean": ("jets", _ratio(_count("jets.mul.width"), _count("jets.mul.calls"))),
    "jets.compose.calls": ("jets.compose", _count("jets.compose.calls")),
    "jets.partial.calls": ("jets", _count("jets.partial.calls")),
    "kernels.mul_accum.s": ("kernels", _secs("kernels.mul_accum")),
    "kernels.mul_accum.flops_computed": ("kernels", _count("kernels.mul_accum.flops")),
    "kernels.mul_accum.bytes_computed": ("kernels", _count("kernels.mul_accum.bytes")),
    "kernels.mul_accum.flops_per_byte": (
        "kernels", _ratio(_count("kernels.mul_accum.flops"), _count("kernels.mul_accum.bytes"))),
    **{
        f"cli.suite.{s}.s": ("cli.suites", _span(f"cli.suite.{s}"))
        for s in ("canonical", "triple", "horizontal", "metric", "double")
    },
    "dfield.verify_s": ("dfield", _span("dfield.verify")),
    "dfield.action.points": ("dfield.points", _count("dfield.action.points")),
    "dfield.action.s": ("dfield", _span("dfield.action")),
    "dfield.action.us_per_point": (
        "dfield.points", _ratio(_span("dfield.action"), _count("dfield.action.points"), 1e6)),
    "report.assemble_s": ("report", _secs("report.assemble")),
}
# How kernel work is counted.  No peak rate is measured here, so there is
# no roofline ratio.
KERNEL_WORK_LABELS = {
    "kernels.mul_accum.flops_computed": "2 x mul-table rows x batch width",
    "kernels.mul_accum.bytes_computed": "a, b, out and the three index tables, each once",
    "kernels.mul_accum.flops_per_byte": "flops_computed / bytes_computed",
}
# every per-layer metric that is not a time must repeat exactly between the
# two traced bodies
REPEAT_COUNTS = [k for k in LAYER_METRICS if UNITS[k] not in ("s", "us")]


def fingerprint() -> dict:
    import numpy

    import bigtangent

    backend = getattr(bigtangent, "BACKEND", None)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "kernel_backend": backend if backend is not None else "numpy (no backend switch)",
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def setup_once(scene: str, speed) -> float:
    """Seconds, in a fresh interpreter, to import bigtangent and load the
    scene, at the reference host speed.  The spins run before and after the
    child, never beside it."""
    for _ in range(SETUP_SPINS):
        speed.sample()
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, scene],
        capture_output=True, text=True, check=True, timeout=120,
    )
    t1 = time.perf_counter()
    for _ in range(SETUP_SPINS):
        speed.sample()
    return float(out.stdout.strip().splitlines()[-1]) * speed.factor(t0, t1)


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it."""
    xs = sorted(latencies)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs)


def run_untraced(inp, seconds: float, tally, manifest) -> tuple[dict, dict]:
    """End-to-end metrics, no probes installed.

    Every time is scaled to the reference host speed (see ``hostspeed``).
    rho-probe repeats its body of probes for ``seconds``.  A workload whose
    body is a check times cheap ``eval`` probes for ``seconds`` and then runs
    the body once; probes after the body would run in a process whose heap
    the check has grown and freed, which a user's ``bigtangent eval`` never
    does.  ``wall_s`` is the median body.
    """
    import hostspeed
    import workloads as wl

    speed = hostspeed.HostSpeed()
    setups = [setup_once(inp.scene, speed) for _ in range(SETUP_REPEATS)]
    wl.probe(inp, wl.WARMUP_POINT)  # untimed warm-up at a point no timed probe uses
    cheap = inp.workload != "rho-probe"
    probes, walls, next_k = [], [], itertools.count()

    def cheap_probes(duration):
        t_end = time.perf_counter() + duration
        while time.perf_counter() < t_end:
            k = next(next_k)
            with tally.guard(f"probe {k}"):
                probes.append(wl.probe(inp, k))

    speed.start()
    try:
        if cheap:
            cheap_probes(seconds)
        t_end, rep = time.perf_counter() + (0 if cheap else seconds), 0
        while rep == 0 or time.perf_counter() < t_end:
            wl.cold_start()
            t0 = time.perf_counter()
            outputs = wl.BODIES[inp.workload](inp, rep)
            walls.append((t0, time.perf_counter()))
            if rep == 0:
                first = outputs
            if not cheap:
                probes.extend(outputs)
            wl.check_body(tally, inp, outputs, manifest)
            rep += 1
    finally:
        speed.stop()
    # read before the checks, whose batched evaluations are not part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if cheap:
        for _, _, obj, text in probes:
            wl.check_probe_shape(tally, inp, obj, text, manifest)
    wl.check_repeat(tally, inp, first)
    wl.check_negative_control(tally, manifest)
    wl.check_probes_batched(tally, inp, probes)

    wall_s = [speed.scaled(*w) for w in walls]
    lat_ms = [speed.scaled(*p[1]) * 1e3 for p in probes]
    tail_ms, tail_pct, n = tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(wall_s),
        "probe_p50_ms": statistics.median(lat_ms),
        "probe_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_wall = statistics.median(t1 - t0 for t0, t1 in walls)
    raw_ms = statistics.median((p[1][1] - p[1][0]) * 1e3 for p in probes)
    notes = {
        "setup_s": f"median of {len(setups)} interpreters",
        "wall_s": f"median of {len(walls)} bodies; {raw_wall:.4g} s unscaled",
        "probe_p50_ms": f"{n} probes; {raw_ms:.4g} ms unscaled",
        "probe_tail_ms": f"p{tail_pct:.0f} of {n} probes",
    }
    spins = statistics.median(d for _, d in speed.samples)
    print(f"host speed: median spin {spins * 1e3:.4g} ms over {len(speed.samples)} spins, "
          f"reference {hostspeed.REF_S * 1e3:.4g} ms")
    return metrics, notes


def run_traced(inp, tally, manifest, trace_path: Path) -> tuple[dict, dict, dict]:
    """Per-layer metrics: the body once untraced, then twice traced."""
    import tracing
    import workloads as wl

    if inp.workload == "rho-probe":
        wl.probe(inp, wl.WARMUP_POINT)
    body = wl.BODIES[inp.workload]
    wl.cold_start()
    t0 = time.perf_counter()
    outputs = [body(inp)]
    walls = [time.perf_counter() - t0]
    layers, tracers = [], []
    for _ in range(2):
        wl.cold_start()
        tr = tracing.Tracer()
        tracing.install(tr)
        t0 = time.perf_counter()
        try:
            outputs.append(body(inp))
        finally:
            walls.append(time.perf_counter() - t0)
            tr.restore()
        tracers.append(tr)
        spans = tr.span_times()
        layers.append({
            k: (0.0 if probe in tr.absent else fn(tr, spans))
            for k, (probe, fn) in LAYER_METRICS.items()
        })
    for out in outputs:
        wl.check_body(tally, inp, out, manifest)
    for out in outputs[1:]:
        tally.check(
            [o[-1] for o in out] == [o[-1] for o in outputs[0]],
            f"{inp.workload}: report differs between repeated bodies",
        )
    for k in REPEAT_COUNTS:
        tally.check(layers[0][k] == layers[1][k], f"count {k} differs: {layers[0][k]} vs {layers[1][k]}")
    wl.check_negative_control(tally, manifest)

    metrics = {
        k: (layers[0][k] if k in REPEAT_COUNTS else (layers[0][k] + layers[1][k]) / 2)
        for k in LAYER_METRICS
    }
    metrics["trace.overhead_s"] = (walls[1] + walls[2]) / 2 - walls[0]
    absent = sorted(tracers[0].absent)
    metrics["trace.layers_absent"] = len(absent)

    trace_path.write_text(json.dumps({
        "workload": inp.workload,
        "env": fingerprint(),
        "wall_s": {"untraced": walls[0], "traced": walls[1:]},
        "absent_layers": absent,
        "self_times": [tr.span_times() for tr in tracers],
        "spans": [tr.spans for tr in tracers],
        "counts": [dict(tr.counts) for tr in tracers],
    }))
    notes = {k: "absent" for k, (probe, _) in LAYER_METRICS.items() if probe in absent}
    for k, label in KERNEL_WORK_LABELS.items():
        notes.setdefault(k, label)
    return metrics, notes, tracers[0].span_times()


def enter_checkout():
    """Work from the checkout root, importing the program from its src/."""
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def run_one(args) -> int:
    if not (ROOT / "src" / "bigtangent" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'bigtangent'}", file=sys.stderr)
        return 2
    enter_checkout()
    import workloads as wl

    manifest = wl.load_manifest()
    inp = wl.make_inputs(args.workload, args.seed)
    tally = wl.Tally()
    print("env: " + json.dumps(fingerprint(), sort_keys=True))
    print(f"workload {args.workload}: scene {inp.scene} (scene seed {inp.scene_seed})")
    if args.trace:
        trace_path = wl.WORK / f"trace-{args.workload}-{args.seed}.json"
        metrics, notes, span_rows = run_traced(inp, tally, manifest, trace_path)
        print(f"spans written to {trace_path}; self time per span name:")
        for name, (total, own, count) in sorted(span_rows.items()):
            print(f"  {name:<28} total {total:10.4f} s  self {own:10.4f} s  spans {count}")
    else:
        metrics, notes = run_untraced(inp, args.seconds, tally, manifest)
    for k, v in metrics.items():
        note = f"  ({notes[k]})" if k in notes else ""
        print(f"  {k:<36} {v:>16.6g} {UNITS[k]}{note}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_ratio':<36} {ratio:>16.6g} ratio  ({tally.failed}/{tally.attempted})")
    for note in tally.notes[:20]:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, and a combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        res = json.loads(out.stdout.strip().splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    ap.add_argument("--write-manifest", action="store_true",
                    help="rebuild the identity manifest from the current program")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n")
        return 0
    if args.write_manifest:
        enter_checkout()
        import workloads as wl

        wl.MANIFEST.write_text(json.dumps(wl.build_manifest(), indent=1) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
