"""The three benchmark workloads: seeded inputs, timed bodies, output checks.

Every input the program sees is generated here from the benchmark seed: the
scene files, written to ``.perfbench/`` in the checkout, and the chart points
of the ``eval`` probes, passed as ``--point`` text.  The program is driven
only through its public entry points (``cli.main``, ``scene.load_scene``,
``dfield.*``, ``fields.fvalue``).

Every check is one operation in a ``Tally``; an operation fails on an
unexpected exit code, an identity missing or with another pass flag than the
manifest records, a report that is not byte-identical on repeat, a probe
value that disagrees with a batched evaluation, or an exception.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORK = Path(".perfbench")
MANIFEST = Path(__file__).with_name("manifest.json")
NEGATIVE_CONTROL = "scenes/perturbed.scene"

RHO_FIXED = 4  # probes in one rho-probe body; the body repeats for the whole run
POINT_POOL = 4096  # probe points drawn per run; a run uses a prefix
WARMUP_POINT = POINT_POOL - 1  # the untimed warm-up probe's point, used by no timed probe
CHEAP_OBJECTS = ("metric.tensor", "P", "H.t", "dfield.sigma")

M3_SCENE = """\
# Generated m = 3 scene: base metric diag(1, exp(2 x1), 1).
[scene]
m = 3
seed = {seed}
samples = 10
suites = canonical triple horizontal metric

[base_metric]
row1 = 1; 0; 0
row2 = 0; exp(2*x1); 0
row3 = 0; 0; 1
"""


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    @contextlib.contextmanager
    def guard(self, what: str):
        """Count an exception inside the block as one failed operation."""
        try:
            yield
        except Exception as exc:  # the benchmark keeps going and reports it
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")


@dataclass
class Inputs:
    workload: str
    scene: str  # path of the scene the program reads, relative to the root
    m: int
    scene_seed: int
    points: np.ndarray  # (3m, POINT_POOL) probe points in [-1, 1]
    objects: tuple  # probe objects, used in turn


def make_inputs(workload: str, seed: int) -> Inputs:
    """Draw the workload's scene and probe points from ``seed``."""
    index = ("kitchen-sink", "m3-identities", "rho-probe").index(workload)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    scene_seed = int(rng.integers(0, 1_000_000))
    WORK.mkdir(exist_ok=True)
    if workload == "kitchen-sink":
        text = Path("scenes/kitchen-sink.scene").read_text()
        text = re.sub(r"(?m)^seed = .*$", f"seed = {scene_seed}", text, count=1)
        # one Monte Carlo chunk instead of four keeps a traced run, which
        # runs the body three times, well under three minutes; the Gauss
        # rule is unchanged
        text = re.sub(r"(?m)^mc_samples = .*$", "mc_samples = 1024", text, count=1)
        m, objects = 2, CHEAP_OBJECTS
    elif workload == "m3-identities":
        text = M3_SCENE.format(seed=scene_seed)
        m, objects = 3, CHEAP_OBJECTS
    else:
        text = None
        m, objects = 2, ("dfield.rho",)
    if text is None:
        scene = "scenes/kitchen-sink.scene"
    else:
        path = WORK / f"{workload}-{seed}.scene"
        path.write_text(text)
        scene = str(path)
    points = rng.uniform(-1.0, 1.0, size=(3 * m, POINT_POOL))
    return Inputs(workload, scene, m, scene_seed, points, objects)


# -- driving the program ---------------------------------------------------
def run_cli(argv) -> tuple[int, str]:
    """``bigtangent <argv>`` in this process: (exit code, stdout text)."""
    from bigtangent import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def point_text(col: np.ndarray, m: int) -> str:
    blocks = (col[:m], col[m : 2 * m], col[2 * m :])
    return ";".join(
        f"{key}=" + ",".join(repr(float(v)) for v in blk)
        for key, blk in zip("xyz", blocks)
    )


def check_rows(payload: dict) -> list:
    """[suite, report title, identity, pass] for every identity of a check."""
    return [
        [s["suite"], r["title"], e["identity"], e["pass"]]
        for s in payload["suites"]
        for r in s["reports"]
        for e in r["identities"]
    ]


def report_rows(report: dict) -> list:
    """The same rows for one report dict, with "-" for the suite."""
    return [["-", report["title"], e["identity"], e["pass"]] for e in report["identities"]]


def compare_rows(tally: Tally, got: list, expected: list, what: str):
    """One operation per expected identity, and one per unexpected extra."""

    def keyed(rows):
        seen, out = {}, {}
        for *name, flag in rows:
            k = tuple(name)
            seen[k] = seen.get(k, 0) + 1
            out[k + (seen[k],)] = flag
        return out

    g, e = keyed(got), keyed(expected)
    for k, flag in e.items():
        if k not in g:
            tally.check(False, f"{what}: identity missing: {k}")
        else:
            tally.check(g[k] == flag, f"{what}: {k} pass={g[k]}, expected {flag}")
    for k in g.keys() - e.keys():
        tally.check(False, f"{what}: unexpected identity: {k}")


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


# -- bodies ----------------------------------------------------------------
def cold_start():
    """Drop the jet-space table cache, so each body builds its tables as a
    fresh ``bigtangent`` process would."""
    from bigtangent import multiindex

    clear = getattr(getattr(multiindex, "jet_space", None), "cache_clear", None)
    if clear is not None:
        clear()


def body_check(inp: Inputs, rep: int = 0) -> list:
    """``bigtangent check`` on the workload scene (its suites)."""
    return [run_cli(["check", inp.scene])]


def body_m3(inp: Inputs, rep: int = 0) -> list:
    """The four fast suites, then the double-field identities at n = 10."""
    from bigtangent import dfield, scene

    out = body_check(inp)
    sc = scene.load_scene(inp.scene)
    report = dfield.verify_double_field(sc.double_field, seed=inp.scene_seed, n=10)
    out.append((0, json.dumps(report.as_dict(), indent=2)))
    return out


def probe(inp: Inputs, k: int) -> tuple[int, tuple[float, float], str, str]:
    """One ``bigtangent eval`` of the k-th object at the k-th point:
    (k, (start, end) on ``time.perf_counter``, object, output text)."""
    obj = inp.objects[k % len(inp.objects)]
    argv = ["eval", inp.scene, "--object", obj, "--point", point_text(inp.points[:, k], inp.m)]
    t0 = time.perf_counter()
    code, text = run_cli(argv)
    t1 = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"eval {obj} exited {code}")
    return k, (t0, t1), obj, text


def body_probes(inp: Inputs, rep: int = 0) -> list:
    """RHO_FIXED probes; repetition ``rep`` uses the next block of points."""
    return [probe(inp, rep * RHO_FIXED + i) for i in range(RHO_FIXED)]


BODIES = {"kitchen-sink": body_check, "m3-identities": body_m3, "rho-probe": body_probes}


# -- checks ----------------------------------------------------------------
def check_body(tally: Tally, inp: Inputs, outputs: list, manifest: dict):
    """Exit codes and identity flags of one body's outputs."""
    if inp.workload == "rho-probe":
        for _, _, obj, text in outputs:
            check_probe_shape(tally, inp, obj, text, manifest)
        return
    want = manifest[inp.workload]
    code, text = outputs[0]
    tally.check(code == want["exit"], f"{inp.workload}: check exited {code}")
    with tally.guard(f"{inp.workload}: report"):
        compare_rows(tally, check_rows(json.loads(text)), want["identities"], inp.workload)
    if inp.workload == "m3-identities":
        with tally.guard("m3-identities: double field report"):
            rows = report_rows(json.loads(outputs[1][1]))
            compare_rows(tally, rows, want["verify"], "m3-identities verify")


def check_probe_shape(tally: Tally, inp: Inputs, obj: str, text: str, manifest: dict):
    with tally.guard(f"probe {obj}"):
        d = json.loads(text)
        vals = np.asarray(d["components"], dtype=float)
        shape = manifest["objects"][str(inp.m)][obj]
        tally.check(
            d["shape"] == shape and bool(np.all(np.isfinite(vals))),
            f"probe {obj}: shape {d['shape']} (expected {shape}) or non-finite values",
        )


def _object_components(sc, obj: str) -> np.ndarray:
    from bigtangent import bigcore, dfield

    if obj == "dfield.rho":
        nabla, _, pack = dfield.field_adapted_connection(sc.double_field)
        _, _, rho = dfield.deformed_curvatures(nabla, pack)
        return np.array([rho], dtype=object)
    getters = {
        "metric.tensor": lambda: sc.big_metric.tensor.comps,
        "P": lambda: bigcore.canonical_pack(sc.m).P.comps,
        "H.t": lambda: sc.bundle.t,
        "dfield.sigma": lambda: sc.double_field.sigma,
    }
    return np.asarray(getters[obj](), dtype=object)


def check_probes_batched(tally: Tally, inp: Inputs, probes: list):
    """Each one-point probe must match one batched evaluation of its object
    at the points of all probes of that object."""
    from bigtangent import fields, scene
    from bigtangent.points import ChartPoint

    m = inp.m
    sc = scene.load_scene(inp.scene)
    for obj in sorted({p[2] for p in probes}):
        mine = [p for p in probes if p[2] == obj]
        with tally.guard(f"probes of {obj} against the batch"):
            pts = inp.points[:, [p[0] for p in mine]]
            batch = ChartPoint(pts[:m], pts[m : 2 * m], pts[2 * m :])
            ref = fields.fvalue(_object_components(sc, obj), batch)
            for col, (k, _, _, text) in enumerate(mine):
                got = np.asarray(json.loads(text)["components"], dtype=float)
                want = ref[..., col]
                tally.check(
                    bool(np.allclose(got, want, rtol=1e-9, atol=1e-12)),
                    f"probe {k} ({obj}) differs from the batched value by "
                    f"{float(np.max(np.abs(got - want)))}",
                )


def check_repeat(tally: Tally, inp: Inputs, outputs: list):
    """Run one check again; its report must be byte-identical."""
    if inp.workload == "rho-probe":
        with tally.guard("rho-probe: repeated probe"):
            k, _, _, text = outputs[0]
            tally.check(probe(inp, k)[3] == text, "rho-probe: repeated probe output differs")
        return
    with tally.guard(f"{inp.workload}: repeated triple suite"):
        code, text = run_cli(["check", inp.scene, "--suite", "triple"])
        again = json.loads(text)["suites"][0]
        first = [s for s in json.loads(outputs[0][1])["suites"] if s["suite"] == "triple"][0]
        tally.check(
            code == 0 and json.dumps(again, indent=2) == json.dumps(first, indent=2),
            f"{inp.workload}: repeated triple suite report differs",
        )


def check_negative_control(tally: Tally, manifest: dict):
    """The perturbed scene must exit 1 and name a failing canonical identity."""
    want = manifest["perturbed"]
    with tally.guard("negative control"):
        code, text = run_cli(["check", NEGATIVE_CONTROL])
        code2, text2 = run_cli(["check", NEGATIVE_CONTROL])
        tally.check(code == code2 == want["exit"], f"negative control exited {code}, {code2}")
        tally.check(text == text2, "negative control report differs on repeat")
        rows = check_rows(json.loads(text))
        failing = [r[2] for r in rows if r[0] == "canonical" and not r[3]]
        tally.check(bool(failing), "negative control names no failing canonical identity")
        compare_rows(tally, rows, want["identities"], "negative control")


# -- manifest --------------------------------------------------------------
def build_manifest() -> dict:
    """Identity names and pass flags of the current program, at seed 0.

    The committed manifest was made this way from the unchanged program;
    rebuild it only when the set of identities changes on purpose.
    """
    out = {"objects": {}}
    for workload in ("kitchen-sink", "m3-identities"):
        inp = make_inputs(workload, 0)
        outputs = BODIES[workload](inp)
        entry = {"exit": outputs[0][0], "identities": check_rows(json.loads(outputs[0][1]))}
        if workload == "m3-identities":
            entry["verify"] = report_rows(json.loads(outputs[1][1]))
        out[workload] = entry
        shapes = {}
        for obj in inp.objects + ("dfield.rho",) * (inp.m == 2):
            text = probe(replace(inp, objects=(obj,)), 0)[3]
            shapes[obj] = json.loads(text)["shape"]
        out["objects"][str(inp.m)] = shapes
    code, text = run_cli(["check", NEGATIVE_CONTROL])
    out["perturbed"] = {"exit": code, "identities": check_rows(json.loads(text))}
    return out
