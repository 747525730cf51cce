"""Layer probes for the traced benchmark run.

The probes wrap functions of the ``bigtangent`` package from outside, by
rebinding module and class attributes for the length of one traced body;
nothing in the package is edited.  Layer boundaries get spans (name, start,
end, parent), kept in memory and written out when the run ends.  Calls too
hot for a span (jet products, field-node evaluation) get counters and
accumulated time instead.

A probe whose target no longer exists (a module, function or method removed
by a refactor) marks its layer absent instead of failing, so the same
benchmark runs on a commit before and after such a removal.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans, counters and the attribute patches that feed them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)
        self._depth = defaultdict(int)
        self.absent: set[str] = set()
        self._undo: list = []
        self._finish: list = []

    # -- recording ------------------------------------------------------
    def spanned(self, name, fn):
        """``fn`` wrapped so each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, _clock(), None, self._open[-1] if self._open else -1])
            self._open.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = _clock()

        return wrapper

    def hot(self, key, fn, tally=None):
        """``fn`` wrapped with a call counter and accumulated time.

        Time accrues to ``key`` only at the outermost call of that key, so
        nested calls within one group are not counted twice.  ``tally``
        receives the call's arguments and adds its own counts.
        """
        counts, seconds, depth = self.counts, self.seconds, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            if tally is not None:
                tally(counts, *args)
            if depth[key]:
                return fn(*args, **kwargs)
            depth[key] += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += _clock() - t0
                depth[key] -= 1

        return wrapper

    # -- patching -------------------------------------------------------
    def patch(self, owner, attr, new):
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) until ``restore``."""
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = new
            self._undo.append(lambda: owner.__setitem__(attr, old))
            return
        if isinstance(owner, type) and attr not in owner.__dict__:
            setattr(owner, attr, new)
            self._undo.append(lambda: delattr(owner, attr))
            return
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def rebind(self, orig, new):
        """Point every ``bigtangent`` module binding of ``orig`` at ``new``."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "bigtangent" and not name.startswith("bigtangent."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self.patch(mod, key, new)

    def unpatch(self, mark: int = 0):
        """Undo every patch made after the first ``mark`` ones."""
        while len(self._undo) > mark:
            self._undo.pop()()

    def restore(self):
        for fn in self._finish:
            fn()
        self._finish.clear()
        self.unpatch()

    # -- summaries ------------------------------------------------------
    def span_times(self):
        """Per span name: (total seconds, self seconds, count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
        return dict(out)


# -- the probes, one per layer ---------------------------------------------
def _probe_scene(tr):
    scene = importlib.import_module("bigtangent.scene")
    orig = scene.load_scene
    tr.rebind(orig, tr.spanned("scene.load", orig))


def _probe_exprdsl(tr):
    exprdsl = importlib.import_module("bigtangent.exprdsl")
    orig = exprdsl.parse_expr
    tr.rebind(orig, tr.hot("exprdsl.parse", orig))


def _probe_multiindex(tr):
    mi = importlib.import_module("bigtangent.multiindex")
    cache, JS = mi.jet_space, mi.JetSpace
    table = JS.__dict__["mul_table"]
    tr.patch(JS, "__init__", tr.hot("multiindex.table", JS.__init__))
    tr.patch(JS, "mul_table", property(tr.hot("multiindex.table", table.fget)))
    tr.patch(JS, "partial_table", tr.hot("multiindex.table", JS.partial_table))
    cache.cache_clear()  # count the spaces this body builds from cold
    tr._finish.append(
        lambda: tr.counts.__setitem__("multiindex.spaces_built", cache.cache_info().misses)
    )


def _probe_field_nodes(tr):
    fields = importlib.import_module("bigtangent.fields")
    classes, todo = [], [fields.ScalarField]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    for cls in classes:
        if "__init__" in cls.__dict__:
            tr.patch(cls, "__init__", _counting_init(cls.__dict__["__init__"], tr.counts))


def _counting_init(init, counts):
    """``init`` counting one node per construction, not per super() call."""

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        if type(self).__init__ is wrapper:
            counts["fields.nodes_built"] += 1
        init(self, *args, **kwargs)

    return wrapper


def _probe_field_build(tr):
    dfield = importlib.import_module("bigtangent.dfield")
    for name in ("field_adapted_connection", "deformed_curvatures"):
        orig = getattr(dfield, name)
        tr.rebind(orig, tr.spanned("fields.build", orig))


def _probe_field_jet(tr):
    fields = importlib.import_module("bigtangent.fields")
    SF = fields.ScalarField
    orig = SF.jet
    counts = tr.counts

    def jet(self, p, order):
        counts["fields.jet.calls"] += 1
        if order > counts["fields.jet.max_order"]:
            counts["fields.jet.max_order"] = order
        cache = getattr(p, "_cache", None)
        before = len(cache) if cache is not None else -1
        out = orig(self, p, order)
        if cache is not None and len(cache) == before:
            counts["fields.jet.hits"] += 1  # served without a new cache entry
        return out

    tr.patch(SF, "jet", functools.wraps(orig)(jet))


def _mul_tally(counts, a, b):
    counts["jets.mul.terms"] += a.space.nterms
    counts["jets.mul.width"] += a.c.shape[1]


def _probe_jets(tr):
    jets = importlib.import_module("bigtangent.jets")
    J = jets.Jet
    mul, rmul = J.__dict__["__mul__"], J.__dict__.get("__rmul__")
    tr.patch(J, "__mul__", tr.hot("jets.mul", mul, _mul_tally))
    if rmul is mul:
        tr.patch(J, "__rmul__", J.__dict__["__mul__"])
    elif rmul is not None:
        tr.patch(J, "__rmul__", tr.hot("jets.mul", rmul, _mul_tally))
    tr.patch(J, "partial", tr.hot("jets.partial", J.partial))


def _probe_compose(tr):
    jets = importlib.import_module("bigtangent.jets")
    J = jets.Jet
    tr.patch(J, "_compose", tr.hot("jets.compose", J._compose))


def _kernel_tally(counts, out, a, b, oi, ai, bi):
    counts["kernels.mul_accum.flops"] += 2 * len(oi) * out.shape[1]
    counts["kernels.mul_accum.bytes"] += (
        a.nbytes + b.nbytes + out.nbytes + oi.nbytes + ai.nbytes + bi.nbytes
    )


def _probe_kernels(tr):
    kernels = importlib.import_module("bigtangent.kernels")
    orig = kernels.mul_accum
    tr.rebind(orig, tr.hot("kernels.mul_accum", orig, _kernel_tally))


def _probe_suites(tr):
    cli = importlib.import_module("bigtangent.cli")
    suites = cli._SUITES
    for name, fn in list(suites.items()):
        tr.patch(suites, name, tr.spanned(f"cli.suite.{name}", fn))


def _probe_dfield(tr):
    dfield = importlib.import_module("bigtangent.dfield")
    tr.rebind(dfield.verify_double_field, tr.spanned("dfield.verify", dfield.verify_double_field))
    tr.rebind(dfield.action, tr.spanned("dfield.action", dfield.action))


def _points_tally(counts, F, rho, pts):
    counts["dfield.action.points"] += pts.shape[1]


def _probe_action_points(tr):
    dfield = importlib.import_module("bigtangent.dfield")
    orig = dfield._integrand_values
    tr.rebind(orig, tr.hot("dfield.integrand", orig, _points_tally))


def _probe_report(tr):
    report = importlib.import_module("bigtangent.report")
    cli = importlib.import_module("bigtangent.cli")
    tr.patch(report.Report, "as_dict", tr.hot("report.assemble", report.Report.as_dict))
    tr.rebind(cli._emit, tr.hot("report.assemble", cli._emit))


# Probe name -> installer.  An installer whose target is missing raises
# AttributeError, ImportError or KeyError; ``install`` then undoes its
# patches and reports the layer absent.
PROBES = {
    "scene": _probe_scene,
    "exprdsl": _probe_exprdsl,
    "multiindex": _probe_multiindex,
    "fields.nodes": _probe_field_nodes,
    "fields.build": _probe_field_build,
    "fields.jet": _probe_field_jet,
    "jets": _probe_jets,
    "jets.compose": _probe_compose,
    "kernels": _probe_kernels,
    "cli.suites": _probe_suites,
    "dfield": _probe_dfield,
    "dfield.points": _probe_action_points,
    "report": _probe_report,
}


def install(tr: Tracer):
    """Install every probe whose target exists; record the rest as absent."""
    for name, probe in PROBES.items():
        mark = len(tr._undo)
        try:
            probe(tr)
        except (AttributeError, ImportError, KeyError):
            tr.unpatch(mark)  # a probe that failed half way leaves nothing behind
            tr.absent.add(name)
