"""Scene files: declarative fixtures naming the objects to build and check.

A scene is a flat, sectioned key-value file (INI syntax, no value
interpolation).  Matrix-valued entries are written one row per key with
``;`` separating the expressions of a row, e.g.::

    [base_metric]
    row1 = 1; 0
    row2 = 0; exp(2*x1)

The full grammar lives in docs/scene-format.md.  Loading a scene
constructs and validates every object it mentions, so a returned
SceneFile is ready for the verification suites.
"""

from __future__ import annotations

import configparser
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import dfield, fields, horizon, metrics
from .bigcore import (
    MAX_M,
    canonical_pack,
    check_matrix,
    parse_components,
    parse_grid,
    sample_matrix,
)
from .points import ChartPoint, sample_box

SUITE_NAMES = ("canonical", "triple", "horizontal", "metric", "double")


def suite_error(names) -> str | None:
    """Why ``names`` is no selection of ``SUITE_NAMES`` (a name unknown or repeated), or None."""
    for k, name in enumerate(names):
        if name not in SUITE_NAMES:
            return f"unknown suite {name!r}"
        if name in names[:k]:
            return f"suite {name!r} is named twice"
    return None


# The built-in objects that ``eval --object`` names besides the scene's
# vector fields, each with the function that builds its components from
# the loaded scene, so that ``eval`` builds only the object it names.  The
# spray's two exist when the scene has a Lagrangian.  A vector field may
# not take one of these names.
OBJECTS = {
    "S": lambda sc: canonical_pack(sc.m).S.comps,
    "P": lambda sc: canonical_pack(sc.m).P.comps,
    "Q": lambda sc: canonical_pack(sc.m).Q.comps,
    "U": lambda sc: canonical_pack(sc.m).U.comps,
    "lambda": lambda sc: canonical_pack(sc.m).lam.comps,
    "g_V": lambda sc: canonical_pack(sc.m).g_V.comps,
    "omega_V": lambda sc: canonical_pack(sc.m).omega_V.comps,
    "H.t": lambda sc: sc.bundle.t,
    "H.tau": lambda sc: sc.bundle.tau,
    "metric.tensor": lambda sc: sc.big_metric.tensor.comps,
    "dfield.sigma": lambda sc: sc.double_field.sigma,
    "dfield.psi": lambda sc: sc.double_field.psi,
    "dfield.density": lambda sc: [sc.double_field.density],
    "dfield.rho": lambda sc: [sc.double_field.curvatures[2]],
    "spray.eta": lambda sc: sc.spray.eta,
    "spray.zeta": lambda sc: sc.spray.zeta,
}

def _section_keys(m: int) -> dict:
    """The keys each section may hold at base dimension m; the names in
    ``[vector_fields]`` are free and ``[tolerances]`` is checked on its own."""
    def rows(prefix):
        return {f"{prefix}{i}" for i in range(1, m + 1)}

    return {
        "scene": {"m", "seed", "samples", "mc_samples", "tol", "suites", "box", "perturb_s"},
        "base_metric": rows("row"),
        "connection": set().union(*(rows(f"c{i}_") for i in range(1, m + 1))),
        "lagrangian": {"l"},
        "horizontal_bundle": rows("t") | rows("tau"),
        "double_field": rows("sigma") | rows("psi") | {"density"},
    }


class SceneError(ValueError):
    """Unparsable or inconsistent scene file; message carries the location."""


# The least value each count option may take: every suite needs a sample
# point, and the Monte Carlo standard error divides by mc_samples - 1.
_LEAST = {"seed": 0, "samples": 1, "mc_samples": 2}


def option_error(key: str, value) -> str | None:
    """Why ``value`` is out of range for ``key``: one of the counts in
    ``_LEAST``, ``perturb_s``, a ``box`` interval (lo, hi) or a tolerance;
    None when it is in range."""
    if key in _LEAST:
        if value < _LEAST[key]:
            return f"must be >= {_LEAST[key]}, got {value}"
    elif key == "perturb_s":
        if not math.isfinite(value):
            return f"must be finite, got {value}"
    elif key == "box":
        lo, hi = value
        if not math.isfinite(hi - lo):  # a bound is not finite, or the width overflows
            return f"intervals must have finite bounds and width, got {lo} {hi}"
    elif not (math.isfinite(value) and value > 0):
        return f"must be finite and > 0, got {value}"
    return None


# What building a scene object raises for bad input: parse, dependency,
# frame and linear-algebra errors are ValueErrors, jet and evaluation
# domain errors ArithmeticErrors.  Anything else is a bug and propagates.
_INPUT_ERRORS = (ValueError, ArithmeticError)


def _fail(path, where, msg):
    raise SceneError(f"{path}: [{where}]: {msg}")


@contextmanager
def located(label: str):
    """Turn an input error raised inside the block into a SceneError whose
    message is ``label: message``; a SceneError, which names its own
    place, passes unchanged.  The loader labels a section
    (``PATH: [SECTION]``), the command line a suite or an object."""
    try:
        yield
    except SceneError:
        raise
    except _INPUT_ERRORS as exc:
        raise SceneError(f"{label}: {exc}") from exc


def _given(cfg, section, prefix, m) -> bool:
    """Whether any key of the row family prefix1..prefixm is present."""
    return any(cfg.has_option(section, f"{prefix}{i}") for i in range(1, m + 1))


def _rows(cfg, path, section, prefix, m):
    """Collect keys prefix1..prefixm as a list of ``;``-split rows."""
    rows = []
    for i in range(1, m + 1):
        key = f"{prefix}{i}"
        if not cfg.has_option(section, key):
            _fail(path, section, f"missing key {key}")
        row = [s.strip() for s in cfg.get(section, key).split(";")]
        if len(row) != m:
            _fail(path, section, f"{key} has {len(row)} entries, expected {m}")
        rows.append(row)
    return rows


@dataclass
class SceneFile:
    """A parsed and validated scene: raw tables plus constructed objects."""

    path: str
    m: int
    seed: int = 0
    samples: int = 20
    mc_samples: int = 4000
    tol: float = 1e-8
    suites: tuple = SUITE_NAMES
    box: tuple | None = None
    perturb_s: float = 0.0
    tol_overrides: dict = dc_field(default_factory=dict)
    base_metric: np.ndarray | None = None
    lagrangian: "fields.ScalarField | None" = None
    vector_fields: dict = dc_field(default_factory=dict)
    bundle: horizon.HorizontalBundle | None = None
    big_metric: "metrics.BigMetric | None" = None
    lagrangian_metric: "metrics.BigMetric | None" = None
    spray: "horizon.SecondOrderField | None" = None
    double_field: "dfield.DoubleField | None" = None

    def objects(self) -> dict:
        """Name -> function of the scene that builds the components, for
        each object ``eval --object`` can name here: the built-ins of
        ``OBJECTS`` (the spray's two only with a Lagrangian), then the
        vector fields."""
        table = {
            name: build
            for name, build in OBJECTS.items()
            if self.spray is not None or not name.startswith("spray.")
        }
        for name, comps in self.vector_fields.items():
            table[name] = lambda sc, comps=comps: comps
        return table

    def suite_tol(self, name: str, override: float | None = None) -> float:
        if override is not None:
            return override
        return self.tol_overrides.get(name, self.tol)


def _load_scalar_options(cfg, path, sc):
    sec = "scene"
    # perturb_s is the negative-control switch: it adds eps * dx^1 (x) dz_1
    # to the canonical tensor S before the canonical suite runs
    for key, get in (
        ("seed", cfg.getint),
        ("samples", cfg.getint),
        ("mc_samples", cfg.getint),
        ("tol", cfg.getfloat),
        ("perturb_s", cfg.getfloat),
    ):
        try:
            value = get(sec, key, fallback=getattr(sc, key))
        except ValueError as exc:
            _fail(path, sec, f"{key}: {exc}")
        if err := option_error(key, value):
            _fail(path, sec, f"{key}: {err}")
        setattr(sc, key, value)
    if cfg.has_option(sec, "suites"):
        names = cfg.get(sec, "suites").replace(",", " ").split()
        if not names:
            _fail(path, sec, "suites: must name at least one suite")
        if err := suite_error(names):
            _fail(path, sec, err)
        sc.suites = tuple(names)
    if cfg.has_option(sec, "box"):
        pairs = []
        for part in cfg.get(sec, "box").split(";"):
            vals = part.split()
            if len(vals) != 2:
                _fail(path, sec, f"box interval {part!r} is not 'lo hi'")
            try:
                lo, hi = float(vals[0]), float(vals[1])
            except ValueError as exc:
                _fail(path, sec, f"box interval {part!r}: {exc}")
            if err := option_error("box", (lo, hi)):
                _fail(path, sec, f"box: {err}")
            if not lo < hi:
                _fail(path, sec, f"empty box interval {part!r}")
            pairs.append((lo, hi))
        if len(pairs) != 3 * sc.m:
            _fail(path, sec, f"box needs {3 * sc.m} intervals, got {len(pairs)}")
        volume = math.prod(hi - lo for lo, hi in pairs)
        if not math.isfinite(volume):  # the action's weights would overflow
            msg = f"box: the volume, the product of the widths, must be finite, got {volume}"
            _fail(path, sec, msg)
        sc.box = tuple(pairs)


def _checked(H: horizon.HorizontalBundle, p: ChartPoint) -> horizon.HorizontalBundle:
    """H, once t and tau are finite at the validation points ``p``: a bad
    entry then names the bundle's section, not the big metric that lifts it."""
    for name in ("t", "tau"):
        check_matrix(sample_matrix(getattr(H, name), p), f"bundle coefficient {name}")
    return H


def _load_bundle(cfg, path, sc, spray_bundle, p):
    """Resolve the horizontal bundle from the most specific data given,
    and name the section that gave it (``scene`` for the flat default);
    ``spray_bundle`` is the Lagrangian's or None, ``p`` the validation points."""
    m = sc.m
    if cfg.has_section("horizontal_bundle"):
        sec = "horizontal_bundle"
        has_t = _given(cfg, sec, "t", m)
        has_tau = _given(cfg, sec, "tau", m)
        with located(f"{path}: [{sec}]"):
            if has_t and has_tau:
                t = _rows(cfg, path, sec, "t", m)
                tau = _rows(cfg, path, sec, "tau", m)
                H = horizon.HorizontalBundle(np.array(t, dtype=object),
                                             np.array(tau, dtype=object), m)
            elif has_t:
                H = horizon.lift_from_tm(_rows(cfg, path, sec, "t", m), m)
            elif has_tau:
                H = horizon.lift_from_cotm(_rows(cfg, path, sec, "tau", m), m)
            else:
                _fail(path, sec, "needs t1.. rows, tau1.. rows, or both")
            return _checked(H, p), sec
    if cfg.has_section("connection"):
        sec = "connection"
        gamma = [_rows(cfg, path, sec, f"c{i}_", m) for i in range(1, m + 1)]
        with located(f"{path}: [{sec}]"):
            return _checked(horizon.from_linear_connection(gamma, m), p), sec
    if sc.base_metric is not None:
        gamma = metrics.base_christoffels(sc.base_metric, m)
        return horizon.from_linear_connection(gamma, m), "base_metric"
    if spray_bundle is not None:
        return spray_bundle, "lagrangian"
    return horizon.flat_bundle(m), "scene"


# One parser per key rule, lower-cased or as written (for [tolerances]),
# built once per process and emptied before each read: a parser holds
# reference cycles, and so would each section's getters of its
# converters, so it has none.
@functools.cache
def _parser(as_written: bool) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    for name in list(parser.converters):
        del parser.converters[name]
    if as_written:
        parser.optionxform = str
    return parser


def _read(text, path, as_written=False) -> configparser.ConfigParser:
    """The parser of ``as_written`` holding ``text`` alone."""
    parser = _parser(as_written)
    for sec in parser.sections():
        parser.remove_section(sec)
    parser.defaults().clear()
    parser.read_string(text, source=path)
    return parser


def load_scene(path: str) -> SceneFile:
    """Parse, validate, and pre-construct a scene file.

    Each object is checked right after it is built, under the section
    that gave its data; the constructors only build.  Raises SceneError
    with the offending section (and key where it helps) on any problem;
    missing files surface as OSError.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        cfg = _read(text, path)
    except configparser.Error as exc:
        raise SceneError(f"{path}: {exc}") from exc
    if not cfg.has_section("scene"):
        _fail(path, "scene", "missing [scene] section")
    for sec in cfg.sections():
        if sec not in (*_section_keys(1), "vector_fields", "tolerances"):
            _fail(path, sec, "unknown section")
    try:
        m = cfg.getint("scene", "m")
    except (ValueError, configparser.NoOptionError) as exc:
        raise SceneError(f"{path}: [scene]: m: {exc}") from exc
    if not 1 <= m <= MAX_M:
        _fail(path, "scene", f"m must be 1..{MAX_M}, got {m}")
    for sec, keys in _section_keys(m).items():
        for key in cfg.options(sec) if cfg.has_section(sec) else ():
            if key not in keys:
                _fail(path, sec, f"unknown key {key}")

    sc = SceneFile(path=path, m=m)
    p = sample_box(m, 10, seed=0)  # every check's points: what several read is evaluated once
    _load_scalar_options(cfg, path, sc)

    if cfg.has_section("tolerances"):
        # its keys are suite names, matched as written, not lower-cased
        written = _read(text, path, as_written=True)
        for key in written.options("tolerances"):
            if err := suite_error([key]):
                _fail(path, "tolerances", err)
            try:
                tol = written.getfloat("tolerances", key)
            except ValueError as exc:
                _fail(path, "tolerances", f"{key}: {exc}")
            if err := option_error("tol", tol):
                _fail(path, "tolerances", f"{key}: {err}")
            sc.tol_overrides[key] = tol

    if cfg.has_section("base_metric"):
        rows = _rows(cfg, path, "base_metric", "row", m)
        with located(f"{path}: [base_metric]"):
            g = parse_grid(rows, m, {"x"}, "base_metric")
            check_matrix(sample_matrix(g, p), "metric", symmetry=1, invertible=True)
        sc.base_metric = g

    # the spray is built once: its bundle also carries the Lagrangian metric
    # and, when no other source gives one, the bundle and double field
    spray_bundle = None
    if cfg.has_section("lagrangian"):
        if not cfg.has_option("lagrangian", "l"):
            _fail(path, "lagrangian", "missing key L")
        with located(f"{path}: [lagrangian]"):
            sc.lagrangian = horizon.lagrangian_field(cfg.get("lagrangian", "l"), m)
            sc.spray, spray_bundle = horizon.spray_from_lagrangian(sc.lagrangian, m)
            hessian = sample_matrix(horizon.fiber_hessian(sc.lagrangian, m), p)
            check_matrix(hessian, "Lagrangian Hessian", invertible=True)

    sc.bundle, bundle_section = _load_bundle(cfg, path, sc, spray_bundle, p)

    if cfg.has_section("vector_fields"):
        for name in cfg.options("vector_fields"):
            if name in OBJECTS:
                _fail(path, "vector_fields", f"{name}: reserved for a built-in object")
            comps = [s.strip() for s in cfg.get("vector_fields", name).split(";")]
            if len(comps) != 3 * m:
                msg = f"{name} has {len(comps)} components, expected {3 * m}"
                _fail(path, "vector_fields", msg)
            with located(f"{path}: [vector_fields]: {name}"):
                sc.vector_fields[name] = np.array(
                    parse_components(comps, m, {"x", "y", "z"}, name, count=3 * m),
                    dtype=object,
                )

    g_base = sc.base_metric
    if g_base is None:
        g_base = fields.fzeros(m, m)
        np.fill_diagonal(g_base, fields.ONE)
    # g is checked above; a lift that fails then fails on the bundle's
    # coefficients, so it names the section that gave the bundle
    with located(f"{path}: [{bundle_section}]"):
        sc.big_metric = metrics.check_lift(metrics.sasaki_type_metric(g_base, sc.bundle), p)
    if sc.lagrangian is not None:
        with located(f"{path}: [lagrangian]"):
            gm = metrics.lagrangian_metric(sc.lagrangian, spray_bundle)
            sc.lagrangian_metric = metrics.check_lift(gm, p)

    if cfg.has_section("double_field"):
        sec = "double_field"
        sigma = _rows(cfg, path, sec, "sigma", m)
        psi = _rows(cfg, path, sec, "psi", m) if _given(cfg, sec, "psi", m) else None
        density = cfg.get(sec, "density", fallback=None)
        with located(f"{path}: [{sec}]"):
            F = dfield.DoubleField(sc.bundle, sigma, psi, density)
            S = check_matrix(sample_matrix(F.sigma, p), "sigma", symmetry=1, invertible=True)
            P = check_matrix(sample_matrix(F.psi, p), "psi", symmetry=-1)
            # the h block of the fiber metric, sigma - psi sigma^-1 psi,
            # from the same samples: a finiteness check
            with np.errstate(all="ignore"):
                h = S - P @ np.linalg.solve(S, P)
            check_matrix(h, "fiber metric")
    elif sc.base_metric is None and sc.lagrangian is not None:
        # sigma is the Hessian, checked above, and symmetric bit for bit
        with located(f"{path}: [lagrangian]"):
            F = dfield.field_from_lagrangian(sc.lagrangian, spray_bundle)
            check_matrix(sample_matrix(F.psi, p), "psi", symmetry=-1)
    else:  # not checked: sigma is g, checked above, or the identity; psi is zero
        F = dfield.DoubleField(sc.bundle, g_base)
    sc.double_field = F
    return sc
