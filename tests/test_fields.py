import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bigtangent import dfield, fields, horizon, scene
from bigtangent.exprdsl import parse_expr
from bigtangent.jets import JetDomainError
from bigtangent.points import ChartPoint, sample_box
from oracles import fd_oracle, shifted


def fmat(rows) -> np.ndarray:
    """A 2D object array of ScalarFields from nested lists."""
    rows = [[fields.as_field(e) for e in row] for row in rows]
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


def test_a_point_of_coordinate_vectors_is_a_batch_of_one():
    one = ChartPoint([0.3, -0.2], [0.1, 0.4], [-0.5, 0.2])
    batch = ChartPoint([[0.3], [-0.2]], [[0.1], [0.4]], [[-0.5], [0.2]])
    assert one.flat.shape == (6, 1) and np.array_equal(one.flat, batch.flat)
    assert one.text(0) == batch.text(0) == "x=0.3,-0.2;y=0.1,0.4;z=-0.5,0.2"
    f = fields.field("sin(x1*y2) + z1^2/x2", 2)
    assert np.array_equal(f.jet(one, 2).c, f.jet(batch, 2).c)


def test_field_value_matches_expr():
    p = sample_box(2, 8, seed=3, low=0.5, high=1.5)
    text = "sin(x1*y1) + z2^2 / x2"
    f = fields.field(text, 2)
    assert parse_expr(text, 2) is f
    for k in range(p.npoints):
        pk = p.select(k)
        assert f.value(pk)[0] == pytest.approx(f.value(p)[k])
        assert f.value(pk)[0] == pytest.approx(
            float(np.sin(pk.x[0, 0] * pk.y[0, 0]) + pk.z[1, 0] ** 2 / pk.x[1, 0])
        )


def test_partial_matches_fd():
    m = 1
    p = sample_box(m, 5, seed=11, low=0.4, high=1.1)
    text = "exp(x1)*sin(y1) + z1^3"
    f = fields.field(text, m)
    # d/dx1 then d/dy1 (vars 0 and 1 in flat order)
    fxy = f.partial(0).partial(1)
    for k in range(p.npoints):
        fd = fd_oracle(f, p.select(k), (1, 1, 0), h=1e-5)
        assert fxy.value(p)[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    # second partial in z
    fzz = f.partial(2).partial(2)
    np.testing.assert_allclose(fzz.value(p), 6 * p.z[0], rtol=1e-12)


def test_cache_lives_on_point():
    p = sample_box(1, 3, seed=0)
    f = fields.field("x1*y1", 1)
    j1 = f.jet(p, 2)
    j2 = f.jet(p, 2)
    assert j1 is j2
    q = sample_box(1, 3, seed=1)
    assert f.jet(q, 2) is not j1


def test_matrix_inverse_values_and_derivatives():
    m = 1
    p = sample_box(m, 6, seed=5, low=0.2, high=0.9)
    a = fmat(
        [
            [fields.field("1 + x1^2", m), fields.field("y1", m)],
            [fields.field("y1", m), fields.field("2 + z1^2", m)],
        ]
    )
    inv = fields.finverse(a)
    # A * A^-1 = I at values
    prod = fields.fvalue(fields.fmatmul(a, inv), p)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(
                prod[i, j], 1.0 if i == j else 0.0, atol=1e-12
            )
    # derivative of the inverse: d(A^-1) = -A^-1 (dA) A^-1
    var = 1  # y1
    dinv = fields.fvalue(
        np.array(
            [[inv[i, j].partial(var) for j in range(2)] for i in range(2)],
            dtype=object,
        ),
        p,
    )
    da = fields.fvalue(
        np.array(
            [
                [fields.as_field(a[i, j]).partial(var) for j in range(2)]
                for i in range(2)
            ],
            dtype=object,
        ),
        p,
    )
    invv = fields.fvalue(inv, p)
    expect = -np.einsum("ikp,klp,ljp->ijp", invv, da, invv)
    np.testing.assert_allclose(dinv, expect, rtol=1e-9, atol=1e-11)


def test_matrix_inverse_second_derivatives_fd():
    # cross-check one second derivative of an inverse entry by finite
    # differences on the value function
    m = 1
    a = fmat(
        [
            [fields.field("2 + sin(x1)", m), fields.field("x1*y1", m)],
            [fields.field("x1*y1", m), fields.field("3 + y1^2", m)],
        ]
    )
    inv = fields.finverse(a)
    f = inv[0, 1]
    p0 = ChartPoint([0.4], [0.7], [0.1])
    h = 1e-4
    vals = {}
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            pk = shifted(shifted(p0, 0, sx * h), 1, sy * h)
            vals[sx, sy] = float(f.value(pk)[0])
    fd_xy = (vals[1, 1] - vals[1, -1] - vals[-1, 1] + vals[-1, -1]) / (4 * h * h)
    exact = f.partial(0).partial(1).value(p0)[0]
    assert exact == pytest.approx(fd_xy, rel=1e-5, abs=1e-7)


def test_fsolve_and_fdet():
    m = 1
    p = sample_box(m, 4, seed=2, low=0.3, high=1.0)
    a = fmat([[2.0, fields.field("x1", m)], [0.0, fields.field("1 + y1^2", m)]])
    rhs = np.array([fields.field("z1", m), fields.ONE], dtype=object)
    x = fields.fsolve(a, rhs)
    av = fields.fvalue(a, p)
    xv = fields.fvalue(np.array(x, dtype=object), p)
    rv = fields.fvalue(rhs, p)
    np.testing.assert_allclose(np.einsum("ijp,jp->ip", av, xv), rv, atol=1e-12)
    det = fields.fdet(a)
    np.testing.assert_allclose(det.value(p), 2 * (1 + p.y[0] ** 2), rtol=1e-13)


def test_constant_folding_keeps_zero_nodes_out():
    f = fields.as_field(0.0) * fields.field("x1", 1) + fields.as_field(0)
    assert isinstance(f, fields.Const) and f.v == 0.0
    g = fields.ONE * fields.field("x1", 1)
    assert isinstance(g, fields.Coord)


def test_equal_constructions_are_one_node():
    text = "sin(x1*y2) + z1^3 / exp(x2)"
    f = fields.field(text, 2)
    assert fields.field(text, 2) is f
    assert fields.Bin("+", f.a, f.b) is f
    assert f.partial(0) is f.partial(0)
    assert fields.Const(2) is fields.Const(2.0)
    a = fmat([[fields.field("1 + x1^2", 1), 0.0], [0.0, 2.0]])
    assert fields.finverse(a)[0, 0] is fields.finverse(a.copy())[0, 0]


def test_partial_outside_support_is_zero():
    f = fields.field("exp(x1)", 1)
    assert f.support == {0}
    assert f.partial(1) is fields.ZERO and f.partial(2) is fields.ZERO
    g = fields.field("x1*y2 + sin(z1)", 2)
    assert g.support == {0, 3, 4}
    assert g.partial(0).support == g.support
    assert fields.ONE.support == frozenset()
    inv = fields.finverse(fmat([[fields.field("2 + x1", 1), 0.0], [0.0, 1.0]]))
    assert inv[1, 1].support == {0} and inv[1, 1].partial(1) is fields.ZERO


def test_negative_zero_constant_is_its_own_node():
    neg = fields.Const(-0.0)
    assert neg is not fields.ZERO and neg is fields.Const(-0.0)
    p = sample_box(1, 3, seed=0)
    assert np.all(np.signbit(neg.value(p)))
    assert not np.any(np.signbit(fields.ZERO.value(p)))


def test_dropped_graph_is_freed():
    f = fields.field("cos(x1 * 12.375) + y1^7 * 0.3125", 1)
    probe = weakref.ref(f.a)
    f.jet(sample_box(1, 2, seed=0), 1)
    del f
    gc.collect()
    assert probe() is None


@pytest.mark.parametrize("text", ["exp(x1)", "sin(x1) * cos(z1) - 2", "x1^3 / (1 + z1^2)"])
def test_folded_partial_matches_jet_partial(text):
    f = fields.field(text, 1)
    p = sample_box(1, 5, seed=4, low=0.2, high=0.9)
    for var in {0, 1, 2} - f.support:
        assert f.partial(var) is fields.ZERO
        for order in range(3):
            got = f.partial(var).jet(p, order).c
            want = f.jet(p, order + 1).partial(var).c
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def _dsl_exprs(m):
    """DSL texts over the 3m chart, each with a numpy function of the flat
    coordinates that computes the same value."""

    def var(block, i):
        v = "xyz".index(block) * m + i - 1
        return f"{block}{i}", lambda c: c[v]

    def num(text):
        return text, lambda c: np.full(c.shape[1:], float(text))

    leaf = st.sampled_from(
        [var(b, i) for b in "xyz" for i in range(1, m + 1)] + [num(t) for t in ("0", "1", "2", "0.5")]
    )
    binary = {"+": np.add, "-": np.subtract, "*": np.multiply}

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: (f"({t[0][0]} {t[1]} {t[2][0]})", lambda c: binary[t[1]](t[0][1](c), t[2][1](c)))
            ),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
                lambda t: (f"{t[0]}({t[1][0]})", lambda c: getattr(np, t[0])(t[1][1](c)))
            ),
            st.tuples(inner, st.integers(0, 3)).map(
                lambda t: (f"({t[0][0]})^{t[1]}", lambda c: t[0][1](c) ** t[1])
            ),
            inner.map(lambda t: (f"(-({t[0]}))", lambda c: -t[1](c))),
        )

    return st.recursive(leaf, extend, max_leaves=8)


_DSL_CASES = st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), _dsl_exprs(m)))


def _fd(f, p, alpha):
    """``fd_oracle`` with Richardson extrapolation for second partials."""
    if sum(alpha) == 1:
        return fd_oracle(f, p, alpha, h=1e-5)
    return (4.0 * fd_oracle(f, p, alpha, h=1e-3) - fd_oracle(f, p, alpha, h=2e-3)) / 3.0


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_field_graph_matches_numpy_and_fd(case):
    m, (text, numpy_value) = case
    p = sample_box(m, 4, seed=m)
    f = fields.field(text, m)
    with np.errstate(all="ignore"):
        want = numpy_value(p.flat)
    assume(np.all(np.abs(want) < 1e100))
    np.testing.assert_allclose(f.value(p), want, rtol=1e-13)
    # first and second partials at the first sample point, within 1e-6
    # relative to max(1, |fd|)
    p0 = p.select(0)
    j = f.jet(p0, 2)
    assume(np.all(np.abs(j.c) < 1e8))
    for v in sorted(f.support):
        for w in [None] + [w for w in sorted(f.support) if w >= v]:
            alpha = [0] * (3 * m)
            alpha[v] += 1
            if w is not None:
                alpha[w] += 1
            fd = _fd(f, p0, alpha)
            assert abs(j.deriv(alpha)[0] - fd) <= 1e-6 * max(1.0, abs(fd)), (text, alpha)
    assert fields.field(text, m) is f


def _assert_jets_close(got, want, scale):
    """Order-2 jets agree within 1e-10 * scale in every coefficient."""
    assume(np.isfinite(scale) and scale < 1e100)
    assert np.max(np.abs(got.c - want.c)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_jet_reciprocal_identity(case):
    # f * (1/f) = 1 where f is nonzero
    m, (text, _) = case
    f = fields.field(text, m)
    p = sample_box(m, 4, seed=m)
    assume(np.min(np.abs(f.value(p))) > 1e-2)
    fj, rj = f.jet(p, 2), (1 / f).jet(p, 2)
    scale = np.max(np.abs(fj.c)) * np.max(np.abs(rj.c))
    _assert_jets_close((f * (1 / f)).jet(p, 2), fields.ONE.jet(p, 2), scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_jet_exp_log_and_sqrt_square_identities(case):
    # exp(log g) = g and sqrt(g)^2 = g for the positive g = 1 + f^2
    m, (text, _) = case
    g = 1 + fields.field(text, m) ** 2
    p = sample_box(m, 4, seed=m)
    want = g.jet(p, 2)
    scale = max(1.0, np.max(np.abs(want.c)))
    _assert_jets_close(g.log().exp().jet(p, 2), want, scale)
    _assert_jets_close((g.sqrt() ** 2).jet(p, 2), want, scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_second_partials_commute(case):
    # both orders of a mixed partial read the same order-2 jet coefficient
    m, (text, _) = case
    f = fields.field(text, m)
    p = sample_box(m, 4, seed=m)
    j = f.jet(p, 2)
    for v in range(3 * m):
        for w in range(v, 3 * m):
            vw = f.partial(v).partial(w).value(p)
            assert np.array_equal(vw, f.partial(w).partial(v).value(p), equal_nan=True)
            alpha = [0] * (3 * m)
            alpha[v] += 1
            alpha[w] += 1
            assert np.array_equal(vw, j.deriv(alpha), equal_nan=True)


def test_fmatmul_rejects_mismatched_shapes():
    a = fields.fzeros(2, 3)
    with pytest.raises(ValueError, match="2 x 3 by a 2 x 2"):
        fields.fmatmul(a, fields.fzeros(2, 2))


_FACTORS = [
    fields.ZERO,
    fields.Const(-0.0),
    fields.ONE,
    fields.Const(2.5),
    0.5,
    -3.0,
    0.0,
    fields.Coord(0),
    fields.Coord(2),
    fields.field("sin(x1) * y1", 1),
    fields.field("exp(z1) - x1", 1).partial(2),
]


def _hand_sum(terms, start):
    """The accumulation loop fsum replaces: every product built, none skipped."""
    acc = start
    for sign, a, b, *rest in terms:
        prod = a * b * rest[0] if rest else a * b
        acc = acc + prod if sign > 0 else acc - prod
    return acc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, -1]),
            st.lists(st.sampled_from(_FACTORS), min_size=2, max_size=3),
        ).map(lambda t: (t[0], *t[1])),
        max_size=6,
    ),
    st.sampled_from([fields.ZERO, fields.Coord(1), fields.field("x1 + y1^2", 1)]),
)
def test_fsum_is_the_hand_loop_node(terms, start):
    assert fields.fsum(terms, start) is _hand_sum(terms, start)
    assert fields.fsum(iter(terms), start=start) is _hand_sum(terms, start)


def test_fsum_skips_zero_terms_before_multiplying(monkeypatch):
    calls = []
    mul = fields.ScalarField.__mul__

    def counting(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(fields.ScalarField, "__mul__", counting)
    x, y, z = (fields.Coord(i) for i in range(3))
    terms = [(1, x, y, fields.ZERO), (-1, fields.Const(-0.0), z), (1, x, fields.ZERO, y)]
    assert fields.fsum(terms, start=z) is z
    assert calls == []
    fields.fsum([(1, x, y)])
    assert len(calls) == 1


def test_vertical_derivative_builds_only_nonzero_directions(monkeypatch):
    from bigtangent import dfield, horizon

    m = 1
    F = dfield.DoubleField(horizon.flat_bundle(m), [["1 + y1^2"]])
    nabla = dfield.d0_connection(F).D0
    s = np.array([fields.field("x1*y1", m), fields.field("z1", m)], dtype=object)
    want = dfield.section_derivative(nabla, m + 1, s)
    built = []
    section_derivative = dfield.section_derivative

    def counting(nabla, a, s):
        built.append(a)
        return section_derivative(nabla, a, s)

    monkeypatch.setattr(dfield, "section_derivative", counting)
    Z = dfield._coord_basis(m)[1]
    out = dfield.vertical_derivative(nabla, Z, s)
    assert built == [m + 1]
    assert all(out[c] is want[c] for c in range(2 * m))


# -- the evaluation tape ----------------------------------------------------
def _assert_same_jets(got, want):
    """Jets equal bit for bit, the sign of zero included."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.space is w.space
        assert np.array_equal(g.c, w.c, equal_nan=True)
        assert np.array_equal(np.signbit(g.c), np.signbit(w.c))


def _memo_eval(roots, order, pts):
    """The roots' jets at a fresh point, through the per-point memo."""
    p = ChartPoint(*np.split(pts, 3))
    return [f.jet(p, order) for f in roots]


@pytest.fixture(scope="module")
def kitchen_sink_integrand():
    """The kitchen-sink double field, its rho, the integrand tape it holds
    and one 1024-point chunk, as ``dfield.action`` uses them."""
    F = scene.load_scene(str(Path(__file__).resolve().parent.parent / "scenes" / "kitchen-sink.scene")).double_field
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(3 * F.m, 1024))
    return F, F.curvatures[2], F.integrand_tape, pts


def test_integrand_tape_matches_the_memo(kitchen_sink_integrand):
    F, rho, tape, pts = kitchen_sink_integrand
    assert [key[0] for key in tape.keys] == [rho, F.density, fields.fdet(F.sigma)]
    got = tape.run(ChartPoint(*np.split(pts, 3)))
    want = _memo_eval([key[0] for key in tape.keys], 0, pts)
    _assert_same_jets(got, want)
    rv, dv, detv = (j.value for j in want)
    vals = dfield._integrand_values(F.m, tape, pts)
    assert np.array_equal(vals, np.exp(-2.0 * dv) * rv * np.sqrt(np.abs(detv)))


def test_integrand_tape_frees_jets_after_their_last_use(kitchen_sink_integrand):
    F, rho, tape, pts = kitchen_sink_integrand

    class Held(dict):
        peak = 0

        def __setitem__(self, key, jet):
            super().__setitem__(key, jet)
            self.peak = max(self.peak, len(self))

    held = Held()
    p = ChartPoint(*np.split(pts, 3))
    entries = tape.entries(p.m)
    fields._run(entries, held, p)
    assert len(entries) > 20000
    assert held.peak <= 0.05 * len(entries), (held.peak, len(entries))
    assert set(held) == set(tape.keys)  # only the roots outlive the run
    assert p._cache == {}  # nothing is stored on the point
    assert not any(key[0] is fields.Tape for key in fields._NODES)  # tapes are not interned


def test_integrand_tape_reads_fewer_coefficient_rows(kitchen_sink_integrand):
    # keys of order >= 1 carry only the variables their readers
    # differentiate along; rows are counted over every jet an entry
    # stores, restrictions included, against the same keys in the full space
    F, rho, tape, pts = kitchen_sink_integrand

    class Rows(dict):
        count = 0

        def __setitem__(self, key, jet):
            super().__setitem__(key, jet)
            jets = [j for row in jet for j in row] if isinstance(jet, list) else [jet]
            self.count += sum(j.c.shape[0] for j in jets)

    p = ChartPoint(*np.split(pts[:, :4], 3))
    restricted, whole = Rows(), Rows()
    fields._run(tape.entries(p.m), restricted, p)
    fields._run(fields._compile(tape.keys, whole), whole, p)  # the memo path
    assert restricted.count <= 0.8 * whole.count, (restricted.count, whole.count)


def test_action_compiles_the_integrand_tape_once(monkeypatch):
    # every chunk's _integrand_values must find the tape the field holds,
    # not compile its own
    F = dfield.DoubleField(horizon.flat_bundle(2), [["1 + (1/2)*y2^2", "0"], ["0", "1"]])
    compiled = []
    compile_ = fields._compile

    def counting(keys, memo):
        compiled.append(list(keys))
        return compile_(keys, memo)

    monkeypatch.setattr(fields, "_compile", counting)
    dfield.action(F, method="mc", samples=40, chunk=8)  # five chunks
    # the tape's roots are rho, the density and det sigma, all at order 0;
    # the other compiles are the memo evaluations of the field's checks
    tapes = [keys for keys in compiled if len(keys) == 3 and keys[1] == (F.density, 0)]
    assert len(tapes) == 1


def test_tape_compile_pauses_the_cycle_collector(monkeypatch):
    # the collector is off while a tape compiles and comes back in the
    # state it was in, also when compiling raises
    f = fields.field("x1*y1 + exp(z1)", 1)
    seen = []

    def failing(keys, m):
        seen.append(gc.isenabled())
        raise RuntimeError("compile failed")

    monkeypatch.setattr(fields, "_tape_entries", failing)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            with pytest.raises(RuntimeError, match="compile failed"):
                fields.Tape((f,), 1).entries(1)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
    assert seen == [False, False]
    monkeypatch.undo()
    assert gc.isenabled()
    assert fields.Tape((f,), 1).entries(1) and gc.isenabled()


def test_tape_domain_error_names_the_point():
    m = 2
    F = dfield.DoubleField(horizon.flat_bundle(m), [["1", "0"], ["0", "1"]], density="2 + log(x1)")
    pts = np.random.default_rng(1).uniform(0.1, 1.0, size=(3 * m, 5))
    pts[0, 3] = -0.25
    pts[0, 4] = 0.0
    with pytest.raises(JetDomainError) as info:
        dfield._integrand_values(m, F.integrand_tape, pts)
    point = ChartPoint(*np.split(pts, 3)).text(3)
    assert info.value.point == point
    assert str(info.value) == f"log of a non-positive value at {point}"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_tape_matches_the_memo(case):
    # the tape, which frees jets as it goes, against the memoised evaluation,
    # for the field and its first partials as one root set
    m, (text, _) = case
    f = fields.field(text, m)
    roots = (f, *(f.partial(v) for v in sorted(f.support)))
    pts = sample_box(m, 4, seed=m).flat
    for order in range(3):
        with np.errstate(all="ignore"):
            got = fields.Tape(roots, order).run(ChartPoint(*np.split(pts, 3)))
            want = _memo_eval(roots, order, pts)
        _assert_same_jets(got, want)


def test_deep_graph_evaluates_at_the_default_recursion_limit():
    # a 5,000-level chain of operator-built nodes, which a recursive
    # evaluator could not walk within Python's default limit of 1000 frames
    x, y = fields.Coord(0), fields.Coord(1)
    f = x
    for k in range(5000):
        f = f * 0.5 if k % 2 else f + y
    p = sample_box(1, 3, seed=0)
    value, dy = p.x[0].copy(), np.zeros(3)
    for k in range(5000):
        value, dy = (value * 0.5, dy * 0.5) if k % 2 else (value + p.y[0], dy + 1.0)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # Python's default
    try:
        assert np.array_equal(f.value(p), value)
        assert np.array_equal(f.partial(1).value(p), dy)
        assert np.array_equal(fields.Tape((f,), 2).run(p)[0].c, f.jet(p, 2).c)
    finally:
        sys.setrecursionlimit(limit)
