import gc
import operator
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bigtangent import dfield, fields, horizon, scene
from bigtangent.exprdsl import parse_expr
from bigtangent.jets import JetDomainError
from bigtangent.multiindex import jet_space
from bigtangent.points import ChartPoint, sample_box
from oracles import Jet, box_points, fd_oracle, hand_sum, operator_jet, shifted


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
    f = parse_expr("sin(x1*y2) + z1^2/x2", 2)
    assert np.array_equal(f.jet(one, 2), f.jet(batch, 2))


def test_field_value_matches_expr():
    p = box_points(2, 8, seed=3, low=0.5, high=1.5)
    text = "sin(x1*y1) + z2^2 / x2"
    f = parse_expr(text, 2)
    assert parse_expr(text, 2) is f
    for k in range(p.npoints):
        pk = p.select(k)
        assert f.value(pk)[0] == pytest.approx(f.value(p)[k])
        assert f.value(pk)[0] == pytest.approx(
            float(np.sin(pk.x[0, 0] * pk.y[0, 0]) + pk.z[1, 0] ** 2 / pk.x[1, 0])
        )


def test_partial_matches_fd():
    m = 1
    p = box_points(m, 5, seed=11, low=0.4, high=1.1)
    text = "exp(x1)*sin(y1) + z1^3"
    f = parse_expr(text, m)
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
    f = parse_expr("x1*y1", 1)
    j1 = f.jet(p, 2)
    j2 = f.jet(p, 2)
    assert j1 is j2
    q = sample_box(1, 3, seed=1)
    assert f.jet(q, 2) is not j1


def test_matrix_inverse_values_and_derivatives():
    m = 1
    p = box_points(m, 6, seed=5, low=0.2, high=0.9)
    a = fmat(
        [
            [parse_expr("1 + x1^2", m), parse_expr("y1", m)],
            [parse_expr("y1", m), parse_expr("2 + z1^2", m)],
        ]
    )
    inv = fields.finverse(a)
    # A * A^-1 = I at values
    prod = fields.fvalue(a @ inv, p)
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
            [parse_expr("2 + sin(x1)", m), parse_expr("x1*y1", m)],
            [parse_expr("x1*y1", m), parse_expr("3 + y1^2", m)],
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


def test_inverse_solve_and_fdet():
    m = 1
    p = box_points(m, 4, seed=2, low=0.3, high=1.0)
    a = fmat([[2.0, parse_expr("x1", m)], [0.0, parse_expr("1 + y1^2", m)]])
    rhs = np.array([parse_expr("z1", m), fields.ONE], dtype=object)
    x = fields.finverse(a) @ rhs
    av = fields.fvalue(a, p)
    xv = fields.fvalue(np.array(x, dtype=object), p)
    rv = fields.fvalue(rhs, p)
    np.testing.assert_allclose(np.einsum("ijp,jp->ip", av, xv), rv, atol=1e-12)
    det = fields.fdet(a)
    np.testing.assert_allclose(det.value(p), 2 * (1 + p.y[0] ** 2), rtol=1e-13)


def test_constant_folding_keeps_zero_nodes_out():
    f = fields.as_field(0.0) * parse_expr("x1", 1) + fields.as_field(0)
    assert isinstance(f, fields.Const) and f.v == 0.0
    g = fields.ONE * parse_expr("x1", 1)
    assert isinstance(g, fields.Coord)


def test_equal_constructions_are_one_node():
    text = "sin(x1*y2) + z1^3 / exp(x2)"
    f = parse_expr(text, 2)
    assert parse_expr(text, 2) is f
    a, ((sign, b),) = f.start, f.terms
    assert sign == 1 and a + b is f and fields.Sum(a, ((1, b),)) is f
    assert f.partial(0) is f.partial(0)
    assert fields.Const(2) is fields.Const(2.0)
    a = fmat([[parse_expr("1 + x1^2", 1), 0.0], [0.0, 2.0]])
    assert fields.finverse(a)[0, 0] is fields.finverse(a.copy())[0, 0]


def test_partial_outside_support_is_zero():
    f = parse_expr("exp(x1)", 1)
    assert f.support == {0}
    assert f.partial(1) is fields.ZERO and f.partial(2) is fields.ZERO
    g = parse_expr("x1*y2 + sin(z1)", 2)
    assert g.support == {0, 3, 4}
    assert g.partial(0).support == g.support
    assert fields.ONE.support == frozenset()
    inv = fields.finverse(fmat([[parse_expr("2 + x1", 1), 0.0], [0.0, 1.0]]))
    assert inv[1, 1].support == {0} and inv[1, 1].partial(1) is fields.ZERO


def test_singular_matrix_is_a_domain_error_at_its_first_sample():
    # numpy inverts the batch as a whole; the error names the first
    # singular sample, so the chart point reaches the message
    inv = fields.finverse(fmat([[fields.Coord(0)]]))
    with pytest.raises(JetDomainError) as err:
        fields.fvalue(inv, ChartPoint([0.0], [0.5], [0.5]))
    assert err.value.index == 0
    assert str(err.value) == "singular matrix at x=0.0;y=0.5;z=0.5"
    with pytest.raises(JetDomainError) as err:
        fields.fvalue(inv, ChartPoint([[1.0, 0.0, 0.0]], [[0.0] * 3], [[0.0] * 3]))
    assert err.value.index == 1


def test_negative_zero_constant_is_its_own_node():
    neg = fields.Const(-0.0)
    assert neg is not fields.ZERO and neg is fields.Const(-0.0)
    p = sample_box(1, 3, seed=0)
    assert np.all(np.signbit(neg.value(p)))
    assert not np.any(np.signbit(fields.ZERO.value(p)))


def _kinds():
    """One construction of each node kind, as (label, build, key): ``build``
    builds only that node, from operands the list holds, and ``key`` is its
    ``_NODES`` key."""
    f = parse_expr("sin(x1) * y1 + 7.25", 1)
    x, y = fields.Coord(0), fields.Coord(1)
    # the constants of the folds and coerced floats, held so those hit
    two, c, half = fields.Const(2.0), fields.Const(3.0625), fields.Const(2.5)
    inv = fields.Func("reciprocal", f)  # the divisor's node of a quotient
    mat = fmat([[f, 0.5], [x, 3.0]])
    owner = fields.finverse(mat)[0, 0].owner
    owner_key = (fields._MatrixInverse, owner.rows)
    return [
        ("Const", lambda: fields.Const(6.375), (fields.Const, 6.375, 1.0)),
        ("Const(-0.0)", lambda: fields.Const(-0.0), (fields.Const, -0.0, -1.0)),
        ("Const fold", lambda: two * c, (fields.Const, 6.125, 1.0)),
        ("Coord", lambda: fields.Coord(2), (fields.Coord, 2)),
        ("+", lambda: f + x, (fields.Sum, f, ((1, x),))),
        ("radd", lambda: 2.5 + f, (fields.Sum, f, ((1, half),))),
        ("-", lambda: f - y, (fields.Sum, f, ((-1, y),))),
        ("rsub", lambda: 2.5 - f, (fields.Sum, half, ((-1, f),))),
        ("neg", lambda: -f, (fields.Sum, fields.ZERO, ((-1, f),))),
        ("*", lambda: f * y, (fields.Sum, fields.ZERO, ((1, f, y),))),
        ("/", lambda: x / f, (fields.Sum, fields.ZERO, ((1, x, inv),))),
        ("rtruediv", lambda: 2.5 / f, (fields.Sum, fields.ZERO, ((1, half, inv),))),
        ("Pow", lambda: f**3, (fields.Pow, f, 3)),
        ("Func", lambda: f.exp(), (fields.Func, "exp", f)),
        ("Partial", lambda: f.partial(1), (fields.Partial, f, 1)),
        ("_MatrixInverse", lambda: fields._MatrixInverse(owner.rows), owner_key),
        ("_MatInvEntry", lambda: fields._MatInvEntry(owner, 1, 0), (fields._MatInvEntry, owner, 1, 0)),
        (
            "fsum",
            lambda: fields.fsum([(1, f, x), (-1, 2.0, y), (1, fields.ONE, c, f, fields.ZERO)], y),
            (fields.Sum, y, ((1, f, x), (-1, two, y))),
        ),
        ("Sum", lambda: fields.Sum(x, ((1, f, y),)), (fields.Sum, x, ((1, f, y),))),
    ]


def test_every_node_kind_is_interned_under_its_key():
    for label, build, key in _kinds():
        node = build()
        assert build() is node, label
        assert fields._NODES[key]() is node, label
        assert sum(ref() is node for ref in list(fields._NODES.values())) == 1, label


def test_a_new_node_runs_init_once_and_a_hit_none(monkeypatch):
    # counted as perfbench's tracer counts built nodes: a patched __init__
    # that counts a call when it is the node's own class's __init__
    built = []
    for cls in (fields.Const, fields.Coord, fields.Pow, fields.Func, fields.Partial,
                fields.Sum, fields._MatrixInverse, fields._MatInvEntry):
        def counting(self, *args, _init=cls.__dict__["__init__"], _cls=cls):
            if type(self) is _cls:
                built.append(self)
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    for label, build, key in _kinds():
        fresh = key not in fields._NODES or fields._NODES[key]() is None
        del built[:]
        node = build()
        assert built == ([node] if fresh else []), label
        assert build() is node and len(built) == fresh, label
    assert fresh  # the matrix inverse's entry (1, 0) was not built before


def test_dropped_graph_is_freed():
    f = parse_expr("cos(x1 * 12.375) + y1^7 * 0.3125", 1)
    probe = weakref.ref(f.start)
    f.jet(sample_box(1, 2, seed=0), 1)
    del f
    gc.collect()
    assert probe() is None


@pytest.mark.parametrize("text", ["exp(x1)", "sin(x1) * cos(z1) - 2", "x1^3 / (1 + z1^2)"])
def test_folded_partial_matches_jet_partial(text):
    f = parse_expr(text, 1)
    p = box_points(1, 5, seed=4, low=0.2, high=0.9)
    for var in {0, 1, 2} - f.support:
        assert f.partial(var) is fields.ZERO
        for order in range(3):
            got = f.partial(var).jet(p, order)
            want = Jet(jet_space(3, order + 1), f.jet(p, order + 1)).partial(var).c
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
    f = parse_expr(text, m)
    with np.errstate(all="ignore"):
        want = numpy_value(p.flat)
    assume(np.all(np.abs(want) < 1e100))
    np.testing.assert_allclose(f.value(p), want, rtol=1e-13)
    # first and second partials at the first sample point, within 1e-6
    # relative to max(1, |fd|)
    p0 = p.select(0)
    j = Jet(jet_space(3 * m, 2), f.jet(p0, 2))
    assume(np.all(np.abs(j.c) < 1e8))
    for v in sorted(f.support):
        for w in [None] + [w for w in sorted(f.support) if w >= v]:
            alpha = [0] * (3 * m)
            alpha[v] += 1
            if w is not None:
                alpha[w] += 1
            fd = _fd(f, p0, alpha)
            assert abs(j.deriv(alpha)[0] - fd) <= 1e-6 * max(1.0, abs(fd)), (text, alpha)
    assert parse_expr(text, m) is f


def _assert_jets_close(got, want, scale):
    """Order-2 jets agree within 1e-10 * scale in every coefficient."""
    assume(np.isfinite(scale) and scale < 1e100)
    assert np.max(np.abs(got - want)) <= 1e-10 * scale


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_jet_reciprocal_identity(case):
    # f * (1/f) = 1 where f is nonzero
    m, (text, _) = case
    f = parse_expr(text, m)
    p = sample_box(m, 4, seed=m)
    assume(np.min(np.abs(f.value(p))) > 1e-2)
    fj, rj = f.jet(p, 2), (1 / f).jet(p, 2)
    scale = np.max(np.abs(fj)) * np.max(np.abs(rj))
    _assert_jets_close((f * (1 / f)).jet(p, 2), fields.ONE.jet(p, 2), scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_jet_exp_log_and_sqrt_square_identities(case):
    # exp(log g) = g and sqrt(g)^2 = g for the positive g = 1 + f^2
    m, (text, _) = case
    g = 1 + parse_expr(text, m) ** 2
    p = sample_box(m, 4, seed=m)
    want = g.jet(p, 2)
    scale = max(1.0, np.max(np.abs(want)))
    _assert_jets_close(g.log().exp().jet(p, 2), want, scale)
    _assert_jets_close((g.sqrt() ** 2).jet(p, 2), want, scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_DSL_CASES)
def test_second_partials_commute(case):
    # both orders of a mixed partial read the same order-2 jet coefficient
    m, (text, _) = case
    f = parse_expr(text, m)
    p = sample_box(m, 4, seed=m)
    j = Jet(jet_space(3 * m, 2), f.jet(p, 2))
    for v in range(3 * m):
        for w in range(v, 3 * m):
            vw = f.partial(v).partial(w).value(p)
            assert np.array_equal(vw, f.partial(w).partial(v).value(p), equal_nan=True)
            alpha = [0] * (3 * m)
            alpha[v] += 1
            alpha[w] += 1
            assert np.array_equal(vw, j.deriv(alpha), equal_nan=True)


_FACTORS = [
    fields.ZERO,
    fields.Const(-0.0),
    fields.ONE,
    fields.Const(2.5),
    0.5,
    -3.0,
    0.0,
    -0.0,
    fields.Coord(0),
    fields.Coord(2),
    parse_expr("sin(x1) * y1", 1),
    parse_expr("exp(z1) - x1", 1).partial(2),
]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, -1]),
            st.lists(st.sampled_from(_FACTORS), min_size=2, max_size=3),
        ).map(lambda t: (t[0], *t[1])),
        max_size=6,
    ),
    st.sampled_from([fields.ZERO, fields.Coord(1), parse_expr("x1 + y1^2", 1)]),
)
def test_fsum_is_the_hand_loop_node(terms, start):
    # fsum builds one Sum node where the loop builds a chain of product and
    # +/- nodes, so the two are compared by their jets; equal sums are one
    # node, however the terms are handed over
    got = fields.fsum(terms, start)
    assert fields.fsum(iter(terms), start=start) is got
    p = sample_box(1, 3, seed=5)
    want = hand_sum(terms, start).jet(p, 2)
    _assert_same_jets([got.jet(sample_box(1, 3, seed=5), 2)], [want])


def test_matrix_products_build_the_fsum_node():
    # fdot, the matrix product of object arrays of fields, builds each entry
    # as fsum of its products in the order of the contracted index; numpy's
    # @, dot and tensordot add those products left to right from the first,
    # as chains of nodes with the same jets
    rng = np.random.default_rng(20)
    pool = [fields.as_field(f) for f in _FACTORS]
    pick = np.frompyfunc(lambda i: pool[i], 1, 1)
    p = sample_box(1, 2, seed=6)
    for _ in range(200):
        n, k, l = (int(v) for v in rng.integers(1, 4, size=3))
        a = pick(rng.integers(len(pool), size=(n, k)))
        b = pick(rng.integers(len(pool), size=(k, l)))
        want = np.empty((n, l), dtype=object)
        for i, j in np.ndindex(n, l):
            want[i, j] = fields.fsum((1, a[i, s], b[s, j]) for s in range(k))
        got = fields.fdot(a, b)
        assert got.shape == (n, l)
        assert all(g is w for g, w in zip(got.flat, want.flat))
        assert all(g is w for g, w in zip(fields.fdot(a, b[:, 0]), want[:, 0]))
        c = pick(rng.integers(len(pool), size=(l, 2, n)))
        d = fields.fdot(got, c)
        assert d.shape == (n, 2, n)
        assert all(
            g is fields.fsum((1, got[i, s], c[s, j, r]) for s in range(l))
            for (i, j, r), g in np.ndenumerate(d)
        )
        for chain in (a @ b, np.dot(a, b), np.tensordot(a, b, axes=([1], [0]))):
            _assert_same_jets(
                [f.jet(p, 1) for f in chain.flat],
                [f.jet(sample_box(1, 2, seed=6), 1) for f in want.flat],
            )


def test_a_zero_divisor_raises_over_a_zero_numerator_too():
    # 0/0 builds its quotient node, numerator times the divisor's
    # reciprocal, with a zero numerator kept, and raises when evaluated, as
    # 1/0 does; only a literal-zero factor of * folds, so (1/0)*0 is 0
    x = fields.Coord(0)
    p = sample_box(1, 2, seed=0)
    zero, diff = fields.ZERO, x - x
    quotients = [(zero / zero, zero), (fields.Const(-0.0) / 0.0, fields.Const(-0.0)), (diff / 0, diff)]
    quotients += [
        (parse_expr(text, 1), numerator)
        for text, numerator in (("0/0", zero), ("x1*0/0", zero), ("(x1-x1)/0", diff), ("1/0", fields.ONE))
    ]
    for f, numerator in quotients:
        assert f is fields.Sum(zero, ((1, numerator, fields.Func("reciprocal", zero)),))
        with pytest.raises(JetDomainError, match="^division by zero at "):
            f.value(p)
    assert parse_expr("(1/0)*0", 1) is fields.ZERO


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
    nabla = F.D0
    s = np.array([parse_expr("x1*y1", m), parse_expr("z1", m)], dtype=object)
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
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


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
    assert list(tape.roots) == [rho, F.density, fields.fdet(F.sigma)]
    got = tape.run(ChartPoint(*np.split(pts, 3)))
    want = _memo_eval(tape.roots, 0, pts)
    _assert_same_jets(got, want)
    rv, dv, detv = (j[0] for j in want)
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
    assert len(entries) > 2000
    assert held.peak <= 0.15 * len(entries), (held.peak, len(entries))
    assert set(held) == set(tape.roots)  # only the roots outlive the run
    assert p._cache == {}  # nothing is stored on the point
    assert not any(key[0] is fields.Tape for key in fields._NODES)  # tapes are not interned


def test_integrand_tape_reads_fewer_coefficient_rows(kitchen_sink_integrand):
    # nodes of top order >= 1 carry only the variables their readers
    # differentiate along; rows are counted over every jet an entry
    # stores, restrictions included, against the same nodes in the full
    # space, which the memo path stores on the point
    F, rho, tape, pts = kitchen_sink_integrand

    class Rows(dict):
        count = 0

        def __setitem__(self, key, jet):
            super().__setitem__(key, jet)
            self.count += jet.size // jet.shape[-1]  # an inverse's array holds n * n jets

    p = ChartPoint(*np.split(pts[:, :4], 3))
    restricted = Rows()
    fields._run(tape.entries(p.m), restricted, p)
    p._cache = whole = Rows()
    fields._memo_eval(tape.roots, 0, p)
    assert restricted.count <= 0.85 * whole.count, (restricted.count, whole.count)


def test_action_compiles_the_integrand_tape_once(monkeypatch):
    # every chunk's _integrand_values must find the tape the field holds,
    # not plan its own
    F = dfield.DoubleField(horizon.flat_bundle(2), [["1 + (1/2)*y2^2", "0"], ["0", "1"]])
    planned = []
    plan = fields._plan

    def counting(want, memo, nvars):
        planned.append(dict(want))
        return plan(want, memo, nvars)

    monkeypatch.setattr(fields, "_plan", counting)
    dfield.action(F, method="mc", samples=2 * dfield.CHUNK + 1)  # three chunks
    # the tape's roots are rho, the density and det sigma, all at order 0;
    # the other plans are the memo evaluations of the field's checks
    tapes = [want for want in planned if len(want) == 3 and list(want.items())[1] == (F.density, 0)]
    assert len(tapes) == 1


def test_tape_compile_pauses_the_cycle_collector(monkeypatch):
    # the collector is off while a tape compiles and comes back in the
    # state it was in, also when compiling raises
    f = parse_expr("x1*y1 + exp(z1)", 1)
    seen = []

    def failing(want, memo, nvars):
        seen.append(gc.isenabled())
        raise RuntimeError("compile failed")

    monkeypatch.setattr(fields, "_plan", failing)
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
    f = parse_expr(text, m)
    roots = (f, *(f.partial(v) for v in sorted(f.support)))
    pts = sample_box(m, 4, seed=m).flat
    for order in range(3):
        with np.errstate(all="ignore"):
            got = fields.Tape(roots, order).run(ChartPoint(*np.split(pts, 3)))
            want = _memo_eval(roots, order, pts)
        _assert_same_jets(got, want)


def _leaf_fields():
    """Chart variables and constants, among them both zeros, a tiny and a
    huge value, so that products underflow and reciprocals overflow."""
    consts = [0.0, -0.0, 1.0, -2.5, 1e-200, 1e200]
    return st.sampled_from([fields.Coord(v) for v in range(3)] + [fields.Const(v) for v in consts])


def _node_fields(inner):
    """One node of every kind but the matrix inverse over ``inner``, built
    with the operators, so their constant folds make the scaled products
    and quotients of ``_run``."""
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    return st.one_of(
        st.tuples(st.sampled_from(sorted(ops)), inner, inner).map(lambda t: ops[t[0]](t[1], t[2])),
        st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(
            lambda t: getattr(t[1], t[0])()
        ),
        st.tuples(st.sampled_from(["log", "sqrt"]), inner).map(
            lambda t: getattr(t[1].exp(), t[0])()
        ),
        st.tuples(inner, st.integers(-2, 3)).map(lambda t: t[0] ** t[1]),
        st.tuples(inner, st.integers(0, 2)).map(lambda t: t[0].partial(t[1])),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.recursive(_leaf_fields(), _node_fields, max_leaves=6),
    st.lists(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0, 1e-160, 700.0]), min_size=3, max_size=3),
    st.integers(0, 2),
    st.integers(1, 2),
)
@example(fields.Coord(0).sin(), [-0.0, 0.5, 0.5], 0, 1)  # a value row of -0.0
@example(1.0 / (fields.Coord(0) * 1e-200), [0.5, 0.5, 0.5], 0, 2)  # rows beyond the value overflow
def test_lower_order_jet_is_the_leading_rows(f, coords, k, extra):
    # the premise of evaluating each node once, at its top order: the jet
    # at order k is the leading rows of the jet at any higher order, bit
    # for bit (the sign of zero and overflowed rows included), at fresh
    # points so that neither is read off the other
    def jet(order):
        p = ChartPoint([coords[0]], [coords[1]], [coords[2]])
        with np.errstate(all="ignore"):
            return f.jet(p, order)

    try:
        low, high = jet(k), jet(k + extra)
    except JetDomainError:
        assume(False)
    lead = high[: len(low)]
    assert np.array_equal(low, lead, equal_nan=True)
    assert np.array_equal(np.signbit(low), np.signbit(lead))


_SUM_FACTORS = [
    fields.ZERO,
    fields.Const(-0.0),
    fields.ONE,
    fields.Const(2.5),
    -3.0,
    fields.Const(1e200),
    fields.Const(1e-200),
    fields.Coord(0),
    fields.Coord(1),
    fields.Coord(2),
    parse_expr("sin(x1) * y1", 1),
    parse_expr("exp(z1) - x1", 1).partial(2),
    parse_expr("exp(x1 * y1)", 1),
    parse_expr("exp(x1 * y1) - exp(y1 * x1)", 1),
]
# values with -0.0 rows; through exp or 1e200 rows overflow, and inf - inf
# or 0 * inf make NaN rows
_SUM_VALUES = [0.0, -0.0, 0.5, -1.25, 3.0, 1e-160, 700.0]


def _chain_memo_jets(root, coords, width, orders) -> list:
    """``root``'s jets at ``orders`` in turn, through the memo of one fresh
    point of ``width`` samples."""
    p = ChartPoint(*np.reshape(coords[: 3 * width], (3, 1, width)))
    return [root.jet(p, k) for k in orders]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, -1]),
            st.lists(st.sampled_from(_SUM_FACTORS), min_size=1, max_size=3),
        ).map(lambda t: (t[0], *t[1])),
        max_size=6,
    ),
    st.sampled_from(
        [fields.ZERO, fields.Const(-0.0), fields.Const(1.5), fields.Coord(1), parse_expr("x1 + y1^2", 1)]
    ),
    st.lists(st.sampled_from(_SUM_VALUES), min_size=9, max_size=9),
    st.integers(0, 2),
)
# the folds start at the first product, so its -0.0 value row survives
@example([(1, fields.Coord(0)), (-1, fields.Coord(2))], fields.ZERO, [-0.0, 0.5, 0.0] * 3, 0)
@example(  # a leading constant scales a product that overflowed
    [(-1, fields.Const(1e200), fields.Coord(0), fields.Coord(1)), (1, fields.Coord(2), 2.5)],
    fields.Coord(1), [1e200, 3.0, -0.0] * 3, 1,
)
def test_sum_jets_are_the_chain_jets(terms, start, coords, order):
    # a Sum runs the chain's floating-point operations in the chain's order,
    # so its jets are the hand loop's bit for bit, the sign of zero, NaN
    # and overflowed rows included: on the memo path at widths 1 and 3, at
    # one order and when evaluated again from order 0 to 2, and on a tape
    # at width 1,024
    f, chain = fields.fsum(terms, start), hand_sum(terms, start)
    pts = np.random.default_rng(order).choice(np.array(coords), size=(3, 1024))
    with np.errstate(all="ignore"):
        for width in (1, 3):
            for orders in ((order,), (0, 2)):
                got = _chain_memo_jets(f, coords, width, orders)
                _assert_same_jets(got, _chain_memo_jets(chain, coords, width, orders))
        for k in range(3):
            got = fields.Tape((f,), k).run(ChartPoint(*np.split(pts, 3)))
            _assert_same_jets(got, fields.Tape((chain,), k).run(ChartPoint(*np.split(pts, 3))))


def test_sum_raises_the_chain_domain_error():
    # the first term's sqrt fails at sample 1, the later term's log at
    # sample 0: evaluation meets the sqrt first, as the chain's does, on
    # the memo path and on a tape
    x, y = fields.Coord(0), fields.Coord(1)
    terms = [(1, x.sqrt(), y), (-1, y.log(), x)]
    f = fields.fsum(terms)
    assert type(f) is fields.Sum
    flat = np.array([[0.5, -1.0], [-1.0, 0.5], [0.25, 0.25]])
    p = ChartPoint(*np.split(flat, 3))
    for root in (f, hand_sum(terms, fields.ZERO)):
        for run in (lambda q: root.value(q), lambda q: fields.Tape((root,), 1).run(q)):
            with pytest.raises(JetDomainError) as err:
                run(ChartPoint(*np.split(flat, 3)))
            assert err.value.index == 1
            assert str(err.value) == f"sqrt at a non-positive value at {p.text(1)}"


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
# constants of both signs, fields and numbers, on either side of an operator;
# the log and sqrt raise at a non-positive sample
_OPERANDS = [*_SUM_FACTORS, fields.Const(-3.0), 0.0, 2.5, parse_expr("log(x1)", 1), parse_expr("sqrt(y1)", 1)]


def _outcome(run):
    """``run()``'s jets, or the message and sample of its ``JetDomainError``."""
    try:
        return run()
    except JetDomainError as err:
        return err.message, err.index


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([*_OPERATORS, "neg"]),
    st.sampled_from(_OPERANDS),
    st.sampled_from(_OPERANDS),
    st.lists(st.sampled_from(_SUM_VALUES), min_size=9, max_size=9),
)
# the numerator fails at sample 1 of three, the divisor at sample 0 (and
# at the one sample of width 1): the numerator's error comes first
@example("/", parse_expr("log(x1)", 1), parse_expr("sqrt(y1)", 1), [0.5, -1.25, 0.5, -1.25, 0.5, 0.5, 3.0, 3.0, 3.0])
@example("/", fields.ZERO, fields.Coord(1), [0.5, 0.0, 0.0] * 3)  # 0/0 raises
@example("*", fields.Const(-3.0), fields.Coord(0), [0.5, -0.0, 3.0] * 3)  # -3 * 0.0 rows are +0.0
@example("*", fields.Coord(0), -3.0, [0.5, -0.0, 3.0] * 3)
def test_each_operator_runs_the_two_operand_rule(op, a, b, coords):
    # each operator builds a Sum node; where no constant fold returns an
    # operand or a constant, its jet is the two-operand rule's
    # (oracles.operator_jet) from its operands' jets, bit for bit, the sign
    # of zero, NaN and overflowed rows included, on the memo path and on a
    # tape at widths 1 and 3 and orders 0-2; its first domain error is the
    # rule's, which evaluates the numerator before the divisor
    if op == "neg":
        x, y = fields.ZERO, fields.as_field(a)
        node, op = -y, "-"
    else:
        assume(isinstance(a, fields.ScalarField) or isinstance(b, fields.ScalarField))
        node = _OPERATORS[op](a, b)
        x, y = fields.as_field(a), fields.as_field(b)
        if op in "+*" and not isinstance(a, fields.ScalarField):
            x, y = y, x  # number + field is field + number, and so for *
        if op == "/" and type(y) is fields.Const and y.v != 0.0:
            op, y = "*", fields.Const(1.0 / y.v)  # a constant divisor is its reciprocal factor
    if type(node) is fields.Const or node is x or node is y:
        return  # folded

    def rule(q, k):
        jx, jy = x.jet(q, k), y.jet(q, k)
        return [operator_jet(op, x, y, jet_space(3, k), jx, jy), jx, jy]

    with np.errstate(all="ignore"):
        for width in (1, 3):
            pts = np.reshape(coords[: 3 * width], (3, 1, width))
            for k in range(3):
                p = ChartPoint(*pts)
                want = _outcome(lambda: rule(ChartPoint(*pts), k))
                runs = (
                    lambda: [node.jet(p, k), x.jet(p, k), y.jet(p, k)],
                    lambda: fields.Tape((node, x, y), k).run(ChartPoint(*pts)),
                )
                for run in runs:
                    got = _outcome(run)
                    if type(want) is tuple:
                        assert got == want
                    else:
                        _assert_same_jets(got, want)


def test_one_point_rho_evaluates_each_node_once(kitchen_sink_integrand):
    F, rho, tape, pts = kitchen_sink_integrand
    below, todo = {rho}, [rho]
    while todo:
        for r in todo.pop()._operands():
            if r not in below:
                below.add(r)
                todo.append(r)

    class Stored(dict):
        count = 0

        def __setitem__(self, node, jet):
            super().__setitem__(node, jet)
            self.count += 1

    p = ChartPoint(*np.split(pts[:, :1], 3))
    p._cache = stored = Stored()
    rho.value(p)
    assert stored.count == len(stored) == len(below)
    assert set(stored) == below


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
        assert np.array_equal(fields.Tape((f,), 2).run(p)[0], f.jet(p, 2))
    finally:
        sys.setrecursionlimit(limit)
