import math

import numpy as np
import pytest

from bigtangent import fields
from bigtangent.fields import _jet_inverse
from bigtangent.jets import Jet, JetDomainError, jet_space
from bigtangent.multiindex import JetSpace, multi_indices, partial_rows, restriction
from bigtangent.points import ChartPoint


def test_multi_index_count():
    # C(n + order, order) terms in n variables
    assert len(multi_indices(3, 2)) == 10
    assert len(multi_indices(6, 4)) == math.comb(10, 4)
    assert multi_indices(2, 2)[0] == (0, 0)


def test_variable_jet_structure():
    sp = jet_space(2, 3)
    j = Jet.variable(sp, 0, np.array([2.5]))
    assert j.value[0] == 2.5
    assert j.deriv((1, 0))[0] == 1.0
    assert j.deriv((0, 1))[0] == 0.0
    assert j.deriv((2, 0))[0] == 0.0


def test_product_leibniz():
    # (x*y) at (3, 5): d/dx = y, d/dy = x, d2/dxdy = 1
    sp = jet_space(2, 2)
    x = Jet.variable(sp, 0, np.array([3.0]))
    y = Jet.variable(sp, 1, np.array([5.0]))
    p = x * y
    assert p.value[0] == 15.0
    assert p.deriv((1, 0))[0] == 5.0
    assert p.deriv((0, 1))[0] == 3.0
    assert p.deriv((1, 1))[0] == 1.0
    assert p.deriv((2, 0))[0] == 0.0


def test_polynomial_third_derivative_exact():
    sp = jet_space(1, 3)
    x = Jet.variable(sp, 0, np.array([1.7]))
    f = x ** 3 - 2 * x + 4.0
    assert f.deriv((3,))[0] == pytest.approx(6.0, abs=1e-14)
    assert f.deriv((1,))[0] == pytest.approx(3 * 1.7 ** 2 - 2, abs=1e-13)


def test_reciprocal_and_division():
    sp = jet_space(1, 4)
    x = Jet.variable(sp, 0, np.array([2.0]))
    r = 1.0 / x
    # d^k (1/x) = (-1)^k k! / x^(k+1)
    for k in range(5):
        expect = (-1) ** k * math.factorial(k) / 2.0 ** (k + 1)
        assert r.deriv((k,))[0] == pytest.approx(expect, rel=1e-14)
    q = (x * x + 1) / x
    assert q.value[0] == pytest.approx(2.5)


def test_overflowing_high_derivative_leaves_lower_rows_finite():
    # at x1 = 1e-120, d^3(1/x1)/3! = -1e480 overflows; the value and first
    # derivative rows, where w^3 is an exact zero, must not turn into NaN
    f = fields.field("1/x1", 1)
    p = ChartPoint(np.array([[1e-120]]), np.array([[0.0]]), np.array([[0.0]]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = f.jet(p, 3).c[:, 0]
    # rows: 1, then z1, y1, x1 (the last variable first)
    assert c[:4].tolist() == [1e120, 0.0, 0.0, -1e240]


def test_overflowing_derivative_leaves_exactly_zero_rows_zero():
    # at x = 1e-120, d^k(1/x)/k! overflows for k >= 2; a row in another
    # variable, where every power of the nilpotent part is an exact zero, is
    # 0 and not 0 * inf = NaN
    sp = jet_space(3, 3)
    with np.errstate(over="ignore", divide="ignore"):
        c = Jet.variable(sp, 0, np.array([1e-120])).reciprocal().c[:, 0]
    for t, v in zip(sp.terms, c):
        assert v == {(0, 0, 0): 1e120, (1, 0, 0): -1e240, (2, 0, 0): np.inf,
                     (3, 0, 0): -np.inf}.get(t, 0.0), t
    f = fields.field("1/x1", 1)
    p = ChartPoint(np.array([[1e-120]]), np.array([[0.3]]), np.array([[0.2]]))
    with np.errstate(over="ignore", divide="ignore"):
        c = f.jet(p, 2).c[:, 0]
    # rows: 1, then z1, y1, x1, then the degree-2 rows, x1^2 last
    assert c.tolist() == [1e120, 0.0, 0.0, -1e240] + [0.0] * 5 + [np.inf]


def test_constant_over_an_overflowing_jet_has_the_reciprocals_rows():
    # "1/x1" is the constant 1 over x1; at order 3 the product of 1's
    # constant jet with the reciprocal made 0 * inf = NaN in the rows
    # x1^2 y1, x1^2 z1 and x1^3; a constant numerator or factor scales the
    # other jet as a number, on the memo path and on a tape
    p = ChartPoint(np.array([[1e-120]]), np.array([[0.3]]), np.array([[0.2]]))
    with np.errstate(over="ignore", divide="ignore"):
        want = Jet.variable(jet_space(3, 3), 0, np.array([1e-120])).reciprocal().c
        for text in ("1/x1", "2*(1/x1)", "(1/x1)*2"):
            f = fields.field(text, 1)
            scale = 1.0 if text == "1/x1" else 2.0
            for c in (f.jet(p, 3).c, fields.Tape((f,), 3).run(p)[0].c):
                assert not np.isnan(c).any(), text
                assert np.array_equal(c, want * scale), text


def test_analytic_functions_against_closed_forms():
    sp = jet_space(1, 4)
    v = 0.7
    x = Jet.variable(sp, 0, np.array([v]))
    s, c, e, lg, sq = x.sin(), x.cos(), x.exp(), x.log(), x.sqrt()
    assert s.deriv((2,))[0] == pytest.approx(-math.sin(v), rel=1e-13)
    assert c.deriv((3,))[0] == pytest.approx(math.sin(v), rel=1e-13)
    assert e.deriv((4,))[0] == pytest.approx(math.exp(v), rel=1e-13)
    assert lg.deriv((2,))[0] == pytest.approx(-1.0 / v ** 2, rel=1e-13)
    assert sq.deriv((1,))[0] == pytest.approx(0.5 / math.sqrt(v), rel=1e-13)
    assert sq.deriv((2,))[0] == pytest.approx(-0.25 * v ** -1.5, rel=1e-13)


def test_chain_rule_composition():
    # f = exp(sin(x^2)) has a known first derivative
    sp = jet_space(1, 2)
    v = 0.9
    x = Jet.variable(sp, 0, np.array([v]))
    f = (x ** 2).sin().exp()
    expect = math.exp(math.sin(v * v)) * math.cos(v * v) * 2 * v
    assert f.deriv((1,))[0] == pytest.approx(expect, rel=1e-12)


def test_partial_lowers_order():
    sp = jet_space(2, 3)
    x = Jet.variable(sp, 0, np.array([1.1]))
    y = Jet.variable(sp, 1, np.array([-0.4]))
    f = x ** 2 * y + y ** 3
    fx = f.partial(0)
    assert fx.space.order == 2
    assert fx.value[0] == pytest.approx(2 * 1.1 * -0.4)
    assert fx.deriv((1, 1))[0] == pytest.approx(2.0)
    fyy = f.partial(1).partial(1)
    assert fyy.value[0] == pytest.approx(6 * -0.4)


def test_batched_points_match_loop():
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.2, 1.5, size=11)
    sp = jet_space(1, 3)
    x = Jet.variable(sp, 0, vals)
    f = (x.log() + x ** 2).sin()
    for k, v in enumerate(vals):
        xk = Jet.variable(sp, 0, np.array([v]))
        fk = (xk.log() + xk ** 2).sin()
        np.testing.assert_allclose(f.c[:, k], fk.c[:, 0], rtol=1e-13, atol=1e-15)


def test_domain_errors():
    sp = jet_space(1, 2)
    zero = Jet.variable(sp, 0, np.array([0.0]))
    neg = Jet.variable(sp, 0, np.array([-1.0]))
    with pytest.raises(JetDomainError):
        zero.reciprocal()
    with pytest.raises(JetDomainError):
        neg.log()
    with pytest.raises(JetDomainError):
        neg.sqrt()
    with pytest.raises(JetDomainError):
        zero.sqrt()  # derivative of sqrt blows up at 0
    # order-0 sqrt at exactly zero is fine
    sp0 = jet_space(1, 0)
    assert Jet.variable(sp0, 0, np.array([0.0])).sqrt().value[0] == 0.0


def _mul_reference(space, a, b):
    """The jet product as np.add.at over the multiplication table."""
    oi, ai, bi = space.mul_table
    out = np.zeros_like(a)
    np.add.at(out, oi, a[ai] * b[bi])
    return out


def test_product_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(24):
        sp = jet_space(int(rng.integers(1, 10)), int(rng.integers(0, 5)))
        for width in (1, 7, 1024):
            a, b = rng.standard_normal((2, sp.nterms, width))
            for arr in (a, b):
                hole = rng.random(arr.shape) < 0.3
                arr[hole] = rng.choice([0.0, -0.0], size=int(hole.sum()))
            got = (Jet(sp, a) * Jet(sp, b)).c
            want = _mul_reference(sp, a, b)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_product_of_signed_zeros_is_positive_zero():
    sp = jet_space(2, 2)
    a = np.full((sp.nterms, 3), -0.0)
    b = np.ones((sp.nterms, 3))
    got = (Jet(sp, a) * Jet(sp, b)).c
    assert np.array_equal(np.signbit(got), np.signbit(_mul_reference(sp, a, b)))
    assert not np.signbit(got).any()


def _loop_tables(space):
    """mul_table and partial tables built term by term."""
    oi, ai, bi = [], [], []
    for i, ta in enumerate(space.terms):
        for j, tb in enumerate(space.terms):
            if sum(ta) + sum(tb) <= space.order:
                oi.append(space.index[tuple(x + y for x, y in zip(ta, tb))])
                ai.append(i)
                bi.append(j)
    partials = []
    if space.order:
        lower = multi_indices(space.nvars, space.order - 1)
        for var in range(space.nvars):
            ups = [t[:var] + (t[var] + 1,) + t[var + 1 :] for t in lower]
            partials.append(([space.index[u] for u in ups], [u[var] for u in ups]))
    return (oi, ai, bi), partials


@pytest.mark.parametrize("nvars,order", [(1, 0), (1, 4), (3, 2), (4, 3), (6, 2), (63, 1)])
def test_vectorised_tables_match_loop_reference(nvars, order):
    # (63, 1) encodes exponents as Python integers: 2**63 overflows int64
    sp = JetSpace(nvars, order)
    mul, partials = _loop_tables(sp)
    for got, want in zip(sp.mul_table, mul):
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
    for var, (src, fac) in enumerate(partials):
        got_src, got_fac = sp.partial_table(var)
        assert np.array_equal(got_src, src)
        assert np.array_equal(got_fac, np.array(fac, dtype=float))


# -- jets over a subset of the chart variables ------------------------------
def _holey(rng, shape):
    """Random coefficients with 30% of them +0.0 or -0.0."""
    arr = rng.standard_normal(shape)
    hole = rng.random(shape) < 0.3
    arr[hole] = rng.choice([0.0, -0.0], size=int(hole.sum()))
    return arr


def _subset(rng, variables):
    """A random nonempty sorted subset of ``variables``."""
    k = int(rng.integers(1, len(variables) + 1))
    return tuple(sorted(int(v) for v in rng.choice(variables, size=k, replace=False)))


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_restricted_arithmetic_is_the_restricted_full_result_bit_for_bit():
    # products, sums, the _compose functions and the Newton inverse of jets
    # over a subset of the variables equal the full-space results on the
    # subset's rows
    rng = np.random.default_rng(13)
    for _ in range(24):
        n, order = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        full = tuple(range(n))
        sub = _subset(rng, full)
        big, small = jet_space(n, order), jet_space(len(sub), order)
        rows = restriction(full, sub, order)

        def cut(jet):
            return Jet(small, jet.c[rows])

        for width in (1, 7, 64):
            a, b = (Jet(big, _holey(rng, (big.nterms, width))) for _ in range(2))
            pos = Jet(big, a.c.copy())
            pos.c[0] = np.abs(pos.c[0]) + 0.5  # inside every function's domain
            pairs = [(a * b, cut(a) * cut(b)), (a + b, cut(a) + cut(b)), (a - b, cut(a) - cut(b))]
            for name in ("reciprocal", "exp", "log", "sqrt", "sin", "cos"):
                pairs.append((getattr(pos, name)(), getattr(cut(pos), name)()))
            k = 3
            A = [[Jet(big, _holey(rng, (big.nterms, width))) for _ in range(k)] for _ in range(k)]
            for i in range(k):
                A[i][i].c[0] = np.abs(A[i][i].c[0]) + 4.0  # diagonally dominant
            inv = _jet_inverse(A, big, width)
            inv_small = _jet_inverse([[cut(f) for f in row] for row in A], small, width)
            pairs += [(inv[i][j], inv_small[i][j]) for i in range(k) for j in range(k)]
            for whole, part in pairs:
                assert part.space is small
                _assert_same_bits(part.c, whole.c[rows])


def test_restriction_and_partial_tables_between_subsets():
    # tables between two subsets compose with the tables from the full
    # space, and a partial read through partial_rows is the full partial
    # restricted; order 0 reads the constant term from any variables
    rng = np.random.default_rng(14)
    for _ in range(40):
        n, order = int(rng.integers(1, 10)), int(rng.integers(0, 4))
        full = tuple(range(n))
        src = _subset(rng, full)
        var = src[int(rng.integers(len(src)))]
        dst = _subset(rng, src) if order else full
        dst = tuple(sorted(set(dst) | {var})) if order else dst
        up = jet_space(n, order + 1)
        c = _holey(rng, (up.nterms, 5))
        jet = Jet(up, c)
        c_src = c[restriction(full, src, order + 1)]
        whole = jet.partial(var).c
        rows, factor = partial_rows(src, dst, order, var)
        assert factor.shape == (jet_space(len(dst), order).nterms, 1)
        _assert_same_bits(c_src[rows] * factor, whole[restriction(full, dst, order)] if order else whole)
        if order:
            inner = _subset(rng, dst)
            _assert_same_bits(
                c[restriction(full, dst, order)][restriction(dst, inner, order)],
                c[restriction(full, inner, order)],
            )
        table_rows, table_factor = up.partial_table(var)
        rows, factor = partial_rows(full, full, order, var)
        _assert_same_bits(c[rows] * factor, c[table_rows] * table_factor[:, None])


def test_restriction_rows_are_a_slice_when_consecutive():
    # linear terms come last variable first, so the first-order terms of
    # the last variables are the first rows
    assert restriction((0, 1, 2, 3, 4, 5), (2, 3, 4, 5), 1) == slice(0, 5)
    assert list(restriction((0, 1, 2, 3, 4, 5), (1, 3), 1)) == [0, 3, 5]
    with pytest.raises(ValueError):
        restriction((0, 2), (0, 1), 1)
