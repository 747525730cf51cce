import itertools
import math

import numpy as np
import pytest

from bigtangent import fields, jets, parse_expr
from bigtangent.fields import _jet_inverse
from bigtangent.jets import FUNCTIONS, JetDomainError, constant, mul_coeffs, power, variable
from bigtangent.multiindex import JetSpace, jet_space, multi_indices, partial_rows, restriction
from bigtangent.points import ChartPoint
from oracles import Jet, object_jet_inverse


def test_multi_index_count():
    # C(n + order, order) terms in n variables
    assert len(multi_indices(3, 2)) == 10
    assert len(multi_indices(6, 4)) == math.comb(10, 4)
    assert multi_indices(2, 2)[0] == (0, 0)


def test_variable_jet_structure():
    sp = jet_space(2, 3)
    j = Jet(sp, variable(sp, 0, np.array([2.5])))
    assert j.value[0] == 2.5
    assert j.deriv((1, 0))[0] == 1.0
    assert j.deriv((0, 1))[0] == 0.0
    assert j.deriv((2, 0))[0] == 0.0


def test_product_leibniz():
    # (x*y) at (3, 5): d/dx = y, d/dy = x, d2/dxdy = 1
    sp = jet_space(2, 2)
    x = variable(sp, 0, np.array([3.0]))
    y = variable(sp, 1, np.array([5.0]))
    p = Jet(sp, mul_coeffs(sp, x, y))
    assert p.value[0] == 15.0
    assert p.deriv((1, 0))[0] == 5.0
    assert p.deriv((0, 1))[0] == 3.0
    assert p.deriv((1, 1))[0] == 1.0
    assert p.deriv((2, 0))[0] == 0.0


def test_polynomial_third_derivative_exact():
    sp = jet_space(1, 3)
    x = variable(sp, 0, np.array([1.7]))
    f = Jet(sp, power(sp, x, 3) - 2 * x + constant(sp, 4.0, 1))
    assert f.deriv((3,))[0] == pytest.approx(6.0, abs=1e-14)
    assert f.deriv((1,))[0] == pytest.approx(3 * 1.7 ** 2 - 2, abs=1e-13)


def test_reciprocal_and_division():
    sp = jet_space(1, 4)
    x = variable(sp, 0, np.array([2.0]))
    r = Jet(sp, jets.reciprocal(sp, x))
    # d^k (1/x) = (-1)^k k! / x^(k+1)
    for k in range(5):
        expect = (-1) ** k * math.factorial(k) / 2.0 ** (k + 1)
        assert r.deriv((k,))[0] == pytest.approx(expect, rel=1e-14)
    q = mul_coeffs(sp, mul_coeffs(sp, x, x) + constant(sp, 1.0, 1), r.c)
    assert q[0, 0] == pytest.approx(2.5)


def test_overflowing_high_derivative_leaves_lower_rows_finite():
    # at x1 = 1e-120, d^3(1/x1)/3! = -1e480 overflows; the value and first
    # derivative rows, where w^3 is an exact zero, must not turn into NaN
    f = parse_expr("1/x1", 1)
    p = ChartPoint(np.array([[1e-120]]), np.array([[0.0]]), np.array([[0.0]]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = f.jet(p, 3)[:, 0]
    # rows: 1, then z1, y1, x1 (the last variable first)
    assert c[:4].tolist() == [1e120, 0.0, 0.0, -1e240]


def test_overflowing_derivative_leaves_exactly_zero_rows_zero():
    # at x = 1e-120, d^k(1/x)/k! overflows for k >= 2; a row in another
    # variable, where every power of the nilpotent part is an exact zero, is
    # 0 and not 0 * inf = NaN
    sp = jet_space(3, 3)
    with np.errstate(over="ignore", divide="ignore"):
        c = jets.reciprocal(sp, variable(sp, 0, np.array([1e-120])))[:, 0]
    for t, v in zip(sp.terms, c):
        assert v == {(0, 0, 0): 1e120, (1, 0, 0): -1e240, (2, 0, 0): np.inf,
                     (3, 0, 0): -np.inf}.get(t, 0.0), t
    f = parse_expr("1/x1", 1)
    p = ChartPoint(np.array([[1e-120]]), np.array([[0.3]]), np.array([[0.2]]))
    with np.errstate(over="ignore", divide="ignore"):
        c = f.jet(p, 2)[:, 0]
    # rows: 1, then z1, y1, x1, then the degree-2 rows, x1^2 last
    assert c.tolist() == [1e120, 0.0, 0.0, -1e240] + [0.0] * 5 + [np.inf]


def test_constant_over_an_overflowing_jet_has_the_reciprocals_rows():
    # "1/x1" is the constant 1 over x1; at order 3 the product of 1's
    # constant jet with the reciprocal made 0 * inf = NaN in the rows
    # x1^2 y1, x1^2 z1 and x1^3; a constant numerator or factor scales the
    # other jet as a number, on the memo path and on a tape
    p = ChartPoint(np.array([[1e-120]]), np.array([[0.3]]), np.array([[0.2]]))
    with np.errstate(over="ignore", divide="ignore"):
        sp = jet_space(3, 3)
        want = jets.reciprocal(sp, variable(sp, 0, np.array([1e-120])))
        for text in ("1/x1", "2*(1/x1)", "(1/x1)*2"):
            f = parse_expr(text, 1)
            scale = 1.0 if text == "1/x1" else 2.0
            for c in (f.jet(p, 3), fields.Tape((f,), 3).run(p)[0]):
                assert not np.isnan(c).any(), text
                assert np.array_equal(c, want * scale), text


def test_constant_denominator_scales_without_nan_rows():
    # x / c builds x * (1/c), which evaluation scales by as a number, so
    # no 0 * inf is left where 1/x1 overflowed, on the memo path and on a
    # tape
    p = ChartPoint(np.array([[1e-120]]), np.array([[0.3]]), np.array([[0.2]]))
    with np.errstate(over="ignore", divide="ignore"):
        want = parse_expr("1/x1", 1).jet(p, 3) * 0.5 + 0.0
        for text in ("(1/x1)/2", "(1/x1)*(1/2)"):
            f = parse_expr(text, 1)
            for c in (f.jet(p, 3), fields.Tape((f,), 3).run(p)[0]):
                assert not np.isnan(c).any(), text
                assert np.array_equal(c, want), text
    assert np.isinf(want).any()
    # a constant over a constant folds to a * (1/b), as it evaluated before
    three_tenths = parse_expr("3/10", 1)
    assert type(three_tenths) is fields.Const and three_tenths.v == 3.0 * (1.0 / 10.0)
    with pytest.raises(JetDomainError, match="division by zero"):
        parse_expr("x1/0", 1).value(p)


def test_analytic_functions_against_closed_forms():
    sp = jet_space(1, 4)
    v = 0.7
    x = variable(sp, 0, np.array([v]))
    s, c, e, lg, sq = (Jet(sp, f(sp, x)) for f in (jets.sin, jets.cos, jets.exp, jets.log, jets.sqrt))
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
    x = variable(sp, 0, np.array([v]))
    f = Jet(sp, jets.exp(sp, jets.sin(sp, power(sp, x, 2))))
    expect = math.exp(math.sin(v * v)) * math.cos(v * v) * 2 * v
    assert f.deriv((1,))[0] == pytest.approx(expect, rel=1e-12)


def test_partial_lowers_order():
    sp = jet_space(2, 3)
    x = variable(sp, 0, np.array([1.1]))
    y = variable(sp, 1, np.array([-0.4]))
    f = Jet(sp, mul_coeffs(sp, power(sp, x, 2), y) + power(sp, y, 3))
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
    x = variable(sp, 0, vals)
    f = jets.sin(sp, jets.log(sp, x) + power(sp, x, 2))
    for k, v in enumerate(vals):
        xk = variable(sp, 0, np.array([v]))
        fk = jets.sin(sp, jets.log(sp, xk) + power(sp, xk, 2))
        np.testing.assert_allclose(f[:, k], fk[:, 0], rtol=1e-13, atol=1e-15)


def test_domain_errors():
    sp = jet_space(1, 2)
    zero = variable(sp, 0, np.array([0.0]))
    neg = variable(sp, 0, np.array([-1.0]))
    with pytest.raises(JetDomainError):
        jets.reciprocal(sp, zero)
    with pytest.raises(JetDomainError):
        jets.log(sp, neg)
    with pytest.raises(JetDomainError):
        jets.sqrt(sp, neg)
    with pytest.raises(JetDomainError):
        jets.sqrt(sp, zero)  # derivative of sqrt blows up at 0
    # order-0 sqrt at exactly zero is fine
    sp0 = jet_space(1, 0)
    assert jets.sqrt(sp0, variable(sp0, 0, np.array([0.0])))[0, 0] == 0.0


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
            got = mul_coeffs(sp, a, b)
            want = _mul_reference(sp, a, b)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_product_of_signed_zeros_is_positive_zero():
    sp = jet_space(2, 2)
    a = np.full((sp.nterms, 3), -0.0)
    b = np.ones((sp.nterms, 3))
    got = mul_coeffs(sp, a, b)
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
        rows, factor = sp.partial_table(var)
        assert np.array_equal(np.arange(sp.nterms)[rows], src)
        assert np.array_equal(factor[:, 0], np.array(fac, dtype=float))


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
    # products, sums, the composed functions and the Newton inverse of jets
    # over a subset of the variables equal the full-space results on the
    # subset's rows
    rng = np.random.default_rng(13)
    for _ in range(24):
        n, order = int(rng.integers(1, 10)), int(rng.integers(1, 4))
        full = tuple(range(n))
        sub = _subset(rng, full)
        big, small = jet_space(n, order), jet_space(len(sub), order)
        rows = restriction(full, sub, order)
        for width in (1, 7, 64):
            a, b = (_holey(rng, (big.nterms, width)) for _ in range(2))
            pos = a.copy()
            pos[0] = np.abs(pos[0]) + 0.5  # inside every function's domain
            pairs = [
                (mul_coeffs(big, a, b), mul_coeffs(small, a[rows], b[rows])),
                (a + b, a[rows] + b[rows]),
                (a - b, a[rows] - b[rows]),
            ]
            for f in FUNCTIONS.values():
                pairs.append((f(big, pos), f(small, pos[rows])))
            k = 3
            A = _holey(rng, (k, k, big.nterms, width))
            for i in range(k):
                A[i, i, 0] = np.abs(A[i, i, 0]) + 4.0  # diagonally dominant
            inv = _jet_inverse(big, A)
            inv_small = _jet_inverse(small, A[:, :, rows])
            pairs += [(inv[i, j], inv_small[i, j]) for i in range(k) for j in range(k)]
            for whole, part in pairs:
                assert part.shape == (small.nterms, width)
                _assert_same_bits(part, whole[rows])


def test_matmul_of_jet_arrays_is_the_left_to_right_loop_bit_for_bit():
    # the reference Newton inverse multiplies object arrays of jets with @,
    # which adds each entry's products left to right from the first
    rng = np.random.default_rng(15)
    for _ in range(100):
        sp = jet_space(int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        n, k, l = (int(v) for v in rng.integers(1, 4, size=3))
        width = int(rng.integers(1, 6))
        a = np.empty((n, k), dtype=object)
        b = np.empty((k, l), dtype=object)
        for arr in (a, b):
            for idx in np.ndindex(arr.shape):
                arr[idx] = Jet(sp, _holey(rng, (sp.nterms, width)))
        got = a @ b
        for i, j in np.ndindex(n, l):
            want = a[i, 0] * b[0, j]
            for s in range(1, k):
                want = want + a[i, s] * b[s, j]
            _assert_same_bits(got[i, j].c, want.c)


def _object_jets(space, A):
    """The (n, n) object array of reference jets whose coefficients are
    ``A[i, j]``, views of ``A``."""
    out = np.empty(A.shape[:2], dtype=object)
    for i, j in np.ndindex(out.shape):
        out[i, j] = Jet(space, A[i, j])
    return out


def test_array_inverse_is_the_object_newton_bit_for_bit():
    # the Newton inverse on one coefficient array against the same steps
    # run jet by jet with object arrays, and the same first singular sample
    rng = np.random.default_rng(17)
    for n, order, width in itertools.product((1, 2, 3, 4, 6, 9), range(5), (1, 10, 1024)):
        sp = jet_space(2, order)
        A = _holey(rng, (n, n, sp.nterms, width))
        for i in range(n):
            A[i, i, 0] = np.abs(A[i, i, 0]) + 4.0  # diagonally dominant
        got, want = _jet_inverse(sp, A), object_jet_inverse(_object_jets(sp, A))
        assert got.shape == A.shape and not got.flags.writeable
        for i, j in np.ndindex(n, n):
            assert want[i, j].space is sp
            _assert_same_bits(got[i, j], want[i, j].c)
        if width == 10:
            bad = A.copy()
            bad[0, :, 0, 3] = bad[0, :, 0, 7] = 0.0  # a zero row at samples 3 and 7
            for invert in (lambda: _jet_inverse(sp, bad), lambda: object_jet_inverse(_object_jets(sp, bad))):
                with pytest.raises(JetDomainError) as err:
                    invert()
                assert (err.value.message, err.value.index) == ("singular matrix", 3)


def _outcome(run):
    """``run()``'s coefficient array, or the message and sample of its
    ``JetDomainError``."""
    try:
        with np.errstate(all="ignore"):
            return run()
    except JetDomainError as err:
        return err.message, err.index


def _special_arrays(rng, space, width):
    """Coefficient arrays of ``space`` at ``width`` points: one inside every
    function's domain with +0.0 and -0.0 holes; it with its value row or
    its last row all -0.0, inf, -inf or NaN; and it with a value row that
    leaves the domains of reciprocal, log and sqrt at a later sample."""
    base = _holey(rng, (space.nterms, width))
    base[0] = np.abs(base[0]) + 0.5
    out = [base]
    for row in (0, space.nterms - 1):
        for v in (-0.0, np.inf, -np.inf, np.nan):
            c = base.copy()
            c[row] = v
            out.append(c)
    c = base.copy()
    c[0] = np.array([0.5, -1.0, 0.0])[-width:]
    out.append(c)
    return out


@pytest.mark.parametrize("width", (1, 3))
@pytest.mark.parametrize("order", range(4))
def test_each_jet_function_is_the_reference_method_bit_for_bit(order, width):
    # the array functions of bigtangent.jets against the object Jet they
    # were ported from (tests/oracles.py): the same bits, NaN, inf and the
    # sign of zero included, or the same JetDomainError message and sample
    rng = np.random.default_rng(10 * order + width)
    sp = jet_space(2, order)
    values = np.array([0.7, -0.0, 2.5])[:width]
    for value in (values, -0.0, 3.25):
        _assert_same_bits(constant(sp, value, width), Jet.constant(sp, value, width).c)
    for var in range(sp.nvars):
        _assert_same_bits(variable(sp, var, values), Jet.variable(sp, var, values).c)
    for c in _special_arrays(rng, sp, width):
        runs = [(lambda f=f: f(sp, c), lambda name=name: getattr(Jet(sp, c), name)().c)
                for name, f in FUNCTIONS.items()]
        runs += [(lambda n=n: power(sp, c, n), lambda n=n: (Jet(sp, c) ** n).c) for n in range(-3, 5)]
        for got_run, want_run in runs:
            before = c.copy()
            got, want = _outcome(got_run), _outcome(want_run)
            _assert_same_bits(c, before)  # the operand is left as it was
            if type(want) is tuple:
                assert got == want
            else:
                _assert_same_bits(got, want)
    assert set(FUNCTIONS) == {"reciprocal", "sin", "cos", "exp", "log", "sqrt"}


def test_power_squares_only_what_it_reads(monkeypatch):
    # binary exponentiation takes one product per set bit, the first by the
    # constant jet 1, and squares the base only before a later bit: an
    # unread square would cost a product, and could overflow on its own
    sp = jet_space(2, 2)
    c = np.random.default_rng(3).normal(size=(sp.nterms, 3))
    big = c.copy()
    big[0] = 1e200  # whose square overflows
    want = {n: (Jet(sp, c) ** n).c for n in range(-3, 5)}
    calls = []

    def counting(*args):
        calls.append(args)
        return mul_coeffs(*args)

    monkeypatch.setattr(jets, "mul_coeffs", counting)
    for n, products in ((0, 0), (1, 1), (2, 2), (3, 3), (4, 3)):
        calls.clear()
        power(sp, c, n)
        assert len(calls) == products
    with np.errstate(all="raise"):
        power(sp, big, 1)
    for n in range(-3, 5):
        _assert_same_bits(power(sp, c, n), want[n])


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
        c_src = c[restriction(full, src, order + 1)]
        whole = Jet(up, c).partial(var).c  # the reference partial, read off the full jet
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
        _assert_same_bits(c[rows] * factor, c[table_rows] * table_factor)


def test_restriction_rows_are_a_slice_when_consecutive():
    # linear terms come last variable first, so the first-order terms of
    # the last variables are the first rows
    assert restriction((0, 1, 2, 3, 4, 5), (2, 3, 4, 5), 1) == slice(0, 5)
    assert list(restriction((0, 1, 2, 3, 4, 5), (1, 3), 1)) == [0, 3, 5]
    with pytest.raises(ValueError):
        restriction((0, 2), (0, 1), 1)
