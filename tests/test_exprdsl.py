import math

import numpy as np
import pytest

from bigtangent import fields
from bigtangent.exprdsl import MAX_HEIGHT, DependencyError, ParseError, parse_expr
from bigtangent.jets import JetDomainError
from bigtangent.multiindex import jet_space
from bigtangent.points import ChartPoint, sample_box
from oracles import Jet, box_points, fd_oracle


def pt(m=2, seed=0, n=1, **kw):
    return sample_box(m, n, seed, **kw)


def test_parse_precedence_and_values():
    p = ChartPoint([2.0], [3.0], [4.0])
    cases = {
        "1 + 2 * 3": 7.0,
        "(1 + 2) * 3": 9.0,
        "(2 ^ 3) ^ 2": 64.0,
        "(-x1)^2": 4.0,
        "x1 * y1 - z1": 2.0,
        "x1 / y1 / 2": 1.0 / 3.0,
        "6 / 2 * 3": 9.0,
        "2^-2": 0.25,
        "1.5e2 + .5": 150.5,
    }
    for text, expect in cases.items():
        e = parse_expr(text, 1)
        assert e.jet(p, 0)[0, 0] == pytest.approx(expect), text


def test_unary_minus_vs_power():
    # -x1^2 could mean -(x1^2) or (-x1)^2, so the parser refuses it
    p = ChartPoint([2.0], [0.0], [0.0])
    for text in ("-x1^2", "-(x1)^2", "y1 * -x1^2", "--x1^2"):
        with pytest.raises(ParseError):
            parse_expr(text, 1)
    assert parse_expr("(-x1)^2", 1).jet(p, 0)[0, 0] == 4.0
    assert parse_expr("-x1 * 3", 1).jet(p, 0)[0, 0] == -6.0
    assert parse_expr("-(x1^2)", 1).jet(p, 0)[0, 0] == -4.0
    assert parse_expr("0 - x1^2", 1).jet(p, 0)[0, 0] == -4.0


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + ", 2)
    assert str(err.value).endswith("(at offset 5)")
    with pytest.raises(ParseError):
        parse_expr("sin(x1", 2)
    with pytest.raises(ParseError):
        parse_expr("x1 x2", 2)
    with pytest.raises(ParseError):
        parse_expr("foo(x1)", 2)
    with pytest.raises(ParseError) as err:
        parse_expr("x1 + x3", 2)
    assert "x3" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("x1 ^ y1", 2)  # exponent must be a literal integer
    with pytest.raises(ParseError):
        parse_expr("2 ^ 3 ^ 1", 2)  # at most one exponent per factor


def test_variable_blocks():
    p = ChartPoint([1.0, 2.0], [3.0, 4.0], [5.0, 6.0])
    e = parse_expr("x1 + 10*y2 + 100*z1", 2)
    assert e.jet(p, 0)[0, 0] == 541.0
    j = Jet(jet_space(6, 1), e.jet(p, 1))
    # flat variable order is x1 x2 y1 y2 z1 z2
    assert j.deriv((1, 0, 0, 0, 0, 0))[0] == 1.0
    assert j.deriv((0, 0, 0, 1, 0, 0))[0] == 10.0
    assert j.deriv((0, 0, 0, 0, 1, 0))[0] == 100.0


def test_eval_jet_matches_fd_oracle():
    m = 2
    p = box_points(m, 6, seed=42, low=0.3, high=1.2)
    e = parse_expr("sin(x1*y2) + exp(z1) * log(x2 + 2) - sqrt(y1 + z2 + 3)", m)
    j = Jet(jet_space(3 * m, 3), e.jet(p, 3))
    rng = np.random.default_rng(3)
    for _ in range(25):
        alpha = [0] * (3 * m)
        for _ in range(rng.integers(1, 4)):
            alpha[rng.integers(0, 3 * m)] += 1
        if sum(alpha) > 3:
            continue
        k = int(rng.integers(0, p.npoints))
        fd = fd_oracle(e, p.select(k), alpha, h=2e-3 if sum(alpha) == 3 else 1e-5)
        assert j.deriv(alpha)[k] == pytest.approx(fd, rel=2e-4, abs=2e-4)


def test_negative_order_is_refused():
    p = ChartPoint([1.0], [1.0], [1.0])
    e = parse_expr("x1", 1)
    with pytest.raises(ValueError):
        e.jet(p, -1)


def test_domain_error_reports_the_point():
    p = ChartPoint([-1.0], [0.0], [0.0])
    e = parse_expr("1 + log(x1)", 1)
    with pytest.raises(JetDomainError) as err:
        e.jet(p, 1)
    assert str(err.value) == "log of a non-positive value at x=-1.0;y=0.0;z=0.0"
    e = parse_expr("y1 / x1 + 1", 1)
    p0 = ChartPoint([0.0], [2.0], [0.0])
    with pytest.raises(JetDomainError) as err:
        e.jet(p0, 2)
    assert err.value.point == "x=0.0;y=2.0;z=0.0"


def test_parser_builds_the_field_nodes():
    m = 2
    x1, x2, y1, z2 = (fields.Coord(v) for v in (0, 1, 2, 5))
    assert parse_expr("x1", m) is x1
    assert parse_expr("2.5", m) is fields.Const(2.5)
    assert parse_expr("sin(x1) * y1^3 - z2 / x2", m) is x1.sin() * y1**3 - z2 / x2
    assert parse_expr("-x1", m) is -x1
    assert parse_expr("-2", m) is fields.Const(-2.0)
    assert parse_expr("0*x1 + 1*y1", m) is y1  # the field operators fold


def test_dependency_blocks():
    assert parse_expr("x1 + y1", 1, "xy", "eta") is parse_expr("x1 + y1", 1)
    with pytest.raises(DependencyError, match=r"eta may depend on \['x'\] only, found \['y', 'z'\]"):
        parse_expr("z1 + x1*y1", 1, "x", "eta")
    # a fold erases y1 from the graph, but the text still reads it
    assert parse_expr("0*y1", 1) is fields.ZERO
    with pytest.raises(DependencyError):
        parse_expr("0*y1", 1, "x")
    # a syntax error is reported before a forbidden block
    with pytest.raises(ParseError):
        parse_expr("y1 +", 1, "x")


def _flat_sum(terms):
    # "1" is one level, "0.01*x1" two, and each "+" adds one
    return " + ".join(["1"] + ["0.01*x1"] * terms)


def test_height_bound():
    tallest = _flat_sum(MAX_HEIGHT - 2)
    assert parse_expr(tallest, 1).value(ChartPoint([1.0], [0.0], [0.0]))[0] == pytest.approx(1.98)
    for text in (
        _flat_sum(MAX_HEIGHT - 1),
        " + ".join(["x1"] * 5000),
        "sin(" * MAX_HEIGHT + "x1" + ")" * MAX_HEIGHT,
    ):
        with pytest.raises(ParseError, match=f"more than {MAX_HEIGHT} levels tall"):
            parse_expr(text, 1)
    # redundant parentheses add no level to the graph, but the nesting is bounded
    assert parse_expr("(" * MAX_HEIGHT + "x1" + ")" * MAX_HEIGHT, 1) is fields.Coord(0)
    for n in (MAX_HEIGHT + 1, 3000):
        with pytest.raises(ParseError, match=f"nests more than {MAX_HEIGHT} levels deep"):
            parse_expr("(" * n + "1" + ")" * n, 1)
    with pytest.raises(ParseError, match="nests more than"):
        parse_expr("-" * 3000 + "x1", 1)


def test_deterministic_sampling():
    a = sample_box(2, 20, seed=9)
    b = sample_box(2, 20, seed=9)
    np.testing.assert_array_equal(a.flat, b.flat)
    c = sample_box(2, 50, seed=1, min_vertical=0.05)
    assert np.all(np.abs(c.y) >= 0.05)
    assert np.all(np.abs(c.z) >= 0.05)


def test_min_vertical_must_be_below_the_half_width():
    # no draw from [-1, 1) is 1 or more from zero but -1.0, so resampling
    # would not end
    for bad in (1.0, 2.0):
        with pytest.raises(ValueError, match="min_vertical must be < 1"):
            sample_box(1, 3, seed=0, min_vertical=bad)
