"""Tests for the expression core: grammar, differentiation, evaluation,
folding, and the finite-difference cross-check."""

import math

import numpy as np
import pytest

from algebroids import expr
from algebroids.expr import (
    Chart,
    CoordinateRangeError,
    DomainError,
    ParseError,
    PoleError,
    UnknownIdentifierError,
    add,
    const,
    coord,
    cos,
    differentiate,
    div,
    evaluate,
    exp,
    expr_equal,
    fold,
    log,
    mul,
    neg,
    parse,
    pow_int,
    sin,
    to_str,
)

CH2 = Chart(2)


def test_parse_product_sum():
    e = parse("x1*sin(x2)+2", CH2)
    assert e.op == "add"
    assert e.args[0].op == "mul"
    assert e.args[0].args[0] == coord(0)
    assert e.args[0].args[1] == sin(coord(1))
    assert e.args[1] == const(2)


def test_parse_quotient_tree():
    e = parse("x1^3 / (1 + x2^2)", CH2)
    assert e.op == "div"
    assert e.args[0] == pow_int(coord(0), 3)
    assert e.args[1].op == "add"


def test_parse_coordinate_out_of_range():
    with pytest.raises(CoordinateRangeError):
        parse("x3", CH2)


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse("y1 + 2", CH2)
    with pytest.raises(UnknownIdentifierError):
        parse("x0", CH2)


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as ei:
        parse("x1 +* x2", CH2)
    assert ei.value.offset == 4


def test_differentiate_examples():
    e = parse("x1*sin(x2)", CH2)
    d = differentiate(e, 1)
    assert expr_equal(d, parse("x1*cos(x2)", CH2), CH2)

    assert differentiate(parse("7", CH2), 0) == const(0)

    d = differentiate(parse("x1^2/x2", CH2), 0)
    assert expr_equal(d, parse("2*x1/x2", CH2), CH2)


def test_differentiate_never_exceeds_dim():
    rng = np.random.default_rng(3)
    for _ in range(50):
        e = _random_expr(rng, CH2, depth=5)
        for i in range(CH2.dim):
            _assert_coords_in_range(differentiate(e, i), CH2.dim)


def test_evaluate_examples():
    assert evaluate(parse("x1*sin(x2)+2", CH2), [2.0, 0.0]) == pytest.approx(2.0)
    assert evaluate(parse("exp(x1)", Chart(1)), [0.0]) == pytest.approx(1.0)
    with pytest.raises(PoleError):
        evaluate(parse("x1/x2", CH2), [1.0, 0.0])
    with pytest.raises(DomainError):
        evaluate(parse("log(x1)", Chart(1)), [-1.0])
    # Results float arithmetic cannot represent name their subtree.
    for text in (
        "exp(700)*exp(700)*x1 - exp(700)*exp(700)*x2",
        "sin(exp(700)*exp(700)*x1)",
        "cos(exp(700)*exp(700)*x1)",
        "(exp(700)*x1)^2",
    ):
        with pytest.raises(DomainError):
            evaluate(parse(text, CH2), [1.0, 1.0])


def test_expr_equal_rejects_non_finite_values():
    # inf compared with 0 passed the relative test: |inf| > tol*(1+inf)
    # is False.
    inf_expr = parse("exp(700)*exp(700)*x1", CH2)
    assert not expr_equal(inf_expr, parse("0", CH2), CH2)
    assert not expr_equal(parse("0", CH2), inf_expr, CH2)


def test_fold_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(200):
        e = _random_expr(rng, CH2, depth=5)
        f = fold(e)
        assert fold(f) == f


def test_fold_constants():
    assert fold(parse("2*3 + 1", CH2)) == const(7)
    assert fold(add(coord(0), const(0))) == coord(0)
    assert fold(mul(coord(0), const(1))) == coord(0)
    assert fold(mul(coord(0), const(0))) == const(0)
    assert fold(div(const(1), const(2))).value.denominator == 2


def test_roundtrip_print_parse():
    rng = np.random.default_rng(5)
    for _ in range(300):
        e = fold(_random_expr(rng, CH2, depth=5))
        back = parse(to_str(e), CH2)
        assert back == e, f"roundtrip failed for {to_str(e)}"


def test_derivative_matches_finite_difference():
    # 1000 random (expr, point, index) triples of depth <= 6.
    rng = np.random.default_rng(42)
    h = 1e-6
    count = 0
    while count < 1000:
        e = _random_expr(rng, CH2, depth=rng.integers(1, 7))
        i = int(rng.integers(0, 2))
        p = rng.uniform(-1, 1, size=2)
        try:
            v = evaluate(e, p)
            d_sym = evaluate(differentiate(e, i), p)
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            d_fd = (evaluate(e, pp) - evaluate(e, pm)) / (2 * h)
        except expr.EvalError:
            continue
        if abs(v) > 1e3 or abs(d_fd) > 1e5:
            continue
        assert abs(d_sym - d_fd) <= 1e-5 * (1.0 + abs(d_sym)) + 1e-5 * abs(d_fd)
        count += 1


def test_derivative_linearity():
    rng = np.random.default_rng(9)
    for _ in range(40):
        e1 = _random_expr(rng, CH2, depth=4)
        e2 = _random_expr(rng, CH2, depth=4)
        a = const(float(rng.uniform(-2, 2)))
        i = int(rng.integers(0, 2))
        lhs = differentiate(fold(add(mul(a, e1), e2)), i)
        rhs = fold(add(mul(a, differentiate(e1, i)), differentiate(e2, i)))
        assert expr_equal(lhs, rhs, CH2, tol=1e-12)


def test_product_rule():
    rng = np.random.default_rng(13)
    for _ in range(40):
        e1 = _random_expr(rng, CH2, depth=4)
        e2 = _random_expr(rng, CH2, depth=4)
        i = int(rng.integers(0, 2))
        lhs = differentiate(fold(mul(e1, e2)), i)
        rhs = fold(
            add(mul(differentiate(e1, i), e2), mul(e1, differentiate(e2, i)))
        )
        assert expr_equal(lhs, rhs, CH2, tol=1e-12)


def test_substitute():
    e = parse("x1 + x2^2", CH2)
    s = expr.substitute(e, {0: const(3)})
    assert expr_equal(s, parse("3 + x2^2", CH2), CH2)


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(0)
    with pytest.raises(ValueError):
        Chart(1, bounds=[(1.0, 1.0)])
    c = Chart(2, excluded_origin=True)
    assert not c.contains([0.01, 0.01])
    assert c.contains([0.5, 0.5])


def _random_expr(rng, chart, depth):
    """Random expression tree of bounded depth (test-local generator)."""
    if depth <= 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.5:
            return coord(int(rng.integers(0, chart.dim)))
        return const(float(np.round(rng.uniform(-2, 2), 3)))
    kind = rng.choice(["add", "mul", "div", "pow", "neg", "sin", "cos", "exp", "log"])
    a = _random_expr(rng, chart, depth - 1)
    if kind == "add":
        return add(a, _random_expr(rng, chart, depth - 1))
    if kind == "mul":
        return mul(a, _random_expr(rng, chart, depth - 1))
    if kind == "div":
        return div(a, add(_random_expr(rng, chart, depth - 1), const(3)))
    if kind == "pow":
        return pow_int(a, int(rng.integers(2, 4)))
    if kind == "neg":
        return neg(a)
    if kind == "sin":
        return sin(a)
    if kind == "cos":
        return cos(a)
    if kind == "exp":
        return exp(mul(const(0.3), a))
    return log(add(mul(a, a), const(1)))


def _assert_coords_in_range(e, dim):
    if e.op == "coord":
        assert e.index < dim
    for a in e.args:
        _assert_coords_in_range(a, dim)
