"""Tests for the expression core: grammar, differentiation, evaluation,
folding, and the finite-difference cross-check."""

import gc
import math
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

from algebroids import expr
from algebroids.bundles import PointMap
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
    fold,
    log,
    mul,
    neg,
    parse,
    pow_int,
    sin,
    to_str,
)
from reference import expr_equal, random_polynomial

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


def test_constant_beyond_the_float_range_is_a_domain_error():
    # float() of 10^400 overflows: evaluation must raise a DomainError
    # naming the constant, not a bare OverflowError.
    big = const(Fraction(10**400))
    with pytest.raises(DomainError, match="beyond the float range") as ei:
        evaluate(mul(big, coord(0)), [1.0])
    assert ei.value.subtree is big


def _tree_walk(e, p):
    """Reference evaluator: the plain recursive walk of the whole tree,
    which re-evaluates every shared subtree where it occurs."""
    op = e.op
    if op == "const":
        return float(e.value)
    if op == "coord":
        return float(p[e.index])
    if op == "add":
        vals = [_tree_walk(a, p) for a in e.args]
        try:
            return math.fsum(vals)
        except (ValueError, OverflowError):
            raise DomainError("non-finite sum", e) from None
    if op == "mul":
        r = 1.0
        for a in e.args:
            r *= _tree_walk(a, p)
        return r
    if op == "div":
        den = _tree_walk(e.args[1], p)
        if abs(den) < 1e-12:
            raise PoleError("division by (near-)zero", e)
        return _tree_walk(e.args[0], p) / den
    if op == "pow":
        b = _tree_walk(e.args[0], p)
        if e.exponent < 0 and abs(b) < 1e-12:
            raise PoleError("negative power of (near-)zero", e)
        try:
            return b**e.exponent
        except OverflowError:
            raise DomainError("power overflow", e) from None
    if op == "neg":
        return -_tree_walk(e.args[0], p)
    if op == "sin" or op == "cos":
        a = _tree_walk(e.args[0], p)
        try:
            return math.sin(a) if op == "sin" else math.cos(a)
        except ValueError:
            raise DomainError(f"{op} of an infinite argument", e) from None
    if op == "exp":
        a = _tree_walk(e.args[0], p)
        if a > 700.0:
            raise DomainError("exp overflow", e)
        return math.exp(a)
    if op == "log":
        a = _tree_walk(e.args[0], p)
        if a <= 0.0:
            raise DomainError("log of nonpositive argument", e)
        return math.log(a)
    raise ValueError(f"unknown node {op!r}")


def _outcome(f, e, p):
    """A value as its bit pattern (every NaN alike), or an error as its
    class and the text of the subtree it names."""
    try:
        v = f(e, p)
    except expr.EvalError as err:
        return type(err).__name__, to_str(err.subtree)
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def _random_dag(rng, chart, steps):
    """Random expression DAG: every new node takes its arguments from
    the nodes built so far, so subtrees are shared by identity."""
    x1, x2 = coord(0), coord(1)
    pool = [random_polynomial(chart, rng) for _ in range(3)]
    # x1 - x2 vanishes on the grid diagonal; the product is inf where
    # x1 + x2 > 1.02, so products and quotients of the two can be NaN.
    huge = mul(exp(mul(const(700), x1)), exp(mul(const(700), x2)))
    pool += [x1, x2, add(x1, neg(x2)), const(0), huge]
    for _ in range(steps):
        def pick():
            return pool[int(rng.integers(len(pool)))]

        kind = rng.choice(["add", "mul", "div", "pow", "neg", "sin", "cos", "exp", "log"])
        if kind == "add":
            node = add(pick(), pick(), pick())
        elif kind == "mul":
            node = mul(pick(), pick(), pick())
        elif kind == "div":
            node = div(pick(), pick())
        elif kind == "pow":
            node = pow_int(pick(), int(rng.choice([-3, -2, -1, 2, 3, 5])))
        elif kind == "neg":
            node = neg(pick())
        elif kind == "exp":
            node = exp(mul(const(float(rng.choice([1.0, 700.0]))), pick()))
        else:
            node = {"sin": sin, "cos": cos, "log": log}[kind](pick())
        pool.append(node)
    return pool[-4:]


def test_evaluate_matches_tree_walk():
    # Values bit for bit and the first error by class and subtree, at
    # random points and on a grid that hits poles (x1 = 0, x1 = x2).
    rng = np.random.default_rng(2024)
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    seen = {"value": 0, "nan": 0, "PoleError": 0, "DomainError": 0}
    for _ in range(400):
        exprs = _random_dag(rng, CH2, steps=12)
        for _ in range(4):
            if rng.uniform() < 0.5:
                p = rng.choice(grid, size=2)
            else:
                p = rng.uniform(-1, 1, size=2)
            for e in exprs:
                want = _outcome(_tree_walk, e, p)
                assert _outcome(evaluate, e, p) == want, to_str(e)
                kind = want[0] if isinstance(want, tuple) else "nan" if want == "nan" else "value"
                seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def _clone(e, memo=None):
    """A structurally equal copy of ``e`` that shares no node with it."""
    memo = {} if memo is None else memo
    c = memo.get(id(e))
    if c is None:
        args = tuple(_clone(a, memo) for a in e.args)
        c = memo[id(e)] = expr.Expr(e.op, args, e.value, e.index, e.exponent)
    return c


def _entries_outcome(entries, p):
    """The tree walk of each entry in order: every value as its bit
    pattern, or the first error by class and subtree text."""
    out = []
    for e in entries:
        v = _outcome(_tree_walk, e, p)
        if isinstance(v, tuple):
            return v
        out.append(v)
    return out


def _point_map_outcome(rows, p):
    try:
        vals = PointMap.exact(rows).value(p)
    except expr.EvalError as err:
        return type(err).__name__, to_str(err.subtree)
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in vals.flat]


def test_point_map_exact_matches_tree_walk_across_entries():
    # One tape per map: entries share subtrees by identity and by
    # structure only, constants of equal value but of another type
    # stay apart (1/2 and 0.5, 0 and -0.0), and a quotient's pole is
    # found before its numerator's domain error.  Values bit for bit,
    # and the first error in row-major order by class and subtree.
    rng = np.random.default_rng(77)
    x1, x2 = coord(0), coord(1)
    gap = add(x1, neg(x2))
    float_half = expr.Expr("const", value=0.5)
    float_zero = expr.Expr("const", value=-0.0)
    special = [
        mul(const(Fraction(1, 2)), x1),
        mul(float_half, x1),
        log(mul(float_half, gap)),
        const(0),
        float_zero,
        mul(float_zero, x2),
        div(log(gap), mul(const(3), gap)),
        div(log(_clone(gap)), mul(const(3), _clone(gap))),
    ]
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    seen = {"value": 0, "PoleError": 0, "DomainError": 0}
    for _ in range(150):
        dag = _random_dag(rng, CH2, steps=10)
        pool = dag + [_clone(e) for e in dag] + special
        flat = [pool[int(k)] for k in rng.permutation(len(pool))[:12]]
        rows = [flat[:6], flat[6:]]
        for _ in range(4):
            p = rng.choice(grid, size=2) if rng.uniform() < 0.5 else rng.uniform(-1, 1, size=2)
            want = _entries_outcome(flat, p)
            assert _point_map_outcome(rows, p) == want, [to_str(e) for e in flat]
            seen["value" if isinstance(want, list) else want[0]] += 1
    for p in ([0.5, 0.5], [-1.0, -1.0]):
        entries = [special[0], special[3], special[4], special[6]]
        want = _entries_outcome(entries, p)
        assert want == ("PoleError", "log(x1 - x2)/(3*(x1 - x2))")
        assert _point_map_outcome([entries], p) == want
    assert seen["value"] >= 50 and seen["PoleError"] >= 20 and seen["DomainError"] >= 20, seen


def _complex_outcome(e, p):
    """The outcome of ``evaluate``: the error by class and subtree text,
    or the (real part of the) value."""
    try:
        return evaluate(e, p)
    except expr.EvalError as err:
        return type(err).__name__, to_str(err.subtree)


def test_complex_run_raises_the_real_run_error():
    # Complex arithmetic turns inf * 0 into NaN parts.  On the random
    # DAGs of test_evaluate_matches_tree_walk, 15 evaluations that raise
    # DomainError or PoleError at p returned NaN at p + 0j, and 35
    # values lost their real part.  Each error at p + 0j is now the real
    # run's, by class and subtree, and each real part is the real value
    # up to rounding: equal where it is not finite.
    rng = np.random.default_rng(2024)
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    seen = {"error": 0, "finite": 0, "non-finite": 0}
    for _ in range(400):
        exprs = _random_dag(rng, CH2, steps=12)
        for _ in range(4):
            p = rng.choice(grid, size=2) if rng.uniform() < 0.5 else rng.uniform(-1, 1, size=2)
            for e in exprs:
                want, got = _complex_outcome(e, p), _complex_outcome(e, p + 0j)
                if isinstance(want, tuple) or isinstance(got, tuple):
                    assert got == want, to_str(e)
                    seen["error"] += 1
                elif math.isfinite(want):
                    assert abs(got.real - want) <= 1e-9 * max(1.0, abs(want)), to_str(e)
                    seen["finite"] += 1
                else:
                    assert struct.pack("<d", got.real) == struct.pack("<d", want) or (
                        math.isnan(got.real) and math.isnan(want)
                    ), to_str(e)
                    seen["non-finite"] += 1
    assert min(seen.values()) >= 30, seen
    # inf^-1 is 0.0 at p; at p + 0j the complex run gave nan+nanj.  The
    # value is the real run's; the derivative part is lost (NaN).
    z = evaluate(parse("(exp(700*x1)*exp(700*x2))^-1", CH2), np.array([1.0, 1.0]) + 0j)
    assert z.real == 0.0 and math.isnan(z.imag)


def test_evaluate_runs_a_compiled_tape():
    # A tape of many entries gives, in entry order, each entry's own value.
    entries = [parse("x1*x2 + sin(x1*x2)", CH2), parse("x1*x2", CH2), parse("1/2", CH2), parse("x2", CH2)]
    p = [0.3, -1.7]
    assert evaluate(expr.compile_tape(entries), p) == tuple(evaluate(e, p) for e in entries)


def test_tape_runs_at_a_complex_point():
    # At p + 0j a tape runs in complex arithmetic: each value is the
    # value at p to within 4 ulps, with a zero imaginary part, and each
    # error of the real run is raised as the same type.
    entries = [
        parse(text, CH2)
        for text in (
            "x1*x2 + 3*x1 - x2/7",
            "x1/(x2 + 2)",
            "sin(2*x1 - x2)",
            "cos(x1*x2 + 1)",
            "exp(3*x1 - x2)",
            "log(x1*x1 + x2 + 1.5)",
            "(x1 + 2)^5",
            "(x2 - 3)^-3",
        )
    ]
    tape = expr.compile_tape(entries)
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = rng.uniform(-1, 1, size=2)
        for v, z in zip(evaluate(tape, p), evaluate(tape, p + 0j)):
            assert type(z) is complex and z.imag == 0.0
            assert abs(z.real - v) <= 4 * np.spacing(abs(v))
    for text, p in (
        ("x1/(x1 - x2)", [0.5, 0.5]),
        ("(x1 - x2)^-2", [0.5, 0.5]),
        ("log(x1 - x2)", [-1.0, 1.0]),
        ("exp(800*x1)", [1.0, 1.0]),
        ("(10*x1)^400", [1.0, 1.0]),
        ("exp(700)*exp(700)*x1 - exp(700)*exp(700)*x2", [1.0, 1.0]),
        ("sin(exp(700)*exp(700)*x1)", [1.0, 1.0]),
        ("cos(exp(700)*exp(700)*x1)", [1.0, 1.0]),
        ("x1*10^400", [1.0, 1.0]),
    ):
        e = parse(text, CH2)
        with pytest.raises(expr.EvalError) as real:
            evaluate(e, np.array(p))
        assert type(real.value) in (PoleError, DomainError)
        with pytest.raises(type(real.value)):
            evaluate(e, np.array(p) + 0j)


def test_compile_tape_frees_its_work_tables_on_return():
    # A reference cycle would keep the value-numbering tables, as large
    # as the tape, until a full collection (+2.2 MB peak RSS in a
    # lie-functor run on so3).
    entries = [parse("x1*x2 + sin(x1*x2)", CH2), parse("1/(x1 + x2)", CH2)]
    gc.collect()
    gc.disable()
    try:
        expr.compile_tape(entries)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_evaluate_shared_subtrees_once():
    # 60 doublings: a walk of the whole tree would take about 2^60 steps.
    for node, want in ((mul, 1.0), (add, 2.0**60)):
        e = coord(0)
        for _ in range(60):
            e = node(e, e)
        start = time.perf_counter()
        assert evaluate(e, [1.0]) == want
        assert time.perf_counter() - start < 1.0


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


def test_constants_of_different_types_are_different_exprs():
    # 0.5 and 1/2 are one number but two constants; were they one key,
    # the fold and derivative caches would return whichever came first.
    x = coord(7)
    assert const(0.5) != const(Fraction(1, 2))
    assert mul(const(0.5), x) != mul(const(Fraction(1, 2)), x)
    assert const(Fraction(1, 2)) == const(Fraction(2, 4))
    assert to_str(fold(mul(const(0.5), x))) == "0.5*x8"
    assert to_str(fold(mul(const(Fraction(1, 2)), x))) == "(1/2)*x8"
    assert type(differentiate(mul(const(0.5), x), 7).value) is float
    assert type(differentiate(mul(const(Fraction(1, 2)), x), 7).value) is Fraction


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
    # A box with no point outside the excluded ball is refused.
    with pytest.raises(ValueError):
        Chart(2, bounds=[(0.01, 0.02), (-0.05, 0.05)], excluded_origin=True)
    Chart(2, bounds=[(0.01, 0.02), (-0.05, 0.05)])
    Chart(2, bounds=[(0.01, 0.02), (-0.05, 0.1)], excluded_origin=True)


@pytest.mark.parametrize("bound", [(-1.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
def test_chart_refuses_a_non_finite_bound(bound):
    # The sampler draws uniformly from the box: an infinite side has no
    # uniform draw.
    with pytest.raises(ValueError, match="non-finite coordinate bound"):
        Chart(2, bounds=[bound, (-1.0, 1.0)])


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


def test_sample_point_failure_is_a_sampling_error():
    # The chart is accepted (its farthest corner lies outside the
    # excluded ball), but 10,000 draws miss the sliver outside the ball.
    from algebroids.expr import SamplingError, _sample_point

    chart = Chart(2, bounds=[(0, 0.0708), (0, 0.0708)], excluded_origin=True)
    with pytest.raises(SamplingError, match="excluded ball"):
        _sample_point(chart, np.random.default_rng(42))
