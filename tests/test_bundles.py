"""Tests for bundles, point maps, connections and curvature."""

import math

import numpy as np
import pytest

from algebroids.bundles import (
    Bundle,
    FiberBracket,
    LinearConnection,
    PointMap,
    _stack,
    alternating_array,
    antisymmetric_table,
    connection_is_flat,
    curvature_tensor,
    exact_memo,
    exterior_covariant_derivative,
    sort_with_sign,
)
from algebroids.expr import (
    Chart,
    ONE,
    PoleError,
    ZERO,
    add,
    const,
    coord,
    differentiate,
    evaluate,
    neg,
    parse,
)
from algebroids.imforms import sampled_map
from algebroids.sampling import SamplePlan, sup
from reference import expr_equal, random_polynomial

CH2 = Chart(2)

def test_sort_with_sign():
    assert sort_with_sign((0, 1)) == (1, (0, 1))
    assert sort_with_sign((1, 0)) == (-1, (0, 1))
    assert sort_with_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_with_sign((1, 1)) == (0, (1, 1))


def test_alternating_array():
    W = alternating_array(np.array([[1.0, 2.0]]), 2, 2)
    assert W.shape == (2, 2, 2)
    assert W[0, 1].tolist() == [1.0, 2.0] and W[1, 0].tolist() == [-1.0, -2.0]
    assert not W[0, 0].any() and not W[1, 1].any()
    # No pair of one index: an empty tuple axis and the value axis give
    # a zero array; a stack that lost its value axis is refused.
    assert not alternating_array(np.zeros((5, 1, 0, 3)), 1, 2).any()
    assert alternating_array(np.zeros((5, 1, 0, 3)), 1, 2).shape == (5, 1, 1, 1, 3)
    for entries, n in ((np.zeros((5, 1, 0)), 1), (np.zeros((3, 2)), 2)):
        with pytest.raises(ValueError, match="increasing 2-tuple"):
            alternating_array(entries, n, 2)


# (batch axes, n, q): the stock-field tables of d_nabla_s on m = 2, 3
# and 6 fields at degrees 1 to 3 (q > n on two fields), and the stacked
# symbol and operator reads of imforms._form_reads, with their point and
# partial axes, at q = 0, 1 and 2.
ALTERNATING_CASES = [
    *(((), m, q) for m in (2, 3, 6) for q in (1, 2, 3)),
    ((4, 3), 2, 0),
    ((4, 2, 3), 2, 0),
    ((4, 5), 3, 1),
    ((4, 3, 5), 3, 2),
    ((2, 5), 1, 2),
    ((2, 1, 5), 1, 2),
]


@pytest.mark.parametrize("batch, n, q", ALTERNATING_CASES)
def test_alternating_array_matches_the_permutation_loop(batch, n, q):
    from reference import alternating_by_permutations

    rng = np.random.default_rng(n * 10 + q)
    entries = rng.normal(size=batch + (math.comb(n, q), 2))
    # Signed zeros and an infinity keep their bits through the signs.
    entries.reshape(-1)[: min(3, entries.size)] = [0.0, -0.0, -np.inf][: min(3, entries.size)]
    for x in (entries, entries * (1 + 2j)):
        got, want = alternating_array(x, n, q), alternating_by_permutations(x, n, q)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_exterior_derivative_rank_one_de_rham():
    V = Bundle(CH2, 1)
    conn = LinearConnection.trivial(V)
    omega = [[ZERO], [coord(0)]]  # x1 dx2
    d = exterior_covariant_derivative(conn, omega, 1)
    assert d[0][0] == const(1)  # dx1 ^ dx2


def test_exterior_derivative_zero():
    V = Bundle(CH2, 2)
    conn = LinearConnection.trivial(V)
    d = exterior_covariant_derivative(conn, [[ZERO] * 2 for _ in range(2)], 1)
    assert d == [[ZERO, ZERO]]


def test_d_nabla_squared_equals_curvature():
    # Oracle: R computed independently by curvature_tensor; compare with
    # the second exterior covariant derivative of random sections.
    V = Bundle(CH2, 1)
    conn = LinearConnection(V, [[[coord(1)]], [[ZERO]]])
    R = curvature_tensor(conn)
    assert expr_equal(R[(0, 1)][0][0], const(-1), CH2)

    plan = SamplePlan(seed=1, samples=100)
    rng = np.random.default_rng(2)
    for _ in range(8):
        s = [random_polynomial(CH2, rng)]
        dds = exterior_covariant_derivative(conn, exterior_covariant_derivative(conn, [s], 0), 1)
        for p in plan.points(CH2, 12):
            lhs = PointMap.exact(dds[0]).value(p)
            rhs = evaluate(R[(0, 1)][0][0], p) * PointMap.exact(s).value(p)
            assert abs(lhs[0] - rhs[0]) < 1e-9


def test_d_nabla_squared_higher_rank():
    V = Bundle(CH2, 2)
    conn = LinearConnection(
        V,
        [
            [[ZERO, coord(1)], [coord(0), ZERO]],
            [[coord(1), ZERO], [ZERO, ZERO]],
        ],
    )
    R = curvature_tensor(conn)
    plan = SamplePlan(seed=4, samples=100)
    rng = np.random.default_rng(8)
    for _ in range(6):
        s = [random_polynomial(CH2, rng) for _ in range(2)]
        dds = exterior_covariant_derivative(conn, exterior_covariant_derivative(conn, [s], 0), 1)
        for p in plan.points(CH2, 10):
            lhs = PointMap.exact(dds[0]).value(p)
            Rm = np.array([[evaluate(x, p) for x in row] for row in R[(0, 1)]])
            rhs = Rm @ PointMap.exact(s).value(p)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_curvature_flat_cases():
    V = Bundle(CH2, 2)
    conn = LinearConnection.trivial(V)
    flat, res = connection_is_flat(conn)
    assert flat and res == 0.0

    # Pullback of a flat connection under a coordinate permutation stays flat:
    # swapping the roles of x1 and x2 in a flat family keeps R = 0.
    conn2 = LinearConnection(
        V,
        [
            [[coord(1), ZERO], [ZERO, coord(1)]],
            [[coord(0), ZERO], [ZERO, coord(0)]],
        ],
    )
    # Gamma_i = grad of potential (x1*x2) times identity: flat by exactness.
    flat2, _ = connection_is_flat(conn2)
    assert flat2
    conn2_swapped = LinearConnection(
        V,
        [
            [[coord(0), ZERO], [ZERO, coord(0)]],
            [[coord(1), ZERO], [ZERO, coord(1)]],
        ],
    )
    flat3, _ = connection_is_flat(conn2_swapped)
    assert flat3


def test_curvature_nonflat():
    V = Bundle(CH2, 1)
    conn = LinearConnection(V, [[[coord(1)]], [[ZERO]]])
    flat, res = connection_is_flat(conn)
    assert not flat and res > 0.5


def test_connection_is_flat_matches_its_curvature_tensor_form():
    # Non-commuting random Christoffel matrices: every term of the
    # curvature reaches the residual, which is that of the symbolic
    # curvature_tensor evaluated at the same 64 points, to 1e-12 relative.
    ch = Chart(3)
    rng = np.random.default_rng(23)
    conn = LinearConnection(
        Bundle(ch, 2), [[[random_polynomial(ch, rng) for _ in range(2)] for _ in range(2)] for _ in range(3)]
    )
    flat, res = connection_is_flat(conn)
    R = PointMap.exact(list(curvature_tensor(conn).values()))
    want = sup(*(R.value(p) for p in SamplePlan(seed=42, samples=64).points(ch, 64)))
    assert not flat and want > 1e-2
    assert abs(res - want) <= 1e-12 * want


def test_fiber_bracket_antisymmetry_validation():
    # The structure is given on the increasing pairs, so it is
    # antisymmetric by construction: a full square, here a symmetric
    # one, is refused by its pair count.
    V = Bundle(CH2, 2)
    bad = [
        [[ZERO, ZERO], [const(1), ZERO]],
        [[const(1), ZERO], [ZERO, ZERO]],
    ]
    with pytest.raises(ValueError):
        FiberBracket(V, bad)
    assert FiberBracket(V, [[const(1), ZERO]]).c == (
        ((ZERO, ZERO), (const(1), ZERO)),
        ((const(-1), ZERO), (ZERO, ZERO)),
    )


def test_antisymmetric_table_derives_the_lower_triangle():
    x1 = coord(0)
    T = antisymmetric_table([[x1, add(ONE, ONE)], [ZERO, ZERO], [const(2), neg(x1)]], 3, 2)
    # Each pair's vector folded, its negation below the diagonal, zero
    # vectors on it.
    assert T[0][1] == (x1, const(2)) and T[1][0] == (neg(x1), const(-2))
    assert T[0][2] == (ZERO, ZERO) and T[2][0] == (ZERO, ZERO)
    assert T[1][2] == (const(2), neg(x1)) and T[2][1] == (const(-2), x1)
    assert all(T[a][a] == (ZERO, ZERO) for a in range(3))
    # One vector on no pair: a table of one index is its zero diagonal.
    assert antisymmetric_table([], 1, 2) == (((ZERO, ZERO),),)


@pytest.mark.parametrize(
    "structure, message",
    [
        ([[ZERO] * 3] * 2, "one per increasing pair, 3"),
        ([[ZERO] * 3] * 4, "one per increasing pair, 3"),
        ([[ZERO] * 3, [ZERO] * 2, [ZERO] * 3], r"pair \(0, 2\) has 2 entries, not 3"),
    ],
)
def test_fiber_bracket_refuses_a_wrong_pair_count_or_vector_length(structure, message):
    with pytest.raises(ValueError, match=message):
        FiberBracket(Bundle(CH2, 3), structure)


@pytest.mark.parametrize("container", [list, tuple])
def test_a_full_square_of_the_pair_count_is_refused_as_a_layout(container):
    # At rank 3 a full square has C(3, 2) = 3 rows of 3 vectors: the pair
    # count and the vector length of the pair layout.  Its entries are
    # vectors, not Exprs, and are refused like any other wrong layout.
    square = container(container(container([ZERO] * 3) for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError, match=r"pair \(0, 1\) holds an entry that is not an Expr"):
        FiberBracket(Bundle(CH2, 3), square)
    with pytest.raises(ValueError, match="not an Expr"):
        antisymmetric_table(square, 3, 3)


def test_point_map_exact_partials_match_stencil():
    # Exact partials are the evaluated symbolic derivatives, bit for
    # bit; the 4-point stencil reproduces them on quadratics up to
    # rounding.
    ch = Chart(3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        entries = [[random_polynomial(ch, rng) for _ in range(3)] for _ in range(2)]
        exact = PointMap.exact(entries)
        sampled = sampled_map(exact.value, 1e-3)
        p = rng.uniform(-0.9, 0.9, size=3)
        want = np.array([[evaluate(x, p) for x in row] for row in entries])
        assert exact.value(p).shape == (2, 3)
        assert np.array_equal(exact.value(p), want)
        assert np.array_equal(sampled.value(p), want)
        for j in range(3):
            d = np.array([[evaluate(differentiate(x, j), p) for x in row] for row in entries])
            assert np.array_equal(exact.partials(p)[j], d)
            assert np.max(np.abs(sampled.partials(p)[j] - d)) < 1e-9


def test_point_map_passes_pole_errors_through():
    m = PointMap.exact([parse("x1", CH2), parse("1/x2", CH2)])
    at_pole = np.array([0.5, 0.0])
    with pytest.raises(PoleError) as exact:
        m.value(at_pole)
    with pytest.raises(PoleError):
        m.partials(at_pole)[1]
    # The stencil point x2 - 2h of the sampled map lands on the pole.
    with pytest.raises(PoleError) as sampled:
        sampled_map(m.value, 0.25).partials(np.array([0.5, 0.5]))[1]
    assert str(sampled.value) == str(exact.value)
    assert sampled.value.subtree is exact.value.subtree


def test_stack_reads_every_map_at_a_point_before_the_next():
    # A sampled map's memo still holds a point's stencil for a later read
    # at that point only if every read runs there before the next point.
    calls = []

    def spy(name, shape):
        def read(p):
            calls.append((name, p[0]))
            return np.full(shape, p[0])

        return read

    points = [np.array([float(q), 0.5]) for q in range(4)]
    a, b, c = _stack(points, spy("a", (2, 3)), spy("b", ()), spy("c", (5,)))
    assert calls == [(name, float(q)) for q in range(4) for name in "abc"]
    assert (a.shape, b.shape, c.shape) == ((4, 2, 3), (4,), (4, 5))
    for q in range(4):
        assert (a[q] == q).all() and b[q] == q and (c[q] == q).all()


def _sup(m, points):
    """The residual of a point map over the points, as the checks reduce
    it: its values read with ``_stack`` and reduced by ``sup``."""
    (values,) = _stack(points, m.value)
    return sup(values)


def test_point_map_sup_of_no_points_is_zero():
    assert _sup(PointMap.exact([parse("1/x1", CH2)]), []) == 0.0


def test_point_map_sup_non_finite_reads_inf():
    p = np.zeros(2)
    for bad in (np.nan, np.inf, -np.inf):
        m = PointMap(lambda q, bad=bad: np.array([[1e300, bad], [-2.0, 0.0]]))
        assert _sup(m, [p, p]) == np.inf
    # Evaluated Exprs: inf * 0 is NaN at the origin, inf elsewhere.
    m = PointMap.exact([coord(1), parse("exp(700)*exp(700)*x1", CH2)])
    assert _sup(m, [np.ones(2)]) == np.inf
    assert _sup(m, [p]) == np.inf


def test_point_map_sup_matches_residual_loop():
    ch = Chart(3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        entries = [[random_polynomial(ch, rng) for _ in range(2)] for _ in range(3)]
        pts = [rng.uniform(-1, 1, size=3) for _ in range(7)]
        want = []
        for p in pts:
            for row in entries:
                for x in row:
                    want.append(evaluate(x, p))
        assert _sup(PointMap.exact(entries), pts) == sup(*want)


def test_point_map_sup_passes_pole_errors_through():
    m = PointMap.exact([parse("x1", CH2), parse("1/x2", CH2)])
    at_pole = np.array([0.5, 0.0])
    with pytest.raises(PoleError) as direct:
        m.value(at_pole)
    with pytest.raises(PoleError) as reduced:
        _sup(m, [np.array([0.5, 0.5]), at_pole])
    assert str(reduced.value) == str(direct.value)
    assert reduced.value.subtree is direct.value.subtree


def test_exact_memo_keys_a_point_by_its_dtype():
    # p and p + 0j have equal values but are two points: the complex one
    # gets its own entry, and the function receives it complex.
    seen = []
    memo = exact_memo(lambda b, p: seen.append(p.dtype) or p * b)
    p = np.array([0.5, -0.25])
    assert memo(2, p).dtype == float
    assert memo(2, p + 0j).dtype == complex
    assert memo(2, list(p)).dtype == float
    assert memo(2, p + 0j).dtype == complex
    assert seen == [np.dtype(float), np.dtype(complex)]


def test_point_map_exact_is_complex_at_a_complex_point():
    ch = Chart(2)
    pm = PointMap.exact([parse("x1*x2", ch), parse("2", ch)])
    p = np.array([0.5, 3.0])
    assert pm.value(p).dtype == float
    # The complex step along x1: Im value(p + ih e_1) / h = d/dx1.
    v = pm.value(p + np.array([1e-20j, 0.0]))
    assert v.dtype == complex and v.real.tolist() == [1.5, 2.0]
    assert (v.imag / 1e-20).tolist() == pytest.approx([3.0, 0.0], rel=1e-15)
    assert pm.partials(p + 0j)[0].tolist() == [3.0, 0.0]


def test_only_point_map_exact_evaluates_outside_expr():
    """Every Expr array reaches numbers through ``PointMap.exact``: no
    module of the package but ``expr`` calls ``compile_tape`` or
    ``evaluate`` except ``PointMap.exact``, which compiles its entries
    and runs the tape through ``evaluate``, so the tape is the one
    evaluation path."""
    import ast
    from pathlib import Path

    import algebroids

    names = ("compile_tape", "evaluate")

    class Scan(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.scope, self.allowed, self.stray = path, [], set(), []

        def _nested(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

        def visit_ImportFrom(self, node):
            for alias in node.names:
                if alias.name in names and alias.asname not in (None, alias.name):
                    self.stray.append(f"{self.path.name}:{node.lineno} imports {alias.name} as {alias.asname}")

        def visit_Call(self, node):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            where = f"{self.path.name}:{node.lineno} in {'.'.join(self.scope)}"
            if name in names:
                if self.path.name == "bundles.py" and self.scope[:2] == ["PointMap", "exact"]:
                    self.allowed.add(name)
                else:
                    self.stray.append(where)
            self.generic_visit(node)

    allowed, stray = set(), []
    for path in sorted(Path(algebroids.__file__).parent.glob("*.py")):
        if path.name != "expr.py":
            scan = Scan(path)
            scan.visit(ast.parse(path.read_text(), str(path)))
            allowed, stray = allowed | scan.allowed, stray + scan.stray
    assert stray == []
    assert allowed == set(names)
