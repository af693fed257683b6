"""Tests for the numeric action-groupoid harness and its cross-
validation against the symbolic side."""

import itertools

import numpy as np
import pytest

from algebroids.algebroid import canonical_representation
from algebroids.expr import (
    Chart,
    ONE,
    ZERO,
    add,
    coord,
    div,
    evaluate,
    fold,
    mul,
)
from algebroids.factory import so3_basis
from algebroids.groupoid import (
    ActionGroupoid,
    EquivarianceError,
    MatrixGroup,
    MultForm,
    check_groupoid_properties,
    connection_from_splitting,
    covariant_exterior_D,
    d_nabla_s,
    differentiate_to_im,
    expm,
    horizontal_projection,
    numeric_extract_coupling,
    simplicial_delta,
)
from algebroids.imforms import check_im_form, check_structure_equations
from algebroids.sampling import SamplePlan
from reference import antisymmetry_residual, delta_of_function


def so2_groupoid():
    G = MatrixGroup(2, [np.array([[0.0, -1.0], [1.0, 0.0]])])
    ch = Chart(1)
    return ActionGroupoid(
        G, ch, [coord(4)], ideal_frame=[[ONE]], complement=[], splitting=[[ONE]]
    )


def so2_on_plane_trivial():
    """Rotation group acting trivially on the plane: a product."""
    G = MatrixGroup(2, [np.array([[0.0, -1.0], [1.0, 0.0]])])
    ch = Chart(2)
    return ActionGroupoid(
        G, ch, [coord(4), coord(5)], ideal_frame=[[ONE]], complement=[],
        splitting=[[ONE]],
    )


def so3_radial_groupoid():
    G = MatrixGroup(3, so3_basis())
    ch = Chart(3, bounds=[(0.4, 1.2), (-0.8, 0.8), (-0.8, 0.8)], excluded_origin=True)
    action = [
        fold(add(*(mul(coord(3 * i + j), coord(9 + j)) for j in range(3))))
        for i in range(3)
    ]
    x = [coord(i) for i in range(3)]
    r2 = fold(add(mul(x[0], x[0]), mul(x[1], x[1]), mul(x[2], x[2])))
    return ActionGroupoid(
        G,
        ch,
        action,
        ideal_frame=[[x[0], x[1], x[2]]],
        complement=[[ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
        splitting=[[fold(div(x[i], r2)) for i in range(3)]],
    )


def test_matrix_group_structure():
    G = MatrixGroup(3, so3_basis())
    assert G.dim == 3
    v = np.array([0.3, -0.2, 0.5])
    g = G.exp(v)
    assert np.max(np.abs(g @ g.T - np.eye(3))) < 1e-12
    # coords inverts to_matrix.
    assert np.max(np.abs(G.coords(G.to_matrix(v)) - v)) < 1e-12


def test_to_matrix_matches_tensordot_of_the_stacked_basis(monkeypatch):
    # The basis is stacked once, in __init__: bit for bit the tensordot
    # over np.stack(basis) that each call used to build.
    gl2 = [np.eye(4)[i].reshape(2, 2) for i in range(4)]
    groups = [so2_groupoid().group, MatrixGroup(3, so3_basis()), MatrixGroup(2, gl2)]
    rng = np.random.default_rng(12)
    cases = []
    for G in groups:
        for scale in (1e-8, 1.0, 1e6):
            cases += [(G, scale * rng.standard_normal(G.dim)) for _ in range(300)]
    want = [np.tensordot(v, np.stack(G.basis), axes=1) for G, v in cases]
    stacks = []
    stack = np.stack
    monkeypatch.setattr(np, "stack", lambda *a, **k: stacks.append(1) or stack(*a, **k))
    for (G, v), w in zip(cases, want):
        assert _same_bits(G.to_matrix(v), w)
        assert _same_bits(G.to_matrix(list(v)), w)
    assert stacks == []


def _hat(k):
    return np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])


def test_expm_matches_closed_form_rotations():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(5)
    for t in np.geomspace(1e-8, 3.0, 60):
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        assert np.max(np.abs(expm(t * J) - rot)) <= 1e-15 * (1 + t)
        k = rng.standard_normal(3)
        K = _hat(k / np.linalg.norm(k))
        # Rodrigues' formula.
        rod = np.eye(3) + np.sin(t) * K + (1 - np.cos(t)) * (K @ K)
        E = expm(t * K)
        assert np.max(np.abs(E - rod)) <= 1e-15 * (1 + t)
        assert np.max(np.abs(E @ E.T - np.eye(3))) <= 4e-15


def test_expm_matches_scipy_on_general_matrices():
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(6)
    for norm in (1e-6, 0.1, 1.0, 3.0, 10.0):
        for _ in range(50):
            A = rng.standard_normal((3, 3))
            A *= norm / np.linalg.norm(A, 1)
            want = scipy_expm(A)
            err = np.linalg.norm(expm(A) - want, 1) / np.linalg.norm(want, 1)
            assert err <= 1e-11, (norm, err)


def test_expm_of_zero_is_the_identity():
    for n in (1, 2, 3):
        assert _same_bits(expm(np.zeros((n, n))), np.eye(n))


def test_expm_keeps_complex_input_complex():
    # A complex step through a flow reads Im exp(i h U) / h.  With
    # J^2 = -I, exp(i t J) = cosh(t) I + i sinh(t) J.
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    for t in (1e-20, 1e-3, 0.5, 2.0):
        E = expm(1j * t * J)
        assert E.dtype == np.complex128
        want = np.cosh(t) * np.eye(2) + 1j * np.sinh(t) * J
        assert np.max(np.abs(E - want)) <= 1e-15 * np.cosh(t)
    h = 1e-20
    U = _hat([0.3, -0.2, 0.5])
    assert np.max(np.abs(expm(1j * h * U).imag / h - U)) <= 1e-15


def test_matrix_group_rejects_nonclosed_basis():
    # Raising and lowering operators bracket to a diagonal outside
    # their span.
    bad = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
    with pytest.raises(ValueError):
        MatrixGroup(2, bad)


def test_matrix_group_rejects_empty_basis():
    with pytest.raises(ValueError, match="Lie algebra basis is empty"):
        MatrixGroup(2, [])


@pytest.mark.parametrize(
    "basis, message",
    [
        ([[0.0, -1.0, 1.0, np.inf]], r"basis element 0 holds a non-finite entry"),
        ([[0.0, -1.0, 1.0, 0.0], [np.nan, 0.0, 0.0, 0.0]], r"basis element 1 holds a non-finite entry"),
        ([[0.0, -1.0, 1.0]], r"basis element 0 has 3 entries, not 2 x 2"),
        ([np.eye(3)], r"basis element 0 has 9 entries, not 2 x 2"),
    ],
)
def test_matrix_group_names_a_malformed_basis_element(basis, message):
    # Each is refused before the rank test, which would call an inf
    # entry linear dependence, or the reshape, which names no element.
    with pytest.raises(ValueError, match=message):
        MatrixGroup(2, basis)


def test_groupoid_invariants():
    for gpd in (so2_groupoid(), so3_radial_groupoid()):
        assert gpd.verify(SamplePlan(seed=1, samples=80)).passed


def test_connection_so2_maurer_cartan():
    gpd = so2_groupoid()
    plan = SamplePlan(seed=42, samples=40)
    alpha = connection_from_splitting(gpd, plan=plan)
    rng = np.random.default_rng(2)
    g = gpd.group.random_element(rng)
    out = alpha(g, [0.1], (np.array([0.45]), np.zeros(1)))
    assert abs(out[0] - 0.45) < 1e-12


def test_connection_refuses_nonequivariant():
    gpd = so3_radial_groupoid()
    x = [coord(i) for i in range(3)]
    # Fixed-axis projection: identity on the radial frame but not
    # conjugation-equivariant.
    bad = [[fold(div(ONE, x[0])), ZERO, ZERO]]
    with pytest.raises(EquivarianceError) as ei:
        connection_from_splitting(gpd, bad, plan=SamplePlan(seed=3, samples=40))
    eq = next(c for c in ei.value.report.checks if c.name == "splitting_equivariance")
    assert eq.max_residual > 1e-3


def test_delta_squared_on_functions():
    gpd = so3_radial_groupoid()
    x = [coord(i) for i in range(3)]
    F = delta_of_function(gpd, [fold(mul(x[0], x[1]))])
    dF = simplicial_delta(gpd, F)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(40):
        g1, xx = gpd.sample_arrow(rng)
        g2, _ = gpd.sample_arrow(rng)
        worst = max(worst, float(np.max(np.abs(dF(g1, g2, xx)))))
    assert worst < 1e-7


def test_delta_alpha_zero_and_perturbed():
    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=40)
    alpha = connection_from_splitting(gpd, plan=plan)
    d_alpha = simplicial_delta(gpd, alpha)
    rng = np.random.default_rng(7)

    def pair_tangent():
        return tuple(rng.uniform(-1, 1, 3) for _ in range(3))

    worst = 0.0
    for _ in range(100):
        g1, x = gpd.sample_arrow(rng)
        g2, _ = gpd.sample_arrow(rng)
        worst = max(worst, float(np.max(np.abs(d_alpha(g1, g2, x, pair_tangent())))))
    assert worst < 1e-7

    # A source-pullback perturbation by a chart 1-form is not
    # multiplicative.
    def pert_eval(g, x, T):
        _, w = T
        return alpha(g, x, T) + np.array([x[0] * w[0]])

    pert = MultForm(gpd, 1, pert_eval)
    d_pert = simplicial_delta(gpd, pert)
    worst = 0.0
    for _ in range(40):
        g1, x = gpd.sample_arrow(rng)
        g2, _ = gpd.sample_arrow(rng)
        worst = max(worst, float(np.max(np.abs(d_pert(g1, g2, x, pair_tangent())))))
    assert worst > 1e-3


def test_curvature_vanishes_for_products():
    for gpd in (so2_groupoid(), so2_on_plane_trivial()):
        plan = SamplePlan(seed=42, samples=30)
        alpha = connection_from_splitting(gpd, plan=plan)
        conn = gpd.induced_connection()
        Om = covariant_exterior_D(gpd, alpha, conn)
        rng = np.random.default_rng(3)
        for _ in range(10):
            g, x = gpd.sample_arrow(rng)
            T1 = gpd.sample_tangent(rng)
            T2 = gpd.sample_tangent(rng)
            assert np.max(np.abs(Om(g, x, T1, T2))) < 1e-9


def test_curvature_antisymmetry_so3():
    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=30)
    alpha = connection_from_splitting(gpd, plan=plan)
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, alpha, conn)
    assert antisymmetry_residual(Om, SamplePlan(seed=4, samples=20), 10) < 1e-8


def test_antisymmetry_residual_needs_degree_two():
    # A degree-1 form has no antisymmetry to measure: asking for it must
    # not return a residual of 0.0 that was never computed.
    gpd = so2_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    with pytest.raises(ValueError, match="degree 2"):
        antisymmetry_residual(alpha, SamplePlan(seed=4, samples=20))


def test_a_two_form_needs_its_connection_form():
    # A 2-form is no connection form: its projection needs alpha, so a
    # 2-form without one is refused when built, not at every evaluation.
    gpd = so2_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, alpha, conn)
    with pytest.raises(ValueError, match="degree 2"):
        covariant_exterior_D(gpd, Om, conn)
    DOm = covariant_exterior_D(gpd, Om, conn, alpha=alpha)
    assert DOm.degree == 3


def test_groupoid_properties_so3():
    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=60)
    alpha = connection_from_splitting(gpd, plan=plan.fork("c"))
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, alpha, conn)
    rep = check_groupoid_properties(
        gpd, alpha, Om, conn, plan.fork("props"), n_pairs=60, n_points=15
    )
    assert rep.passed


def test_structure_equation_step_convergence():
    # Halving the finite-difference step cuts the structure-equation
    # residual at least in half, down to the agreed floor.
    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=30)
    alpha = connection_from_splitting(gpd, plan=plan.fork("c"))
    conn = gpd.induced_connection()

    def residual(step):
        rng = np.random.default_rng(11)
        dn = d_nabla_s(gpd, alpha, conn, step=step)
        Om = covariant_exterior_D(gpd, alpha, conn, step=step)
        worst = 0.0
        for _ in range(8):
            g, x = gpd.sample_arrow(rng)
            T1 = gpd.sample_tangent(rng)
            T2 = gpd.sample_tangent(rng)
            c = gpd.fiber_structure(x)
            br = np.einsum("a,b,abc->c", alpha(g, x, T1), alpha(g, x, T2), c)
            res = Om(g, x, T1, T2) - dn(g, x, T1, T2) - br
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    steps = [4e-2, 2e-2, 1e-2]
    rs = [residual(s) for s in steps]
    for a, b in zip(rs, rs[1:]):
        assert b <= max(a / 2.0, 1e-6)


def test_step_size_warning():
    # A noisy integrand makes the finite-difference derivative
    # noise-dominated; the first evaluation must warn.  The projection
    # is disabled (zero connection form) so the noisy mixed
    # group/chart derivatives actually enter.
    import warnings

    from algebroids.groupoid import StepSizeWarning

    gpd = so2_groupoid()
    plan = SamplePlan(seed=42, samples=20)
    alpha = connection_from_splitting(gpd, plan=plan)
    rng = np.random.default_rng(0)

    def noisy(g, x, T):
        return alpha(g, x, T) + rng.normal(scale=1e-3, size=1)

    noisy_form = MultForm(gpd, 1, noisy)
    zero_alpha = MultForm(gpd, 1, lambda g, x, T: np.zeros(1))
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, noisy_form, conn, alpha=zero_alpha)
    g, x = gpd.sample_arrow(np.random.default_rng(1))
    T1 = gpd.sample_tangent(np.random.default_rng(2))
    T2 = gpd.sample_tangent(np.random.default_rng(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Om(g, x, T1, T2)
    assert any(issubclass(w.category, StepSizeWarning) for w in caught)

    # A smooth form at the stock step stays silent.
    Om2 = covariant_exterior_D(gpd, alpha, conn)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Om2(g, x, T1, T2)
    assert not any(issubclass(w.category, StepSizeWarning) for w in caught)


def test_step_size_warning_on_a_first_read_on_the_stock_fields():
    # The noisy form of test_step_size_warning, its curvature first read
    # whole on the stock fields, as the Bianchi stencil reads it: the
    # probe runs on that read, and a later tangent evaluation adds no
    # second probe.
    import warnings

    from algebroids.groupoid import StepSizeWarning

    gpd = so2_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    rng = np.random.default_rng(0)
    noisy_form = MultForm(gpd, 1, lambda g, x, T: alpha(g, x, T) + rng.normal(scale=1e-3, size=1))
    zero_alpha = MultForm(gpd, 1, lambda g, x, T: np.zeros(1))
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, noisy_form, conn, alpha=zero_alpha)
    g, x = gpd.sample_arrow(np.random.default_rng(1))
    T1, T2, T3 = (gpd.sample_tangent(np.random.default_rng(s)) for s in (2, 3, 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d_nabla_s(gpd, Om, conn)(g, x, T1, T2, T3)
    assert [w.category for w in caught] == [StepSizeWarning]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Om(g, x, T1, T2)
    assert not caught


def test_a_table_reads_the_connection_form_whole_2m_plus_1_times():
    # The connection form's stock read is the splitting's columns: a
    # d_nabla_s table reads it at the arrow and its 2m moves and never
    # evaluates the form on a tangent; a hit reads nothing.  The read
    # equals the tangent evaluations bit for bit.
    gpd = so3_radial_groupoid()
    m = gpd.group.dim + gpd.chart.dim
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    conn = gpd.induced_connection()
    reads, tangent_calls = [], []
    stock_read, evaluate_on = alpha._stock_read, alpha._eval
    alpha._stock_read = lambda g, x: reads.append(1) or stock_read(g, x)
    alpha._eval = lambda *args: tangent_calls.append(1) or evaluate_on(*args)
    dn = d_nabla_s(gpd, alpha, conn)
    rng = np.random.default_rng(16)
    g, x = gpd.sample_arrow(rng)
    T1, T2 = gpd.sample_tangent(rng), gpd.sample_tangent(rng)
    dn(g, x, T1, T2)
    assert (len(reads), len(tangent_calls)) == (2 * m + 1, 0)
    dn(g, x, T2, T1)
    assert (len(reads), len(tangent_calls)) == (2 * m + 1, 0)
    by_tangents = [alpha(g, x, _stock(gpd, mu)) for mu in range(m)]
    assert _same_bits(alpha._on_stock(g, x), np.reshape(by_tangents, (m, gpd.k)))
    # The table's own read: its rows on the increasing pairs.
    pairs = list(itertools.combinations(range(m), 2))
    by_tangents = [dn(g, x, _stock(gpd, a), _stock(gpd, b)) for a, b in pairs]
    assert np.array_equal(dn._on_stock(g, x), np.reshape(by_tangents, (len(pairs), gpd.k)))


def test_flow_region_guard():
    # With a razor-thin padding, a point at the edge of the chart: the
    # complex step moves the flow's arrows off x by an imaginary part
    # only, so the operator value is taken there, but its partial along
    # an outward direction steps x out of the padded region.
    from algebroids.groupoid import FlowRegionError

    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=20)
    alpha = connection_from_splitting(gpd, plan=plan)
    nform = differentiate_to_im(gpd, alpha, region_pad=1e-6)
    edge = np.array([0.41, 0.7999, 0.7999])
    assert np.isfinite(nform.op_map.value(edge)[0, 0]).all()
    for j in (1, 2):
        with pytest.raises(FlowRegionError):
            nform.op_map.partials(edge)[j, 0, 0]


def test_action_algebroid_conventions():
    # The derived symbolic algebroid reproduces the rotation action
    # fixture: anchor columns are the cross-product fields in the
    # kernel-of-target convention.
    gpd = so3_radial_groupoid()
    A, ideal, P = gpd.action_algebroid()
    assert A.rank == 3 and ideal.k == 1
    from algebroids.algebroid import check_axioms

    assert check_axioms(A, ideal, SamplePlan(seed=2, samples=80)).passed


def test_differentiate_to_im_so2_product():
    gpd = so2_groupoid()
    plan = SamplePlan(seed=42, samples=40)
    alpha = connection_from_splitting(gpd, plan=plan.fork("c"))
    nform = differentiate_to_im(gpd, alpha)
    # Product shape: symbol is the identity, operator values vanish.
    for p in plan.points(gpd.chart, 10):
        assert abs(nform.sym_map.value(p)[0, 0, 0] - 1.0) < 1e-9
        assert abs(nform.op_map.value(p)[0, 0, 0]) < 1e-8
    A, ideal, _ = gpd.action_algebroid()
    rep = canonical_representation(A, ideal)
    out = check_im_form(nform, rep, SamplePlan(seed=5, samples=40), tol=1e-6)
    assert out.passed and out.extra["connection_predicate"]


def test_differentiate_to_im_so3(radial_model):
    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=50)
    alpha = connection_from_splitting(gpd, plan=plan.fork("c"))
    nform = differentiate_to_im(gpd, alpha)
    A, ideal, P = gpd.action_algebroid()

    # Recovered symbol equals the supplied splitting on the adapted frame.
    worst = 0.0
    for p in plan.points(gpd.chart, 12):
        for a in range(3):
            want = sum(
                evaluate(gpd.splitting[0][b], p) * evaluate(P[b][a], p)
                for b in range(3)
            )
            worst = max(worst, abs(nform.sym_map.value(p)[a, 0, 0] - want))
    assert worst < 1e-6

    rep = canonical_representation(A, ideal)
    out = check_im_form(nform, rep, SamplePlan(seed=5, samples=50), tol=1e-6)
    assert out.passed and out.extra["connection_predicate"]

    ncd = numeric_extract_coupling(gpd, nform)
    se = check_structure_equations(ncd, plan=SamplePlan(seed=6, samples=40), tol=1e-6)
    assert se.passed

    # Cross-validation against the symbolic fixture: the numeric
    # operator values match the connection-based construction.
    from algebroids.algebroid import cartan_build_connection

    m = radial_model
    sym_form = cartan_build_connection(
        m.algebroid, m.ideal, m.splitting, m.connection, plan.fork("cartan")
    )
    worst = 0.0
    for p in plan.points(gpd.chart, 10):
        for a in range(3):
            for i in range(3):
                worst = max(
                    worst,
                    float(
                        np.max(
                            np.abs(
                                nform.op_map.value(p)[a, i]
                                - sym_form.op_map.value(p)[a, i]
                            )
                        )
                    ),
                )
    assert worst < 1e-6


# The covariant exterior derivative written without sharing: every
# table, move and flow is rebuilt on every call, and flows call
# groupoid.expm directly, bypassing the flow memo.  The groupoid module
# must agree with it bit for bit, memo hits and memo clears included.


def _ref_move(gpd, g, x, mu, s):
    d = gpd.group.dim
    if mu < d:
        return g @ expm(s * gpd.group.basis[mu]), np.asarray(x, dtype=float)
    y = np.asarray(x, dtype=float).copy()
    y[mu - d] += s
    return g, y


def _stock(gpd, mu):
    """The mu-th stock field as a tangent (v, w): the mu-th unit vector."""
    d = gpd.group.dim
    e = np.eye(d + gpd.chart.dim)[mu]
    return e[:d], e[d:]


def _ref_antisymmetric(values, m, k):
    """The antisymmetric array with values[idx] at each increasing tuple
    idx, and the signed value at each reordering of idx."""
    q = len(next(iter(values)))
    out = np.zeros((m,) * q + (k,))
    for idx, val in values.items():
        for perm in itertools.permutations(idx):
            odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            out[perm] = -val if odd else val
    return out


def _ref_D(gpd, omega, conn, alpha=None, step=1e-5):
    """The covariant exterior derivative of a form of degree p = 1 or 2
    on the stock fields X_0, ..., X_{m-1},

        sum_t (-1)^t (X_t + Gamma(X_t)) omega(..., X_t omitted, ...)
          + sum_{s<t} (-1)^(s+t) omega([X_s, X_t], ...),

    contracted with each tangent's coordinates, taken horizontal for
    alpha when alpha is given."""
    d, k, p = gpd.group.dim, gpd.k, omega.degree
    m = d + gpd.chart.dim

    def on(g, x, idx):
        return omega(g, x, *(_stock(gpd, mu) for mu in idx))

    def table(g, x):
        x = np.asarray(x, dtype=float)
        at = {idx: on(g, x, idx) for idx in itertools.combinations(range(m), p)}
        W = _ref_antisymmetric(at, m, k)
        out = {}
        for idx in itertools.combinations(range(m), p + 1):
            val = np.zeros(k)
            for t, a in enumerate(idx):
                rest = idx[:t] + idx[t + 1 :]
                up = on(*_ref_move(gpd, g, x, a, step), rest)
                down = on(*_ref_move(gpd, g, x, a, -step), rest)
                dval = (up - down) / (2 * step)
                if a >= d:
                    dval += conn.gamma_map.value(x)[a - d] @ at[rest]
                val += (-1) ** t * dval
            for s, t in itertools.combinations(range(p + 1), 2):
                if idx[t] < d:
                    rest = tuple(mu for r, mu in enumerate(idx) if r not in (s, t))
                    fc = gpd.group.structure[idx[s], idx[t]]
                    val += (-1) ** (s + t) * np.tensordot(fc, W[:d], axes=1)[rest]
            out[idx] = val
        return _ref_antisymmetric(out, m, k)

    def evaluator(g, x, *tangents):
        if alpha is not None:
            tangents = [horizontal_projection(gpd, alpha)(g, x, T) for T in tangents]
        M = table(g, x)
        for T in tangents:
            M = np.tensordot(np.concatenate(T), M, axes=1)
        return M

    return MultForm(gpd, p + 1, evaluator)


# The per-degree stencils that the one formula replaced: a degree-1
# table that differentiates both slots of each pair, and a degree-2 sum
# over the triples of stock fields.  They agree with it up to rounding.


def _old_curvature(gpd, omega, conn, alpha, step=1e-5):
    d, n = gpd.group.dim, gpd.chart.dim
    m = d + n
    h = horizontal_projection(gpd, alpha)

    def matrix(g, x):
        x = np.asarray(x, dtype=float)
        vals = [omega(g, x, _stock(gpd, nu)) for nu in range(m)]
        out = np.zeros((m, m, gpd.k))
        for mu in range(m):
            for nu in range(mu + 1, m):
                gm, xm = _ref_move(gpd, g, x, mu, step)
                gm2, xm2 = _ref_move(gpd, g, x, mu, -step)
                dmu = omega(gm, xm, _stock(gpd, nu)) - omega(gm2, xm2, _stock(gpd, nu))
                dmu = dmu / (2 * step)
                gn, xn = _ref_move(gpd, g, x, nu, step)
                gn2, xn2 = _ref_move(gpd, g, x, nu, -step)
                dnu = omega(gn, xn, _stock(gpd, mu)) - omega(gn2, xn2, _stock(gpd, mu))
                dnu = dnu / (2 * step)
                val = dmu - dnu
                if mu >= d:
                    val += conn.gamma_map.value(x)[mu - d] @ vals[nu]
                if nu >= d:
                    val -= conn.gamma_map.value(x)[nu - d] @ vals[mu]
                if mu < d and nu < d:
                    fc = gpd.group.structure[mu, nu]
                    for c in range(d):
                        if fc[c] != 0.0:
                            val -= fc[c] * vals[c]
                out[mu, nu] = val
                out[nu, mu] = -val
        return out

    def evaluator(g, x, T1, T2):
        c1 = np.concatenate(h(g, x, T1))
        c2 = np.concatenate(h(g, x, T2))
        return np.einsum("m,n,mnk->k", c1, c2, matrix(g, x))

    return MultForm(gpd, 2, evaluator)


def _old_d2_component(gpd, omega, conn, g, x, mu, nu, lam, step):
    d = gpd.group.dim

    def omega_on(gg, xx, a, b):
        return omega(gg, xx, _stock(gpd, a), _stock(gpd, b))

    total = np.zeros(gpd.k)
    for t, (a, rest) in enumerate([(mu, (nu, lam)), (nu, (mu, lam)), (lam, (mu, nu))]):
        sgn = (-1.0) ** t
        gp, xp = _ref_move(gpd, g, x, a, step)
        gm, xm = _ref_move(gpd, g, x, a, -step)
        dval = (omega_on(gp, xp, *rest) - omega_on(gm, xm, *rest)) / (2 * step)
        if a >= d:
            dval += conn.gamma_map.value(x)[a - d] @ omega_on(g, x, *rest)
        total += sgn * dval
    pairs = [((mu, nu), lam, 1.0), ((mu, lam), nu, -1.0), ((nu, lam), mu, 1.0)]
    for (a, b), other, sgn in pairs:
        if a < d and b < d:
            fc = gpd.group.structure[a, b]
            for c in range(d):
                if fc[c] != 0.0:
                    total -= sgn * fc[c] * omega_on(g, x, c, other)
    return total


def _old_bianchi(gpd, Omega, conn, alpha, step):
    h = horizontal_projection(gpd, alpha)
    m = gpd.group.dim + gpd.chart.dim
    perm3 = [((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
             ((1, 0, 2), -1.0), ((2, 1, 0), -1.0), ((0, 2, 1), -1.0)]

    def evaluator(g, x, T1, T2, T3):
        x = np.asarray(x, dtype=float)
        cs = [np.concatenate(h(g, x, T)) for T in (T1, T2, T3)]
        total = np.zeros(gpd.k)
        for mu, nu, lam in itertools.combinations(range(m), 3):
            coef = sum(sgn * cs[i][mu] * cs[j][nu] * cs[kk][lam] for (i, j, kk), sgn in perm3)
            if coef != 0.0:
                total += coef * _old_d2_component(gpd, Omega, conn, g, x, mu, nu, lam, step)
        return total

    return MultForm(gpd, 3, evaluator)


def _pushed_form(gpd, alpha, b, x, eps):
    """The form on the chart directions at x, pushed along the b-th
    constant flow by eps (real or complex), without the memos."""
    n, k = gpd.chart.dim, gpd.k
    Umat = gpd.group.basis[b]
    ge = expm(eps * Umat)
    gi = expm(-eps * Umat)
    y = gpd.act(gi, x)
    J = gpd.act_jac_x(gi, x)
    out = np.zeros((n, k), dtype=np.result_type(eps, float))
    for i in range(n):
        val = alpha(ge, y, (np.zeros(gpd.group.dim), J[:, i]))
        w = gpd.group.ad_action(ge, gpd.kframe(y) @ np.asarray(val))
        out[i] = np.linalg.lstsq(gpd.kframe(gpd.act(ge, y)), w, rcond=None)[0]
    return out


def _ref_L_const(gpd, alpha, b, x):
    """The flow derivative by the complex step Im F(ih) / h, h = 1e-20."""
    x = np.asarray(x, dtype=float)
    return _pushed_form(gpd, alpha, b, x, 1e-20j).imag / 1e-20


def _stencil_L_const(gpd, alpha, b, x):
    """The flow derivative by the four-point stencil at step 1e-3."""
    from algebroids.imforms import fd_partial

    x = np.asarray(x, dtype=float)
    return fd_partial(lambda t: _pushed_form(gpd, alpha, b, x, t[0]), 0, [0.0], 1e-3)


def _ref_op_value(gpd, alpha, a, i, x, L_const=_ref_L_const):
    from algebroids.bundles import PointMap

    _, _, P = gpd.action_algebroid()
    d, k = gpd.group.dim, gpd.k
    I = np.eye(gpd.group.N)
    x = np.asarray(x, dtype=float)
    col = PointMap.exact([P[b][a] for b in range(d)])
    out = np.zeros(k)
    Pa, dPa = col.value(x), col.partials(x)[i]
    for b in range(d):
        if Pa[b] != 0.0:
            out += Pa[b] * L_const(gpd, alpha, b, x)[i]
        if dPa[b] != 0.0:
            v = np.eye(d)[b]
            w = -gpd.action_field(v, x)
            out += dPa[b] * alpha(I, x, (v, w))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _stencil_cases(gpd, n_distinct, seed):
    """Arrows with tangents: n_distinct random arrows, the first one
    twice in a row (a memo hit), one more at the first arrow's point
    under another group element (a memo keyed by the point alone would
    answer it from the first), then the first one twice again (once
    more arrows than the memo holds have passed, a recomputation, then
    a hit)."""
    rng = np.random.default_rng(seed)
    arrows = [gpd.sample_arrow(rng) for _ in range(n_distinct)]
    arrows.insert(1, arrows[0])
    arrows.append((gpd.group.random_element(rng), arrows[0][1]))
    arrows += arrows[:2]
    return [
        (g, x, [gpd.sample_tangent(rng) for _ in range(3)]) for g, x in arrows
    ]


def _tilted(gpd, alpha):
    """alpha plus a term that depends on the group element."""
    return MultForm(
        gpd, 1, lambda g, x, T: alpha(g, x, T) + g[0, 1] * np.asarray(T[1])[0]
    )


@pytest.mark.parametrize("model", ["so2", "so3"])
def test_d_nabla_s_and_curvature_match_the_unshared_stencil(model):
    gpd = so2_groupoid() if model == "so2" else so3_radial_groupoid()
    m = gpd.group.dim + gpd.chart.dim
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    conn = gpd.induced_connection()
    # More distinct arrows than the memo holds (2m + 1), so the first
    # is dropped.
    cases = _stencil_cases(gpd, 2 * m + 2, seed=8)
    for form in (alpha, _tilted(gpd, alpha)):
        new = d_nabla_s(gpd, form, conn)
        ref = _ref_D(gpd, form, conn)
        for g, x, (T1, T2, _) in cases:
            assert _same_bits(new(g, x, T1, T2), ref(g, x, T1, T2))

    # One table costs 2m + 1 reads of the form on the stock fields, at
    # the arrow and at each of its 2m moves; a hit costs none.
    calls = []
    counted = MultForm(gpd, 1, alpha)
    counted._stock_read = lambda g, x: calls.append(1) or alpha._on_stock(g, x)
    new = d_nabla_s(gpd, counted, conn)
    per_table = 2 * m + 1
    seen = []
    for g, x, (T1, T2, _) in cases:
        before = len(calls)
        new(g, x, T1, T2)
        seen.append((len(calls) - before) / per_table)
    assert seen == [1, 0] + [1] * (2 * m + 2) + [1, 0]
    Om = covariant_exterior_D(gpd, alpha, conn)
    Om_ref = _ref_D(gpd, alpha, conn, alpha=alpha)
    for g, x, (T1, T2, _) in cases:
        assert _same_bits(Om(g, x, T1, T2), Om_ref(g, x, T1, T2))


@pytest.mark.parametrize("model", ["so2", "so3"])
def test_bianchi_matches_the_unshared_stencil(model):
    # so2 acting trivially on the plane, so that m = 3 and one triple of
    # stock fields contributes.  One evaluation on so3 visits 2m + 1 =
    # 13 arrows, filling the curvature's memo; the next one drops them.
    gpd = so2_on_plane_trivial() if model == "so2" else so3_radial_groupoid()
    m = gpd.group.dim + gpd.chart.dim
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, _tilted(gpd, alpha), conn, alpha=alpha)
    DOm = covariant_exterior_D(gpd, Om, conn, alpha=alpha, step=2e-4)
    Om_ref = _ref_D(gpd, _tilted(gpd, alpha), conn, alpha=alpha)
    DOm_ref = _ref_D(gpd, Om_ref, conn, alpha=alpha, step=2e-4)
    cases = _stencil_cases(gpd, 4, seed=9)
    for g, x, Ts in cases:
        assert _same_bits(DOm(g, x, *Ts), DOm_ref(g, x, *Ts))

    # One degree-2 table costs 2m + 1 reads of the 2-form on the stock
    # fields; a hit costs none.  Four distinct arrows leave the memo
    # unfilled.
    calls = []
    counted = MultForm(gpd, 2, Om)
    counted._stock_read = lambda g, x: calls.append(1) or Om._on_stock(g, x)
    new = d_nabla_s(gpd, counted, conn, step=2e-4)
    per_table = 2 * m + 1
    seen = []
    for g, x, Ts in cases:
        before = len(calls)
        new(g, x, *Ts)
        seen.append((len(calls) - before) / per_table)
    assert seen == [1, 0, 1, 1, 1, 1, 0, 0]


def test_one_stencil_agrees_with_the_per_degree_stencils():
    # On so3 the tilted form's curvature and its covariant derivative
    # are of order 1, so both bounds compare rounding, not zeros.
    gpd = so3_radial_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    conn = gpd.induced_connection()
    tilted = _tilted(gpd, alpha)
    Om = covariant_exterior_D(gpd, tilted, conn, alpha=alpha)
    Om_old = _old_curvature(gpd, tilted, conn, alpha)
    DOm = covariant_exterior_D(gpd, Om, conn, alpha=alpha, step=2e-4)
    DOm_old = _old_bianchi(gpd, Om_old, conn, alpha, step=2e-4)
    scale = 0.0
    for g, x, (T1, T2, T3) in _stencil_cases(gpd, 4, seed=9):
        new, old = Om(g, x, T1, T2), Om_old(g, x, T1, T2)
        assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()
        new, old = DOm(g, x, T1, T2, T3), DOm_old(g, x, T1, T2, T3)
        assert np.abs(new - old).max() <= 1e-11
        scale = max(scale, np.abs(old).max())
    assert scale > 0.1


def test_forms_and_stencils_solve_no_linear_system(monkeypatch):
    # A tangent is read in left-trivialized coordinates, so no form
    # value, stencil table or horizontal projection solves g X = xi.
    # The flows exp(+-h U) of the stencils (a Pade solve each) are
    # exponentiated at the first arrow and read from their memo at the
    # second.
    gpd = so3_radial_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    conn = gpd.induced_connection()
    dn = d_nabla_s(gpd, alpha, conn)
    Om = covariant_exterior_D(gpd, alpha, conn)
    rng = np.random.default_rng(14)
    first, (g, x) = gpd.sample_arrow(rng), gpd.sample_arrow(rng)
    T1, T2 = gpd.sample_tangent(rng), gpd.sample_tangent(rng)
    dn(*first, T1, T2)
    Om(*first, T1, T2)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    values = [alpha(g, x, T1), dn(g, x, T1, T2), Om(g, x, T1, T2)]
    assert all(np.isfinite(v).all() for v in values)
    assert np.abs(values[2]).max() > 1e-3


@pytest.mark.parametrize("degree", [1, 2])
def test_d_nabla_s_of_a_source_pullback_matches_the_symbolic_derivative(degree):
    # omega(g, x, (v, w), ...) = beta(x)(w, ...) for a form beta on the
    # ideal bundle: on chart fields d_nabla_s(omega) is the symbolic
    # exterior covariant derivative of beta, and on any tuple with a
    # group field it is exactly 0.
    from algebroids.bundles import exterior_covariant_derivative

    gpd = so3_radial_groupoid()
    conn = gpd.induced_connection()
    d, m = gpd.group.dim, gpd.group.dim + gpd.chart.dim
    x0, x1, x2 = (coord(i) for i in range(3))
    # On (0,), (1,), (2,) or on (0, 1), (0, 2), (1, 2).
    comps = {
        1: [[mul(x1, x2)], [mul(x0, x0)], [add(x0, x2)]],
        2: [[x2], [mul(x0, x1)], [mul(x1, x1)]],
    }[degree]
    beta = [[fold(v) for v in vec] for vec in comps]
    tuples = list(itertools.combinations(range(3), degree))
    want = exterior_covariant_derivative(conn, beta, degree)

    def pullback(g, x, *tangents):
        w = np.stack([T[1] for T in tangents])
        return sum(
            evaluate(vec[0], x) * np.linalg.det(w[:, list(idx)]) * np.ones(1)
            for idx, vec in zip(tuples, beta)
        )

    D = d_nabla_s(gpd, MultForm(gpd, degree, pullback), conn)
    rng = np.random.default_rng(15)
    for _ in range(4):
        g, x = gpd.sample_arrow(rng)
        for idx in itertools.combinations(range(m), degree + 1):
            got = D(g, x, *(_stock(gpd, mu) for mu in idx))
            if idx[0] < d:
                assert np.all(got == 0.0)
            else:
                chart = tuple(mu - d for mu in idx)
                exact = evaluate(want[list(itertools.combinations(range(3), degree + 1)).index(chart)][0], x)
                assert abs(got[0] - exact) <= 1e-7


def test_d_nabla_s_refuses_degree_three():
    gpd = so3_radial_groupoid()
    conn = gpd.induced_connection()
    three = MultForm(gpd, 3, lambda g, x, *tangents: np.zeros(1))
    for D in (d_nabla_s, covariant_exterior_D):
        with pytest.raises(ValueError, match="degree 3"):
            D(gpd, three, conn)


@pytest.mark.parametrize("model", ["so2", "so3"])
def test_operator_values_match_the_unshared_flow_stencil(model):
    gpd = so2_groupoid() if model == "so2" else so3_radial_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    # A form that does not vanish on chart tangents, so that the values
    # pushed through the flow are not all zero.
    form = _tilted(gpd, alpha)
    nform = differentiate_to_im(gpd, form)
    points = list(SamplePlan(seed=10, samples=20).points(gpd.chart, 5))
    points.insert(1, points[0])  # a cached flow derivative
    points.append(np.nextafter(points[0], np.inf))
    d, n = gpd.group.dim, gpd.chart.dim
    for p in points:
        for a in range(d):
            for i in range(n):
                assert _same_bits(nform.op_map.value(p)[a, i], _ref_op_value(gpd, form, a, i, p))


@pytest.mark.parametrize("model", ["so2", "so3"])
def test_complex_step_matches_the_flow_stencil(model, monkeypatch):
    # On a form whose operator values do not vanish, the complex step
    # agrees with the four-point stencil it replaced, to the stencil's
    # truncation error; and a step 1e10 times smaller moves no value by
    # more than rounding.
    from algebroids import groupoid

    gpd = so2_groupoid() if model == "so2" else so3_radial_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    form = _tilted(gpd, alpha)
    nform = differentiate_to_im(gpd, form)
    monkeypatch.setattr(groupoid, "_COMPLEX_STEP", 1e-30)
    tiny = differentiate_to_im(gpd, form)
    points = SamplePlan(seed=10, samples=20).points(gpd.chart, 4)
    d, n = gpd.group.dim, gpd.chart.dim
    scale = 0.0
    for p in points:
        for a in range(d):
            for i in range(n):
                got = nform.op_map.value(p)[a, i]
                want = _ref_op_value(gpd, form, a, i, p, L_const=_stencil_L_const)
                assert np.abs(got - want).max() <= 1e-9
                assert np.abs(tiny.op_map.value(p)[a, i] - got).max() <= 1e-14 * np.abs(got).max()
                scale = max(scale, np.abs(got).max())
    assert scale > 0.5


def test_differentiate_to_im_keeps_the_imaginary_part():
    # A complex value cast to float would zero every flow derivative
    # silently; numpy's ComplexWarning marks each such cast, and none
    # happens on the way to the operator values and their partials.
    import warnings

    gpd = so3_radial_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    p = np.array([0.7, 0.1, -0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        nform = differentiate_to_im(gpd, _tilted(gpd, alpha))
        values = [nform.op_map.value(p)[a, i] for a in range(3) for i in range(3)]
        assert np.abs(values).max() > 0.5
        for a in range(3):
            nform.op_map.partials(p)[1, a, 0]
        # A form that drops the imaginary part is caught.
        real_only = MultForm(gpd, 1, lambda g, x, T: np.asarray(alpha(g, x, T), dtype=float))
        with pytest.raises(np.exceptions.ComplexWarning):
            differentiate_to_im(gpd, real_only).op_map.value(p)[0, 0]


def test_flow_derivatives_are_cached_by_exact_point():
    # Points one ulp apart get a flow derivative each; the same point
    # twice gets one.
    gpd = so3_radial_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    nform = differentiate_to_im(gpd, alpha)
    calls = []
    jac_x = gpd.act_jac_x
    gpd.act_jac_x = lambda g, x: calls.append(1) or jac_x(g, x)
    p = np.array([0.7, 0.1, -0.2])
    nform.op_map.value(p)[0, 0]
    once = len(calls)
    assert once > 0
    nform.op_map.value(p.copy())[0, 0]
    assert len(calls) == once
    # Another entry is a slice of the same read.
    nform.op_map.value(p)[0, 1]
    assert len(calls) == once
    nform.op_map.value(np.nextafter(p, np.inf))[0, 0]
    assert len(calls) == 2 * once


def test_groupoid_verify_exponentiates_each_flow_once(monkeypatch):
    # Each stencil's flows exp(+-h U) are computed once per form, not
    # once per move: the sampled group elements account for most calls.
    import contextlib
    import io
    from pathlib import Path

    from algebroids import groupoid
    from algebroids.cli import run

    calls = []
    expm = groupoid.expm
    monkeypatch.setattr(groupoid, "expm", lambda a: calls.append(1) or expm(a))
    model = Path(__file__).resolve().parent.parent / "models" / "so3_radial_groupoid.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["groupoid-verify", "--model", str(model), "--samples", "4", "--json"])
    assert code == 0
    assert 0 < len(calls) < 1000


def test_lie_functor_evaluates_each_sampled_entry_once_per_point(monkeypatch):
    # lie-functor on so3 at seed 42 and 4 samples: the symbol and the
    # operator are one sampled map each, whose evaluator gives every
    # entry at a point, and each runs once per distinct point: 134 and
    # 234 times.  Stored per entry, the maps ran the entry evaluators
    # 342 and 2,178 times (3,318 and 4,830 without a memo), under the
    # bounds 400 and 2,200 runs of one entry; a run here evaluates the
    # 3 entries of the symbol and the 9 of the operator.
    # The flow steps (one act_jac_x each) are not moved by the memo.
    import contextlib
    import io
    from pathlib import Path

    from algebroids import groupoid
    from algebroids.cli import run

    counts = {"sym": 0, "op": 0, "flow": 0}
    sym_points, op_points = set(), set()
    numeric = groupoid.NumericIMOneForm

    def counted(A, ideal, sym_fn, op_fn, fd_step):
        def sym(x):
            counts["sym"] += 1
            sym_points.add(x.tobytes())
            return sym_fn(x)

        def op(x):
            counts["op"] += 1
            op_points.add(x.tobytes())
            return op_fn(x)

        return numeric(A, ideal, sym, op, fd_step=fd_step)

    jac_x = ActionGroupoid.act_jac_x

    def flow_step(self, g, x):
        counts["flow"] += 1
        return jac_x(self, g, x)

    # Runs of the frame map, whose row a is the column P_a, recorded by
    # (map, exact x).
    frames, frame_runs = [], []
    algebroid = ActionGroupoid.action_algebroid

    def action_algebroid(self):
        out = algebroid(self)
        P = out[2]
        frames.append([[id(row[a]) for row in P] for a in range(len(P))])
        return out

    class CountedFrame(groupoid.PointMap):
        @classmethod
        def exact(cls, entries):
            pm = super().exact(entries)
            rows = entries if isinstance(entries[0], list) else []
            if [[id(x) for x in row] for row in rows] not in frames:
                return pm

            def value(x):
                frame_runs.append((id(pm), np.asarray(x, dtype=float).tobytes()))
                return pm.value(x)

            return groupoid.PointMap(value, pm.partials, pm.exprs)

    monkeypatch.setattr(groupoid, "NumericIMOneForm", counted)
    monkeypatch.setattr(ActionGroupoid, "act_jac_x", flow_step)
    monkeypatch.setattr(ActionGroupoid, "action_algebroid", action_algebroid)
    monkeypatch.setattr(groupoid, "PointMap", CountedFrame)
    model = Path(__file__).resolve().parent.parent / "models" / "so3_radial_groupoid.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["lie-functor", "--model", str(model), "--samples", "4", "--json"])
    assert code == 0
    assert 0 < counts["sym"] == len(sym_points) <= 134
    assert 0 < counts["op"] == len(op_points) <= 2200 // 9
    assert 0 < counts["flow"] <= 2808
    # At most one run of the frame per distinct x, against one per
    # (frame element, direction) when the operator read P_a(x) per entry.
    assert 0 < len(frame_runs) == len(set(frame_runs))


def test_splitting_memo_is_bounded_and_exact(monkeypatch):
    # The connection form evaluates the splitting once per point while
    # its memo holds the point; the memo fills to its bound and never
    # exceeds it, and every value is that of the splitting evaluated
    # afresh.
    from algebroids import groupoid
    from algebroids.bundles import PointMap
    from algebroids.groupoid import _SPLITTING_MEMO_ENTRIES as bound

    runs = []

    class CountedSplitting(PointMap):
        @classmethod
        def exact(cls, entries):
            value = PointMap.exact(entries).value
            return PointMap(lambda p: runs.append(1) or value(p))

    gpd = so3_radial_groupoid()
    monkeypatch.setattr(groupoid, "PointMap", CountedSplitting)
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    l_val = PointMap.exact(gpd.splitting).value
    rng = np.random.default_rng(13)
    arrows = [gpd.sample_arrow(rng) for _ in range(3 * bound)]

    def runs_of(g, x):
        T = gpd.sample_tangent(rng)
        want = l_val(x) @ T[0]
        before = len(runs)
        assert _same_bits(alpha(g, x, T), want)
        return len(runs) - before

    first = arrows[:bound]
    assert [runs_of(g, x) for g, x in first for _ in range(2)] == [1, 0] * bound
    # The memo holds `bound` points ...
    assert [runs_of(g, x) for g, x in first] == [0] * bound
    # ... and no more: the next point drops the oldest, and each read
    # of them again in order drops the one after it.
    assert runs_of(*arrows[bound]) == 1
    assert [runs_of(g, x) for g, x in first] == [1] * bound
    rest = arrows[bound + 1 :]
    assert [runs_of(g, x) for g, x in rest for _ in range(2)] == [1, 0] * len(rest)


def test_a_three_form_on_two_stock_fields_is_the_fiber_zero():
    # so2 on the line has m = 2 stock fields and no triple of them, so
    # the covariant derivative of a 2-form is zero, of the fiber's length.
    gpd = so2_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, alpha, conn)
    DOm = covariant_exterior_D(gpd, Om, conn, alpha=alpha, step=2e-4)
    rng = np.random.default_rng(3)
    g, x = gpd.sample_arrow(rng)
    out = DOm(g, x, *(gpd.sample_tangent(rng) for _ in range(3)))
    assert out.shape == (gpd.k,) and not out.any()
