"""Tests for the numeric action-groupoid harness and its cross-
validation against the symbolic side."""

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
    delta_of_function,
    differentiate_to_im,
    numeric_extract_coupling,
    simplicial_delta,
)
from algebroids.imforms import check_im_form, check_structure_equations
from algebroids.sampling import SamplePlan


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


def test_matrix_group_rejects_nonclosed_basis():
    # Raising and lowering operators bracket to a diagonal outside
    # their span.
    bad = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])]
    with pytest.raises(ValueError):
        MatrixGroup(2, bad)


def test_groupoid_invariants():
    for gpd in (so2_groupoid(), so3_radial_groupoid()):
        assert gpd.verify(SamplePlan(seed=1, samples=80)).passed


def test_connection_so2_maurer_cartan():
    gpd = so2_groupoid()
    plan = SamplePlan(seed=42, samples=40)
    alpha = connection_from_splitting(gpd, plan=plan)
    rng = np.random.default_rng(2)
    g = gpd.group.random_element(rng)
    out = alpha(g, [0.1], (g @ gpd.group.to_matrix(np.array([0.45])), np.zeros(1)))
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

    def pair_tangent(g1, g2):
        xi1 = g1 @ gpd.group.to_matrix(rng.uniform(-1, 1, 3))
        xi2 = g2 @ gpd.group.to_matrix(rng.uniform(-1, 1, 3))
        w = rng.uniform(-1, 1, 3)
        return (xi1, xi2, w)

    worst = 0.0
    for _ in range(100):
        g1, x = gpd.sample_arrow(rng)
        g2, _ = gpd.sample_arrow(rng)
        worst = max(worst, float(np.max(np.abs(d_alpha(g1, g2, x, pair_tangent(g1, g2))))))
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
        worst = max(worst, float(np.max(np.abs(d_pert(g1, g2, x, pair_tangent(g1, g2))))))
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
            T1 = gpd.sample_tangent(g, rng)
            T2 = gpd.sample_tangent(g, rng)
            assert np.max(np.abs(Om(g, x, T1, T2))) < 1e-9


def test_curvature_antisymmetry_so3():
    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=30)
    alpha = connection_from_splitting(gpd, plan=plan)
    conn = gpd.induced_connection()
    Om = covariant_exterior_D(gpd, alpha, conn)
    assert Om.antisymmetry_residual(SamplePlan(seed=4, samples=20), 10) < 1e-8


def test_antisymmetry_residual_needs_degree_two():
    # A degree-1 form has no antisymmetry to measure: asking for it must
    # not return a residual of 0.0 that was never computed.
    gpd = so2_groupoid()
    alpha = connection_from_splitting(gpd, plan=SamplePlan(seed=42, samples=20))
    with pytest.raises(ValueError, match="degree 2"):
        alpha.antisymmetry_residual(SamplePlan(seed=4, samples=20))


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
            T1 = gpd.sample_tangent(g, rng)
            T2 = gpd.sample_tangent(g, rng)
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
    T1 = gpd.sample_tangent(g, np.random.default_rng(2))
    T2 = gpd.sample_tangent(g, np.random.default_rng(3))
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


def test_flow_region_guard():
    # With a razor-thin padding the rotation flow leaves the allowed
    # region immediately.
    from algebroids.groupoid import FlowRegionError

    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=20)
    alpha = connection_from_splitting(gpd, plan=plan)
    nform = differentiate_to_im(gpd, alpha, region_pad=1e-6)
    with pytest.raises(FlowRegionError):
        # A point at the edge: the rotation flow exits immediately.
        nform.op_value(0, (0,), np.array([0.41, 0.7999, 0.7999]))


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
    nform = differentiate_to_im(gpd, alpha, plan.fork("d"))
    # Product shape: symbol is the identity, operator values vanish.
    for p in plan.points(gpd.chart, 10):
        assert abs(nform.sym_value(0, (), p)[0] - 1.0) < 1e-9
        assert abs(nform.op_value(0, (0,), p)[0]) < 1e-8
    A, ideal, _ = gpd.action_algebroid()
    rep = canonical_representation(A, ideal)
    out = check_im_form(nform, rep, SamplePlan(seed=5, samples=40), tol=1e-6)
    assert out.passed and out.extra["connection_predicate"]


def test_differentiate_to_im_so3(radial_model):
    gpd = so3_radial_groupoid()
    plan = SamplePlan(seed=42, samples=50)
    alpha = connection_from_splitting(gpd, plan=plan.fork("c"))
    nform = differentiate_to_im(gpd, alpha, plan.fork("d"))
    A, ideal, P = gpd.action_algebroid()

    # Recovered symbol equals the supplied splitting on the adapted frame.
    worst = 0.0
    for p in plan.points(gpd.chart, 12):
        for a in range(3):
            want = sum(
                evaluate(gpd.splitting[0][b], p) * evaluate(P[b][a], p)
                for b in range(3)
            )
            worst = max(worst, abs(nform.sym_value(a, (), p)[0] - want))
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
                                nform.op_value(a, (i,), p)
                                - sym_form.frame_values[a].value((i,), p)
                            )
                        )
                    ),
                )
    assert worst < 1e-6
