"""Tests for the model constructors: every family's output passes its
checker suite; defective parameters are refused."""

import numpy as np
import pytest

from algebroids.algebroid import (
    ConstructionRefused,
    LieAlgebroid,
    canonical_representation,
    check_axioms,
)
from algebroids import factory
from algebroids.bundles import (
    Bundle,
    CoeffForm,
    FiberBracket,
    LinearConnection,
    PointMap,
    curvature_tensor,
    exterior_covariant_derivative,
)
from algebroids.expr import Chart, ZERO, ONE, coord, evaluate, fold, neg, parse
from algebroids.factory import (
    ExampleSpec,
    ExampleModel,
    make_example,
    so3_basis,
    so3_constants,
    transitive_im_connection,
)
from algebroids.imforms import (
    center_basis,
    check_im_form,
    check_structure_equations,
    classify_flatness,
    coupling_to_im,
    extract_coupling,
)
from algebroids.sampling import SamplePlan, random_polynomial, sup

PLAN = SamplePlan(seed=42, samples=60)


def test_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        ExampleSpec("nonsense")


def test_so3_basis_matches_constants():
    eps = so3_constants()
    basis = so3_basis()
    for a in range(3):
        for b in range(3):
            comm = basis[a] @ basis[b] - basis[b] @ basis[a]
            want = sum(eps[a, b, c] * basis[c] for c in range(3))
            assert np.max(np.abs(comm - want)) < 1e-14


def test_product_rank_and_flatness(product_model):
    m = product_model
    assert m.algebroid.rank == 5
    classes, _ = classify_flatness(m.coupling, PLAN.fork("cl"))
    assert classes == {"totally", "leafwise", "kernel"}


@pytest.mark.parametrize(
    "name,params",
    [
        ("product", {"dim": 2, "algebra": "so3"}),
        ("lie_algebra_bundle", {"dim": 2}),
        ("principal_type", {"dim": 2}),
        ("principal_type_flat", {"dim": 2}),
        ("rank_one", {"dim": 2, "U1": [["0", "1"], ["-1", "0"]]}),
        # On a line, where the default theta cannot be read, a given one is.
        ("principal_type", {"dim": 1, "theta": [["x1", "0", "0"]]}),
    ],
)
def test_families_pass_suites(name, params):
    plan = SamplePlan(seed=42, samples=60)
    m = make_example(ExampleSpec(name, params), plan)
    assert check_axioms(m.algebroid, m.ideal, plan.fork("ax")).passed
    rep = canonical_representation(m.algebroid, m.ideal)
    assert check_im_form(m.im_form, rep, plan.fork("im")).passed
    variant = "S1'S3'" if name == "principal_type_flat" else "S1S3"
    assert check_structure_equations(
        m.coupling, variant=variant, plan=plan.fork("se")
    ).passed


def test_action_radial_suite(radial_model, radial_form):
    plan = SamplePlan(seed=42, samples=60)
    m = radial_model
    assert check_axioms(m.algebroid, m.ideal, plan.fork("ax")).passed
    rep = canonical_representation(m.algebroid, m.ideal)
    assert check_im_form(radial_form, rep, plan.fork("im")).passed
    cd = extract_coupling(m.algebroid, m.ideal, radial_form, plan.fork("ext"), check=False)
    assert check_structure_equations(cd, plan=plan.fork("se")).passed


def test_transitive_family_and_uniqueness():
    plan = SamplePlan(seed=42, samples=60)
    m = make_example(
        ExampleSpec("transitive", {"dim": 2, "fiber": "abelian", "omega": [["1"]]}),
        plan,
    )
    form = transitive_im_connection(m.algebroid, m.tau, plan.fork("tau"))
    rep = canonical_representation(m.algebroid, m.ideal)
    out = check_im_form(form, rep, plan.fork("im"))
    assert out.passed and out.extra["connection_predicate"]
    # Uniqueness of the symbol: rebuilding the form from its own
    # coupling reproduces the frame values.
    cd = extract_coupling(m.algebroid, m.ideal, form, plan.fork("ext"), check=False)
    form2 = coupling_to_im(cd, plan=plan.fork("c2i"), check=False)
    worst = 0.0
    for p in plan.points(m.algebroid.chart, 20):
        for a in range(m.algebroid.rank):
            for i in range(2):
                worst = max(
                    worst,
                    float(
                        np.max(
                            np.abs(
                                form.op_map.value(p)[a, i] - form2.op_map.value(p)[a, i]
                            )
                        )
                    ),
                )
    assert worst < 1e-9
    # The coupling contracts the twist with the anchor.
    for p in plan.points(m.algebroid.chart, 8):
        assert abs(cd.u_map.value(p)[0, 1, 0] - 1.0) < 1e-12


def test_transitive_tm_trivial_isotropy():
    # A transitive algebroid with one-dimensional abelian isotropy and
    # no twist: the connection form has vanishing frame values.
    plan = SamplePlan(seed=42, samples=60)
    m = make_example(ExampleSpec("transitive", {"dim": 2, "fiber": "abelian"}), plan)
    form = transitive_im_connection(m.algebroid, m.tau, plan.fork("tau"))
    for fv in form.frame_values:
        assert fv.is_structurally_zero()


def test_transitive_rejects_bad_splitting():
    plan = SamplePlan(seed=42, samples=60)
    m = make_example(ExampleSpec("transitive", {"dim": 2, "fiber": "abelian"}), plan)
    tau = [row[:] for row in m.tau]
    tau[2][0] = ONE  # no longer a right inverse of the anchor
    with pytest.raises(ConstructionRefused):
        transitive_im_connection(m.algebroid, tau, plan.fork("tau"))


def test_principal_type_rejects_wrong_twist():
    plan = SamplePlan(seed=42, samples=60)
    with pytest.raises(ConstructionRefused):
        make_example(
            ExampleSpec(
                "principal_type",
                {"dim": 2, "omega": [["1", "0", "0"]]},  # curvature of theta differs
            ),
            plan,
        )


def test_rank_one_skew_guard():
    with pytest.raises(ValueError):
        make_example(
            ExampleSpec("rank_one", {"dim": 2, "U1": [["x1", "1"], ["-1", "0"]]}),
            SamplePlan(seed=1, samples=30),
        )
    m = make_example(
        ExampleSpec(
            "rank_one",
            {"dim": 2, "U1": [["x1", "1"], ["-1", "0"]], "verify_skew": False},
        ),
        SamplePlan(seed=1, samples=30),
    )
    assert m.coupling.skew_residual(SamplePlan(seed=2, samples=30)) > 1e-3


def test_factory_rejects_unknown_params():
    with pytest.raises(ValueError):
        make_example(ExampleSpec("product", {"bogus": 1}), PLAN)


# The transitive algebroid as it was built before it became the tangent
# coupling's semidirect: the fiber bracket, the Christoffel symbols on
# (base, fiber) pairs and the twist on base pairs, each written into the
# structure tensor by hand. It stays here as an unshared reference.
def _ref_transitive_algebroid(fiber, nabla, Omega):
    chart = fiber.bundle.chart
    n, k = chart.dim, fiber.bundle.rank
    r = k + n
    anchor = [[ZERO] * k + [ONE if i == a else ZERO for a in range(n)] for i in range(n)]
    structure = [[[ZERO] * r for _ in range(r)] for _ in range(r)]
    for c in range(k):
        for d in range(k):
            for e in range(k):
                structure[c][d][e] = fiber.c[c][d][e]
    for i in range(n):
        for c in range(k):
            vec = [nabla.christoffel[i][e][c] for e in range(k)]
            for e in range(k):
                structure[k + i][c][e] = vec[e]
                structure[c][k + i][e] = fold(neg(vec[e]))
    for i in range(n):
        for j in range(i + 1, n):
            for e in range(k):
                structure[k + i][k + j][e] = Omega[i][j][e]
                structure[k + j][k + i][e] = fold(neg(Omega[i][j][e]))
    return LieAlgebroid(Bundle(chart, r), anchor, structure)


@pytest.mark.parametrize(
    "params",
    [
        {},
        {"fiber": "so3", "theta": [["x2", "0", "0"], ["0", "0", "0"]]},
        {"fiber": "so3", "theta": [["x2", "x1", "0"], ["0", "0", "x1*x2"]]},
        {"fiber_rank": 2, "omega": [["1", "x1*x2"]]},
        {"dim": 3, "omega": [["x3"], ["0"], ["-x1"]]},
    ],
)
def test_transitive_algebroid_matches_its_hand_built_tensor(params):
    m = make_example(ExampleSpec("transitive", dict(params)), PLAN)
    dim = params.get("dim", 2)
    chart = Chart(dim)
    fiber = factory._fiber_from_name(chart, params.get("fiber", "abelian"), rank=params.get("fiber_rank"))
    k = fiber.bundle.rank
    theta = [[ZERO] * k for _ in range(dim)]
    if "theta" in params:
        theta = factory._parse_array(params["theta"], chart, (dim, k), "theta")
    nabla = factory._ad_connection(fiber, theta)
    if "omega" in params:
        Omega = factory._parse_two_form(params["omega"], chart, k)
    else:
        Omega = factory._curvature_of_theta(fiber, theta)
    ref = _ref_transitive_algebroid(fiber, nabla, Omega)
    assert m.algebroid.anchor == ref.anchor
    assert m.algebroid.structure == ref.structure
    assert m.ideal.k == k and m.coupling.k == k
    if params:
        # Each case puts a term into the connection block or the twist
        # block of the tensor.
        blocks = [ref.structure[k + i][c] for i in range(dim) for c in range(k)]
        blocks += [ref.structure[k + i][k + j] for i in range(dim) for j in range(dim)]
        assert any(x != ZERO for vec in blocks for x in vec)


def _assert_close(got, want):
    """Equal to 1e-12 relative or, near zero, 1e-15 absolute.  Where the
    reference is rounding noise (below 1e-13), the residual must be too:
    the two sum their terms in different orders."""
    if want < 1e-13:
        assert got < 1e-13, (got, want)
    else:
        assert abs(got - want) <= 1e-12 * abs(want) or abs(got - want) <= 1e-15, (got, want)


def _ref_sup(m, pts, f=lambda v, p: v):
    return sup(*(f(m.value(p), p) for p in pts))


def _two_form_comps(Omega, n):
    return {(i, j): list(Omega[i][j]) for i in range(n) for j in range(i + 1, n)}


# The twist preconditions as they were written before they became
# contractions of stacked reads: the curvature from curvature_tensor less
# the adjoint of the twist point by point (ad_defect), the symbolic
# covariant exterior derivative of the twist, and its part off the
# center through center_basis point by point (off_center). They stay
# here as unshared references, reading the points the checks read.
def _ref_twist_residuals(fiber, nabla, Omega, plan):
    chart = fiber.bundle.chart
    n = chart.dim
    R = {ij: PointMap.exact(M) for ij, M in curvature_tensor(nabla).items()}
    Om = {ij: PointMap.exact(Omega[ij[0]][ij[1]]) for ij in R}
    ad = []
    for p in plan.points(chart, 25):
        cvals = fiber.c_map.value(p)
        for ij in R:
            ad.append(R[ij].value(p) - np.einsum("f,fce->ce", Om[ij].value(p), cvals).T)
    closed = 0.0
    if n >= 3:
        dOm = exterior_covariant_derivative(nabla, CoeffForm(fiber.bundle, 2, _two_form_comps(Omega, n)))
        closed = _ref_sup(PointMap.exact(list(dOm.comps.values())), plan.points(chart, 25))
    return {"curvature_equals_ad_of_twist": sup(*ad), "twist_covariantly_closed": closed}


def _random_twist(chart, k, rng):
    n = chart.dim
    Omega = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            Omega[i][j] = [random_polynomial(chart, rng) for _ in range(k)]
            Omega[j][i] = [fold(neg(x)) for x in Omega[i][j]]
    return Omega


@pytest.mark.parametrize("dim", [2, 3])
def test_twist_preconditions_match_their_reference(dim):
    # The so3 fiber with a random connection and a random twist: the
    # Christoffel matrices do not commute, so every term of the curvature,
    # of its adjoint defect and of the covariant exterior derivative
    # reaches the residuals.
    chart = Chart(dim)
    fiber = FiberBracket.from_constants(Bundle(chart, 3), so3_constants())
    rng = np.random.default_rng(13)
    nabla = LinearConnection(
        fiber.bundle, [[[random_polynomial(chart, rng) for _ in range(3)] for _ in range(3)] for _ in range(dim)]
    )
    Omega = _random_twist(chart, 3, rng)
    with pytest.raises(ConstructionRefused) as ei:
        factory._require_curvature_is_ad(fiber, nabla, Omega, SamplePlan(seed=42, samples=60))
    want = _ref_twist_residuals(fiber, nabla, Omega, SamplePlan(seed=42, samples=60))
    got = {c.name: c.max_residual for c in ei.value.report.checks}
    assert list(got) == list(want)
    for name, w in want.items():
        _assert_close(got[name], w)
    assert want["curvature_equals_ad_of_twist"] > 1e-2
    assert (want["twist_covariantly_closed"] > 1e-2) == (dim == 3)


def test_twist_of_its_own_connection_passes_its_reference():
    # d + ad(theta) with its own curvature as the twist, on a 3-dimensional
    # chart: both residuals are rounding noise and the twist is accepted.
    chart = Chart(3)
    fiber = FiberBracket.from_constants(Bundle(chart, 3), so3_constants())
    rng = np.random.default_rng(17)
    theta = [[random_polynomial(chart, rng) for _ in range(3)] for _ in range(3)]
    nabla = factory._ad_connection(fiber, theta)
    Omega = factory._curvature_of_theta(fiber, theta)
    factory._require_curvature_is_ad(fiber, nabla, Omega, SamplePlan(seed=42, samples=60))
    want = _ref_twist_residuals(fiber, nabla, Omega, SamplePlan(seed=42, samples=60))
    assert max(want.values()) < 1e-8


def test_kernel_flat_preconditions_match_their_reference():
    # so3 plus a center, with a scalar connection form that is not closed
    # and a twist that is neither central nor closed: all three
    # preconditions fail, each with every term reaching its residual.
    theta = ["x1*x2 + x3", "x1 - x3^2", "x2*x3 + 0.5*x1"]
    omega = [["x2", "1", "x1*x3", "x3"], ["x3", "0", "x1", "x1*x2"], ["0", "x2^2", "1", "x1 + x2"]]
    plan = SamplePlan(seed=42, samples=60)
    with pytest.raises(ConstructionRefused) as ei:
        make_example(
            ExampleSpec("principal_type_flat", {"dim": 3, "fiber": "so3_center", "theta": theta, "omega": omega}),
            plan,
        )
    chart = Chart(3)
    fiber = factory._fiber_from_name(chart, "so3_center")
    th = [parse(t, chart) for t in theta]
    nablaL = LinearConnection(fiber.bundle, [[[t if a == b else ZERO for b in range(4)] for a in range(4)] for t in th])
    Om = _two_form_comps(factory._parse_two_form(omega, chart, 4), 3)
    plan = SamplePlan(seed=42, samples=60)
    flat = _ref_sup(PointMap.exact(list(curvature_tensor(nablaL).values())), plan.fork("flat").points(chart, 64))
    Om_map = PointMap.exact(list(CoeffForm(fiber.bundle, 2, Om).comps.values()))

    def off_center(v, p):
        Z = center_basis(fiber, p)
        proj = Z @ Z.T
        return np.array([x - proj @ x for x in v])

    off = _ref_sup(Om_map, plan.points(chart, 25), off_center)
    dOm = exterior_covariant_derivative(nablaL, CoeffForm(fiber.bundle, 2, Om))
    closed = _ref_sup(PointMap.exact(list(dOm.comps.values())), plan.points(chart, 25))
    want = {"fiber_connection_flat": flat, "twist_center_valued": off, "twist_covariantly_closed": closed}
    got = {c.name: c.max_residual for c in ei.value.report.checks}
    assert list(got) == list(want)
    for name, w in want.items():
        _assert_close(got[name], w)
        assert w > 1e-2
