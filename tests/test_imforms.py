"""Tests for connection form pairs, couplings, structure equations,
semidirect rebuilds, curvature, flatness classes, the covariant
differential and the cochain map."""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from algebroids.algebroid import (
    IdealBundle,
    LieAlgebroid,
    _Jets,
    canonical_representation,
    check_axioms,
    tangent_algebroid,
)
from algebroids.bundles import (
    Bundle,
    FiberBracket,
    LinearConnection,
    PointMap,
    alternating_array,
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
    fold,
    mul,
    neg,
    parse,
)
from algebroids.factory import ExampleSpec, make_example
from algebroids.imforms import (
    CenterDegeneracyError,
    CouplingData,
    IMOneForm,
    IMTwoForm,
    NumericCouplingData,
    NumericIMOneForm,
    SAMPLED_MEMO_ENTRIES,
    _center_residual_of_u,
    _form_reads,
    _on_section,
    build_semidirect,
    center_basis,
    check_im_form,
    check_structure_equations,
    classify_flatness,
    coupling_to_im,
    curvature_im,
    extract_coupling,
    fd_partial,
    kernel_flat_two_form,
    sampled_map,
)
from algebroids.modelio import load_model
from algebroids.sampling import SamplePlan, polynomial_draws, sup
from reference import chain_map, cochain_differential, d_im, form_difference, form_sum, l_of, polynomial, random_section

CH2 = Chart(2)
MODELS = Path(__file__).resolve().parent.parent / "models"


def rank_one_coupling(dim=2, theta=None, U1=None, verify_skew=True):
    ch = Chart(dim)
    B = tangent_algebroid(ch)
    fiber = FiberBracket.abelian(Bundle(ch, 1))
    th = theta or [ZERO] * dim
    nablaL = LinearConnection(fiber.bundle, [[[t]] for t in th])
    if U1 is None:
        U1 = [[ZERO] * dim for _ in range(dim)]
    U = [[[U1[a][i]] for i in range(dim)] for a in range(dim)]
    return CouplingData(B, fiber, nablaL, U, verify_skew=verify_skew)


def omega_constant_coupling(c=1.0):
    """Central extension of the plane by a constant area form."""
    return rank_one_coupling(
        2, U1=[[ZERO, const(c)], [const(-c), ZERO]]
    )


# -- check_im_form ---------------------------------------------------------

def test_product_form_passes(product_model):
    m = product_model
    rep = canonical_representation(m.algebroid, m.ideal)
    out = check_im_form(m.im_form, rep, SamplePlan(seed=3, samples=60))
    assert out.passed
    assert out.extra["connection_predicate"] is True


def test_zero_form_passes_but_not_connection(product_model):
    m = product_model
    A, ideal = m.algebroid, m.ideal
    rep = canonical_representation(A, ideal)
    k, r = ideal.k, A.rank
    zform = IMOneForm(
        A,
        ideal,
        [[ZERO] * r for _ in range(k)],
        [[[ZERO] * k for _ in range(A.chart.dim)] for _ in range(r)],
    )
    out = check_im_form(zform, rep, SamplePlan(seed=3, samples=60))
    assert out.passed
    assert out.extra["connection_predicate"] is False


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda frames: [frames[0][:-1], *frames[1:]], id="short_block"),
        # Two blocks of five vectors hold the 30 entries of five blocks
        # of two: a reshape alone would take them in the wrong order.
        pytest.param(lambda frames: [list(col) for col in zip(*frames)], id="transposed"),
    ],
)
def test_a_frame_value_block_of_the_wrong_shape_is_refused_by_its_shape(product_model, edit):
    m = product_model
    frames = edit([list(block) for block in m.im_form.op_map.exprs])
    with pytest.raises(ValueError, match=r"frame values must have shape \(5, 2, 3\)"):
        IMOneForm(m.algebroid, m.ideal, [list(r) for r in m.im_form.l], frames)


def test_perturbed_form_fails_identity_3(product_model):
    m = product_model
    A, ideal = m.algebroid, m.ideal
    rep = canonical_representation(A, ideal)
    frames = list(m.im_form.op_map.exprs)
    k = ideal.k
    # Add x1 dx1 (x) e_1 to a base frame value: breaks the third identity.
    pert = [[coord(0) if (i, c) == (0, 0) else ZERO for c in range(k)] for i in range(A.chart.dim)]
    frames[k] = form_sum(frames[k], pert)
    bad = IMOneForm(A, ideal, [list(r) for r in m.im_form.l], frames)
    out = check_im_form(bad, rep, SamplePlan(seed=3, samples=60))
    id3 = next(c for c in out.checks if c.name == "im_identity_3")
    assert id3.max_residual > 1e-3


def test_verify_im_reads_each_form_entry_once_per_point(monkeypatch):
    # verify-im on product_so3 at seed 42 and 200 samples: each of the
    # form's two maps (symbol and operator) is read whole, its values
    # and its partials once per point, which the three sections at a
    # point share; read per entry and section term they were 70,000.
    import contextlib
    import io

    from algebroids.cli import run
    from algebroids.imforms import _IMFormBase

    bind = _IMFormBase._bind
    reads = []

    def counted(self, m, kind):
        read = getattr(m, kind)

        def spy(p):
            reads.append((id(self), id(m), kind, np.asarray(p, dtype=float).tobytes()))
            return read(p)

        return spy

    def spied(self, algebroid, value, sym_map, op_map):
        sym_map, op_map = (
            PointMap(counted(self, m, "value"), counted(self, m, "partials"), m.exprs)
            for m in (sym_map, op_map)
        )
        bind(self, algebroid, value, sym_map, op_map)

    monkeypatch.setattr(_IMFormBase, "_bind", spied)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["verify-im", "--model", str(MODELS / "product_so3.json"), "--json"])
    assert code == 0
    calls, distinct = len(reads), len(set(reads))
    assert 0 < calls == distinct


def test_verify_im_runs_one_tape_per_form_map_and_point(monkeypatch):
    # verify-im on product_so3 at seed 42 and 200 samples: the form is
    # two point maps, so each point of a draw runs four tapes of the
    # form, once each: the symbol's and the operator's values, and
    # their partials along every direction.  Stored per (frame element,
    # index tuple), with one partial tape per direction, the form ran
    # dozens of tapes at each point.
    import contextlib
    import io
    import sys

    from algebroids import bundles
    from algebroids.cli import run

    compile_tape, evaluate = bundles.compile_tape, bundles.evaluate
    form_tapes, runs = {}, []

    def compiled(exprs):
        tape = compile_tape(exprs)
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != "_form_reads":
            frame = frame.f_back
        if frame is not None:
            form_tapes[id(tape)] = tape
        return tape

    def evaluated(tape, p):
        if id(tape) in form_tapes:
            runs.append((id(tape), np.asarray(p).tobytes()))
        return evaluate(tape, p)

    monkeypatch.setattr(bundles, "compile_tape", compiled)
    monkeypatch.setattr(bundles, "evaluate", evaluated)
    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["verify-im", "--model", str(MODELS / "product_so3.json"), "--json"])
    assert code == 0
    points = {p for _, p in runs}
    assert len(form_tapes) == 4
    assert len(points) > 100
    assert len(runs) == len(set(runs)) == 4 * len(points)


# -- extract / rebuild -----------------------------------------------------

def test_extract_product_trivial(product_model):
    m = product_model
    plan = SamplePlan(seed=5, samples=50)
    rep = canonical_representation(m.algebroid, m.ideal)
    assert check_im_form(m.im_form, rep, plan.fork("imcheck")).passed
    cd = extract_coupling(m.algebroid, m.ideal, m.im_form, plan)
    for i in range(2):
        assert all(x == ZERO for row in cd.nablaL.christoffel[i] for x in row)
        for a in range(cd.base.rank):
            assert all(x == ZERO for x in cd.U[a][i])


def test_extract_principal_type_reproduces_data():
    # Transitive route: the connection form of the anchor splitting on
    # the twisted transitive carrier must extract to the defining
    # connection and twist contraction.
    from algebroids.factory import transitive_im_connection

    plan = SamplePlan(seed=7, samples=50)
    m = make_example(
        ExampleSpec("transitive", {"dim": 2, "fiber": "so3", "theta": [["x2", "0", "0"], ["0", "0", "0"]]}),
        plan,
    )
    form = transitive_im_connection(m.algebroid, m.tau, plan.fork("tau"))
    cd = extract_coupling(m.algebroid, m.ideal, form, plan.fork("ext"))
    # nablaL is d + ad(theta): Gamma_1 = ad(x2 E1), Gamma_2 = 0.
    eps = np.zeros((3, 3, 3))
    for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[a, b, c], eps[b, a, c] = 1, -1
    for p in plan.points(CH2, 10):
        G1 = cd.gamma_map.value(p)[0]
        x2 = p[1]
        want = x2 * eps[0].T  # ad(E1)[e][c] = eps[0, c, e]
        assert np.max(np.abs(G1 - want)) < 1e-12
        assert np.max(np.abs(cd.gamma_map.value(p)[1])) < 1e-12
        # U(a, i) = Omega(d_a, d_i) with Omega = curvature of theta.
        U01 = cd.u_map.value(p)[0, 1]
        assert np.max(np.abs(U01 - np.array([-1.0, 0, 0]))) < 1e-12


def test_roundtrip_exact(radial_model, radial_form):
    m = radial_model
    plan = SamplePlan(seed=9, samples=50)
    cd = extract_coupling(m.algebroid, m.ideal, radial_form, plan)
    form2 = coupling_to_im(cd, plan=plan.fork("c2i"))
    cd2 = extract_coupling(form2.algebroid, form2.ideal, form2, plan.fork("x"))
    n = m.algebroid.chart.dim
    for p in plan.points(m.algebroid.chart, 20):
        for i in range(n):
            assert np.max(np.abs(cd.gamma_map.value(p)[i] - cd2.gamma_map.value(p)[i])) < 1e-10
            for a in range(cd.base.rank):
                assert np.max(np.abs(cd.u_map.value(p)[a, i] - cd2.u_map.value(p)[a, i])) < 1e-10
        for a in range(cd.base.rank):
            for b in range(cd.base.rank):
                for c in range(cd.base.rank):
                    d1 = evaluate(cd.base.structure[a][b][c], p)
                    d2 = evaluate(cd2.base.structure[a][b][c], p)
                    assert abs(d1 - d2) < 1e-10


def test_coupling_to_im_degenerate():
    cd = rank_one_coupling(2)
    form = coupling_to_im(cd)
    # Symbol is the fiber projection; frame values vanish, so the
    # operator is the plain differential of the fiber coordinate.
    assert form.l[0][0] == ONE and all(form.l[0][a] == ZERO for a in range(1, 3))
    assert all(x == ZERO for x in form.op_map.exprs.flat)


def test_coupling_to_im_66_display():
    # Mixed-tensor route: i_X L(alpha, xi) = nabla_X xi + Omega(X, rho(alpha)).
    # L on a section is read as check_im_form reads it: the section's jets
    # and the form's stacked reads, by the extension rule.
    plan = SamplePlan(seed=11, samples=40)
    m = make_example(ExampleSpec("principal_type", {"dim": 2}), plan)
    cd = m.coupling
    form = m.im_form
    k = cd.k
    rng = plan.fork("sec").rng
    A = form.algebroid
    for _ in range(3):
        terms = [polynomial_draws(A.chart.dim, rng) for _ in range(A.rank)]
        sec = [polynomial(t) for t in terms]
        points = plan.points(CH2, 6)
        ((val, jac, _),) = _Jets(A, (terms,), points).sections
        L = _on_section(_form_reads(form, points), val, jac, None)[0]
        for q, p in enumerate(points):
            v = PointMap.exact(sec).value(p)
            xi, al = v[:k], v[k:]
            for i in range(2):
                # nabla_{d_i} xi part + derivative of the fiber part.
                dxi = np.array([evaluate(differentiate(sec[c], i), p) for c in range(k)])
                want = dxi + cd.gamma_map.value(p)[i] @ xi
                for a in range(cd.base.rank):
                    want -= al[a] * cd.u_map.value(p)[a, i]
                assert np.max(np.abs(L[q, i] - want)) < 1e-10


# -- structure equations ---------------------------------------------------

def test_structure_product_pass(product_model):
    out = check_structure_equations(
        product_model.coupling, plan=SamplePlan(seed=2, samples=50)
    )
    assert out.passed


def test_structure_67_kernel_flat_pass(flat67_model):
    out = check_structure_equations(
        flat67_model.coupling, variant="S1'S3'", plan=SamplePlan(seed=2, samples=50)
    )
    assert out.passed


def test_structure_broken_U_fails_S3():
    # Dimension 3 so that a non-closed twist breaks the cocycle equation.
    ch = Chart(3)
    B = tangent_algebroid(ch)
    fiber = FiberBracket.abelian(Bundle(ch, 1))
    nablaL = LinearConnection.trivial(fiber.bundle)
    x3 = coord(2)
    U = [
        [[ZERO], [x3], [ZERO]],
        [[fold(neg(x3))], [ZERO], [ZERO]],
        [[ZERO], [ZERO], [ZERO]],
    ]
    cd = CouplingData(B, fiber, nablaL, U)
    out = check_structure_equations(cd, plan=SamplePlan(seed=2, samples=50))
    s3 = next(c for c in out.checks if c.name == "S3")
    assert s3.max_residual > 1e-3
    # And the spec's perturbation shape on the plane fixture: adding a
    # diagonal x1 dx1 row breaks the anchor-skew property immediately.
    base = omega_constant_coupling()
    U1 = [[coord(0), ONE], [const(-1), ZERO]]
    with pytest.raises(ValueError):
        rank_one_coupling(2, U1=U1)
    bad = rank_one_coupling(2, U1=U1, verify_skew=False)
    assert bad.skew_residual(SamplePlan(seed=3, samples=30)) > 1e-3


# -- semidirect ------------------------------------------------------------

def test_build_semidirect_omega_jacobi():
    cd = omega_constant_coupling()
    A = build_semidirect(cd)
    rep = check_axioms(A, IdealBundle(A, 1), SamplePlan(seed=4, samples=200))
    assert rep.passed
    jac = next(c for c in rep.checks if c.name == "jacobi")
    assert jac.max_residual < 1e-9


def test_build_semidirect_product_shape(product_model):
    cd = product_model.coupling
    A = build_semidirect(cd)
    assert A.rank == 5
    # Anchor: zero on fiber columns, identity block on base columns.
    for i in range(2):
        for c in range(3):
            assert A.anchor[i][c] == ZERO
        for a in range(2):
            assert A.anchor[i][3 + a] == (ONE if i == a else ZERO)


def test_build_semidirect_invalid_fails_jacobi():
    ch = Chart(3)
    B = tangent_algebroid(ch)
    fiber = FiberBracket.abelian(Bundle(ch, 1))
    nablaL = LinearConnection.trivial(fiber.bundle)
    x3 = coord(2)
    U = [
        [[ZERO], [x3], [ZERO]],
        [[fold(neg(x3))], [ZERO], [ZERO]],
        [[ZERO], [ZERO], [ZERO]],
    ]
    cd = CouplingData(B, fiber, nablaL, U)
    se = check_structure_equations(cd, plan=SamplePlan(seed=5, samples=40))
    assert not se.passed
    A = build_semidirect(cd)
    ax = check_axioms(A, plan=SamplePlan(seed=5, samples=120))
    jac = next(c for c in ax.checks if c.name == "jacobi")
    assert jac.max_residual > 1e-3


# The base-on-fiber representation as it was built before it was read
# off the semidirect: the Christoffel symbols contracted with the anchor
# by its own fold loop. It stays here as an unshared reference.
def _ref_base_rep_coeffs(cd):
    B, Gam = cd.base, cd.nablaL.christoffel
    n, k = B.chart.dim, cd.k
    return tuple(
        tuple(
            tuple(fold(add(*(mul(B.anchor[i][b], Gam[i][d][c]) for i in range(n)))) for c in range(k))
            for d in range(k)
        )
        for b in range(B.rank)
    )


@pytest.mark.parametrize(
    "source,params",
    [
        ("bad_u", None),
        ("principal_flat", None),
        ("product_so3", None),
        ("rank_one", None),
        ("product", {}),
        ("lie_algebra_bundle", {}),
        ("transitive", {}),
        ("transitive", {"fiber": "so3", "theta": [["x2", "x1", "0"], ["0", "0", "x1*x2"]]}),
        ("principal_type", {}),
        ("principal_type_flat", {"fiber": "so3_center", "theta": ["x1", "x2"]}),
        ("rank_one", {"theta": ["x2", "x1"]}),
    ],
)
def test_base_rep_on_fiber_matches_its_fold_loop(source, params):
    if params is None:
        cd = load_model(str(MODELS / f"{source}.json")).coupling()
    else:
        cd = make_example(ExampleSpec(source, dict(params)), SamplePlan(seed=42, samples=30)).coupling
    rep = cd.base_rep_on_fiber()
    want = _ref_base_rep_coeffs(cd)
    assert rep.algebroid is cd.base and rep.bundle == cd.fiber.bundle
    assert rep.coeffs == want
    if source == "principal_type":
        # d + ad(theta) on so3: Gamma is not symmetric in its fiber slots,
        # so a read with the two swapped would differ.
        assert any(M[d][c] != M[c][d] for M in want for c in range(cd.k) for d in range(cd.k))


# -- curvature -------------------------------------------------------------

def test_curvature_product_zero(product_model):
    curv = curvature_im(product_model.coupling)
    assert all(x == ZERO for x in curv.sym_map.exprs.flat)
    assert all(x == ZERO for x in curv.op_map.exprs.flat)


def test_curvature_67_values(flat67_model):
    cd = flat67_model.coupling
    curv = curvature_im(cd)
    k = cd.k
    plan = SamplePlan(seed=6, samples=30)
    for p in plan.points(CH2, 10):
        # Symbol on base frame elements is minus the mixed tensor.
        for a in range(cd.base.rank):
            for i in range(2):
                got = curv.sym_map.value(p)[k + a, i]
                assert np.max(np.abs(got + cd.u_map.value(p)[a, i])) < 1e-12
        # Ideal frame elements carry the (vanishing) fiber curvature.
        for c in range(k):
            assert np.max(np.abs(curv.op_map.value(p)[c, 0])) < 1e-12
    rep = canonical_representation(curv.algebroid, curv.ideal)
    assert check_im_form(curv, rep, plan.fork("im")).passed


def test_curvature_gauge_narrative():
    # Exact twist: the gauge map onto the untwisted coupling is an
    # isomorphism of the rebuilt algebroids, and the untwisted side is
    # totally flat while the twisted one stays kernel flat.
    x1 = coord(0)
    theta = [ZERO, x1]  # theta = x1 dx2, d theta = dx1 ^ dx2
    cd1 = omega_constant_coupling(1.0)
    cd0 = rank_one_coupling(2)
    A1, A0 = build_semidirect(cd1), build_semidirect(cd0)
    plan = SamplePlan(seed=8, samples=40)
    rng = plan.rng

    def phi(sec):
        # (alpha, xi) -> (alpha, theta(rho(alpha)) + xi) in the
        # fiber-first frame.
        xi = sec[0]
        al = sec[1:]
        shift = fold(add(xi, *(mul(theta[i], al[i]) for i in range(2))))
        return [shift] + list(al)

    from algebroids.algebroid import bracket

    worst = 0.0
    for _ in range(4):
        u = random_section(A1, rng)
        v = random_section(A1, rng)
        lhs = bracket(A0, phi(u), phi(v))
        rhs = phi(bracket(A1, u, v))
        diff = PointMap.exact([a - b for a, b in zip(lhs, rhs)])
        for p in plan.points(CH2, 8):
            worst = max(worst, float(np.max(np.abs(diff.value(p)))))
    assert worst < 1e-9

    c1, _ = classify_flatness(cd1, plan.fork("c1"))
    c0, _ = classify_flatness(cd0, plan.fork("c0"))
    assert c1 == {"kernel"}
    assert c0 == {"totally", "leafwise", "kernel"}
    assert c1 <= c0


# -- classification --------------------------------------------------------

def test_classify_product(product_model):
    classes, _ = classify_flatness(product_model.coupling, SamplePlan(seed=1, samples=40))
    assert classes == {"totally", "leafwise", "kernel"}


def test_classify_67(flat67_model):
    classes, _ = classify_flatness(flat67_model.coupling, SamplePlan(seed=1, samples=40))
    assert classes == {"kernel"}


def test_classify_leafwise_only():
    # Vanishing base anchor, curved fiber connection, no mixed tensor.
    ch = Chart(2)
    Bb = Bundle(ch, 1)
    B = LieAlgebroid(Bb, [[ZERO], [ZERO]], [])
    fiber = FiberBracket.abelian(Bundle(ch, 1))
    nablaL = LinearConnection(fiber.bundle, [[[coord(1)]], [[ZERO]]])
    U = [[[ZERO], [ZERO]]]
    cd = CouplingData(B, fiber, nablaL, U)
    assert check_structure_equations(cd, plan=SamplePlan(seed=2, samples=40)).passed
    classes, _ = classify_flatness(cd, SamplePlan(seed=1, samples=40))
    assert classes == {"leafwise"}


def test_curvature_zero_iff_totally_flat(product_model, flat67_model):
    plan = SamplePlan(seed=3, samples=30)
    for m, expect_zero in ((product_model, True), (flat67_model, False)):
        curv = curvature_im(m.coupling)
        worst = 0.0
        n = m.coupling.base.chart.dim
        for p in plan.points(m.coupling.base.chart, 10):
            for a in range(curv.algebroid.rank):
                worst = max(worst, float(np.max(np.abs(curv.op_map.value(p)[a, 0]))))
                for i in range(n):
                    worst = max(worst, float(np.max(np.abs(curv.sym_map.value(p)[a, i]))))
        classes, _ = classify_flatness(m.coupling, plan.fork("cl"))
        assert (worst < 1e-9) == expect_zero
        assert ("totally" in classes) == expect_zero


# -- kernel-flat pair and center -------------------------------------------

def test_kernel_flat_pair_passes_on_base(flat67_model):
    cd = flat67_model.coupling
    pair = kernel_flat_two_form(cd)
    rep = cd.base_rep_on_fiber()
    out = check_im_form(pair, rep, SamplePlan(seed=4, samples=50))
    assert out.passed


def test_center_basis_and_degeneracy():
    ch = Chart(2)
    # Heisenberg-type bracket scaled by x1: the center rank jumps where
    # x1 vanishes.
    V = Bundle(ch, 3)
    x1 = coord(0)
    struct = [[ZERO, ZERO, x1], [ZERO] * 3, [ZERO] * 3]  # [e_1, e_2] = x1 e_3
    fiber = FiberBracket(V, struct)
    Z = center_basis(fiber, np.array([0.5, 0.0]))
    assert Z.shape[1] == 1  # center is the third direction
    Z0 = center_basis(fiber, np.array([0.0, 0.0]))
    assert Z0.shape[1] == 3

    B = tangent_algebroid(ch)
    nablaL = LinearConnection.trivial(V)
    U = [[[ZERO] * 3 for _ in range(2)] for _ in range(2)]
    cd = CouplingData(B, fiber, nablaL, U)
    with pytest.raises(CenterDegeneracyError):
        _center_residual_of_u(
            cd, [np.array([0.5, 0.0]), np.array([0.0, 0.0])]
        )


def test_center_fiber_variant():
    plan = SamplePlan(seed=5, samples=50)
    m = make_example(
        ExampleSpec("principal_type_flat", {"dim": 2, "fiber": "so3_center"}), plan
    )
    out = check_structure_equations(
        m.coupling, variant="S1'S3'", plan=plan.fork("se")
    )
    assert out.passed


# -- d_im and chain map ----------------------------------------------------

def test_d_im_matches_curvature(flat67_model):
    cd = flat67_model.coupling
    form = flat67_model.im_form
    rep = canonical_representation(form.algebroid, form.ideal)
    dform = d_im(cd.nablaL, form, rep, SamplePlan(seed=6, samples=30))
    curv = curvature_im(cd)
    plan = SamplePlan(seed=7, samples=30)
    for p in plan.points(CH2, 10):
        for a in range(form.algebroid.rank):
            assert np.max(np.abs(dform.op_map.value(p)[a, 0] - curv.op_map.value(p)[a, 0])) < 1e-12
            for i in range(2):
                assert np.max(np.abs(dform.sym_map.value(p)[a, i] - curv.sym_map.value(p)[a, i])) < 1e-12


def test_d_im_zero_form(flat67_model):
    A, ideal = flat67_model.algebroid, flat67_model.ideal
    cd = flat67_model.coupling
    rep = canonical_representation(A, ideal)
    zform = IMOneForm(
        A, ideal,
        [[ZERO] * A.rank for _ in range(ideal.k)],
        [[[ZERO] * ideal.k for _ in range(A.chart.dim)] for _ in range(A.rank)],
    )
    out = d_im(cd.nablaL, zform, rep, SamplePlan(seed=6, samples=30))
    assert all(x == ZERO for x in out.sym_map.exprs.flat)
    assert all(x == ZERO for x in out.op_map.exprs.flat)


def test_d_im_squares_to_zero_flat():
    # Flat connection in three dimensions: applying the differential
    # twice must vanish at the level of component forms.
    from algebroids.bundles import exterior_covariant_derivative
    from algebroids.expr import exp as eexp

    ch = Chart(3)
    B = tangent_algebroid(ch)
    fiber = FiberBracket.abelian(Bundle(ch, 1))
    f = coord(0)
    theta = [ONE, ZERO, ZERO]  # theta = d x1 (closed, flat connection)
    nablaL = LinearConnection(fiber.bundle, [[[t]] for t in theta])
    emf = eexp(fold(neg(f)))
    U1 = [
        [ZERO, fold(mul(emf, ONE)), ZERO],
        [fold(neg(mul(emf, ONE))), ZERO, ZERO],
        [ZERO, ZERO, ZERO],
    ]
    U = [[[U1[a][i]] for i in range(3)] for a in range(3)]
    cd = CouplingData(B, fiber, nablaL, U)
    assert check_structure_equations(cd, plan=SamplePlan(seed=3, samples=40)).passed
    form = coupling_to_im(cd)
    rep = canonical_representation(form.algebroid, form.ideal)
    conn = LinearConnection(form.ideal.bundle, [[[t]] for t in theta])
    dform = d_im(conn, form, rep, SamplePlan(seed=4, samples=30))
    plan = SamplePlan(seed=5, samples=30)
    # Second application on components: d(op) and op - d(sym) in
    # degree 3 must vanish.
    worst = 0.0
    for sym, op in zip(dform.sym_map.exprs, dform.op_map.exprs):
        (dd_op,) = exterior_covariant_derivative(conn, op, 2)  # on (0, 1, 2)
        sym2 = form_difference(op, exterior_covariant_derivative(conn, sym, 1))
        for p in plan.points(ch, 10):
            worst = max(worst, float(np.max(np.abs(PointMap.exact(dd_op).value(p)))))
            for vec in sym2:  # on (0, 1), (0, 2) and (1, 2)
                worst = max(worst, float(np.max(np.abs(PointMap.exact(vec).value(p)))))
    assert worst < 1e-8


def test_chain_map_degree_one_collapse(product_model):
    form = product_model.im_form
    ev = chain_map(form)
    rng = np.random.default_rng(3)
    A = form.algebroid
    sec = random_section(A, rng)
    got = ev(sec)
    want = l_of(form, sec)
    plan = SamplePlan(seed=8, samples=20)
    for p in plan.points(CH2, 8):
        g = np.array([evaluate(x, p) for x in got])
        w = np.array([evaluate(x, p) for x in want])
        assert np.max(np.abs(g - w)) < 1e-12


def test_chain_map_kernel_flat_lambda(flat67_model):
    cd = flat67_model.coupling
    pair = kernel_flat_two_form(cd)
    ev = chain_map(pair)
    B = cd.base
    rng = np.random.default_rng(6)
    plan = SamplePlan(seed=9, samples=30)
    for _ in range(4):
        al = random_section(B, rng)
        be = random_section(B, rng)
        vals = ev(al, be)
        for p in plan.points(CH2, 6):
            lam = np.zeros(cd.k)
            rho_b = np.array([evaluate(x, p) for x in B.rho_of(be)])
            for a in range(B.rank):
                ca = evaluate(al[a], p)
                for i in range(2):
                    lam += ca * rho_b[i] * cd.u_map.value(p)[a, i]
            got = np.array([evaluate(x, p) for x in vals])
            assert np.max(np.abs(got - lam)) < 1e-9


def test_chain_map_intertwines(flat67_model):
    # d^rep of the contracted cochain equals the contraction of the
    # covariant differential, for a flat invariant connection.
    cd = flat67_model.coupling
    form = flat67_model.im_form
    rep = canonical_representation(form.algebroid, form.ideal)
    conn = cd.nablaL
    dform = d_im(conn, form, rep, SamplePlan(seed=2, samples=30))
    om = chain_map(form)
    d_om = cochain_differential(rep, om)
    om2 = chain_map(dform)
    A = form.algebroid
    rng = np.random.default_rng(12)
    plan = SamplePlan(seed=10, samples=30)
    worst = 0.0
    for _ in range(4):
        al = random_section(A, rng)
        be = random_section(A, rng)
        lhs = d_om(al, be)
        rhs = om2(al, be)
        for p in plan.points(CH2, 6):
            l = np.array([evaluate(x, p) for x in lhs])
            r = np.array([evaluate(x, p) for x in rhs])
            worst = max(worst, float(np.max(np.abs(l - r))))
    assert worst < 1e-8


def _verdicts(report):
    return {c.name: (c.passed, c.max_residual) for c in report.checks}


def _assert_same_verdicts(exact, sampled):
    # The sampled side carries the stencil error (up to about 1e-8 here
    # at h = 2e-3), so verdicts are compared at the tolerance the
    # lie-functor check uses for sampled data.
    e, s = _verdicts(exact), _verdicts(sampled)
    assert e.keys() == s.keys()
    for name, (passed, res) in e.items():
        assert s[name][0] == passed, name
        assert abs(s[name][1] - res) < 1e-7, name


def test_im_form_checker_agrees_across_backends(radial_model, radial_form):
    # The radial connection form and a copy with one operator entry
    # bent by 1e-3 sin(x2): the sampled versions only see point
    # evaluators of the exact entries.
    A, ideal = radial_model.algebroid, radial_model.ideal
    vb = radial_form.value_bundle
    bump = [[fold(mul(const(1e-3), parse("sin(x2)", A.chart))) if i == 0 else ZERO] for i in range(A.chart.dim)]
    fv = list(radial_form.op_map.exprs)
    bent = IMOneForm(A, ideal, radial_form.l, [fv[0], form_sum(fv[1], bump), fv[2]])
    rep = canonical_representation(A, ideal)
    outcomes = []
    for form in (radial_form, bent):
        sampled = NumericIMOneForm(
            A,
            ideal,
            lambda x, f=form: f.sym_map.value(x)[:, 0],
            lambda x, f=form: f.op_map.value(x),
        )
        assert form.exact and not sampled.exact
        exact_rep = check_im_form(form, rep, SamplePlan(seed=3, samples=40), tol=1e-6)
        sampled_rep = check_im_form(sampled, rep, SamplePlan(seed=3, samples=40), tol=1e-6)
        _assert_same_verdicts(exact_rep, sampled_rep)
        assert exact_rep.extra["connection_predicate"] is True
        assert sampled_rep.extra["connection_predicate"] is True
        outcomes.append(exact_rep.passed)
    assert outcomes == [True, False]


def test_structure_equations_agree_across_backends(radial_model, radial_form):
    m = radial_model
    plan = SamplePlan(seed=1, samples=40)
    rep = canonical_representation(m.algebroid, m.ideal)
    assert check_im_form(radial_form, rep, plan.fork("imcheck")).passed
    radial = extract_coupling(m.algebroid, m.ideal, radial_form, plan)
    bad = load_model(str(MODELS / "bad_u.json")).coupling()
    outcomes = []
    for cd in (radial, bad):
        sampled = NumericCouplingData(cd.base, cd.fiber, cd.gamma_map.value, cd.u_map.value)
        assert cd.exact and not sampled.exact
        plan = SamplePlan(seed=3, samples=40)
        exact_rep = check_structure_equations(cd, plan=plan.fork("se"), tol=1e-6)
        sampled_rep = check_structure_equations(sampled, plan=plan.fork("se"), tol=1e-6)
        _assert_same_verdicts(exact_rep, sampled_rep)
        outcomes.append(exact_rep.passed)
        # Checks that need the Exprs refuse sampled data.
        with pytest.raises(TypeError):
            build_semidirect(sampled)
        with pytest.raises(TypeError):
            check_structure_equations(sampled, variant="S1'S3'", plan=plan.fork("kf"))
    assert outcomes == [True, False]


def test_the_kernel_flat_variant_refuses_sampled_data_before_reading_it():
    # The refusal needs no residual, so no sampled map is read before it;
    # the plain variant reads them, which shows the count works.
    cd = load_model(str(MODELS / "bad_u.json")).coupling()
    reads = []

    def counted(fn):
        def read(p):
            reads.append(p)
            return fn(p)

        return read

    sampled = NumericCouplingData(cd.base, cd.fiber, counted(cd.gamma_map.value), counted(cd.u_map.value))
    with pytest.raises(TypeError, match="kernel-flat variant needs symbolic coupling data"):
        check_structure_equations(sampled, variant="S1'S3'", plan=SamplePlan(seed=3, samples=10))
    assert len(reads) == 0
    check_structure_equations(sampled, plan=SamplePlan(seed=3, samples=10))
    assert len(reads) > 0


def _ref_sampled_map(fn, h):
    """The sampled map without a memo: every read runs the evaluator."""
    return PointMap(
        lambda p: np.asarray(fn(np.asarray(p, dtype=float))),
        lambda p: np.array([fd_partial(fn, j, p, h) for j in range(len(p))]),
    )


def _noisy(calls):
    """A point evaluator whose every bit depends on every bit of the
    point (a 1-ulp move of a coordinate moves sin(1e9 x) by about
    1e-7), with a pole where x1 > 0.9."""

    def fn(p):
        calls.append(p.tobytes())
        if p[0] > 0.9:
            raise PoleError("pole of the test evaluator", ONE)
        return np.array([np.sin(1e9 * p[0]) * p[1], np.cos(3e8 * (p[0] - p[1])), p[0] * p[1]])

    return fn


def _read(m, op, p):
    try:
        return m.value(p) if op is None else m.partials(p)[op]
    except PoleError as err:
        return str(err)


def _same_read(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sampled_map_matches_the_unmemoized_map_bit_for_bit():
    # Repeated points, points 1 ulp apart, more distinct points than the
    # memo holds (so earlier points are dropped and come back), and
    # points whose stencil reaches the pole.
    h = 5e-4
    m = sampled_map(_noisy([]), h)
    ref = _ref_sampled_map(_noisy([]), h)
    rng = np.random.default_rng(8)
    base = [rng.uniform(-0.8, 0.8, size=2) for _ in range(SAMPLED_MEMO_ENTRIES)]
    base.append(np.array([0.9 - 1.5 * h, 0.2]))  # the stencil at +2h hits the pole
    points = []
    for p in base:
        points += [p, p.copy(), np.nextafter(p, np.inf), np.nextafter(p, -np.inf)]
    points += base[:8]
    reads = [(op, p) for p in points for op in (None, 0, 1, None)]
    seen = {"values": 0, "errors": 0}
    for op, p in reads:
        got, want = _read(m, op, p), _read(ref, op, p)
        assert _same_read(got, want), (op, p)
        seen["errors" if isinstance(want, str) else "values"] += 1
    assert seen["errors"] > 0 and seen["values"] > 0


def test_sampled_map_evaluates_each_point_once_and_stores_no_error():
    h = 5e-4
    calls = []
    m = sampled_map(_noisy(calls), h)
    p = np.array([0.3, -0.2])
    v = m.value(p)
    assert len(calls) == 1
    assert m.value(p.copy()) is v and len(calls) == 1
    m.partials(p)
    assert len(calls) == 9  # the four shifted points along each of x1, x2
    m.partials(p)[0]
    q = p.copy()
    q[0] += h
    m.value(q)  # a stencil point, read through the same memo
    assert len(calls) == 9
    m.value(np.nextafter(p, np.inf))
    assert len(calls) == 10
    # Read-only, so a caller cannot corrupt the memo.
    for out in (m.value(p), m.partials(p), m.partials(p)[0]):
        with pytest.raises(ValueError):
            out[0] = 1.0
    # An error is raised again on every read, never stored.
    bad = np.array([0.95, 0.0])
    for _ in range(2):
        with pytest.raises(PoleError):
            m.value(bad)
    assert calls.count(bad.tobytes()) == 2
    # The memo is bounded: once as many other points have been read, p
    # is dropped and evaluated again.
    for i in range(SAMPLED_MEMO_ENTRIES):
        m.value(np.array([0.01 * i, 0.5]))
    before = len(calls)
    m.value(p)
    assert len(calls) == before + 1
    # p dropped only the oldest point: the other points still hit.
    for i in range(1, SAMPLED_MEMO_ENTRIES):
        m.value(np.array([0.01 * i, 0.5]))
    assert len(calls) == before + 1


# -- the checkers against their loop forms ---------------------------------
#
# The IM identities and the structure equations as loops over index
# tuples, one small vector at a time, read at the checkers' own draws and
# points: the unshared reference for the per-draw contractions.


def _ref_on_section(form, reads, val, jac, hess):
    """L, dL, sym and dsym of the form on one section at one point."""
    sym_at, dsym_at, op_at, dop_at = reads
    r, rV = form.algebroid.rank, form.value_rank

    @functools.cache
    def L(idx):
        out = np.zeros(rV)
        for a in range(r):
            out += val[a] * op_at(a, idx)
            for t in range(len(idx)):
                out += ((-1.0) ** t) * jac[a][idx[t]] * sym_at(a, idx[:t] + idx[t + 1 :])
        return out

    @functools.cache
    def dL(j, idx):
        out = np.zeros(rV)
        for a in range(r):
            out += jac[a][j] * op_at(a, idx) + val[a] * dop_at(j, a, idx)
            for t in range(len(idx)):
                rest = idx[:t] + idx[t + 1 :]
                sgn = (-1.0) ** t
                out += sgn * hess[a][j][idx[t]] * sym_at(a, rest)
                out += sgn * jac[a][idx[t]] * dsym_at(j, a, rest)
        return out

    @functools.cache
    def sym(idx):
        return sum(val[a] * sym_at(a, idx) for a in range(r))

    @functools.cache
    def dsym(j, idx):
        return sum(jac[a][j] * sym_at(a, idx) + val[a] * dsym_at(j, a, idx) for a in range(r))

    return L, dL, sym, dsym


def _entry_reads(form, p):
    """One signed entry of the symbol and the operator at p, and of
    their partials along x_j: sym_at(a, idx), dsym_at(j, a, idx),
    op_at(a, idx) and dop_at(j, a, idx), sliced from whole reads."""
    n, k = form.algebroid.chart.dim, form.degree
    S = alternating_array(form.sym_map.value(p), n, k - 1)
    dS = alternating_array(form.sym_map.partials(p), n, k - 1)
    O = alternating_array(form.op_map.value(p), n, k)
    dO = alternating_array(form.op_map.partials(p), n, k)
    return (
        lambda a, idx: S[(a, *idx)],
        lambda j, a, idx: dS[(j, a, *idx)],
        lambda a, idx: O[(a, *idx)],
        lambda j, a, idx: dO[(j, a, *idx)],
    )


def _ref_lie(form, rep_mats, section, value_fn, dvalue_fn, idx):
    """Lie derivative along a section (values, anchor image, its
    partials drho[i][j] = d_j rho^i) of a V-valued form at idx."""
    val, rho, drho = section
    n = form.algebroid.chart.dim
    out = np.zeros(form.value_rank)
    for j in range(n):
        out += rho[j] * dvalue_fn(j, idx)
    for b in range(form.algebroid.rank):
        out += val[b] * (rep_mats[b] @ value_fn(idx))
    for t in range(len(idx)):
        for m in range(n):
            sign, key = sort_with_sign(idx[:t] + (m,) + idx[t + 1 :])
            if sign != 0:
                out += drho[m][idx[t]] * sign * value_fn(key)
    return out


def _ref_im_residuals(form, rep, plan):
    """check_im_form's residuals, at its draws and points."""
    A = form.algebroid
    n, k = A.chart.dim, form.degree
    draws, pts = plan.split_budget(per_draw=20)
    rep_map = PointMap.exact(rep.coeffs)
    worst = {1: [], 2: [], 3: []}
    for _ in range(max(2, min(draws, 10))):
        alpha, beta = ([polynomial_draws(n, plan.rng) for _ in range(A.rank)] for _ in range(2))
        points = plan.points(A.chart, pts)
        jets = _Jets(A, (alpha, beta), points)
        a, b = jets.sections
        lie_a = (a[0], jets.rho(a), jets.drho(a))
        lie_b = (b[0], jets.rho(b), jets.drho(b))
        g = (jets.bracket(a, b), jets.gradient(a, b))
        for q, p in enumerate(points):
            va, vb = [x[q] for x in lie_a], [x[q] for x in lie_b]
            lie = functools.partial(_ref_lie, form, rep_map.value(p))
            reads = _entry_reads(form, p)
            La, dLa, Sa, dSa = _ref_on_section(form, reads, *(x[q] for x in a))
            Lb, dLb, Sb, dSb = _ref_on_section(form, reads, *(x[q] for x in b))
            Lg, _, Sg, _ = _ref_on_section(form, reads, *(x[q] for x in g), None)
            rho_a, rho_b = va[1], vb[1]
            if k == 2:
                worst[1].append(sum(rho_a[i] * Sb((i,)) + rho_b[i] * Sa((i,)) for i in range(n)))
            for idx in itertools.combinations(range(n), k):
                worst[2].append(Lg(idx) - lie(va, Lb, dLb, idx) + lie(vb, La, dLa, idx))
            for idx in itertools.combinations(range(n), k - 1):
                res = Sg(idx) - lie(va, Sb, dSb, idx)
                for i in range(n):
                    sign, key = sort_with_sign((i,) + idx)
                    if sign != 0:
                        res = res + rho_b[i] * sign * La(key)
                worst[3].append(res)
    return {f"im_identity_{i}": sup(*w) for i, w in worst.items() if k == 2 or i > 1}


def _ref_curvature_residual(cd, pts):
    n = cd.base.chart.dim
    worst = []
    for p in pts:
        G, dG = cd.gamma_map.value(p), cd.gamma_map.partials(p)  # d_j Gamma_i at dG[j, i]
        for i in range(n):
            for j in range(i + 1, n):
                worst.append(dG[i, j] - dG[j, i] + G[i] @ G[j] - G[j] @ G[i])
    return sup(*worst)


def _ref_structure_residuals(cd, pts):
    """S1-S3 of check_structure_equations, at its points."""
    B, fiber = cd.base, cd.fiber
    n, k = fiber.bundle.chart.dim, cd.k
    rB = B.rank if B is not None else 0
    s1, s2, s3 = [], [], []
    for p in pts:
        G = cd.gamma_map.value(p)
        dG = cd.gamma_map.partials(p)  # d_j Gamma_i at [j, i]
        c = fiber.c_map.value(p)
        for i in range(n):
            dc = fiber.c_map.partials(p)[i]
            for a in range(k):
                for b in range(k):
                    s1.append(
                        dc[a, b] + G[i] @ c[a, b] - G[i][:, a] @ c[:, b, :] - G[i][:, b] @ c[a, :, :]
                    )
        if not rB:
            continue
        rho = B.anchor_map.value(p)
        drho = B.anchor_map.partials(p)
        cB = B.structure_map.value(p)
        U = cd.u_map.value(p)
        dU = cd.u_map.partials(p)
        for a in range(rB):
            for j in range(n):
                for e in range(k):
                    res = -(U[a][j] @ c[:, e, :])
                    for i in range(n):
                        R = dG[i][j] - dG[j][i] + G[i] @ G[j] - G[j] @ G[i]
                        res = res + rho[i, a] * R[:, e]
                    s2.append(res)
        for a in range(rB):
            for b in range(rB):
                for j in range(n):
                    res = -sum(cB[a, b, e] * U[e][j] for e in range(rB))
                    W = sum(rho[i, b] * U[a][i] for i in range(n))
                    res = res + G[j] @ W
                    for i in range(n):
                        res = res + rho[i, a] * (dU[i][b][j] + G[i] @ U[b][j])
                        res = res - rho[i, b] * (dU[i][a][j] + G[i] @ U[a][j])
                        res = res + rho[i, b] * dU[j][a][i] + drho[j][i, a] * U[b][i]
                    s3.append(res)
    return {"S1": sup(*s1), "S2": sup(*s2), "S3": sup(*s3)}


def _assert_matches_reference(report, want):
    """Each reported residual equals its loop form's, to 1e-12 relative
    or, near zero, 1e-15 absolute."""
    got = {c.name: c.max_residual for c in report.checks}
    for name, w in want.items():
        g = got[name]
        assert abs(g - w) <= 1e-12 * abs(w) or abs(g - w) <= 1e-15, (name, g, w)


def _im_cases():
    for name in ("product_so3", "principal_flat"):
        m = load_model(str(MODELS / f"{name}.json"))
        yield name, m.im_form(), canonical_representation(m.algebroid(), m.ideal())
    cd = load_model(str(MODELS / "principal_flat.json")).coupling()
    curv = curvature_im(cd)
    yield "curvature", curv, canonical_representation(curv.algebroid, curv.ideal)
    # The same forms bent off their identities, so that every term of the
    # contractions reaches the residuals.
    m = load_model(str(MODELS / "product_so3.json"))
    form, k = m.im_form(), m.ideal().k
    x1, x2 = coord(0), coord(1)
    frames = list(form.op_map.exprs)
    frames[k] = form_sum(frames[k], [[fold(mul(x1, x2)) if i == 0 else ZERO] * k for i in range(form.algebroid.chart.dim)])
    l = [list(row) for row in form.l]
    l[0][k] = fold(add(l[0][k], x2))
    bent = IMOneForm(form.algebroid, form.ideal, l, frames)
    yield "bent", bent, canonical_representation(bent.algebroid, bent.ideal)
    symbols, frames = list(curv.sym_map.exprs), list(curv.op_map.exprs)
    # On dx2, and on dx1 ^ dx2, of the rank-one value bundle.
    symbols[-1] = form_sum(symbols[-1], [[ZERO], [fold(mul(x1, x1))]])
    frames[-1] = form_sum(frames[-1], [[x2]])
    bent = IMTwoForm(curv.algebroid, curv.ideal, symbols, frames)
    yield "bent_curvature", bent, canonical_representation(bent.algebroid, bent.ideal)


@pytest.mark.parametrize(
    "case", ["product_so3", "principal_flat", "curvature", "bent", "bent_curvature"]
)
def test_im_identities_match_their_loop_forms(case):
    _, form, rep = next(c for c in _im_cases() if c[0] == case)
    out = check_im_form(form, rep, SamplePlan(seed=42, samples=60))
    want = _ref_im_residuals(form, rep, SamplePlan(seed=42, samples=60))
    assert [c.name for c in out.checks] == list(want)
    _assert_matches_reference(out, want)
    assert out.passed == (not case.startswith("bent"))


@pytest.mark.parametrize("model", ["product_so3", "principal_flat", "bad_u"])
def test_structure_equations_match_their_loop_forms(model):
    cd = load_model(str(MODELS / f"{model}.json")).coupling()
    variant = "S1'S3'" if model == "principal_flat" else "S1S3"
    out = check_structure_equations(cd, variant=variant, plan=SamplePlan(seed=42, samples=200))
    pts = SamplePlan(seed=42, samples=200).points(cd.base.chart, 40)
    want = _ref_structure_residuals(cd, pts)
    if variant == "S1'S3'":
        want["kernel_flat_curvature"] = _ref_curvature_residual(cd, pts)
    _assert_matches_reference(out, want)
    assert out.passed == (model != "bad_u")
    if model == "bad_u":
        assert next(c for c in out.checks if c.name == "S3").max_residual == pytest.approx(1.0)
    _, flat = classify_flatness(cd, SamplePlan(seed=42, samples=200))
    pts = SamplePlan(seed=42, samples=200).points(cd.base.chart, 50)
    _assert_matches_reference(flat, {"kernel_flat_curvature": _ref_curvature_residual(cd, pts)})


def test_sampled_structure_equations_match_their_loop_forms():
    # The so3 groupoid's coupling, read from its sampled maps, as in
    # lie-functor at seed 42 and 60 samples; S2 and S3 carry the
    # stencil error, of order 1e-10 and 1e-8.
    from algebroids.groupoid import (
        connection_from_splitting,
        differentiate_to_im,
        numeric_extract_coupling,
    )

    gpd = load_model(str(MODELS / "so3_radial_groupoid.json")).groupoid()
    plan = SamplePlan(seed=42, samples=60)
    nform = differentiate_to_im(gpd, connection_from_splitting(gpd, plan=plan.fork("conn")))
    ncd = numeric_extract_coupling(gpd, nform)
    out = check_structure_equations(ncd, plan=plan.fork("se"), tol=1e-6)
    want = _ref_structure_residuals(ncd, plan.fork("se").points(ncd.base.chart, 40))
    _assert_matches_reference(out, want)
    assert 1e-10 < want["S2"] < 1e-9 and 1e-9 < want["S3"] < 1e-7


def test_im_identities_of_a_two_form_on_a_line_match_their_loop_forms():
    # On a 1-dimensional chart a 2-form has no pair of indices: the
    # operator reads nothing, while the symbol, a 1-form, still reaches
    # identities 1 and 3.  An exact pair refuses a 2-form on a line, so the
    # form binds its point maps directly, as a sampled form does; the
    # operator's has no index tuple, but its value axis.
    plan = SamplePlan(seed=42, samples=60)
    m = make_example(ExampleSpec("product", {"dim": 1}), plan)
    A, ideal = m.algebroid, m.ideal
    x1 = coord(0)
    form = IMTwoForm.__new__(IMTwoForm)
    sym_map = PointMap.exact(
        [[[fold(mul(x1, const(a + 1)))] * ideal.bundle.rank] for a in range(A.rank)]
    )
    op_map = PointMap.exact(np.empty((A.rank, 0, ideal.bundle.rank), dtype=object))
    form._bind(A, ideal, sym_map, op_map)
    rep = canonical_representation(A, ideal)
    out = check_im_form(form, rep, SamplePlan(seed=42, samples=60))
    want = _ref_im_residuals(form, rep, SamplePlan(seed=42, samples=60))
    assert [c.name for c in out.checks] == list(want)
    _assert_matches_reference(out, want)
    assert want["im_identity_2"] == 0.0
    assert want["im_identity_1"] > 1e-3 and want["im_identity_3"] > 1e-3


def test_an_exact_two_form_pair_on_a_line_is_refused():
    # A 2-form has no pair of indices on a 1-dimensional chart: an exact
    # pair of degree 2 is refused there, whether its grids are given or
    # curvature_im builds them.
    m = make_example(ExampleSpec("product", {"dim": 1}), SamplePlan(seed=42, samples=60))
    A, ideal = m.algebroid, m.ideal
    symbols = [[[ZERO] * ideal.k] for _ in range(A.rank)]
    with pytest.raises(ValueError, match="form degree out of range for chart"):
        IMTwoForm(A, ideal, symbols, [[] for _ in range(A.rank)])
    with pytest.raises(ValueError, match="form degree out of range for chart"):
        curvature_im(m.coupling)
