"""Tests for the algebroid core: bracket, axioms, representations,
invariant connections, basic curvature and the connection-based
construction of connection forms."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from algebroids.algebroid import (
    ARepresentation,
    ConstructionRefused,
    IdealBundle,
    LieAlgebroid,
    basic_curvature,
    bracket,
    canonical_representation,
    cartan_build_connection,
    check_axioms,
    symbolic_inverse,
    tangent_algebroid,
)
from algebroids.bundles import (
    Bundle,
    LinearConnection,
    PointMap,
    curvature_tensor,
)
from algebroids.expr import (
    Chart,
    ONE,
    ZERO,
    add,
    const,
    coord,
    differentiate,
    evaluate,
    fold,
    mul,
    neg,
)
from algebroids.factory import so3_constants
from algebroids.modelio import load_model
from algebroids.sampling import SamplePlan, sup
from reference import apply, cartan_residual, check_A_invariant, expr_equal, frame_section, random_polynomial, random_section

CH2 = Chart(2)
MODELS = Path(__file__).resolve().parent.parent / "models"
CH3 = Chart(3)


def so3_action_algebroid():
    """Rotation algebra acting on 3-space, constant frame."""
    x = [coord(i) for i in range(3)]
    anchor = [
        [ZERO, neg(x[2]), x[1]],
        [x[2], ZERO, neg(x[0])],
        [neg(x[1]), x[0], ZERO],
    ]
    return LieAlgebroid(Bundle(CH3, 3), anchor, so3_pairs())


def so3_pairs():
    """The rotation algebra's structure constants on the increasing
    pairs (1, 2), (1, 3), (2, 3)."""
    eps = so3_constants()
    pairs = itertools.combinations(range(3), 2)
    return [[const(float(eps[a, b, c])) for c in range(3)] for a, b in pairs]


@pytest.mark.parametrize(
    "structure, message",
    [
        ([[ZERO] * 3] * 2, "one per increasing pair, 3"),
        ([[ZERO] * 3] * 9, "one per increasing pair, 3"),
        ([[ZERO] * 3, [ZERO] * 3, [ZERO] * 4], r"pair \(1, 2\) has 4 entries, not 3"),
    ],
)
def test_lie_algebroid_refuses_a_wrong_pair_count_or_vector_length(structure, message):
    anchor = [[ZERO] * 3 for _ in range(3)]
    with pytest.raises(ValueError, match=message):
        LieAlgebroid(Bundle(CH3, 3), anchor, structure)


def test_bracket_structure_constants():
    A = so3_action_algebroid()
    out = bracket(A, frame_section(A, 0), frame_section(A, 1))
    assert out[0] == ZERO
    assert out[1] == ZERO
    assert expr_equal(out[2], ONE, CH3)


def test_bracket_self_vanishes():
    A = so3_action_algebroid()
    rng = np.random.default_rng(3)
    plan = SamplePlan(seed=1, samples=30)
    for _ in range(5):
        al = random_section(A, rng)
        out = bracket(A, al, al)
        for p in plan.points(CH3, 6):
            assert np.max(np.abs(PointMap.exact(out).value(p))) < 1e-12


def test_bracket_tangent_vs_commutator_oracle():
    # Tangent algebroid bracket must agree with the classical
    # vector-field commutator, computed independently below.
    TM = tangent_algebroid(CH2)
    X = [coord(0), ZERO]  # x1 d2? no: components in frame
    # sections: x1*d_2 and d_1
    s1 = [ZERO, coord(0)]
    s2 = [ONE, ZERO]
    out = bracket(TM, s1, s2)

    def commutator_oracle(V, W, p, h=1e-6):
        # [V, W]^i = V^j d_j W^i - W^j d_j V^i by finite differences.
        p = np.asarray(p, dtype=float)
        n = len(p)
        def ev(F, q):
            return np.array([evaluate(c, q) for c in F])
        out = np.zeros(n)
        for j in range(n):
            qp, qm = p.copy(), p.copy()
            qp[j] += h
            qm[j] -= h
            dW = (ev(W, qp) - ev(W, qm)) / (2 * h)
            dV = (ev(V, qp) - ev(V, qm)) / (2 * h)
            out += ev(V, p)[j] * dW - ev(W, p)[j] * dV
        return out

    plan = SamplePlan(seed=2, samples=20)
    for p in plan.points(CH2, 10):
        got = PointMap.exact(out).value(p)
        want = commutator_oracle(s1, s2, p)
        assert np.max(np.abs(got - want)) < 1e-8
    # [x1 d2, d1] = -d2.
    assert expr_equal(out[1], const(-1), CH2)


def test_check_axioms_so3():
    A = so3_action_algebroid()
    rep = check_axioms(A, plan=SamplePlan(seed=5, samples=120))
    assert rep.passed


def test_check_axioms_radial_ideal(radial_model):
    rep = check_axioms(
        radial_model.algebroid, radial_model.ideal, SamplePlan(seed=7, samples=100)
    )
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "ideal_anchor" in names and "ideal_bracket" in names


def test_check_axioms_perturbed_fails():
    A = so3_action_algebroid()
    struct = so3_pairs()
    struct[0][2] = fold(add(ONE, coord(0)))  # the pair (1, 2)
    bad = LieAlgebroid(A.bundle, A.anchor, struct)
    rep = check_axioms(bad, plan=SamplePlan(seed=5, samples=120))
    jac = next(c for c in rep.checks if c.name == "jacobi")
    assert jac.max_residual > 1e-3
    # rho([e1, e2]) moves by x1 rho(e3); [rho(e1), rho(e2)] does not.
    assert [c.name for c in rep.checks if not c.passed] == ["jacobi", "anchor_morphism"]


def test_ideal_rejects_non_ideal():
    # The first frame element of the rotation action algebroid is not in
    # the anchor kernel.
    A = so3_action_algebroid()
    with pytest.raises(ValueError):
        IdealBundle(A, 1, plan=SamplePlan(seed=1, samples=30))


def test_canonical_representation_abelian_zero():
    n = 2
    B = Bundle(CH2, 3)
    anchor = [[ZERO] * 3 for _ in range(n)]
    struct = [[ZERO] * 3 for _ in range(3)]
    A = LieAlgebroid(B, anchor, struct)
    ideal = IdealBundle(A, 2)
    rep = canonical_representation(A, ideal)
    for M in rep.coeffs:
        assert all(x == ZERO for row in M for x in row)


def test_canonical_representation_radial_flat(radial_model):
    rep = canonical_representation(radial_model.algebroid, radial_model.ideal)
    res = rep.flatness_residual(SamplePlan(seed=11, samples=60), n_pairs=4)
    assert res < 1e-8


def test_canonical_representation_full_ideal_is_adjoint():
    # Vanishing anchor and the whole bundle as the ideal: the canonical
    # representation collapses to the fiberwise adjoint.
    eps = so3_constants()
    anchor = [[ZERO] * 3 for _ in range(2)]
    A = LieAlgebroid(Bundle(CH2, 3), anchor, so3_pairs())
    ideal = IdealBundle(A, 3)
    rep = canonical_representation(A, ideal)
    for b in range(3):
        for d in range(3):
            for c in range(3):
                assert rep.coeffs[b][d][c] == fold(const(float(eps[b, c, d])))


def test_check_A_invariant_zero_anchor():
    B = Bundle(CH2, 2)
    anchor = [[ZERO] * 2 for _ in range(2)]
    struct = [[ZERO] * 2]
    A = LieAlgebroid(B, anchor, struct)
    V = Bundle(CH2, 1)
    conn = LinearConnection.trivial(V)
    rep = ARepresentation(A, V, [[[ZERO]] for _ in range(A.rank)])
    assert check_A_invariant(conn, rep, SamplePlan(seed=1, samples=30)).passed


def test_check_A_invariant_needs_flatness():
    TM = tangent_algebroid(CH2)
    V = Bundle(CH2, 1)
    conn = LinearConnection(V, [[[coord(1)]], [[ZERO]]])
    # The representation induced by the connection itself along the
    # identity anchor.
    rep = ARepresentation(TM, V, [[[coord(1)]], [[ZERO]]])
    out = check_A_invariant(conn, rep, SamplePlan(seed=2, samples=30))
    assert not out.passed
    flat = LinearConnection.trivial(V)
    rep0 = ARepresentation(TM, V, [[[ZERO]] for _ in range(TM.rank)])
    assert check_A_invariant(flat, rep0, SamplePlan(seed=2, samples=30)).passed


def test_check_A_invariant_product(product_model):
    cd = product_model.coupling
    rep = cd.base_rep_on_fiber()
    conn = cd.nablaL
    assert check_A_invariant(conn, rep, SamplePlan(seed=4, samples=30)).passed


# check_A_invariant as it was written before its conditions became
# contractions of stacked reads: coeffs - rho Gamma formed symbolically,
# the curvature from curvature_tensor, and a loop per point, frame element
# and direction. It stays here as an unshared reference.
def _ref_invariance_residuals(conn, rep, pts):
    A = rep.algebroid
    n, rV = A.chart.dim, rep.bundle.rank
    diffs = []
    for b in range(A.rank):
        D = [[ZERO] * rV for _ in range(rV)]
        for d in range(rV):
            for c in range(rV):
                terms = [rep.coeffs[b][d][c]]
                for i in range(n):
                    terms.append(neg(mul(A.anchor[i][b], conn.christoffel[i][d][c])))
                D[d][c] = fold(add(*terms))
        diffs.append(D)
    diff_map = PointMap.exact(diffs)
    R = curvature_tensor(conn)
    R_map = PointMap.exact(list(R.values()))
    worst1, worst2 = [], []
    for p in pts:
        worst1.append(diff_map.value(p))
        rho_p = A.anchor_map.value(p)
        Rp = dict(zip(R, R_map.value(p)))
        for b in range(A.rank):
            for j in range(n):
                M = np.zeros((rV, rV))
                for i in range(n):
                    if i < j:
                        M += rho_p[i, b] * Rp[(i, j)]
                    elif i > j:
                        M -= rho_p[i, b] * Rp[(j, i)]
                worst2.append(M)
    return {
        "invariance_anchor_compatibility": sup(*worst1),
        "invariance_curvature_contraction": sup(*worst2),
    }


def _invariance_case(name):
    if name != "bent":
        cd = load_model(str(MODELS / f"{name}.json")).coupling()
        return cd.nablaL, cd.base_rep_on_fiber()
    # A rank-2 bundle over the so3 action: a connection with non-commuting
    # Christoffel matrices and a representation that is not the
    # connection along the anchor, so every term reaches both residuals.
    A = so3_action_algebroid()
    V = Bundle(CH3, 2)
    rng = np.random.default_rng(7)
    gammas = [[[random_polynomial(CH3, rng) for _ in range(2)] for _ in range(2)] for _ in range(3)]
    coeffs = [[[random_polynomial(CH3, rng) for _ in range(2)] for _ in range(2)] for _ in range(3)]
    return LinearConnection(V, gammas), ARepresentation(A, V, coeffs)


@pytest.mark.parametrize("case", ["principal_flat", "bad_u", "rank_one", "product_so3", "bent"])
@pytest.mark.parametrize("samples", [4, 200])
def test_invariance_matches_its_loop_form(case, samples):
    conn, rep = _invariance_case(case)
    out = check_A_invariant(conn, rep, SamplePlan(seed=42, samples=samples))
    pts = SamplePlan(seed=42, samples=samples).points(rep.algebroid.chart, min(samples, 60))
    want = _ref_invariance_residuals(conn, rep, pts)
    got = {c.name: c.max_residual for c in out.checks}
    assert list(got) == list(want)
    for name, w in want.items():
        assert abs(got[name] - w) <= 1e-12 * abs(w) or abs(got[name] - w) <= 1e-15, (name, got[name], w)
    if case == "bent":
        assert min(want.values()) > 1e-2
    else:
        assert out.passed


def test_basic_curvature_action_flat():
    A = so3_action_algebroid()
    conn = LinearConnection.trivial(A.bundle)
    bc = basic_curvature(A, conn)
    assert cartan_residual(bc, SamplePlan(seed=6, samples=30), n_points=10) < 1e-10


def test_basic_curvature_tangent_flat():
    TM = tangent_algebroid(CH2)
    conn = LinearConnection.trivial(TM.bundle)
    bc = basic_curvature(TM, conn)
    assert cartan_residual(bc, SamplePlan(seed=6, samples=30), n_points=10) < 1e-10


def test_basic_curvature_perturbed_nonzero():
    A = so3_action_algebroid()
    G1 = [[ZERO] * 3 for _ in range(3)]
    G1[0][0] = coord(1)
    zero = [[ZERO] * 3 for _ in range(3)]
    conn = LinearConnection(A.bundle, [G1, zero, zero])
    bc = basic_curvature(A, conn)
    assert cartan_residual(bc, SamplePlan(seed=6, samples=30), n_points=10) > 1e-3


def test_cartan_build_radial(radial_model, radial_form):
    from algebroids.imforms import check_im_form

    rep = canonical_representation(radial_model.algebroid, radial_model.ideal)
    out = check_im_form(radial_form, rep, SamplePlan(seed=8, samples=80))
    assert out.passed
    assert radial_form.is_connection()


def test_cartan_build_product(product_model):
    # The projection splitting and the trivial connection reproduce the
    # canonical product connection form, whose frame values vanish.
    m = product_model
    k, r = m.ideal.k, m.algebroid.rank
    l = [[ONE if c == a else ZERO for a in range(r)] for c in range(k)]
    conn = LinearConnection.trivial(m.algebroid.bundle)
    form = cartan_build_connection(
        m.algebroid, m.ideal, l, conn, SamplePlan(seed=3, samples=40)
    )
    assert all(x == ZERO for x in form.op_map.exprs.flat)


def test_cartan_build_refuses_nonequivariant(radial_model):
    m = radial_model
    l = [[ONE, ZERO, ZERO]]  # fixed-axis projection: not parallel
    with pytest.raises(ConstructionRefused) as ei:
        cartan_build_connection(
            m.algebroid, m.ideal, l, m.connection, SamplePlan(seed=3, samples=40)
        )
    rep = ei.value.report
    par = next(c for c in rep.checks if c.name == "parallel_splitting")
    assert par.max_residual > 1e-3


def _assert_close(got, want):
    """Equal to 1e-12 relative or, near zero, 1e-15 absolute.  Where the
    reference is rounding noise (below 1e-13), the residual must be too:
    the two sum their terms in different orders."""
    if want < 1e-13:
        assert got < 1e-13, (got, want)
    else:
        assert abs(got - want) <= 1e-12 * abs(want) or abs(got - want) <= 1e-15, (got, want)


# ARepresentation.flatness_residual as it was written before it read
# jets: nabla_[a,b] s - nabla_a nabla_b s + nabla_b nabla_a s built with
# the nested apply and the expanded bracket, evaluated point by point.
# It stays here as an unshared reference, drawing as the checker draws.
def _ref_flatness_residual(rep, plan, n_pairs=6):
    A = rep.algebroid
    worst = []
    for _ in range(n_pairs):
        al = random_section(A, plan.rng)
        be = random_section(A, plan.rng)
        s = [random_polynomial(A.chart, plan.rng) for _ in range(rep.bundle.rank)]
        lhs = apply(rep, bracket(A, al, be), s)
        rhs1 = apply(rep, al, apply(rep, be, s))
        rhs2 = apply(rep, be, apply(rep, al, s))
        terms = PointMap.exact(list(zip(lhs, rhs1, rhs2)))
        for p in plan.points(A.chart, 8):
            v = terms.value(p)
            worst.append(v[:, 0] - v[:, 1] + v[:, 2])
    return sup(*worst)


def _flatness_case(name):
    if name == "bent":
        # Random coefficient matrices on a rank-2 bundle over the so3
        # action: every term of the identity reaches the residual.
        return _invariance_case("bent")[1]
    model = load_model(str(MODELS / f"{name.removesuffix('_perturbed')}.json"))
    A, ideal = model.algebroid(), model.ideal()
    rep = canonical_representation(A, ideal)
    if name.endswith("_perturbed"):
        x2 = coord(1)
        coeffs = [[[fold(add(x, x2)) for x in row] for row in M] for M in rep.coeffs]
        rep = ARepresentation(A, rep.bundle, coeffs)
    return rep


@pytest.mark.parametrize("case", ["so3_radial", "product_so3", "principal_flat", "so3_radial_perturbed", "bent"])
@pytest.mark.parametrize("seed", [42, 7])
def test_flatness_residual_matches_its_nested_form(case, seed):
    rep = _flatness_case(case)
    got = rep.flatness_residual(SamplePlan(seed=seed, samples=200).fork("rep"))
    want = _ref_flatness_residual(rep, SamplePlan(seed=seed, samples=200).fork("rep"))
    _assert_close(got, want)
    assert want > 1e-2 if case in ("so3_radial_perturbed", "bent") else want < 1e-13


# The basic curvature as it was written before it became one contraction
# of stacked reads: the five terms built as sections with the symbolic
# covariant derivative, bracket and vector-field bracket. They stay here
# as unshared references, with the two symbolic operators they read.
def _ref_covariant_derivative(conn, X, s):
    """nabla_X s with X a vector field given as n Exprs."""
    n = conn.bundle.chart.dim
    r = conn.bundle.rank
    out = [ZERO] * r
    for i in range(n):
        di = conn.directional(i, s)
        for b in range(r):
            out[b] = add(out[b], mul(X[i], di[b]))
    return [fold(v) for v in out]


def _ref_vf_bracket(V, W, dim):
    """Commutator of vector fields given as Expr tuples."""
    out = []
    for i in range(dim):
        terms = []
        for j in range(dim):
            terms.append(mul(V[j], differentiate(W[i], j)))
            terms.append(neg(mul(W[j], differentiate(V[i], j))))
        out.append(fold(add(*terms)))
    return out


def _ref_bar_nabla_vf(A, conn, alpha, X):
    first = A.rho_of(_ref_covariant_derivative(conn, X, alpha))
    second = _ref_vf_bracket(A.rho_of(alpha), X, A.chart.dim)
    return [fold(add(x, y)) for x, y in zip(first, second)]


def _ref_section_expr(A, conn, alpha, beta, X):
    t1 = _ref_covariant_derivative(conn, X, bracket(A, alpha, beta))
    t2 = bracket(A, _ref_covariant_derivative(conn, X, alpha), beta)
    t3 = bracket(A, alpha, _ref_covariant_derivative(conn, X, beta))
    t4 = _ref_covariant_derivative(conn, _ref_bar_nabla_vf(A, conn, beta, X), alpha)
    t5 = _ref_covariant_derivative(conn, _ref_bar_nabla_vf(A, conn, alpha, X), beta)
    return [fold(add(a, neg(b), neg(c), neg(d), e)) for a, b, c, d, e in zip(t1, t2, t3, t4, t5)]


def _ref_frame_sections(A, conn):
    """The basic curvature on frame pairs a < b and coordinate fields."""
    n = A.chart.dim
    out = []
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            for i in range(n):
                X = [ONE if j == i else ZERO for j in range(n)]
                out.append(_ref_section_expr(A, conn, frame_section(A, a), frame_section(A, b), X))
    return out


def _ref_sup(entries, pts):
    m = PointMap.exact(entries)
    return sup(*(m.value(p) for p in pts))


def _bent_connection(A, seed):
    rng = np.random.default_rng(seed)
    r = A.rank
    return LinearConnection(
        A.bundle,
        [[[random_polynomial(A.chart, rng) for _ in range(r)] for _ in range(r)] for _ in range(A.chart.dim)],
    )


def _basic_curvature_case(name, radial_model):
    if name == "so3_action":
        A = so3_action_algebroid()
        return A, LinearConnection.trivial(A.bundle)
    if name == "tangent":
        A = tangent_algebroid(CH2)
        return A, LinearConnection.trivial(A.bundle)
    if name == "radial":
        return radial_model.algebroid, radial_model.connection
    # A connection with random polynomial Christoffel matrices on the
    # adapted so3 frame, whose anchor and bracket vary: every term of the
    # five reaches the residual.
    return radial_model.algebroid, _bent_connection(radial_model.algebroid, 5)


@pytest.mark.parametrize("case", ["so3_action", "tangent", "radial", "bent"])
def test_basic_curvature_matches_its_section_form(case, radial_model):
    A, conn = _basic_curvature_case(case, radial_model)
    got = cartan_residual(basic_curvature(A, conn), SamplePlan(seed=6, samples=30), n_points=10)
    pts = SamplePlan(seed=6, samples=30).points(A.chart, 10)
    want = sup(*(_ref_sup(s, pts) for s in _ref_frame_sections(A, conn)))
    _assert_close(got, want)
    assert want > 1e-2 if case == "bent" else want < 1e-13


# cartan_build_connection's preconditions as they were written before
# they became contractions: the parallel-splitting build, and l applied to
# the section form of the basic curvature. They stay here as unshared
# references.
def _ref_cartan_preconditions(A, k, l, conn, pts):
    r = A.rank

    def embed(vec_k):
        return list(vec_k) + [ZERO] * (r - k)

    def apply_l(sec):
        return [fold(add(*(mul(l[c][a], sec[a]) for a in range(r)))) for c in range(k)]

    par = []
    for a in range(r):
        ea = frame_section(A, a)
        for b in range(r):
            eb = frame_section(A, b)
            lhs = bracket(A, ea, embed(apply_l(eb)))
            nabla = _ref_covariant_derivative(conn, A.rho_of(eb), ea)
            inner = [x + y for x, y in zip(nabla, bracket(A, ea, eb))]
            rhs = embed(apply_l(inner))
            par.append(_ref_sup([x - y for x, y in zip(lhs, rhs)], pts))
    killed = sup(*(_ref_sup(apply_l(s), pts) for s in _ref_frame_sections(A, conn)))
    return {"parallel_splitting": sup(*par), "splitting_kills_basic_curvature": killed}


@pytest.mark.parametrize("splitting", ["radial", "fixed_axis", "bent"])
@pytest.mark.parametrize("connection", ["transported", "bent"])
def test_cartan_preconditions_match_their_section_forms(radial_model, splitting, connection):
    m = radial_model
    A, x = m.algebroid, [coord(i) for i in range(3)]
    l = {
        "radial": m.splitting,
        "fixed_axis": [[ONE, ZERO, ZERO]],
        "bent": [[ONE, fold(mul(x[0], x[2])), fold(add(x[1], mul(x[0], x[1])))]],
    }[splitting]
    conn = m.connection if connection == "transported" else _bent_connection(A, 5)
    pts = SamplePlan(seed=3, samples=40).points(A.chart, 20)
    want = _ref_cartan_preconditions(A, 1, l, conn, pts)
    if splitting == "radial" and connection == "transported":
        cartan_build_connection(A, m.ideal, l, conn, SamplePlan(seed=3, samples=40))
        assert max(want.values()) < 1e-13
        return
    with pytest.raises(ConstructionRefused) as ei:
        cartan_build_connection(A, m.ideal, l, conn, SamplePlan(seed=3, samples=40))
    got = {c.name: c.max_residual for c in ei.value.report.checks}
    assert list(got) == list(want)
    for name, w in want.items():
        _assert_close(got[name], w)
    if connection == "bent":
        assert min(want.values()) > 1e-2


def test_cartan_preconditions_on_a_non_abelian_ideal_match_their_section_forms(product_model):
    # The so3 ideal of the product brackets into itself, so the ideal
    # components of both defects meet the bracket term as well as l's
    # partials; a random splitting and connection make every term count.
    m = product_model
    A, k = m.algebroid, m.ideal.k
    rng = np.random.default_rng(9)
    l = [[(ONE if c == a else ZERO) if a < k else random_polynomial(A.chart, rng) for a in range(A.rank)] for c in range(k)]
    conn = _bent_connection(A, 11)
    pts = SamplePlan(seed=3, samples=40).points(A.chart, 20)
    want = _ref_cartan_preconditions(A, k, l, conn, pts)
    with pytest.raises(ConstructionRefused) as ei:
        cartan_build_connection(A, m.ideal, l, conn, SamplePlan(seed=3, samples=40))
    got = {c.name: c.max_residual for c in ei.value.report.checks}
    assert list(got) == list(want)
    for name, w in want.items():
        _assert_close(got[name], w)
        assert w > 1e-2


def test_change_frame_inverse_roundtrip():
    x = coord(0)
    P = [
        [x, ZERO, ZERO],
        [coord(1), ONE, ZERO],
        [coord(2), ZERO, ONE],
    ]
    Pinv = symbolic_inverse(P)
    # P Pinv = Id at sampled points.
    plan = SamplePlan(seed=4, samples=20)
    ch = Chart(3, bounds=[(0.4, 1.2), (-0.8, 0.8), (-0.8, 0.8)])
    for p in plan.points(ch, 8):
        Pm = np.array([[evaluate(e, p) for e in row] for row in P])
        Pi = np.array([[evaluate(e, p) for e in row] for row in Pinv])
        assert np.max(np.abs(Pm @ Pi - np.eye(3))) < 1e-12
