"""Tests for the rank-one trivialized checkers, gauge transformations
and witness verification."""

from pathlib import Path

import numpy as np
import pytest

from algebroids.algebroid import LieAlgebroid, tangent_algebroid
from algebroids.bundles import Bundle, FiberBracket, LinearConnection, PointMap
from algebroids.expr import (
    Chart,
    ONE,
    ZERO,
    add,
    const,
    coord,
    differentiate,
    exp as eexp,
    fold,
    mul,
    neg,
    parse,
)
from algebroids.factory import ExampleSpec, make_example, so3_constants
from algebroids.imforms import CouplingData, check_structure_equations
from algebroids.rankone import (
    RankOneData,
    check_rank_one,
    extract_rank_one,
    gauge_transform,
    verify_witness,
)
from algebroids.modelio import load_model
from algebroids.sampling import SamplePlan, random_polynomial, sup

CH2 = Chart(2)
MODELS = Path(__file__).resolve().parent.parent / "models"


def coupling_from(theta, U1, dim=2, verify_skew=True):
    ch = Chart(dim)
    B = tangent_algebroid(ch)
    fiber = FiberBracket.abelian(Bundle(ch, 1))
    nablaL = LinearConnection(fiber.bundle, [[[t]] for t in theta])
    U = [[[U1[a][i]] for i in range(dim)] for a in range(dim)]
    return CouplingData(B, fiber, nablaL, U, verify_skew=verify_skew)


def area_coupling():
    return coupling_from([ZERO, ZERO], [[ZERO, ONE], [const(-1), ZERO]])


def test_extract_product_zero():
    cd = coupling_from([ZERO, ZERO], [[ZERO, ZERO], [ZERO, ZERO]])
    data = extract_rank_one(cd)
    assert all(x == ZERO for x in data.theta)
    assert all(x == ZERO for x in data.V)
    assert all(x == ZERO for row in data.lam for x in row)


def test_extract_67_lambda_is_pullback():
    cd = area_coupling()
    data = extract_rank_one(cd)
    # Identity anchor: lambda(e_a, e_b) = U1[a][b] = the area form.
    assert data.lam[0][1] == ONE
    assert data.lam[1][0] == const(-1)
    assert all(x == ZERO for x in data.V)


def test_gauge_change_rules():
    from algebroids.expr import expr_equal

    cd = area_coupling()
    data = extract_rank_one(cd)
    h = eexp(coord(0))
    out = gauge_transform(data, h)
    # theta gains d log h = dx1; V gains its anchor pullback.
    assert expr_equal(out.theta[0], ONE, CH2) and out.theta[1] == ZERO
    assert expr_equal(out.V[0], ONE, CH2) and out.V[1] == ZERO
    # Fiber-valued data rescales by 1/h.
    plan = SamplePlan(seed=1, samples=20)
    from algebroids.expr import evaluate

    for p in plan.points(CH2, 8):
        s = np.exp(p[0])
        assert abs(evaluate(out.lam[0][1], p) - 1.0 / s) < 1e-12
        assert abs(evaluate(out.U1[0][1], p) - 1.0 / s) < 1e-12


def test_check_rank_one_pass_and_gauge_covariance():
    cd = area_coupling()
    data = extract_rank_one(cd)
    out = check_rank_one(data, SamplePlan(seed=3, samples=50))
    assert out.passed
    out2 = check_rank_one(
        gauge_transform(data, eexp(coord(0))), SamplePlan(seed=3, samples=50)
    )
    assert out2.passed == out.passed


def test_check_rank_one_nonclosed_theta_fails():
    cd = coupling_from([coord(1), ZERO], [[ZERO, ZERO], [ZERO, ZERO]], verify_skew=True)
    data = extract_rank_one(cd)
    out = check_rank_one(data, SamplePlan(seed=3, samples=50))
    s2 = next(c for c in out.checks if c.name == "S2_trivialized")
    assert s2.max_residual > 1e-3


def test_tangentiality_zero_anchor():
    # Vanishing anchor: every fiber direction is in the kernel, so a
    # nonzero 2-cochain cannot be tangential.
    ch = Chart(2)
    Bb = Bundle(ch, 2)
    B = LieAlgebroid(Bb, [[ZERO, ZERO], [ZERO, ZERO]], [[[ZERO] * 2] * 2] * 2)
    lam = [[ZERO, ONE], [const(-1), ZERO]]
    data = RankOneData(B, (ZERO, ZERO), (ZERO, ZERO), lam, ((ZERO, ZERO), (ZERO, ZERO)))
    out = check_rank_one(data, SamplePlan(seed=3, samples=50))
    tang = next(c for c in out.checks if c.name == "tangential_representatives")
    assert tang.max_residual > 1e-3
    zero = RankOneData(
        B, (ZERO, ZERO), (ZERO, ZERO), [[ZERO, ZERO], [ZERO, ZERO]],
        ((ZERO, ZERO), (ZERO, ZERO)),
    )
    assert check_rank_one(zero, SamplePlan(seed=3, samples=50)).passed


def test_witness_product():
    cd = coupling_from([ZERO, ZERO], [[ZERO, ZERO], [ZERO, ZERO]])
    data = extract_rank_one(cd)
    out = verify_witness(
        "product", data, {"h": ONE, "Z": [ZERO, ZERO]}, SamplePlan(seed=5, samples=40)
    )
    assert out.passed


def test_witness_principal_type_67():
    cd = area_coupling()
    data = extract_rank_one(cd)
    out = verify_witness(
        "principal_type",
        data,
        {"theta": [ZERO, ZERO], "Omega": [ONE], "Z": [ZERO, ZERO]},
        SamplePlan(seed=5, samples=40),
    )
    assert out.passed


def test_witness_wrong_claim_fails():
    cd = area_coupling()
    data = extract_rank_one(cd)
    out = verify_witness(
        "totally_flat",
        data,
        {"theta": [ZERO, ZERO], "Z": [ZERO, ZERO]},
        SamplePlan(seed=5, samples=40),
    )
    le = next(c for c in out.checks if c.name == "lambda_exact")
    assert le.max_residual > 1e-3
    assert not out.passed


def test_witness_kernel_flat():
    cd = area_coupling()
    data = extract_rank_one(cd)
    out = verify_witness(
        "kernel_flat",
        data,
        {"theta": [ZERO, ZERO], "U1": [[ZERO, ONE], [const(-1), ZERO]]},
        SamplePlan(seed=5, samples=40),
    )
    assert out.passed


def test_witness_totally_flat_on_product_with_gauge():
    # A product twisted by a gauge factor: the witness restores it.
    h = eexp(coord(0))
    dlog = [ONE, ZERO]
    cd = coupling_from(dlog, [[ZERO, ZERO], [ZERO, ZERO]])
    data = extract_rank_one(cd)
    out = verify_witness(
        "totally_flat",
        data,
        {"theta": [ONE, ZERO], "Z": [ZERO, ZERO]},
        SamplePlan(seed=5, samples=40),
    )
    assert out.passed


def test_trivialized_vs_intrinsic_agreement():
    # The trivialized and coupling checkers agree on valid and broken
    # random rank-one data.
    rng = np.random.default_rng(21)
    plan = SamplePlan(seed=6, samples=40)
    agree = 0
    for trial in range(6):
        f = fold(
            add(
                mul(const(float(rng.uniform(-0.5, 0.5))), coord(0)),
                mul(const(float(rng.uniform(-0.5, 0.5))), coord(1)),
            )
        )
        theta = [differentiate(f, 0), differentiate(f, 1)]
        c = float(rng.uniform(0.5, 1.5))
        emf = eexp(fold(neg(f)))
        om = fold(mul(const(c), emf))
        U1 = [[ZERO, om], [fold(neg(om)), ZERO]]
        if trial % 2 == 1:
            theta = [fold(add(theta[0], coord(1))), theta[1]]  # break closedness
        cd = coupling_from(theta, U1)
        data = extract_rank_one(cd)
        v1 = check_structure_equations(cd, plan=plan.fork(f"se{trial}")).passed
        v2 = check_rank_one(data, plan.fork(f"r1{trial}")).passed
        assert v1 == v2
        agree += 1
    assert agree == 6


# The trivialized structure equations as check_rank_one wrote them
# before they became the k = 1 case of the coupling contractions: Lie
# and exterior derivatives formed symbolically, then a loop per point
# and base frame pair. They stay here as an unshared reference.
def _ref_lie_derivative_one_form(X, om, n):
    out = []
    for j in range(n):
        terms = []
        for i in range(n):
            terms.append(mul(X[i], differentiate(om[j], i)))
            terms.append(mul(om[i], differentiate(X[i], j)))
        out.append(fold(add(*terms)))
    return out


def _ref_d_map(om, n):
    """d of a scalar 1-form as a point function with antisymmetric n x n
    values."""
    rows, cols = np.triu_indices(n, 1)
    upper = PointMap.exact([
        fold(add(differentiate(om[j], i), neg(differentiate(om[i], j))))
        for i, j in zip(rows.tolist(), cols.tolist())
    ])

    def value(p):
        v = upper.value(p)
        m = np.zeros((n, n))
        m[rows, cols] = v
        m[cols, rows] = -v
        return m

    return value


def _ref_sup(values, pts):
    return sup(*(values(p) for p in pts))


def _ref_anchored_sup(B, d, pts):
    return _ref_sup(lambda p: B.anchor_map.value(p).T @ d(p), pts)


def _ref_rank_one_residuals(data, pts):
    B = data.base
    n, rB = B.chart.dim, B.rank
    s3 = []
    theta_map = PointMap.exact(data.theta)
    U_map = PointMap.exact(data.U1)
    dU_maps = [_ref_d_map(data.U1[a], n) for a in range(rB)]
    rho_cols = [B.rho_of(B.frame_section(a)) for a in range(rB)]
    lie_map = PointMap.exact([
        [_ref_lie_derivative_one_form(rho_cols[a], list(data.U1[b]), n) for b in range(rB)]
        for a in range(rB)
    ])
    for p in pts:
        rho = B.anchor_map.value(p)
        th = theta_map.value(p)
        Uv = U_map.value(p)
        cB = B.structure_map.value(p)
        dUm = [m(p) for m in dU_maps]
        lieU = lie_map.value(p)
        for a in range(rB):
            for b in range(rB):
                lhs = sum(cB[a, b, c] * Uv[c] for c in range(rB))
                wedge = np.outer(th, Uv[a]) - np.outer(Uv[a], th)
                rhs = (
                    lieU[a, b]
                    - rho[:, b] @ dUm[a]
                    + float(th @ rho[:, a]) * Uv[b]
                    - rho[:, b] @ wedge
                )
                s3.append(lhs - rhs)
    return {
        "S2_trivialized": _ref_anchored_sup(B, _ref_d_map(data.theta, n), pts),
        "S3_trivialized": sup(*s3),
    }


def _assert_matches_reference(report, want):
    """Each reported residual equals its loop form's, to 1e-12 relative
    or, near zero, 1e-15 absolute."""
    got = {c.name: c.max_residual for c in report.checks}
    for name, w in want.items():
        g = got[name]
        assert abs(g - w) <= 1e-12 * abs(w) or abs(g - w) <= 1e-15, (name, g, w)


def _affine_base():
    """Translations and dilations of the plane: rho(e1) = d1,
    rho(e2) = x1 d1 + x2 d2, [e1, e2] = e1."""
    x1, x2 = coord(0), coord(1)
    anchor = [[ONE, x1], [ZERO, x2]]
    struct = [[[ZERO, ZERO], [ONE, ZERO]], [[const(-1), ZERO], [ZERO, ZERO]]]
    return LieAlgebroid(Bundle(CH2, 2), anchor, struct)


def _rank_one_case(name):
    if name != "bent":
        return extract_rank_one(load_model(str(MODELS / f"{name}.json")).coupling())
    # Every term of S2 and S3 reaches the residuals: a non-closed theta,
    # a mixed tensor that is neither constant nor anchor-skew, and a base
    # with a bracket and a non-constant anchor.
    x1, x2 = coord(0), coord(1)
    theta = (fold(mul(x1, x2)), parse("x1^2 - x2", CH2))
    U1 = ((x2, parse("1 + x1*x2", CH2)), (const(-1), parse("x1^2", CH2)))
    zero = ((ZERO, ZERO), (ZERO, ZERO))
    return RankOneData(_affine_base(), theta, (ZERO, ZERO), zero, U1)


@pytest.mark.parametrize("case", ["principal_flat", "bad_u", "rank_one", "bent"])
@pytest.mark.parametrize("samples", [4, 200])
def test_trivialized_structure_equations_match_their_loop_forms(case, samples):
    data = _rank_one_case(case)
    out = check_rank_one(data, SamplePlan(seed=42, samples=samples))
    pts = SamplePlan(seed=42, samples=samples).points(data.base.chart, max(12, min(samples, 40)))
    want = _ref_rank_one_residuals(data, pts)
    _assert_matches_reference(out, want)
    got = {c.name: c.max_residual for c in out.checks if c.name in want}
    if case == "bent":
        assert min(want.values()) > 1e-2
    elif case == "bad_u":
        assert got == {"S2_trivialized": 0.0, "S3_trivialized": 1.0} and not out.passed
    else:
        assert got == {"S2_trivialized": 0.0, "S3_trivialized": 0.0}


@pytest.mark.parametrize("kind, name", [("totally_flat", "theta_closed"), ("leafwise_flat", "theta_invariant")])
def test_witness_closedness_matches_its_loop_form(kind, name):
    data = _rank_one_case("bent")
    theta = [parse("x1*x2", CH2), parse("sin(x1) + x1^2*x2", CH2)]
    plan = SamplePlan(seed=42, samples=200)
    out = verify_witness(kind, data, {"theta": theta}, plan)
    pts = SamplePlan(seed=42, samples=200).points(data.base.chart, 40)
    d = _ref_d_map(theta, 2)
    want = _ref_sup(d, pts) if name == "theta_closed" else _ref_anchored_sup(data.base, d, pts)
    assert want > 1e-2
    _assert_matches_reference(out, {name: want})


def _ref_tangentiality(data, pts, svd_tol=1e-9):
    """check_rank_one's tangentiality as a loop per point and kernel
    column: (residual, modal anchor rank, discarded points)."""
    B = data.base
    tang, ranks, kernels = [], [], []
    for p in pts:
        _, s, vt = np.linalg.svd(B.anchor_map.value(p))
        rank = int(np.sum(s > svd_tol))
        ranks.append(rank)
        kernels.append(vt[rank:].T)
    modal = int(np.bincount(ranks).argmax())
    lam_map, V_map = PointMap.exact(data.lam), PointMap.exact(data.V)
    for p, rank, ker in zip(pts, ranks, kernels):
        if rank == modal:
            for col in ker.T:
                tang.append(col @ lam_map.value(p))
                tang.append(col @ V_map.value(p))
    return sup(*tang), modal, ranks.count(modal)


def _rotation_data():
    """Rank-one data over the rotation action on 3-space, whose anchor
    has rank 2 away from the axis, with cochains that are not tangential
    to its kernel."""
    x = [coord(i) for i in range(3)]
    anchor = [
        [ZERO, neg(x[2]), x[1]],
        [x[2], ZERO, neg(x[0])],
        [neg(x[1]), x[0], ZERO],
    ]
    eps = so3_constants()
    struct = [[[const(float(eps[a, b, c])) for c in range(3)] for b in range(3)] for a in range(3)]
    B = LieAlgebroid(Bundle(Chart(3), 3), anchor, struct)
    lam = ((ZERO, x[0], mul(x[1], x[2])), (ZERO, ZERO, ONE), (ZERO, ZERO, ZERO))
    zero = ((ZERO,) * 3,) * 3
    return RankOneData(B, (ZERO,) * 3, (x[1], ONE, mul(x[0], x[0])), lam, zero)


@pytest.mark.parametrize("svd_tol", [1e-9, 0.5])
def test_tangentiality_matches_its_loop_form(svd_tol):
    # At svd_tol 0.5 the anchor's second singular value, |x|, falls below
    # the threshold near the axis, so the rank jumps there and those
    # points are discarded.
    data = _rotation_data()
    plan = SamplePlan(seed=42, samples=200)
    out = check_rank_one(data, plan, svd_tol=svd_tol)
    pts = SamplePlan(seed=42, samples=200).points(data.base.chart, 40)
    want, modal, kept = _ref_tangentiality(data, pts, svd_tol)
    got = next(c.max_residual for c in out.checks if c.name == "tangential_representatives")
    assert abs(got - want) <= 1e-12 * abs(want) and want > 1e-2
    assert out.extra["anchor_rank"] == modal == 2
    assert out.extra["discarded_rank_jump_points"] == len(pts) - kept
    assert (out.extra["discarded_rank_jump_points"] > 0) == (svd_tol == 0.5)


# verify_witness's residuals as they were written before they became
# contractions of stacked reads: d_B Z by _dB_cochain1, and each identity
# built as Exprs and evaluated point by point. theta's closedness, read
# from the structure-equation kernel, is checked above. They stay here as
# unshared references.
def _ref_dB_cochain1(B, Z, V):
    """(dZ)(a,b) = rho(a)Z_b + V_a Z_b - rho(b)Z_a - V_b Z_a - Z([a,b])."""
    rB, n = B.rank, B.chart.dim
    out = [[ZERO] * rB for _ in range(rB)]
    for a in range(rB):
        for b in range(a + 1, rB):
            rho_a = [B.anchor[i][a] for i in range(n)]
            rho_b = [B.anchor[i][b] for i in range(n)]
            t = add(
                *(mul(rho_a[i], differentiate(Z[b], i)) for i in range(n)),
                mul(V[a], Z[b]),
                *(neg(mul(rho_b[i], differentiate(Z[a], i))) for i in range(n)),
                neg(mul(V[b], Z[a])),
                *(neg(mul(B.structure[a][b][c], Z[c])) for c in range(rB)),
            )
            out[a][b] = fold(t)
            out[b][a] = fold(neg(out[a][b]))
    return out


def _ref_witness_residuals(kind, data, w, pts):
    B = data.base
    n, rB = B.chart.dim, B.rank

    def sup(entries):
        m = PointMap.exact(entries)
        return _ref_sup(m.value, pts)

    if "h" in w:
        data = gauge_transform(data, w["h"])
    lam = data.lam
    if "Z" in w:
        dZ = _ref_dB_cochain1(B, [fold(z) for z in w["Z"]], data.V)
        lam = [[fold(add(data.lam[a][b], dZ[a][b])) for b in range(rB)] for a in range(rB)]
    if kind == "product":
        return {"V_vanishes_after_gauge": sup(data.V), "lambda_vanishes_after_shift": sup(lam)}
    theta = [fold(t) for t in w["theta"]]
    V_match = [fold(add(data.V[a], *(neg(mul(theta[i], B.anchor[i][a])) for i in range(n)))) for a in range(rB)]
    out = {"V_matches_pullback": sup(V_match)}
    if kind in ("totally_flat", "leafwise_flat"):
        out["lambda_exact"] = sup(lam)
    elif kind == "kernel_flat":
        U1 = w["U1"]
        out["lambda_matches_pair_image"] = sup([
            fold(add(lam[a][b], *(neg(mul(U1[a][i], B.anchor[i][b])) for i in range(n))))
            for a in range(rB)
            for b in range(rB)
            if a != b
        ])
    else:
        Om = [[ZERO] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for (i, j), x in zip(pairs, w["Omega"]):
            Om[i][j], Om[j][i] = fold(x), fold(neg(x))
        out["Omega_covariantly_closed"] = sup([
            fold(add(
                differentiate(Om[j][k], i),
                neg(differentiate(Om[i][k], j)),
                differentiate(Om[i][j], k),
                mul(theta[i], Om[j][k]),
                neg(mul(theta[j], Om[i][k])),
                mul(theta[k], Om[i][j]),
            ))
            for i, j in pairs
            for k in range(j + 1, n)
        ])
        out["lambda_matches_pullback"] = sup([
            fold(add(lam[a][b], *(
                neg(mul(B.anchor[i][a], Om[i][j], B.anchor[j][b])) for i in range(n) for j in range(n)
            )))
            for a in range(rB)
            for b in range(rB)
        ])
    return out


def _bent_witnesses(gauge):
    """Random rank-one data over the rotation action on 3-space (an anchor
    and cochains that vary, a bracket), with random witnesses, none of
    which holds: every term reaches its residual."""
    B = _rotation_data().base
    ch = B.chart
    rng = np.random.default_rng(31)

    def poly():
        return random_polynomial(ch, rng)

    lam = [[poly() if a < b else ZERO for b in range(3)] for a in range(3)]
    data = RankOneData(B, [poly() for _ in range(3)], [poly() for _ in range(3)], lam, [[poly() for _ in range(3)] for _ in range(3)])
    w = {
        "Z": [poly() for _ in range(3)],
        "theta": [poly() for _ in range(3)],
        "U1": [[poly() for _ in range(3)] for _ in range(3)],
        "Omega": [poly() for _ in range(3)],
    }
    if gauge:
        w["h"] = parse("2 + x1*x2 - x3", ch)
    return data, w


@pytest.mark.parametrize("kind", ["product", "totally_flat", "leafwise_flat", "kernel_flat", "principal_type"])
@pytest.mark.parametrize("gauge", [False, True])
def test_witness_residuals_match_their_expr_forms(kind, gauge):
    data, w = _bent_witnesses(gauge)
    out = verify_witness(kind, data, w, SamplePlan(seed=42, samples=200))
    pts = SamplePlan(seed=42, samples=200).points(data.base.chart, 40)
    want = _ref_witness_residuals(kind, data, w, pts)
    _assert_matches_reference(out, want)
    assert min(want.values()) > 1e-2
