"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances, with the stock defaults (200 samples, seed 42).  Each test
prints a single pass/fail line."""

from pathlib import Path

import numpy as np
import pytest

from algebroids.algebroid import (
    ConstructionRefused,
    IdealBundle,
    canonical_representation,
    cartan_build_connection,
    check_axioms,
)
from algebroids.bundles import Bundle, FiberBracket, LinearConnection
from algebroids.expr import (
    Chart,
    ONE,
    ZERO,
    add,
    const,
    coord,
    differentiate,
    evaluate,
    exp as eexp,
    fold,
    mul,
    neg,
)
from algebroids.factory import (
    ExampleSpec,
    make_example,
    so3_radial_action,
    transitive_im_connection,
)
from algebroids.groupoid import (
    check_groupoid_properties,
    connection_from_splitting,
    covariant_exterior_D,
    d_nabla_s,
    differentiate_to_im,
    numeric_extract_coupling,
)
from algebroids.imforms import (
    CouplingData,
    build_semidirect,
    center_basis,
    check_im_form,
    check_structure_equations,
    classify_flatness,
    coupling_to_im,
    curvature_im,
    extract_coupling,
    kernel_flat_two_form,
)
from algebroids.modelio import load_model
from algebroids.rankone import check_rank_one, extract_rank_one, gauge_transform
from algebroids.sampling import SamplePlan
from algebroids.cli import run as cli_run
from reference import chain_map, random_section

MODELS = Path(__file__).resolve().parent.parent / "models"
SEED, SAMPLES = 42, 200


def plan(tag=""):
    p = SamplePlan(seed=SEED, samples=SAMPLES)
    return p.fork(tag) if tag else p


def report_line(n, label, ok, detail=""):
    from conftest import ACCEPTANCE_LINES

    status = "PASS" if ok else "FAIL"
    msg = f"criterion {n:2d} ({label}): {status}"
    if detail:
        msg += f"  [{detail}]"
    print(msg)
    ACCEPTANCE_LINES.append(msg)
    assert ok, msg


@pytest.fixture(scope="module")
def fixtures():
    build = SamplePlan(seed=SEED, samples=60)
    out = {}
    out["product"] = make_example(
        ExampleSpec("product", {"dim": 2, "algebra": "so3"}), build.fork("p")
    )
    out["principal_type"] = make_example(
        ExampleSpec("principal_type", {"dim": 2}), build.fork("pt")
    )
    out["principal_type_flat"] = make_example(
        ExampleSpec("principal_type_flat", {"dim": 2, "omega": [["1"]]}),
        build.fork("ptf"),
    )
    out["rank_one"] = make_example(
        ExampleSpec(
            "rank_one", {"dim": 2, "theta": ["0", "0"], "U1": [["0", "1"], ["-1", "0"]]}
        ),
        build.fork("r1"),
    )
    radial = so3_radial_action(build.fork("rad"))
    out["radial"] = radial
    out["radial_form"] = cartan_build_connection(
        radial.algebroid, radial.ideal, radial.splitting, radial.connection,
        build.fork("cartan"),
    )
    out["radial_cd"] = extract_coupling(
        radial.algebroid, radial.ideal, out["radial_form"], build.fork("ext")
    )
    return out


def test_criterion_01_coupling_soundness(fixtures):
    worst = 0.0
    valid = [
        fixtures["product"].coupling,
        fixtures["principal_type"].coupling,
        fixtures["principal_type_flat"].coupling,
        fixtures["rank_one"].coupling,
        fixtures["radial_cd"],
    ]
    for i, cd in enumerate(valid):
        A = build_semidirect(cd)
        rep = check_axioms(A, IdealBundle(A, cd.k, verify=False), plan(f"c1-{i}"))
        for c in rep.checks:
            if c.name in ("jacobi", "anchor_morphism"):
                worst = max(worst, c.max_residual)
    ok = worst < 1e-8

    # The shipped broken fixture must fail both the mixed cocycle
    # equation and the Jacobi clause of the rebuilt bracket.
    broken = load_model(str(MODELS / "bad_u.json")).coupling()
    se = check_structure_equations(broken, plan=plan("c1-bse"))
    s3 = next(c for c in se.checks if c.name == "S3")
    Ab = build_semidirect(broken)
    axb = check_axioms(Ab, plan=plan("c1-bax"))
    jac = next(c for c in axb.checks if c.name == "jacobi")
    ok = ok and s3.max_residual > 1e-3 and jac.max_residual > 1e-3
    report_line(
        1, "coupling soundness", ok,
        f"valid max {worst:.2e}; broken S3 {s3.max_residual:.1e}, jacobi {jac.max_residual:.1e}",
    )


def test_criterion_02_roundtrip_exactness(fixtures):
    worst = 0.0
    for name in ("product", "principal_type", "principal_type_flat", "rank_one"):
        cd = fixtures[name].coupling
        form = fixtures[name].im_form
        cd2 = extract_coupling(
            form.algebroid, form.ideal, form, plan(f"c2-{name}")
        )
        worst = max(worst, _coupling_distance(cd, cd2, plan(f"c2d-{name}")))
        form2 = coupling_to_im(cd2, plan=plan(f"c2f-{name}"))
        worst = max(worst, _form_distance(form, form2, plan(f"c2e-{name}")))
    # The connection-construction route as well.
    cd = fixtures["radial_cd"]
    form2 = coupling_to_im(cd, plan=plan("c2-rad"))
    cd2 = extract_coupling(
        form2.algebroid, form2.ideal, form2, plan("c2-rad2")
    )
    worst = max(worst, _coupling_distance(cd, cd2, plan("c2-rad3")))
    report_line(2, "round-trip exactness", worst < 1e-10, f"max {worst:.2e}")


def _coupling_distance(cd, cd2, p):
    worst = 0.0
    n = cd.base.chart.dim
    for pt in p.points(cd.base.chart, 40):
        for i in range(n):
            worst = max(worst, float(np.max(np.abs(cd.gamma_map.value(pt)[i] - cd2.gamma_map.value(pt)[i]))))
            for a in range(cd.base.rank):
                worst = max(worst, float(np.max(np.abs(cd.u_map.value(pt)[a, i] - cd2.u_map.value(pt)[a, i]))))
        for a in range(cd.base.rank):
            for b in range(cd.base.rank):
                for c in range(cd.base.rank):
                    worst = max(
                        worst,
                        abs(
                            evaluate(cd.base.structure[a][b][c], pt)
                            - evaluate(cd2.base.structure[a][b][c], pt)
                        ),
                    )
    return worst


def _form_distance(f1, f2, p):
    worst = 0.0
    n = f1.algebroid.chart.dim
    for pt in p.points(f1.algebroid.chart, 40):
        for a in range(f1.algebroid.rank):
            for i in range(n):
                worst = max(
                    worst,
                    float(np.max(np.abs(f1.op_map.value(pt)[a, i] - f2.op_map.value(pt)[a, i]))),
                )
            worst = max(
                worst,
                float(np.max(np.abs(f1.sym_map.value(pt)[a, 0] - f2.sym_map.value(pt)[a, 0]))),
            )
    return worst


def test_criterion_03_flatness_taxonomy(fixtures):
    c_prod, _ = classify_flatness(fixtures["product"].coupling, plan("c3a"))
    c_67, _ = classify_flatness(fixtures["principal_type_flat"].coupling, plan("c3b"))

    # Vanishing base anchor with a curved fiber connection and no mixed
    # tensor: leafwise only.
    from algebroids.algebroid import LieAlgebroid

    ch = Chart(2)
    B = LieAlgebroid(Bundle(ch, 1), [[ZERO], [ZERO]], [])
    fiber = FiberBracket.abelian(Bundle(ch, 1))
    nablaL = LinearConnection(fiber.bundle, [[[coord(1)]], [[ZERO]]])
    cd_leaf = CouplingData(B, fiber, nablaL, [[[ZERO], [ZERO]]])
    c_leaf, _ = classify_flatness(cd_leaf, plan("c3c"))

    ok = (
        c_prod == {"totally", "leafwise", "kernel"}
        and c_67 == {"kernel"}
        and c_leaf == {"leafwise"}
    )

    # Curvature pair vanishes exactly on the totally flat fixture.
    for name, expect_zero in (
        ("product", True),
        ("principal_type_flat", False),
        ("rank_one", False),
    ):
        cd = fixtures[name].coupling
        curv = curvature_im(cd)
        worst = 0.0
        for pt in plan(f"c3p-{name}").points(cd.base.chart, 30):
            for a in range(curv.algebroid.rank):
                worst = max(worst, float(np.max(np.abs(curv.op_map.value(pt)[a, 0]))))
                for i in range(2):
                    worst = max(worst, float(np.max(np.abs(curv.sym_map.value(pt)[a, i]))))
        classes, _ = classify_flatness(cd, plan(f"c3q-{name}"))
        ok = ok and (worst < 1e-9) == expect_zero == ("totally" in classes)
    report_line(3, "flatness taxonomy", ok,
                f"product {sorted(c_prod)}, kernel-flat {sorted(c_67)}, leafwise {sorted(c_leaf)}")


def test_criterion_04_kernel_flat_pair(fixtures):
    cd = fixtures["principal_type_flat"].coupling
    pair = kernel_flat_two_form(cd)
    rep = cd.base_rep_on_fiber()
    out = check_im_form(pair, rep, plan("c4"), tol=1e-8)
    ok = out.passed

    # Values lie in the numerically computed center.
    worst_center = 0.0
    B = cd.base
    for pt in plan("c4c").points(B.chart, 30):
        Z = center_basis(cd.fiber, pt)
        proj = Z @ Z.T
        for a in range(B.rank):
            for i in range(B.chart.dim):
                v = cd.u_map.value(pt)[a, i]
                worst_center = max(worst_center, float(np.max(np.abs(v - proj @ v))))
            v = pair.op_map.value(pt)[a, 0]  # on the pair (d_1, d_2)
            worst_center = max(worst_center, float(np.max(np.abs(v - proj @ v))))
    ok = ok and worst_center < 1e-7

    # The cochain contraction reproduces the anchor pairing of the
    # mixed tensor.
    ev = chain_map(pair)
    rng = plan("c4r").rng
    worst = 0.0
    for _ in range(6):
        al = random_section(B, rng)
        be = random_section(B, rng)
        vals = ev(al, be)
        for pt in plan("c4s").points(B.chart, 10):
            lam = np.zeros(cd.k)
            rho_b = np.array([evaluate(x, pt) for x in B.rho_of(be)])
            for a in range(B.rank):
                ca = evaluate(al[a], pt)
                for i in range(B.chart.dim):
                    lam += ca * rho_b[i] * cd.u_map.value(pt)[a, i]
            got = np.array([evaluate(x, pt) for x in vals])
            worst = max(worst, float(np.max(np.abs(got - lam))))
    ok = ok and worst < 1e-9
    report_line(4, "kernel-flat degree-2 pair", ok,
                f"center {worst_center:.1e}, cochain {worst:.1e}")


def test_criterion_05_transitive_uniqueness():
    build = SamplePlan(seed=SEED, samples=60)
    m = make_example(
        ExampleSpec("transitive", {"dim": 2, "fiber": "so3", "theta": [["x2", "0", "0"], ["0", "0", "0"]]}),
        build.fork("t"),
    )
    form = transitive_im_connection(m.algebroid, m.tau, build.fork("tau"))
    rep = canonical_representation(m.algebroid, m.ideal)
    out = check_im_form(form, rep, plan("c5"), tol=1e-8)
    ok = out.passed and out.extra["connection_predicate"]

    # A second form with the same symbol through the coupling route.
    cd = extract_coupling(m.algebroid, m.ideal, form, build.fork("ext"))
    form2 = coupling_to_im(cd, plan=build.fork("c2i"))
    worst = 0.0
    for pt in plan("c5d").points(m.algebroid.chart, 40):
        for a in range(m.algebroid.rank):
            for i in range(2):
                worst = max(
                    worst,
                    float(np.max(np.abs(form.op_map.value(pt)[a, i] - form2.op_map.value(pt)[a, i]))),
                )
    ok = ok and worst < 1e-9
    report_line(5, "transitive uniqueness", ok, f"agreement {worst:.2e}")


def test_criterion_06_cartan_criterion(fixtures):
    m = fixtures["radial"]
    form = fixtures["radial_form"]
    rep = canonical_representation(m.algebroid, m.ideal)
    out = check_im_form(form, rep, plan("c6"), tol=1e-8)
    ok = out.passed and form.is_connection()

    refused_residual = 0.0
    try:
        cartan_build_connection(
            m.algebroid, m.ideal, [[ONE, ZERO, ZERO]], m.connection,
            SamplePlan(seed=SEED, samples=60),
        )
        refused = False
    except ConstructionRefused as e:
        refused = True
        par = next(c for c in e.report.checks if c.name == "parallel_splitting")
        refused_residual = par.max_residual
    ok = ok and refused and refused_residual > 1e-3
    report_line(6, "connection-based construction", ok,
                f"refusal residual {refused_residual:.1e}")


def test_criterion_07_rank_one_equivalence():
    rng = np.random.default_rng(SEED)
    ch = Chart(2)
    from algebroids.algebroid import tangent_algebroid

    verdict_pairs = []
    h = eexp(coord(0))
    gauge_ok = True
    for trial in range(10):
        f = fold(
            add(
                mul(const(float(rng.uniform(-0.5, 0.5))), coord(0)),
                mul(const(float(rng.uniform(-0.5, 0.5))), coord(1)),
            )
        )
        theta = [differentiate(f, 0), differentiate(f, 1)]
        c = float(rng.uniform(0.5, 1.5))
        om = fold(mul(const(c), eexp(fold(neg(f)))))
        U1 = [[ZERO, om], [fold(neg(om)), ZERO]]
        if trial in (1, 4, 7):  # three deliberately broken fixtures
            theta = [fold(add(theta[0], coord(1))), theta[1]]
        B = tangent_algebroid(ch)
        fiber = FiberBracket.abelian(Bundle(ch, 1))
        nablaL = LinearConnection(fiber.bundle, [[[t]] for t in theta])
        U = [[[U1[a][i]] for i in range(2)] for a in range(2)]
        cd = CouplingData(B, fiber, nablaL, U)
        data = extract_rank_one(cd)
        v_intrinsic = check_structure_equations(cd, plan=plan(f"c7s{trial}")).passed
        v_trivial = check_rank_one(data, plan(f"c7r{trial}")).passed
        verdict_pairs.append((v_intrinsic, v_trivial))
        v_gauged = check_rank_one(gauge_transform(data, h), plan(f"c7g{trial}")).passed
        gauge_ok = gauge_ok and (v_gauged == v_trivial)
    agree = all(a == b for a, b in verdict_pairs)
    n_broken = sum(1 for a, _ in verdict_pairs if not a)
    ok = agree and gauge_ok and n_broken == 3
    report_line(7, "rank-one checker equivalence", ok,
                f"10 fixtures, {n_broken} broken, gauge stable {gauge_ok}")


def _so2_gpd():
    from algebroids.groupoid import ActionGroupoid, MatrixGroup

    G = MatrixGroup(2, [np.array([[0.0, -1.0], [1.0, 0.0]])])
    return ActionGroupoid(
        G, Chart(1), [coord(4)], ideal_frame=[[ONE]], complement=[],
        splitting=[[ONE]],
    )


def _so3_gpd():
    from algebroids.factory import so3_basis
    from algebroids.groupoid import ActionGroupoid, MatrixGroup

    G = MatrixGroup(3, so3_basis())
    ch = Chart(3, bounds=[(0.4, 1.2), (-0.8, 0.8), (-0.8, 0.8)], excluded_origin=True)
    action = [
        fold(add(*(mul(coord(3 * i + j), coord(9 + j)) for j in range(3))))
        for i in range(3)
    ]
    x = [coord(i) for i in range(3)]
    r2 = fold(add(mul(x[0], x[0]), mul(x[1], x[1]), mul(x[2], x[2])))
    from algebroids.expr import div

    return ActionGroupoid(
        G, ch, action,
        ideal_frame=[[x[0], x[1], x[2]]],
        complement=[[ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
        splitting=[[fold(div(x[i], r2)) for i in range(3)]],
    )


def test_criterion_08_groupoid_side():
    ok = True
    details = []
    for name, gpd in (("so2", _so2_gpd()), ("so3", _so3_gpd())):
        p = plan(f"c8-{name}")
        alpha = connection_from_splitting(gpd, plan=p.fork("conn"))
        conn = gpd.induced_connection()
        rep = check_groupoid_properties(
            gpd, alpha, conn, p.fork("props"), tol=1e-4,
            n_pairs=100, n_points=25,
        )
        ok = ok and rep.passed
        details.append(
            name + " " + ",".join(f"{c.name}={c.max_residual:.0e}" for c in rep.checks)
        )

    # Step halving improves the structure-equation residual until the
    # agreed floor.
    gpd = _so3_gpd()
    p = plan("c8-conv")
    alpha = connection_from_splitting(gpd, plan=p.fork("conn"))
    conn = gpd.induced_connection()

    def residual(step):
        rng = np.random.default_rng(17)
        dn = d_nabla_s(gpd, alpha, conn, step=step)
        worst = 0.0
        for _ in range(8):
            g, x = gpd.sample_arrow(rng)
            T1 = gpd.sample_tangent(rng)
            T2 = gpd.sample_tangent(rng)
            Omv = covariant_exterior_D(gpd, alpha, conn, step=step)(g, x, T1, T2)
            c = gpd.fiber_structure(x)
            br = np.einsum("a,b,abc->c", alpha(g, x, T1), alpha(g, x, T2), c)
            worst = max(worst, float(np.max(np.abs(Omv - dn(g, x, T1, T2) - br))))
        return worst

    rs = [residual(s) for s in (4e-2, 2e-2, 1e-2)]
    conv = all(b <= max(a / 2.0, 1e-6) for a, b in zip(rs, rs[1:]))
    ok = ok and conv
    report_line(8, "groupoid-side identities", ok,
                "; ".join(details) + f"; convergence {['%.1e' % r for r in rs]}")


def test_criterion_09_lie_functor():
    ok = True
    details = []
    for name, gpd in (("so2", _so2_gpd()), ("so3", _so3_gpd())):
        p = plan(f"c9-{name}")
        alpha = connection_from_splitting(gpd, plan=p.fork("conn"))
        nform = differentiate_to_im(gpd, alpha)
        A, ideal, _ = gpd.action_algebroid()
        rep = canonical_representation(A, ideal)
        out = check_im_form(nform, rep, p.fork("im"), tol=1e-6)
        ok = ok and out.passed and out.extra["connection_predicate"]
        ncd = numeric_extract_coupling(gpd, nform)
        se = check_structure_equations(ncd, plan=p.fork("se"), tol=1e-6)
        ok = ok and se.passed
        worst = max(
            [c.max_residual for c in out.checks] + [c.max_residual for c in se.checks]
        )
        details.append(f"{name} max {worst:.1e}")
    report_line(9, "groupoid-to-algebroid differentiation", ok, "; ".join(details))


def test_criterion_10_cli_determinism(tmp_path):
    import contextlib
    import io

    def invoke(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_run(args)
        return code, buf.getvalue()

    args = [
        "check-structure", "--model", str(MODELS / "principal_flat.json"),
        "--json", "--seed", "42", "--samples", "200",
    ]
    code1, out1 = invoke(args)
    code2, out2 = invoke(args)
    ok = out1 == out2 and code1 == code2 == 0
    code_fail, _ = invoke(
        ["check-structure", "--model", str(MODELS / "bad_u.json"), "--json"]
    )
    code_unknown = cli_run(["not-a-command"])
    code_missing, _ = invoke(["classify", "--model", str(tmp_path / "nope.json")])
    ok = ok and code_fail == 1 and code_unknown == 2 and code_missing == 3
    report_line(
        10, "CLI determinism and exit codes", ok,
        f"byte-identical {out1 == out2}; exits 0/{code_fail}/{code_unknown}/{code_missing}",
    )
