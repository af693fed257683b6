"""The algebroid axioms and the IM identities read from jets, random
sections' closed-form jets against their symbolic partials, and ideal
construction that checks only its defining clauses, on the random
stream of ``check_axioms``."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from algebroids import algebroid, bundles, expr, imforms
from algebroids.algebroid import (
    IdealBundle,
    LieAlgebroid,
    bracket,
    canonical_representation,
    check_axioms,
)
from algebroids.bundles import Bundle, PointMap
from algebroids.expr import ONE, ZERO, Chart, add, const, coord, differentiate, fold, mul, neg
from algebroids.factory import so3_constants
from algebroids.modelio import load_model
from algebroids.sampling import SamplePlan, polynomial_draws, polynomial_jets
from reference import polynomial, random_polynomial

MODELS = Path(__file__).resolve().parent.parent / "models"

CH2 = Chart(2)


def near_ideal(defect, anchor_defect=ZERO):
    """Rank 3 over the plane with e_1 almost an ideal: [e_2, e_1] has
    ``defect`` along e_3, and the anchor of e_1 is ``anchor_defect``
    along x_1; everything else vanishes."""
    # On the pairs (1, 2), (1, 3), (2, 3): [e_1, e_2] has -defect along e_3.
    struct = [[ZERO, ZERO, fold(neg(defect))], [ZERO] * 3, [ZERO] * 3]
    anchor = [[anchor_defect, ZERO, ZERO], [ZERO, ZERO, ZERO]]
    return LieAlgebroid(Bundle(CH2, 3), anchor, struct)


def test_ideal_bundle_honours_tol():
    A = near_ideal(const(1e-6))
    with pytest.raises(ValueError, match="ideal_bracket"):
        IdealBundle(A, 1, plan=SamplePlan(seed=1, samples=30))
    IdealBundle(A, 1, plan=SamplePlan(seed=1, samples=30), tol=1e-4)


def _ideal_checks(rep):
    return [
        (c.name, c.max_residual, c.tolerance)
        for c in rep.checks
        if c.name.startswith("ideal_")
    ]


@pytest.mark.parametrize("seed,samples", [(3, 60), (8, 10), (5, 200)])
def test_ideal_construction_checks_are_those_of_check_axioms(seed, samples):
    # Point-dependent defects, so equal residuals mean equal points.
    x = [coord(0), coord(1)]
    A = near_ideal(
        fold(mul(const(1e-6), add(ONE, mul(x[0], x[1])))),
        fold(mul(const(1e-12), x[0])),
    )
    construction = SamplePlan(seed, samples)
    built = algebroid._ideal_report(A, 1, construction, 1e-4)
    axioms = SamplePlan(seed, samples)
    full = check_axioms(A, IdealBundle(A, 1, verify=False), axioms, tol=1e-4)
    assert _ideal_checks(built) == _ideal_checks(full)
    assert len(built.checks) == 2 and all(c.max_residual > 0 for c in built.checks)
    assert construction.rng.bit_generator.state == axioms.rng.bit_generator.state
    # IdealBundle itself leaves the stream where check_axioms does.
    verified = SamplePlan(seed, samples)
    IdealBundle(A, 1, plan=verified, tol=1e-4)
    assert verified.rng.bit_generator.state == axioms.rng.bit_generator.state


# The Jacobiator and anchor-morphism defect as check_axioms built them
# before it read jets: nested symbolic brackets, evaluated per point,
# with the commutator of vector fields they read.
def _ref_vf_bracket(V, W, dim):
    out = []
    for i in range(dim):
        terms = []
        for j in range(dim):
            terms.append(mul(V[j], differentiate(W[i], j)))
            terms.append(neg(mul(W[j], differentiate(V[i], j))))
        out.append(fold(add(*terms)))
    return out


def symbolic_defects(A, triple, points):
    al, be, ga = triple
    jacobiator = [
        x + y + z
        for x, y, z in zip(
            bracket(A, bracket(A, al, be), ga),
            bracket(A, bracket(A, be, ga), al),
            bracket(A, bracket(A, ga, al), be),
        )
    ]
    anchor_defect = PointMap.exact([
        fold(add(x, neg(y)))
        for x, y in zip(
            A.rho_of(bracket(A, al, be)),
            _ref_vf_bracket(A.rho_of(al), A.rho_of(be), A.chart.dim),
        )
    ])
    jac_map = PointMap.exact(jacobiator)
    return (
        np.array([jac_map.value(p) for p in points]),
        np.array([anchor_defect.value(p) for p in points]),
    )


def perturbed_so3():
    """The rotation action algebroid with [e1, e2] = (1 + x1) e3, which
    breaks Jacobi (as in test_check_axioms_perturbed_fails)."""
    x = [coord(i) for i in range(3)]
    anchor = [
        [ZERO, neg(x[2]), x[1]],
        [x[2], ZERO, neg(x[0])],
        [neg(x[1]), x[0], ZERO],
    ]
    eps = so3_constants()
    pairs = itertools.combinations(range(3), 2)
    struct = [[const(float(eps[a, b, c])) for c in range(3)] for a, b in pairs]
    struct[0][2] = fold(add(ONE, coord(0)))  # the pair (1, 2)
    return LieAlgebroid(Bundle(Chart(3), 3), anchor, struct)


ALGEBROIDS = {
    **{
        m: lambda m=m: load_model(str(MODELS / f"{m}.json")).algebroid()
        for m in ("so3_radial", "product_so3", "principal_flat", "bad_structure")
    },
    "perturbed_so3": perturbed_so3,
}


# The anchor images and [a, b] as check_im_form read them before it
# read jets: symbolic rho_of, bracket and differentiate, evaluated per
# point. rho(x) and [a, b] are at [p, i], their partials at [p, i, j].
def symbolic_jets(A, alpha, beta, points):
    n = A.chart.dim

    def with_partials(exprs):
        values = PointMap.exact(exprs)
        partials = PointMap.exact([[differentiate(x, j) for j in range(n)] for x in exprs])
        return (
            np.array([values.value(p) for p in points]),
            np.array([partials.value(p) for p in points]),
        )

    return (
        *with_partials(A.rho_of(alpha)),
        *with_partials(A.rho_of(beta)),
        *with_partials(bracket(A, alpha, beta)),
    )


def assert_close(jet, sym):
    """Equal shapes and entries within 1e-12 of max(1, |value|) per point."""
    assert jet.shape == sym.shape
    flat = sym.reshape(len(sym), -1)
    scale = np.maximum(1.0, np.abs(flat).max(axis=1, keepdims=True))
    assert np.all(np.abs(jet.reshape(flat.shape) - flat) <= 1e-12 * scale)


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_jets_agree_with_the_symbolic_brackets(name):
    A = ALGEBROIDS[name]()
    for draws, points in algebroid._axiom_draws(A, SamplePlan(seed=9, samples=50)):
        triple = [[polynomial(t) for t in s] for s in draws]
        jets = algebroid._axiom_defects(A, draws, points)
        for jet, sym in zip(jets, symbolic_defects(A, triple, points)):
            assert_close(jet, sym)
        # What check_im_form reads of a pair.
        calc = algebroid._Jets(A, draws[:2], points)
        a, b = calc.sections
        read = (calc.rho(a), calc.drho(a), calc.rho(b), calc.drho(b), calc.bracket(a, b), calc.gradient(a, b))
        for jet, sym in zip(read, symbolic_jets(A, *triple[:2], points), strict=True):
            assert_close(jet, sym)


def test_axiom_checks_build_no_bracket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a checker built a symbolic bracket")

    model = load_model(str(MODELS / "so3_radial.json"))
    A = model.algebroid()
    monkeypatch.setattr(algebroid, "bracket", refuse)
    ideal = IdealBundle(A, model.ideal().k, plan=SamplePlan(seed=2, samples=60))
    assert check_axioms(A, ideal, SamplePlan(seed=2, samples=60)).passed

    # Nor does check_im_form.
    model = load_model(str(MODELS / "product_so3.json"))
    A, form = model.algebroid(), model.im_form()
    rep = canonical_representation(A, model.ideal())
    monkeypatch.setattr(imforms, "bracket", refuse)
    report = imforms.check_im_form(form, rep, SamplePlan(seed=2, samples=60))
    assert report.passed and [c.name for c in report.checks] == ["im_identity_2", "im_identity_3"]


def test_polynomial_jets_are_the_tapes_of_the_symbolic_partials():
    # Each drawn section's value, gradient and Hessian, bit for bit (signed
    # zeros included) as the tapes of polynomial(terms) and its symbolic
    # first and second partials give them.
    diagonal = 0
    for seed in range(24):
        rng = np.random.default_rng(seed)
        n, m = 1 + seed % 4, 1 + seed % 9
        polys = [polynomial_draws(n, rng) for _ in range(m)]
        ref = np.random.default_rng(seed)
        for _ in range(m):
            random_polynomial(Chart(n), ref)
        assert rng.bit_generator.state == ref.bit_generator.state
        diagonal += sum(len(mono) == 2 and mono[0] == mono[1] for t in polys for _, mono in t)

        points = [rng.uniform(-2, 2, size=n) for _ in range(7)]
        points[0][0] = 0.0
        points[-1][-1] = -0.0
        f = [polynomial(t) for t in polys]
        df = [[differentiate(x, j) for j in range(n)] for x in f]
        ddf = [[[differentiate(y, i) for i in range(n)] for y in row] for row in df]
        want = [PointMap.exact(e) for e in (f, df, ddf)]
        got = polynomial_jets(polys, points)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == np.array([w.value(p) for p in points]).tobytes()
    assert diagonal > 20


def _compiles(monkeypatch, run):
    """The number of tapes compiled while ``run()`` runs."""
    count = 0
    compile_tape = expr.compile_tape

    def counted(exprs):
        nonlocal count
        count += 1
        return compile_tape(exprs)

    with monkeypatch.context() as mp:
        mp.setattr(expr, "compile_tape", counted)
        mp.setattr(bundles, "compile_tape", counted)
        run()
    return count


def _axioms(samples):
    model = load_model(str(MODELS / "so3_radial.json"))
    A = model.algebroid()
    return lambda: check_axioms(A, model.ideal(), SamplePlan(seed=3, samples=samples))


def _flatness(pairs):
    model = load_model(str(MODELS / "so3_radial.json"))
    rep = canonical_representation(model.algebroid(), model.ideal())
    return lambda: rep.flatness_residual(SamplePlan(seed=3), n_pairs=pairs)


def _im(samples):
    model = load_model(str(MODELS / "product_so3.json"))
    rep = canonical_representation(model.algebroid(), model.ideal())
    form = model.im_form()
    return lambda: imforms.check_im_form(form, rep, SamplePlan(seed=3, samples=samples))


# check_axioms and check_im_form draw 2 section sets at 50 samples and 10
# at 250, flatness_residual one per pair: a tape compiled per draw would
# show as a count that grows with them.
@pytest.mark.parametrize("check, few, many", [(_axioms, 50, 250), (_flatness, 2, 6), (_im, 50, 250)])
def test_sampled_checks_compile_no_tape_per_draw(monkeypatch, check, few, many):
    count = _compiles(monkeypatch, check(few))
    assert count > 0 and _compiles(monkeypatch, check(many)) == count
