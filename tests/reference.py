"""Symbolic references that the tests compare the library against.

The library reads every object through point maps and turns each
identity into a contraction over stacked reads.  The functions here
build the same quantities as Exprs instead, one section or form at a
time: a probabilistic equality of two Exprs, random polynomial
sections, the representation and the cochain contraction on sections,
with a signed lookup of a form's value on any index tuple, the
covariant differential ``d_im`` on form pairs with its invariance
precondition, and the sampled residuals that no subcommand reports;
and the permutation loop that spread increasing-tuple values over an
antisymmetric array before ``bundles.alternating_array`` read cached
positions.  No subcommand, demo or tool runs them.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from algebroids.algebroid import (
    ARepresentation,
    BasicCurvature,
    ConstructionRefused,
    LieAlgebroid,
    bracket,
    directional,
)
from algebroids.bundles import (
    LinearConnection,
    PointMap,
    _curvature,
    _stack,
    exterior_covariant_derivative,
    sort_with_sign,
)
from algebroids.expr import (
    ONE,
    ZERO,
    Chart,
    EvalError,
    Expr,
    _sample_point,
    add,
    compile_tape,
    const,
    coord,
    evaluate,
    fold,
    mul,
    neg,
)
from algebroids.groupoid import ActionGroupoid, MultForm
from algebroids.imforms import IMOneForm, IMTwoForm
from algebroids.sampling import Report, SamplePlan, polynomial_draws, sup

# -- arrays ----------------------------------------------------------------


def alternating_by_permutations(entries: np.ndarray, n: int, q: int) -> np.ndarray:
    """``bundles.alternating_array`` by a loop over the reorderings of
    each increasing q-tuple, each written with its sign."""
    out = np.zeros(entries.shape[:-2] + (n,) * q + entries.shape[-1:], dtype=entries.dtype)
    for c, idx in enumerate(itertools.combinations(range(n), q)):
        for perm in itertools.permutations(idx):
            value = entries[..., c, :]
            out[(..., *perm, slice(None))] = value if sort_with_sign(perm)[0] == 1 else -value
    return out


# -- expressions -----------------------------------------------------------


def expr_equal(
    a: Expr,
    b: Expr,
    chart: Chart,
    tol: float = 1e-10,
) -> bool:
    """Probabilistic expression equality: evaluate both sides on 32
    random chart points, drawn with seed 7, and compare within ``tol``.
    Points at which either side fails to evaluate (poles) are resampled;
    a NaN or inf value on either side means the expressions are not
    equal."""
    rng = np.random.default_rng(7)
    tape = compile_tape((a, b))
    checked = 0
    attempts = 0
    while checked < 32:
        attempts += 1
        if attempts > 50 * 32:
            raise EvalError("could not find enough pole-free sample points", a)
        p = _sample_point(chart, rng)
        try:
            va, vb = evaluate(tape, p)
        except EvalError:
            continue
        if not (math.isfinite(va) and math.isfinite(vb)):
            return False
        if abs(va - vb) > tol * (1.0 + max(abs(va), abs(vb))):
            return False
        checked += 1
    return True


# -- random sections -------------------------------------------------------


def polynomial(terms: list[tuple[float, tuple[int, ...]]]) -> Expr:
    """The folded sum of the (coefficient, monomial) terms of
    ``polynomial_draws``."""
    return fold(add(*(mul(const(c), *map(coord, m)) for c, m in terms)))


def random_polynomial(chart: Chart, rng: np.random.Generator) -> Expr:
    """Random polynomial of degree <= 2 with coefficients in [-1, 1]: the
    stock random section's component, from the terms the checkers draw."""
    return polynomial(polynomial_draws(chart.dim, rng))


def random_section(A: LieAlgebroid, rng: np.random.Generator) -> list[Expr]:
    return [random_polynomial(A.chart, rng) for _ in range(A.rank)]


def frame_section(A: LieAlgebroid, a: int) -> list[Expr]:
    """The a-th frame element e_a, as a section."""
    return [ONE if b == a else ZERO for b in range(A.rank)]


# -- forms and representations on sections ---------------------------------
#
# A form is in the layout of ``bundles``: one value vector per strictly
# increasing index tuple, in ``itertools.combinations`` order.


def component(form, idx: Sequence[int], n: int, rank: int) -> list[Expr]:
    """The signed value of a form of rank-``rank`` vectors on an
    arbitrary tuple of the n chart directions."""
    sign, key = sort_with_sign(idx)
    if sign == 0:
        return [ZERO] * rank
    vec = form[list(itertools.combinations(range(n), len(key))).index(key)]
    return list(vec) if sign == 1 else [fold(neg(v)) for v in vec]


def scale(form, f: Expr) -> list[list[Expr]]:
    return [[fold(mul(f, v)) for v in vec] for vec in form]


def form_sum(f, g) -> list[list[Expr]]:
    if len(f) != len(g):
        raise ValueError("form mismatch")
    return [[a + b for a, b in zip(u, v)] for u, v in zip(f, g)]


def form_difference(f, g) -> list[list[Expr]]:
    return form_sum(f, scale(g, const(-1)))


def contract(form, X: Sequence[Expr], degree: int, n: int, rank: int) -> list[list[Expr]]:
    """Interior product i_X of a form of the given degree with a vector
    field (n Exprs): the first slot is contracted."""
    if degree == 0:
        raise ValueError("cannot contract a 0-form")
    out = []
    for rest in itertools.combinations(range(n), degree - 1):
        vec = [ZERO] * rank
        for i in range(n):
            comp = component(form, (i,) + rest, n, rank)
            for c in range(rank):
                vec[c] = add(vec[c], mul(X[i], comp[c]))
        out.append([fold(v) for v in vec])
    return out


def sym_of(form, alpha: Sequence[Expr]) -> list[list[Expr]]:
    """The symbol of an exact form pair applied to a section (tensorial):
    a form of degree one less than the pair's."""
    S = form.sym_map.exprs
    out = [[ZERO] * form.value_rank for _ in S[0]]
    for a in range(form.algebroid.rank):
        if alpha[a] != ZERO:
            out = form_sum(out, scale(S[a], alpha[a]))
    return out


def l_of(form: IMOneForm, alpha: Sequence[Expr]) -> list[Expr]:
    """The symbol matrix of a degree-1 pair applied to a section."""
    rV, r = form.value_rank, form.algebroid.rank
    return [fold(add(*(mul(form.l[c][a], alpha[a]) for a in range(r)))) for c in range(rV)]


def apply(rep: ARepresentation, alpha: Sequence[Expr], comps: Sequence[Expr]) -> list[Expr]:
    """nabla_alpha of a V-coefficient vector."""
    ra = rep.algebroid.rho_of(alpha)
    rV = rep.bundle.rank
    out = []
    for d in range(rV):
        terms = [directional(ra, comps[d])]
        for b in range(rep.algebroid.rank):
            if alpha[b] == ZERO:
                continue
            for c in range(rV):
                if comps[c] == ZERO or rep.coeffs[b][d][c] == ZERO:
                    continue
                terms.append(mul(alpha[b], rep.coeffs[b][d][c], comps[c]))
        out.append(fold(add(*terms)))
    return out


# -- the covariant differential and the cochain map -------------------------


def check_A_invariant(
    conn: LinearConnection, rep: ARepresentation, plan: SamplePlan, tol: float = 1e-9
) -> Report:
    """Invariance of a linear connection under an algebroid
    representation: the representation agrees with the connection along
    the anchor, and the curvature is killed by anchored directions."""
    if conn.bundle != rep.bundle:
        raise ValueError("connection and representation bundles differ")
    A = rep.algebroid
    report = Report(command="check-A-invariant", seed=plan.seed, samples=plan.samples)
    pts = plan.points(A.chart, min(plan.samples, 60))
    # A non-finite read gives a non-finite residual, which fails.
    with np.errstate(invalid="ignore", over="ignore"):
        M, rho, G, dG = _stack(
            pts,
            rep.coeffs_map.value,
            A.anchor_map.value,
            conn.gamma_map.value,
            conn.gamma_map.partials,
        )
        # Condition 1: coefficient matrices match sum_i rho^i_b Gamma_i.
        compat = M - np.einsum("pib,pidc->pbdc", rho, G)
        # Condition 2: curvature contracted with the anchor vanishes.
        contraction = np.einsum("pib,pijdc->pbjdc", rho, _curvature(G, dG))
    report.add("invariance_anchor_compatibility", compat, tol)
    report.add("invariance_curvature_contraction", contraction, tol)
    return report


def d_im(
    conn: LinearConnection, form: IMOneForm, rep: ARepresentation, plan: SamplePlan, tol: float = 1e-9
) -> IMTwoForm:
    """Covariant differential on degree-1 form pairs:
    (L, l) -> (d_conn L, L - d_conn l).  The connection must be
    invariant under the representation (``check_A_invariant``); the
    construction is refused otherwise.

    Sign convention: applied to the connection form of a coupling with
    conn the coupling's own fiber connection, the result coincides
    exactly with ``curvature_im`` of that coupling, with no sign flip.
    """
    inv = check_A_invariant(conn, rep, plan.fork("inv"), tol=tol)
    if not inv.passed:
        raise ConstructionRefused("connection is not invariant", inv)
    if conn.bundle != form.value_bundle:
        raise ValueError("connection must live on the form's value bundle")
    symbols = []
    frames = []
    for sym, op in zip(form.sym_map.exprs, form.op_map.exprs):
        dsym = exterior_covariant_derivative(conn, sym, 0)
        symbols.append(form_difference(op, dsym))
        frames.append(exterior_covariant_derivative(conn, op, 1))
    value = form.ideal if form.ideal is not None else form.value_bundle
    return IMTwoForm(form.algebroid, value, symbols, frames)


def chain_map(form) -> Callable[..., list[Expr]]:
    """The algebroid cochain of an exact form pair, contracting the
    symbol with anchors: omega(a_1, ..., a_k) = sym(a_1)(rho(a_2), ...)."""
    A = form.algebroid

    def omega(*sections: Sequence[Expr]) -> list[Expr]:
        if len(sections) != form.degree:
            raise ValueError(f"expected {form.degree} sections")
        out = sym_of(form, sections[0])
        for q, s in zip(range(form.degree - 1, 0, -1), sections[1:]):
            out = contract(out, A.rho_of(s), q, A.chart.dim, form.value_rank)
        return list(out[0])

    return omega


def cochain_differential(rep: ARepresentation, omega: Callable[..., list[Expr]]) -> Callable[..., list[Expr]]:
    """Algebroid cochain differential of a degree-1 cochain, using the
    representation for the coefficient action."""
    A = rep.algebroid

    def d_omega(alpha: Sequence[Expr], beta: Sequence[Expr]) -> list[Expr]:
        t1 = apply(rep, alpha, omega(beta))
        t2 = apply(rep, beta, omega(alpha))
        t3 = omega(bracket(A, alpha, beta))
        return [fold(add(x, neg(y), neg(z))) for x, y, z in zip(t1, t2, t3)]

    return d_omega


# -- sampled residuals no subcommand reports --------------------------------


def cartan_residual(bc: BasicCurvature, plan: SamplePlan, n_points: int = 24) -> float:
    """Max entry of the basic curvature over frame pairs and coordinate
    directions (the tensor property makes frame evaluation sufficient)."""
    pts = plan.points(bc.A.chart, n_points)
    a, b = np.triu_indices(bc.A.rank, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        return sup(bc._frame_values(pts)[:, a, b])


def antisymmetry_residual(form: MultForm, plan: SamplePlan, n_samples: int = 20) -> float:
    """Max of omega(T1, T2) + omega(T2, T1) for a degree-2 form at random
    arrows and tangents."""
    if form.degree != 2:
        raise ValueError(f"antisymmetry is measured on degree 2 forms, not degree {form.degree}")
    defects = []
    for _ in range(n_samples):
        g, x = form.gpd.sample_arrow(plan.rng)
        T1 = form.gpd.sample_tangent(plan.rng)
        T2 = form.gpd.sample_tangent(plan.rng)
        defects.append(form(g, x, T1, T2) + form(g, x, T2, T1))
    return sup(np.array(defects))


def delta_of_function(gpd: ActionGroupoid, f: Sequence[Expr]) -> MultForm:
    """Degree-zero simplicial differential of a fiber-valued function on
    the chart: the degree-0 form (g, x) -> coefficients over x."""
    if len(f) != gpd.k:
        raise ValueError("function must have one coefficient per ideal frame section")

    fmap = PointMap.exact(f)

    def F(g, x):
        y = gpd.act(g, x)
        return gpd.twist(g, x, fmap.value(y)) - fmap.value(np.asarray(x, dtype=float))

    return MultForm(gpd, 0, F)
