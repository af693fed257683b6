"""Ideal-valued connection 1-forms on Lie algebroids, their coupling
data, structure equations, semidirect rebuilds, curvature 2-forms,
flatness classes, the covariant differential on such forms, and the
map to algebroid cochains.

A degree-k form is stored by its frame values plus the extension rule
    L(f e_a) = f L(e_a) + df ^ sym(e_a),
which makes the symbol equation hold by construction; the checkers
therefore only test the three compatibility identities.

Each object is one ``bundles.PointMap``, which checkers read whole: a
form its symbol ``sym_map`` and its operator ``op_map``, a coupling
its Gamma ``gamma_map`` and its mixed tensor ``u_map``.  Exact data
fills the maps from its Exprs, with symbolic partials; sampled data
from the groupoid side (``NumericIMOneForm``, ``NumericCouplingData``)
fills them from point evaluators of whole arrays, with partials by the
one finite-difference stencil ``fd_partial``.  Both run through the
same checkers; ``exact`` tells them apart where a check needs the
Exprs themselves.  A caller that wants one entry slices a whole read,
``form.op_map.value(p)[a, c]`` or ``cd.u_map.partials(p)[j, a, i]``.

A checker reads each map and its partials once per point and
stacks the reads of a draw into arrays with the point axis first
(``_stack``; a form's entries as antisymmetric arrays,
``_form_reads``).  Every identity is then a tensor contraction over
these arrays, under ``np.errstate(invalid="ignore", over="ignore")``,
and the check hands the defect arrays to ``Report.add``, which reduces
them through ``sampling.sup``: a non-finite read gives a non-finite
residual, which fails.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Sequence

import numpy as np

from .algebroid import (
    ARepresentation,
    ConstructionRefused,
    IdealBundle,
    LieAlgebroid,
    _Jets,
    bracket,
    canonical_representation,
    check_A_invariant,
)
from .bundles import (
    Bundle,
    CoeffForm,
    FiberBracket,
    LinearConnection,
    PointMap,
    Section,
    _anchored,
    _curvature,
    _stack,
    alternating_array,
    curvature_tensor,
    exact_memo,
    exterior_covariant_derivative,
    zero_form,
)
from .expr import (
    Expr,
    ONE,
    ZERO,
    add,
    const,
    differentiate,
    fold,
    mul,
    neg,
)
from .sampling import Report, SamplePlan, polynomial_draws, sup

__all__ = [
    "IMOneForm",
    "IMTwoForm",
    "NumericIMOneForm",
    "CouplingData",
    "NumericCouplingData",
    "sampled_map",
    "check_im_form",
    "extract_coupling",
    "quotient_algebroid",
    "coupling_to_im",
    "check_structure_equations",
    "build_semidirect",
    "curvature_im",
    "classify_flatness",
    "d_im",
    "chain_map",
    "CochainEvaluator",
    "center_basis",
    "CenterDegeneracyError",
    "FLATNESS_ORDER",
]

FLATNESS_ORDER = ("totally", "leafwise", "kernel")


class CenterDegeneracyError(Exception):
    """The fiberwise center does not have constant rank over the sample."""


def _value_bundle(value) -> Bundle:
    return value.bundle if isinstance(value, IdealBundle) else value


class _IMFormBase:
    """Shared storage for degree-1 and degree-2 forms.

    The checkers read a form whole, through two point maps: the symbol
    ``sym_map`` and the operator ``op_map``, each at [a, c, v] on the
    a-th frame element and the c-th strictly increasing index tuple (in
    ``itertools.combinations`` order) of degree k - 1 and k; one entry
    is a slice of a whole read, and ``bundles.alternating_array`` gives
    the signed entries on every index tuple, as ``CoeffForm.component``
    does for the Exprs.  An exact form also keeps its symbol and
    operator as CoeffForms in ``symbols`` and ``frame_values``; a
    sampled form has only point maps.
    """

    degree: int
    symbols = frame_values = None

    def __init__(
        self,
        algebroid: LieAlgebroid,
        value,
        symbols: Sequence[CoeffForm],
        frame_values: Sequence[CoeffForm],
    ):
        vb = _value_bundle(value)
        if len(symbols) != algebroid.rank or len(frame_values) != algebroid.rank:
            raise ValueError("one symbol and one frame value per frame element")
        for s in symbols:
            if s.bundle != vb or s.degree != self.degree - 1:
                raise ValueError("symbol degree/bundle mismatch")
        for f in frame_values:
            if f.bundle != vb or f.degree != self.degree:
                raise ValueError("frame value degree/bundle mismatch")
        self.symbols = tuple(symbols)
        self.frame_values = tuple(frame_values)
        self._bind(algebroid, value, _form_map(symbols), _form_map(frame_values))

    def _bind(self, algebroid, value, sym_map, op_map) -> None:
        self.algebroid = algebroid
        self.ideal = value if isinstance(value, IdealBundle) else None
        self.value_bundle = _value_bundle(value)
        self.sym_map = sym_map
        self.op_map = op_map

    @property
    def exact(self) -> bool:
        """Whether the form carries its Exprs (else it is sampled)."""
        return self.frame_values is not None

    @property
    def value_rank(self) -> int:
        return self.value_bundle.rank

    # Symbolic evaluation on sections.
    def sym_of(self, alpha: Section) -> CoeffForm:
        """The symbol applied to a section (tensorial)."""
        out = zero_form(self.value_bundle, self.degree - 1)
        for a in range(self.algebroid.rank):
            ca = alpha.components[a]
            if ca == ZERO:
                continue
            out = out + self.symbols[a].scale(ca)
        return out


class IMOneForm(_IMFormBase):
    """Vector-bundle-valued 1-form pair (L, l) on an algebroid, stored
    by frame values.  ``l`` is the r_V x r symbol matrix; when the value
    bundle is a bundle of ideals whose columns carry the identity, the
    form is an Ehresmann connection form.
    """

    degree = 1

    def __init__(self, algebroid, value, l, frame_values):
        vb = _value_bundle(value)
        rV, r = vb.rank, algebroid.rank
        if len(l) != rV or any(len(row) != r for row in l):
            raise ValueError("symbol must be an r_V x r Expr matrix")
        self.l = tuple(tuple(fold(x) for x in row) for row in l)
        symbols = [
            CoeffForm(vb, 0, {(): [self.l[c][a] for c in range(rV)]})
            for a in range(r)
        ]
        super().__init__(algebroid, value, symbols, frame_values)

    def is_connection(self) -> bool:
        """Exact predicate: the symbol restricts to the identity on the
        ideal columns."""
        if self.ideal is None:
            return False
        k = self.ideal.k
        for c in range(self.ideal.bundle.rank):
            for a in range(k):
                want = ONE if c == a else ZERO
                if self.l[c][a] != want:
                    return False
        return True

    def l_of(self, alpha: Section) -> list[Expr]:
        rV, r = self.value_rank, self.algebroid.rank
        return [
            fold(add(*(mul(self.l[c][a], alpha.components[a]) for a in range(r))))
            for c in range(rV)
        ]


class IMTwoForm(_IMFormBase):
    """Degree-2 analogue: the symbol maps frame elements to value-bundle
    valued 1-forms, the operator to 2-forms."""

    degree = 2

    def is_connection(self) -> bool:
        return False


def _form_map(forms: Sequence[CoeffForm]) -> PointMap:
    """One point map of forms of one bundle and degree: the a-th form's
    value on the c-th strictly increasing index tuple at [a, c, v]."""
    bundle, q = forms[0].bundle, forms[0].degree
    keys = list(itertools.combinations(range(bundle.chart.dim), q))
    grid = np.empty((len(forms), len(keys), bundle.rank), dtype=object)
    for a, form in enumerate(forms):
        for c, key in enumerate(keys):
            grid[a, c] = form.component(key)
    return PointMap.exact(grid)


def fd_partial(fn: Callable[[np.ndarray], np.ndarray], j: int, p, h: float) -> np.ndarray:
    """Fourth-order central difference of a point evaluator along the
    j-th coordinate; keeps finite-difference noise well below the
    derivative tolerances of the numerically-backed checkers."""
    p = np.asarray(p, dtype=float)

    def at(s: float) -> np.ndarray:
        q = p.copy()
        q[j] += s
        return np.asarray(fn(q))

    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


# One point of a 3-dimensional chart fills 14 entries of a map's memo
# (its value, its partials and their 12 stencil values), so the bound
# holds the last few points a checker reads.
SAMPLED_MEMO_ENTRIES = 64


def sampled_map(fn: Callable[[np.ndarray], np.ndarray], h: float) -> PointMap:
    """Point map of a point evaluator; partials by ``fd_partial`` with
    step h, looping over the directions j in order.

    Values and partials share one ``exact_memo`` keyed by ``(None or n,
    p)`` and bounded at ``SAMPLED_MEMO_ENTRIES``, and the stencil reads
    its shifted values through it, so a pure evaluator runs once per
    distinct point while the memo holds it.
    """
    at = exact_memo(  # None: the value; n: the partials along x_1..x_n
        lambda n, p: fn(p) if n is None else [fd_partial(value, j, p, h) for j in range(n)],
        SAMPLED_MEMO_ENTRIES,
    )
    value = functools.partial(at, None)
    return PointMap(value, lambda p: at(len(p), p))


class NumericIMOneForm(_IMFormBase):
    """Sampled connection form from the groupoid side: the symbol at [a,
    v] and the operator at [a, i, v], on each frame element a and chart
    direction i, are point evaluators, differentiated by the
    finite-difference stencil."""

    degree = 1

    def __init__(
        self,
        algebroid: LieAlgebroid,
        ideal: IdealBundle,
        sym_fn: Callable[[np.ndarray], np.ndarray],
        op_fn: Callable[[np.ndarray], np.ndarray],
        fd_step: float = 2e-3,
    ):
        sym_map = sampled_map(lambda x: sym_fn(x)[:, None], fd_step)
        self._bind(algebroid, ideal, sym_map, sampled_map(op_fn, fd_step))


def _connection_residual(form, plan: SamplePlan) -> float:
    """The symbol-restricts-to-identity predicate, sampled at 30 points."""
    k = form.ideal.k
    points = plan.points(form.algebroid.chart, 30)
    (S,) = _stack(points, form.sym_map.value)
    return sup(S[:, :k, 0] - np.eye(form.value_rank)[:k])


def _form_reads(form, points):
    """The form's symbol S, operator O and their partials dS, dO at the
    points, each map read whole once per point and stacked as an
    antisymmetric array: S[p, a, i...] and O[p, a, i...] on the a-th
    frame element, dS[p, j, a, i...] and dO[p, j, a, i...] along x_j,
    the value index last."""
    n, k = form.algebroid.chart.dim, form.degree
    sym, op = form.sym_map, form.op_map
    stacks = _stack(points, sym.value, sym.partials, op.value, op.partials)
    return [alternating_array(x, n, q) for x, q in zip(stacks, (k - 1, k - 1, k, k))]


def _alt(T: np.ndarray, axis: int) -> np.ndarray:
    """sum_t (-1)^t T with the index axis ``axis`` moved t places to the
    right, among the index axes after it (all axes but the last): the
    antisymmetrization of a slot contracted into an alternating array."""
    out = T
    for t in range(1, T.ndim - axis - 1):
        out = out + (-1) ** t * np.moveaxis(T, axis, axis + t)
    return out


def _on_section(reads, val, jac, hess):
    """L, dL, sym and dsym of the form on one section at each point, from
    the section's values val[p, a], gradients jac[p, a, j] and Hessians
    hess[p, a, j, i] and the form's stacked reads (``_form_reads``); the
    operator by the extension rule L(f e_a) = f L(e_a) + df ^ sym(e_a).
    dL[p, j, ...] and dsym[p, j, ...] are partials along x_j; without
    the Hessians, dL and dsym are None."""
    S, dS, O, dO = reads
    L = np.einsum("pa,pa...->p...", val, O) + _alt(np.einsum("pai,pa...->pi...", jac, S), 1)
    sym = np.einsum("pa,pa...->p...", val, S)
    if hess is None:
        return L, None, sym, None
    dL = (
        np.einsum("paj,pa...->pj...", jac, O)
        + np.einsum("pa,pja...->pj...", val, dO)
        + _alt(
            np.einsum("paji,pa...->pji...", hess, S) + np.einsum("pai,pja...->pji...", jac, dS), 2
        )
    )
    dsym = np.einsum("paj,pa...->pj...", jac, S) + np.einsum("pa,pja...->pj...", val, dS)
    return L, dL, sym, dsym


def _lie(M, val, rho, drho, T, dT):
    """Lie derivative along a section, given at each point by its values
    val[p, b], anchor image rho[p, j] and the image's partials drho[p, m,
    i] = d_i rho^m, of a V-valued form T[p, i..., v] with partials
    dT[p, j, i..., v]: the directional derivative along the anchor, the
    representation matrices M[p, b] on the values, and the commutators
    with the coordinate fields on the arguments."""
    out = np.einsum("pj,pj...->p...", rho, dT) + np.einsum("pb,pbvw,p...w->p...v", val, M, T)
    if T.ndim > 2:
        out = out + _alt(np.einsum("pmi,pm...->pi...", drho, T), 1)
    return out


def check_im_form(
    form,
    rep: ARepresentation,
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
) -> Report:
    """Verify the compatibility identities of a degree-1 or degree-2
    form pair against a representation, on random polynomial sections at
    sampled points.  Also reports the connection predicate.

    The sections are drawn as terms (``polynomial_draws``, as
    ``random_section`` draws them); their closed-form 2-jets, anchor
    images and [a, b] with its gradient come from ``algebroid._Jets``,
    so no Expr is built.  Each form map is read whole once per point
    (``_form_reads``); L, sym, their partials, the Lie derivatives and
    the identities are then contractions over the draw's points.
    """
    if rep.bundle != form.value_bundle:
        raise ValueError("representation must act on the form's value bundle")
    plan = plan or SamplePlan()
    A = form.algebroid
    k = form.degree
    report = Report(command="check-im", seed=plan.seed, samples=plan.samples)
    draws, pts = plan.split_budget(per_draw=20)
    draws = max(2, min(draws, 10))

    defects = {1: [], 2: [], 3: []}
    # An inf in the jets or the form gives a NaN residual, which fails.
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(draws):
            alpha, beta = ([polynomial_draws(A.chart.dim, plan.rng) for _ in range(A.rank)] for _ in range(2))
            points = plan.points(A.chart, pts)
            jets = _Jets(A, (alpha, beta), points)
            a, b = jets.sections
            reads = _form_reads(form, points)
            (M,) = _stack(points, rep.coeffs_map.value)
            rho_a, rho_b = jets.rho(a), jets.rho(b)
            lie_a = functools.partial(_lie, M, a[0], rho_a, jets.drho(a))
            lie_b = functools.partial(_lie, M, b[0], rho_b, jets.drho(b))
            La, dLa, Sa, dSa = _on_section(reads, *a)
            Lb, dLb, Sb, dSb = _on_section(reads, *b)
            # [a, b] is read by L and sym only, which need no Hessian.
            Lg, _, Sg, _ = _on_section(reads, jets.bracket(a, b), jets.gradient(a, b), None)

            if k == 2:
                # identity 1: i_{rho(a)} sym(b) + i_{rho(b)} sym(a) = 0
                defects[1].append(np.einsum("pi,piv->pv", rho_a, Sb) + np.einsum("pi,piv->pv", rho_b, Sa))
            # identity 2: L([a,b]) = Lie_a L(b) - Lie_b L(a)
            defects[2].append(Lg - lie_a(Lb, dLb) + lie_b(La, dLa))
            # identity 3: sym([a,b]) = Lie_a sym(b) - i_{rho(b)} L(a)
            defects[3].append(Sg - lie_a(Sb, dSb) + np.einsum("pi,pi...->p...", rho_b, La))

    for i in (1, 2, 3) if k == 2 else (2, 3):
        report.add(f"im_identity_{i}", np.array(defects[i]), tol)

    if k == 1 and form.exact:
        report.extra["connection_predicate"] = form.is_connection()
    elif k == 1:
        res = _connection_residual(form, plan.fork("connpred"))
        report.extra["connection_predicate"] = bool(res < 1e-6)
        report.extra["connection_predicate_residual"] = float(res)
    return report


class CouplingData:
    """Quotient algebroid, fiberwise Lie algebra, a linear connection on
    the fiber bundle, and the mixed tensor; everything symbolic.

    ``U[a][i]`` is the fiber coefficient vector of the tensor evaluated
    on the a-th base frame element and the i-th coordinate direction.
    The checkers read the connection and the tensor whole, through the
    point maps ``gamma_map`` at [i, e, c] and ``u_map`` at [a, i, e].
    """

    def __init__(
        self,
        base: LieAlgebroid,
        fiber: FiberBracket,
        nablaL: LinearConnection,
        U: Sequence[Sequence[Sequence[Expr]]],
        verify_skew: bool = True,
        plan: SamplePlan | None = None,
    ):
        if fiber.bundle.chart != base.chart:
            raise ValueError("base and fiber must share the chart")
        if nablaL.bundle != fiber.bundle:
            raise ValueError("connection must live on the fiber bundle")
        rB, n, kk = base.rank, base.chart.dim, fiber.bundle.rank
        if len(U) != rB or any(len(row) != n for row in U):
            raise ValueError("U must be indexed by base frame x chart direction")
        self.nablaL = nablaL
        self.U = tuple(
            tuple(tuple(fold(x) for x in vec) for vec in row) for row in U
        )
        for row in self.U:
            for vec in row:
                if len(vec) != kk:
                    raise ValueError("U entries must be fiber coefficient vectors")
        self._bind(base, fiber, nablaL.gamma_map, PointMap.exact(self.U))
        if verify_skew:
            res = self.skew_residual(plan or SamplePlan(seed=42, samples=40))
            if res > 1e-9:
                raise ValueError(
                    f"mixed tensor is not anchor-skew (residual {res:.2e})"
                )

    def _bind(self, base, fiber, gamma_map, u_map) -> None:
        self.base = base
        self.fiber = fiber
        self.gamma_map = gamma_map
        self.u_map = u_map
        self._semidirect = None

    @property
    def exact(self) -> bool:
        """Whether the coupling carries its Exprs (else it is sampled)."""
        return self.U is not None

    @property
    def k(self) -> int:
        return self.fiber.bundle.rank

    def u_form(self, a: int) -> CoeffForm:
        """U on the a-th base frame element, as a fiber-valued 1-form."""
        n = self.base.chart.dim
        return CoeffForm(
            self.fiber.bundle, 1, {(i,): list(self.U[a][i]) for i in range(n)}
        )

    def skew_residual(self, plan: SamplePlan) -> float:
        """The largest entry of U(a, rho(b)) + U(b, rho(a)) at 30 sampled
        points."""
        B = self.base
        pts = plan.points(B.chart, 30)
        with np.errstate(invalid="ignore", over="ignore"):
            rho, U = _stack(pts, B.anchor_map.value, self.u_map.value)
            W = _anchored(rho, U)
            return sup(W + W.swapaxes(1, 2))

    def base_rep_on_fiber(self) -> ARepresentation:
        """The base acting on the fiber bundle through the connection
        along the anchor, read off the semidirect's bracket of a base
        element with a fiber element (the representation used for the
        kernel-flat 2-form checks; genuinely flat on the center)."""
        S, k = self.semidirect().structure, self.k
        coeffs = [
            [[S[k + b][c][d] for c in range(k)] for d in range(k)]
            for b in range(self.base.rank)
        ]
        return ARepresentation(self.base, self.fiber.bundle, coeffs)

    def semidirect(self) -> LieAlgebroid:
        if self._semidirect is None:
            self._semidirect = build_semidirect(self)
        return self._semidirect


class NumericCouplingData(CouplingData):
    """Sampled coupling data: the fiber connection at [i, e, c] and the
    mixed tensor at [a, i, e] are point evaluators (base and fiber stay
    symbolic), differentiated by the finite-difference stencil with step
    2e-3.  A ``None`` base encodes the degenerate full-ideal case
    (rank-zero quotient), for which only the bracket-preservation
    equation carries content and ``u_fn`` is never called."""

    nablaL = U = None

    def __init__(
        self,
        base: LieAlgebroid | None,
        fiber: FiberBracket,
        gamma_fn: Callable[[np.ndarray], np.ndarray],
        u_fn: Callable[[np.ndarray], np.ndarray] | None,
    ):
        self._bind(base, fiber, sampled_map(gamma_fn, 2e-3), sampled_map(u_fn, 2e-3))


def extract_coupling(
    A: LieAlgebroid,
    ideal: IdealBundle,
    form: IMOneForm,
    plan: SamplePlan | None = None,
    check: bool = True,
    tol: float = 1e-8,
) -> CouplingData:
    """Read the coupling data off a connection form: the fiber
    connection from the ideal columns, the mixed tensor from the
    complementary (kernel-of-symbol) frame, and the quotient bracket on
    that frame."""
    if form.algebroid is not A or form.ideal is None or form.ideal.k != ideal.k:
        raise ValueError("form does not belong to the given algebroid and ideal")
    if not form.is_connection():
        raise ValueError("symbol does not restrict to the identity on the ideal")
    plan = plan or SamplePlan()
    if check:
        rep = canonical_representation(A, ideal)
        r = check_im_form(form, rep, plan.fork("imcheck"), tol=tol)
        if not r.passed:
            raise ConstructionRefused("form fails the compatibility identities", r)

    k, r, n = ideal.k, A.rank, A.chart.dim
    if k >= r:
        raise ValueError("coupling extraction needs a nontrivial quotient")
    B = quotient_algebroid(A, k, form.l)
    rB = r - k

    gam = [
        [[form.frame_values[a].component((i,))[c] for a in range(k)] for c in range(k)]
        for i in range(n)
    ]
    nablaL = LinearConnection(ideal.bundle, gam)

    # U(e~_a, d_i) = -L(e~_a)_i, expanded through the extension rule.
    U = []
    for a in range(rB):
        row = []
        for i in range(n):
            vec = []
            for c in range(k):
                terms = [neg(form.frame_values[k + a].component((i,))[c])]
                for cc in range(k):
                    terms.append(
                        mul(form.l[cc][k + a], form.frame_values[cc].component((i,))[c])
                    )
                terms.append(differentiate(form.l[c][k + a], i))
                vec.append(fold(add(*terms)))
            row.append(vec)
        U.append(row)

    return CouplingData(B, ideal.fiber, nablaL, U, plan=plan.fork("skew"))


def quotient_algebroid(
    A: LieAlgebroid, k: int, l: Sequence[Sequence[Expr]]
) -> LieAlgebroid:
    """Quotient of A by the span of its first k frame elements, carried
    on the complementary frame e~_a = e_a - sum_c l[c][a] e_c (a >= k)
    of a k x rank splitting l."""
    r, n = A.rank, A.chart.dim
    comp_secs = []
    for a in range(k, r):
        comps = [fold(neg(l[c][a])) for c in range(k)] + [ZERO] * (r - k)
        comps[a] = ONE
        comp_secs.append(Section(A.bundle, comps))

    rB = r - k
    anchor = [[A.anchor[i][k + a] for a in range(rB)] for i in range(n)]
    structure = [[None] * rB for _ in range(rB)]
    for a in range(rB):
        for b in range(rB):
            if b < a:
                structure[a][b] = [fold(neg(x)) for x in structure[b][a]]
                continue
            if a == b:
                structure[a][b] = [ZERO] * rB
                continue
            w = bracket(A, comp_secs[a], comp_secs[b])
            structure[a][b] = [w.components[k + c] for c in range(rB)]
    return LieAlgebroid(Bundle(A.chart, rB), anchor, structure)


def build_semidirect(cd) -> LieAlgebroid:
    """Rebuild the algebroid on fiber + base from coupling data; the
    first k frame elements span the bundle of ideals."""
    if not cd.exact:
        raise TypeError("build_semidirect needs symbolic coupling data")
    B, fiber = cd.base, cd.fiber
    k, rB, n = cd.k, B.rank, B.chart.dim
    r = k + rB
    anchor = [[ZERO] * k + [B.anchor[i][a] for a in range(rB)] for i in range(n)]
    structure = [[[ZERO] * r for _ in range(r)] for _ in range(r)]
    Gam = cd.nablaL.christoffel
    for c in range(k):
        for d in range(k):
            for e in range(k):
                structure[c][d][e] = fiber.c[c][d][e]
    for a in range(rB):
        for c in range(k):
            vec = [
                fold(add(*(mul(B.anchor[i][a], Gam[i][e][c]) for i in range(n))))
                for e in range(k)
            ]
            for e in range(k):
                structure[k + a][c][e] = vec[e]
                structure[c][k + a][e] = fold(neg(vec[e]))
    # Base-base brackets: quotient structure plus the fiber component
    # coming from the mixed tensor contracted with the anchor.  Only
    # the upper triangle is taken from the formula; the lower one is
    # its structural negation (equal to the formula's value exactly
    # when the mixed tensor is anchor-skew).
    for a in range(rB):
        for b in range(a + 1, rB):
            for cc in range(rB):
                structure[k + a][k + b][k + cc] = B.structure[a][b][cc]
                structure[k + b][k + a][k + cc] = fold(neg(B.structure[a][b][cc]))
            vec = [
                fold(add(*(mul(B.anchor[i][b], cd.U[a][i][e]) for i in range(n))))
                for e in range(k)
            ]
            for e in range(k):
                structure[k + a][k + b][e] = vec[e]
                structure[k + b][k + a][e] = fold(neg(vec[e]))
    return LieAlgebroid(Bundle(B.chart, r), anchor, structure)


def coupling_to_im(
    cd: CouplingData,
    plan: SamplePlan | None = None,
    check: bool = True,
    tol: float = 1e-8,
) -> IMOneForm:
    """The connection form of a coupling on its semidirect carrier:
    the symbol is the fiber projection and the frame values are the
    fiber connection on ideal elements and minus the mixed tensor on
    base elements."""
    plan = plan or SamplePlan()
    if check:
        rep = check_structure_equations(cd, plan=plan.fork("structeq"), tol=tol)
        if not rep.passed:
            raise ConstructionRefused("coupling fails the structure equations", rep)
    A = cd.semidirect()
    k, rB, n = cd.k, cd.base.rank, cd.base.chart.dim
    ideal = IdealBundle(A, k, plan=plan.fork("ideal"), verify=True)
    l = [
        [ONE if c == a else ZERO for a in range(k)] + [ZERO] * rB
        for c in range(k)
    ]
    frame_values = []
    Gam = cd.nablaL.christoffel
    for c in range(k):
        frame_values.append(
            CoeffForm(
                ideal.bundle,
                1,
                {(i,): [Gam[i][e][c] for e in range(k)] for i in range(n)},
            )
        )
    for a in range(rB):
        frame_values.append(
            CoeffForm(
                ideal.bundle,
                1,
                {(i,): [fold(neg(x)) for x in cd.U[a][i]] for i in range(n)},
            )
        )
    return IMOneForm(A, ideal, l, frame_values)


def check_structure_equations(
    cd,
    variant: str = "S1S3",
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
) -> Report:
    """Residuals of the coupling structure equations at sampled points.

    variant="S1S3": bracket preservation, curvature vs fiber adjoint,
    and the mixed cocycle equation.  variant="S1'S3'" additionally
    requires a flat fiber connection, a center-valued mixed tensor
    (within 1e-7, through the center of ``center_basis``), and that the
    pair (covariant differential of U, U) passes the degree-2
    compatibility identities on the base.

    Each equation is one contraction over the points
    (``_structure_defects``).
    """
    if variant not in ("S1S3", "S1'S3'"):
        raise ValueError("variant must be 'S1S3' or \"S1'S3'\"")
    plan = plan or SamplePlan()
    report = Report(command="check-structure", seed=plan.seed, samples=plan.samples)
    pts = plan.points(cd.fiber.bundle.chart, max(10, min(plan.samples, 40)))

    defects = _structure_defects(cd, pts)
    for name in ("S1", "S2", "S3"):
        report.add(name, defects.get(name, ()), tol)

    if variant == "S1'S3'":
        report.add("kernel_flat_curvature", defects["curvature"], tol)
        report.add("U_center_valued", _center_residual_of_u(cd, pts), 1e-7)
        if not cd.exact:
            raise TypeError("the kernel-flat variant needs symbolic coupling data")
        pair = kernel_flat_two_form(cd)
        rep2 = check_im_form(pair, cd.base_rep_on_fiber(), plan.fork("kfpair"), tol=tol)
        report.merge(rep2, prefix="U_pair_")
    return report


def _structure_defects(cd, pts) -> dict[str, np.ndarray]:
    """The fiber curvature of a coupling and the defects of its
    structure equations at the points, as arrays with the point axis
    first: "curvature" at [p, i, j], "S1" at [p, i, a, b], and on a base
    "S2" at [p, a, j] and "S3" at [p, a, b, j], each with the fiber
    axes last.  Gamma, the fiber bracket, on a base rho, the base
    bracket and U, and their partials are read once per point
    (``_stack``).  A rank-one coupling with an abelian fiber gives the
    trivialized equations of ``rankone``: S2 is rho^T d theta and S3 is
    minus the trivialized mixed equation."""
    B, fiber = cd.base, cd.fiber
    rB = B.rank if B is not None else 0
    # Read point by point: Gamma_i[e, c] at [p, i, e, c], d_j Gamma_i at
    # [p, j, i], [e_a, e_b]^f at [p, a, b, f] and its partials; on a
    # base also rho^i(e_a) at [p, i, a], U(e_a, d_i) at [p, a, i], the
    # base bracket, and the partials d_j at [p, j].
    reads = [cd.gamma_map.value, cd.gamma_map.partials, fiber.c_map.value, fiber.c_map.partials]
    if rB:
        reads += [
            B.anchor_map.value,
            B.anchor_map.partials,
            B.structure_map.value,
            cd.u_map.value,
            cd.u_map.partials,
        ]
    # A non-finite read gives a non-finite defect, which fails.
    with np.errstate(invalid="ignore", over="ignore"):
        G, dG, C, dC, *based = _stack(pts, *reads)
        R = _curvature(G, dG)
        out = {"curvature": R}

        # (S1): the fiber connection preserves the fiberwise bracket.
        out["S1"] = (
            dC
            + np.einsum("pief,pabf->piabe", G, C)
            - np.einsum("pifa,pfbe->piabe", G, C)
            - np.einsum("pifb,pafe->piabe", G, C)
        )
        if rB:
            rho, drho, cB, U, dU = based

            # (S2): curvature along anchored directions equals the
            # adjoint action of the mixed tensor.
            out["S2"] = np.einsum("pia,pijec->pajce", rho, R) - np.einsum("pajf,pfce->pajce", U, C)

            # (S3): the mixed cocycle equation on base frame pairs.
            T = np.einsum("pia,pibje->pabje", rho, dU + np.einsum("pief,pbjf->pibje", G, U))
            out["S3"] = (
                T
                - T.swapaxes(1, 2)
                + np.einsum("pib,pjaie->pabje", rho, dU)
                + np.einsum("pjef,pabf->pabje", G, _anchored(rho, U))
                + np.einsum("pjia,pbie->pabje", drho, U)
                - np.einsum("pabc,pcje->pabje", cB, U)
            )
    return out


def center_basis(fiber: FiberBracket, p) -> np.ndarray:
    """Orthonormal basis (columns) of the fiberwise center at a point:
    the joint kernel (singular values at most 1e-9) of the stacked
    adjoint matrices.  Where an adjoint entry is not finite the center
    is unknown, and the basis is k columns of NaN, so a residual read
    through it fails (the SVD of such a matrix need not return)."""
    k = fiber.bundle.rank
    ad = fiber.c_map.value(p).transpose(0, 2, 1)  # ad[a][k][b] = c_{ab}^k
    stacked = ad.reshape(k * k, k)
    if not np.isfinite(stacked).all():
        return np.full((k, k), np.nan)
    if np.allclose(stacked, 0.0):
        return np.eye(k)
    u, s, vt = np.linalg.svd(stacked)
    null_mask = np.concatenate([s, np.zeros(max(0, k - len(s)))]) <= 1e-9
    return vt.T[:, null_mask[:k]]


def _center_residual_of_u(cd, pts) -> float:
    Z = [center_basis(cd.fiber, p) for p in pts]
    # Where the center is unknown (NaN) it has no rank to compare.
    ranks = [z.shape[1] for z in Z if not np.isnan(z).any()]
    for rank in ranks:
        if rank != ranks[0]:
            raise CenterDegeneracyError(
                f"center rank jumps across samples ({ranks[0]} vs {rank})"
            )
    proj = np.array([z @ z.T for z in Z])
    (U,) = _stack(pts, cd.u_map.value)
    return sup(U - np.einsum("pef,paif->paie", proj, U))


def kernel_flat_two_form(cd: CouplingData) -> IMTwoForm:
    """The degree-2 pair (covariant differential of U, U) on the base,
    valued in the fiber bundle."""
    B = cd.base
    symbols = [cd.u_form(a) for a in range(B.rank)]
    frames = [
        exterior_covariant_derivative(cd.nablaL, cd.u_form(a)) for a in range(B.rank)
    ]
    return IMTwoForm(B, cd.fiber.bundle, symbols, frames)


def curvature_im(
    cd: CouplingData,
    plan: SamplePlan | None = None,
    check: bool = True,
    tol: float = 1e-8,
) -> IMTwoForm:
    """Curvature 2-form pair of a coupling, on the semidirect carrier:
    the operator is the fiber curvature on ideal elements and minus the
    covariant differential of the mixed tensor on base elements; the
    symbol is minus the mixed tensor."""
    plan = plan or SamplePlan()
    if check:
        rep = check_structure_equations(cd, plan=plan.fork("structeq"), tol=tol)
        if not rep.passed:
            raise ConstructionRefused("coupling fails the structure equations", rep)
    A = cd.semidirect()
    k, rB, n = cd.k, cd.base.rank, cd.base.chart.dim
    ideal = IdealBundle(A, k, verify=False)
    kb = ideal.bundle
    R = curvature_tensor(cd.nablaL)
    symbols = []
    frames = []
    for c in range(k):
        symbols.append(zero_form(kb, 1))
        frames.append(
            CoeffForm(
                kb,
                2,
                {ij: [R[ij][e][c] for e in range(k)] for ij in R},
            )
        )
    for a in range(rB):
        symbols.append(
            CoeffForm(kb, 1, {(i,): [fold(neg(x)) for x in cd.U[a][i]] for i in range(n)})
        )
        dU = exterior_covariant_derivative(cd.nablaL, cd.u_form(a))
        frames.append(dU.scale(const(-1)))
    return IMTwoForm(A, ideal, symbols, frames)


def classify_flatness(
    cd,
    plan: SamplePlan | None = None,
    tol: float = 1e-9,
) -> tuple[set, Report]:
    """Which flatness classes the coupling belongs to, by sampled
    residuals: 'kernel' (flat fiber connection), 'leafwise' (the mixed
    tensor vanishes on anchored directions), 'totally' (flat and the
    mixed tensor vanishes outright)."""
    plan = plan or SamplePlan()
    B = cd.base
    pts = plan.points(B.chart, max(10, min(plan.samples, 50)))
    report = Report(command="classify", seed=plan.seed, samples=plan.samples)

    with np.errstate(invalid="ignore", over="ignore"):
        G, dG = _stack(pts, cd.gamma_map.value, cd.gamma_map.partials)
        curv = _curvature(G, dG)
        rho, U = _stack(pts, B.anchor_map.value, cd.u_map.value)
        anchored = _anchored(rho, U)

    kernel = report.add("kernel_flat_curvature", curv, tol)
    leafwise = report.add("leafwise_anchored_U", anchored, tol)
    totally = report.add("totally_flat_U", sup(curv, U), tol)

    classes = set()
    if kernel.passed:
        classes.add("kernel")
    if leafwise.passed:
        classes.add("leafwise")
    if totally.passed:
        classes.add("totally")
        classes |= {"leafwise", "kernel"}
    report.extra["flatness"] = [c for c in FLATNESS_ORDER if c in classes]
    return classes, report


def d_im(
    conn: LinearConnection,
    form: IMOneForm,
    rep: ARepresentation,
    plan: SamplePlan | None = None,
    tol: float = 1e-9,
) -> IMTwoForm:
    """Covariant differential on degree-1 form pairs:
    (L, l) -> (d_conn L, L - d_conn l).  The connection must be
    invariant under the representation; the check is run and the
    construction refused on failure.

    Sign convention (pinned by the test suite): applied to the
    connection form of a coupling with conn the coupling's own fiber
    connection, the result coincides exactly with curvature_im of that
    coupling, with no sign flip.
    """
    plan = plan or SamplePlan()
    inv = check_A_invariant(conn, rep, plan.fork("inv"), tol=tol)
    if not inv.passed:
        raise ConstructionRefused("connection is not invariant", inv)
    if conn.bundle != form.value_bundle:
        raise ValueError("connection must live on the form's value bundle")
    symbols = []
    frames = []
    for a in range(form.algebroid.rank):
        dsym = exterior_covariant_derivative(conn, form.symbols[a])
        symbols.append(form.frame_values[a] - dsym)
        frames.append(exterior_covariant_derivative(conn, form.frame_values[a]))
    value = form.ideal if form.ideal is not None else form.value_bundle
    return IMTwoForm(form.algebroid, value, symbols, frames)


class CochainEvaluator:
    """Algebroid cochain obtained from a form pair by contracting the
    symbol with anchors: omega(a_1, ..., a_k) = sym(a_1)(rho(a_2), ...)."""

    def __init__(self, form):
        self.form = form
        self.degree = form.degree

    def __call__(self, *sections: Section) -> list[Expr]:
        if len(sections) != self.degree:
            raise ValueError(f"expected {self.degree} sections")
        A = self.form.algebroid
        out = self.form.sym_of(sections[0])
        for s in sections[1:]:
            out = out.contract(A.rho_of(s))
        return list(out.component(()))


def chain_map(form) -> CochainEvaluator:
    return CochainEvaluator(form)


def cochain_differential(
    rep: ARepresentation, omega: CochainEvaluator
) -> Callable[..., list[Expr]]:
    """Algebroid cochain differential of a degree-1 evaluator, using the
    representation for the coefficient action (enough for the
    intertwining cross-checks)."""
    if omega.degree != 1:
        raise ValueError("only degree-1 cochains are differentiated here")
    A = rep.algebroid

    def d_omega(alpha: Section, beta: Section) -> list[Expr]:
        wa = omega(beta)
        wb = omega(alpha)
        t1 = rep.apply(alpha, wa)
        t2 = rep.apply(beta, wb)
        t3 = omega(bracket(A, alpha, beta))
        return [fold(add(x, neg(y), neg(z))) for x, y, z in zip(t1, t2, t3)]

    return d_omega
