"""Lie algebroids over a chart: anchor + structure functions, the
Leibniz-expanded bracket, axiom checkers, bundles of ideals, canonical
representations, invariant connections, basic curvature, and the
connection-based construction of ideal-valued connection forms.

Frame convention: a bundle of ideals is always the span of the first k
frame elements (an adapted frame); users change frames with
``change_frame`` before constructing an IdealBundle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .bundles import (
    Bundle,
    CoeffForm,
    FiberBracket,
    LinearConnection,
    PointMap,
    Section,
    _curvature,
    _stack,
)
from .expr import (
    Expr,
    ZERO,
    ONE,
    add,
    differentiate,
    div,
    fold,
    mul,
    neg,
)
from .sampling import Report, SamplePlan, polynomial_draws, polynomial_jets, random_polynomial, sup

__all__ = [
    "LieAlgebroid",
    "IdealBundle",
    "ARepresentation",
    "bracket",
    "check_axioms",
    "canonical_representation",
    "check_A_invariant",
    "basic_curvature",
    "cartan_build_connection",
    "ConstructionRefused",
    "change_frame",
    "symbolic_inverse",
    "tangent_algebroid",
]


class ConstructionRefused(Exception):
    """A constructor's residual precondition failed; carries the report."""

    def __init__(self, message: str, report: Report):
        super().__init__(message)
        self.report = report


class LieAlgebroid:
    """Lie algebroid on a trivialized bundle: anchor matrix rho[i][a]
    (n x r Exprs) and structure functions c[a][b] -> r-vector with
    [e_a, e_b] = sum_c c[a][b][c] e_c.

    Antisymmetry of the structure functions is enforced structurally;
    Jacobi and the anchor-morphism property are checkable, not assumed.
    """

    __slots__ = ("bundle", "anchor", "structure", "anchor_map", "structure_map")

    def __init__(
        self,
        bundle: Bundle,
        anchor: Sequence[Sequence[Expr]],
        structure: Sequence[Sequence[Sequence[Expr]]],
    ):
        n, r = bundle.chart.dim, bundle.rank
        if len(anchor) != n or any(len(row) != r for row in anchor):
            raise ValueError("anchor must be an n x r matrix of Exprs")
        self.bundle = bundle
        self.anchor = tuple(tuple(fold(x) for x in row) for row in anchor)
        self.anchor_map = PointMap.exact(self.anchor)
        # Reuse the fiberwise container for storage + antisymmetry check.
        fb = FiberBracket(bundle, structure)
        self.structure, self.structure_map = fb.c, fb.c_map

    @property
    def chart(self):
        return self.bundle.chart

    @property
    def rank(self):
        return self.bundle.rank

    def frame_section(self, a: int) -> Section:
        comps = [ZERO] * self.rank
        comps[a] = ONE
        return Section(self.bundle, comps)

    def section(self, components: Sequence[Expr]) -> Section:
        return Section(self.bundle, components)

    def random_section(self, rng: np.random.Generator) -> Section:
        return Section(
            self.bundle,
            [random_polynomial(self.chart, rng) for _ in range(self.rank)],
        )

    def rho_of(self, alpha: Section) -> list[Expr]:
        """Anchor image of a section, as a vector field (n Exprs)."""
        n, r = self.chart.dim, self.rank
        return [
            fold(add(*(mul(self.anchor[i][a], alpha.components[a]) for a in range(r))))
            for i in range(n)
        ]

    def fiber_bracket(self, k: int) -> FiberBracket:
        """Fiberwise bracket restricted to the first k frame elements.
        Only meaningful where the anchor vanishes on that span."""
        sub = Bundle(self.chart, k)
        struct = [
            [[self.structure[a][b][c] for c in range(k)] for b in range(k)]
            for a in range(k)
        ]
        return FiberBracket(sub, struct)


def directional(X: Sequence[Expr], f: Expr) -> Expr:
    """Derivative of a scalar along a vector field."""
    return fold(add(*(mul(X[j], differentiate(f, j)) for j in range(len(X)))))


def bracket(A: LieAlgebroid, alpha: Section, beta: Section) -> Section:
    """Leibniz-expanded bracket:
    [alpha, beta]^c = sum alpha^a beta^b c_ab^c
                      + rho(alpha)(beta^c) - rho(beta)(alpha^c)."""
    if alpha.bundle != A.bundle or beta.bundle != A.bundle:
        raise ValueError("sections do not live on this algebroid")
    r = A.rank
    ra = A.rho_of(alpha)
    rb = A.rho_of(beta)
    out = []
    for c in range(r):
        terms = []
        for a in range(r):
            if alpha.components[a] == ZERO:
                continue
            for b in range(r):
                if beta.components[b] == ZERO or A.structure[a][b][c] == ZERO:
                    continue
                terms.append(
                    mul(alpha.components[a], beta.components[b], A.structure[a][b][c])
                )
        terms.append(directional(ra, beta.components[c]))
        terms.append(neg(directional(rb, alpha.components[c])))
        out.append(fold(add(*terms)))
    return Section(A.bundle, out)


class IdealBundle:
    """Bundle of ideals: the span of the first k frame elements of an
    adapted frame.

    With ``verify`` (the default), construction checks the two defining
    clauses at sampled points, as ``check_axioms``'s ``ideal_anchor``
    (the anchor vanishes on the span, at ``min(tol, 1e-10)``) and
    ``ideal_bracket`` (the span is bracket-invariant, at ``tol``), and
    raises ``ValueError`` if one fails.  It checks neither the Jacobi
    identity nor the anchor morphism, but draws the sections and points
    that ``check_axioms`` draws before its ideal points, so it leaves
    ``plan``'s random stream where ``check_axioms`` would."""

    __slots__ = ("parent", "k", "fiber")

    def __init__(
        self,
        parent: LieAlgebroid,
        k: int,
        plan: SamplePlan | None = None,
        tol: float = 1e-8,
        verify: bool = True,
    ):
        if not 1 <= k <= parent.rank:
            raise ValueError("ideal rank out of range")
        self.parent = parent
        self.k = k
        self.fiber = parent.fiber_bracket(k)
        if verify:
            rep = _ideal_report(parent, k, plan or SamplePlan(seed=42, samples=60), tol)
            bad = [c for c in rep.checks if not c.passed]
            if bad:
                raise ValueError(
                    "not a bundle of ideals: "
                    + ", ".join(f"{c.name} residual {c.max_residual:.2e}" for c in bad)
                )

    @property
    def bundle(self) -> Bundle:
        return self.fiber.bundle


class ARepresentation:
    """Algebroid representation on a trivialized bundle V.

    ``coeffs[b]`` is the r_V x r_V Expr matrix of nabla_{e_b} acting on
    the frame of V; the full derivative part along the anchor is added
    when applying to sections.  The checks read the matrices whole,
    through the point map ``coeffs_map`` at [b, d, c].  Flatness is a
    sampled check.
    """

    __slots__ = ("algebroid", "bundle", "coeffs", "coeffs_map")

    def __init__(
        self,
        algebroid: LieAlgebroid,
        bundle: Bundle,
        coeffs: Sequence[Sequence[Sequence[Expr]]],
    ):
        rV = bundle.rank
        if len(coeffs) != algebroid.rank:
            raise ValueError("one coefficient matrix per algebroid frame element")
        mats = []
        for M in coeffs:
            if len(M) != rV or any(len(row) != rV for row in M):
                raise ValueError("coefficient matrices must be r_V x r_V")
            mats.append(tuple(tuple(fold(x) for x in row) for row in M))
        self.algebroid = algebroid
        self.bundle = bundle
        self.coeffs = tuple(mats)
        self.coeffs_map = PointMap.exact(self.coeffs)

    @classmethod
    def zero(cls, algebroid: LieAlgebroid, bundle: Bundle) -> "ARepresentation":
        rV = bundle.rank
        z = [[ZERO] * rV for _ in range(rV)]
        return cls(algebroid, bundle, [z for _ in range(algebroid.rank)])

    def apply(self, alpha: Section, comps: Sequence[Expr]) -> list[Expr]:
        """nabla_alpha of a V-coefficient vector."""
        ra = self.algebroid.rho_of(alpha)
        rV = self.bundle.rank
        out = []
        for d in range(rV):
            terms = [directional(ra, comps[d])]
            for b in range(self.algebroid.rank):
                if alpha.components[b] == ZERO:
                    continue
                for c in range(rV):
                    if comps[c] == ZERO or self.coeffs[b][d][c] == ZERO:
                        continue
                    terms.append(
                        mul(alpha.components[b], self.coeffs[b][d][c], comps[c])
                    )
            out.append(fold(add(*terms)))
        return out

    def flatness_residual(self, plan: SamplePlan, n_pairs: int = 6) -> float:
        """Max residual of nabla_[a,b] = [nabla_a, nabla_b] on random
        polynomial sections a, b and s, drawn as terms and read as
        closed-form jets (a and b through ``_Jets``), and the stacked
        coefficient matrices M[p, b] and their partials dM[p, j, b]."""
        A = self.algebroid
        n = A.chart.dim
        defects = []
        for _ in range(n_pairs):
            al, be = ([polynomial_draws(n, plan.rng) for _ in range(A.rank)] for _ in range(2))
            s = [polynomial_draws(n, plan.rng) for _ in range(self.bundle.rank)]
            pts = plan.points(A.chart, 8)
            jets = _Jets(A, [al, be], pts)
            s0, ds, _ = polynomial_jets(s, pts)
            ds = ds.swapaxes(1, 2)
            M, dM = _stack(pts, self.coeffs_map.value, self.coeffs_map.partials)

            def nabla(x0, rx, v0, dv):
                """nabla_x v at [p, d], from x, rho(x), v and dv[p, i] = d_i v."""
                return np.einsum("pi,pid->pd", rx, dv) + np.einsum("pb,pbdc,pc->pd", x0, M, v0)

            def twice(x, y):
                """nabla_x nabla_y s at [p, d], less rho(x)^i rho(y)^j d_i d_j s,
                which is symmetric in x and y and so cancels from the
                identity."""
                ry = jets.rho(y)
                d_ys = (
                    np.einsum("pji,pjd->pid", jets.drho(y), ds)
                    + np.einsum("pbi,pbdc,pc->pid", y[1], M, s0)
                    + np.einsum("pb,pibdc,pc->pid", y[0], dM, s0)
                    + np.einsum("pb,pbdc,pic->pid", y[0], M, ds)
                )
                return nabla(x[0], jets.rho(x), nabla(y[0], ry, s0, ds), d_ys)

            with np.errstate(invalid="ignore", over="ignore"):
                ab = jets.bracket(*jets.sections)
                lhs = nabla(ab, np.einsum("pik,pk->pi", jets.R, ab), s0, ds)
                defects.append(lhs - twice(*jets.sections) + twice(*jets.sections[::-1]))
        return sup(*defects)


def _axiom_budget(plan: SamplePlan) -> tuple[int, int]:
    """``check_axioms``'s (section triples, points per triple)."""
    draws, pts = plan.split_budget(per_draw=25)
    return max(2, min(draws, 10)), pts


def _axiom_draws(A: LieAlgebroid, plan: SamplePlan):
    """``check_axioms``'s draws from the plan, in order: per draw, a
    random section triple as terms (``polynomial_draws``, as
    ``random_section`` draws them; ``_Jets`` reads them) and its points."""
    draws, pts = _axiom_budget(plan)
    for _ in range(draws):
        triple = [[polynomial_draws(A.chart.dim, plan.rng) for _ in range(A.rank)] for _ in range(3)]
        yield triple, plan.points(A.chart, pts)


def _add_ideal_checks(rep: Report, A: LieAlgebroid, k: int, plan: SamplePlan, tol: float) -> None:
    """The ``ideal_anchor`` and ``ideal_bracket`` checks of the span of
    the first k frame elements, at points drawn after the axiom draws."""
    pts = plan.points(A.chart, max(20, _axiom_budget(plan)[1]))
    rho, C = _stack(pts, A.anchor_map.value, A.structure_map.value)
    # rho(e_a) for a in the ideal, and [e_b, e_a] off the ideal.
    rep.add("ideal_anchor", rho[:, :, :k], 1e-10 if tol > 1e-10 else tol)
    rep.add("ideal_bracket", C[:, :, :k, k:], tol)


def _ideal_report(A: LieAlgebroid, k: int, plan: SamplePlan, tol: float) -> Report:
    """The ``ideal_*`` checks of ``check_axioms(A, ideal, plan, tol)``
    for an ideal of rank k, bit for bit: the axiom draws are taken from
    the plan, so its random stream moves as there, but no bracket is
    built, nor any random section."""
    rep = Report(command="check-axioms", seed=plan.seed, samples=plan.samples)
    for _ in _axiom_draws(A, plan):
        pass
    _add_ideal_checks(rep, A, k, plan, tol)
    return rep


class _Jets:
    """Random sections' 2-jets at a list of points, and the anchor images
    and brackets read from them (forward jet propagation), so that no
    check builds a section or a bracket.

    ``sections[s]`` is the (values, gradients, Hessians) of ``draws[s]``,
    a section's term lists, in closed form (``polynomial_jets``), each
    array with the points first and, in a gradient, the direction last.
    ``rho``, ``drho``, ``bracket`` and ``gradient`` read jets with the
    values and partials of ``A.anchor_map`` and ``A.structure_map``,
    compiled once per algebroid.  Callers run them under ``np.errstate(invalid="ignore",
    over="ignore")``: an inf in the jets gives a NaN entry, which fails
    its check.
    """

    def __init__(self, A: LieAlgebroid, draws, points):
        r = A.rank
        v = polynomial_jets([t for s in draws for t in s], points)
        self.R, dR, self.C, dC = _stack(
            points,
            A.anchor_map.value,
            A.anchor_map.partials,
            A.structure_map.value,
            A.structure_map.partials,
        )
        self.dR, self.dC = np.moveaxis(dR, 1, -1), np.moveaxis(dC, 1, -1)
        self.sections = [tuple(x[:, s * r : (s + 1) * r] for x in v) for s in range(len(draws))]

    def rho(self, x):
        """The anchor image rho(x)^i, at [p, i]."""
        return np.einsum("pia,pa->pi", self.R, x[0])

    def drho(self, x):
        """d_j rho(x)^i, at [p, i, j], from the 1-jet of x."""
        return np.einsum("piaj,pa->pij", self.dR, x[0]) + np.einsum("pia,paj->pij", self.R, x[1])

    def bracket(self, x, y):
        """[x, y]^k, at [p, k], from the 1-jets of x and y."""
        return (
            np.einsum("pa,pb,pabk->pk", x[0], y[0], self.C)
            + np.einsum("pi,pki->pk", self.rho(x), y[1])
            - np.einsum("pi,pki->pk", self.rho(y), x[1])
        )

    def gradient(self, x, y):
        """d_j [x, y]^k, at [p, k, j], from the 2-jets of x and y."""
        C, dC = self.C, self.dC
        return (
            np.einsum("paj,pb,pabk->pkj", x[1], y[0], C)
            + np.einsum("pa,pbj,pabk->pkj", x[0], y[1], C)
            + np.einsum("pa,pb,pabkj->pkj", x[0], y[0], dC)
            + np.einsum("pij,pki->pkj", self.drho(x), y[1])
            + np.einsum("pi,pkij->pkj", self.rho(x), y[2])
            - np.einsum("pij,pki->pkj", self.drho(y), x[1])
            - np.einsum("pi,pkij->pkj", self.rho(y), x[2])
        )


def _axiom_defects(A: LieAlgebroid, triple, points):
    """At each point, the Jacobiator [[a,b],g] + [[b,g],a] + [[g,a],b]
    of the section triple (a, b, g) of term lists (an array of shape
    (points, r)) and the anchor-morphism defect rho([a,b]) - [rho(a),
    rho(b)] (shape (points, n)), read from ``_Jets``."""
    jets = _Jets(A, triple, points)
    al, be, ga = jets.sections
    with np.errstate(invalid="ignore", over="ignore"):
        jacobiator = sum(
            jets.bracket((jets.bracket(x, y), jets.gradient(x, y)), z)
            for x, y, z in ((al, be, ga), (be, ga, al), (ga, al, be))
        )
        vf = np.einsum("pij,pj->pi", jets.drho(be), jets.rho(al)) - np.einsum(
            "pij,pj->pi", jets.drho(al), jets.rho(be)
        )
        return jacobiator, np.einsum("pik,pk->pi", jets.R, jets.bracket(al, be)) - vf


def check_axioms(
    A: LieAlgebroid,
    ideal: IdealBundle | None = None,
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
) -> Report:
    """Sampled verification of the algebroid axioms.

    Checks (a) ``jacobi``, the Jacobi identity, and (b)
    ``anchor_morphism``, rho([a,b]) = [rho(a), rho(b)], on random
    polynomial section triples, each at its own points, both read from
    closed-form 2-jets (``_axiom_defects``), so no Expr is built; and,
    when an ideal is supplied, (c) ``ideal_anchor``, the anchor vanishing
    on the ideal span (at ``min(tol, 1e-10)``), and ``ideal_bracket``,
    bracket-invariance of the span, at points drawn after the triples.
    Pass iff every residual < tol.  ``IdealBundle`` construction runs
    (c) alone, on the same random stream.
    """
    plan = plan or SamplePlan()
    rep = Report(command="check-axioms", seed=plan.seed, samples=plan.samples)

    defects = [_axiom_defects(A, draws, points) for draws, points in _axiom_draws(A, plan)]
    rep.add("jacobi", np.array([jacobiator for jacobiator, _ in defects]), tol)
    rep.add("anchor_morphism", np.array([anchor for _, anchor in defects]), tol)

    if ideal is not None:
        _add_ideal_checks(rep, A, ideal.k, plan, tol)
    return rep


def canonical_representation(A: LieAlgebroid, ideal: IdealBundle) -> ARepresentation:
    """The representation of the algebroid on a bundle of ideals given
    by bracketing: coefficients are the structure functions with one
    slot in the ideal range, truncated to the ideal components."""
    if ideal.parent is not A:
        raise ValueError("ideal does not belong to this algebroid")
    k = ideal.k
    coeffs = [
        [[A.structure[b][a][c] for a in range(k)] for c in range(k)]
        for b in range(A.rank)
    ]
    # coeffs[b][c][a] = component c of [e_b, e_a] for a, c in the ideal.
    return ARepresentation(A, ideal.bundle, coeffs)


def check_A_invariant(
    conn: LinearConnection,
    rep: ARepresentation,
    plan: SamplePlan | None = None,
    tol: float = 1e-9,
) -> Report:
    """Invariance of a linear connection under an algebroid
    representation: the representation agrees with the connection along
    the anchor, and the curvature is killed by anchored directions."""
    if conn.bundle != rep.bundle:
        raise ValueError("connection and representation bundles differ")
    plan = plan or SamplePlan()
    A = rep.algebroid
    n = A.chart.dim
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


class BasicCurvature:
    """The five-term tensor measuring the failure of a linear connection
    on an algebroid to have multiplicative-type horizontal behavior:

        K(a, b; X) = nabla_X [a, b] - [nabla_X a, b] - [a, nabla_X b]
                     - nabla_{Y(b, X)} a + nabla_{Y(a, X)} b,

    with Y(a, X) = rho(nabla_X a) + [rho(a), X] the induced derivative
    on vector fields.  It is a tensor, so its values on frame sections
    and coordinate directions determine it.
    """

    def __init__(self, A: LieAlgebroid, conn: LinearConnection):
        if conn.bundle != A.bundle:
            raise ValueError("connection must live on the algebroid bundle")
        self.A = A
        self.conn = conn

    def _frame_values(self, pts) -> np.ndarray:
        """K(e_a, e_b; d_i)^c at [p, a, b, i, c], from the stacked rho,
        C, Gamma and their partials.  The third and fifth terms are the
        second and fourth with a and b exchanged and negated, as the
        bracket is antisymmetric.  Callers run it under
        ``np.errstate(invalid="ignore", over="ignore")``."""
        A = self.A
        R, dR, C, dC, G, dG = _stack(
            pts,
            A.anchor_map.value,
            A.anchor_map.partials,
            A.structure_map.value,
            A.structure_map.partials,
            self.conn.gamma_map.value,
            self.conn.gamma_map.partials,
        )
        # Y(e_b, d_i)^j, at [p, b, i, j].
        Y = np.einsum("pjd,pidb->pbij", R, G) - np.einsum("pijb->pbij", dR)
        # nabla_i [e_a, e_b]; then [nabla_i e_a, e_b] + nabla_{Y(b, d_i)} e_a.
        first = np.einsum("piabc->pabic", dC) + np.einsum("picd,pabd->pabic", G, C)
        W = (
            np.einsum("pida,pdbc->pabic", G, C)
            - np.einsum("pjb,pjica->pabic", R, dG)
            + np.einsum("pbij,pjca->pabic", Y, G)
        )
        return first - W + W.swapaxes(1, 2)

    def cartan_residual(self, plan: SamplePlan, n_points: int = 24) -> float:
        """Max residual over frame pairs and coordinate directions (the
        tensor property makes frame evaluation sufficient)."""
        pts = plan.points(self.A.chart, n_points)
        a, b = np.triu_indices(self.A.rank, 1)
        with np.errstate(invalid="ignore", over="ignore"):
            return sup(self._frame_values(pts)[:, a, b])


def basic_curvature(A: LieAlgebroid, conn: LinearConnection) -> BasicCurvature:
    return BasicCurvature(A, conn)


def cartan_build_connection(
    A: LieAlgebroid,
    ideal: IdealBundle,
    l: Sequence[Sequence[Expr]],
    conn: LinearConnection,
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
):
    """Build an ideal-valued connection form from a splitting l and a
    linear connection on A, via i_X L(alpha) = l(nabla_X alpha).

    Preconditions (refused with a residual report when violated):
    l restricted to the ideal columns is the identity; l is parallel for
    the induced derivative; l kills the basic curvature of the
    connection.
    """
    from .imforms import IMOneForm  # deferred: imforms imports this module

    plan = plan or SamplePlan()
    k, r, n = ideal.k, A.rank, A.chart.dim
    if len(l) != k or any(len(row) != r for row in l):
        raise ValueError("splitting must be a k x r Expr matrix")
    l = [[fold(x) for x in row] for row in l]
    for c in range(k):
        for a in range(k):
            want = ONE if c == a else ZERO
            if l[c][a] != want:
                raise ValueError(
                    "splitting must restrict to the identity on the ideal columns"
                )

    report = Report(command="cartan-build", seed=plan.seed, samples=plan.samples)

    pts = plan.points(A.chart, 20)
    l_map = PointMap.exact(l)
    L, dL, R, C, G = _stack(
        pts, l_map.value, l_map.partials, A.anchor_map.value, A.structure_map.value, conn.gamma_map.value
    )
    a, b = np.triu_indices(r, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        # Parallelism of l: [e_a, l(e_b)] - l(nabla_{rho(e_b)} e_a + [e_a, e_b])
        # at [p, a, b, c], l(e_b) having no component past the ideal.
        inner = np.einsum("pjb,pjda->pabd", R, G) + C
        parallel = np.einsum("padc,pdb->pabc", C[:, :, :k], L)
        parallel[..., :k] += np.einsum("pja,pjcb->pabc", R, dL) - np.einsum("pcd,pabd->pabc", L, inner)
        # l kills the basic curvature.
        killed = np.einsum("pcd,ptid->ptic", L, basic_curvature(A, conn)._frame_values(pts)[:, a, b])
    report.add("parallel_splitting", parallel, tol)
    report.add("splitting_kills_basic_curvature", killed, tol)

    if not report.passed:
        raise ConstructionRefused(
            "connection construction refused: residuals "
            + ", ".join(f"{c.name}={c.max_residual:.2e}" for c in report.checks),
            report,
        )

    # Frame values: L(e_a)_i = l(nabla_{d_i} e_a).
    frame_values = []
    for a in range(r):
        comps = {}
        for i in range(n):
            col = [conn.christoffel[i][b][a] for b in range(r)]
            comps[(i,)] = [
                fold(add(*(mul(l[c][b], col[b]) for b in range(r))))
                for c in range(k)
            ]
        frame_values.append(CoeffForm(ideal.bundle, 1, comps))
    return IMOneForm(A, ideal, l, frame_values)


def symbolic_inverse(P: Sequence[Sequence[Expr]]) -> list[list[Expr]]:
    """Exact inverse of a small Expr matrix by cofactor expansion.
    Intended for frame changes of rank <= 4."""
    r = len(P)
    if r > 4:
        raise ValueError("symbolic inversion supported only for rank <= 4")
    det = _det(P)
    out = [[ZERO] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            minor = [
                [P[a][b] for b in range(r) if b != i]
                for a in range(r)
                if a != j
            ]
            cof = _det(minor)
            if (i + j) % 2 == 1:
                cof = neg(cof)
            out[i][j] = fold(div(cof, det))
    return out


def _det(M) -> Expr:
    r = len(M)
    if r == 1:
        return M[0][0]
    terms = []
    for j in range(r):
        minor = [row[:j] + row[j + 1 :] for row in [list(m) for m in M[1:]]]
        t = mul(M[0][j], _det(minor))
        terms.append(t if j % 2 == 0 else neg(t))
    return fold(add(*terms))


def change_frame(
    A: LieAlgebroid,
    P: Sequence[Sequence[Expr]],
    P_inv: Sequence[Sequence[Expr]] | None = None,
) -> LieAlgebroid:
    """Rewrite the algebroid in the frame e'_a = sum_b P[b][a] e_b.

    P must be invertible on the chart; P_inv may be supplied to avoid
    symbolic inversion.
    """
    r, n = A.rank, A.chart.dim
    P = [[fold(x) for x in row] for row in P]
    if P_inv is None:
        P_inv = symbolic_inverse(P)
    anchor = [
        [
            fold(add(*(mul(A.anchor[i][b], P[b][a]) for b in range(r))))
            for a in range(r)
        ]
        for i in range(n)
    ]
    cols = [Section(A.bundle, [P[b][a] for b in range(r)]) for a in range(r)]
    structure = [[None] * r for _ in range(r)]
    for a in range(r):
        for b in range(r):
            if b < a:
                structure[a][b] = [fold(neg(x)) for x in structure[b][a]]
                continue
            if a == b:
                structure[a][b] = [ZERO] * r
                continue
            w = bracket(A, cols[a], cols[b])
            structure[a][b] = [
                fold(add(*(mul(P_inv[c][d], w.components[d]) for d in range(r))))
                for c in range(r)
            ]
    return LieAlgebroid(Bundle(A.chart, r), anchor, structure)


def connection_change_frame(
    conn: LinearConnection,
    P: Sequence[Sequence[Expr]],
    P_inv: Sequence[Sequence[Expr]] | None = None,
) -> LinearConnection:
    """Christoffel matrices of the same connection in the frame
    e'_a = sum_b P[b][a] e_b:  G'_i = P^{-1} (d_i P + G_i P)."""
    r = conn.bundle.rank
    n = conn.bundle.chart.dim
    P = [[fold(x) for x in row] for row in P]
    if P_inv is None:
        P_inv = symbolic_inverse(P)
    mats = []
    for i in range(n):
        inner = [
            [
                fold(
                    add(
                        differentiate(P[b][a], i),
                        *(mul(conn.christoffel[i][b][c], P[c][a]) for c in range(r)),
                    )
                )
                for a in range(r)
            ]
            for b in range(r)
        ]
        Gp = [
            [
                fold(add(*(mul(P_inv[c][b], inner[b][a]) for b in range(r))))
                for a in range(r)
            ]
            for c in range(r)
        ]
        mats.append(Gp)
    return LinearConnection(conn.bundle, mats)


def tangent_algebroid(chart) -> LieAlgebroid:
    """The tangent algebroid: identity anchor, vanishing structure."""
    n = chart.dim
    bundle = Bundle(chart, n)
    anchor = [[ONE if i == a else ZERO for a in range(n)] for i in range(n)]
    zero = [[([ZERO] * n) for _ in range(n)] for _ in range(n)]
    return LieAlgebroid(bundle, anchor, zero)
