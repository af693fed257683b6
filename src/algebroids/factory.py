"""Ready-to-check model constructors: products, Lie algebra bundles,
transitive algebroids with a chosen splitting, matrix-algebra actions
with adapted ideal frames, principal-type fiber products, their
kernel-flat variants, and generic rank-one couplings.

Every constructor validates its defining conditions at sampled points
and returns an ExampleModel bundling the algebroid, ideal, coupling
and/or connection form the family provides.  Every family but the
action builds coupling data and takes its semidirect: the transitive
algebroid is the semidirect of the tangent coupling with connection
d + ad(theta) and the twist Omega as mixed tensor, as the principal-type
model is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .algebroid import (
    ConstructionRefused,
    IdealBundle,
    LieAlgebroid,
    bracket,
    change_frame,
    connection_change_frame,
    symbolic_inverse,
    tangent_algebroid,
)
from .bundles import (
    Bundle,
    CoeffForm,
    FiberBracket,
    LinearConnection,
    PointMap,
    Section,
    _curvature,
    _d_nabla,
    _stack,
    connection_is_flat,
)
from .expr import (
    Chart,
    Expr,
    ONE,
    ZERO,
    add,
    const,
    coord,
    differentiate,
    div,
    fold,
    mul,
    neg,
    parse,
)
from .imforms import (
    CouplingData,
    IMOneForm,
    center_basis,
    coupling_to_im,
)
from .sampling import Report, SamplePlan, sup

__all__ = [
    "ExampleSpec",
    "ExampleModel",
    "make_example",
    "transitive_im_connection",
    "so3_constants",
    "so3_basis",
    "so3_radial_action",
    "EXAMPLE_NAMES",
]

EXAMPLE_NAMES = (
    "product",
    "lie_algebra_bundle",
    "transitive",
    "action",
    "principal_type",
    "principal_type_flat",
    "rank_one",
)


def so3_constants() -> np.ndarray:
    """Structure constants of the rotation algebra in the cross-product
    basis: [E_a, E_b] = eps_abc E_c."""
    eps = np.zeros((3, 3, 3))
    for a, b, c in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[a, b, c] = 1.0
        eps[b, a, c] = -1.0
    return eps


def so3_basis() -> list[np.ndarray]:
    """Matrix generators matching so3_constants: (E_a)_{ij} = -eps_aij."""
    eps = so3_constants()
    return [-eps[a] for a in range(3)]


@dataclass(frozen=True)
class ExampleSpec:
    """Family name plus family-specific parameters; validated by the
    matching builder before construction."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXAMPLE_NAMES:
            raise ValueError(
                f"unknown example family {self.name!r}; choose from {EXAMPLE_NAMES}"
            )


@dataclass
class ExampleModel:
    """Constructed model: always an algebroid with its ideal; a coupling
    and/or a connection form when the family provides one."""

    name: str
    algebroid: LieAlgebroid
    ideal: IdealBundle
    coupling: CouplingData | None = None
    im_form: IMOneForm | None = None
    connection: LinearConnection | None = None
    splitting: list | None = None
    tau: list | None = None


def _positive_int(v, what: str) -> int:
    """``v`` if it is a positive int (a bool is not), else a ValueError
    naming ``what``: a dimension or rank is never rounded."""
    if isinstance(v, bool) or not isinstance(v, int) or v < 1:
        raise ValueError(f"{what} must be a positive integer, not {v!r}")
    return v


def _fiber_from_name(chart: Chart, name, rank: int | None = None) -> FiberBracket:
    """The fiber algebra of a name; a given ``rank`` must be a positive
    int, and a named algebra's own rank."""
    if rank is not None:
        _positive_int(rank, "fiber_rank")
    if isinstance(name, FiberBracket):
        fiber = name
    elif name == "so3":
        fiber = FiberBracket.from_constants(Bundle(chart, 3), so3_constants())
    elif name == "abelian":
        fiber = FiberBracket.abelian(Bundle(chart, rank or 1))
    elif name == "so3_center":
        # so(3) + a one dimensional center.
        c = np.zeros((4, 4, 4))
        c[:3, :3, :3] = so3_constants()
        fiber = FiberBracket.from_constants(Bundle(chart, 4), c)
    else:
        raise ValueError(f"unknown fiber algebra {name!r}")
    if rank is not None and fiber.bundle.rank != rank:
        raise ValueError(f"fiber {name!r} has rank {fiber.bundle.rank}, not fiber_rank {rank}")
    return fiber


def _parse_array(v, chart: Chart, shape: tuple[int, ...], what: str) -> list:
    """``v``, a list of ``shape[0]`` entries or of ``shape[0]`` rows of
    ``shape[1]`` entries, each an Expr or its text, with every entry
    parsed.  Another shape is refused, before any entry is read, with a
    ValueError that names ``what`` and the shape it must have."""

    def fits(x, shape):
        return not shape or (
            isinstance(x, (list, tuple)) and len(x) == shape[0] and all(fits(y, shape[1:]) for y in x)
        )

    if not fits(v, shape):
        raise ValueError(f"{what} must be {' rows of '.join(map(str, shape))} entries, got {v!r}")
    entry = lambda x: x if isinstance(x, Expr) else parse(str(x), chart)
    return [entry(x) for x in v] if len(shape) == 1 else [[entry(x) for x in row] for row in v]


def _parse_two_form(rows, chart: Chart, k: int) -> list:
    """A fiber-valued 2-form given as one vector of k entries per
    increasing pair (i, j) in lexicographic order, returned as
    Omega[i][j] on all pairs i != j (None on the diagonal)."""
    n = chart.dim
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    given = _parse_array(rows, chart, (len(pairs), k), "omega, one fiber vector per increasing pair,")
    Om = [[None] * n for _ in range(n)]
    for (i, j), vec in zip(pairs, given):
        Om[i][j] = vec
        Om[j][i] = [fold(neg(x)) for x in vec]
    return Om


def make_example(spec: ExampleSpec, plan: SamplePlan | None = None) -> ExampleModel:
    plan = plan or SamplePlan()
    builder = {
        "product": _build_product,
        "lie_algebra_bundle": _build_lie_algebra_bundle,
        "transitive": _build_transitive,
        "action": _build_action,
        "principal_type": _build_principal_type,
        "principal_type_flat": _build_principal_type_flat,
        "rank_one": _build_rank_one,
    }[spec.name]
    return builder(dict(spec.params), plan)


def _coupled_model(
    name: str,
    base: LieAlgebroid,
    fiber: FiberBracket,
    nablaL: LinearConnection,
    U,
    plan: SamplePlan,
    verify_skew: bool = True,
) -> ExampleModel:
    """The model of coupling data: its semidirect algebroid and bundle
    of ideals, with the coupling and its connection form."""
    cd = CouplingData(base, fiber, nablaL, U, verify_skew=verify_skew, plan=plan.fork("skew"))
    form = coupling_to_im(cd, plan=plan.fork("im"), check=False)
    return ExampleModel(name, form.algebroid, form.ideal, coupling=cd, im_form=form)


def _build_product(params: dict, plan: SamplePlan) -> ExampleModel:
    """Product of the tangent algebroid with a fixed Lie algebra: the
    canonical coupling has a flat trivial fiber connection and no mixed
    tensor."""
    dim = _positive_int(params.pop("dim", 2), "dim")
    algebra = params.pop("algebra", "so3")
    if params:
        raise ValueError(f"unknown product parameters: {sorted(params)}")
    chart = Chart(dim)
    fiber = _fiber_from_name(chart, algebra)
    k = fiber.bundle.rank
    U = [[[ZERO] * k for _ in range(dim)] for _ in range(dim)]
    m = _coupled_model("product", tangent_algebroid(chart), fiber, LinearConnection.trivial(fiber.bundle), U, plan)
    m.connection = LinearConnection.trivial(m.algebroid.bundle)
    return m


def _build_lie_algebra_bundle(params: dict, plan: SamplePlan) -> ExampleModel:
    """Bundle of Lie algebras (vanishing anchor) whose fiberwise bracket
    is a direct product of the ideal and a complement; the direct
    product splitting is the witness making the ideal partially split."""
    dim = _positive_int(params.pop("dim", 2), "dim")
    fiber_name = params.pop("fiber", "so3")
    base_rank = _positive_int(params.pop("base_rank", 1), "base_rank")
    if params:
        raise ValueError(f"unknown lie_algebra_bundle parameters: {sorted(params)}")
    chart = Chart(dim)
    fiber = _fiber_from_name(chart, fiber_name)
    # Base: an abelian bundle of Lie algebras with zero anchor.
    Bb = Bundle(chart, base_rank)
    zero_anchor = [[ZERO] * base_rank for _ in range(dim)]
    zero_struct = [[[ZERO] * base_rank for _ in range(base_rank)] for _ in range(base_rank)]
    B = LieAlgebroid(Bb, zero_anchor, zero_struct)
    U = [[[ZERO] * fiber.bundle.rank for _ in range(dim)] for _ in range(base_rank)]
    return _coupled_model("lie_algebra_bundle", B, fiber, LinearConnection.trivial(fiber.bundle), U, plan)


def _two_form_map(Omega, k: int) -> PointMap:
    """The exact map of a fiber-valued 2-form given as Omega[i][j] on
    all pairs i != j, with values at [i, j, e]."""
    n = len(Omega)
    return PointMap.exact([[Omega[i][j] if i != j else [ZERO] * k for j in range(n)] for i in range(n)])


def _require_curvature_is_ad(fiber, nabla, Omega, plan, tol: float = 1e-8):
    """Refuse a twist 2-form unless the curvature of the connection is
    its adjoint and it is covariantly closed (with three or more
    directions), at sampled points."""
    chart = fiber.bundle.chart
    n, k = chart.dim, fiber.bundle.rank
    Om_map = _two_form_map(Omega, k)
    i, j = np.triu_indices(n, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        G, dG, Om, C = _stack(plan.points(chart, 25), nabla.gamma_map.value, nabla.gamma_map.partials, Om_map.value, fiber.c_map.value)
        ad = _curvature(G, dG) - np.einsum("pijf,pfce->pijec", Om, C)
        worst_ad = sup(ad[:, i, j])
        worst_closed = 0.0
        if n >= 3:
            G, Om, dOm = _stack(plan.points(chart, 25), nabla.gamma_map.value, Om_map.value, Om_map.partials)
            worst_closed = sup(_d_nabla(G, Om, dOm))
    if worst_ad > tol or worst_closed > tol:
        rep = Report(command="transitive-build", seed=plan.seed, samples=plan.samples)
        rep.add("curvature_equals_ad_of_twist", worst_ad, tol)
        rep.add("twist_covariantly_closed", worst_closed, tol)
        raise ConstructionRefused(
            "twist 2-form incompatible with the connection", rep
        )


def _ad_connection(fiber: FiberBracket, theta: Sequence[Sequence[Expr]]) -> LinearConnection:
    """Connection d + ad(theta) for a fiber-valued 1-form theta; always
    preserves the fiberwise bracket."""
    n, k = fiber.bundle.chart.dim, fiber.bundle.rank
    mats = []
    for i in range(n):
        M = [
            [
                fold(add(*(mul(theta[i][f], fiber.c[f][c][e]) for f in range(k))))
                for c in range(k)
            ]
            for e in range(k)
        ]
        mats.append(M)
    return LinearConnection(fiber.bundle, mats)


def _curvature_of_theta(fiber: FiberBracket, theta) -> list:
    """Omega = d theta + 1/2 [theta, theta] for a fiber-valued 1-form,
    returned as Omega[i][j] vectors on all pairs."""
    n, k = fiber.bundle.chart.dim, fiber.bundle.rank
    Om = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            vec = []
            for e in range(k):
                t = add(
                    differentiate(theta[j][e], i),
                    neg(differentiate(theta[i][e], j)),
                    *(
                        mul(theta[i][a], theta[j][b], fiber.c[a][b][e])
                        for a in range(k)
                        for b in range(k)
                    ),
                )
                vec.append(fold(t))
            Om[i][j] = vec
    return Om


def _tangent_twist(Omega, k: int) -> list:
    """The mixed tensor U[a][i] = Omega(d_a, d_i) over the tangent
    base."""
    return [[Omega[a][i] or [ZERO] * k for i in range(len(Omega))] for a in range(len(Omega))]


def _twisted_tangent_model(
    name: str, params: dict, plan: SamplePlan, fiber_name: str, fiber_rank, theta0: int | None, tag: str
) -> ExampleModel:
    """The semidirect of the tangent coupling with connection
    d + ad(theta) and mixed tensor the twist Omega (the curvature of
    theta unless omega is given): a transitive algebroid.  The default
    theta is x_{theta0 + 1} E_1 dx1, or zero if theta0 is None; the
    twist preconditions draw from the fork ``tag``."""
    dim = _positive_int(params.pop("dim", 2), "dim")
    chart = Chart(dim)
    fiber = _fiber_from_name(chart, params.pop("fiber", fiber_name), rank=fiber_rank)
    k = fiber.bundle.rank
    theta = params.pop("theta", None)
    omega = params.pop("omega", None)
    if params:
        raise ValueError(f"unknown {name} parameters: {sorted(params)}")
    if theta is None:
        theta = [[ZERO] * k for _ in range(dim)]
        if theta0 is not None:
            if theta0 >= dim:
                raise ValueError(
                    f"the default theta = x{theta0 + 1} E_1 dx1 needs a chart of dimension at least "
                    f"{theta0 + 1}, not dimension {dim}; give theta"
                )
            theta[0][0] = coord(theta0)
    else:
        theta = _parse_array(theta, chart, (dim, k), "theta")
    nabla = _ad_connection(fiber, theta)
    if omega is None:
        Om = _curvature_of_theta(fiber, theta)
    else:
        Om = _parse_two_form(omega, chart, k)
    _require_curvature_is_ad(fiber, nabla, Om, plan.fork(tag))
    return _coupled_model(name, tangent_algebroid(chart), fiber, nabla, _tangent_twist(Om, k), plan)


def _build_transitive(params: dict, plan: SamplePlan) -> ExampleModel:
    """Transitive algebroid with isotropy the given fiber algebra, built
    from a connection 1-form (zero by default); the anchor splitting
    tau lifting the coordinate fields is returned alongside."""
    fiber_rank = params.pop("fiber_rank", None)
    m = _twisted_tangent_model("transitive", params, plan, "abelian", fiber_rank, None, "trans")
    dim, k = m.algebroid.chart.dim, m.ideal.k
    m.tau = [[ZERO] * dim for _ in range(k)] + [
        [ONE if i == a else ZERO for i in range(dim)] for a in range(dim)
    ]
    return m


def so3_radial_action(plan: SamplePlan | None = None) -> ExampleModel:
    """Rotation algebra acting on a box away from the origin, with the
    radial line ideal in an adapted frame, the orthogonal-projection
    splitting, and the transported canonical flat connection."""
    plan = plan or SamplePlan()
    chart = Chart(3, bounds=[(0.4, 1.2), (-0.8, 0.8), (-0.8, 0.8)], excluded_origin=True)
    x = [coord(i) for i in range(3)]
    eps = so3_constants()
    bund = Bundle(chart, 3)
    # anchor columns: rho(E_a)(x) = x cross E_a.
    anchor = [
        [ZERO, neg(x[2]), x[1]],
        [x[2], ZERO, neg(x[0])],
        [neg(x[1]), x[0], ZERO],
    ]
    struct = [
        [[const(float(eps[a, b, c])) for c in range(3)] for b in range(3)]
        for a in range(3)
    ]
    A0 = LieAlgebroid(bund, anchor, struct)

    # Adapted frame: radial section first, then E_2, E_3 (valid since
    # the chart keeps x1 away from zero).
    P = [
        [x[0], ZERO, ZERO],
        [x[1], ONE, ZERO],
        [x[2], ZERO, ONE],
    ]
    P_inv = symbolic_inverse(P)
    A = change_frame(A0, P, P_inv)
    ideal = IdealBundle(A, 1, plan=plan.fork("ideal"))

    r2 = add(mul(x[0], x[0]), mul(x[1], x[1]), mul(x[2], x[2]))
    # Radial projection <v, x> x / |x|^2 in the adapted frame.
    l = [[ONE, fold(div(x[1], r2)), fold(div(x[2], r2))]]
    conn0 = connection_change_frame(LinearConnection.trivial(bund), P, P_inv)
    conn = LinearConnection(A.bundle, conn0.christoffel)
    return ExampleModel("action", A, ideal, connection=conn, splitting=l)


def _build_action(params: dict, plan: SamplePlan) -> ExampleModel:
    """Action algebroids: either the shipped rotation/radial model or a
    user-specified algebra action."""
    variant = params.pop("variant", "so3_radial")
    if variant == "so3_radial":
        if params:
            raise ValueError(f"unknown action parameters: {sorted(params)}")
        return so3_radial_action(plan)
    raise ValueError(f"unknown action variant {variant!r}")


def _build_principal_type(params: dict, plan: SamplePlan) -> ExampleModel:
    """Fiber-product model: tangent base, rotation-algebra fiber with
    connection d + ad(theta) (theta = x2 E_1 dx1 by default), mixed
    tensor the curvature contracted with the anchor."""
    return _twisted_tangent_model("principal_type", params, plan, "so3", None, 1, "ad")


def _build_principal_type_flat(params: dict, plan: SamplePlan) -> ExampleModel:
    """Kernel-flat variant: flat fiber connection and a center-valued,
    covariantly closed 2-form feeding the mixed tensor."""
    dim = _positive_int(params.pop("dim", 2), "dim")
    chart = Chart(dim)
    fiber_name = params.pop("fiber", "abelian")
    fiber_rank = params.pop("fiber_rank", None)
    fiber = _fiber_from_name(chart, fiber_name, rank=fiber_rank)
    k = fiber.bundle.rank
    theta = params.pop("theta", ["0"] * dim)
    omega = params.pop("omega", None)
    if params:
        raise ValueError(f"unknown principal_type_flat parameters: {sorted(params)}")
    theta = _parse_array(theta, chart, (dim,), "theta")
    gam = [
        [[theta[i] if a == b else ZERO for b in range(k)] for a in range(k)]
        for i in range(dim)
    ]
    nablaL = LinearConnection(fiber.bundle, gam)
    if omega is None:
        # dx1 ^ dx2 times the last fiber direction, central for the
        # stock fibers.
        omega = [[ONE if (t, e) == (0, k - 1) else ZERO for e in range(k)] for t in range(dim * (dim - 1) // 2)]
    Om = _parse_two_form(omega, chart, k)
    if dim < 2:
        raise ValueError("form degree out of range for chart")
    # Preconditions: flat connection, center-valued and covariantly
    # closed 2-form.
    rep = Report(command="principal-type-flat", seed=plan.seed, samples=plan.samples)
    flat, res = connection_is_flat(nablaL, plan.fork("flat"))
    rep.add("fiber_connection_flat", res, 1e-10)
    Om_map = _two_form_map(Om, k)
    i, j = np.triu_indices(dim, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        pts = plan.points(chart, 25)
        (Om_pts,) = _stack(pts, Om_map.value)
        # The part of each Omega_ij off the center, through the orthogonal
        # projection onto it.
        proj = np.array([z @ z.T for z in (center_basis(fiber, p) for p in pts)])
        off = Om_pts - np.einsum("pef,pijf->pije", proj, Om_pts)
        rep.add("twist_center_valued", off[:, i, j], 1e-9)
        if dim >= 3:
            G, Om_pts, dOm = _stack(
                plan.points(chart, 25), nablaL.gamma_map.value, Om_map.value, Om_map.partials
            )
            rep.add("twist_covariantly_closed", _d_nabla(G, Om_pts, dOm), 1e-9)
    if not rep.passed:
        raise ConstructionRefused("kernel-flat construction preconditions failed", rep)
    return _coupled_model("principal_type_flat", tangent_algebroid(chart), fiber, nablaL, _tangent_twist(Om, k), plan)


def _build_rank_one(params: dict, plan: SamplePlan) -> ExampleModel:
    """Generic rank-one coupling from a scalar connection 1-form and a
    mixed-tensor matrix over the tangent base."""
    dim = _positive_int(params.pop("dim", 2), "dim")
    chart = Chart(dim)
    theta = params.pop("theta", ["0"] * dim)
    theta = _parse_array(theta, chart, (dim,), "theta")
    U1 = params.pop("U1", None)
    verify_skew = params.pop("verify_skew", True)
    if not isinstance(verify_skew, bool):
        raise ValueError(f"verify_skew must be true or false, not {verify_skew!r}")
    if params:
        raise ValueError(f"unknown rank_one parameters: {sorted(params)}")
    if U1 is None:
        U1 = [[ZERO] * dim for _ in range(dim)]
    else:
        U1 = _parse_array(U1, chart, (dim, dim), "U1")
    fiber = _fiber_from_name(chart, "abelian", rank=1)
    nablaL = LinearConnection(fiber.bundle, [[[theta[i]]] for i in range(dim)])
    U = [[[U1[a][i]] for i in range(dim)] for a in range(dim)]
    return _coupled_model("rank_one", tangent_algebroid(chart), fiber, nablaL, U, plan, verify_skew)


def transitive_im_connection(
    A: LieAlgebroid,
    tau: Sequence[Sequence[Expr]],
    plan: SamplePlan | None = None,
) -> IMOneForm:
    """Connection form of a transitive algebroid induced by an anchor
    splitting tau (r x n Exprs, columns lifting the coordinate fields):
    the symbol is the projection along the splitting and the operator
    brackets with the lifted fields.

    Requires rho o tau = Id (within 1e-10) and full anchor rank at
    samples; the isotropy must be the span of the first r - n frame
    elements.
    """
    plan = plan or SamplePlan()
    n, r = A.chart.dim, A.rank
    k = r - n
    if k < 0:
        raise ValueError("algebroid rank below chart dimension cannot be transitive")
    tau = [[fold(x) for x in row] for row in tau]
    if len(tau) != r or any(len(row) != n for row in tau):
        raise ValueError("tau must be an r x n Expr matrix")

    # rho o tau = Id and transitivity at samples.
    rho, tv = _stack(plan.points(A.chart, 25), A.anchor_map.value, PointMap.exact(tau).value)
    with np.errstate(invalid="ignore", over="ignore"):
        worst = sup(rho @ tv - np.eye(n))
    if worst > 1e-10:
        rep = Report(command="transitive-im", seed=plan.seed, samples=plan.samples)
        rep.add("anchor_splitting", worst, 1e-10)
        raise ConstructionRefused("tau is not a splitting of the anchor", rep)
    # A finite residual leaves the anchor finite, so its SVD returns.
    if np.any(np.linalg.svd(rho, compute_uv=False)[:, n - 1] < 1e-9):
        rep = Report(command="transitive-im", seed=plan.seed, samples=plan.samples)
        rep.add("anchor_full_rank", 1.0, 0.5)
        raise ConstructionRefused("anchor is rank deficient at samples", rep)

    ideal = IdealBundle(A, k, plan=plan.fork("ideal"))
    # Symbol: identity minus tau rho, restricted to the ideal rows.
    l = []
    for c in range(k):
        row = []
        for a in range(r):
            t = add(
                ONE if c == a else ZERO,
                neg(add(*(mul(tau[c][i], A.anchor[i][a]) for i in range(n)))),
            )
            row.append(fold(t))
        l.append(row)
    tau_secs = [Section(A.bundle, [tau[b][i] for b in range(r)]) for i in range(n)]
    frame_values = []
    for a in range(r):
        comps = {}
        ea = A.frame_section(a)
        for i in range(n):
            w = bracket(A, tau_secs[i], ea)
            comps[(i,)] = [
                fold(
                    add(
                        *(mul(l[c][b], w.components[b]) for b in range(r))
                    )
                )
                for c in range(k)
            ]
        frame_values.append(CoeffForm(ideal.bundle, 1, comps))
    return IMOneForm(A, ideal, l, frame_values)
