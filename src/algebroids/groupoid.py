"""Numeric desk-scale realization of the global theory on action
groupoids of matrix Lie groups: multiplicative fiber-valued forms, the
simplicial differential with its coefficient twist, connection forms
from equivariant splittings, covariant exterior derivatives and
curvature by finite differences, and differentiation down to the
symbolic infinitesimal side.

Conventions: an arrow is a pair (g, x) from x to g.x; sections of the
algebroid are identified with group-algebra-valued functions through
the kernel-of-target-differential convention, which makes the anchor
the negative of the naive action field and keeps constant sections
bracketing by the group structure constants.  Left-invariant flows are
then explicit:  (g, x) -> (g exp(t v), exp(-t v).x).
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .algebroid import (
    IdealBundle,
    LieAlgebroid,
    change_frame,
)
from .bundles import Bundle, LinearConnection
from .expr import (
    Chart,
    Expr,
    ZERO,
    add,
    const,
    coord,
    differentiate,
    fold,
    mul,
    neg,
    substitute,
    _sample_point,
)
from .bundles import PointMap, _as_point, alternating_array, exact_memo
from .imforms import NumericCouplingData, NumericIMOneForm, quotient_algebroid
from .sampling import Report, SamplePlan, sup

__all__ = [
    "MatrixGroup",
    "ActionGroupoid",
    "MultForm",
    "connection_from_splitting",
    "simplicial_delta",
    "delta_of_function",
    "covariant_exterior_D",
    "d_nabla_s",
    "check_groupoid_properties",
    "differentiate_to_im",
    "numeric_extract_coupling",
    "EquivarianceError",
    "FlowRegionError",
    "StepSizeWarning",
]


class _PadeExpm:
    """Matrix exponential by Higham's scaling and squaring with the
    [13/13] Pade approximant alone (SIAM J. Matrix Anal. Appl. 26,
    2005): scale A by 2^-s until ||A||_1 <= theta_13, take the
    approximant R = (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U, so that
    exp(0) is exactly I, and square R s times.

    Complex input stays complex.  An instance rather than a function, so
    that ``expm`` is one binding and a tracer that times it as a leaf
    wraps it once."""

    b = (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    )
    theta = 5.371920351148152

    def __call__(self, a):
        a = np.asarray(a)
        a = a.astype(np.result_type(a, np.float64), copy=False)
        norm = float(np.abs(a).sum(axis=0).max())
        s = math.ceil(math.log2(norm / self.theta)) if self.theta < norm < math.inf else 0
        if s:
            a = a * 2.0**-s
        b = self.b
        eye = np.eye(a.shape[0], dtype=a.dtype)
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
        r = eye + 2.0 * np.linalg.solve(v - u, u)
        for _ in range(s):
            r = r @ r
        return r


expm = _PadeExpm()


def _flow_memo(group: MatrixGroup) -> Callable[[int, float], np.ndarray]:
    """The constant flows exp(s U_mu) of the algebra basis, each
    computed once per (mu, exact s)."""
    return exact_memo(lambda mu, s: expm(s * group.basis[mu]))


class StepSizeWarning(UserWarning):
    """Halving the finite-difference step moved the result by more than
    an order of magnitude: the step is in a noise-dominated regime."""


class EquivarianceError(Exception):
    """A splitting failed its equivariance precondition; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class FlowRegionError(Exception):
    """A left-invariant flow left the padded sampling region."""


class MatrixGroup:
    """Matrix Lie group presented by an ambient size and a basis of its
    Lie algebra; group elements are reached as products of exponentials.
    """

    def __init__(self, ambient: int, basis: Sequence[np.ndarray]):
        self.N = int(ambient)
        self.basis = [np.asarray(X, dtype=float).reshape(self.N, self.N) for X in basis]
        self.dim = len(self.basis)
        if not self.dim:
            raise ValueError("Lie algebra basis is empty")
        flat = np.stack([X.ravel() for X in self.basis], axis=1)
        if np.linalg.matrix_rank(flat, tol=1e-12) < self.dim:
            raise ValueError("Lie algebra basis is linearly dependent")
        self._flat = flat
        # The basis as rows of a (dim, N^2) array: the operand
        # np.tensordot(v, np.stack(basis), axes=1) hands to np.dot.
        self._rows = np.stack(self.basis).reshape(self.dim, self.N**2)
        self._pinv = np.linalg.pinv(flat)
        # Structure constants from commutators; require closure.
        self.structure = np.zeros((self.dim, self.dim, self.dim))
        defects = []
        for a in range(self.dim):
            for b in range(self.dim):
                comm = self.basis[a] @ self.basis[b] - self.basis[b] @ self.basis[a]
                coef = self._pinv @ comm.ravel()
                defects.append(self._flat @ coef - comm.ravel())
                self.structure[a, b] = coef
        worst = sup(*defects)
        if worst > 1e-10:
            raise ValueError(
                f"basis does not close under commutators (residual {worst:.2e})"
            )

    # Both keep complex input complex, for the complex step.
    def to_matrix(self, v: np.ndarray) -> np.ndarray:
        v = _as_point(v).reshape(1, self.dim)
        return np.dot(v, self._rows).reshape(self.N, self.N)

    def coords(self, V: np.ndarray) -> np.ndarray:
        return self._pinv @ _as_point(V).ravel()

    def exp(self, v: np.ndarray) -> np.ndarray:
        return expm(self.to_matrix(v))

    def ad_action(self, g: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Adjoint action on coordinates: coords of g V g^-1."""
        V = self.to_matrix(v)
        return self.coords(g @ V @ np.linalg.inv(g))

    def bracket_coords(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.einsum("a,b,abc->c", u, v, self.structure)

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        v = rng.uniform(-1.0, 1.0, size=self.dim)
        nrm = np.linalg.norm(v)
        if nrm > 1.0:
            v = v / nrm
        return self.exp(v)


class ActionGroupoid:
    """Action groupoid of a matrix group on a chart.

    The action is given by Exprs over a combined chart whose first
    ambient^2 coordinates are the (row-major) group entries and whose
    remaining ones are the chart point.  The bundle of ideals is a frame
    of group-algebra-valued sections over the chart, completed to a full
    frame by the supplied complement, and comes with a splitting onto
    the ideal-frame coefficients.
    """

    def __init__(
        self,
        group: MatrixGroup,
        chart: Chart,
        action: Sequence[Expr],
        ideal_frame: Sequence[Sequence[Expr]],
        complement: Sequence[Sequence[Expr]] | None = None,
        splitting: Sequence[Sequence[Expr]] | None = None,
    ):
        self.group = group
        self.chart = chart
        n, d, N = chart.dim, group.dim, group.N
        if len(action) != n:
            raise ValueError("one action expression per chart coordinate")
        self.action_exprs = tuple(fold(a) for a in action)
        self.k = len(ideal_frame)
        if not 1 <= self.k <= d:
            raise ValueError("ideal frame size out of range")
        self.ideal_frame = tuple(
            tuple(fold(x) for x in sec) for sec in ideal_frame
        )
        for sec in self.ideal_frame:
            if len(sec) != d:
                raise ValueError("ideal frame sections must have one entry per basis element")
        if complement is None:
            complement = []
        self.complement = tuple(tuple(fold(x) for x in sec) for sec in complement)
        if len(self.complement) != d - self.k:
            raise ValueError("complement must complete the ideal frame to a full frame")
        if any(len(sec) != d for sec in self.complement):
            raise ValueError("complement sections must have one entry per basis element")
        self.splitting = None
        if splitting is not None:
            if len(splitting) != self.k or any(len(row) != d for row in splitting):
                raise ValueError("splitting must be a k x d Expr matrix")
            self.splitting = tuple(tuple(fold(x) for x in row) for row in splitting)

        self._action = PointMap.exact(self.action_exprs)
        # Exact derivatives of the action in group and chart directions.
        self._jac_x = PointMap.exact(
            [[differentiate(a, N * N + j) for j in range(n)] for a in self.action_exprs]
        )
        self._jac_g = PointMap.exact(
            [[differentiate(a, q) for q in range(N * N)] for a in self.action_exprs]
        )
        self._frame = PointMap.exact(self.ideal_frame)
        self._alg = None

    # Numeric evaluation helpers; a complex arrow gives complex values.
    def _combined(self, g: np.ndarray, x) -> np.ndarray:
        return np.concatenate([_as_point(g).ravel(), _as_point(x)])

    def act(self, g: np.ndarray, x) -> np.ndarray:
        return self._action.value(self._combined(g, x))

    def act_jac_x(self, g: np.ndarray, x) -> np.ndarray:
        return self._jac_x.value(self._combined(g, x))

    def act_jac_g(self, g: np.ndarray, x) -> np.ndarray:
        return self._jac_g.value(self._combined(g, x))

    def action_field(self, v: np.ndarray, x) -> np.ndarray:
        """Naive infinitesimal action: d/dt of exp(tv).x at t = 0."""
        I = np.eye(self.group.N)
        return self.act_jac_g(I, x) @ self.group.to_matrix(v).ravel()

    def kframe(self, x) -> np.ndarray:
        return self._frame.value(x).T  # d x k

    def kcoords(self, x, w: np.ndarray) -> np.ndarray:
        F = self.kframe(x)
        sol, *_ = np.linalg.lstsq(F, np.asarray(w, dtype=float), rcond=None)
        return sol

    def fiber_structure(self, x) -> np.ndarray:
        """Structure constants of the ideal fibers in the ideal frame."""
        k = self.k
        F = self.kframe(x)
        out = np.zeros((k, k, k))
        for i in range(k):
            for j in range(k):
                br = self.group.bracket_coords(F[:, i], F[:, j])
                out[i, j] = self.kcoords(x, br)
        return out

    def twist(self, g: np.ndarray, x, coeffs_at_gx: np.ndarray) -> np.ndarray:
        """Coefficient twist by the inverse conjugation action: value in
        the fiber over g.x expressed over x."""
        y = self.act(g, x)
        w = self.kframe(y) @ np.asarray(coeffs_at_gx)
        w_back = self.group.ad_action(np.linalg.inv(g), w)
        return self.kcoords(x, w_back)

    def sample_arrow(self, rng: np.random.Generator):
        g = self.group.random_element(rng)
        x = _sample_point(self.chart, rng)
        return g, x

    def sample_tangent(self, rng: np.random.Generator):
        """A tangent (v, w) at any arrow, in the coordinates of MultForm."""
        v = rng.uniform(-1.0, 1.0, size=self.group.dim)
        w = rng.uniform(-1.0, 1.0, size=self.chart.dim)
        return v, w

    def verify(self, plan: SamplePlan | None = None) -> Report:
        """Sampled structural invariants: identity action, composition
        compatibility, and invariance of the ideal under conjugation."""
        plan = plan or SamplePlan()
        report = Report(command="groupoid-structure", seed=plan.seed, samples=plan.samples)
        rng = plan.rng
        I = np.eye(self.group.N)
        id_res, comp_res, ad_res, frame_res = [], [], [], []
        n_pairs = min(plan.samples, 100)
        for _ in range(n_pairs):
            g1, x = self.sample_arrow(rng)
            g2, _ = self.sample_arrow(rng)
            id_res.append(self.act(I, x) - np.asarray(x))
            comp_res.append(self.act(g1, self.act(g2, x)) - self.act(g1 @ g2, x))
            # Conjugation maps the fiber over x onto the fiber over g1.x:
            # compare orthonormalized spans.
            F = self.kframe(x)
            Fg = np.stack(
                [self.group.to_matrix(self.group.ad_action(g1, F[:, j])).ravel() for j in range(self.k)],
                axis=1,
            )
            y = self.act(g1, x)
            Fy = np.stack(
                [self.group.to_matrix(self.kframe(y)[:, j]).ravel() for j in range(self.k)],
                axis=1,
            )
            Q1, _ = np.linalg.qr(Fg)
            Q2, _ = np.linalg.qr(Fy)
            ad_res.append(Q1 @ Q1.T - Q2 @ Q2.T)
            # Ideal sections must sit in the kernel of the action.
            frame_res.append([self.action_field(F[:, j], x) for j in range(self.k)])
        report.add("action_identity", np.array(id_res), 1e-12)
        report.add("action_composition", np.array(comp_res), 1e-8)
        report.add("ideal_conjugation_invariance", np.array(ad_res), 1e-7)
        report.add("ideal_in_action_kernel", np.array(frame_res), 1e-8)
        return report

    def action_algebroid(self) -> tuple[LieAlgebroid, IdealBundle]:
        """The symbolic infinitesimal counterpart, in the frame adapted
        to the ideal (ideal sections first, then the complement).

        The anchor is minus the action field, matching the
        kernel-of-target convention under which constant sections
        bracket by the group structure constants.
        """
        if self._alg is not None:
            return self._alg
        n, d, N = self.chart.dim, self.group.dim, self.group.N
        # Substitute g = identity, renumber chart coordinates.
        mapping = {}
        I = np.eye(N)
        for p in range(N):
            for q in range(N):
                mapping[N * p + q] = const(float(I[p, q]))
        for i in range(n):
            mapping[N * N + i] = coord(i)
        jac_g_at_id = [
            [substitute(e, mapping) for e in row] for row in self._jac_g.exprs
        ]
        anchor = []
        for i in range(n):
            row = []
            for b in range(d):
                Xb = self.group.basis[b].ravel()
                terms = [
                    mul(const(float(Xb[q])), jac_g_at_id[i][q])
                    for q in range(N * N)
                    if Xb[q] != 0.0
                ]
                row.append(fold(neg(add(*terms))) if terms else ZERO)
            anchor.append(row)
        struct = [
            [
                [const(float(self.group.structure[a, b, c])) for c in range(d)]
                for b in range(d)
            ]
            for a in range(d)
        ]
        A0 = LieAlgebroid(Bundle(self.chart, d), anchor, struct)
        P = [[ZERO] * d for _ in range(d)]
        for j, sec in enumerate(self.ideal_frame):
            for b in range(d):
                P[b][j] = sec[b]
        for j, sec in enumerate(self.complement):
            for b in range(d):
                P[b][self.k + j] = sec[b]
        A = change_frame(A0, P)
        ideal = IdealBundle(A, self.k)
        self._alg = (A, ideal, P)
        return self._alg

    def induced_connection(self) -> LinearConnection:
        """Linear connection on the ideal coefficients induced by the
        splitting: differentiate the frame sections componentwise and
        project."""
        if self.splitting is None:
            raise ValueError("groupoid carries no splitting")
        n, d, k = self.chart.dim, self.group.dim, self.k
        kb = Bundle(self.chart, k)
        mats = []
        for i in range(n):
            M = [
                [
                    fold(
                        add(
                            *(
                                mul(self.splitting[c][b], differentiate(self.ideal_frame[j][b], i))
                                for b in range(d)
                            )
                        )
                    )
                    for j in range(k)
                ]
                for c in range(k)
            ]
            mats.append(M)
        return LinearConnection(kb, mats)


class MultForm:
    """Fiber-valued form on the arrow space, of degree 0 to 3.

    The evaluator receives an arrow (g, x) and ``degree`` tangent
    vectors and returns coefficients in the ideal frame over the source
    point x.  A tangent at (g, x) is a pair (v, w) in left-trivialized
    coordinates: v holds the algebra coordinates of g^-1 xi for the
    group tangent xi at g, and w is the chart vector.
    """

    def __init__(self, gpd: ActionGroupoid, degree: int, evaluator: Callable):
        if degree not in (0, 1, 2, 3):
            raise ValueError("only degrees 0, 1, 2, 3 are supported")
        self.gpd = gpd
        self.degree = degree
        self._eval = evaluator

    def __call__(self, g, x, *tangents) -> np.ndarray:
        if len(tangents) != self.degree:
            raise ValueError(f"form of degree {self.degree} needs {self.degree} tangents")
        return np.asarray(self._eval(g, x, *tangents))

    def antisymmetry_residual(self, plan: SamplePlan, n_samples: int = 20) -> float:
        if self.degree != 2:
            raise ValueError(f"antisymmetry is measured on degree 2 forms, not degree {self.degree}")
        defects = []
        for _ in range(n_samples):
            g, x = self.gpd.sample_arrow(plan.rng)
            T1 = self.gpd.sample_tangent(plan.rng)
            T2 = self.gpd.sample_tangent(plan.rng)
            defects.append(self(g, x, T1, T2) + self(g, x, T2, T1))
        return sup(np.array(defects))


_SPLITTING_MEMO_ENTRIES = 64


def connection_from_splitting(
    gpd: ActionGroupoid,
    splitting: Sequence[Sequence[Expr]] | None = None,
    plan: SamplePlan | None = None,
) -> MultForm:
    """Connection 1-form of an equivariant splitting: the splitting at
    the source point applied to the group part v of a tangent (v, w).

    Refused when the splitting fails equivariance (within 1e-7) or does
    not restrict to the identity on the ideal frame (within 1e-9),
    sampled.
    """
    plan = plan or SamplePlan()
    l = splitting if splitting is not None else gpd.splitting
    if l is None:
        raise ValueError("no splitting supplied")
    d, k, n = gpd.group.dim, gpd.k, gpd.chart.dim

    l_val = PointMap.exact(l).value

    report = Report(command="connection-from-splitting", seed=plan.seed, samples=plan.samples)
    eq_res, id_res = [], []
    for _ in range(min(plan.samples, 60)):
        g, x = gpd.sample_arrow(plan.rng)
        v = plan.rng.uniform(-1, 1, size=d)
        gx = gpd.act(g, x)
        lhs_coeff = l_val(gx) @ gpd.group.ad_action(g, v)
        lhs = gpd.kframe(gx) @ lhs_coeff
        rhs = gpd.group.to_matrix(
            gpd.group.ad_action(g, gpd.kframe(x) @ (l_val(x) @ v))
        )
        lhs_m = gpd.group.to_matrix(lhs)
        eq_res.append(lhs_m - rhs)
        F = gpd.kframe(x)
        id_res.append(l_val(x) @ F - np.eye(k))
    report.add("splitting_equivariance", np.array(eq_res), 1e-7)
    report.add("splitting_identity_on_ideal", np.array(id_res), 1e-9)
    if not report.passed:
        raise EquivarianceError(
            "splitting rejected: "
            + ", ".join(f"{c.name}={c.max_residual:.2e}" for c in report.checks),
            report,
        )

    # The splitting depends on the point only: evaluate it once per
    # distinct point, not once per tangent vector.  Its hits come from
    # tangents at one point, so a small memo keeps them without growing
    # with every point ever seen.
    l_at = exact_memo(l_val, _SPLITTING_MEMO_ENTRIES)

    def evaluator(g, x, T):
        return l_at(x) @ T[0]

    return MultForm(gpd, 1, evaluator)


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


def simplicial_delta(gpd: ActionGroupoid, omega: MultForm) -> Callable:
    """Simplicial differential on composable pairs of a MultForm of any
    degree: the twisted alternating sum over the faces pr1, m and pr2.
    The evaluator takes the pair (g1, g2, x) plus as many tangent
    vectors (v1, v2, w) of the pair manifold as the form's degree, with
    v1 and v2 the left-trivialized coordinates of MultForm."""

    def lift(g1, g2, x, T):
        """Tangents of the faces pr1, m, pr2 at (g1, g2.x), (g1 g2, x)
        and (g2, x)."""
        v1, v2, w = T
        xi2 = g2 @ gpd.group.to_matrix(v2)
        dy = gpd.act_jac_g(g2, x) @ xi2.ravel() + gpd.act_jac_x(g2, x) @ w
        # The product's tangent g1 V1 g2 + g1 g2 V2 is g1 g2 (g2^-1 V1 g2 + V2).
        vm = gpd.group.coords(np.linalg.solve(g2, gpd.group.to_matrix(v1) @ g2)) + v2
        return (v1, dy), (vm, w), (v2, w)

    def delta(g1, g2, x, *tangents):
        y = gpd.act(g2, x)
        faces = [lift(g1, g2, x, T) for T in tangents]
        p1, m, p2 = ([face[s] for face in faces] for s in range(3))
        return (
            gpd.twist(g2, x, omega(g1, y, *p1)) - omega(g1 @ g2, x, *m) + omega(g2, x, *p2)
        )

    return delta


def _w_basis_tangent(gpd: ActionGroupoid, mu: int):
    """The mu-th stock vector field: the left-invariant extensions of
    the algebra basis followed by the coordinate fields.  In the
    coordinates of MultForm it is the mu-th unit vector at every arrow."""
    d = gpd.group.dim
    e = np.eye(d + gpd.chart.dim)[mu]
    return e[:d], e[d:]


def _move(gpd: ActionGroupoid, g, x, mu: int, s: float, flow: Callable):
    """Arrow (g, x) moved by s along the mu-th stock vector field."""
    d = gpd.group.dim
    if mu < d:
        return g @ flow(mu, s), np.asarray(x, dtype=float)
    y = np.asarray(x, dtype=float).copy()
    y[mu - d] += s
    return g, y


def d_nabla_s(
    gpd: ActionGroupoid,
    omega: MultForm,
    conn: LinearConnection,
    step: float = 1e-5,
) -> MultForm:
    """Covariant exterior derivative (no horizontal projection) of a
    form of degree p = 1 or 2 with respect to the source-pullback of a
    fiber connection, by central differences along the stock vector
    fields X_0, ..., X_{m-1}:

        sum_t (-1)^t (X_t + Gamma(X_t)) omega(..., X_t omitted, ...)
          + sum_{s<t} (-1)^(s+t) omega([X_s, X_t], ..., X_s, X_t omitted, ...).

    Gamma reads the chart part of a field; only pairs of group fields
    bracket, by the structure constants.  The table of values on the
    stock fields depends on the arrow only, so it is memoized by the
    exact arrow, at most one Bianchi stencil (an arrow and its 2m
    moves); each tangent's coordinates are contracted against it.  This
    relies on omega being a pure function of its arguments.
    """
    p = omega.degree
    if p not in (1, 2):
        raise ValueError(f"only forms of degree 1 or 2 are differentiated, not degree {p}")
    d, m, k = gpd.group.dim, gpd.group.dim + gpd.chart.dim, gpd.k
    structure = gpd.group.structure
    flow = _flow_memo(gpd.group)

    def on_stock(g, x, idx):
        return omega(g, x, *(_w_basis_tangent(gpd, mu) for mu in idx))

    def table(g, x):
        at = {idx: on_stock(g, x, idx) for idx in itertools.combinations(range(m), p)}
        W = alternating_array(np.reshape(list(at.values()), (len(at), k)), m, p)
        moved = [
            (_move(gpd, g, x, mu, step, flow), _move(gpd, g, x, mu, -step, flow))
            for mu in range(m)
        ]
        out, G = [], None
        for idx in itertools.combinations(range(m), p + 1):
            val = np.zeros(k)
            for t, a in enumerate(idx):
                rest = idx[:t] + idx[t + 1 :]
                (gp, xp), (gm, xm) = moved[a]
                dval = (on_stock(gp, xp, rest) - on_stock(gm, xm, rest)) / (2 * step)
                if a >= d:
                    # Gamma read whole at x, where it is first needed.
                    G = conn.gamma_map.value(x) if G is None else G
                    dval += G[a - d] @ at[rest]
                val += -dval if t % 2 else dval
            for s, t in itertools.combinations(range(p + 1), 2):
                a, b = idx[s], idx[t]
                if b < d:
                    rest = idx[:s] + idx[s + 1 : t] + idx[t + 1 :]
                    br = np.tensordot(structure[a, b], W[:d], axes=1)[rest]
                    val += -br if (s + t) % 2 else br
            out.append(val)
        return alternating_array(np.reshape(out, (len(out), k)), m, p + 1)

    matrix = exact_memo(table, 2 * m + 1)

    def evaluator(g, x, *tangents):
        M = matrix(g, x)
        for T in tangents:
            M = np.tensordot(np.concatenate(T), M, axes=1)
        return M

    return MultForm(gpd, p + 1, evaluator)


def horizontal_projection(gpd: ActionGroupoid, alpha: MultForm):
    """h(X) = X minus the vertical lift of alpha(X)."""

    def h(g, x, T):
        v, w = T
        return (v - gpd.kframe(x) @ alpha(g, x, T), w)

    return h


def covariant_exterior_D(
    gpd: ActionGroupoid,
    omega: MultForm,
    conn: LinearConnection,
    alpha: MultForm | None = None,
    step: float = 1e-5,
) -> MultForm:
    """Exterior covariant derivative of a form of degree 1 or 2: the
    covariant differential ``d_nabla_s`` evaluated on horizontal
    projections (with respect to the connection form alpha, defaulting
    to omega itself for degree 1; a degree-2 form needs alpha).

    For degree 1, on the first evaluation the result is recomputed at
    half the step; if the two values disagree by more than an order of
    magnitude of their size, a StepSizeWarning is emitted.
    """
    if alpha is None and omega.degree == 2:
        raise ValueError("a form of degree 2 needs its connection form alpha")
    alpha = alpha if alpha is not None else omega
    h = horizontal_projection(gpd, alpha)
    dnabla = d_nabla_s(gpd, omega, conn, step=step)

    def horizontal(g, x, *tangents):
        return dnabla(g, x, *(h(g, x, T) for T in tangents))

    if omega.degree == 2:
        return MultForm(gpd, 3, horizontal)

    dnabla_half = d_nabla_s(gpd, omega, conn, step=step / 2)
    checked = [False]

    def evaluator(g, x, T1, T2):
        val = horizontal(g, x, T1, T2)
        if not checked[0]:
            checked[0] = True
            val_half = dnabla_half(g, x, h(g, x, T1), h(g, x, T2))
            drift = sup(val - val_half)
            scale = sup(val, val_half)
            # Honest second-order differences agree to several
            # digits; disagreement beyond a tenth of the magnitude
            # means the step is noise-dominated.
            if drift * 10.0 > scale + 1e-8:
                warnings.warn(
                    f"step-size failure: values at steps h and h/2 "
                    f"disagree by {drift:.2e} (scale {scale:.2e})",
                    StepSizeWarning,
                    stacklevel=2,
                )
        return val

    return MultForm(gpd, 2, evaluator)


def check_groupoid_properties(
    gpd: ActionGroupoid,
    alpha: MultForm,
    Omega,
    conn: LinearConnection,
    plan: SamplePlan | None = None,
    tol: float = 1e-4,
    n_pairs: int = 100,
    n_points: int = 25,
) -> Report:
    """Multiplicativity of the connection form (within 1e-7) and of its
    curvature, the structure equation, and the differential Bianchi
    identity, all by sampled finite differences, the last two at steps
    1e-5 and 2e-4.  Residuals but the first are relative to the sampled
    curvature scale."""
    plan = plan or SamplePlan()
    rng = plan.rng
    report = Report(command="groupoid-verify", seed=plan.seed, samples=plan.samples)

    def pair_tangent():
        d, n = gpd.group.dim, gpd.chart.dim
        return tuple(rng.uniform(-1, 1, size=size) for size in (d, d, n))

    # (multiplicativity of alpha) delta alpha = 0 on composable pairs.
    d_alpha = simplicial_delta(gpd, alpha)
    defects = []
    for _ in range(n_pairs):
        g1, x = gpd.sample_arrow(rng)
        g2, _ = gpd.sample_arrow(rng)
        defects.append(d_alpha(g1, g2, x, pair_tangent()))
    report.add("delta_alpha", np.array(defects), 1e-7)

    # Scale of the curvature over the sample, for relative residuals.
    samples = []
    for _ in range(n_points):
        g, x = gpd.sample_arrow(rng)
        T1 = gpd.sample_tangent(rng)
        T2 = gpd.sample_tangent(rng)
        samples.append((g, x, T1, T2, Omega(g, x, T1, T2)))
    denom = 1.0 + sup(np.array([s[-1] for s in samples]))

    def relative(defects: list) -> float:
        # A non-finite curvature scale must fail the check, not divide
        # the residual down to zero.
        return sup(np.array(defects)) / denom if math.isfinite(denom) else math.inf

    # (a) delta Omega = 0.
    d_Omega = simplicial_delta(gpd, Omega)
    defects = []
    for _ in range(min(n_pairs, 40)):
        g1, x = gpd.sample_arrow(rng)
        g2, _ = gpd.sample_arrow(rng)
        defects.append(d_Omega(g1, g2, x, pair_tangent(), pair_tangent()))
    report.add("delta_Omega", relative(defects), tol)

    # (b) structure equation Omega = d^nabla alpha + [alpha, alpha]-half.
    dn_alpha = d_nabla_s(gpd, alpha, conn)
    defects = []
    for g, x, T1, T2, v in samples:
        c = gpd.fiber_structure(x)
        a1 = alpha(g, x, T1)
        a2 = alpha(g, x, T2)
        half_bracket = np.einsum("a,b,abc->c", a1, a2, c)
        defects.append(v - dn_alpha(g, x, T1, T2) - half_bracket)
    report.add("structure_equation", relative(defects), tol)

    # (c) Bianchi: D Omega = 0.
    DOmega = covariant_exterior_D(gpd, Omega, conn, alpha=alpha, step=2e-4)
    defects = []
    for _ in range(min(n_points, 12)):
        g, x = gpd.sample_arrow(rng)
        Ts = [gpd.sample_tangent(rng) for _ in range(3)]
        defects.append(DOmega(g, x, *Ts))
    report.add("bianchi", relative(defects), tol)
    return report


# The complex step h of the flow derivatives: Im F(ih) / h equals F'(0)
# up to h^2 F'''(0) / 6, far below the last bit of F'(0), and has no
# difference of nearby values to cancel digits.
_COMPLEX_STEP = 1e-20


def differentiate_to_im(
    gpd: ActionGroupoid,
    alpha: MultForm,
    region_pad: float = 1.0,
) -> NumericIMOneForm:
    """Differentiate a multiplicative connection form to a numerically
    backed infinitesimal pair on the adapted action algebroid.

    The symbol contracts the form at units against algebroid elements;
    the operator differentiates along the explicit left-invariant flow
    (g, x) -> (g exp(t v), exp(-t v).x) of constant sections, extended
    to the adapted frame by the symbol rule.  The flow derivative is a
    complex step (Squire and Trapp, SIAM Review 40, 1998): one
    evaluation of the pushed-forward form at t = ih, so ``alpha`` must
    accept complex arrows and keep their values complex, as
    ``connection_from_splitting`` does.
    """
    A, ideal, P = gpd.action_algebroid()
    d, n, k = gpd.group.dim, gpd.chart.dim, gpd.k
    I = np.eye(gpd.group.N)

    # Row a: column a of P, the a-th adapted frame element in the group
    # basis.
    frame = PointMap.exact([[P[b][a] for b in range(d)] for a in range(d)])
    flow = _flow_memo(gpd.group)
    flow_inv = exact_memo(lambda b, s: np.linalg.inv(flow(b, s)))

    def l_const(v: np.ndarray, x) -> np.ndarray:
        """Symbol on the constant section with coordinates v, at x."""
        w = -gpd.action_field(v, x)
        return alpha(I, np.asarray(x, dtype=float), (v, w))

    def L_const(b: int, x) -> np.ndarray:
        """Operator value on the b-th constant basis section: an
        (n x k) array of flow derivatives, Im F(ih) / h for the flow's
        push-forward F of the form at x."""

        def F(eps: complex) -> np.ndarray:
            ge = flow(b, eps)
            gi = flow(b, -eps)
            y = gpd.act(gi, x)
            if not gpd.chart.contains(y, pad=region_pad):
                raise FlowRegionError(
                    "left-invariant flow left the padded sampling region"
                )
            J = gpd.act_jac_x(gi, x)  # columns: d(exp(-eps u).x)/dx_i
            # Push each value over y through the arrow (ge, y): adjoint
            # action on its algebra vector, coefficients over ge.y.  The
            # adjoint takes inv(ge), not gi: the two need not agree to
            # the last bit.
            Fy = gpd.kframe(y)
            ge_inv = flow_inv(b, eps)
            Fz = gpd.kframe(gpd.act(ge, y))
            out = np.zeros((n, k), dtype=complex)
            for i in range(n):
                val = alpha(ge, y, (np.zeros(d), J[:, i]))
                V = gpd.group.to_matrix(Fy @ val)
                w = gpd.group.coords(ge @ V @ ge_inv)
                out[i] = np.linalg.lstsq(Fz, w, rcond=None)[0]
            return out

        return F(1j * _COMPLEX_STEP).imag / _COMPLEX_STEP

    # The symbol and the operator at x read the same quantities: each is
    # computed once per (exact x, or b and exact x), the frame P(x), the
    # flow derivative L_const(b, x) and the symbol l_const(e_b, x) alike.
    # Unbounded: a bound would recompute flow derivatives.
    P_at = exact_memo(frame.value)
    L_at = exact_memo(L_const)
    l_basis = exact_memo(lambda b, x: l_const(np.eye(d)[b], x))

    def sym_fn(x: np.ndarray) -> np.ndarray:
        return np.array([l_const(Pa, x) for Pa in P_at(x)])

    def op_fn(x: np.ndarray) -> np.ndarray:
        out = np.zeros((d, n, k))
        P, dP = P_at(x), frame.partials(x)
        for a, i in itertools.product(range(d), range(n)):
            for b in range(d):
                if P[a, b] != 0.0:
                    out[a, i] += P[a, b] * L_at(b, x)[i]
                if dP[i, a, b] != 0.0:
                    out[a, i] += dP[i, a, b] * l_basis(b, x)
        return out

    return NumericIMOneForm(A, ideal, sym_fn, op_fn, fd_step=5e-4)


def numeric_extract_coupling(
    gpd: ActionGroupoid,
    form: NumericIMOneForm,
) -> NumericCouplingData:
    """Coupling accessors of a numerically backed connection form, using
    the groupoid's symbolic splitting for the complementary frame."""
    if gpd.splitting is None:
        raise ValueError("groupoid carries no splitting")
    A, ideal, P = gpd.action_algebroid()
    k, r, n = gpd.k, A.rank, gpd.chart.dim

    # Symbol in the adapted frame: l'(e'_a) = splitting applied to the
    # frame columns, yielding Exprs.
    l_ad = [
        [
            fold(add(*(mul(gpd.splitting[c][b], P[b][a]) for b in range(gpd.group.dim))))
            for a in range(r)
        ]
        for c in range(k)
    ]

    def gamma_fn(p):
        # Gamma_i[e, c] is the operator on the c-th ideal element.
        return form.op_map.value(p)[:k].transpose(1, 2, 0)

    if k == r:
        # Full ideal: the quotient is rank zero and only the fiber
        # connection carries content.
        return NumericCouplingData(None, ideal.fiber, gamma_fn, None)

    B = quotient_algebroid(A, k, l_ad)
    # Row a: column k + a of the symbol, the splitting on the a-th
    # complement frame element.
    l_cols = PointMap.exact([[l_ad[c][k + a] for c in range(k)] for a in range(r - k)])

    def u_fn(p):
        O, lval, dl = form.op_map.value(p), l_cols.value(p), l_cols.partials(p)
        out = -O[k:]
        for a, i in itertools.product(range(r - k), range(n)):
            for c in range(k):
                if lval[a, c] != 0.0:
                    out[a, i] += lval[a, c] * O[c, i]
            out[a, i] += dl[i, a]
        return out

    return NumericCouplingData(B, ideal.fiber, gamma_fn, u_fn)
