"""Trivialized vector bundles over a chart: sections, vector-valued
differential forms, linear connections, covariant exterior calculus,
curvature, and the fiberwise Lie bracket.

Forms store components only on strictly increasing index tuples; all
formulas route through a signed lookup, so antisymmetry is structural.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (
    Chart,
    Expr,
    ZERO,
    add,
    const,
    compile_tape,
    differentiate,
    evaluate,
    expr_equal,
    fold,
    mul,
    neg,
    _is_complex_point,
)
from .sampling import SamplePlan, sup

__all__ = [
    "Bundle",
    "Section",
    "CoeffForm",
    "PointMap",
    "exact_memo",
    "LinearConnection",
    "FiberBracket",
    "exterior_covariant_derivative",
    "curvature_tensor",
    "connection_is_flat",
    "sort_with_sign",
    "zero_form",
]


@dataclass(frozen=True)
class Bundle:
    """Trivialized vector bundle of the given rank over a chart: bundles
    of equal rank over the same chart are the same trivialized object
    and compare equal."""

    chart: Chart
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("bundle rank must be >= 1")


class Section:
    """Section of a trivialized bundle: one Expr coefficient per frame
    element e_1..e_r."""

    __slots__ = ("bundle", "components")

    def __init__(self, bundle: Bundle, components: Sequence[Expr]):
        components = tuple(fold(c) for c in components)
        if len(components) != bundle.rank:
            raise ValueError(
                f"section needs {bundle.rank} components, got {len(components)}"
            )
        self.bundle = bundle
        self.components = components

    def __add__(self, other: "Section") -> "Section":
        if other.bundle != self.bundle:
            raise ValueError("bundle mismatch")
        return Section(
            self.bundle,
            [a + b for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other: "Section") -> "Section":
        if other.bundle != self.bundle:
            raise ValueError("bundle mismatch")
        return Section(
            self.bundle,
            [a - b for a, b in zip(self.components, other.components)],
        )

    def scale(self, f: Expr) -> "Section":
        return Section(self.bundle, [fold(mul(f, c)) for c in self.components])

    def __repr__(self):
        return f"Section({[str(c.value) if c.op == 'const' else '...' for c in self.components]})"


def sort_with_sign(idx: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Insertion-sort an index tuple; return (sign, sorted tuple).
    Sign 0 on repeated indices."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return 0, tuple(idx)
    return sign, tuple(idx)


def alternating_array(entries: np.ndarray, n: int, q: int) -> np.ndarray:
    """The antisymmetric array, with q axes of length n before the value
    axis, from ``entries[..., c, v]``: the value at the c-th increasing
    q-tuple of range(n) (in ``itertools.combinations`` order).  Where
    there is no such tuple (q > n), ``entries`` still needs its tuple
    axis, of length 0, and its value axis; a tuple axis of another
    length is refused."""
    if entries.ndim < 2 or entries.shape[-2] != math.comb(n, q):
        raise ValueError(
            f"entries of shape {entries.shape} do not hold one value per "
            f"increasing {q}-tuple of {n} indices"
        )
    out = np.zeros(entries.shape[:-2] + (n,) * q + entries.shape[-1:], dtype=entries.dtype)
    for c, idx in enumerate(itertools.combinations(range(n), q)):
        for perm in itertools.permutations(idx):
            value = entries[..., c, :]
            out[(..., *perm, slice(None))] = value if sort_with_sign(perm)[0] == 1 else -value
    return out


class CoeffForm:
    """Bundle-valued differential form of degree k.

    Components are stored per strictly increasing index tuple, each a
    tuple of ``rank`` Exprs (the value in the standard frame).  Missing
    tuples are zero.
    """

    __slots__ = ("bundle", "degree", "comps")

    def __init__(
        self,
        bundle: Bundle,
        degree: int,
        comps: Mapping[tuple[int, ...], Sequence[Expr]],
    ):
        if degree < 0 or degree > bundle.chart.dim:
            raise ValueError("form degree out of range for chart")
        clean: dict[tuple[int, ...], tuple[Expr, ...]] = {}
        for idx, vec in comps.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError("index tuple length must equal degree")
            if any(i < 0 or i >= bundle.chart.dim for i in idx):
                raise ValueError("index out of chart range")
            if list(idx) != sorted(set(idx)):
                raise ValueError("indices must be strictly increasing")
            vec = tuple(fold(v) for v in vec)
            if len(vec) != bundle.rank:
                raise ValueError("component vector length must equal rank")
            if any(v != ZERO for v in vec):
                clean[idx] = vec
        self.bundle = bundle
        self.degree = degree
        self.comps = clean

    def component(self, idx: Sequence[int]) -> tuple[Expr, ...]:
        """Signed component for an arbitrary index tuple."""
        sign, key = sort_with_sign(idx)
        if sign == 0:
            return (ZERO,) * self.bundle.rank
        vec = self.comps.get(key)
        if vec is None:
            return (ZERO,) * self.bundle.rank
        if sign == 1:
            return vec
        return tuple(fold(neg(v)) for v in vec)

    def is_structurally_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "CoeffForm") -> "CoeffForm":
        if other.bundle != self.bundle or other.degree != self.degree:
            raise ValueError("form mismatch")
        keys = set(self.comps) | set(other.comps)
        out = {
            k: [a + b for a, b in zip(self.component(k), other.component(k))]
            for k in keys
        }
        return CoeffForm(self.bundle, self.degree, out)

    def __sub__(self, other: "CoeffForm") -> "CoeffForm":
        return self + other.scale(const(-1))

    def scale(self, f: Expr) -> "CoeffForm":
        return CoeffForm(
            self.bundle,
            self.degree,
            {k: [fold(mul(f, v)) for v in vec] for k, vec in self.comps.items()},
        )

    def contract(self, X: Sequence[Expr]) -> "CoeffForm":
        """Interior product i_X with a vector field (n Exprs): the first
        slot is contracted."""
        if self.degree == 0:
            raise ValueError("cannot contract a 0-form")
        n = self.bundle.chart.dim
        out: dict[tuple[int, ...], list[Expr]] = {}
        for rest in itertools.combinations(range(n), self.degree - 1):
            vec = [ZERO] * self.bundle.rank
            for i in range(n):
                comp = self.component((i,) + rest)
                for c in range(self.bundle.rank):
                    vec[c] = add(vec[c], mul(X[i], comp[c]))
            out[rest] = [fold(v) for v in vec]
        return CoeffForm(self.bundle, self.degree - 1, out)


class PointMap:
    """An array-valued map on the chart with first partials:
    ``value(p)`` returns an array and ``partials(p)`` its derivatives
    along every coordinate j at [j, ...].  A form, a coupling's Gamma or
    U, or a connection is one map, and a check reads it whole: a read
    of ``partials(p)`` evaluates every direction and raises the first
    error of any entry.

    Exact maps (``PointMap.exact``) carry their entries as Exprs in
    ``exprs``; ``PointMap.exact`` is the one place outside ``expr`` that
    evaluates Exprs.  Sampled ones (``imforms.sampled_map``) carry only
    a point callable, differentiated by the finite-difference stencil,
    and ``exprs`` is None.  Checks read maps at their points with
    ``_stack`` and hand the contracted defects to ``Report.add``, which
    reduces them through ``sampling.sup``.
    """

    __slots__ = ("value", "partials", "exprs")

    def __init__(self, value, partials=None, exprs=None):
        self.value = value
        self.partials = partials
        self.exprs = exprs

    @classmethod
    def exact(cls, entries) -> "PointMap":
        """From a nested sequence (or object array) of Exprs.  All
        entries compile into one tape on first use, and their partials
        along every direction, at [j, entries] in row-major order, into
        another on the first read of a partial; each run of a tape
        evaluates every distinct subtree of its entries once, with the
        values and the first error of ``evaluate`` over the entries in
        row-major order.  At a complex point the values are complex."""
        grid = np.array(entries, dtype=object)
        flat, shape = list(grid.flat), grid.shape
        tapes: dict = {}  # None: the values; n: the partials along x_1..x_n

        def at(n, p) -> np.ndarray:
            tape = tapes.get(n)
            if tape is None:
                exprs = flat if n is None else [differentiate(x, j) for j in range(n) for x in flat]
                tape = tapes[n] = compile_tape(exprs)
            out = np.array(evaluate(tape, p), dtype=complex if _is_complex_point(p) else float)
            return out.reshape(shape if n is None else (n, *shape))

        return cls(lambda p: at(None, p), lambda p: at(len(p), p), entries)


def _stack(points, *reads) -> list[np.ndarray]:
    """For each callable of ``reads``, ``read(p)`` at each point, as one
    array: the point axis first, then the axes of a read.  All reads at
    a point run together, as the identities meet them, so a sampled
    map's memo still holds the point's stencil for a later read of it."""
    rows = [[read(p) for read in reads] for p in points]
    return [np.array([row[s] for row in rows]) for s in range(len(reads))]


def _anchored(rho: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U(e_a, rho(e_b)) at [p, a, b], from the stacked rho[p, i, b] and
    U[p, a, i]."""
    return np.einsum("pib,paie->pabe", rho, U)


def _curvature(G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """The curvature d_i Gamma_j - d_j Gamma_i + [Gamma_i, Gamma_j] of
    a linear connection at [p, i, j], from the stacked Gamma[p, i] and
    dG[p, j, i] = d_j Gamma_i."""
    X = dG + np.einsum("piec,pjcf->pijef", G, G)
    return X - X.swapaxes(1, 2)


def _d_nabla(G: np.ndarray, Om: np.ndarray, dOm: np.ndarray) -> np.ndarray:
    """The covariant exterior derivative of a bundle-valued 2-form on
    the increasing triples (i, j, k) of chart directions, at [p, t]: the
    cyclic sum of d_i Omega_jk + Gamma_i Omega_jk, from the stacked
    Gamma[p, i], Omega[p, i, j] and dOm[p, l, i, j] = d_l Omega_ij."""
    T = dOm + np.einsum("piec,pjkc->pijke", G, Om)
    i, j, k = np.array(list(itertools.combinations(range(G.shape[1]), 3)), dtype=int).reshape(-1, 3).T
    return T[:, i, j, k] + T[:, j, k, i] + T[:, k, i, j]


# Arguments that a point memo keys by value; any other is a point.
_BY_VALUE = (int, np.integer, type(None))
_FLOAT = np.dtype(float)


# Private, as is expr._is_complex_point, though groupoid uses it too:
# perfbench's tracer times every public function, and this one runs on
# nearly every point.
def _as_point(a) -> np.ndarray:
    """``a`` as a float array, or as a complex one if it is complex (the
    point of a complex step, which the tapes evaluate in complex
    arithmetic)."""
    a = np.asarray(a)
    if a.dtype is _FLOAT:
        return a
    return a.astype(complex if a.dtype.kind == "c" else float)


def _point_key(a):
    """The memo key of a point: the bytes of ``_as_point(a)``, tagged
    when complex."""
    a = _as_point(a)
    return a.tobytes() if a.dtype is _FLOAT else (complex, a.tobytes())


def exact_memo(
    fn: Callable[..., np.ndarray], bound: int | None = None
) -> Callable[..., np.ndarray]:
    """``fn(*args)`` memoized by the exact point.

    An int or None argument is keyed by its value, any other by its
    dtype and the exact bytes of it as ``_as_point`` gives it to ``fn``:
    two points share a result only when bit for bit equal and both real
    or both complex, so a hit never returns a value computed at another
    point.  On a miss ``fn`` runs first; then the oldest result is dropped
    if the memo holds ``bound`` results (None: never), and a read-only
    copy of the result is stored and returned.  An exception of ``fn`` propagates
    and nothing is stored for it.  ``fn`` must be a pure function of its
    arguments.
    """
    memo: dict[tuple, np.ndarray] = {}

    def call(*args) -> np.ndarray:
        key = tuple([a if isinstance(a, _BY_VALUE) else _point_key(a) for a in args])
        out = memo.get(key)
        if out is None:
            args = [a if isinstance(a, _BY_VALUE) else _as_point(a) for a in args]
            out = np.array(fn(*args))
            out.flags.writeable = False
            if bound is not None and len(memo) >= bound:
                del memo[next(iter(memo))]
            memo[key] = out
        return out

    return call


def zero_form(bundle: Bundle, degree: int) -> CoeffForm:
    return CoeffForm(bundle, degree, {})


class LinearConnection:
    """Linear connection on a trivialized bundle.

    ``christoffel[i]`` is the r x r Expr matrix G_i with
    nabla_{d_i} e_a = sum_b (G_i)[b][a] e_b.
    """

    __slots__ = ("bundle", "christoffel", "gamma_map")

    def __init__(self, bundle: Bundle, christoffel: Sequence[Sequence[Sequence[Expr]]]):
        n, r = bundle.chart.dim, bundle.rank
        if len(christoffel) != n:
            raise ValueError("one Christoffel matrix per chart direction required")
        mats = []
        for G in christoffel:
            if len(G) != r or any(len(row) != r for row in G):
                raise ValueError("Christoffel matrix dimensions must match rank")
            mats.append(tuple(tuple(fold(x) for x in row) for row in G))
        self.bundle = bundle
        self.christoffel = tuple(mats)
        self.gamma_map = PointMap.exact(self.christoffel)

    @classmethod
    def trivial(cls, bundle: Bundle) -> "LinearConnection":
        n, r = bundle.chart.dim, bundle.rank
        zero = [[ZERO] * r for _ in range(r)]
        return cls(bundle, [zero for _ in range(n)])

    def apply_matrix(self, i: int, vec: Sequence[Expr]) -> list[Expr]:
        """Frame action of nabla_{d_i} on a coefficient vector: the
        Gamma_i part only (no derivative)."""
        G = self.christoffel[i]
        r = self.bundle.rank
        return [
            fold(add(*(mul(G[b][a], vec[a]) for a in range(r))))
            for b in range(r)
        ]

    def directional(self, i: int, vec: Sequence[Expr]) -> list[Expr]:
        """Full covariant derivative of a coefficient vector along d_i."""
        gam = self.apply_matrix(i, vec)
        return [fold(add(differentiate(v, i), g)) for v, g in zip(vec, gam)]


def exterior_covariant_derivative(
    conn: LinearConnection, omega: CoeffForm
) -> CoeffForm:
    """Covariant exterior derivative for coordinate vector fields.

    On a chart the coordinate fields commute, so the alternating-sum
    formula reduces to signed covariant derivatives of the components.
    For k = 0 this is the covariant differential.
    """
    if omega.bundle != conn.bundle:
        raise ValueError("bundle mismatch between connection and form")
    k = omega.degree
    n = conn.bundle.chart.dim
    if k >= n:
        raise ValueError("degree overflow: form degree must be < chart dimension")
    r = conn.bundle.rank
    out: dict[tuple[int, ...], list[Expr]] = {}
    for idx in itertools.combinations(range(n), k + 1):
        vec = [ZERO] * r
        for t in range(k + 1):
            rest = idx[:t] + idx[t + 1 :]
            di = conn.directional(idx[t], omega.component(rest))
            sgn = (-1) ** t
            for c in range(r):
                term = di[c] if sgn == 1 else neg(di[c])
                vec[c] = add(vec[c], term)
        out[idx] = [fold(v) for v in vec]
    return CoeffForm(conn.bundle, k + 1, out)


def curvature_tensor(
    conn: LinearConnection,
) -> dict[tuple[int, int], list[list[Expr]]]:
    """Curvature R(d_i, d_j) = d_i G_j - d_j G_i + [G_i, G_j], returned
    as matrices on increasing pairs (i, j)."""
    n, r = conn.bundle.chart.dim, conn.bundle.rank
    G = conn.christoffel
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            R = [[ZERO] * r for _ in range(r)]
            for b in range(r):
                for a in range(r):
                    comm = add(
                        *(mul(G[i][b][c], G[j][c][a]) for c in range(r)),
                        *(neg(mul(G[j][b][c], G[i][c][a])) for c in range(r)),
                    )
                    R[b][a] = fold(
                        add(
                            differentiate(G[j][b][a], i),
                            neg(differentiate(G[i][b][a], j)),
                            comm,
                        )
                    )
            out[(i, j)] = R
    return out


def connection_is_flat(
    conn: LinearConnection, plan: SamplePlan | None = None
) -> tuple[bool, float]:
    """Sampled flatness predicate: curvature entries vanish on 64 chart
    points within 1e-10.  Returns (flat, max residual)."""
    plan = plan or SamplePlan(seed=42, samples=64)
    G, dG = _stack(plan.points(conn.bundle.chart, 64), conn.gamma_map.value, conn.gamma_map.partials)
    i, j = np.triu_indices(conn.bundle.chart.dim, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        worst = sup(_curvature(G, dG)[:, i, j])
    return worst < 1e-10, worst


class FiberBracket:
    """Fiberwise Lie bracket on a trivialized bundle, given by structure
    functions c[a][b] -> coefficient vector of [e_a, e_b].

    Storage is canonically antisymmetric: the strict lower triangle is
    the structural negation of the upper one and the diagonal is zero.
    Supplied entries that disagree structurally are validated by
    sampled evaluation before being replaced by the canonical form.
    """

    __slots__ = ("bundle", "c", "c_map")

    def __init__(self, bundle: Bundle, structure: Sequence[Sequence[Sequence[Expr]]]):
        r = bundle.rank
        if len(structure) != r or any(len(row) != r for row in structure):
            raise ValueError("structure tensor must be rank x rank")
        raw = [[None] * r for _ in range(r)]
        for a in range(r):
            for b in range(r):
                vec = tuple(fold(x) for x in structure[a][b])
                if len(vec) != r:
                    raise ValueError("structure vectors must have length rank")
                raw[a][b] = vec
        c = [[None] * r for _ in range(r)]
        for a in range(r):
            c[a][a] = (ZERO,) * r
            for k in range(r):
                if raw[a][a][k] != ZERO and not expr_equal(
                    raw[a][a][k], ZERO, bundle.chart
                ):
                    raise ValueError(
                        f"diagonal structure entry [{a}][{a}][{k}] must vanish"
                    )
        for a in range(r):
            for b in range(a + 1, r):
                c[a][b] = raw[a][b]
                derived = tuple(fold(neg(x)) for x in raw[a][b])
                for k in range(r):
                    if raw[b][a][k] != derived[k] and not expr_equal(
                        raw[b][a][k], derived[k], bundle.chart
                    ):
                        raise ValueError(
                            "structure functions must be antisymmetric in the "
                            f"first two slots (violated at a={a}, b={b}, c={k})"
                        )
                c[b][a] = derived
        self.bundle = bundle
        self.c = tuple(tuple(row) for row in c)
        self.c_map = PointMap.exact(self.c)

    @classmethod
    def abelian(cls, bundle: Bundle) -> "FiberBracket":
        r = bundle.rank
        zero = [ZERO] * r
        return cls(bundle, [[list(zero) for _ in range(r)] for _ in range(r)])

    @classmethod
    def from_constants(cls, bundle: Bundle, c: np.ndarray) -> "FiberBracket":
        """Structure constants c[a, b, k] as a numeric array."""
        r = bundle.rank
        struct = [
            [[const(float(c[a, b, k])) for k in range(r)] for b in range(r)]
            for a in range(r)
        ]
        return cls(bundle, struct)
