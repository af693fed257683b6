"""Trivialized vector bundles over a chart: point maps, linear
connections, covariant exterior calculus, curvature, and the fiberwise
Lie bracket.

Sections and forms are plain nested lists of Exprs in the layout their
point maps read.  A section is its r components.  A degree-q form
valued in a rank-v bundle is a list of C(n, q) vectors of v Exprs, the
c-th its value on the c-th strictly increasing q-tuple of chart
directions in ``itertools.combinations`` order; the entries on other
tuples follow by antisymmetry (``alternating_array``), so it is
structural.

An antisymmetric table of vectors (structure functions c_ab, a twist
2-form Omega_ij, a rank-one 2-cochain lambda_ab) is given the same way,
by its vectors on the C(r, 2) increasing pairs (a, b);
``antisymmetric_table`` derives the rest, once: the negation below the
diagonal and zero vectors on it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    fold,
    mul,
    neg,
    _is_complex_point,
)
from .sampling import SamplePlan, sup

__all__ = [
    "Bundle",
    "PointMap",
    "exact_memo",
    "antisymmetric_table",
    "LinearConnection",
    "FiberBracket",
    "exterior_covariant_derivative",
    "curvature_tensor",
    "connection_is_flat",
    "sort_with_sign",
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


@functools.cache
def _alternating_index(n: int, q: int) -> tuple[np.ndarray, bool, bool]:
    """The row that ``alternating_array`` takes each position of an
    (n,) * q array from (row-major), in the rows of ``entries``, then of
    ``-entries`` if some position is an odd reordering of its tuple,
    then of one zero row if some position repeats an index; and whether
    those two blocks are needed."""
    C = math.comb(n, q)
    rows = np.full(n**q, -1, dtype=np.intp)
    for c, idx in enumerate(itertools.combinations(range(n), q)):
        for perm in itertools.permutations(idx):
            flat = sum(a * n ** (q - 1 - j) for j, a in enumerate(perm))
            rows[flat] = c if sort_with_sign(perm)[0] == 1 else C + c
    odd = bool((rows >= C).any())
    zero = rows < 0
    rows[zero] = 2 * C if odd else C
    rows.flags.writeable = False  # shared by every caller
    return rows, odd, bool(zero.any())


def alternating_array(entries: np.ndarray, n: int, q: int) -> np.ndarray:
    """The antisymmetric array, with q axes of length n before the value
    axis, from ``entries[..., c, v]``: the value at the c-th increasing
    q-tuple of range(n) (in ``itertools.combinations`` order).  Where
    there is no such tuple (q > n), ``entries`` still needs its tuple
    axis, of length 0, and its value axis; a tuple axis of another
    length is refused.  One ``take`` fills it, by the positions of each
    (n, q), found once."""
    if entries.ndim < 2 or entries.shape[-2] != math.comb(n, q):
        raise ValueError(
            f"entries of shape {entries.shape} do not hold one value per "
            f"increasing {q}-tuple of {n} indices"
        )
    rows, odd, zero = _alternating_index(n, q)
    batch, v = entries.shape[:-2], entries.shape[-1:]
    blocks = [entries]
    if odd:
        blocks.append(-entries)
    if zero:
        blocks.append(np.zeros(batch + (1,) + v, dtype=entries.dtype))
    source = np.concatenate(blocks, axis=-2) if len(blocks) > 1 else entries
    return source.take(rows, axis=-2).reshape(batch + (n,) * q + v)


def antisymmetric_table(pairs: Sequence[Sequence[Expr]], r: int, width: int) -> tuple:
    """The r x r table of an antisymmetric tensor from its vectors of
    ``width`` Exprs on the increasing pairs (a, b) of range(r), in
    ``itertools.combinations`` order: each vector, folded, at [a][b],
    its negation ``fold(neg(x))`` at [b][a], and zero vectors on the
    diagonal.  A pair count other than C(r, 2), a vector of another
    length, or an entry that is not an Expr, is refused."""
    if len(pairs) != math.comb(r, 2):
        raise ValueError(
            f"{len(pairs)} vectors given; an antisymmetric table on {r} indices "
            f"takes one per increasing pair, {math.comb(r, 2)}"
        )
    table = [[(ZERO,) * width] * r for _ in range(r)]
    for (a, b), vec in zip(itertools.combinations(range(r), 2), pairs):
        if len(vec) != width:
            raise ValueError(f"the vector of pair ({a}, {b}) has {len(vec)} entries, not {width}")
        if not all(isinstance(x, Expr) for x in vec):
            raise ValueError(f"the vector of pair ({a}, {b}) holds an entry that is not an Expr")
        table[a][b] = tuple(fold(x) for x in vec)
        table[b][a] = tuple(fold(neg(x)) for x in table[a][b])
    return tuple(tuple(row) for row in table)


class PointMap:
    """An array-valued map on the chart with first partials:
    ``value(p)`` returns an array and ``partials(p)`` its derivatives
    along every coordinate j at [j, ...].  A form, a coupling's Gamma or
    U, or a connection is one map, and a check reads it whole: a read
    of ``partials(p)`` evaluates every direction and raises the first
    error of any entry.

    Exact maps (``PointMap.exact``) carry their entries as Exprs in
    ``exprs``, the only copy an exact form pair keeps of them (an
    [a, c, v] grid of the a-th frame element's form, see
    ``imforms._IMFormBase``); ``PointMap.exact`` is the one place
    outside ``expr`` that evaluates Exprs.  Sampled ones (``imforms.sampled_map``) carry only
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
    conn: LinearConnection, omega: Sequence[Sequence[Expr]], degree: int
) -> list[list[Expr]]:
    """Covariant exterior derivative for coordinate vector fields, of a
    form of the given degree valued in the connection's bundle, in the
    layout of forms (one vector per increasing index tuple); the result
    is in that layout too, and empty where degree + 1 exceeds the
    chart's dimension.

    On a chart the coordinate fields commute, so the alternating-sum
    formula reduces to signed covariant derivatives of the components.
    For degree 0 this is the covariant differential.
    """
    n, r = conn.bundle.chart.dim, conn.bundle.rank
    at = dict(zip(itertools.combinations(range(n), degree), omega))
    out = []
    for idx in itertools.combinations(range(n), degree + 1):
        vec = [ZERO] * r
        for t in range(degree + 1):
            di = conn.directional(idx[t], at[idx[:t] + idx[t + 1 :]])
            for c in range(r):
                vec[c] = add(vec[c], di[c] if t % 2 == 0 else neg(di[c]))
        out.append([fold(v) for v in vec])
    return out


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
    """Fiberwise Lie bracket on a trivialized bundle, given by the
    structure functions on the increasing pairs: the coefficient vector
    of [e_a, e_b] for a < b, in ``itertools.combinations`` order.
    ``c[a][b]`` is the full table (``antisymmetric_table``), so the
    bracket is antisymmetric by construction.
    """

    __slots__ = ("bundle", "c", "c_map")

    def __init__(self, bundle: Bundle, structure: Sequence[Sequence[Expr]]):
        self.bundle = bundle
        self.c = antisymmetric_table(structure, bundle.rank, bundle.rank)
        self.c_map = PointMap.exact(self.c)

    @classmethod
    def abelian(cls, bundle: Bundle) -> "FiberBracket":
        r = bundle.rank
        return cls(bundle, [[ZERO] * r] * math.comb(r, 2))

    @classmethod
    def from_constants(cls, bundle: Bundle, c: np.ndarray) -> "FiberBracket":
        """Structure constants c[a, b, k] as a numeric array, read for
        a < b."""
        r = bundle.rank
        pairs = itertools.combinations(range(r), 2)
        return cls(bundle, [[const(float(c[a, b, k])) for k in range(r)] for a, b in pairs])
