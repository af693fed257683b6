"""Rank-one bundles of ideals in a trivialization: the scalar
connection form, the base cocycle representatives, the trivialized
structure equations, tangentiality, and witness verification for the
flatness characterizations.

All cohomological statements are witness-verified: the caller supplies
trivializations, primitives or base 2-forms, and the checkers confirm
the identities at sampled points; existence is never decided.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebroid import LieAlgebroid
from .bundles import PointMap
from .expr import Expr, ZERO, add, differentiate, div, fold, mul, neg
from .imforms import CouplingData
from .sampling import Report, Residual, SamplePlan

__all__ = [
    "RankOneData",
    "extract_rank_one",
    "check_rank_one",
    "verify_witness",
    "gauge_transform",
    "WITNESS_KINDS",
]

WITNESS_KINDS = (
    "product",
    "totally_flat",
    "leafwise_flat",
    "kernel_flat",
    "principal_type",
)


@dataclass
class RankOneData:
    """Trivialized rank-one data over a base algebroid.

    theta: scalar connection 1-form (n Exprs);
    V: degree-1 base cochain (one Expr per base frame element);
    lam: antisymmetric degree-2 base cochain (r_B x r_B Exprs);
    U1: the mixed tensor as a map base frame -> scalar 1-form.
    """

    base: LieAlgebroid
    theta: tuple
    V: tuple
    lam: tuple
    U1: tuple

    def __post_init__(self):
        n, rB = self.base.chart.dim, self.base.rank
        self.theta = tuple(fold(x) for x in self.theta)
        self.V = tuple(fold(x) for x in self.V)
        lam = [[fold(x) for x in row] for row in self.lam]
        if len(self.theta) != n or len(self.V) != rB:
            raise ValueError("theta must have n entries and V one per base frame")
        if len(lam) != rB or any(len(row) != rB for row in lam):
            raise ValueError("lambda must be r_B x r_B")
        for a in range(rB):
            if lam[a][a] != ZERO:
                raise ValueError("lambda must have zero diagonal")
            for b in range(a + 1, rB):
                lam[b][a] = fold(neg(lam[a][b]))
        self.lam = tuple(tuple(row) for row in lam)
        U1 = [[fold(x) for x in row] for row in self.U1]
        if len(U1) != rB or any(len(row) != n for row in U1):
            raise ValueError("U1 must be r_B x n")
        self.U1 = tuple(tuple(row) for row in U1)


def extract_rank_one(cd: CouplingData) -> RankOneData:
    """Read the trivialized data off a rank-one coupling: the connection
    form from the fiber Christoffels, the degree-1 cocycle as its
    anchor pullback, and the 2-cochain as the anchor contraction of the
    mixed tensor."""
    if cd.k != 1:
        raise ValueError("rank-one extraction needs a rank-one fiber")
    B = cd.base
    n, rB = B.chart.dim, B.rank
    theta = [cd.nablaL.christoffel[i][0][0] for i in range(n)]
    V = [
        fold(add(*(mul(theta[i], B.anchor[i][a]) for i in range(n))))
        for a in range(rB)
    ]
    U1 = [[cd.U[a][i][0] for i in range(n)] for a in range(rB)]
    lam = [[ZERO] * rB for _ in range(rB)]
    for a in range(rB):
        for b in range(rB):
            lam[a][b] = fold(
                add(*(mul(U1[a][i], B.anchor[i][b]) for i in range(n)))
            )
    # Canonicalize the antisymmetric storage (the two triangles agree by
    # the anchor-skew property of the mixed tensor).
    for a in range(rB):
        lam[a][a] = ZERO
        for b in range(a + 1, rB):
            lam[b][a] = fold(neg(lam[a][b]))
    return RankOneData(B, tuple(theta), tuple(V), tuple(tuple(r) for r in lam), U1)


def _lie_derivative_one_form(X: Sequence[Expr], om: Sequence[Expr], n: int) -> list[Expr]:
    """Classical Lie derivative of a scalar 1-form along a vector field."""
    out = []
    for j in range(n):
        terms = []
        for i in range(n):
            terms.append(mul(X[i], differentiate(om[j], i)))
            terms.append(mul(om[i], differentiate(X[i], j)))
        out.append(fold(add(*terms)))
    return out


def _d_map(om: Sequence[Expr], n: int) -> PointMap:
    """Exterior derivative of a scalar 1-form as an antisymmetric n x n
    matrix map: the increasing pairs are evaluated, the lower triangle
    is their negation."""
    rows, cols = np.triu_indices(n, 1)
    upper = PointMap.exact([
        fold(add(differentiate(om[j], i), neg(differentiate(om[i], j))))
        for i, j in zip(rows.tolist(), cols.tolist())
    ])

    def value(p) -> np.ndarray:
        v = upper.value(p)
        m = np.zeros((n, n))
        m[rows, cols] = v
        m[cols, rows] = -v
        return m

    return PointMap(value)


def _anchored_sup(B: LieAlgebroid, d: PointMap, pts) -> float:
    """Residual of a scalar 2-form map contracted with the anchor
    columns (closedness along anchored directions)."""
    return PointMap(lambda p: B.anchor_value(p).T @ d.value(p)).sup(pts)


def check_rank_one(
    data: RankOneData,
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
    svd_tol: float = 1e-9,
) -> Report:
    """Residuals of the trivialized structure equations plus
    tangentiality of the cochain representatives on the numerically
    computed anchor kernel.

    Sample points where the anchor rank jumps (relative to the modal
    rank) are discarded and counted in the report.
    """
    plan = plan or SamplePlan()
    B = data.base
    n, rB = B.chart.dim, B.rank
    report = Report(command="check-rank-one", seed=plan.seed, samples=plan.samples)
    pts = plan.points(B.chart, max(12, min(plan.samples, 40)))

    # Trivialized curvature condition: the connection form is closed
    # along anchored directions.
    report.add("S2_trivialized", _anchored_sup(B, _d_map(data.theta, n), pts), tol)

    # Trivialized mixed equation on base frame pairs; Lie derivatives
    # of the tensor rows are formed symbolically once per pair.
    s3 = Residual()
    theta_map = PointMap.exact(data.theta)
    U_map = PointMap.exact(data.U1)
    dU_maps = [_d_map(data.U1[a], n) for a in range(rB)]
    rho_cols = [B.rho_of(B.frame_section(a)) for a in range(rB)]
    lie_map = PointMap.exact([
        [_lie_derivative_one_form(rho_cols[a], list(data.U1[b]), n) for b in range(rB)]
        for a in range(rB)
    ])
    for p in pts:
        rho = B.anchor_value(p)
        th = theta_map.value(p)
        Uv = U_map.value(p)
        cB = B.structure_map.value(p)
        dUm = [m.value(p) for m in dU_maps]
        lieU = lie_map.value(p)
        for a in range(rB):
            rho_a = rho[:, a]
            for b in range(rB):
                rho_b = rho[:, b]
                lhs = sum(cB[a, b, c] * Uv[c] for c in range(rB))
                lie = lieU[a, b]
                i_b_dU = rho_b @ dUm[a]
                term_theta = float(th @ rho_a) * Uv[b]
                wedge = np.outer(th, Uv[a]) - np.outer(Uv[a], th)
                i_b_wedge = rho_b @ wedge
                rhs = lie - i_b_dU + term_theta - i_b_wedge
                s3.update(lhs - rhs)
    report.add("S3_trivialized", s3.value, tol)

    # Tangentiality of the cochain representatives on the anchor kernel.
    tang = Residual()
    ranks = []
    kernels = []
    for p in pts:
        rho = B.anchor_value(p)
        u, s, vt = np.linalg.svd(rho)
        rank = int(np.sum(s > svd_tol))
        ranks.append(rank)
        kernels.append(vt[rank:].T)
    modal = int(np.bincount(ranks).argmax())
    discarded = 0
    lam_map = PointMap.exact(data.lam)
    V_map = PointMap.exact(data.V)
    for p, rank, ker in zip(pts, ranks, kernels):
        if rank != modal:
            discarded += 1
            continue
        if ker.shape[1] == 0:
            continue
        lamv = lam_map.value(p)
        Vv = V_map.value(p)
        for col in ker.T:
            tang.update(col @ lamv)
            tang.update(col @ Vv)
    report.add("tangential_representatives", tang.value, tol)
    report.extra["anchor_rank"] = modal
    report.extra["discarded_rank_jump_points"] = discarded
    return report


def gauge_transform(data: RankOneData, h: Expr) -> RankOneData:
    """Change the trivialization by the nonvanishing function h (new
    frame section = h times the old one): the connection form and the
    degree-1 cochain shift by the logarithmic derivative, the
    fiber-valued cochains rescale."""
    B = data.base
    n, rB = B.chart.dim, B.rank
    dlog = [fold(div(differentiate(h, i), h)) for i in range(n)]
    theta = [fold(add(t, d)) for t, d in zip(data.theta, dlog)]
    V = [
        fold(add(v, *(mul(dlog[i], B.anchor[i][a]) for i in range(n))))
        for a, v in enumerate(data.V)
    ]
    lam = [[fold(div(x, h)) for x in row] for row in data.lam]
    U1 = [[fold(div(x, h)) for x in row] for row in data.U1]
    return RankOneData(B, tuple(theta), tuple(V),
                       tuple(tuple(r) for r in lam), tuple(tuple(r) for r in U1))


def _dB_cochain1(B: LieAlgebroid, Z: Sequence[Expr], V: Sequence[Expr]):
    """Coefficient differential of a degree-1 base cochain, twisted by
    the degree-1 cocycle V of the fiber representation:
    (dZ)(a,b) = rho(a)Z_b + V_a Z_b - rho(b)Z_a - V_b Z_a - Z([a,b])."""
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


def verify_witness(
    kind: str,
    data: RankOneData,
    witnesses: dict,
    plan: SamplePlan | None = None,
    tol: float = 1e-8,
) -> Report:
    """Check that supplied witnesses realize the claimed flatness class.

    Witness slots (all optional unless required by the kind):
      h      nonvanishing gauge function; applied to the data first;
      Z      degree-1 base cochain shifting the 2-cochain by d_B Z;
      theta  closed scalar 1-form with V = anchor pullback of theta;
      U1     mixed-tensor witness for the kernel-flat pair;
      Omega  scalar 2-form on the chart with the 2-cochain its anchor
             pullback (principal type).

    Only the supplied representative is checked; no existence decision
    is made.
    """
    if kind not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {kind!r}")
    plan = plan or SamplePlan()
    B = data.base
    n, rB = B.chart.dim, B.rank
    report = Report(command=f"verify-witness:{kind}", seed=plan.seed, samples=plan.samples)
    pts = plan.points(B.chart, max(12, min(plan.samples, 40)))

    h = witnesses.get("h")
    if h is not None:
        data = gauge_transform(data, h)
    Z = witnesses.get("Z")
    lam_shift = data.lam
    if Z is not None:
        if len(Z) != rB:
            raise ValueError("Z must have one entry per base frame element")
        dZ = _dB_cochain1(B, [fold(z) for z in Z], data.V)
        lam_shift = [
            [fold(add(data.lam[a][b], dZ[a][b])) for b in range(rB)]
            for a in range(rB)
        ]

    if kind == "product":
        report.add("V_vanishes_after_gauge", PointMap.exact(data.V).sup(pts), tol)
        report.add("lambda_vanishes_after_shift", PointMap.exact(lam_shift).sup(pts), tol)
        return report

    theta_w = witnesses.get("theta")
    if kind in ("totally_flat", "kernel_flat", "principal_type", "leafwise_flat"):
        if theta_w is None:
            raise ValueError(f"witness kind {kind!r} needs a 'theta' 1-form")
        theta_w = [fold(t) for t in theta_w]
        dth = _d_map(theta_w, n)
        V_match = [
            fold(
                add(
                    data.V[a],
                    *(neg(mul(theta_w[i], B.anchor[i][a])) for i in range(n)),
                )
            )
            for a in range(rB)
        ]
        if kind == "leafwise_flat":
            # Invariance only requires closedness along anchored
            # directions.
            report.add("theta_invariant", _anchored_sup(B, dth, pts), tol)
        else:
            report.add("theta_closed", dth.sup(pts), tol)
        report.add("V_matches_pullback", PointMap.exact(V_match).sup(pts), tol)

    if kind in ("totally_flat", "leafwise_flat"):
        report.add("lambda_exact", PointMap.exact(lam_shift).sup(pts), tol)
        return report

    if kind == "kernel_flat":
        U1w = witnesses.get("U1")
        if U1w is None:
            raise ValueError("kernel_flat needs a 'U1' witness matrix")
        U1w = [[fold(x) for x in row] for row in U1w]
        cand = RankOneData(
            B,
            tuple(theta_w),
            tuple(
                fold(add(*(mul(theta_w[i], B.anchor[i][a]) for i in range(n))))
                for a in range(rB)
            ),
            tuple(
                tuple(
                    fold(add(*(mul(U1w[a][i], B.anchor[i][b]) for i in range(n))))
                    if a != b
                    else ZERO
                    for b in range(rB)
                )
                for a in range(rB)
            ),
            U1w,
        )
        sub = check_rank_one(cand, plan.fork("pair"), tol=tol)
        report.merge(sub, prefix="pair_")
        lam_match = [
            fold(
                add(
                    lam_shift[a][b],
                    *(neg(mul(U1w[a][i], B.anchor[i][b])) for i in range(n)),
                )
            )
            for a in range(rB)
            for b in range(rB)
            if a != b
        ]
        report.add("lambda_matches_pair_image", PointMap.exact(lam_match).sup(pts), tol)
        return report

    if kind == "principal_type":
        Om = witnesses.get("Omega")
        if Om is None:
            raise ValueError("principal_type needs an 'Omega' 2-form witness")
        OmM = [[ZERO] * n for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        given = [fold(x) for x in Om]
        if len(given) != len(pairs):
            raise ValueError("Omega must list one entry per increasing pair")
        for (i, j), x in zip(pairs, given):
            OmM[i][j] = x
            OmM[j][i] = fold(neg(x))
        # Covariant closedness: d Omega + theta ^ Omega = 0.
        closed = [
            fold(
                add(
                    differentiate(OmM[j][kk], i),
                    neg(differentiate(OmM[i][kk], j)),
                    differentiate(OmM[i][j], kk),
                    mul(theta_w[i], OmM[j][kk]),
                    neg(mul(theta_w[j], OmM[i][kk])),
                    mul(theta_w[kk], OmM[i][j]),
                )
            )
            for i in range(n)
            for j in range(i + 1, n)
            for kk in range(j + 1, n)
        ]
        report.add("Omega_covariantly_closed", PointMap.exact(closed).sup(pts), tol)
        lam_match = [
            fold(
                add(
                    lam_shift[a][b],
                    *(
                        neg(
                            mul(B.anchor[i][a], OmM[i][j], B.anchor[j][b])
                        )
                        for i in range(n)
                        for j in range(n)
                    ),
                )
            )
            for a in range(rB)
            for b in range(rB)
        ]
        report.add("lambda_matches_pullback", PointMap.exact(lam_match).sup(pts), tol)
        return report

    raise AssertionError("unreachable")
