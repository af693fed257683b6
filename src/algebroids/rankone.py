"""Rank-one bundles of ideals in a trivialization: the scalar
connection form, the base cocycle representatives, the trivialized
structure equations, tangentiality, and witness verification for the
flatness characterizations.

All cohomological statements are witness-verified: the caller supplies
trivializations, primitives or base 2-forms, and the checkers confirm
the identities at sampled points; existence is never decided.

The trivialized structure equations are the k = 1 case of the coupling
equations: they are read off ``imforms``' structure-equation
contractions for the coupling with an abelian rank-1 fiber, connection
form theta and mixed tensor U1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebroid import LieAlgebroid
from .bundles import Bundle, FiberBracket, LinearConnection, PointMap, _d_nabla, _stack
from .expr import Expr, ZERO, add, differentiate, div, fold, mul, neg
from .imforms import CouplingData, _structure_defects
from .sampling import Report, SamplePlan, sup

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


def _coupling(B: LieAlgebroid, theta: Sequence[Expr], U1) -> CouplingData:
    """The rank-one coupling that trivialized data describes: an abelian
    rank-1 fiber with Gamma_i = [[theta_i]] and U(e_a, d_i) = [U1[a][i]].
    Its structure equations are the trivialized ones; U1 need not be
    anchor-skew."""
    fiber = FiberBracket.abelian(Bundle(B.chart, 1))
    nabla = LinearConnection(fiber.bundle, [[[t]] for t in theta])
    return CouplingData(B, fiber, nabla, [[[u] for u in row] for row in U1], verify_skew=False)


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
    rank) are discarded and counted in the report.  A point where the
    anchor is not finite has no rank: the modal rank is that of the
    finite points (None if there are none), and tangentiality fails as
    not measured.
    """
    plan = plan or SamplePlan()
    B = data.base
    report = Report(command="check-rank-one", seed=plan.seed, samples=plan.samples)
    pts = plan.points(B.chart, max(12, min(plan.samples, 40)))

    # The trivialized equations are S2 and S3 of the rank-one coupling:
    # the connection form closed along anchored directions, and the
    # mixed equation on base frame pairs.
    defects = _structure_defects(_coupling(B, data.theta, data.U1), pts)
    report.add("S2_trivialized", defects["S2"], tol)
    report.add("S3_trivialized", defects["S3"], tol)

    # Tangentiality of the cochain representatives on the anchor kernel,
    # read where the anchor has its modal rank.
    (rho,) = _stack(pts, B.anchor_map.value)
    finite = np.isfinite(rho).all(axis=(1, 2))
    # The SVD of a matrix that is not finite need not return.
    _, s, vt = np.linalg.svd(rho[finite])
    ranks = np.sum(s > svd_tol, axis=1)
    modal = int(np.bincount(ranks).argmax()) if ranks.size else None
    keep = ranks == modal
    tang = [] if finite.all() else [np.inf]
    if modal is not None and modal < B.rank:
        kept = np.array(pts)[finite][keep]
        lam, V = _stack(kept, PointMap.exact(data.lam).value, PointMap.exact(data.V).value)
        K = vt[keep, modal:]  # the kernel's orthonormal rows at [p, k, a]
        tang += [np.einsum("pka,pab->pkb", K, lam), np.einsum("pka,pa->pk", K, V)]
    report.add("tangential_representatives", sup(*tang), tol)
    report.extra["anchor_rank"] = modal
    report.extra["discarded_rank_jump_points"] = int(np.sum(~keep))
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
    if Z is not None and len(Z) != rB:
        raise ValueError("Z must have one entry per base frame element")
    # A non-finite read gives a non-finite residual, which fails.
    with np.errstate(invalid="ignore", over="ignore"):
        rho, V, lam = _stack(
            pts, B.anchor_map.value, PointMap.exact(data.V).value, PointMap.exact(data.lam).value
        )
        if Z is not None:
            Z_map = PointMap.exact([fold(z) for z in Z])
            Zv, dZ, C = _stack(pts, Z_map.value, Z_map.partials, B.structure_map.value)
            # The 2-cochain shifted by d_B Z, twisted by the 1-cocycle V:
            # (d_B Z)(a, b) = rho(a) Z_b + V_a Z_b - (a <-> b) - Z([a, b]).
            X = np.einsum("pia,pib->pab", rho, dZ) + np.einsum("pa,pb->pab", V, Zv)
            lam = lam + X - X.swapaxes(1, 2) - np.einsum("pabc,pc->pab", C, Zv)

        if kind == "product":
            report.add("V_vanishes_after_gauge", V, tol)
            report.add("lambda_vanishes_after_shift", lam, tol)
            return report

        theta_w = witnesses.get("theta")
        if theta_w is None:
            raise ValueError(f"witness kind {kind!r} needs a 'theta' 1-form")
        theta_w = [fold(t) for t in theta_w]
        # d theta is the curvature of the rank-one coupling with
        # connection form theta and no mixed tensor, and rho^T d theta
        # its S2.
        zero = [[ZERO] * n for _ in range(rB)]
        defects = _structure_defects(_coupling(B, theta_w, zero), pts)
        if kind == "leafwise_flat":
            # Invariance only requires closedness along anchored
            # directions.
            report.add("theta_invariant", defects["S2"], tol)
        else:
            report.add("theta_closed", defects["curvature"], tol)
        (theta,) = _stack(pts, PointMap.exact(theta_w).value)
        report.add("V_matches_pullback", V - np.einsum("pi,pia->pa", theta, rho), tol)

        if kind in ("totally_flat", "leafwise_flat"):
            report.add("lambda_exact", lam, tol)
            return report

        if kind == "kernel_flat":
            U1w = witnesses.get("U1")
            if U1w is None:
                raise ValueError("kernel_flat needs a 'U1' witness matrix")
            U1w = [[fold(x) for x in row] for row in U1w]
            # The pair's rank-one data: theta, U1 and their anchor pullbacks.
            cand = extract_rank_one(_coupling(B, theta_w, U1w))
            sub = check_rank_one(cand, plan.fork("pair"), tol=tol)
            report.merge(sub, prefix="pair_")
            (U1,) = _stack(pts, PointMap.exact(U1w).value)
            match = lam - np.einsum("pai,pib->pab", U1, rho)
            off = ~np.eye(rB, dtype=bool)
            report.add("lambda_matches_pair_image", match[:, off], tol)
            return report

        Om = witnesses.get("Omega")
        if Om is None:
            raise ValueError("principal_type needs an 'Omega' 2-form witness")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        if len(Om) != len(pairs):
            raise ValueError("Omega must list one entry per increasing pair")
        OmM = [[[ZERO] for _ in range(n)] for _ in range(n)]
        for (i, j), x in zip(pairs, map(fold, Om)):
            OmM[i][j], OmM[j][i] = [x], [fold(neg(x))]
        Om_map = PointMap.exact(OmM)
        Omega, dOmega = _stack(pts, Om_map.value, Om_map.partials)
        # Covariant closedness: d Omega + theta ^ Omega = 0, the covariant
        # exterior derivative of the connection Gamma_i = [[theta_i]].
        closed = _d_nabla(theta[:, :, None, None], Omega, dOmega)
        report.add("Omega_covariantly_closed", closed, tol)
        pullback = np.einsum("pia,pij,pjb->pab", rho, Omega[..., 0], rho)
        report.add("lambda_matches_pullback", lam - pullback, tol)
        return report
