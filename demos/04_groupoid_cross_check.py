#!/usr/bin/env python3
"""Cross-validate the global and infinitesimal sides on the rotation
action groupoid: multiplicativity, the structure equation and the
Bianchi identity numerically, then differentiation down to a connection
form that the symbolic checkers accept."""

from algebroids.algebroid import canonical_representation
from algebroids.expr import Chart, ONE, ZERO, add, coord, div, fold, mul
from algebroids.factory import so3_basis
from algebroids.groupoid import (
    ActionGroupoid,
    MatrixGroup,
    check_groupoid_properties,
    connection_from_splitting,
    differentiate_to_im,
    numeric_extract_coupling,
)
from algebroids.imforms import check_im_form, check_structure_equations
from algebroids.sampling import SamplePlan

plan = SamplePlan(seed=42, samples=100)

G = MatrixGroup(3, so3_basis())
chart = Chart(3, bounds=[(0.4, 1.2), (-0.8, 0.8), (-0.8, 0.8)], excluded_origin=True)
action = [
    fold(add(*(mul(coord(3 * i + j), coord(9 + j)) for j in range(3))))
    for i in range(3)
]
x = [coord(i) for i in range(3)]
r2 = fold(add(mul(x[0], x[0]), mul(x[1], x[1]), mul(x[2], x[2])))
gpd = ActionGroupoid(
    G,
    chart,
    action,
    ideal_frame=[[x[0], x[1], x[2]]],
    complement=[[ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
    splitting=[[fold(div(x[i], r2)) for i in range(3)]],
)

print("groupoid structural invariants:")
print(gpd.verify(plan.fork("v")).table())

print()
print("connection form from the equivariant splitting; curvature by")
print("finite differences; multiplicativity, structure equation, Bianchi:")
alpha = connection_from_splitting(gpd, plan=plan.fork("c"))
conn = gpd.induced_connection()
print(
    check_groupoid_properties(
        gpd, alpha, conn, plan.fork("props"), n_pairs=60, n_points=15
    ).table()
)

print()
print("differentiating to the infinitesimal side and re-checking there:")
nform = differentiate_to_im(gpd, alpha)
A, ideal, _ = gpd.action_algebroid()
rep = canonical_representation(A, ideal)
out = check_im_form(nform, rep, plan.fork("im"), tol=1e-6)
print(out.table())
ncd = numeric_extract_coupling(gpd, nform)
print(check_structure_equations(ncd, plan=plan.fork("se"), tol=1e-6).table())
print()
print("One object, two calculi, residuals at the rounding floor.")
