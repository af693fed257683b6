#!/usr/bin/env python3
"""Build couplings, rebuild their algebroids, and classify flatness.

The story: a connection form on an algebroid with a bundle of ideals is
the same data as a pair (fiber connection, mixed tensor) satisfying
three structure equations; the bracket can be rebuilt from that pair,
and degrees of flatness of the original splitting are visible as
vanishing statements about the pair.
"""

from algebroids.algebroid import IdealBundle, check_axioms
from algebroids.factory import ExampleSpec, make_example
from algebroids.imforms import (
    build_semidirect,
    check_structure_equations,
    classify_flatness,
    curvature_im,
)
from algebroids.sampling import SamplePlan

plan = SamplePlan(seed=42, samples=120)

print("== the product model: tangent algebroid times a Lie algebra ==")
m = make_example(ExampleSpec("product", {"dim": 2, "algebra": "so3"}), plan.fork("p"))
print(f"carrier rank {m.algebroid.rank}, ideal rank {m.ideal.k}")
print(check_structure_equations(m.coupling, plan=plan.fork("se1")).table())
classes, _ = classify_flatness(m.coupling, plan.fork("cl1"))
print("flatness classes:", sorted(classes))

print()
print("== a kernel-flat coupling with nonvanishing mixed tensor ==")
m2 = make_example(
    ExampleSpec("principal_type_flat", {"dim": 2, "omega": [["1"]]}), plan.fork("67")
)
print(
    check_structure_equations(
        m2.coupling, variant="S1'S3'", plan=plan.fork("se2")
    ).table()
)
classes2, _ = classify_flatness(m2.coupling, plan.fork("cl2"))
print("flatness classes:", sorted(classes2), "(the twist obstructs leafwise flatness)")

print()
print("== rebuilding the bracket and checking the axioms ==")
A = build_semidirect(m2.coupling)
rep = check_axioms(A, IdealBundle(A, m2.coupling.k, verify=False), plan.fork("ax"))
print(rep.table())

print()
print("== the curvature pair detects the twist ==")
curv = curvature_im(m2.coupling, plan.fork("curv"), check=False)
p = plan.fork("pt").point(m2.algebroid.chart)
print("curvature symbol on the first base frame element at a sample point:")
S = curv.sym_map.value(p)[m2.coupling.k]  # the symbol's value along each d_i
print(" ", S[0], S[1])
