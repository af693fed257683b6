#!/usr/bin/env python3
"""The rotation-action model with its radial line of ideals: build the
connection form from the orthogonal-projection splitting and a flat
connection, extract its coupling, and watch a bad splitting get
refused."""

from algebroids.algebroid import (
    ConstructionRefused,
    canonical_representation,
    cartan_build_connection,
    check_axioms,
)
from algebroids.expr import ONE, ZERO
from algebroids.factory import so3_radial_action
from algebroids.imforms import check_im_form, classify_flatness, extract_coupling
from algebroids.sampling import SamplePlan

plan = SamplePlan(seed=42, samples=120)

m = so3_radial_action(plan.fork("build"))
print("algebroid axioms with the radial ideal:")
print(check_axioms(m.algebroid, m.ideal, plan.fork("ax")).table())

print()
print("building the connection form from the radial projection...")
form = cartan_build_connection(
    m.algebroid, m.ideal, m.splitting, m.connection, plan.fork("cartan")
)
rep = canonical_representation(m.algebroid, m.ideal)
print(check_im_form(form, rep, plan.fork("im")).table())

print()
print("its coupling:")
cd = extract_coupling(m.algebroid, m.ideal, form, plan.fork("ext"))
classes, _ = classify_flatness(cd, plan.fork("cl"))
print("flatness classes:", sorted(classes))

print()
print("a fixed-axis projection is not conjugation-equivariant and is refused:")
try:
    cartan_build_connection(
        m.algebroid, m.ideal, [[ONE, ZERO, ZERO]], m.connection, plan.fork("bad")
    )
except ConstructionRefused as e:
    print(" ", e)
