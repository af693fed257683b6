#!/usr/bin/env python3
"""Regenerate the shipped model fixtures under models/.

The fixtures are serialized factory outputs plus hand-written broken
variants used by the negative-path checks.
"""

import json
import sys
from pathlib import Path

from algebroids.factory import ExampleSpec, make_example, so3_radial_action
from algebroids.modelio import (
    MODEL_SCHEMA,
    REPORT_SCHEMA,
    algebroid_to_json,
    chart_to_json,
    coupling_to_json,
    im_form_to_json,
    load_model,
)
from algebroids.sampling import SamplePlan

OUT = Path(__file__).resolve().parent.parent / "models"
SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def write(name: str, doc: dict) -> None:
    doc = {"schema_version": 1, **doc}
    path = OUT / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    load_model(str(path))  # round-trip validation
    print(f"wrote {path}")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    SCHEMAS.mkdir(exist_ok=True)
    for name, schema in (
        ("model.schema.json", MODEL_SCHEMA),
        ("report.schema.json", REPORT_SCHEMA),
    ):
        (SCHEMAS / name).write_text(json.dumps(schema, indent=2) + "\n")
        print(f"wrote {SCHEMAS / name}")
    plan = SamplePlan(seed=42, samples=80)

    # Product of the plane's tangent algebroid with the rotation algebra.
    m = make_example(ExampleSpec("product", {"dim": 2, "algebra": "so3"}), plan)
    write(
        "product_so3.json",
        {
            "chart": chart_to_json(m.algebroid.chart),
            "algebroid": algebroid_to_json(m.algebroid),
            "ideal": {"k": m.ideal.k},
            "im_form": im_form_to_json(m.im_form),
            "coupling": coupling_to_json(m.coupling),
            "example": {"name": "product", "params": {"dim": 2, "algebra": "so3"}},
        },
    )

    # Kernel-flat coupling over the plane with unit area twist, with a
    # principal-type witness attached.
    m = make_example(
        ExampleSpec("principal_type_flat", {"dim": 2, "omega": [["1"]]}), plan
    )
    write(
        "principal_flat.json",
        {
            "chart": chart_to_json(m.algebroid.chart),
            "algebroid": algebroid_to_json(m.algebroid),
            "ideal": {"k": m.ideal.k},
            "im_form": im_form_to_json(m.im_form),
            "coupling": coupling_to_json(m.coupling),
            "rank_one_witness": {
                "kind": "principal_type",
                "theta": ["0", "0"],
                "Omega": ["1"],
                "Z": ["0", "0"],
            },
        },
    )

    # Central extension of the 3-space tangent algebroid by a
    # non-closed 2-cochain: the mixed cocycle equation and the Jacobi
    # identity of the rebuilt bracket both fail.
    write(
        "bad_u.json",
        {
            "chart": {"dim": 3, "bounds": [[-1, 1], [-1, 1], [-1, 1]]},
            "coupling": {
                "base": {
                    "rank": 3,
                    "anchor": [
                        ["1", "0", "0"],
                        ["0", "1", "0"],
                        ["0", "0", "1"],
                    ],
                    "structure": {},
                },
                "fiber": {"rank": 1, "structure": {}},
                "nablaL": [[["0"]], [["0"]], [["0"]]],
                "U": [
                    [["0"], ["x3"], ["0"]],
                    [["-x3"], ["0"], ["0"]],
                    [["0"], ["0"], ["0"]],
                ],
            },
        },
    )

    # Rotation action algebroid in the constant frame with one
    # structure function perturbed: the Jacobi clause fails.
    write(
        "bad_structure.json",
        {
            "chart": {"dim": 3, "bounds": [[-1, 1], [-1, 1], [-1, 1]]},
            "algebroid": {
                "rank": 3,
                "anchor": [
                    ["0", "-x3", "x2"],
                    ["x3", "0", "-x1"],
                    ["-x2", "x1", "0"],
                ],
                "structure": {
                    "1,2": ["0", "0", "1 + x1"],
                    "2,3": ["1", "0", "0"],
                    "1,3": ["0", "-1", "0"],
                },
            },
            # The first frame element is not even in the anchor kernel,
            # so the ideal clauses fail alongside the Jacobi identity.
            "ideal": {"k": 1},
        },
    )

    # Rotation-action algebroid with the radial ideal in the adapted
    # frame (no coupling section; the connection is built by the
    # 'example action' route).
    m = so3_radial_action(plan)
    write(
        "so3_radial.json",
        {
            "chart": chart_to_json(m.algebroid.chart),
            "algebroid": algebroid_to_json(m.algebroid),
            "ideal": {"k": 1},
            "example": {"name": "action", "params": {"variant": "so3_radial"}},
        },
    )

    # Rotation group acting on the punctured box, radial ideal,
    # orthogonal-projection splitting.
    gbasis = []
    from algebroids.factory import so3_basis

    for X in so3_basis():
        gbasis.append([float(v) for v in X.ravel()])
    action = []
    for i in range(3):
        terms = " + ".join(f"x{3 * i + j + 1}*x{9 + j + 1}" for j in range(3))
        action.append(terms)
    r2 = "(x1^2 + x2^2 + x3^2)"
    write(
        "so3_radial_groupoid.json",
        {
            "chart": {
                "dim": 3,
                "bounds": [[0.4, 1.2], [-0.8, 0.8], [-0.8, 0.8]],
                "excluded_origin": True,
            },
            "groupoid": {
                "ambient": 3,
                "basis": gbasis,
                "action": action,
                "ideal_frame": [["x1", "x2", "x3"]],
                "complement": [["0", "1", "0"], ["0", "0", "1"]],
                "splitting": [[f"x1/{r2}", f"x2/{r2}", f"x3/{r2}"]],
            },
        },
    )

    # Rotation group acting trivially on a line; the whole algebra is
    # the bundle of ideals.
    write(
        "so2_groupoid.json",
        {
            "chart": {"dim": 1},
            "groupoid": {
                "ambient": 2,
                "basis": [[0.0, -1.0, 1.0, 0.0]],
                "action": ["x5"],
                "ideal_frame": [["1"]],
                "complement": [],
                "splitting": [["1"]],
            },
        },
    )

    # Generic rank-one coupling over the plane (kernel-flat, exact
    # gauge-scaled twist).
    m = make_example(
        ExampleSpec(
            "rank_one",
            {"dim": 2, "theta": ["0", "0"], "U1": [["0", "1"], ["-1", "0"]]},
        ),
        plan,
    )
    write(
        "rank_one.json",
        {
            "chart": chart_to_json(m.algebroid.chart),
            "coupling": coupling_to_json(m.coupling),
            "rank_one_witness": {
                "kind": "principal_type",
                "theta": ["0", "0"],
                "Omega": ["1"],
                "Z": ["0", "0"],
            },
        },
    )


if __name__ == "__main__":
    sys.exit(main())
