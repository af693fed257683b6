"""Verification-grade computations with Lie algebroids over a single
coordinate chart: symbolic expression trees, bundles and connections,
algebroid axioms, ideal-valued connection forms with their coupling
data and flatness classes, rank-one classification, numeric action
groupoids, and a command-line verification surface.

The package holds what its subcommands, demos and tools run.  Exprs are
built when a model or example is loaded and by the constructions that
return data; a section or form is a nested list of them, in the layout
its point map reads (``bundles``).  Every check reads point maps and
turns one identity into a sampled residual.  The symbolic references
the tests compare it against, such as the covariant differential
``d_im`` on form pairs, the cochain contraction on Expr sections and
random polynomial sections, live with the tests.

The names below are exported lazily (PEP 562): ``import algebroids``
loads no module of the package, and reading a name loads the module
that defines it, so a process loads only the code it runs.
"""

import importlib

# Each exported name, by the module that defines it.
_EXPORTS = {
    "expr": ("Chart", "Expr", "parse", "differentiate", "evaluate"),
    "bundles": (
        "Bundle",
        "LinearConnection",
        "FiberBracket",
        "exterior_covariant_derivative",
        "curvature_tensor",
    ),
    "algebroid": (
        "LieAlgebroid",
        "IdealBundle",
        "ARepresentation",
        "bracket",
        "check_axioms",
        "canonical_representation",
        "basic_curvature",
        "cartan_build_connection",
        "change_frame",
        "tangent_algebroid",
    ),
    "imforms": (
        "IMOneForm",
        "IMTwoForm",
        "CouplingData",
        "check_im_form",
        "extract_coupling",
        "coupling_to_im",
        "check_structure_equations",
        "build_semidirect",
        "curvature_im",
        "classify_flatness",
    ),
    "rankone": ("RankOneData", "extract_rank_one", "check_rank_one", "verify_witness"),
    "factory": ("make_example", "transitive_im_connection", "so3_radial_action"),
    "groupoid": (
        "MatrixGroup",
        "ActionGroupoid",
        "MultForm",
        "connection_from_splitting",
        "simplicial_delta",
        "covariant_exterior_D",
        "check_groupoid_properties",
        "differentiate_to_im",
    ),
    "modelio": ("ModelFile", "load_model", "ExampleSpec"),
    "sampling": ("SamplePlan", "Report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
