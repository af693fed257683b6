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
"""

from .expr import Chart, Expr, parse, differentiate, evaluate
from .bundles import (
    Bundle,
    LinearConnection,
    FiberBracket,
    exterior_covariant_derivative,
    curvature_tensor,
)
from .algebroid import (
    LieAlgebroid,
    IdealBundle,
    ARepresentation,
    bracket,
    check_axioms,
    canonical_representation,
    basic_curvature,
    cartan_build_connection,
    change_frame,
    tangent_algebroid,
)
from .imforms import (
    IMOneForm,
    IMTwoForm,
    CouplingData,
    check_im_form,
    extract_coupling,
    coupling_to_im,
    check_structure_equations,
    build_semidirect,
    curvature_im,
    classify_flatness,
)
from .rankone import RankOneData, extract_rank_one, check_rank_one, verify_witness
from .factory import ExampleSpec, make_example, transitive_im_connection, so3_radial_action
from .groupoid import (
    MatrixGroup,
    ActionGroupoid,
    MultForm,
    connection_from_splitting,
    simplicial_delta,
    covariant_exterior_D,
    check_groupoid_properties,
    differentiate_to_im,
)
from .modelio import ModelFile, load_model
from .sampling import SamplePlan, Report

__version__ = "0.1.0"
