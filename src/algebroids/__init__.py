"""Verification-grade computations with Lie algebroids over a single
coordinate chart: symbolic expression trees, bundles and connections,
algebroid axioms, ideal-valued connection forms with their coupling
data and flatness classes, rank-one classification, numeric action
groupoids, and a command-line verification surface.
"""

from .expr import Chart, Expr, parse, differentiate, evaluate
from .bundles import (
    Bundle,
    Section,
    CoeffForm,
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
    check_A_invariant,
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
    d_im,
    chain_map,
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
