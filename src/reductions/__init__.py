"""Exact-arithmetic toolkit for reductive symmetric pairs: Cartan
decompositions, restricted roots, planes in the anisotropic space, and
limits of planes along degeneration arcs via tempered moving frames.

Everything is computed over the rationals with no floating point; every
limit is double-computed and every structural claim is machine-checked at
construction time.
"""

from .errors import (
    DomainError,
    InternalCheckError,
    IrrationalSpectrumError,
    PrecisionError,
    RankDeficiencyError,
    ReductionsError,
    SearchExhaustedError,
)
from .exact import (
    DEFAULT_BUDGET,
    LaurentSeries,
    Polynomial,
    RationalMatrix,
    SeriesMatrix,
    is_squarefree,
    min_poly,
    rat,
    series_valuation,
    valuation_adapted_reduce,
)
from .liealg import (
    Element,
    LieAlgebra,
    Subspace,
    build_classical,
    build_g2,
    build_product,
    centralizer_in,
    classify_element,
    jordan_chevalley,
)
from .pairs import (
    RestrictedRootData,
    SymmetricPair,
    derived_pair_maps,
    dim_reduction_variety,
    find_cartan_subspace,
    make_cartesian_square,
    make_transpose_pair,
    restricted_roots,
    singular_kernels,
    square_of,
)
from .planes import (
    GammaFamily,
    Plane,
    PluckerVector,
    anticanonical_degrees,
    cartan_plane,
    exterior_killing_value,
    gamma_subspace,
    is_anisotropic_subalgebra,
    is_cj_closed,
    is_special_reduction,
    maximal_linear_through,
    plane_from_basis,
)
from .analysis import (
    DecompositionSignature,
    IncidencePoint,
    SubvarietyOfReductions,
    centralizer_map,
    decomposition_signature,
    is_regular,
    jacobian_map,
    make_subvariety,
    nonalgebraic_witness,
    signature_genericity,
)
from .degeneration import (
    GroupCurve,
    MagnitudeFlag,
    MonomialCurve,
    class_closure_sample,
    curve_from_cayley,
    curve_from_generators,
    curve_from_torus,
    descend_to_closed,
    identity_curve,
    limit_plane,
    magnitude_basis,
    magnitude_flag,
    magnitude_order,
    rigidity_check,
)
from .rootsys import (
    RootSystem,
    abelian_class_count,
    build_root_system,
    inequality_survivors,
    infinite_orbit_types,
    max_abelian_root_sets,
    table1_row,
)
