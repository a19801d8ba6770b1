"""Numerical toolkit for Fell bundles over finite pair groupoids.

Finite-dimensional C*-algebras are carried as block-diagonal matrix algebras,
bundles over X×X as their block decompositions, and the structure theory
(conditional expectations, normalizers, Cartan and diagonal pairs, spatial
automorphism groups, 2-cocycles, the embedding invariant Φ) is verified
numerically against residual tolerances.
"""

from .algebra import BlockSample, FiniteCStarAlgebra, make_algebra
from .cocycle import (
    Cocycle2,
    NotATwistError,
    cocycle_identity_residual,
    make_twist,
    twist_is_admissible,
)
from .dynamics import (
    CovarianceError,
    CovarianceGroup,
    SpatialAutomorphism,
    a_dynamical_generation_check,
    check_unitary_normalizer_theorem,
    covariance_group,
    covariance_group_from_frame,
    make_spatial_automorphism,
    slice_from_bisection,
)
from .embedding import (
    EmbeddingInvariant,
    IncompleteSupportError,
    ReadOff,
    bridge_round_trip,
    cartan_from_fell_bundle,
    is_orientable,
    phi_from_covariance_group,
    read_off_pair,
)
from .fellbundle import (
    AXIOM_NAMES,
    AxiomReport,
    CStarBundle,
    ConditionalExpectation,
    FellBundleModel,
    FrameError,
    LocalTrivialityError,
    build_imprimitivity_bundle,
    build_semidirect_bundle,
    check_fell_axioms,
    diagonal_algebra,
    enveloping_algebra,
    identity_frame,
    is_saturated,
    restriction_expectation,
)
from .groupoid import (
    Arrow,
    Bisection,
    CyclicFlow,
    PairGroupoid,
    all_bisections,
    cycle_bisection,
    cyclic_flow,
    identity_bisection,
    is_minimal_flow,
    orbit_pairs,
    self_adjoint_bisections,
)
from .linalg import (
    DEFAULT_EPS,
    adjoints,
    as_matrix,
    haar_unitary,
    is_unitary,
    operator_norm,
    span_dimension,
)
from .subalgebra import (
    PairCandidate,
    PairClassification,
    Slice,
    classify_pair,
    is_normalizer,
    slice_check,
)

__version__ = "0.1.0"
