"""liepq: exact-arithmetic certificates for so(p,q) and its small modules."""

__version__ = "0.1.0"

from .errors import (
    ContractError,
    FactorizationCapExceeded,
    LiepqError,
    NotClosedError,
    NotStableError,
    ShapeMismatchError,
    UnknownSmallestModuleError,
    UnsupportedRealizationError,
)
from .exact_linalg import (
    Matrix,
    NO_SOLUTION,
    Rational,
    Subspace,
    dump_matrix_text,
    inertia_of_diagonalizable_form,
    kernel,
    load_matrix_text,
    mat_mul,
    rat,
    solve_linear,
    wedge_square_index,
)
from .lie_core import (
    BilinearForm,
    LieAlgebra,
    bracket,
    centralizer,
    is_maximal_subalgebra,
    orthogonal_complement,
    subalgebra_closure,
)
from .rep_theory import (
    BoostElement,
    IrreducibilityVerdict,
    Representation,
    adjoint_action,
    adjoint_rep,
    boost_element,
    character_discrimination_test,
    constrained_form_uniqueness,
    cyclic_submodule,
    direct_sum,
    dual_rep,
    hom_space,
    invariant_skew_forms,
    invariant_symmetric_forms,
    is_irreducible,
    restrict,
    wedge_action,
    wedge_square_rep,
)
from .so_pq import (
    DeformedAlgebra,
    SO31_SL2C,
    SO32_SP4R,
    SO33_SL4R,
    Signature,
    deformed_algebra,
    dimension_bound,
    embedding_iso,
    exceptional_iso,
    half_spin_reps,
    ipq,
    ipq_c,
    so_pq_algebra,
    standard_rep,
    t_c,
)
from .weyl_enum import (
    RootSystem,
    WeightVector,
    enumerate_up_to_dim,
    no_simple_complex_algebra_of_dim,
    root_system,
    weyl_dim,
)
