"""Exact stabiliser codes over finite commutative Frobenius rings.

The pipeline runs bottom up: table rings with a generating character,
free modules with a perfect form, symbolic shift/phase operators with
exact scalar turns, then code analysis (orthogonality, CSS splitting,
nilpotent protection, isometries) and a dense numeric oracle that
confirms the symbolic answers.
"""

from .errors import (
    ConsistencyError,
    DiagnosticError,
    FrobqecError,
    InvalidInputError,
    ResourceLimitError,
)
from .rings import (
    Ideal,
    RingSpec,
    TURN_ZERO,
    Turn,
    ideal_span,
    make_chain_ring,
    make_product,
    make_zm,
    nilpotency_index,
    nilradical,
    ring_pairing,
    verify_generating_character,
)
from .spaces import (
    PhaseSpace,
    Submodule,
    additive_module,
    ambient_bound,
    enumerate_submodules,
    form_eval,
    identity_form,
    is_self_orthogonal,
    make_space,
    orthogonal,
    pairing_turn_numerators,
    phase_pairing,
    submodule_span,
)
from .weyl import (
    StabiliserGroup,
    WeylElement,
    code_dimension,
    commutator,
    group_closure,
    is_abelian_mod_scalars,
    is_isotropic,
    join_label,
    label_module_of,
    noncommutativity_witness,
    offending_pair,
    omega,
    phase_fix,
    reconstruct_pairing,
    split_label,
    stabiliser_of_labels,
    weyl_element,
    weyl_inv,
    weyl_mul,
)
from .analysis import (
    CensusReport,
    CssVerdict,
    InvariantReport,
    IsometryGroup,
    ProtectionReport,
    check_nilpotent_protection,
    css_verdict,
    invariants,
    isometry_action,
    isometry_group,
    nilpotent_code,
    submodule_census,
)
from .oracle import (
    apply_weyl,
    numeric_commutation_check,
    projector_rank,
    weyl_matrix,
)

__version__ = "0.1.0"
