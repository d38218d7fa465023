"""Exact computational toolkit for racks, cocycle twists, spin covers, and graded ranks."""

from .cocycle import (
    GaugeFunction,
    RackCocycle,
    TwistTable,
    check_cocycle,
    check_twist_condition,
    chi_cocycle,
    constant_cocycle,
    find_gauge,
    gauge_transform,
    minus_one_cocycle,
    twist,
)
from .errors import DimensionCapError, RackTwistError, SectionConsistencyError
from .hilbert import (
    HilbertReport,
    RankCertificate,
    expand_closed_form,
    graded_dims,
    rank,
)
from .braided import (
    BraidWord,
    MonomialOperator,
    SymmetrizerMatrix,
    check_braid_equation,
    rho,
    symmetrizer,
)
from .rack import (
    FiniteRack,
    Permutation,
    TranspositionLabel,
    check_rack_axioms,
    is_indecomposable,
    transposition_labels,
    transposition_pairs,
    transposition_rack,
)
from .spincover import (
    CliffordElement,
    GroupCocycleBit,
    SpinElement,
    bracket,
    generator_t,
    phi_psi_table,
    verify_conjugation_lemmas,
    verify_group_cocycle,
    verify_main_theorem,
    verify_presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
