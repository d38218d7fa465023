"""Exact computational toolkit for racks, cocycle twists, spin covers, and graded ranks."""

from .cocycle import (
    GaugeFunction,
    RackCocycle,
    check_rack_cocycle,
    check_twist_condition,
    chi_cocycle,
    constant_cocycle,
    find_gauge,
    gauge_transform,
    minus_one_cocycle,
    twist,
)
from .errors import DimensionCapError, RackTwistError, SectionConsistencyError
from .hilbert import expand_closed_form, graded_dims
from .rack import (
    FiniteRack,
    Permutation,
    check_rack_axioms,
    is_indecomposable,
    transposition_pairs,
    transposition_rack,
)
from .spincover import (
    CliffordElement,
    GroupCocycleBit,
    phi_psi_table,
    verify_conjugation_lemmas,
    verify_group_cocycle,
    verify_main_theorem,
    verify_presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
