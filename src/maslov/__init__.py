"""Exact-arithmetic Lagrangian triple invariants, Witt-valued cocycles,
and Steinberg-symbol comparisons over Q, F_p, F_{p^2} and Q(sqrt(d))."""

from .fields import FieldCtx, norm_subgroup_class
from .forms import FormMatrix, diagonalize, is_isometric, isometry_key
from .lagrange import (
    HyperbolicSpace,
    Lagrangian,
    PairFrame,
    UnitaryElement,
    ell_a,
    enumerate_lagrangians,
    is_opposite,
    kappa,
    standardize_pair,
    u_t,
    w_element,
)
from .cocycle import (
    BasedTriple,
    based_cochain_f,
    boundary_defect,
    disc_defect,
    kashiwara_class,
    kashiwara_form,
    maslov,
    orbit_census,
    reduced_maslov,
    relation_check,
    tau,
)
from .symbols import (
    R_map,
    SymbolSum,
    compare_stbg_maslov,
    generic_decompose,
    quaternion_form,
    steinberg_relations_report,
)
from .witt import (
    SHatElement,
    WittClass,
    hilbert_symbol,
    trace_transfer,
    witt_class,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
