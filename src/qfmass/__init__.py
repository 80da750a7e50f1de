"""Exact-arithmetic engine for total masses of positive-definite integral
binary quadratic forms of fixed Hessian determinant, their local Euler
factors, and the analytic class number formula over Q."""

from .arith import (
    NQR,
    OO,
    QR,
    LocalSquareClass,
    chi,
    factor,
    gamma_factor,
    hilbert_symbol,
    kronecker,
    legendre,
    valuation,
)
from .euler import (
    RationalFunction,
    a_coeff,
    b_coeff,
    closed_form,
    closed_form_report,
    decomposition_check,
    genus_partition,
    sign_tuple_identity,
)
from .forms import (
    QuadForm,
    automorphism_count,
    det_hessian,
    enumerate_classes,
    hasse_invariant,
    improper_classes,
    is_primitive,
    mirror,
    proper_automorphism_count,
    reduce_binary,
    reduced_classes,
    scale_hasse,
)
from .globalmass import (
    GenusReport,
    LTruncation,
    class_number,
    dirichlet_check,
    genus_census,
    is_fundamental_discriminant,
    l_value_truncated,
    total_mass_numeric,
)
from .localgenus import (
    LocalGenusSymbol,
    OddGenusSymbol,
    TwoAdicGenusSymbol,
    enumerate_local_genera,
    genus_symbol_2,
    jordan_split_odd,
    local_symbol,
    representative_form,
    same_genus,
)
from .mass import (
    aut_density_mod_pk,
    count_SO_mod_p,
    density_ratio,
    generic_density_inverse,
    genus_mass_ratio,
    local_density_inverse,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
