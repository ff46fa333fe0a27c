"""Exact-arithmetic dilation of linear maps on finite-dimensional spaces.

A single linear map dilates to an injective map on the space of
finite-support sequences; a commuting pair dilates to a commuting pair of
injective maps.  Everything is computed exactly over the rationals or a
prime field, and every claimed identity is checkable through ``verify``.
"""

from .dilation import (
    AndoOperators,
    ExtensionFailure,
    Generators,
    NotCommuting,
    SupportOverflow,
    SzNagyOperators,
    ando,
    apply_u,
    apply_v,
    apply_w,
    apply_w1,
    apply_w2,
    apply_w_inv,
    build_generators,
    build_v,
    sznagy,
    sznagy_apply_u,
    truncated_matrix,
)
from .fields import RATIONAL, FieldSpec, gf
from .linalg import (
    DimensionMismatch,
    Mat,
    NotIndependent,
    NotSquare,
    Singular,
    column_ranks,
    complete_basis,
    from_cols,
    hstack,
    identity,
    inverse,
    is_invertible,
    kernel_basis,
    mat,
    matvec,
    rank,
    rref,
    vstack,
    zeros,
)
from .pairs import InvalidRecipe, PairRecipe, check_commute, gen_pair, matrix_polynomial
from .rng import SplitMix64
from .sequences import Batch, embed, from_coords, fsvec, project, to_coords, zero_fsvec
from .verify import CheckParams, CheckRecord, Report, check_ando, check_sznagy

__version__ = "0.1.0"
