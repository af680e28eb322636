"""Plumbing trees for surgeries on iterated torus knots and the
lattice-embedding obstruction to bounding rational homology 4-balls."""

from .cabling import (
    CableTower,
    ReducibleBoundaryError,
    SurgerySpec,
    UnsupportedTowerError,
    closed_form_two_iter,
    corner_weight,
    raw_plumbing,
    reduced_plumbing,
)
from .hjcf import dual_point_rule, eval_neg_cf, expand_neg_cf, star_inverse
from .plumbing import (
    InvalidMoveError,
    NoNegativeDefiniteFormError,
    WeightedTree,
    absorb_zero,
    are_isomorphic,
    blow_down,
    blow_up,
    det_exact,
    flatten_positive_leaf,
    gram_matrix,
    is_negative_definite,
    reduce_tree,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
