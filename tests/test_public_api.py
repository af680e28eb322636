"""The package's public names, pinned so that any change to them is a
reviewed diff of this list."""

import knotplumb

PUBLIC_NAMES = [
    "CableTower",
    "InvalidMoveError",
    "NoNegativeDefiniteFormError",
    "ReducibleBoundaryError",
    "SurgerySpec",
    "UnsupportedTowerError",
    "WeightedTree",
    "absorb_zero",
    "are_isomorphic",
    "blow_down",
    "blow_up",
    "cabling",
    "closed_form_two_iter",
    "corner_weight",
    "det_exact",
    "dual_point_rule",
    "eval_neg_cf",
    "expand_neg_cf",
    "flatten_positive_leaf",
    "gram_matrix",
    "hjcf",
    "is_negative_definite",
    "plumbing",
    "raw_plumbing",
    "reduce_tree",
    "reduced_plumbing",
    "star_inverse",
]


def test_public_names():
    assert sorted(knotplumb.__all__) == PUBLIC_NAMES
