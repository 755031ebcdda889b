"""Chip-firing on the infinite binary tree with a self-loop at the root."""

from .bounds import (
    a000295,
    ballot_bound,
    ballot_split_count,
    binomial,
    catalan,
    compare_table,
    euler_zigzag,
    factorial,
    multinomial,
    naive_bounds,
    zigzag_bound,
    zigzag_subtree_factor,
    zigzag_tree_factor,
)
from .checks import (
    CheckReport,
    Violation,
    check_anchors,
    check_ballot,
    check_forbidden_order,
    check_penultimate,
    check_subtree_extremes,
    check_zigzag_alternation,
    relative_order_key,
)
from .enumeration import (
    EnumerationPaused,
    StableSet,
    enumerate_stable,
    extract_subtree_orders,
    load,
    read_corpus,
    save,
)
from .labeled import LabeledConfig, fire, initial_config, run_policy, run_policy_traced
from .tree import (
    ZigzagPath,
    bottom_straight_left,
    bottom_straight_right,
    layer,
    left_child,
    parent,
    right_child,
    zigzag_from,
    zigzag_partition,
)
from .unlabeled import (
    UnlabeledProfile,
    UnlabeledState,
    diff_root_fires,
    diff_total_fires,
    fires_per_layer,
    profile,
    root_fires_closed,
    root_fires_recursive,
    sequence,
    simulate,
    stable_chip_counts,
    total_fires,
)

__version__ = "0.1.0"
