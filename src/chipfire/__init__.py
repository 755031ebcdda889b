"""Chip-firing on the infinite binary tree with a self-loop at the root."""

from .bounds import (
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
    check,
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
