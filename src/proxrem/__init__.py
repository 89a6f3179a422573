"""Exact distance invariants of connected graphs.

Proximity and remoteness with exact rational arithmetic, weighted tree
medians, degree-based upper bounds certified link by link, a
near-extremal graph family, and exhaustive brute-force oracles.
"""

from .construction import (
    BoundReport,
    ChainLink,
    ConstructionError,
    ConstructionTrace,
    auxiliary_graph,
    bound_report,
    build_construction,
    certify_proximity_chain,
    certify_remoteness_chain,
    contract_weights,
    degree_range_bounds,
    q_adjustment,
    trace_to_json,
)
from .extremal import (
    ExtremalParams,
    SequentialSumSpec,
    SharpnessRecord,
    extremal_graph,
    sequential_sum,
    sharpness_report,
    sharpness_sweep,
)
from .graphs import (
    INF,
    DistanceOracle,
    Graph,
    ParseError,
    all_pairs_distances,
    complete_graph,
    cycle_graph,
    degree_stats,
    graph_from_edges,
    is_connected,
    parse_graph,
    path_graph,
    render_graph,
    star_graph,
)
from .invariants import (
    ClassicalBounds,
    InvariantSummary,
    classical_bounds,
    invariant_summary,
)
from .oracle import (
    DEFAULT_SEED,
    LemmaSweepReport,
    enumerate_trees,
    exhaustive_bound_check,
    lemma_sweep,
    prufer_decode,
    prufer_encode,
    random_connected_graph,
    sample_corpus,
    tree_count,
)
from .weighted import (
    WeightFunction,
    WeightProfile,
    branch_weight,
    c_median,
    heavy_majority_bound,
    heavy_minority_bound,
    median_by_branch_weight,
    weighted_distance,
    witness_path,
)

__version__ = "0.1.0"
