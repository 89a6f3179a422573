"""Exact distance invariants of connected graphs.

Proximity and remoteness with exact rational arithmetic, weighted tree
medians, degree-based upper bounds certified link by link, a
near-extremal graph family, and exhaustive brute-force oracles.

Importing the package loads none of its modules: each exported name is
read from its defining module on access (PEP 562), so a process loads
only the modules it uses.  The name is looked up again on every access
and never stored here, so a function rebound in its defining module (by
a tracer or ``monkeypatch``) is what ``proxrem.<name>`` returns.
"""

import importlib

_EXPORTS = {
    "construction": (
        "BoundReport",
        "ChainLink",
        "ConstructionError",
        "ConstructionTrace",
        "auxiliary_graph",
        "bound_report",
        "build_construction",
        "certify_proximity_chain",
        "certify_remoteness_chain",
        "contract_weights",
        "q_adjustment",
        "trace_to_json",
    ),
    "extremal": (
        "ExtremalParams",
        "SequentialSumSpec",
        "SharpnessRecord",
        "extremal_graph",
        "sequential_sum",
        "sharpness_report",
        "sharpness_sweep",
    ),
    "graphs": (
        "DEFAULT_SEED",
        "INF",
        "DistanceOracle",
        "Graph",
        "ParseError",
        "all_pairs_distances",
        "complete_graph",
        "cycle_graph",
        "degree_stats",
        "graph_from_edges",
        "is_connected",
        "parse_graph",
        "path_graph",
        "render_graph",
        "star_graph",
    ),
    "invariants": (
        "ClassicalBounds",
        "InvariantSummary",
        "classical_bounds",
        "degree_range_bounds",
        "invariant_summary",
    ),
    "oracle": (
        "LemmaSweepReport",
        "enumerate_trees",
        "exhaustive_bound_check",
        "lemma_sweep",
        "prufer_decode",
        "prufer_encode",
        "random_connected_graph",
        "sample_corpus",
        "tree_count",
    ),
    "weighted": (
        "WeightFunction",
        "WeightProfile",
        "branch_weight",
        "c_median",
        "heavy_majority_bound",
        "heavy_minority_bound",
        "median_by_branch_weight",
        "weighted_distance",
        "witness_path",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
