"""Constructive spanning-tree pipeline and certified inequality chains.

The pipeline grows an anchor set B by repeatedly taking a vertex at
distance exactly 3 from the current set, assembles a spanning tree T from
the anchors' stars plus connecting edges, contracts unit vertex weights
onto the nearest anchor in T, forms the auxiliary graph F joining anchors
at T-distance at most 3, and applies a divisibility adjustment q.  Every
step records enough state to certify, link by link in exact arithmetic,
the inequality chains that bound proximity and remoteness in terms of
order, minimum degree and maximum degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import (
    DistanceOracle,
    Graph,
    all_pairs_distances,
    degree_stats,
    graph_from_edges,
    is_connected,
)
from .invariants import InvariantSummary, classical_bounds, invariant_summary
from .weighted import heavy_majority_bound, heavy_minority_bound


class ConstructionError(RuntimeError):
    """A structural invariant of the construction failed to hold."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConstructionError(msg)


@dataclass(frozen=True)
class ConstructionTrace:
    """Full state of one pipeline run.

    ``anchors`` is B in insertion order (``anchors[0]`` is the chosen
    max-degree root).  ``nearest_anchor[v]`` is the anchor that received
    v's unit weight; it is within T-distance 2 of v and doubles as the
    anchor used for the remoteness chain.  ``aux`` is F with vertex ``i``
    standing for ``anchors[i]``.  ``adjusted_weights`` is the contracted
    weight map with ``q`` added at ``w0``.

    ``d_tree``, ``d_aux`` and ``tree_summary`` are the distances of T and
    F and the invariants of T, computed once here and read by the chain
    certifiers; they take no part in equality or ``repr``.
    """

    order: int
    delta: int
    Delta: int
    anchors: tuple[int, ...]
    tree: Graph
    parent: tuple[int, ...]
    nearest_anchor: tuple[int, ...]
    weights: dict[int, int]
    aux: Graph
    q: int
    adjusted_weights: dict[int, Fraction]
    w0: int
    d_tree: DistanceOracle = field(compare=False, repr=False)
    d_aux: DistanceOracle = field(compare=False, repr=False)
    tree_summary: InvariantSummary = field(compare=False, repr=False)


def q_adjustment(n: int, Delta: int, delta: int) -> int:
    """Minimal q in ``0..delta`` making ``n - (Delta+1) + q`` a multiple
    of ``delta + 1``."""
    if not (1 <= delta <= Delta <= n - 1):
        raise ValueError(f"invalid degree parameters ({n}, {Delta}, {delta})")
    return (Delta + 1 - n) % (delta + 1)


def _grow_anchor_tree(
    g: Graph, d: DistanceOracle
) -> tuple[list[int], list[tuple[int, int]], bytearray]:
    """Grow B and the core tree T' of anchor stars plus connecting edges."""
    degs = [g.degree(v) for v in range(g.n)]
    b0 = degs.index(max(degs))
    anchors = [b0]
    in_tree = bytearray(g.n)
    edges: list[tuple[int, int]] = []

    def add_star(b: int) -> None:
        _require(not in_tree[b], f"anchor {b} already in tree")
        in_tree[b] = 1
        for w in g.adj[b]:
            _require(
                not in_tree[w],
                f"star of anchor {b} overlaps the tree at vertex {w}",
            )
            in_tree[w] = 1
            edges.append((b, w))

    add_star(b0)
    dist_to_b = np.array(d.row(b0))
    while True:
        at3 = np.nonzero(dist_to_b == 3)[0]
        if at3.size == 0:
            break
        b = int(at3[0])
        star = set(g.adj[b])
        star.add(b)
        connector: tuple[int, int] | None = None
        for x in range(g.n):
            if not in_tree[x]:
                continue
            for y in g.adj[x]:
                if y in star:
                    connector = (x, y)
                    break
            if connector is not None:
                break
        _require(connector is not None, f"no edge joins the tree to the star of {b}")
        add_star(b)
        edges.append(connector)  # type: ignore[arg-type]
        anchors.append(b)
        dist_to_b = np.minimum(dist_to_b, d.row(b))
    _require(int(dist_to_b.max()) <= 2, "anchors fail to dominate at radius 2")
    return anchors, edges, in_tree


def contract_weights(
    anchors: Sequence[int], tree: Graph, oracle: DistanceOracle | None = None
) -> tuple[tuple[int, ...], dict[int, int]]:
    """Assign every vertex to its nearest anchor in the tree.

    Ties break to the lowest anchor vertex id.  Returns the assignment and
    the contracted integer weights (anchor -> number of assigned vertices).
    """
    d = oracle if oracle is not None else all_pairs_distances(tree)
    cols = np.array(sorted(anchors), dtype=np.int64)
    sub = d.matrix[:, cols]
    _require(int(sub.min(axis=1).max()) <= 2, "a vertex is farther than 2 from every anchor")
    nearest = cols[np.argmin(sub, axis=1)]  # argmin takes the first = lowest id
    assignment = tuple(int(b) for b in nearest)
    counts = {int(b): 0 for b in anchors}
    for b in assignment:
        counts[b] += 1
    return assignment, counts


def auxiliary_graph(
    anchors: Sequence[int], tree: Graph, oracle: DistanceOracle | None = None
) -> Graph:
    """Graph on anchor positions joining anchors at tree-distance <= 3.

    Vertex ``i`` stands for ``anchors[i]``.  Raises if the result is
    disconnected or if some anchor after the first has no predecessor at
    tree-distance exactly 3 (both are guaranteed by the growth rule).
    """
    d = oracle if oracle is not None else all_pairs_distances(tree)
    r = len(anchors)
    edges = []
    for i in range(r):
        for j in range(i + 1, r):
            if d.d(anchors[i], anchors[j]) <= 3:
                edges.append((i, j))
    aux = graph_from_edges(r, edges)
    for i in range(1, r):
        _require(
            any(d.d(anchors[i], anchors[j]) == 3 for j in range(i)),
            f"anchor {anchors[i]} has no predecessor at tree-distance 3",
        )
    _require(is_connected(aux), "auxiliary graph is disconnected")
    return aux


def _parent_array(tree: Graph, root: int) -> tuple[int, ...]:
    parent = [-1] * tree.n
    seen = bytearray(tree.n)
    seen[root] = 1
    stack = [root]
    while stack:
        u = stack.pop()
        for w in tree.adj[u]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = u
                stack.append(w)
    return tuple(parent)


def build_construction(g: Graph, oracle: DistanceOracle | None = None) -> ConstructionTrace:
    """Run the full pipeline on a connected graph of order >= 2.

    Deterministic: the root is the lowest-index maximum-degree vertex,
    each new anchor is the lowest-index vertex at set-distance exactly 3,
    connecting edges are lexicographically smallest, and leftover vertices
    attach to their lowest-index neighbor already in the core tree.
    """
    if g.n < 2:
        raise ValueError("construction needs at least two vertices")
    d = oracle if oracle is not None else all_pairs_distances(g)
    if not d.all_finite():
        raise ValueError("construction needs a connected graph")
    delta, Delta = degree_stats(g)

    anchors, edges, in_core = _grow_anchor_tree(g, d)
    b0 = anchors[0]
    core = bytes(in_core)
    for v in range(g.n):
        if core[v]:
            continue
        host = next((w for w in g.adj[v] if core[w]), None)
        _require(host is not None, f"leftover vertex {v} has no neighbor in the core tree")
        edges.append((host, v))  # type: ignore[arg-type]
    tree = graph_from_edges(g.n, edges)
    _require(tree.edge_count() == g.n - 1 and is_connected(tree), "result is not a spanning tree")
    _require(tree.degree(b0) == g.degree(b0) == Delta, "root degree not preserved")

    d_tree = all_pairs_distances(tree)
    assignment, counts = contract_weights(anchors, tree, d_tree)
    for b in anchors:
        _require(assignment[b] == b, f"anchor {b} not assigned to itself")
        _require(
            counts[b] >= g.degree(b) + 1,
            f"contracted weight {counts[b]} at anchor {b} below degree+1",
        )
    _require(sum(counts.values()) == g.n, "contracted weights do not sum to the order")
    _require(counts[b0] >= Delta + 1, "root weight below Delta+1")

    aux = auxiliary_graph(anchors, tree, d_tree)
    q = q_adjustment(g.n, Delta, delta)

    d_aux = all_pairs_distances(aux)
    # contracted weights are integers and sigma <= n^2, so int64 is exact
    sigma = d_aux.matrix @ np.array([counts[b] for b in anchors], dtype=np.int64)
    # ties break to the lowest vertex id, not to anchor insertion order
    w0 = min(anchors[i] for i in np.flatnonzero(sigma == sigma.min()))
    w0_pos = anchors.index(w0)

    adjusted = {b: Fraction(counts[b]) for b in anchors}
    adjusted[w0] += q
    # adding q at w0 cannot dethrone it, but the claim is checked, not trusted
    sigma_adj = sigma + q * d_aux.matrix[:, w0_pos]
    _require(
        bool((sigma_adj[w0_pos] <= sigma_adj).all()),
        "chosen median lost medianhood after the q adjustment",
    )

    return ConstructionTrace(
        order=g.n,
        delta=delta,
        Delta=Delta,
        anchors=tuple(anchors),
        tree=tree,
        parent=_parent_array(tree, b0),
        nearest_anchor=assignment,
        weights=counts,
        aux=aux,
        q=q,
        adjusted_weights=adjusted,
        w0=w0,
        d_tree=d_tree,
        d_aux=d_aux,
        tree_summary=invariant_summary(tree, d_tree),
    )


class DegreeRangeBounds(NamedTuple):
    """Proximity/remoteness upper bounds from order and both degree extremes."""

    pi_bound: Fraction
    rho_bound: Fraction
    case: str  # "large-Delta" | "small-Delta"


def degree_range_bounds(n: int, delta: int, Delta: int) -> DegreeRangeBounds:
    """Case-split bounds: for ``Delta > n/2 - 1``,
    ``pi <= 3(n-Delta)^2 / (2(n-1)(delta+1)) + 13/2``; otherwise
    ``pi <= 3(n^2 - 2 Delta^2) / (4(n-1)(delta+1)) + 35/4``; and always
    ``rho <= 3(n^2 - Delta^2) / (2(n-1)(delta+1)) + 7``.
    """
    if n < 2 or not (1 <= delta <= Delta <= n - 1):
        raise ValueError(f"invalid parameters (n={n}, delta={delta}, Delta={Delta})")
    if 2 * (Delta + 1) > n:
        pi = Fraction(3 * (n - Delta) ** 2, 2 * (n - 1) * (delta + 1)) + Fraction(13, 2)
        case = "large-Delta"
    else:
        pi = Fraction(3 * (n * n - 2 * Delta * Delta), 4 * (n - 1) * (delta + 1)) + Fraction(35, 4)
        case = "small-Delta"
    rho = Fraction(3 * (n * n - Delta * Delta), 2 * (n - 1) * (delta + 1)) + 7
    return DegreeRangeBounds(pi, rho, case)


@dataclass(frozen=True)
class ChainLink:
    """One certified inequality ``lhs <= rhs`` with exact values."""

    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool


def _link(name: str, lhs: Fraction | int, rhs: Fraction | int) -> ChainLink:
    lf, rf = Fraction(lhs), Fraction(rhs)
    return ChainLink(name, lf, rf, lf <= rf)


def _sigma_values(trace: ConstructionTrace, at: int) -> tuple[int, int, int, Fraction]:
    """Transmission and contracted weighted distances at an anchor ``at``.

    Returns ``(sigma_T, sigma_c_T, sigma_c_F, sigma_adjusted_F)``.
    """
    d_tree, d_aux = trace.d_tree, trace.d_aux
    pos = {b: i for i, b in enumerate(trace.anchors)}
    p = pos[at]
    sigma_t = trace.tree_summary.transmissions[at]
    sigma_c_t = sum(trace.weights[b] * d_tree.d(at, b) for b in trace.anchors)
    sigma_c_f = sum(trace.weights[b] * d_aux.d(p, pos[b]) for b in trace.anchors)
    sigma_adj_f = Fraction(sigma_c_f) + trace.q * d_aux.d(p, pos[trace.w0])
    return sigma_t, sigma_c_t, sigma_c_f, sigma_adj_f


def certify_proximity_chain(
    g: Graph, trace: ConstructionTrace, summary: InvariantSummary | None = None
) -> tuple[ChainLink, ...]:
    """Certify every link bounding the proximity of ``g`` through the trace.

    T's and F's distances and T's invariants come from the trace, which
    computed them once.  ``summary`` is ``g``'s own; when it is absent it
    is computed here.

    Each merged constant is re-derived as its own link, so an arithmetic
    slip anywhere in the derivation surfaces as a failed certificate with
    exact slack.
    """
    n, delta, Delta = trace.order, trace.delta, trace.Delta
    sigma_t, sigma_c_t, sigma_c_f, sigma_adj_f = _sigma_values(trace, trace.w0)

    big_n_q = Fraction(n + trace.q)
    big_n_d = Fraction(n + delta)
    heavy = Fraction(Delta + 1)
    floor = Fraction(delta + 1)
    if heavy > big_n_q / 2:
        adjusted_bound = heavy_majority_bound(big_n_q, heavy, floor)
    else:
        adjusted_bound = heavy_minority_bound(big_n_q, heavy, floor)
    large_delta = 2 * (Delta + 1) > n
    if large_delta:
        q_free_bound = heavy_majority_bound(big_n_d, heavy, floor)
        merged_bound = Fraction((n - Delta) ** 2, 2 * (delta + 1)) + Fraction(3 * (n - 1), 2)
    else:
        q_free_bound = heavy_minority_bound(big_n_d, heavy, floor)
        merged_bound = Fraction(n * n - 2 * Delta * Delta, 4 * (delta + 1)) + Fraction(
            9 * (n - 1), 4
        )
    bounds = degree_range_bounds(n, delta, Delta)
    inv_g = summary or invariant_summary(g)
    inv_t = trace.tree_summary

    return (
        _link("transmission_vs_contracted", sigma_t, sigma_c_t + 2 * (n - 1)),
        _link("tree_vs_aux_factor3", sigma_c_t, 3 * sigma_c_f),
        _link("adjusted_weights_dominate", sigma_c_f, sigma_adj_f),
        _link("median_bound_adjusted_total", sigma_adj_f, adjusted_bound),
        _link("median_bound_q_free", Fraction(sigma_c_f), q_free_bound),
        _link("median_bound_merged", Fraction(sigma_c_f), merged_bound),
        _link("root_transmission_bound", sigma_t, (n - 1) * bounds.pi_bound),
        _link("proximity_tree_dominates", inv_g.proximity, inv_t.proximity),
        _link("proximity_via_median", inv_t.proximity, Fraction(sigma_t, n - 1)),
        _link("proximity_bound", inv_g.proximity, bounds.pi_bound),
    )


def certify_remoteness_chain(
    g: Graph, trace: ConstructionTrace, summary: InvariantSummary | None = None
) -> tuple[ChainLink, ...]:
    """Certify every link bounding the remoteness of ``g`` through the trace.

    As for :func:`certify_proximity_chain`, T's and F's distances and T's
    invariants come from the trace; ``summary`` is ``g``'s.
    """
    n, delta, Delta = trace.order, trace.delta, trace.Delta
    inv_g = summary or invariant_summary(g)
    inv_t = trace.tree_summary
    far = inv_t.antimedian[0]
    sigma_far = inv_t.transmissions[far]
    sigma_t, sigma_c_t, sigma_c_f, sigma_adj_f = _sigma_values(
        trace, trace.nearest_anchor[far]
    )

    big_n_q = Fraction(n + trace.q)
    heavy = Fraction(Delta + 1)
    floor = Fraction(delta + 1)
    adjusted_bound = (big_n_q - heavy) * (big_n_q + heavy - floor) / (2 * floor)
    q_free_bound = Fraction((n + delta - Delta - 1) * (n + Delta), 2 * (delta + 1))
    merged_bound = Fraction(n * n - Delta * Delta, 2 * (delta + 1)) + (n - 1)
    bounds = degree_range_bounds(n, delta, Delta)

    return (
        _link("far_vertex_vs_anchor", sigma_far, sigma_t + 2 * (n - 1)),
        _link("transmission_vs_contracted", sigma_t, sigma_c_t + 2 * (n - 1)),
        _link("tree_vs_aux_factor3", sigma_c_t, 3 * sigma_c_f),
        _link("adjusted_weights_dominate", sigma_c_f, sigma_adj_f),
        _link("any_vertex_bound_adjusted_total", sigma_adj_f, adjusted_bound),
        _link("any_vertex_bound_q_free", Fraction(sigma_c_f), q_free_bound),
        _link("aux_remote_merged", Fraction(sigma_c_f), merged_bound),
        _link("remote_chain_combined", sigma_far, 3 * sigma_c_f + 4 * (n - 1)),
        _link("remote_transmission_bound", sigma_far, (n - 1) * bounds.rho_bound),
        _link("remoteness_tree_bound", inv_t.remoteness, bounds.rho_bound),
        _link("remoteness_graph_dominates", inv_g.remoteness, inv_t.remoteness),
        _link("remoteness_bound", inv_g.remoteness, bounds.rho_bound),
    )


@dataclass(frozen=True)
class BoundReport:
    """Every applicable bound for one graph, with exact slack and verdicts."""

    order: int
    delta: int
    Delta: int
    case: str
    proximity: Fraction
    remoteness: Fraction
    bounds: dict[str, Fraction]
    slack: dict[str, Fraction]
    holds: dict[str, bool]
    proximity_chain: tuple[ChainLink, ...] | None = None
    remoteness_chain: tuple[ChainLink, ...] | None = None

    def all_hold(self) -> bool:
        ok = all(self.holds.values())
        for chain in (self.proximity_chain, self.remoteness_chain):
            if chain is not None:
                ok = ok and all(link.holds for link in chain)
        return ok


def bound_report(
    g: Graph,
    include_chains: bool = False,
    oracle: DistanceOracle | None = None,
) -> BoundReport:
    """Evaluate all six bounds (and optionally both chains) on ``g``."""
    d = oracle if oracle is not None else all_pairs_distances(g)
    inv = invariant_summary(g, d)
    delta, Delta = degree_stats(g)
    cb = classical_bounds(g.n, delta)
    db = degree_range_bounds(g.n, delta, Delta)
    bounds = {
        "proximity_order": cb.pi_order,
        "proximity_min_degree": cb.pi_min_degree,
        "proximity_degree_aware": db.pi_bound,
        "remoteness_order": cb.rho_order,
        "remoteness_min_degree": cb.rho_min_degree,
        "remoteness_degree_aware": db.rho_bound,
    }
    actual = {
        name: (inv.proximity if name.startswith("proximity") else inv.remoteness)
        for name in bounds
    }
    slack = {name: bounds[name] - actual[name] for name in bounds}
    holds = {name: slack[name] >= 0 for name in bounds}

    prox_chain = rem_chain = None
    if include_chains:
        trace = build_construction(g, d)
        prox_chain = certify_proximity_chain(g, trace, summary=inv)
        rem_chain = certify_remoteness_chain(g, trace, summary=inv)

    return BoundReport(
        order=g.n,
        delta=delta,
        Delta=Delta,
        case=db.case,
        proximity=inv.proximity,
        remoteness=inv.remoteness,
        bounds=bounds,
        slack=slack,
        holds=holds,
        proximity_chain=prox_chain,
        remoteness_chain=rem_chain,
    )


def trace_to_json(trace: ConstructionTrace) -> dict:
    """JSON-ready document for golden-file regression tests."""
    pos = {b: i for i, b in enumerate(trace.anchors)}
    aux_edges = [
        [trace.anchors[i], trace.anchors[j]] for i, j in trace.aux.edges()
    ]
    return {
        "order": trace.order,
        "delta": trace.delta,
        "Delta": trace.Delta,
        "anchors": list(trace.anchors),
        "parent": list(trace.parent),
        "nearest_anchor": list(trace.nearest_anchor),
        "weights": [[b, trace.weights[b]] for b in trace.anchors],
        "aux_edges": aux_edges,
        "q": trace.q,
        "w0": trace.w0,
    }
