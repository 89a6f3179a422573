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

import heapq
from fractions import Fraction
from typing import NamedTuple, Sequence

from .graphs import (
    INF,
    DistanceOracle,
    Graph,
    _ball,
    _bfs,
    _tree_sigmas,
    all_pairs_distances,
    degree_stats,
    graph_from_edges,
    is_connected,
    weighted_transmissions,
)
from .invariants import (
    InvariantSummary,
    bound_verdicts,
    degree_range_bounds,
    invariant_summary,
    summarize_transmissions,
)
from .weighted import any_vertex_bound, heavy_majority_bound, heavy_minority_bound, median_bound


class ConstructionError(RuntimeError):
    """A structural invariant of the construction failed to hold."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConstructionError(msg)


class ConstructionTrace(NamedTuple):
    """Full state of one pipeline run.

    ``anchors`` is B in insertion order (``anchors[0]`` is the chosen
    max-degree root).  ``nearest_anchor[v]`` is the anchor that received
    v's unit weight; it is within T-distance 2 of v and doubles as the
    anchor used for the remoteness chain.  ``aux`` is F with vertex ``i``
    standing for ``anchors[i]``.

    The last four fields are the distance sums the chains compare,
    computed once here and only read by the certifiers; they take no part
    in equality, ``repr`` or :func:`trace_to_json`.  ``tree_summary``
    holds T's invariants.  By anchor position, as in ``aux``:
    ``contracted_tree`` is σ_c,T, the weighted transmission in T under
    the contracted weights (0 off the anchors); ``contracted_aux`` is
    σ_c,F, its analogue in F; and ``adjusted_aux`` is σ_c,F with ``q``
    added to the weight of ``w0``.  T's come from two rerooting passes of
    :func:`~proxrem.graphs._tree_sigmas` over its edges, F's from
    :func:`~proxrem.graphs.weighted_transmissions` and one BFS row from
    w0, so neither T nor F has an n×n distance array.
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
    w0: int
    tree_summary: InvariantSummary
    contracted_tree: tuple[int, ...]
    contracted_aux: tuple[int, ...]
    adjusted_aux: tuple[int, ...]

    # equality and repr read the fields before the four sums; the dict of
    # weights leaves a trace unhashable
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self[:_TRACE_SHOWN] == other[:_TRACE_SHOWN]  # type: ignore[index]

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        shown = zip(self._fields, self[:_TRACE_SHOWN])
        return "ConstructionTrace(" + ", ".join(f"{name}={value!r}" for name, value in shown) + ")"


_TRACE_SHOWN = len(ConstructionTrace._fields) - 4


def q_adjustment(n: int, Delta: int, delta: int) -> int:
    """Minimal q in ``0..delta`` making ``n - (Delta+1) + q`` a multiple
    of ``delta + 1``."""
    if not (1 <= delta <= Delta <= n - 1):
        raise ValueError(f"invalid degree parameters ({n}, {Delta}, {delta})")
    return (Delta + 1 - n) % (delta + 1)


def _grow_anchor_tree(g: Graph) -> tuple[list[int], list[tuple[int, int]], bytearray]:
    """Grow B and the core tree T' of anchor stars plus connecting edges.

    ``dist`` is each vertex's set-distance to B, capped at 4 for "more
    than 3"; a new anchor relaxes it through its radius-3 ball alone.
    ``at3`` is a heap of the vertices that reached 3, and an entry is stale
    once its vertex has come closer.  Raises ``ValueError`` when G is
    disconnected.
    """
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
    dist = [4] * g.n
    at3: list[int] = []
    b = b0
    while True:
        for v in _ball(g.adj, b, 3, dist)[1]:
            if dist[v] == 3:
                heapq.heappush(at3, v)
        while at3 and dist[at3[0]] < 3:
            heapq.heappop(at3)
        if not at3:
            break
        b = heapq.heappop(at3)
        star = (b, *g.adj[b])
        # the lexicographically smallest tree-to-star edge, read off the star side
        connector = min(((x, y) for y in star for x in g.adj[y] if in_tree[x]), default=None)
        _require(connector is not None, f"no edge joins the tree to the star of {b}")
        add_star(b)
        edges.append(connector)  # type: ignore[arg-type]
        anchors.append(b)
    # in a connected graph a shortest path from a vertex beyond 3 to B
    # passes one at exactly 3, so none is left only when G is disconnected
    if max(dist) > 2:
        raise ValueError("construction needs a connected graph")
    return anchors, edges, in_tree


def contract_weights(
    tree: Graph, anchors: Sequence[int]
) -> tuple[tuple[int, ...], dict[int, int]]:
    """Assign every vertex of ``tree`` to its nearest anchor in the tree.

    Ties break to the lowest anchor vertex id: radius-2 balls are relaxed
    into ``best`` around the anchors in ascending id, and a later ball
    takes a vertex only when it is strictly closer, so each ball costs the
    vertices it takes.  Returns the assignment and the contracted integer
    weights (anchor -> number of assigned vertices).
    """
    best = [INF] * tree.n
    nearest = [-1] * tree.n
    for b in sorted(anchors):
        for v in _ball(tree.adj, b, 2, best)[1]:
            nearest[v] = b
    _require(INF not in best, "a vertex is farther than 2 from every anchor")
    counts = {b: 0 for b in anchors}
    for b in nearest:
        counts[b] += 1
    return tuple(nearest), counts


def auxiliary_graph(tree: Graph, anchors: Sequence[int]) -> Graph:
    """Graph on anchor positions joining anchors at T-distance <= 3.

    ``tree`` is T; vertex ``i`` stands for ``anchors[i]``, and one
    radius-3 ball of T per anchor finds its neighbours.  Raises if some
    anchor after the first has no predecessor at tree-distance exactly 3,
    or if the result is disconnected (both are guaranteed by the growth
    rule).
    """
    pos = {b: i for i, b in enumerate(anchors)}
    edges: list[tuple[int, int]] = []
    # one distance list for every ball, reset on the vertices each reached
    dist = [INF] * tree.n
    for i, b in enumerate(anchors):
        reached = _ball(tree.adj, b, 3, dist)[1]
        near = [(pos[v], dist[v]) for v in reached if v in pos]
        for v in reached:
            dist[v] = INF
        edges.extend((i, j) for j, _ in near if j > i)
        _require(
            i == 0 or any(j < i and dv == 3 for j, dv in near),
            f"anchor {b} has no predecessor at tree-distance 3",
        )
    aux = graph_from_edges(len(anchors), edges)
    _require(is_connected(aux), "auxiliary graph is disconnected")
    return aux


def _tree_edges(tree: Graph, root: int) -> list[tuple[int, int]]:
    """The (child, parent) edges of ``tree`` rooted at ``root``, in
    leaf-first post-order, from one BFS: it visits every parent before its
    children, so the reversed visit order is a post-order.  Raises unless
    ``tree`` is a spanning tree."""
    depth, order = _ball(tree.adj, root, INF)
    _require(tree.edge_count() == tree.n - 1 == len(order) - 1, "result is not a spanning tree")
    return [(v, next(u for u in tree.adj[v] if depth[u] < depth[v])) for v in reversed(order[1:])]


def build_construction(g: Graph) -> ConstructionTrace:
    """Run the full pipeline on a connected graph of order >= 2; a
    disconnected one is a ``ValueError``.

    Deterministic: the root is the lowest-index maximum-degree vertex,
    each new anchor is the lowest-index vertex at set-distance exactly 3,
    connecting edges are lexicographically smallest, and leftover vertices
    attach to their lowest-index neighbor already in the core tree.
    """
    if g.n < 2:
        raise ValueError("construction needs at least two vertices")
    delta, Delta = degree_stats(g)

    anchors, edges, in_core = _grow_anchor_tree(g)
    b0 = anchors[0]
    core = bytes(in_core)
    for v in range(g.n):
        if core[v]:
            continue
        host = next((w for w in g.adj[v] if core[w]), None)
        _require(host is not None, f"leftover vertex {v} has no neighbor in the core tree")
        edges.append((host, v))  # type: ignore[arg-type]
    tree = graph_from_edges(g.n, edges)
    post_order = _tree_edges(tree, b0)
    up = dict(post_order)
    _require(tree.degree(b0) == g.degree(b0) == Delta, "root degree not preserved")

    assignment, counts = contract_weights(tree, anchors)
    for b in anchors:
        _require(assignment[b] == b, f"anchor {b} not assigned to itself")
        _require(
            counts[b] >= g.degree(b) + 1,
            f"contracted weight {counts[b]} at anchor {b} below degree+1",
        )
    _require(sum(counts.values()) == g.n, "contracted weights do not sum to the order")
    _require(counts[b0] >= Delta + 1, "root weight below Delta+1")

    aux = auxiliary_graph(tree, anchors)
    q = q_adjustment(g.n, Delta, delta)

    sigma = weighted_transmissions(aux, [counts[b] for b in anchors])
    # ties break to the lowest vertex id, not to anchor insertion order
    smin = min(sigma)
    w0 = min(b for b, s in zip(anchors, sigma) if s == smin)
    w0_pos = anchors.index(w0)

    # adding q at w0 cannot dethrone it, but the claim is checked, not trusted
    to_w0 = _bfs(aux.adj, w0_pos)
    sigma_adj = tuple([s + q * d for s, d in zip(sigma, to_w0)])
    _require(
        sigma_adj[w0_pos] == min(sigma_adj),
        "chosen median lost medianhood after the q adjustment",
    )
    sigma_c_tree = _tree_sigmas(post_order, g.n, [counts.get(v, 0) for v in range(g.n)])

    return ConstructionTrace(
        order=g.n,
        delta=delta,
        Delta=Delta,
        anchors=tuple(anchors),
        tree=tree,
        parent=tuple([up.get(v, -1) for v in range(g.n)]),
        nearest_anchor=assignment,
        weights=counts,
        aux=aux,
        q=q,
        w0=w0,
        tree_summary=summarize_transmissions(_tree_sigmas(post_order, g.n, [1] * g.n)),
        contracted_tree=tuple([sigma_c_tree[b] for b in anchors]),
        contracted_aux=sigma,
        adjusted_aux=sigma_adj,
    )


class ChainLink(NamedTuple):
    """One certified inequality ``lhs <= rhs`` with exact values.

    A side is an ``int`` where the quantity is an integer sum (σ_T,
    σ_c,T, 3·σ_c,F, σ + 2(n−1), …) and a ``Fraction`` where it is a
    rational closed form or an average; never a float.  Reports render
    either as ``p/q``.
    """

    name: str
    lhs: Fraction | int
    rhs: Fraction | int
    holds: bool


def _link(name: str, lhs: Fraction | int, rhs: Fraction | int) -> ChainLink:
    """The link ``lhs <= rhs``, each side kept as computed: ``int`` and
    ``Fraction`` compare exactly, so no side is converted."""
    return ChainLink(name, lhs, rhs, lhs <= rhs)


def _sigma_values(trace: ConstructionTrace, at: int) -> tuple[int, int, int, int]:
    """``(sigma_T, sigma_c_T, sigma_c_F, sigma_adjusted_F)`` at an anchor
    ``at``, read off the trace."""
    i = trace.anchors.index(at)
    sigma_t = trace.tree_summary.transmissions[at]
    return sigma_t, trace.contracted_tree[i], trace.contracted_aux[i], trace.adjusted_aux[i]


def certify_proximity_chain(
    trace: ConstructionTrace, summary: InvariantSummary
) -> tuple[ChainLink, ...]:
    """Certify every link bounding the proximity of G through its trace.

    Every distance sum of T and F is read off the trace, which computed
    it once, and ``summary`` is G's own, from the caller, so no distance
    is computed here.

    Each merged constant is re-derived as its own link, so an arithmetic
    slip anywhere in the derivation surfaces as a failed certificate with
    exact slack.
    """
    n, delta, Delta = trace.order, trace.delta, trace.Delta
    sigma_t, sigma_c_t, sigma_c_f, sigma_adj_f = _sigma_values(trace, trace.w0)

    adjusted_bound = median_bound(n + trace.q, Delta + 1, delta + 1)
    # the paper splits the q-free form on n, not on heavy > total/2
    if 2 * (Delta + 1) > n:
        q_free_bound = heavy_majority_bound(n + delta, Delta + 1, delta + 1)
        # (n-Delta)^2 / (2(delta+1)) + 3(n-1)/2
        merged_bound = Fraction((n - Delta) ** 2 + 3 * (n - 1) * (delta + 1), 2 * (delta + 1))
    else:
        q_free_bound = heavy_minority_bound(n + delta, Delta + 1, delta + 1)
        # (n^2 - 2 Delta^2) / (4(delta+1)) + 9(n-1)/4
        merged_bound = Fraction(
            n * n - 2 * Delta * Delta + 9 * (n - 1) * (delta + 1), 4 * (delta + 1)
        )
    bounds = degree_range_bounds(n, delta, Delta)
    inv_t = trace.tree_summary

    return (
        _link("transmission_vs_contracted", sigma_t, sigma_c_t + 2 * (n - 1)),
        _link("tree_vs_aux_factor3", sigma_c_t, 3 * sigma_c_f),
        _link("adjusted_weights_dominate", sigma_c_f, sigma_adj_f),
        _link("median_bound_adjusted_total", sigma_adj_f, adjusted_bound),
        _link("median_bound_q_free", sigma_c_f, q_free_bound),
        _link("median_bound_merged", sigma_c_f, merged_bound),
        _link("root_transmission_bound", sigma_t, (n - 1) * bounds.pi_bound),
        _link("proximity_tree_dominates", summary.proximity, inv_t.proximity),
        _link("proximity_via_median", inv_t.proximity, Fraction(sigma_t, n - 1)),
        _link("proximity_bound", summary.proximity, bounds.pi_bound),
    )


def certify_remoteness_chain(
    trace: ConstructionTrace, summary: InvariantSummary
) -> tuple[ChainLink, ...]:
    """Certify every link bounding the remoteness of G through its trace.

    As for :func:`certify_proximity_chain`, T's and F's distance sums
    come from the trace and ``summary`` is G's; nothing is recomputed.
    """
    n, delta, Delta = trace.order, trace.delta, trace.Delta
    inv_t = trace.tree_summary
    far = inv_t.antimedian[0]
    sigma_far = inv_t.transmissions[far]
    sigma_t, sigma_c_t, sigma_c_f, sigma_adj_f = _sigma_values(
        trace, trace.nearest_anchor[far]
    )

    adjusted_bound = any_vertex_bound(n + trace.q, Delta + 1, delta + 1)
    q_free_bound = any_vertex_bound(n + delta, Delta + 1, delta + 1)
    # (n^2 - Delta^2) / (2(delta+1)) + (n-1)
    merged_bound = Fraction(n * n - Delta * Delta + 2 * (n - 1) * (delta + 1), 2 * (delta + 1))
    bounds = degree_range_bounds(n, delta, Delta)

    return (
        _link("far_vertex_vs_anchor", sigma_far, sigma_t + 2 * (n - 1)),
        _link("transmission_vs_contracted", sigma_t, sigma_c_t + 2 * (n - 1)),
        _link("tree_vs_aux_factor3", sigma_c_t, 3 * sigma_c_f),
        _link("adjusted_weights_dominate", sigma_c_f, sigma_adj_f),
        _link("any_vertex_bound_adjusted_total", sigma_adj_f, adjusted_bound),
        _link("any_vertex_bound_q_free", sigma_c_f, q_free_bound),
        _link("aux_remote_merged", sigma_c_f, merged_bound),
        _link("remote_chain_combined", sigma_far, 3 * sigma_c_f + 4 * (n - 1)),
        _link("remote_transmission_bound", sigma_far, (n - 1) * bounds.rho_bound),
        _link("remoteness_tree_bound", inv_t.remoteness, bounds.rho_bound),
        _link("remoteness_graph_dominates", summary.remoteness, inv_t.remoteness),
        _link("remoteness_bound", summary.remoteness, bounds.rho_bound),
    )


class BoundReport(NamedTuple):
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
    g: Graph, include_chains: bool = False, oracle: DistanceOracle | None = None
) -> BoundReport:
    """Evaluate all six bounds, through :func:`bound_verdicts`, and
    optionally both chains on ``g``; ``oracle`` is G's, when the caller
    already has it."""
    d = oracle if oracle is not None else all_pairs_distances(g)
    inv = invariant_summary(g, d)
    delta, Delta = degree_stats(g)
    trans = inv.transmissions
    verdicts = bound_verdicts(g.n, delta, Delta, min(trans), max(trans))

    prox_chain = rem_chain = None
    if include_chains:
        trace = build_construction(g)
        prox_chain = certify_proximity_chain(trace, inv)
        rem_chain = certify_remoteness_chain(trace, inv)

    return BoundReport(
        order=g.n,
        delta=delta,
        Delta=Delta,
        case=verdicts.case,
        proximity=verdicts.proximity,
        remoteness=verdicts.remoteness,
        bounds=verdicts.bounds,
        slack=verdicts.slack,
        holds=verdicts.holds,
        proximity_chain=prox_chain,
        remoteness_chain=rem_chain,
    )


def trace_to_json(trace: ConstructionTrace) -> dict:
    """JSON-ready document for golden-file regression tests."""
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
