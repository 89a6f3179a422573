"""Independent brute-force machinery.

Labeled-tree enumeration through the Prufer bijection, rooted tree shapes
from canonical level sequences, an exhaustive sweep checking the
closed-form weighted-distance bounds against every small integer-weighted
tree, exhaustive/randomized verification of all proximity and remoteness
bounds, and the seeded random-connected-graph sampler used by every
randomized corpus.

Both tree sweeps read one labelling per rooted tree shape
(:func:`_tree_shapes`) and build no Graph: (weighted) transmissions come
from one rerooting pass of :func:`~proxrem.graphs._tree_sigmas` over its
edges.  What they compute is invariant under relabelling, so the
labelled trees are walked only to name a witness or a violation.
"""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction
from math import comb, log
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

from .graphs import (
    DEFAULT_SEED,
    Graph,
    _tree_sigmas,
    all_pairs_distances,
    degree_stats,
    graph_from_edges,
    is_connected,
    parallel_map,
    render_graph,
)
from .invariants import BoundVerdicts, bound_verdicts
from .weighted import any_vertex_bound, median_bound


# ---------------------------------------------------------------------------
# Prufer bijection and tree enumeration


def _decode_edges(seq: Sequence[int], m: int) -> list[tuple[int, int]]:
    if m == 1:
        return []
    if m == 2:
        return [(0, 1)]
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def prufer_decode(seq: Sequence[int], m: int) -> Graph:
    """Labeled tree on ``m`` vertices for a sequence of length ``m - 2``."""
    if m < 1:
        raise ValueError("tree order must be positive")
    if len(seq) != max(0, m - 2):
        raise ValueError(f"sequence length {len(seq)} does not fit order {m}")
    if any(not 0 <= x < m for x in seq):
        raise ValueError("sequence entry out of range")
    return graph_from_edges(m, _decode_edges(seq, m))


def prufer_encode(t: Graph) -> tuple[int, ...]:
    """Inverse of :func:`prufer_decode` (smallest-leaf-first convention)."""
    m = t.n
    if t.edge_count() != m - 1 or not is_connected(t):
        raise ValueError("expected a tree")
    if m <= 2:
        return ()
    adj = [set(a) for a in t.adj]
    leaves = [v for v in range(m) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(m - 2):
        leaf = heapq.heappop(leaves)
        nbr = next(iter(adj[leaf]))
        seq.append(nbr)
        adj[nbr].discard(leaf)
        adj[leaf].clear()
        if len(adj[nbr]) == 1:
            heapq.heappush(leaves, nbr)
    return tuple(seq)


def tree_count(m: int) -> int:
    """Cayley's count of labeled trees."""
    return 1 if m <= 2 else m ** (m - 2)


def enumerate_trees(m: int) -> Iterator[Graph]:
    """All labeled trees on ``m`` vertices, each once, deterministic order."""
    if not 1 <= m <= 8:
        raise ValueError(f"tree enumeration supports 1 <= m <= 8, got {m}")
    for seq in itertools.product(range(m), repeat=max(0, m - 2)):
        yield prufer_decode(seq, m)


def _tree_shapes(m: int) -> Iterator[list[tuple[int, int]]]:
    """One labelling of each rooted tree of order ``m`` >= 1 (OEIS A000081),
    from Beyer and Hedetniemi's constant-time generation of canonical level
    sequences (SIAM J. Comput. 9(4), 1980), vertices numbered in preorder.

    Each comes as its (child, parent) edges for v = m−1..1: a preorder
    puts every descendant after its ancestors, so this is the leaf-first
    post-order that :func:`~proxrem.graphs._tree_sigmas` takes, rooted at 0.
    """
    level = list(range(m))  # depth of each vertex in preorder; the path comes first
    while True:
        last = [0] * m  # the latest vertex at each depth, the parent of the next one below
        edges = []
        for v in range(1, m):
            last[level[v]] = v
            edges.append((v, last[level[v] - 1]))
        yield edges[::-1]
        # successor: p is the last vertex deeper than 1 and q its parent;
        # from p on, the sequence repeats the segment q..p−1
        p = next((v for v in range(m - 1, 0, -1) if level[v] > 1), 0)
        if p == 0:
            return
        q = next(v for v in range(p - 1, -1, -1) if level[v] == level[p] - 1)
        for v in range(p, m):
            level[v] = level[v - p + q]


# ---------------------------------------------------------------------------
# Exhaustive sweep of the weighted-distance bounds


class SweepRecord(NamedTuple):
    """Observed maxima for one (total, heavy) pair across the whole sweep."""

    total: int
    heavy: int
    median_bound: Fraction
    median_observed: int
    any_bound: Fraction
    any_observed: int

    @property
    def median_slack(self) -> Fraction:
        return self.median_bound - self.median_observed

    @property
    def any_slack(self) -> Fraction:
        return self.any_bound - self.any_observed


class SweepViolation(NamedTuple):
    kind: str  # "median" | "any"
    order: int
    prufer: tuple[int, ...]
    weights: tuple[int, ...]
    heavy: int
    observed: int
    bound: Fraction


class LemmaSweepReport(NamedTuple):
    max_total: int
    max_order: int
    trees: int
    weightings: int  # tree x weight-vector combinations
    instances: int   # tree x vector x (designated vertex, heavy threshold)
    records: list[SweepRecord]
    violations: list[SweepViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sweep_instance_count(max_total: int, max_order: int) -> tuple[int, int, int]:
    """Closed-form (trees, weightings, instances) for the sweep ranges."""
    trees = weightings = instances = 0
    for m in range(1, max_order + 1):
        t = tree_count(m)
        trees += t
        for total in range(m, max_total + 1):
            vectors = comb(total - 1, m - 1)
            weightings += t * vectors
            instances += t * vectors * (total - m)
    return trees, weightings, instances


def _first_attaining(
    m: int, vectors: list[tuple[int, ...]], pick: Callable[[list[int]], int], value: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first labelled tree of order ``m`` (Prufer product order), and
    then the first of ``vectors``, under which ``pick`` of σ_w is ``value``."""
    for seq in itertools.product(range(m), repeat=max(0, m - 2)):
        edges = _decode_edges(seq, m)
        for w in vectors:
            if pick(_tree_sigmas(edges, m, w)) == value:
                return seq, w
    raise AssertionError(f"no labelled tree of order {m} attains {value}")


def _sweep_order(args: tuple[int, int]) -> tuple[dict, list[SweepViolation]]:
    """One shard: all trees of a fixed order against all weight vectors.

    Returns per-(total, heavy) observed maxima of the median and the
    overall weighted distance, plus any bound violations, each with its
    :func:`_first_attaining` instance for counterexample dumps.

    The maxima come from one labelling per rooted tree shape,
    :func:`_tree_shapes`.  Every labelled tree is one of them relabelled,
    and the vectors of a (total, heavy) pair are closed under permutation,
    so the maxima equal those over every labelled tree.
    """
    m, max_total = args
    vectors = [w for total in range(m, max_total + 1) for w in _compositions(total, m)]
    shapes = list(_tree_shapes(m))
    observed: dict[tuple[int, int], tuple[int, int]] = {}
    for w in vectors:
        sigmas = [_tree_sigmas(edges, m, w) for edges in shapes]
        med_obs, any_obs = max(map(min, sigmas)), max(map(max, sigmas))
        for heavy in range(2, max(w) + 1):
            old = observed.get((sum(w), heavy), (0, 0))
            observed[(sum(w), heavy)] = (max(old[0], med_obs), max(old[1], any_obs))

    violations: list[SweepViolation] = []
    for (total, heavy), (med_obs, any_obs) in sorted(observed.items()):
        for kind, obs, bound, pick in (
            ("median", med_obs, median_bound(total, heavy, 1), min),
            ("any", any_obs, any_vertex_bound(total, heavy, 1), max),
        ):
            if obs > bound:
                cell = [w for w in vectors if sum(w) == total and max(w) >= heavy]
                seq, w = _first_attaining(m, cell, pick, obs)
                violations.append(
                    SweepViolation(
                        kind=kind,
                        order=m,
                        prufer=seq,
                        weights=w,
                        heavy=heavy,
                        observed=obs,
                        bound=bound,
                    )
                )
    return observed, violations


def instance_csv_rows(max_total: int, max_order: int) -> Iterator[str]:
    """The per-instance CSV: one row per (tree, weight vector), in sweep
    order (order, Prufer sequence, total, composition), whose maximum
    weight is at least 2.

    Each median is the least :func:`_tree_sigmas` on a Prufer decode.  The
    bound is :func:`~proxrem.weighted.median_bound` at the binding heavy
    threshold, the maximum weight.  It is fixed per vector, ``P/Q`` in
    lowest terms, so each row's slack ``P/Q - med`` is ``(P - med·Q)/Q``,
    again in lowest terms, and is formatted from integers.
    """
    yield "tree_id,weights,median_sigma,bound,slack"
    for m in range(1, min(max_order, max_total) + 1):
        cols = []
        for total in range(m, max_total + 1):
            for w in _compositions(total, m):
                if max(w) >= 2:
                    bound = median_bound(total, max(w), 1)
                    den = "" if bound.denominator == 1 else f"/{bound.denominator}"
                    wcell = ",{},".format("|".join(map(str, w)))
                    cols.append((w, wcell, f",{bound},", bound.numerator, bound.denominator, den))
        for ti, seq in enumerate(itertools.product(range(m), repeat=max(0, m - 2))):
            edges = _decode_edges(seq, m)
            tree_id = f"m{m}-{ti}"
            for w, wcell, bcell, p, q, den in cols:
                x = min(_tree_sigmas(edges, m, w))
                yield f"{tree_id}{wcell}{x}{bcell}{p - x * q}{den}"


def lemma_sweep(max_total: int = 9, max_order: int = 7, jobs: int = 1) -> LemmaSweepReport:
    """Exhaustively check both weighted-distance bounds, unit floor.

    Every labeled tree of order up to ``max_order`` is combined with every
    integer weight vector (entries >= 1) of total up to ``max_total``; for
    every admissible heavy threshold the minimum and maximum weighted
    distances are compared against the closed-form bounds.  Enumerating
    the designated heavy vertex collapses to the threshold test
    ``max(weights) >= heavy``, which covers every designation choice.
    :func:`_sweep_order` reads the maxima off one labelling per rooted
    tree shape.  Ranges above the budget, or holding no instance, raise
    ``ValueError``.
    """
    # The shapes make lemma_sweep(9, 7) 11 ms in process and 0.11 s as a
    # process (70 ms and 0.17 s over parent arrays; 2-core Xeon, Python
    # 3.11.7).  The budget stays for what still walks labelled trees:
    # _first_attaining on a violated bound, and --instances, whose 713,730
    # rows at the defaults take 1.5 s; order 8 has 8^6 = 262,144 of them.
    if max_total > 9 or max_order > 7:
        raise ValueError(
            f"sweep budget exceeded: max_total <= 9 and max_order <= 7 required "
            f"(got {max_total} and {max_order})"
        )
    # a total of 1 admits no heavy threshold, so no instance
    if max_total < 2:
        raise ValueError(f"empty sweep: --max-n must be at least 2, got {max_total}")
    if max_order < 1:
        raise ValueError(f"empty sweep: --max-order must be at least 1, got {max_order}")
    trees, weightings, instances = sweep_instance_count(max_total, max_order)
    shards = [(m, max_total) for m in range(1, min(max_order, max_total) + 1)]
    results = parallel_map(_sweep_order, shards, jobs)

    merged: dict[tuple[int, int], tuple[int, int]] = {}
    violations: list[SweepViolation] = []
    for observed, viols in results:
        violations.extend(viols)
        for key, (med_obs, any_obs) in observed.items():
            old = merged.get(key, (0, 0))
            merged[key] = (max(old[0], med_obs), max(old[1], any_obs))

    records = [
        SweepRecord(
            total=total,
            heavy=heavy,
            median_bound=median_bound(total, heavy, 1),
            median_observed=obs[0],
            any_bound=any_vertex_bound(total, heavy, 1),
            any_observed=obs[1],
        )
        for (total, heavy), obs in sorted(merged.items())
    ]
    return LemmaSweepReport(
        max_total=max_total,
        max_order=max_order,
        trees=trees,
        weightings=weightings,
        instances=instances,
        records=records,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Seeded random connected graphs

#: Largest ``--max-n`` of random mode.  The sampler draws n(n−1)/2 numbers
#: per attempt: sampling plus checking one graph of order 1000
#: took 0.09–0.58 s and peaked at 3.4–79 MiB by ``tracemalloc`` over seeds
#: 1–6 (2 cores, Python 3.11.7), and 0.39 s and 84 MiB with every pair an
#: edge, so about 0.4·n² µs and 88·n² bytes per graph.
MAX_RANDOM_ORDER = 1000


def random_connected_graph(rng: random.Random, max_order: int) -> Graph:
    """Erdos-Renyi graph of order uniform in ``2..max_order``, conditioned
    on connectivity by rejection.

    The edge probability is redrawn per attempt from a sparse-biased
    range above the connectivity threshold, so the corpus spans sparse
    to dense graphs.  Fully deterministic given the Random instance: an
    attempt draws one number per pair i < j, in lexicographic order.  An
    edge (i, j) appends j to row i and i to row j, so every row comes out
    sorted and duplicate-free, the Graph's adjacency as it stands.
    """
    n = rng.randint(2, max_order)
    p_lo = min(1.0, 1.2 * log(n + 1) / n)
    for _ in range(1000):
        u = rng.random()
        p = p_lo + (1.0 - p_lo) * u * u
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, row in enumerate(adj):
            for j in range(i + 1, n):
                if rng.random() < p:
                    row.append(j)
                    adj[j].append(i)
        g = Graph(tuple([tuple(row) for row in adj]))
        if is_connected(g):
            return g
    raise RuntimeError(f"rejection sampling failed to connect a graph of order {n}")


def sample_corpus(seed: int, count: int, max_order: int) -> list[Graph]:
    """Deterministic corpus of random connected graphs."""
    rng = random.Random(seed)
    return [random_connected_graph(rng, max_order) for _ in range(count)]


# ---------------------------------------------------------------------------
# Exhaustive / randomized bound verification


class BoundWitness(NamedTuple):
    label: str
    slack: Fraction
    edge_list: str


class BoundCheckReport:
    """What one bound check found; the check fills it in as it goes."""

    def __init__(
        self,
        mode: str,
        params: dict,
        graphs: int,
        min_slack: dict[str, Fraction] | None = None,
        witness: dict[str, BoundWitness] | None = None,
        path_equality_ok: bool | None = None,
        violations: list[BoundWitness] | None = None,
    ) -> None:
        self.mode = mode
        self.params = params
        self.graphs = graphs
        self.min_slack = {} if min_slack is None else min_slack
        self.witness = {} if witness is None else witness
        self.path_equality_ok = path_equality_ok
        self.violations = [] if violations is None else violations

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None  # type: ignore[assignment]  # mutable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"BoundCheckReport({fields})"

    @property
    def ok(self) -> bool:
        return not self.violations and self.path_equality_ok is not False


def _worst(slack: dict[str, Fraction]) -> Fraction:
    return slack[min(slack, key=slack.__getitem__)]


def _tree_key(edges: Sequence[tuple[int, int]], m: int) -> tuple[int, int, int, int, int]:
    """The exact key (m, δ = 1, Δ, σmin, σmax) of a tree of order ``m`` >= 2,
    from its edges in leaf-first post-order.  Relabelling keeps it."""
    degree = [0] * m
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    sigma = _tree_sigmas(edges, m, [1] * m)
    return (m, 1, max(degree), min(sigma), max(sigma))


def _order_verdicts(m: int) -> dict[tuple[int, ...], BoundVerdicts]:
    """:func:`bound_verdicts` of every exact key of the trees of order ``m``.

    The keys are read off one labelling per rooted shape,
    :func:`_tree_shapes`: every labelled tree is one of them relabelled,
    so their keys are those of every labelled tree.
    """
    keys = sorted({_tree_key(edges, m) for edges in _tree_shapes(m)})
    return {key: bound_verdicts(*key) for key in keys}


def _labelled_trees(
    m: int, keys: Collection[tuple[int, ...]]
) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """The labelled trees of order ``m`` whose key is in ``keys``, in Prufer
    product order, each as its label, its key and its edge list.  A tree's
    index in the label is its position in :func:`enumerate_trees`."""
    for index, seq in enumerate(itertools.product(range(m), repeat=m - 2)):
        edges = _decode_edges(seq, m)
        key = _tree_key(edges, m)
        if key in keys:
            yield f"tree-m{m}-i{index}", key, render_graph(graph_from_edges(m, edges))


def _tree_check(max_n: int, jobs: int) -> BoundCheckReport:
    orders = range(2, max_n + 1)
    verdicts = dict(zip(orders, parallel_map(_order_verdicts, orders, jobs)))
    report = BoundCheckReport("exhaustive-trees", {"max_n": max_n}, sum(map(tree_count, orders)))
    for m, by_key in verdicts.items():
        failing = {key: _worst(v.slack) for key, v in by_key.items() if not all(v.holds.values())}
        if failing:
            report.violations += [
                BoundWitness(label, failing[key], edge_list)
                for label, key, edge_list in _labelled_trees(m, failing)
            ]
    every = [v for by_key in verdicts.values() for v in by_key.values()]
    for name in every[0].slack:
        value = min(v.slack[name] for v in every)
        # the first tree attaining it lies in the smallest order that does
        for m, by_key in verdicts.items():
            keys = {key for key, v in by_key.items() if v.slack[name] == value}
            if keys:
                break
        label, _, edge_list = next(_labelled_trees(m, keys))
        report.min_slack[name] = value
        report.witness[name] = BoundWitness(label, value, edge_list)
    # a tree is a path exactly when Δ <= 2
    report.path_equality_ok = all(
        (v.slack["remoteness_order"] == 0) == (key[2] <= 2)
        for by_key in verdicts.values()
        for key, v in by_key.items()
    )
    return report


def _graph_key(g: Graph) -> tuple[int, int, int, int, int]:
    """The exact key (n, δ, Δ, σmin, σmax) of a connected graph."""
    trans = all_pairs_distances(g).transmissions
    return (g.n, *degree_stats(g), min(trans), max(trans))


def _random_check(max_n: int, samples: int, seed: int, jobs: int) -> BoundCheckReport:
    graphs = sample_corpus(seed, samples, max_n)
    params = {"max_n": max_n, "samples": samples, "seed": seed}
    report = BoundCheckReport("random", params, samples)
    keys = parallel_map(_graph_key, graphs, jobs)
    verdicts = {key: bound_verdicts(*key) for key in dict.fromkeys(keys)}
    first: dict[str, int] = {}
    for i, key in enumerate(keys):
        slack, holds = verdicts[key].slack, verdicts[key].holds
        if not all(holds.values()):
            report.violations.append(
                BoundWitness(f"random-seed{seed}-i{i}", _worst(slack), render_graph(graphs[i]))
            )
        for name, value in slack.items():
            if name not in report.min_slack or value < report.min_slack[name]:
                report.min_slack[name] = value
                first[name] = i
    for name, i in first.items():
        report.witness[name] = BoundWitness(
            f"random-seed{seed}-i{i}", report.min_slack[name], render_graph(graphs[i])
        )
    return report


def exhaustive_bound_check(
    max_n: int,
    sampler: str = "exhaustive-trees",
    samples: int = 0,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
) -> BoundCheckReport:
    """Verify all six bounds over trees (exhaustive) or random graphs.

    Trees mode checks every labelled tree on 2..max_n vertices, and that
    the order-only remoteness bound is tight exactly on paths.  The six
    bounds are a pure function of a tree's exact key, which relabelling
    keeps, so each order (one :func:`parallel_map` item) evaluates
    :func:`bound_verdicts` once per key of its rooted shapes.  Labelled
    trees are walked, in Prufer product order, only to name each tree of
    a failing key and, after the merge, each bound's witness: the first
    tree of the smallest order attaining the bound's minimum.  Random mode
    checks ``samples`` seeded connected graphs of order up to ``max_n``:
    each graph's exact key (n, δ, Δ, σmin, σmax) is one item, and
    :func:`bound_verdicts` runs once per distinct key; the first graph
    attaining each minimum is its witness.

    So each witness is the first graph attaining its bound's minimum and
    the report is the same for any ``jobs``.  An edge list is rendered
    only for a violation or a final witness.
    """
    if sampler == "exhaustive-trees":
        # The shapes make --trees 8 a 0.1 s process, 2.5 ms of it the check
        # (1.8 s over every labelled tree; 2-core Xeon, Python 3.11.7).  The
        # cap stays for what still walks labelled trees: a failing bound
        # lists every tree of its key, and the walk over the 8^6 = 262,144
        # trees of order 8 alone takes 1.5 s in process.
        if not 2 <= max_n <= 8:
            raise ValueError(f"exhaustive tree mode needs 2 <= max_n <= 8, got {max_n}")
        return _tree_check(max_n, jobs)
    if sampler == "random":
        if samples < 1:
            raise ValueError("random mode needs samples >= 1")
        if not 2 <= max_n <= MAX_RANDOM_ORDER:
            raise ValueError(f"random mode needs 2 <= --max-n <= {MAX_RANDOM_ORDER}, got {max_n}")
        return _random_check(max_n, samples, seed, jobs)
    raise ValueError(f"unknown sampler {sampler!r}")
