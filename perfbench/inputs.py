"""Seeded benchmark inputs, built with the standard library only.

Nothing here imports ``proxrem``: a change to the program cannot change
what the benchmark feeds it.  Graphs are returned as ``(n, edges)`` with
``edges`` a sorted list of ``(u, v)`` pairs, ``u < v``, and are written in
the program's edge-list format with an ``n m`` header.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from math import comb, log
from pathlib import Path

#: certify-corpus, a seeded part of the criterion-4 corpus: random connected
#: graphs of order 2..60, every labelled tree of order 2..6, and a sample of
#: the 16,807 labelled trees of order 7 (all of them would take about 45 s).
CORPUS_SAMPLES = 500
CORPUS_MAX_ORDER = 60
TREE_ORDERS = range(2, 7)
SAMPLED_TREE_ORDER = 7
SAMPLED_TREES = 2500

#: verify-large: (name, mean degree, hub degree) at order LARGE_ORDER.  The
#: hub graph has maximum degree above n/2 - 1, so the large-Delta branch runs.
LARGE_ORDER = 2000
LARGE_SHAPES = (("deg3", 3, 0), ("deg6", 6, 0), ("deg16", 16, 0), ("hub", 4, 1100))

Edges = list[tuple[int, int]]


def render(n: int, edges: Edges) -> str:
    """Edge-list document with an ``n m`` header line."""
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def connected(n: int, edges: Edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    queue = deque([0])
    while queue:
        for w in adj[queue.popleft()]:
            if not seen[w]:
                seen[w] = 1
                queue.append(w)
    return all(seen)


def prufer_tree(seq: tuple[int, ...], m: int) -> Edges:
    """Labelled tree on ``m >= 2`` vertices from a Prufer sequence."""
    degree = [1] * m
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def all_trees(m: int):
    """Every labelled tree of order ``m``, in Prufer-sequence order."""
    for seq in itertools.product(range(m), repeat=m - 2):
        yield prufer_tree(seq, m)


def tree_count(m: int) -> int:
    return 1 if m <= 2 else m ** (m - 2)


def random_connected(rng: random.Random, max_order: int) -> tuple[int, Edges]:
    """Erdos-Renyi graph on the criterion-4 parameters, rejected until connected.

    The order is uniform in ``2..max_order``; each attempt draws its edge
    probability from a sparse-biased range above the connectivity threshold.
    """
    n = rng.randint(2, max_order)
    p_lo = min(1.0, 1.2 * log(n + 1) / n)
    for _ in range(1000):
        u = rng.random()
        p = p_lo + (1.0 - p_lo) * u * u
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if connected(n, edges):
            return n, edges
    raise RuntimeError(f"rejection sampling failed to connect a graph of order {n}")


def sparse_connected(rng: random.Random, n: int, mean_degree: int, hub: int) -> Edges:
    """Random recursive tree on shuffled labels, a hub joined to ``hub``
    random vertices, then uniform extra edges up to ``mean_degree``."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[i], perm[rng.randrange(i)]))) for i in range(1, n)}
    centre = perm[0]
    for v in rng.sample([x for x in range(n) if x != centre], hub):
        edges.add((min(centre, v), max(centre, v)))
    target = mean_degree * n // 2
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def corpus_graphs(seed: int):
    """``(name, n, edges)`` for certify-corpus: seeded random graphs, every
    labelled tree of the small orders, then the seeded order-7 sample, each
    tree in Prufer-sequence order."""
    rng = random.Random(seed)
    for i in range(CORPUS_SAMPLES):
        n, edges = random_connected(rng, CORPUS_MAX_ORDER)
        yield f"r{i:03d}", n, edges
    for m in TREE_ORDERS:
        for i, edges in enumerate(all_trees(m)):
            yield f"t{m}-{i:05d}", m, edges
    m = SAMPLED_TREE_ORDER
    for i in sorted(rng.sample(range(tree_count(m)), SAMPLED_TREES)):
        seq = tuple((i // m**k) % m for k in reversed(range(m - 2)))
        yield f"t{m}-{i:05d}", m, prufer_tree(seq, m)


def large_graphs(seed: int):
    """``(name, n, edges)`` for the four verify-large graphs."""
    rng = random.Random(seed)
    for name, mean_degree, hub in LARGE_SHAPES:
        yield name, LARGE_ORDER, sparse_connected(rng, LARGE_ORDER, mean_degree, hub)


def warmup_graph(seed: int) -> tuple[int, Edges]:
    """A connected graph of order 60: large enough for the scipy backend."""
    rng = random.Random(seed ^ 0x5EED)
    return 60, sparse_connected(rng, 60, 4, 0)


def write_graphs(graphs, directory: Path, digest) -> list[tuple[str, int, int]]:
    """Write each graph as ``<name>.edges``; feed name and bytes to ``digest``.

    Returns ``(relative path, order, edge count)`` per graph, in order.
    """
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, n, edges in graphs:
        text = render(n, edges).encode()
        (directory / f"{name}.edges").write_bytes(text)
        rel = f"{directory.name}/{name}.edges"
        digest.update(rel.encode() + b"\0" + text)
        written.append((rel, n, len(edges)))
    return written


def sweep_instance_count(max_total: int, max_order: int) -> int:
    """Closed-form count of (tree, weight vector, heavy threshold) instances."""
    return sum(
        tree_count(m) * comb(total - 1, m - 1) * (total - m)
        for m in range(1, max_order + 1)
        for total in range(m, max_total + 1)
    )


def extremal_params(delta: int, n_lo: int, n_hi: int) -> list[tuple[int, int]]:
    """Every ``(n, Delta)`` of the family in the order range, sweep order."""
    return [
        (n, D)
        for n in range(n_lo, n_hi + 1)
        for D in range(delta + 1, n)
        if (n - D) % (delta + 1) == 0
    ]
