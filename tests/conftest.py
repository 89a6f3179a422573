"""Shared strategies and independent reference oracles."""

from __future__ import annotations

from collections import deque

from hypothesis import strategies as st

import proxrem as px
from proxrem.graphs import INF


@st.composite
def labeled_trees(draw, min_order: int = 2, max_order: int = 9):
    """Random labeled tree via a random Prufer sequence."""
    m = draw(st.integers(min_order, max_order))
    if m <= 2:
        seq: list[int] = []
    else:
        seq = draw(st.lists(st.integers(0, m - 1), min_size=m - 2, max_size=m - 2))
    return px.prufer_decode(tuple(seq), m)


@st.composite
def connected_graphs(draw, min_order: int = 2, max_order: int = 10):
    """Random connected graph: a random tree plus extra edges."""
    t = draw(labeled_trees(min_order, max_order))
    n = t.n
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=12,
        )
    )
    edges = list(t.edges()) + [(u, v) for u, v in extra if u != v]
    return px.graph_from_edges(n, edges)


@st.composite
def arbitrary_graphs(draw, max_order: int = 9):
    """Random graph, possibly disconnected."""
    n = draw(st.integers(1, max_order))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    return px.graph_from_edges(n, chosen)


rational_weights = st.fractions(min_value=0, max_value=8, max_denominator=6)


def floyd_warshall(g: px.Graph) -> list[list[int]]:
    """Independent all-pairs oracle, no BFS anywhere."""
    n = g.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                if dk[j] != INF and dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return dist


def set_distance(g: px.Graph, v: int, targets) -> int:
    """Distance from ``v`` to the nearest vertex of a nonempty set."""
    tset = set(targets)
    if not tset:
        raise ValueError("set distance to an empty vertex set")
    if v in tset:
        return 0
    dist = [INF] * g.n
    dist[v] = 0
    dq = deque([v])
    while dq:
        u = dq.popleft()
        du = dist[u] + 1
        for w in g.adj[u]:
            if dist[w] == INF:
                if w in tset:
                    return du
                dist[w] = du
                dq.append(w)
    return INF


def bfs_spanning_tree(g: px.Graph) -> px.Graph:
    """Deterministic spanning tree of a connected graph (BFS from 0)."""
    seen = bytearray(g.n)
    seen[0] = 1
    edges = []
    dq = deque([0])
    while dq:
        u = dq.popleft()
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = 1
                edges.append((u, w))
                dq.append(w)
    return px.graph_from_edges(g.n, edges)
