"""Simple undirected graphs: parsing, BFS distances, degree statistics.

Vertices are dense integers ``0..n-1``.  Adjacency lists are kept sorted so
every iteration over a graph is deterministic; all downstream constructions
rely on that for reproducible tie-breaking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

#: Sentinel distance for unreachable vertex pairs.  Large enough that a
#: single addition cannot collide with a real hop count, small enough to
#: stay exact in int64 arithmetic.
INF: int = 2**31 - 1

#: Below this order, pure-Python BFS beats the scipy round-trip.
_SCIPY_MIN_ORDER = 40


class ParseError(ValueError):
    """An edge-list document could not be parsed or validated."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph given by sorted adjacency tuples.

    Invariants (enforced by :func:`graph_from_edges`): adjacency is
    symmetric, loop-free, duplicate-free, and each neighbor tuple is
    sorted ascending.
    """

    adj: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as pairs ``(u, v)`` with ``u < v``, lexicographic order."""
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


@dataclass(frozen=True, eq=False)
class DistanceOracle:
    """All-pairs hop distances; ``INF`` marks unreachable pairs."""

    matrix: np.ndarray  # (n, n) int64

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def d(self, u: int, v: int) -> int:
        return int(self.matrix[u, v])

    def row(self, v: int) -> np.ndarray:
        return self.matrix[v]

    def all_finite(self) -> bool:
        return bool((self.matrix < INF).all())


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph of order ``n`` from an edge iterable.

    Duplicate edges (in either orientation) collapse; self-loops and
    out-of-range endpoints raise ``ValueError``.
    """
    if n < 1:
        raise ValueError(f"graph order must be positive, got {n}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for order {n}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(tuple(tuple(sorted(s)) for s in nbrs))


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: one ``u v`` integer pair per line; blank lines and ``#``
    comments (full-line or trailing) are ignored.  The first data line is
    taken as an ``n m`` header when ``n >= 1`` and ``m`` equals the number
    of remaining data lines; otherwise every line is an edge and the order
    is ``1 + max vertex id``.  With a header, any endpoint ``>= n`` is an
    error.
    """
    entries: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if a < 0 or b < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {raw!r}")
        entries.append((lineno, a, b))
    if not entries:
        raise ParseError("empty edge-list document")

    head_n, head_m = entries[0][1], entries[0][2]
    has_header = head_n >= 1 and head_m == len(entries) - 1
    edge_entries = entries[1:] if has_header else entries
    if has_header:
        n = head_n
    else:
        n = 1 + max(max(a, b) for _, a, b in edge_entries)

    edges: list[tuple[int, int]] = []
    for lineno, a, b in edge_entries:
        if a == b:
            raise ParseError(f"line {lineno}: self-loop at vertex {a}")
        if has_header and (a >= n or b >= n):
            raise ParseError(f"line {lineno}: vertex id exceeds declared order {n}")
        edges.append((a, b))
    return graph_from_edges(n, edges)


def render_graph(g: Graph) -> str:
    """Emit the edge-list format with a header line, edges sorted."""
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def degree_stats(g: Graph) -> tuple[int, int]:
    """Minimum and maximum vertex degree of a nonempty graph."""
    if g.n == 0:
        raise ValueError("degree statistics of an empty graph")
    degs = [len(a) for a in g.adj]
    return min(degs), max(degs)


def is_connected(g: Graph) -> bool:
    """True iff BFS from vertex 0 reaches all vertices."""
    seen = bytearray(g.n)
    seen[0] = 1
    dq = deque([0])
    count = 1
    while dq:
        u = dq.popleft()
        for w in g.adj[u]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                dq.append(w)
    return count == g.n


def _distances_python(adj: tuple[tuple[int, ...], ...]) -> np.ndarray:
    n = len(adj)
    rows = []
    for s in range(n):
        dist = [INF] * n
        dist[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            du = dist[u] + 1
            for w in adj[u]:
                if dist[w] == INF:
                    dist[w] = du
                    dq.append(w)
        rows.append(dist)
    return np.array(rows, dtype=np.int64)


def _distances_scipy(adj: tuple[tuple[int, ...], ...]) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = len(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, a in enumerate(adj):
        indptr[i + 1] = indptr[i] + len(a)
    total = int(indptr[-1])
    indices = np.fromiter((w for a in adj for w in a), dtype=np.int64, count=total)
    data = np.ones(total, dtype=np.int8)
    csr = csr_matrix((data, indices, indptr), shape=(n, n))
    # adjacency is symmetric, so directed traversal is equivalent and cheaper
    dist = dijkstra(csr, directed=True, unweighted=True)
    dist[np.isinf(dist)] = INF
    return dist.astype(np.int64)


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """BFS hop distances from every source.

    Dispatches to a scipy backend for larger graphs; both backends produce
    the identical integer matrix (unit tests cross-check them).
    """
    if g.n >= _SCIPY_MIN_ORDER:
        mat = _distances_scipy(g.adj)
    else:
        mat = _distances_python(g.adj)
    mat.setflags(write=False)
    return DistanceOracle(mat)


# Small factories used throughout the tests and the CLI examples.

def path_graph(n: int) -> Graph:
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def star_graph(leaves: int) -> Graph:
    """Star with one center (vertex 0) and ``leaves`` leaves."""
    return graph_from_edges(leaves + 1, ((0, i) for i in range(1, leaves + 1)))
