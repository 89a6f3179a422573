"""Simple undirected graphs: parsing, BFS distances, degree statistics.

Vertices are dense integers ``0..n-1``.  Adjacency lists are kept sorted so
every iteration over a graph is deterministic; all downstream constructions
rely on that for reproducible tie-breaking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Sentinel distance for unreachable vertex pairs.  Large enough that a
#: single addition cannot collide with a real hop count, small enough to
#: stay exact in int64 arithmetic.
INF: int = 2**31 - 1

#: Below this order, Python BFS rows beat both numpy backends.  Mean µs of
#: ``all_pairs_distances`` over 8 random graphs, 2-core Xeon, Python 3.11,
#: numpy 2.4 (Python rows vs numpy backend): n=20 tree 90 vs 107, sparse
#: 118 vs 80, G(n, 0.3) 161 vs 70; n=24 tree 189 vs 187, sparse 195 vs 110,
#: G(n, 0.3) 251 vs 78.  Trees cross near 25, denser graphs near 15.
_NUMPY_MIN_ORDER = 25

#: The bit-parallel kernel runs when ``2·ecc(0)``, which bounds both the
#: diameter and its level count, is at most this; the bound also keeps its
#: uint8 counters exact.  A level costs O((2m + 8n)·⌈n/64⌉) word operations
#: (about 5 ms at n = 2000), while scipy's cost depends on the graph's
#: shape more than on its diameter (160–1060 ms at n = 2000).  Measured
#: crossover diameters, same machine: about 15 on the dense extremal
#: family at n ≤ 120, 27 on a 4×25 grid, 80–130 on grids of order
#: 1000–2000.  With the cap at 32: the eight ``verify-large`` graphs (seeds
#: 1729 and 7) take 39–101 ms against 731–1059 ms; 320 random graphs of
#: order 25–60 take 54 ms against 233 ms; of the 1,641 ``extremal --sweep
#: 16 120`` graphs, the 513 sent to the kernel take 0.69 s against 1.07 s,
#: and the 1,128 left on scipy would take 2.80 s against 1.63 s.  Paths,
#: cycles and ladders of order 2000 stay on scipy, which is 19–36× faster
#: there, 48× on the extremal graph (2000, 3, 120).
_BITSET_MAX_LEVELS = 32

#: Largest order :func:`parse_graph` accepts.  ``verify --chain`` peaks
#: while G's distances are computed, by ``tracemalloc`` at n = 1000 and
#: 2000: 9.4·n² bytes on the bitset path (mean degree 3), 16·n² on the
#: scipy path (a 10-wide grid; its float64 result plus the int64 copy).
#: T adds no n×n array and F's matrix is O(anchors²), so the rest of the
#: run stays under G's int64 matrix, 8·n².  That is about 1.6 GB at
#: n = 10⁴.  A larger document is refused before :func:`graph_from_edges`
#: allocates its n adjacency sets.
MAX_ORDER = 10_000


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

    def d(self, u: int, v: int) -> int:
        return int(self.matrix[u, v])

    def row(self, v: int) -> np.ndarray:
        return self.matrix[v]


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
    if n > MAX_ORDER:
        raise ParseError(f"graph order {n} exceeds the limit of {MAX_ORDER}")

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
    return INF not in _bfs(g.adj, 0)


def _ball(adj: Sequence[Sequence[int]], s: int, radius: int) -> tuple[list[int], list[int]]:
    """Hop distances from ``s`` up to ``radius``, ``INF`` beyond it or where
    unreachable, and the vertices reached, in visit order (nondecreasing
    distance).

    The one hand-rolled BFS in the package; every other distance comes
    from here, from the bit-parallel kernel or from the scipy backend.
    """
    dist = [INF] * len(adj)
    dist[s] = 0
    reached = [s]
    dq = deque(reached)
    while dq:
        u = dq.popleft()
        du = dist[u] + 1
        if du > radius:
            break  # every vertex still queued is as far as u
        for w in adj[u]:
            if dist[w] == INF:
                dist[w] = du
                reached.append(w)
                dq.append(w)
    return dist, reached


def _bfs(adj: Sequence[Sequence[int]], s: int) -> list[int]:
    """Hop distances from ``s``, ``INF`` where unreachable."""
    return _ball(adj, s, INF)[0]


def _distances_python(adj: Sequence[Sequence[int]]) -> np.ndarray:
    # the kernel itself, not _bfs: a wrapper call per row is a tenth of a
    # row's cost on the order-7 trees of the oracle sweeps
    return np.array([_ball(adj, s, INF)[0] for s in range(len(adj))], dtype=np.int64)


def _csr(adj: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the adjacency lists, int64."""
    indptr = np.zeros(len(adj) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adj], out=indptr[1:])
    indices = np.fromiter((w for a in adj for w in a), dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _distances_bitset(adj: Sequence[Sequence[int]]) -> np.ndarray:
    """Multi-source BFS from every vertex at once, 64 sources per word.

    Bit s of ``unseen[v]`` is set while source s has not reached v; each
    level ORs the frontier rows of v's neighbours, and every level at
    which a bit is still unseen adds 1 to that cell, so the cell ends as
    the hop distance.  ``reduceat`` misreads empty segments, so every
    vertex needs a neighbour: the caller passes connected graphs of order
    at least 2 only.  The uint8 counter holds any diameter up to 255; the
    dispatcher sends only diameters up to ``_BITSET_MAX_LEVELS`` here.
    """
    n = len(adj)
    indptr, indices = _csr(adj)
    starts = indptr[:-1]
    words = -(-n // 64)
    src = np.arange(n)
    # little-endian words, so that unpackbits(bitorder="little") of a row
    # lists the sources in order on any host
    frontier = np.zeros((n, words), dtype="<u8")
    frontier[src, src >> 6] = np.left_shift(np.uint64(1), (src & 63).astype(np.uint64))
    unseen = ~frontier
    acc = np.zeros((n, 64 * words), dtype=np.uint8)
    while True:
        nxt = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
        nxt &= unseen
        if not nxt.any():
            break
        acc += np.unpackbits(unseen.view(np.uint8), axis=1, bitorder="little")
        unseen ^= nxt
        frontier = nxt
    return acc[:, :n].astype(np.int64)


def _distances_scipy(adj: tuple[tuple[int, ...], ...]) -> np.ndarray:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = len(adj)
    indptr, indices = _csr(adj)
    data = np.ones(len(indices), dtype=np.int8)
    csr = csr_matrix((data, indices, indptr), shape=(n, n))
    # adjacency is symmetric, so directed traversal is equivalent and cheaper
    dist = dijkstra(csr, directed=True, unweighted=True)
    dist[np.isinf(dist)] = INF
    return dist.astype(np.int64)


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """BFS hop distances from every source.

    Picks one of three backends, which produce the identical integer
    matrix (unit tests cross-check them): Python BFS rows below order
    ``_NUMPY_MIN_ORDER``; the bit-parallel kernel when twice the
    eccentricity of vertex 0, which bounds the diameter, is at most
    ``_BITSET_MAX_LEVELS``; scipy otherwise, disconnected graphs included.
    """
    if g.n < _NUMPY_MIN_ORDER:
        mat = _distances_python(g.adj)
    elif 2 * max(_bfs(g.adj, 0)) <= _BITSET_MAX_LEVELS:
        mat = _distances_bitset(g.adj)
    else:
        mat = _distances_scipy(g.adj)
    mat.setflags(write=False)
    return DistanceOracle(mat)


def tree_transmissions(t: Graph, root: int) -> tuple[list[int], list[int]]:
    """Parents and transmissions of a tree rooted at ``root``, from one BFS
    and no distance matrix.

    v's parent is its one neighbour a step closer to the root (-1 at the
    root).  Subtree sizes are summed deepest first; then σ(root) is the
    sum of the depths and each child c, parents first, has
    σ(c) = σ(parent) + n − 2·|subtree(c)|, since moving the centre across
    one edge brings c's subtree a step closer and the rest a step farther.
    Raises ``ValueError`` unless ``t`` is a tree.
    """
    n = t.n
    depth, order = _ball(t.adj, root, INF)
    if t.edge_count() != n - 1 or len(order) != n:
        raise ValueError("tree transmissions need a tree")
    below_root = order[1:]
    parent = [-1] * n
    for v in below_root:
        up = depth[v] - 1
        parent[v] = next(u for u in t.adj[v] if depth[u] == up)
    size = [1] * n
    for v in reversed(below_root):
        size[parent[v]] += size[v]
    trans = [0] * n
    trans[root] = sum(depth)
    for v in below_root:
        trans[v] = trans[parent[v]] + n - 2 * size[v]
    return parent, trans


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
