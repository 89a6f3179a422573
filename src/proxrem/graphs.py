"""Simple undirected graphs: parsing, BFS distances, degree statistics.

Vertices are dense integers ``0..n-1``.  Adjacency lists are kept sorted so
every iteration over a graph is deterministic; all downstream constructions
rely on that for reproducible tie-breaking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Sequence

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
#: diameter and its level count, is at most this; the bound also keeps the
#: uint8 counters of its ``.matrix`` exact (the transmissions count in
#: int64).  A level of the matrix costs O((2m + 8n)·⌈n/64⌉) word operations
#: (about 5 ms at n = 2000), while scipy's cost depends on the graph's
#: shape more than on its diameter (160–1060 ms at n = 2000).  Measured on
#: the matrix, same machine: crossover diameters about 15 on the dense
#: extremal family at n ≤ 120, 27 on a 4×25 grid, 80–130 on grids of order
#: 1000–2000.  With the cap at 32: the eight ``verify-large`` graphs (seeds
#: 1729 and 7) take 39–101 ms against 731–1059 ms; 320 random graphs of
#: order 25–60 take 54 ms against 233 ms; of the 1,641 ``extremal --sweep
#: 16 120`` graphs, the 513 sent to the kernel take 0.69 s against 1.07 s,
#: and the 1,128 left on scipy would take 2.80 s against 1.63 s.  Paths,
#: cycles and ladders of order 2000 stay on scipy, which is 19–36× faster
#: there, 48× on the extremal graph (2000, 3, 120).
_BITSET_MAX_LEVELS = 32

#: Sources per batch of the matrix-free transmissions, 64·k with k = 1, on
#: both numpy backends: a batch holds O((n + m)·k) words, or 64 scipy rows.
#: Best of 3 on the seed-1729 ``verify-large`` graphs (deg16/deg3/deg6/hub,
#: same machine), bit-parallel ms and ``tracemalloc`` peak: k = 1
#: 21/21/17/16 ms, 0.2–0.6 MB; k = 2 44/35/32/27 ms; k = 8 21/18/15/13 ms,
#: 1.1–3.0 MB; k = 16 36/16/14/11 ms, 2.2–5.7 MB.  scipy rows at n = 2000
#: (10-wide grid / path): 190/86 ms in batches of 64, 170/75 ms of 256;
#: at n = 1000 (grid) the batch peaks at 0.63·n² bytes, 2.2·n² at 256.  On
#: the ``extremal --sweep 16 120`` graphs of order ≥ 25, interleaved: the
#: 480 on the kernel take 0.33 s (k = 1) against 0.51 s as a summed matrix,
#: the 1,128 on scipy 1.34 s in batches of 64 against 1.25 s.
_BATCH_SOURCES = 64 * 1

#: Largest order :func:`parse_graph` accepts.  ``verify --chain`` builds no
#: n×n array of G or T; by ``tracemalloc`` at n = 1000 and 2000 it peaks at
#: 0.53·n² and 0.47·n² bytes on the bitset path (mean degree 3), 0.72·n²
#: and 0.66·n² on the scipy path (a 10-wide grid).  What is left is F's
#: matrix, O(anchors²): on a path, with an anchor every third vertex, it
#: reaches 1.9·n² (n = 2000 and 4000), about 190 MB at n = 10⁴.  The cap
#: stays because ``auxiliary_graph`` still takes O(anchors·n) time.  A
#: larger document is refused before :func:`graph_from_edges` allocates
#: its n adjacency sets.
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
    """Hop distances of one graph; each view is computed on first read and
    cached, so a caller pays only for what it reads.

    ``transmissions`` are every vertex's distance sum, exact and computed
    with no n×n array, or ``None`` when the graph is disconnected.
    ``matrix`` holds all pairs, int64, with ``INF`` marking unreachable
    pairs.
    """

    connected: bool
    _sum_rows: Callable[[], tuple[int, ...]] = field(repr=False)
    _build_matrix: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def transmissions(self) -> tuple[int, ...] | None:
        return self._sum_rows() if self.connected else None

    @cached_property
    def matrix(self) -> np.ndarray:
        mat = self._build_matrix()
        mat.setflags(write=False)
        return mat

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


def _ball(
    adj: Sequence[Sequence[int]], s: int, radius: int, dist: list[int] | None = None
) -> tuple[list[int], list[int]]:
    """Relax hop distances from ``s``, up to ``radius``, into ``dist``;
    return ``dist`` and the vertices whose distance dropped, in visit order
    (nondecreasing new distance).

    Without ``dist`` this is a fresh ball: hop distances up to ``radius``,
    ``INF`` beyond it or where unreachable.  A caller growing a source set
    passes f, each vertex's distance to the earlier sources, or any value
    above ``radius`` where that distance is above ``radius``; ``s`` joins
    the set, and a vertex is visited only when its distance strictly drops.
    That is exact: if ``s`` does not bring a vertex w closer, then neither
    any vertex x that a shortest path from ``s`` reaches through w, since
    d(s, x) = d(s, w) + d(w, x) ≥ f(w) + d(w, x) ≥ f(x).

    The one hand-rolled BFS in the package; every other distance comes
    from here, from the bit-parallel kernel or from the scipy backend.
    """
    if dist is None:
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
            if du < dist[w]:
                dist[w] = du
                reached.append(w)
                dq.append(w)
    return dist, reached


def _bfs(adj: Sequence[Sequence[int]], s: int) -> list[int]:
    """Hop distances from ``s``, ``INF`` where unreachable."""
    return _ball(adj, s, INF)[0]


def _bfs_rows(adj: Sequence[Sequence[int]]) -> list[list[int]]:
    # the kernel itself, not _bfs: a wrapper call per row is a tenth of a
    # row's cost on the order-7 trees of the oracle sweeps
    return [_ball(adj, s, INF)[0] for s in range(len(adj))]


def _distances_python(adj: Sequence[Sequence[int]]) -> np.ndarray:
    return np.array(_bfs_rows(adj), dtype=np.int64)


def _csr(adj: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the adjacency lists, int64."""
    indptr = np.zeros(len(adj) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adj], out=indptr[1:])
    indices = np.fromiter((w for a in adj for w in a), dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _msbfs_levels(
    indptr: np.ndarray, indices: np.ndarray, lo: int, hi: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Multi-source BFS from the sources ``lo..hi-1`` at once, 64 per word.

    Bit s − lo of ``unseen[v]`` is set while source s has not reached v.
    Each level ORs the frontier rows of v's neighbours; it yields the level,
    the cells it reaches (``nxt``) and the cells unseen before it (``nxt``
    included), then moves on.  ``reduceat`` misreads empty segments, so
    every vertex needs a neighbour: callers pass connected graphs of order
    at least 2 only.
    """
    n = len(indptr) - 1
    starts = indptr[:-1]
    src = np.arange(lo, hi)
    bit = src - lo
    # little-endian words, so that unpackbits(bitorder="little") of a row
    # lists the sources in order on any host
    frontier = np.zeros((n, -(-(hi - lo) // 64)), dtype="<u8")
    frontier[src, bit >> 6] = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
    unseen = ~frontier
    level = 0
    while True:
        nxt = np.bitwise_or.reduceat(frontier[indices], starts, axis=0)
        nxt &= unseen
        if not nxt.any():
            return
        level += 1
        yield level, nxt, unseen
        unseen ^= nxt
        frontier = nxt


def _distances_bitset(adj: Sequence[Sequence[int]]) -> np.ndarray:
    """The bit-parallel BFS from every source in one batch, as a matrix.

    Every level at which a cell is still unseen adds 1 to it, so the cell
    ends as the hop distance.  The uint8 counter holds any diameter up to
    255; the dispatcher sends only diameters up to ``_BITSET_MAX_LEVELS``
    here.
    """
    n = len(adj)
    acc = np.zeros((n, 64 * -(-n // 64)), dtype=np.uint8)
    for _, _, unseen in _msbfs_levels(*_csr(adj), 0, n):
        acc += np.unpackbits(unseen.view(np.uint8), axis=1, bitorder="little")
    return acc[:, :n].astype(np.int64)


def _transmissions_bitset(adj: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Transmissions from the bit-parallel BFS, ``_BATCH_SOURCES`` sources
    at a time.

    A set bit of ``nxt[v]`` at level l is a source at distance l from v, and
    distances are symmetric, so l times the popcount of v's row, summed over
    the levels and the batches, is v's transmission.  Counts are int64; no
    bit is unpacked.
    """
    n = len(adj)
    batch = _BATCH_SOURCES
    indptr, indices = _csr(adj)
    trans = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, batch):
        for level, nxt, _ in _msbfs_levels(indptr, indices, lo, min(lo + batch, n)):
            trans += level * np.bitwise_count(nxt).sum(axis=1, dtype=np.int64)
    return tuple(trans.tolist())


def _dijkstra(adj: Sequence[Sequence[int]]) -> Callable[..., np.ndarray]:
    """scipy's unweighted Dijkstra on ``adj``, to be called with or without
    ``indices``; float64 rows, ``inf`` where unreachable."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    n = len(adj)
    indptr, indices = _csr(adj)
    data = np.ones(len(indices), dtype=np.int8)
    csr = csr_matrix((data, indices, indptr), shape=(n, n))
    # adjacency is symmetric, so directed traversal is equivalent and cheaper
    return partial(dijkstra, csr, directed=True, unweighted=True)


def _distances_scipy(adj: Sequence[Sequence[int]]) -> np.ndarray:
    dist = _dijkstra(adj)()
    dist[np.isinf(dist)] = INF
    return dist.astype(np.int64)


def _transmissions_scipy(adj: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Transmissions of a connected graph from scipy, ``_BATCH_SOURCES``
    source rows at a time; each row holds small whole numbers, summed in
    int64."""
    n = len(adj)
    batch = _BATCH_SOURCES
    run = _dijkstra(adj)
    trans = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        trans[lo:hi] = run(indices=np.arange(lo, hi)).sum(axis=1, dtype=np.int64)
    return tuple(trans.tolist())


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """G's hop distances: its connectivity now, its transmissions and its
    all-pairs matrix on first read.

    Picks one of three backends, which give identical transmissions and
    matrices (unit tests cross-check them): Python BFS rows below order
    ``_NUMPY_MIN_ORDER``; the bit-parallel kernel when twice the
    eccentricity of vertex 0, which bounds the diameter, is at most
    ``_BITSET_MAX_LEVELS``; scipy otherwise, disconnected graphs included.
    Vertex 0's BFS row also shows whether the graph is connected.
    """
    adj = g.adj
    if g.n < _NUMPY_MIN_ORDER:
        rows = _bfs_rows(adj)
        return DistanceOracle(
            INF not in rows[0],
            lambda: tuple(map(sum, rows)),
            lambda: np.array(rows, dtype=np.int64),
        )
    row0 = _bfs(adj, 0)
    if 2 * max(row0) <= _BITSET_MAX_LEVELS:
        return DistanceOracle(
            True, lambda: _transmissions_bitset(adj), lambda: _distances_bitset(adj)
        )
    return DistanceOracle(
        INF not in row0, lambda: _transmissions_scipy(adj), lambda: _distances_scipy(adj)
    )


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
