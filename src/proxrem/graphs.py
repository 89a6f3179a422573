"""Simple undirected graphs: parsing, BFS distances, degree statistics.

Vertices are dense integers ``0..n-1``.  Adjacency lists are kept sorted so
every iteration over a graph is deterministic; all downstream constructions
rely on that for reproducible tie-breaking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

#: Sentinel distance for unreachable vertex pairs.  Large enough that a
#: single addition cannot collide with a real hop count, small enough to
#: stay exact in int64 arithmetic.
INF: int = 2**31 - 1

#: The selection rule of :func:`_backend`, a pure function of the order n
#: and vertex 0's BFS row.  Below ``_SCIPY_MIN_ORDER`` every graph takes the
#: big-int kernel for its transmissions.  From there on, ``2·ecc(0)``
#: decides: above ``_BITSET_MAX_LEVELS`` scipy, otherwise the big-int kernel
#: again, so that numpy and scipy are imported only for a graph of long
#: diameter.
#:
#: Measured on 2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, best of
#: 3, transmissions only.  Below 25 the big-int kernel beats Python rows:
#: the 180 graphs of order < 25 in the seed-1729 random corpus take 8 ms
#: against 29 ms; per graph at order 16/20/24 (mean degree 3) 47/67/86 µs
#: against 133/205/280 µs.  A numpy MS-BFS, since removed, against big
#: ints, mean ms over random graphs: order 120, mean degree 3 0.53/0.71 and
#: G(n, 0.3) 0.55/1.02; order 500, G(n, 0.1) 4.21/7.14; order 1000,
#: 7.3/6.9 and G(n, 0.1) 28.5/18.5; order 2000 (the 12 ``verify-large``
#: graphs of seeds 1729, 7 and 4242) 16–35 against 10–27; a sparse graph
#: of order 10⁴ 913 against 786.  Big ints cost at most about 2× in
#: process, a few ms, while a process that needs numpy pays its import:
#: 234 ms against 70 ms for a bare interpreter.  The 320 graphs of order
#: 25–60 of the seed-1729 corpus took 42 ms on numpy against 51 ms on big
#: ints (best of 5), about 0.2 % of a ``certify-corpus`` pass, and at
#: seeds 1729 and 7 they were all that made ``oracle bound-check --random
#: 500 --max-n 60`` import numpy.
_SCIPY_MIN_ORDER = 25

#: Above this ``2·ecc(0)``, which bounds both the diameter and the level
#: count of a multi-source BFS, a graph of order at least
#: ``_SCIPY_MIN_ORDER`` takes scipy; a disconnected one has ecc(0) = INF.
#: Big-int transmissions against scipy on grids of order 500, by
#: 2·ecc(0): 86, 16.6 against 32.5 ms; 136, 14.8 against 11.2 ms; 254,
#: 25.1 against 9.3 ms; on a 4×500 grid (1004) 681 against 182 ms.
_BITSET_MAX_LEVELS = 32

#: Above this ``2·ecc(0)``, :func:`weighted_transmissions` takes scipy
#: rows in place of the big-int kernel; an order below 25 never reaches
#: the cap.  The weighted kernel on the auxiliary graphs F of real
#: constructions, against scipy, ms: F of order 157–2148 from sparse
#: graphs of order 10³–10⁴, 2·ecc(0) 22–40, 0.16–0.89× as long; from grids, F of order 75–279 and 2·ecc(0) 34–66, 1.3–11.6
#: against 0.5–7.8; order 425–839 and 88–110, 19.6–68.0 against 9.8–72.4;
#: order 200 and 134, 15.4 against 1.6.  Below the cap F costs at most a
#: few ms more, while a process that first reaches scipy here pays its
#: import: 691 ms against 234 ms for numpy alone.
_WEIGHTED_MAX_LEVELS = 64

#: Sources per batch of scipy's rows, 64·k with k = 1: a batch holds 64·k
#: rows.  Weighted scipy rows on a 10×200 grid: 338 ms and 0.57·n² bytes
#: at k = 1, 221 ms and 2.11·n² at k = 4.
_BATCH_SOURCES = 64 * 1

#: Largest order :func:`parse_graph` accepts.  ``verify --chain`` builds no
#: n×n array of G, T or F; by ``tracemalloc`` at n = 10⁴ it peaks at
#: 0.11·n² bytes on a path or a cycle (scipy, in batches) and 0.42·n² on
#: a sparse graph (the big-int kernel's ints), against 1.81·n² and 0.46·n²
#: while F had an n×n array.  The cap stays because G's exact
#: transmissions take Θ(n·m) time: at n = 10⁴, ``bound_report`` with
#: chains takes 3.5 s on a path or a cycle and 1.5 s on a sparse graph
#: (m = 2n).  A larger document is refused before
#: :func:`graph_from_edges` allocates its n adjacency sets.
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
    """Hop distances of one graph, with no n×n array.

    ``transmissions`` are every vertex's distance sum, exact, or ``None``
    when the graph is disconnected; they are computed on first read and
    cached.  ``row(v)`` is one BFS row from v, ``INF`` where unreachable.
    """

    connected: bool
    _adj: Sequence[Sequence[int]] = field(repr=False)
    _sum_rows: Callable[[], tuple[int, ...]] = field(repr=False)

    @cached_property
    def transmissions(self) -> tuple[int, ...] | None:
        return self._sum_rows() if self.connected else None

    def row(self, v: int) -> list[int]:
        return _bfs(self._adj, v)


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
    # tuples here and on the verify path are built from lists: tuple() of a
    # generator over-allocates and shrinks, and CPython 3.11 then keeps each
    # freed tuple in the free list of its final length (2000 per length)
    # until a full collection, which a lean process seldom runs
    return Graph(tuple([tuple(sorted(s)) for s in nbrs]))


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: one ``u v`` integer pair per line; blank lines and ``#``
    comments (full-line or trailing) are ignored.  The first data line is
    taken as an ``n m`` header when ``n >= 1`` and ``m`` equals the number
    of remaining data lines; otherwise every line is an edge and the order
    is ``1 + max vertex id``.  With a header, any endpoint ``>= n`` is an
    error.
    """
    ends: list[int] = []  # every data line's two ids, one after the other
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
        ends.append(a)
        ends.append(b)
    if not ends:
        raise ParseError("empty edge-list document")

    has_header = ends[0] >= 1 and ends[1] == len(ends) // 2 - 1
    if has_header:
        n = ends[0]
        del ends[:2]
    else:
        n = 1 + max(ends)
    if n > MAX_ORDER:
        raise ParseError(f"graph order {n} exceeds the limit of {MAX_ORDER}")

    us, vs = ends[0::2], ends[1::2]
    for i, (a, b) in enumerate(zip(us, vs), start=1 if has_header else 0):
        if a == b:
            raise ParseError(f"line {_data_line(text, i)}: self-loop at vertex {a}")
        if has_header and (a >= n or b >= n):
            raise ParseError(f"line {_data_line(text, i)}: vertex id exceeds declared order {n}")
    return graph_from_edges(n, zip(us, vs))


def _data_line(text: str, k: int) -> int:
    """The line number of the ``k``-th data line (from 0) of an edge-list
    document, counted as :func:`parse_graph` counts them.  The parse keeps
    no line number per edge; an error message reads it again here."""
    data = (i for i, raw in enumerate(text.splitlines(), start=1) if raw.split("#", 1)[0].strip())
    return next(islice(data, k, None))


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
    from here, from the big-int multi-source BFS, from the scipy backend or,
    on a tree, from :func:`_tree_sigmas`.
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


def _bit_slices(weights: Sequence[int]) -> list[tuple[int, int]]:
    """``(j, M_j)`` for every bit j set in some weight, M_j holding bit v
    when bit j of ``weights[v]`` is set; weights are nonnegative ints."""
    slices = []
    for j in range(max(weights, default=0).bit_length()):
        mask = int("".join("1" if w >> j & 1 else "0" for w in reversed(weights)), 2)
        if mask:
            slices.append((j, mask))
    return slices


def _transmissions_bigint(
    adj: Sequence[Sequence[int]], weights: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Transmissions, or weighted transmissions σ_w(v) = Σ_u w_u·d(u, v),
    from a multi-source BFS from every vertex at once with Python ints as
    bitsets.

    Bit s of ``unseen[v]`` is set while source s has not reached v.  A
    level ORs the frontier ints of v's neighbours and keeps the unseen
    bits: x, the sources at distance ``level`` from v.  Distances are
    symmetric, so v gains ``level · popcount(x)``.  With weights, x is
    ORed into ``planes[k][v]`` for each bit k of the level, so that plane
    k holds the sources whose distance to v has bit k set; at the end v
    gains ``popcount(planes[k][v] & M_j) << (j + k)`` for every plane k
    and every bit slice M_j of the weights.  A vertex whose x is empty has
    no source farther away and leaves the loop.  Any order, 1 included; on
    a disconnected graph each sum runs over the vertex's component.  The
    ints take (3 + the planes' count)·n² bits at most.
    """
    n = len(adj)
    slices = None if weights is None else _bit_slices(weights)
    planes: list[list[int]] = []
    frontier = [1 << v for v in range(n)]
    full = (1 << n) - 1
    unseen = [full ^ b for b in frontier]
    sums = [0] * n
    active: Sequence[int] = range(n)
    level = 0
    while active:
        level += 1
        if slices is not None:
            if level.bit_length() > len(planes):
                planes.append([0] * n)
            level_planes = [plane for k, plane in enumerate(planes) if level >> k & 1]
        nxt = [0] * n
        still = []
        for v in active:
            x = 0
            for w in adj[v]:
                x |= frontier[w]
            x &= unseen[v]
            if x:
                nxt[v] = x
                unseen[v] ^= x
                still.append(v)
                if slices is None:
                    sums[v] += level * x.bit_count()
                else:
                    for plane in level_planes:
                        plane[v] |= x
        frontier = nxt
        active = still
    if slices is not None:
        for k, plane in enumerate(planes):
            for v, d in enumerate(plane):
                if d:
                    acc = 0
                    for j, m in slices:
                        acc += (d & m).bit_count() << j
                    sums[v] += acc << k
    return tuple(sums)


def _transmissions_scipy(
    adj: Sequence[Sequence[int]], weights: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Transmissions, or weighted transmissions, of a connected graph from
    scipy, ``_BATCH_SOURCES`` source rows at a time; each row holds small
    whole numbers, summed in int64."""
    import numpy as np
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    n = len(adj)
    batch = _BATCH_SOURCES
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(a) for a in adj], out=indptr[1:])
    indices = np.fromiter((w for a in adj for w in a), dtype=np.int64, count=int(indptr[-1]))
    csr = csr_array((np.ones(len(indices), dtype=np.int8), indices, indptr), shape=(n, n))
    # adjacency is symmetric, so directed traversal is equivalent and cheaper
    run = partial(dijkstra, csr, directed=True, unweighted=True)
    w = None if weights is None else np.array(weights, dtype=np.int64)
    trans = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, batch):
        hi = min(lo + batch, n)
        rows = run(indices=np.arange(lo, hi))
        trans[lo:hi] = rows.sum(axis=1, dtype=np.int64) if w is None else rows.astype(np.int64) @ w
    return tuple(trans.tolist())


def _backend(n: int, row0: Sequence[int]) -> str:
    """``"bigint"`` or ``"scipy"``: the kernel for the transmissions of a
    graph of order ``n`` whose vertex 0 has BFS row ``row0``.  Twice the
    eccentricity of vertex 0 bounds the diameter, and is ``INF``-sized when
    the graph is disconnected."""
    if n < _SCIPY_MIN_ORDER or 2 * max(row0) <= _BITSET_MAX_LEVELS:
        return "bigint"
    return "scipy"


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """G's hop distances: its connectivity now, from vertex 0's BFS row, and
    its transmissions on first read.

    :func:`_backend` picks the transmissions' kernel from the order and that
    row; both kernels give identical transmissions (unit tests cross-check
    them).
    """
    adj = g.adj
    row0 = _bfs(adj, 0)
    trans = _transmissions_bigint if _backend(g.n, row0) == "bigint" else _transmissions_scipy
    return DistanceOracle(INF not in row0, adj, lambda: trans(adj))


def weighted_transmissions(g: Graph, weights: Sequence[int]) -> tuple[int, ...]:
    """σ_w(v) = Σ_u w_u·d(u, v) for every vertex v of a connected graph,
    for nonnegative integer weights ``w``, exact and with no n×n array.

    The big-int kernel runs unless twice the eccentricity of vertex 0
    exceeds ``_WEIGHTED_MAX_LEVELS``; then scipy rows do.  Below order 25
    that cannot happen.
    """
    row0 = _bfs(g.adj, 0)
    if INF in row0:
        raise ValueError("weighted transmissions need a connected graph")
    if 2 * max(row0) > _WEIGHTED_MAX_LEVELS:
        return _transmissions_scipy(g.adj, weights)
    return _transmissions_bigint(g.adj, weights)


def _tree_sigmas(edges: Sequence[tuple[int, int]], m: int, w: Sequence[int]) -> list[int]:
    """σ_w(v) = Σ_u w_u·d(u, v) on a tree of order ``m``, from its (child,
    parent) edges in leaf-first post-order, the last parent being the root.

    Subtree weights accumulate along the edges; σ_w(root) is the sum of
    those of the non-root vertices, and in reverse order each child has
    σ_w(c) = σ_w(p) + W − 2·w(subtree(c)), W the total, since moving the
    centre across one edge brings c's subtree a step closer and the rest a
    step farther.  The one rerooting routine of the package.
    """
    if not edges:
        return [0] * m
    sub = list(w)
    for child, up in edges:
        sub[up] += sub[child]
    root = edges[-1][1]
    total = sub[root]
    sigma = [0] * m
    sigma[root] = sum(sub) - total
    for child, up in reversed(edges):
        sigma[child] = sigma[up] + total - 2 * sub[child]
    return sigma


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
