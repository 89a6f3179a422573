"""Simple undirected graphs: parsing, BFS distances, degree statistics.

Vertices are dense integers ``0..n-1``.  Adjacency lists are kept sorted so
every iteration over a graph is deterministic; all downstream constructions
rely on that for reproducible tie-breaking.

Every command loads this module, so it also holds the two process-level
helpers that both ``oracle`` and ``extremal`` use: :func:`parallel_map`
and :data:`DEFAULT_SEED`.
"""

from __future__ import annotations

import json
import operator
import os
import re
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

#: Sentinel distance for unreachable vertex pairs.  Large enough that a
#: single addition cannot collide with a real hop count, small enough to
#: stay exact in int64 arithmetic.
INF: int = 2**31 - 1

#: The level cap of :func:`_transmissions`, the one selection rule for
#: every transmission kernel.  A connected graph takes the big-int kernel
#: when ``2·ecc(0)``, which bounds both the diameter and the level count of
#: a multi-source BFS, is at most this, and scipy above it.  Below order 25,
#: ``2·ecc(0)`` is at most 46, so a small graph never reaches scipy.
#:
#: Measured in process on 2 cores, Python 3.11.7, scipy 1.17.1, best of 5
#: with scipy already imported, big ints against scipy at ``2·ecc(0)`` = 64
#: (62 for the smallest thick path): a broom (a path 0..32 with every other
#: vertex on its middle) of order 2000, 12 against 391 ms, and of order
#: 500, 2.6 against 13 ms; a thick path (32 layers, each a star, joined
#: slot by slot) of order 2000, 55 against 307 ms, and of order 500, 5.9
#: against 11 ms; both shapes at order 93, 0.57–0.87 against 0.48–0.53 ms.
#: So scipy is faster there by at most 0.4 ms, while a process that
#: reaches scipy pays for its import: 0.63 s against 0.07 s for a bare
#: interpreter, median of 7.  Longer graphs favour scipy: a 4×500 grid
#: (``2·ecc(0)`` = 1004) takes 411 ms on big ints against 137 ms.
_MAX_LEVELS = 64

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

#: Largest edge count a graph may have: :func:`parse_graph` refuses a
#: document with more edge lines, and ``extremal`` a family member with
#: more edges, before any adjacency is built.  A graph costs Python sets of
#: adjacency, 170–300 bytes per edge.  Measured as processes on 2 cores with
#: Python 3.11.7: ``verify`` on K1000 (499,500 edges, 3.9 MB) took 0.67–0.76
#: s and 97 MiB max RSS; ``extremal --delta 3 --Delta n-4`` at n = 504,
#: 1004 and 1404 renders 1.2·10⁵, 5.0·10⁵ and 9.8·10⁵ edges in 0.35, 0.66
#: and 1.29 s at 45, 105 and 304 MiB.  The order cap alone does not bound
#: the edges: G(2000, ½) has about 10⁶, and ``verify`` refuses one such
#: document (1,000,646 edge lines, 8.9 MB, with a header) from its first
#: line in 0.22–0.29 s at 34 MiB.
MAX_EDGES = 500_000

#: A plain edge-list document: every line ``<id> <id>``, each id ASCII
#: digits with no leading zero and at most 9 of them, one space between,
#: ``\n`` between lines, the final newline optional.  Such a text is a
#: JSON array once its separators are commas, and no id nears ``int``'s
#: digit limit.  The group is atomic and its repetition possessive, so
#: ``sre`` keeps no backtracking state per line: on a 20,001-line document
#: a greedy ``(?:…)*`` peaked at 6.7 MB by ``tracemalloc``, this at 1.2 KB.
_ID = "(?:0|[1-9][0-9]{0,8})"
_PLAIN = re.compile(f"(?>{_ID} {_ID}\n)*+(?:{_ID} {_ID}\n?)?")

#: Default seed for every randomized corpus (overridable via --seed).
DEFAULT_SEED = 1729

_T = TypeVar("_T")
_U = TypeVar("_U")


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
    when the graph is disconnected.  ``row(v)`` is one BFS row from v,
    ``INF`` where unreachable.
    """

    connected: bool
    transmissions: tuple[int, ...] | None
    _adj: Sequence[Sequence[int]] = field(repr=False)

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

    A plain document, one that :data:`_PLAIN` matches, is converted in
    one ``json.loads``; every other document is read line by line by
    :func:`_line_ends`, which names the first malformed line.  Both give
    the same ids, and from there one path checks the order cap, the edge
    budget, self-loops and out-of-range ids, the last two in bulk; only
    when one of those fires does a per-edge loop run to name the first bad
    line.  A plain document of more than ``MAX_EDGES + 1`` lines whose
    first line is a header is refused from that line alone, before any
    other id is converted.
    """
    if text and _PLAIN.fullmatch(text):
        if len(text) > 4 * (MAX_EDGES + 1):  # every line but the last has 4 characters or more
            _refuse_by_header(text)
        ends = json.loads("[" + text.rstrip("\n").replace("\n", ",").replace(" ", ",") + "]")
    else:
        ends = _line_ends(text)

    has_header = ends[0] >= 1 and ends[1] == len(ends) // 2 - 1
    if has_header:
        n = ends[0]
        del ends[:2]
    else:
        n = 1 + max(ends)
    _check_caps(n, len(ends) // 2)

    us, vs = ends[0::2], ends[1::2]
    if any(map(operator.eq, us, vs)) or (has_header and max(ends, default=0) >= n):
        for i, (a, b) in enumerate(zip(us, vs), start=1 if has_header else 0):
            if a == b:
                raise ParseError(f"line {_data_line(text, i)}: self-loop at vertex {a}")
            if has_header and (a >= n or b >= n):
                raise ParseError(f"line {_data_line(text, i)}: vertex id exceeds declared order {n}")
    return graph_from_edges(n, zip(us, vs))


def _line_ends(text: str) -> list[int]:
    """Every data line's two ids, one after the other, read line by line;
    a malformed line, or a document with no data line, raises."""
    ends: list[int] = []
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
    return ends


def _check_caps(n: int, edges: int) -> None:
    """Refuse an order above ``MAX_ORDER``, then more than ``MAX_EDGES``
    edge lines."""
    if n > MAX_ORDER:
        raise ParseError(f"graph order {n} exceeds the limit of {MAX_ORDER}")
    if edges > MAX_EDGES:
        raise ParseError(f"{edges} edge lines exceed the limit of {MAX_EDGES}")


def _refuse_by_header(text: str) -> None:
    """Refuse a plain document of more than ``MAX_EDGES + 1`` lines whose
    first line is a header, from that line alone.  A headerless one needs
    its largest id for the order check, so it is converted in full."""
    lines = text.count("\n") + (not text.endswith("\n"))
    if lines > MAX_EDGES + 1:
        n, m = map(int, text[: text.index("\n")].split(" "))
        if n >= 1 and m == lines - 1:
            _check_caps(n, m)


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
    from here, from a transmission kernel that :func:`_transmissions`
    picks, or, on a tree, from :func:`_tree_sigmas`.
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
    and every bit slice M_j of the weights.  A vertex leaves the loop in
    the level where its last unseen bit clears, as no source is farther
    away (Then et al., PVLDB 8(4), 2014); its x still feeds its neighbours
    one level on.  On a disconnected graph it leaves instead at its first
    empty x.  Any order, 1 included; on a disconnected graph each sum runs
    over the vertex's component.  The ints take (3 + the planes'
    count)·n² bits at most.
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
                left = unseen[v] ^ x
                unseen[v] = left
                if left:
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


def _transmissions(
    adj: Sequence[Sequence[int]], weights: Sequence[int] | None = None
) -> tuple[int, ...] | None:
    """Transmissions, or weighted transmissions, of a graph, or ``None``
    when vertex 0's BFS row shows it disconnected; no kernel runs then.
    The big-int kernel runs while twice the eccentricity of vertex 0, which
    bounds the diameter, is at most ``_MAX_LEVELS``, and scipy above it;
    both give identical sums (unit tests cross-check them)."""
    row0 = _bfs(adj, 0)
    if INF in row0:
        return None
    if 2 * max(row0) > _MAX_LEVELS:
        return _transmissions_scipy(adj, weights)
    return _transmissions_bigint(adj, weights)


def all_pairs_distances(g: Graph) -> DistanceOracle:
    """G's hop distances: its transmissions from :func:`_transmissions`,
    and so its connectivity, computed now."""
    trans = _transmissions(g.adj)
    return DistanceOracle(trans is not None, trans, g.adj)


def weighted_transmissions(g: Graph, weights: Sequence[int]) -> tuple[int, ...]:
    """σ_w(v) = Σ_u w_u·d(u, v) for every vertex v of a connected graph,
    for nonnegative integer weights ``w``, exact and with no n×n array,
    from :func:`_transmissions`."""
    sigma = _transmissions(g.adj, weights)
    if sigma is None:
        raise ValueError("weighted transmissions need a connected graph")
    return sigma


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


def parallel_map(fn: Callable[[_T], _U], items: Sequence[_T], jobs: int) -> list[_U]:
    """Order-preserving map, optionally across a process pool.

    Results are identical for any ``jobs`` value; parallelism only shards
    the work.  The pool never has more workers than items or CPUs.
    """
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    from multiprocessing import get_context

    with get_context("fork").Pool(workers) as pool:
        return pool.map(fn, items)


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
