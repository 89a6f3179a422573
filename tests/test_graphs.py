import ast
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxrem as px
from proxrem import graphs
from proxrem.graphs import (
    INF,
    MAX_ORDER,
    ParseError,
    _transmissions_bigint,
    _transmissions_scipy,
    _tree_sigmas,
    weighted_transmissions,
)

from .conftest import (
    arbitrary_graphs,
    connected_graphs,
    floyd_warshall,
    labeled_trees,
    set_distance,
    weighted_floyd_warshall,
)


class TestParse:
    def test_header_document(self):
        g = px.parse_graph("3 2\n0 1\n1 2")
        assert g == px.path_graph(3)

    def test_duplicate_edges_collapse(self):
        g = px.parse_graph("0 1\n1 0")
        assert g.n == 2 and g.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            px.parse_graph("0 0")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 3"):
            px.parse_graph("0 1\n\n1 2 3")

    def test_non_integer_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            px.parse_graph("a b")

    def test_header_id_out_of_range(self):
        with pytest.raises(ParseError, match="declared order"):
            px.parse_graph("3 2\n0 1\n1 5")

    def test_header_only_is_isolated_vertices(self):
        g = px.parse_graph("1 0")
        assert g.n == 1 and g.edge_count() == 0

    def test_comments_and_blanks_ignored(self):
        g = px.parse_graph("# a path\n\n3 2\n0 1  # first\n1 2\n")
        assert g == px.path_graph(3)

    def test_headerless_infers_order(self):
        g = px.parse_graph("0 1\n1 2\n2 3")
        assert g.n == 4

    def test_empty_document(self):
        with pytest.raises(ParseError, match="empty"):
            px.parse_graph("# nothing\n")

    @pytest.mark.parametrize("text", ["100000000 0", "0 100000000"], ids=["header", "headerless"])
    def test_order_above_cap_rejected(self, text):
        with pytest.raises(ParseError, match="exceeds the limit"):
            px.parse_graph(text)

    def test_order_at_cap_accepted(self):
        assert px.parse_graph(f"{MAX_ORDER} 0").n == MAX_ORDER

    def test_edge_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGES", 3)
        assert px.parse_graph("0 1\n1 2\n2 3\n").edge_count() == 3
        # the header is no edge line, nor is a comment or a blank line
        assert px.parse_graph("4 3\n0 1\n# note\n\n1 2\n2 3\n").edge_count() == 3
        # a repeated edge is one more edge line
        with pytest.raises(ParseError, match=r"^4 edge lines exceed the limit of 3$"):
            px.parse_graph("0 1\n1 2\n2 3\n1 0\n")

    def test_over_budget_document_builds_no_adjacency(self, monkeypatch):
        # refused from the parsed ids alone: no adjacency is built, and the
        # peak is a small multiple of the document's own size (about 14×;
        # building the graph would take it to about 24×)
        m = 20_000
        doc = f"{MAX_ORDER} {m + 1}\n" + "".join(
            f"{i % MAX_ORDER} {(7 * i + 1) % MAX_ORDER}\n" for i in range(m + 1)
        )
        monkeypatch.setattr(graphs, "MAX_EDGES", m)

        def forbidden(*_):
            raise AssertionError("adjacency built for a refused document")

        monkeypatch.setattr(graphs, "graph_from_edges", forbidden)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match=f"^{m + 1} edge lines exceed the limit of {m}$"):
                px.parse_graph(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18 * len(doc)

    @given(connected_graphs())
    def test_render_round_trip(self, g):
        assert px.parse_graph(px.render_graph(g)) == g

    def test_render_sorted_header(self):
        text = px.render_graph(px.cycle_graph(3))
        assert text == "3 3\n0 1\n0 2\n1 2\n"

    @given(st.lists(st.sampled_from([
        "0 1", "1 2", "2 0", "3 4", "1 1", "2 5", "5 3", "3 2", "4 0", "2 1 # edge", "",
        "# note", "   ", "x y", "1 2 3", "-1 2", "\u2028", "0\x0c1",
    ]), max_size=12), st.sampled_from(["", "3 2\n", "6 4\n", "5 3\n", "0 3\n"]))
    @settings(max_examples=400, deadline=None)
    def test_parse_equals_reference(self, lines, header):
        # the parse keeps no line number per edge; every error still names
        # the line the reference, which kept them, names
        text = header + "\n".join(lines)
        assert _outcome(px.parse_graph, text) == _outcome(_parse_with_line_numbers, text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def _parse_with_line_numbers(text):
    """The reference parse: each data line kept as ``(lineno, u, v)``."""
    entries = []
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
    has_header = entries[0][1] >= 1 and entries[0][2] == len(entries) - 1
    edge_entries = entries[1:] if has_header else entries
    n = entries[0][1] if has_header else 1 + max(max(a, b) for _, a, b in edge_entries)
    if n > MAX_ORDER:
        raise ParseError(f"graph order {n} exceeds the limit of {MAX_ORDER}")
    for lineno, a, b in edge_entries:
        if a == b:
            raise ParseError(f"line {lineno}: self-loop at vertex {a}")
        if has_header and (a >= n or b >= n):
            raise ParseError(f"line {lineno}: vertex id exceeds declared order {n}")
    return px.graph_from_edges(n, [(a, b) for _, a, b in edge_entries])


class TestBasics:
    def test_degree_stats(self):
        assert px.degree_stats(px.path_graph(4)) == (1, 2)
        assert px.degree_stats(px.complete_graph(5)) == (4, 4)
        assert px.degree_stats(px.star_graph(6)) == (1, 6)

    def test_self_loop_in_from_edges(self):
        with pytest.raises(ValueError, match="self-loop"):
            px.graph_from_edges(2, [(1, 1)])

    def test_is_connected(self):
        assert px.is_connected(px.path_graph(5))
        assert not px.is_connected(px.graph_from_edges(4, [(0, 1), (2, 3)]))
        assert px.is_connected(px.graph_from_edges(1, []))

    @given(arbitrary_graphs())
    @settings(max_examples=60)
    def test_is_connected_matches_floyd_warshall(self, g):
        assert px.is_connected(g) == all(x < INF for x in floyd_warshall(g)[0])

    def test_bfs_kernel_is_the_only_bfs(self):
        # a hand-rolled BFS needs a deque; only graphs._bfs may have one
        src = Path(px.__file__).parent
        with_deque = sorted(f.name for f in src.glob("*.py") if "deque" in f.read_text())
        assert with_deque == ["graphs.py"]

    def test_scipy_only_in_graphs(self):
        # the scipy backend is the package's one use of scipy
        src = Path(px.__file__).parent
        with_scipy = sorted(f.name for f in src.glob("*.py") if "scipy" in f.read_text())
        assert with_scipy == ["graphs.py"]

    def test_one_call_site_per_kernel_and_one_level_cap(self):
        # one selection rule picks every transmission kernel
        src = Path(px.__file__).parent
        called = [
            getattr(node.func, "id", getattr(node.func, "attr", None))
            for f in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(f.read_text()))
            if isinstance(node, ast.Call)
        ]
        for kernel in KERNELS:
            assert called.count(kernel) == 1, kernel
        caps = [
            node.id
            for node in ast.walk(ast.parse(Path(graphs.__file__).read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id.endswith("_MAX_LEVELS")
        ]
        assert caps == ["_MAX_LEVELS"]

    def test_numpy_never_imported_at_module_level(self):
        # numpy is imported inside the functions that use it, so that a
        # process that never reaches them never loads it
        src = Path(px.__file__).parent
        at_top = []
        for f in sorted(src.glob("*.py")):
            for node in ast.parse(f.read_text()).body:
                names = (
                    [a.name for a in node.names] if isinstance(node, ast.Import)
                    else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
                )
                at_top += [(f.name, m) for m in names if m.split(".")[0] in ("numpy", "scipy")]
        assert at_top == []

    def test_set_distance(self):
        p5 = px.path_graph(5)
        assert set_distance(p5, 4, {0, 1}) == 3
        assert set_distance(p5, 1, {0, 1, 3}) == 0
        assert set_distance(px.cycle_graph(6), 3, {0}) == 3

    def test_set_distance_empty_set(self):
        with pytest.raises(ValueError):
            set_distance(px.path_graph(3), 0, set())


def _rows(d, n):
    return [d.row(v) for v in range(n)]


class TestDistances:
    def test_known_values(self):
        c4 = px.all_pairs_distances(px.cycle_graph(4))
        assert c4.row(0)[2] == 2
        p6 = px.all_pairs_distances(px.path_graph(6))
        assert p6.row(0)[5] == 5
        k4 = px.all_pairs_distances(px.complete_graph(4))
        assert all(k4.row(i)[j] == 1 for i in range(4) for j in range(4) if i != j)

    def test_disconnected_marked_inf(self):
        g = px.graph_from_edges(4, [(0, 1), (2, 3)])
        d = px.all_pairs_distances(g)
        assert d.row(0)[2] == INF
        assert _rows(d, 4) == [
            [0, 1, INF, INF], [1, 0, INF, INF], [INF, INF, 0, 1], [INF, INF, 1, 0]
        ]

    @given(arbitrary_graphs())
    @settings(max_examples=60)
    def test_matches_floyd_warshall(self, g):
        d = px.all_pairs_distances(g)
        fw = floyd_warshall(g)
        assert _rows(d, g.n) == fw

    @given(st.one_of(arbitrary_graphs(), connected_graphs()))
    @settings(max_examples=60)
    def test_oracle_invariants(self, g):
        m = _rows(px.all_pairs_distances(g), g.n)
        for u in range(g.n):
            assert m[u][u] == 0
            for v in range(g.n):
                assert m[u][v] == m[v][u]
                assert (m[u][v] == 1) == (u != v and g.has_edge(u, v))
                # triangle inequality through every midpoint
                assert all(m[u][v] <= m[u][w] + m[w][v] for w in range(g.n))

    def test_repeated_runs_identical(self):
        g = px.cycle_graph(50)
        a, b = px.all_pairs_distances(g), px.all_pairs_distances(g)
        assert _rows(a, 50) == _rows(b, 50)
        assert a.transmissions == b.transmissions


WORD_BOUNDARY_ORDERS = [63, 64, 65, 127, 128, 129]


def _raise(*_):
    raise AssertionError("backend not chosen by the rule was called")


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


@st.composite
def weighted_connected(draw, max_order=40):
    """A connected graph of order 1..``max_order`` and one weight per
    vertex, up to 13 bits wide."""
    g = draw(st.one_of(st.just(px.graph_from_edges(1, [])), connected_graphs(max_order=max_order)))
    weights = draw(st.lists(st.integers(0, 2**12), min_size=g.n, max_size=g.n))
    return g, weights


class TestBigIntKernel:
    """The big-int multi-source BFS, plain and weighted, against
    Floyd–Warshall and networkx."""

    @given(st.one_of(arbitrary_graphs(max_order=24), connected_graphs(max_order=60)))
    @settings(max_examples=80, deadline=None)
    def test_matches_floyd_warshall(self, g):
        # on a disconnected graph each sum runs over the vertex's component
        fw = floyd_warshall(g)
        assert _transmissions_bigint(g.adj) == tuple(sum(d for d in row if d < INF) for row in fw)

    @given(weighted_connected())
    @settings(max_examples=80, deadline=None)
    def test_weighted_matches_floyd_warshall(self, gw):
        g, weights = gw
        expected = weighted_floyd_warshall(g, weights)
        assert _transmissions_bigint(g.adj, weights) == expected
        assert weighted_transmissions(g, weights) == expected

    @pytest.mark.parametrize("n", WORD_BOUNDARY_ORDERS)
    @given(data=st.data())
    @settings(max_examples=2, deadline=None)
    def test_word_boundaries_match_floyd_warshall(self, n, data):
        g = data.draw(connected_graphs(min_order=n, max_order=n))
        weights = data.draw(st.lists(st.integers(0, 2**12), min_size=n, max_size=n))
        assert _transmissions_bigint(g.adj) == tuple(map(sum, floyd_warshall(g)))
        assert _transmissions_bigint(g.adj, weights) == weighted_floyd_warshall(g, weights)

    def test_order_one_and_one_anchor(self):
        k1 = px.graph_from_edges(1, [])
        assert _transmissions_bigint(k1.adj) == (0,)
        assert weighted_transmissions(k1, [5]) == (0,)
        assert px.all_pairs_distances(k1).transmissions == (0,)
        # a star has one anchor, so F is K1 and that anchor is w0
        trace = px.build_construction(px.star_graph(3))
        assert trace.aux.n == 1 and trace.w0 == trace.anchors[0] == 0

    def test_zero_weights(self):
        p5 = px.path_graph(5)
        assert weighted_transmissions(p5, [0] * 5) == (0,) * 5
        assert weighted_transmissions(p5, [0, 0, 1, 0, 0]) == (2, 1, 0, 1, 2)

    @given(weighted_connected(max_order=60))
    @settings(max_examples=30, deadline=None)
    def test_weighted_matches_networkx(self, nx, gw):
        g, weights = gw
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        expected = tuple(
            sum(weights[u] * d for u, d in nx.single_source_shortest_path_length(h, v).items())
            for v in range(g.n)
        )
        assert _transmissions_bigint(g.adj, weights) == expected
        assert weighted_transmissions(g, weights) == expected


#: Every kernel a graph's transmissions can come from.
KERNELS = ("_transmissions_bigint", "_transmissions_scipy")


def _only(monkeypatch, *allowed):
    """Make every kernel outside ``allowed`` fail when called."""
    for name in KERNELS:
        if name not in allowed:
            monkeypatch.setattr(graphs, name, _raise)


def _broom(n, ecc):
    """A path 0..ecc with the other vertices hung on its middle, so
    ecc(0) = ``ecc`` at any order above it."""
    mid = ecc // 2
    return px.graph_from_edges(n, [(i, i + 1) for i in range(ecc)] + [(mid, v) for v in range(ecc + 1, n)])


#: (order, 2·ecc(0), kernel) on each side of the level cap.  Order 24
#: cannot reach the cap, so its longest graph, a path (46 levels), stands in.
LEVEL_CAP_CASES = [
    (24, 46, "_transmissions_bigint"),
    (40, graphs._MAX_LEVELS, "_transmissions_bigint"),
    (40, graphs._MAX_LEVELS + 2, "_transmissions_scipy"),
    (500, graphs._MAX_LEVELS, "_transmissions_bigint"),
    (500, graphs._MAX_LEVELS + 2, "_transmissions_scipy"),
    (2000, graphs._MAX_LEVELS, "_transmissions_bigint"),
    (2000, graphs._MAX_LEVELS + 2, "_transmissions_scipy"),
]
LEVEL_CAP_IDS = ["small-order", "mid-order-at-cap", "mid-order-above-cap", "bigint-at-cap",
                 "bigint-above-cap", "large-order-at-cap", "large-order-above-cap"]


class TestDispatch:
    """Each side of every boundary of the selection rule: the chosen kernel
    runs, every other kernel fails if called, and the result is exact."""

    def test_long_path_goes_to_scipy(self, monkeypatch):
        _only(monkeypatch, "_transmissions_scipy")
        d = px.all_pairs_distances(px.path_graph(300))
        assert d.transmissions == tuple(sum(abs(i - j) for j in range(300)) for i in range(300))

    def test_small_diameter_goes_to_bitset(self, monkeypatch):
        # the big-int kernel, Python ints as bitsets
        g = px.graph_from_edges(300, [(i, (3 * i + 1) % 300) for i in range(300)]
                                + [(i, i // 2) for i in range(1, 300)])
        assert 2 * max(graphs._bfs(g.adj, 0)) <= graphs._MAX_LEVELS
        expected = tuple(sum(graphs._bfs(g.adj, v)) for v in range(g.n))
        _only(monkeypatch, "_transmissions_bigint")
        assert px.all_pairs_distances(g).transmissions == expected

    def test_small_order_takes_bigint_and_python_rows(self, monkeypatch):
        # a row is one BFS, never the rows from every vertex
        g = px.cycle_graph(24)
        expected = floyd_warshall(g)
        _only(monkeypatch, "_transmissions_bigint")
        d = px.all_pairs_distances(g)
        assert d.transmissions == tuple(map(sum, expected))
        assert _rows(d, g.n) == expected

    def test_disconnected_keeps_inf_cells(self, monkeypatch):
        g = px.graph_from_edges(40, [(i, i + 1) for i in range(19)] + [(i, i + 1) for i in range(20, 39)])
        _only(monkeypatch)
        d = px.all_pairs_distances(g)
        assert not d.connected and d.transmissions is None
        assert _rows(d, g.n) == floyd_warshall(g)
        assert d.row(0)[39] == INF and d.row(20)[39] == 19

    @pytest.mark.parametrize(
        "n, kernel",
        [
            (24, "_transmissions_bigint"),
            (25, "_transmissions_bigint"),
            (499, "_transmissions_bigint"),
            (500, "_transmissions_bigint"),
            (501, "_transmissions_bigint"),
        ],
    )
    def test_order_boundaries(self, monkeypatch, n, kernel):
        # below the level cap every order takes big ints: no rule reads the
        # order, though 25 and 500 once handed over to numpy kernels
        rng = random.Random(n)
        chords = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
        g = px.graph_from_edges(n, [(rng.randrange(v), v) for v in range(1, n)]
                                + [(u, v) for u, v in chords if u != v])
        assert 2 * max(graphs._bfs(g.adj, 0)) <= graphs._MAX_LEVELS
        expected = _transmissions_scipy(g.adj)
        _only(monkeypatch, kernel)
        assert px.all_pairs_distances(g).transmissions == expected

    @pytest.mark.parametrize(
        "n, levels, kernel, weighted",
        [(*case, weighted) for weighted in (False, True) for case in LEVEL_CAP_CASES],
        ids=[prefix + name for prefix in ("", "weighted-") for name in LEVEL_CAP_IDS],
    )
    def test_level_cap_boundary(self, monkeypatch, n, levels, kernel, weighted):
        # one rule for G and for F: 2·ecc(0) at the cap, or at the cap + 2
        g = _broom(n, levels // 2)
        assert 2 * max(graphs._bfs(g.adj, 0)) == levels
        weights = [(7 * v) % 13 for v in range(n)] if weighted else None
        expected = _transmissions_scipy(g.adj, weights)
        _only(monkeypatch, kernel)
        if weighted:
            assert weighted_transmissions(g, weights) == expected
        else:
            assert px.all_pairs_distances(g).transmissions == expected

    def test_weighted_rejects_disconnected(self, monkeypatch):
        _only(monkeypatch)
        with pytest.raises(ValueError, match="connected"):
            weighted_transmissions(px.graph_from_edges(3, [(0, 1)]), [1, 1, 1])


class TestTransmissions:
    """Transmissions with no n×n array, against Floyd–Warshall row sums."""

    @given(st.one_of(arbitrary_graphs(max_order=40), connected_graphs(max_order=60)))
    @settings(max_examples=60, deadline=None)
    def test_oracle_matches_floyd_warshall(self, g):
        d = px.all_pairs_distances(g)
        fw = floyd_warshall(g)
        connected = all(x < INF for x in fw[0])
        assert d.connected == connected
        assert d.transmissions == (tuple(map(sum, fw)) if connected else None)

    @given(connected_graphs(min_order=2, max_order=60))
    @settings(max_examples=60, deadline=None)
    def test_both_backends_match_floyd_warshall(self, g):
        # whichever side of the selection rule the graph falls on
        expected = tuple(map(sum, floyd_warshall(g)))
        assert _transmissions_bigint(g.adj) == expected
        assert _transmissions_scipy(g.adj) == expected

    @pytest.mark.parametrize("batch", [64, 128], ids=["k1", "k2"])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_batch_boundaries_match_floyd_warshall(self, monkeypatch, batch, extra):
        # orders 64·k − 1, 64·k and 64·k + 1: the last batch holds 64·k − 1,
        # 64·k or 1 sources
        n = batch + extra
        rng = random.Random(n)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 4)]
        g = px.graph_from_edges(n, [(u, v) for u, v in edges if u != v])
        expected = tuple(map(sum, floyd_warshall(g)))
        monkeypatch.setattr(graphs, "_BATCH_SOURCES", batch)
        assert _transmissions_scipy(g.adj) == expected

    @given(
        st.one_of(
            connected_graphs(max_order=60),
            st.sampled_from([63, 64, 65, 127, 128, 129]).flatmap(lambda n: connected_graphs(n, n)),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx(self, nx, g):
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        lengths = nx.single_source_shortest_path_length
        expected = tuple(sum(lengths(h, v).values()) for v in range(g.n))
        assert px.all_pairs_distances(g).transmissions == expected
        assert _transmissions_bigint(g.adj) == _transmissions_scipy(g.adj) == expected

    @pytest.mark.parametrize("n", [4, 40], ids=["python_rows", "scipy"])
    def test_disconnected_has_no_transmissions(self, n):
        half = n // 2
        g = px.graph_from_edges(n, [(i, i + 1) for i in range(half - 1)]
                                + [(i, i + 1) for i in range(half, n - 1)])
        d = px.all_pairs_distances(g)
        assert not d.connected and d.transmissions is None
        assert _rows(d, n) == floyd_warshall(g)


class TestBall:
    @given(arbitrary_graphs(), st.integers(0, 4), st.data())
    @settings(max_examples=150)
    def test_capped_kernel_matches_floyd_warshall(self, g, radius, data):
        s = data.draw(st.integers(0, g.n - 1))
        dist, reached = graphs._ball(g.adj, s, radius)
        fw = floyd_warshall(g)[s]
        assert dist == [x if x <= radius else INF for x in fw]
        assert sorted(reached) == [v for v in range(g.n) if dist[v] < INF]
        assert reached[0] == s
        assert all(dist[u] <= dist[v] for u, v in zip(reached, reached[1:]))

    @given(connected_graphs(max_order=25), st.integers(1, 4), st.data())
    @settings(max_examples=150)
    def test_relaxation_matches_set_distance(self, g, radius, data):
        # relaxing from each new source keeps the set-distance exact within
        # radius, with every value above radius capped at radius + 1
        sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=6))
        cap = radius + 1
        dist = [cap] * g.n
        for i, s in enumerate(sources):
            before = list(dist)
            _, reached = graphs._ball(g.adj, s, radius, dist)
            expected = [min(set_distance(g, v, sources[: i + 1]), cap) for v in range(g.n)]
            assert dist == expected
            assert sorted(reached) == [v for v in range(g.n) if dist[v] < before[v] or v == s]


def _rooted(t, root):
    """Parents and transmissions of ``t`` rooted at ``root``, as the
    construction reads them: one BFS roots the edges, one rerooting pass
    sums them."""
    from proxrem.construction import _tree_edges

    edges = _tree_edges(t, root)
    parent = [-1] * t.n
    for child, up in edges:
        parent[child] = up
    return parent, _tree_sigmas(edges, t.n, [1] * t.n)


class TestTreeDistances:
    """T's distances as the construction reads them: parents and
    transmissions of a rooted tree, rerooted along the edges of one BFS."""

    @given(labeled_trees(max_order=30), st.data())
    @settings(max_examples=80)
    def test_matches_floyd_warshall(self, t, data):
        root = data.draw(st.integers(0, t.n - 1))
        parent, trans = _rooted(t, root)
        fw = floyd_warshall(t)
        assert trans == [sum(row) for row in fw]
        assert parent[root] == -1
        for v in range(t.n):
            if v != root:
                assert t.has_edge(v, parent[v])
                assert fw[root][parent[v]] == fw[root][v] - 1

    def test_order_one(self):
        assert _rooted(px.graph_from_edges(1, []), 0) == ([-1], [0])

    @pytest.mark.parametrize(
        "g",
        [px.cycle_graph(4), px.graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])],
        ids=["cycle", "n-1_edges_disconnected"],
    )
    def test_non_tree_rejected(self, g):
        with pytest.raises(px.ConstructionError, match="^result is not a spanning tree$"):
            _rooted(g, 0)

    @pytest.mark.parametrize(
        "t", [px.path_graph(300), px.star_graph(299)], ids=["path", "star"]
    )
    def test_deep_and_shallow_trees_match_bfs(self, t):
        root = t.n // 2
        parent, trans = _rooted(t, root)
        assert trans == [sum(graphs._bfs(t.adj, v)) for v in range(t.n)]
        depth = graphs._bfs(t.adj, root)
        assert all(depth[parent[v]] == depth[v] - 1 for v in range(t.n) if v != root)
