from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import proxrem as px
from proxrem.graphs import (
    INF,
    MAX_ORDER,
    ParseError,
    _distances_python,
    _distances_scipy,
    tree_distances,
)

from .conftest import (
    arbitrary_graphs,
    connected_graphs,
    floyd_warshall,
    labeled_trees,
    set_distance,
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

    @given(connected_graphs())
    def test_render_round_trip(self, g):
        assert px.parse_graph(px.render_graph(g)) == g

    def test_render_sorted_header(self):
        text = px.render_graph(px.cycle_graph(3))
        assert text == "3 3\n0 1\n0 2\n1 2\n"


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

    def test_set_distance(self):
        p5 = px.path_graph(5)
        assert set_distance(p5, 4, {0, 1}) == 3
        assert set_distance(p5, 1, {0, 1, 3}) == 0
        assert set_distance(px.cycle_graph(6), 3, {0}) == 3

    def test_set_distance_empty_set(self):
        with pytest.raises(ValueError):
            set_distance(px.path_graph(3), 0, set())


class TestDistances:
    def test_known_values(self):
        c4 = px.all_pairs_distances(px.cycle_graph(4))
        assert c4.d(0, 2) == 2
        p6 = px.all_pairs_distances(px.path_graph(6))
        assert p6.d(0, 5) == 5
        k4 = px.all_pairs_distances(px.complete_graph(4))
        assert all(k4.d(i, j) == 1 for i in range(4) for j in range(4) if i != j)

    def test_disconnected_marked_inf(self):
        g = px.graph_from_edges(4, [(0, 1), (2, 3)])
        d = px.all_pairs_distances(g)
        assert d.d(0, 2) == INF
        assert d.matrix.tolist() == [
            [0, 1, INF, INF], [1, 0, INF, INF], [INF, INF, 0, 1], [INF, INF, 1, 0]
        ]

    @given(arbitrary_graphs())
    @settings(max_examples=60)
    def test_matches_floyd_warshall(self, g):
        d = px.all_pairs_distances(g)
        fw = floyd_warshall(g)
        assert d.matrix.tolist() == fw

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_oracle_invariants(self, g):
        d = px.all_pairs_distances(g)
        m = d.matrix
        assert (np.diag(m) == 0).all()
        assert (m == m.T).all()
        for u in range(g.n):
            for v in range(g.n):
                assert (m[u, v] == 1) == (u != v and g.has_edge(u, v))
        # triangle inequality through every midpoint
        for w in range(g.n):
            assert (m <= m[:, w : w + 1] + m[w : w + 1, :]).all()

    @given(arbitrary_graphs(max_order=60))
    @settings(max_examples=30, deadline=None)
    def test_backends_identical(self, g):
        assert (_distances_python(g.adj) == _distances_scipy(g.adj)).all()

    def test_repeated_runs_identical(self):
        g = px.cycle_graph(50)
        a = px.all_pairs_distances(g).matrix
        b = px.all_pairs_distances(g).matrix
        assert (a == b).all()


class TestTreeDistances:
    @given(labeled_trees(max_order=12))
    @settings(max_examples=80)
    def test_matches_floyd_warshall(self, t):
        d = tree_distances(t)
        assert d.matrix.dtype == np.int64
        assert d.matrix.tolist() == floyd_warshall(t)
        assert not d.matrix.flags.writeable

    def test_order_one(self):
        assert tree_distances(px.graph_from_edges(1, [])).matrix.tolist() == [[0]]

    @pytest.mark.parametrize(
        "g",
        [px.cycle_graph(4), px.graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])],
        ids=["cycle", "n-1_edges_disconnected"],
    )
    def test_non_tree_rejected(self, g):
        with pytest.raises(ValueError, match="tree"):
            tree_distances(g)

    @pytest.mark.parametrize(
        "t", [px.path_graph(300), px.star_graph(299)], ids=["path", "star"]
    )
    def test_deep_and_shallow_trees_match_bfs(self, t):
        assert (tree_distances(t).matrix == _distances_python(t.adj)).all()
