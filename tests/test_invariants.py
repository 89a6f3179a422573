from fractions import Fraction

import pytest
from hypothesis import given, settings

import proxrem as px

from .conftest import bfs_spanning_tree, connected_graphs, floyd_warshall


class TestTransmission:
    def test_path_end(self):
        g = px.path_graph(4)
        d = px.all_pairs_distances(g)
        assert px.invariant_summary(g, d).transmissions[0] == 6

    def test_complete(self):
        g = px.complete_graph(5)
        d = px.all_pairs_distances(g)
        assert px.invariant_summary(g, d).transmissions[2] == 4

    def test_five_cycle(self):
        g = px.cycle_graph(5)
        d = px.all_pairs_distances(g)
        assert px.invariant_summary(g, d).transmissions[0] == 6

    def test_disconnected_rejected(self):
        g = px.graph_from_edges(4, [(0, 1), (2, 3)])
        d = px.all_pairs_distances(g)
        with pytest.raises(ValueError):
            px.invariant_summary(g, d).transmissions[0]


class TestSummary:
    def test_frozen_values(self):
        assert px.invariant_summary(px.path_graph(5)).proximity == Fraction(3, 2)
        assert px.invariant_summary(px.path_graph(6)).proximity == Fraction(9, 5)
        assert px.invariant_summary(px.path_graph(4)).remoteness == 2
        c4 = px.invariant_summary(px.cycle_graph(4))
        assert c4.proximity == c4.remoteness == Fraction(4, 3)

    def test_median_sets(self):
        inv = px.invariant_summary(px.path_graph(5))
        assert inv.median == (2,)
        assert inv.antimedian == (0, 4)

    def test_too_small(self):
        with pytest.raises(ValueError):
            px.invariant_summary(px.graph_from_edges(1, []))

    def test_disconnected(self):
        with pytest.raises(ValueError):
            px.invariant_summary(px.graph_from_edges(4, [(0, 1), (2, 3)]))

    @given(connected_graphs())
    @settings(max_examples=80)
    def test_structural_invariants(self, g):
        inv = px.invariant_summary(g)
        trans = inv.transmissions
        assert list(trans) == [sum(row) for row in floyd_warshall(g)]
        assert inv.proximity == Fraction(min(trans), g.n - 1)
        assert inv.remoteness == Fraction(max(trans), g.n - 1)
        assert 1 <= inv.proximity <= inv.remoteness
        assert inv.median == tuple(v for v in range(g.n) if trans[v] == min(trans))
        assert inv.antimedian == tuple(v for v in range(g.n) if trans[v] == max(trans))


class TestClassicalBounds:
    def test_frozen_values(self):
        assert px.classical_bounds(5, 1).pi_order == Fraction(3, 2)
        assert px.classical_bounds(20, 3).rho_min_degree == 11
        assert px.classical_bounds(2, 1).rho_order == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            px.classical_bounds(1, 1)
        with pytest.raises(ValueError):
            px.classical_bounds(5, 0)
        with pytest.raises(ValueError):
            px.classical_bounds(5, 5)

    @given(connected_graphs())
    @settings(max_examples=80)
    def test_all_four_bounds_hold(self, g):
        inv = px.invariant_summary(g)
        delta, _ = px.degree_stats(g)
        b = px.classical_bounds(g.n, delta)
        assert inv.remoteness <= b.rho_order
        assert inv.proximity <= b.pi_order
        assert inv.remoteness <= b.rho_min_degree
        assert inv.proximity <= b.pi_min_degree

    @pytest.mark.parametrize("n", range(2, 31))
    def test_paths_attain_order_bounds(self, n):
        inv = px.invariant_summary(px.path_graph(n))
        b = px.classical_bounds(n, 1)
        assert inv.remoteness == b.rho_order
        assert inv.proximity == b.pi_order

    @pytest.mark.parametrize("n", range(3, 31))
    def test_cycles_attain_proximity_bound(self, n):
        inv = px.invariant_summary(px.cycle_graph(n))
        assert inv.proximity == px.classical_bounds(n, 2).pi_order

    @given(connected_graphs())
    @settings(max_examples=60)
    def test_spanning_tree_dominates(self, g):
        t = bfs_spanning_tree(g)
        gi = px.invariant_summary(g)
        ti = px.invariant_summary(t)
        assert gi.proximity <= ti.proximity
        assert gi.remoteness <= ti.remoteness
