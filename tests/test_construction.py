from fractions import Fraction

import pytest
from hypothesis import given, settings

import proxrem as px
from proxrem.construction import trace_to_json

from .conftest import connected_graphs, floyd_warshall, set_distance


def _verify_trace_invariants(g, trace):
    """Independent re-check of every structural claim on a trace."""
    n = g.n
    delta, Delta = px.degree_stats(g)
    t = trace.tree
    assert t.edge_count() == n - 1 and px.is_connected(t)
    assert t.degree(trace.anchors[0]) == g.degree(trace.anchors[0]) == Delta
    # anchors dominate at radius 2 in G; every later anchor was picked at
    # set-distance exactly 3 from its predecessors
    for v in range(n):
        assert set_distance(g, v, trace.anchors) <= 2
    for i in range(1, len(trace.anchors)):
        assert set_distance(g, trace.anchors[i], trace.anchors[:i]) == 3
    # contraction invariants
    d_t = px.all_pairs_distances(t)
    for v in range(n):
        b = trace.nearest_anchor[v]
        assert b in trace.anchors
        assert d_t.d(v, b) <= 2
        if v in trace.anchors:
            assert b == v
    assert sum(trace.weights.values()) == n
    for b in trace.anchors:
        assert trace.weights[b] >= g.degree(b) + 1 >= delta + 1
    assert trace.weights[trace.anchors[0]] >= Delta + 1
    # auxiliary graph joins anchors at tree-distance <= 3 and is connected
    assert px.is_connected(trace.aux)
    for i in range(len(trace.anchors)):
        for j in range(i + 1, len(trace.anchors)):
            expected = d_t.d(trace.anchors[i], trace.anchors[j]) <= 3
            assert trace.aux.has_edge(i, j) == expected
    # q makes (n + q) - (Delta + 1) divisible by delta + 1
    assert 0 <= trace.q <= delta
    assert (n + trace.q - (Delta + 1)) % (delta + 1) == 0
    # w0 minimizes the contracted weighted distance on aux
    d_f = px.all_pairs_distances(trace.aux)
    wf = px.WeightFunction.of([trace.weights[b] for b in trace.anchors])
    medians = px.c_median(trace.aux, d_f, wf)
    assert trace.anchors.index(trace.w0) in medians


class TestPipelineExamples:
    def test_seven_path_trace(self):
        g = px.path_graph(7)
        trace = px.build_construction(g)
        assert trace_to_json(trace) == {
            "order": 7,
            "delta": 1,
            "Delta": 2,
            "anchors": [1, 4],
            "parent": [1, -1, 1, 2, 3, 4, 5],
            "nearest_anchor": [1, 1, 1, 4, 4, 4, 4],
            "weights": [[1, 3], [4, 4]],
            "aux_edges": [[1, 4]],
            "q": 0,
            "w0": 4,
        }
        assert sorted(trace.tree.edges()) == sorted(g.edges())
        assert all(c >= 2 for c in trace.weights.values())
        _verify_trace_invariants(g, trace)

    def test_star_trace(self):
        g = px.star_graph(5)
        trace = px.build_construction(g)
        assert trace.anchors == (0,)
        assert trace.tree == g
        assert trace.aux.n == 1
        assert trace.weights == {0: 6}
        _verify_trace_invariants(g, trace)

    def test_complete_graph_trace(self):
        g = px.complete_graph(7)
        trace = px.build_construction(g)
        assert trace.anchors == (0,)
        assert sorted(trace.tree.edges()) == [(0, v) for v in range(1, 7)]
        _verify_trace_invariants(g, trace)

    def test_nine_cycle_trace(self):
        g = px.cycle_graph(9)
        trace = px.build_construction(g)
        assert trace.anchors == (0, 3, 6)
        assert trace.weights == {0: 3, 3: 3, 6: 3}
        assert trace.w0 == 3
        _verify_trace_invariants(g, trace)

    def test_golden_trace_seeded_graph(self):
        g = px.sample_corpus(42, 1, 12)[0]
        assert trace_to_json(px.build_construction(g)) == {
            "order": 12,
            "delta": 1,
            "Delta": 6,
            "anchors": [0],
            "parent": [-1, 10, 0, 0, 0, 3, 2, 3, 0, 0, 0, 2],
            "nearest_anchor": [0] * 12,
            "weights": [[0, 12]],
            "aux_edges": [],
            "q": 1,
            "w0": 0,
        }

    def test_determinism(self):
        g = px.sample_corpus(7, 1, 40)[0]
        assert trace_to_json(px.build_construction(g)) == trace_to_json(
            px.build_construction(g)
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            px.build_construction(px.graph_from_edges(1, []))
        with pytest.raises(ValueError):
            px.build_construction(px.graph_from_edges(4, [(0, 1), (2, 3)]))


class TestSubOperations:
    def test_contract_weights_assigns_anchors_to_themselves(self):
        g = px.cycle_graph(9)
        trace = px.build_construction(g)
        assignment, counts = px.contract_weights(trace.anchors, trace.tree)
        assert assignment == trace.nearest_anchor
        assert counts == trace.weights
        for b in trace.anchors:
            assert assignment[b] == b

    def test_auxiliary_graph_single_anchor(self):
        g = px.star_graph(3)
        trace = px.build_construction(g)
        aux = px.auxiliary_graph(trace.anchors, trace.tree)
        assert aux.n == 1 and aux.edge_count() == 0

    def test_q_adjustment_values(self):
        assert px.q_adjustment(20, 8, 3) == 1
        assert px.q_adjustment(13, 8, 3) == 0  # 13 - 9 = 4, already a multiple
        assert px.q_adjustment(10, 4, 2) == 1

    @pytest.mark.parametrize("n,Delta,delta", [(30, 7, 3), (17, 9, 2), (9, 8, 5)])
    def test_q_adjustment_contract(self, n, Delta, delta):
        q = px.q_adjustment(n, Delta, delta)
        assert 0 <= q <= delta
        assert (n - (Delta + 1) + q) % (delta + 1) == 0


class TestDegreeRangeBounds:
    def test_frozen_values(self):
        b = px.degree_range_bounds(20, 3, 8)
        assert b.pi_bound == Fraction(869, 76)
        assert b.rho_bound == Fraction(259, 19)
        assert b.case == "small-Delta"
        b2 = px.degree_range_bounds(20, 3, 15)
        assert b2.pi_bound == Fraction(75, 152) + Fraction(13, 2)
        assert b2.case == "large-Delta"

    def test_case_boundary(self):
        # Delta > n/2 - 1 exactly when 2(Delta+1) > n
        assert px.degree_range_bounds(20, 3, 9).case == "small-Delta"
        assert px.degree_range_bounds(19, 3, 9).case == "large-Delta"

    def test_validation(self):
        with pytest.raises(ValueError):
            px.degree_range_bounds(5, 3, 2)
        with pytest.raises(ValueError):
            px.degree_range_bounds(5, 0, 2)


class TestChains:
    @pytest.mark.parametrize(
        "g",
        [
            px.complete_graph(6),
            px.path_graph(7),
            px.cycle_graph(12),
            px.star_graph(9),
            px.graph_from_edges(2, [(0, 1)]),
        ],
        ids=["K6", "P7", "C12", "star9", "K2"],
    )
    def test_chains_hold(self, g):
        trace = px.build_construction(g)
        prox = px.certify_proximity_chain(g, trace)
        rem = px.certify_remoteness_chain(g, trace)
        assert all(link.holds for link in prox), [l for l in prox if not l.holds]
        assert all(link.holds for link in rem), [l for l in rem if not l.holds]

    def test_chain_is_transitive_to_final_bound(self):
        g = px.cycle_graph(12)
        trace = px.build_construction(g)
        links = {l.name: l for l in px.certify_proximity_chain(g, trace)}
        bounds = px.degree_range_bounds(g.n, trace.delta, trace.Delta)
        inv = px.invariant_summary(g)
        assert links["proximity_bound"].lhs == inv.proximity
        assert links["proximity_bound"].rhs == bounds.pi_bound

    def test_extremal_graph_chain(self):
        g = px.extremal_graph(px.ExtremalParams(20, 3, 8))
        trace = px.build_construction(g)
        assert all(l.holds for l in px.certify_proximity_chain(g, trace))
        rem = px.certify_remoteness_chain(g, trace)
        assert all(l.holds for l in rem)
        final = [l for l in rem if l.name == "remoteness_bound"][0]
        assert final.rhs == Fraction(259, 19)

    @given(connected_graphs(max_order=14))
    @settings(max_examples=60, deadline=None)
    def test_chains_hold_on_random_graphs(self, g):
        trace = px.build_construction(g)
        _verify_trace_invariants(g, trace)
        assert all(l.holds for l in px.certify_proximity_chain(g, trace))
        assert all(l.holds for l in px.certify_remoteness_chain(g, trace))


class TestDistanceReuse:
    def test_report_with_chains_computes_tree_and_aux_distances_once(self, monkeypatch):
        from proxrem import construction, invariants

        calls = []

        def counting(g):
            calls.append(g.n)
            return px.all_pairs_distances(g)

        monkeypatch.setattr(construction, "all_pairs_distances", counting)
        monkeypatch.setattr(invariants, "all_pairs_distances", counting)
        g = px.cycle_graph(12)
        d = px.all_pairs_distances(g)
        report = px.bound_report(g, include_chains=True, oracle=d)
        assert report.all_hold()
        assert calls == [12, 4]  # T, then F on the four anchors

    @given(connected_graphs(max_order=12))
    @settings(max_examples=40, deadline=None)
    def test_trace_distances_match_floyd_warshall(self, g):
        trace = px.build_construction(g)
        assert trace.d_tree.matrix.tolist() == floyd_warshall(trace.tree)
        assert trace.d_aux.matrix.tolist() == floyd_warshall(trace.aux)
        assert trace.tree_summary == px.invariant_summary(trace.tree)

    @pytest.mark.parametrize(
        "g",
        [px.path_graph(7), px.cycle_graph(12), px.extremal_graph(px.ExtremalParams(20, 3, 8))],
        ids=["P7", "C12", "extremal"],
    )
    def test_report_chains_equal_standalone_chains(self, g):
        report = px.bound_report(g, include_chains=True)
        trace = px.build_construction(g)
        assert report.proximity_chain == px.certify_proximity_chain(g, trace)
        assert report.remoteness_chain == px.certify_remoteness_chain(g, trace)

    def test_trace_equality_ignores_distance_fields(self):
        g = px.cycle_graph(9)
        a, b = px.build_construction(g), px.build_construction(g)
        assert a.d_tree is not b.d_tree and a == b
        assert "d_tree" not in repr(a) and "tree_summary" not in repr(a)


class TestBoundReport:
    def test_k2_report(self):
        r = px.bound_report(px.graph_from_edges(2, [(0, 1)]), include_chains=True)
        assert r.proximity == r.remoteness == 1
        assert r.all_hold()
        assert r.proximity_chain is not None and r.remoteness_chain is not None

    def test_p100_order_bound_tight(self):
        r = px.bound_report(px.path_graph(100))
        assert r.remoteness == 50
        assert r.slack["remoteness_order"] == 0
        assert r.all_hold()

    def test_bound_names(self):
        r = px.bound_report(px.cycle_graph(5))
        assert set(r.bounds) == {
            "proximity_order",
            "proximity_min_degree",
            "proximity_degree_aware",
            "remoteness_order",
            "remoteness_min_degree",
            "remoteness_degree_aware",
        }
