import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxrem as px
from proxrem import graphs
from proxrem.construction import trace_to_json
from proxrem.graphs import _tree_sigmas, weighted_transmissions

from .conftest import (
    connected_graphs,
    floyd_warshall,
    labeled_trees,
    set_distance,
    weighted_floyd_warshall,
)


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
    fw_t = floyd_warshall(t)
    for v in range(n):
        b = trace.nearest_anchor[v]
        assert b in trace.anchors
        assert fw_t[v][b] <= 2
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
            expected = fw_t[trace.anchors[i]][trace.anchors[j]] <= 3
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

    def test_broken_tree_is_a_construction_error(self, monkeypatch, tmp_path, capsys):
        # T's connectivity is read off its one BFS; a core tree
        # missing its connector fails there with the spanning-tree message,
        # and verify exits 1 as for any failed construction invariant
        from proxrem import construction
        from proxrem.cli import main

        real = construction._grow_anchor_tree

        def drop_connector(g):
            anchors, edges, in_tree = real(g)
            return anchors, edges[:-1], in_tree

        monkeypatch.setattr(construction, "_grow_anchor_tree", drop_connector)
        with pytest.raises(px.ConstructionError, match="^result is not a spanning tree$"):
            px.build_construction(px.path_graph(7))
        f = tmp_path / "p7.edges"
        f.write_text(px.render_graph(px.path_graph(7)))
        assert main(["verify", "--chain", str(f)]) == 1
        assert capsys.readouterr().err == (
            "construction invariant failed: result is not a spanning tree\n"
        )

    def test_tree_is_searched_once(self, monkeypatch):
        from proxrem import construction

        checked = []
        monkeypatch.setattr(construction, "is_connected", lambda h: checked.append(h.n) or True)
        trace = px.build_construction(px.path_graph(7))
        assert checked == [len(trace.anchors)]  # F only; T's BFS roots its edges

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            px.build_construction(px.graph_from_edges(1, []))
        # the anchor growth finds a disconnected graph with no BFS of G
        with pytest.raises(ValueError, match="^construction needs a connected graph$"):
            px.build_construction(px.graph_from_edges(4, [(0, 1), (2, 3)]))
        with pytest.raises(ValueError, match="^construction needs a connected graph$"):
            px.build_construction(px.graph_from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]))


class TestSubOperations:
    def test_contract_weights_assigns_anchors_to_themselves(self):
        g = px.cycle_graph(9)
        trace = px.build_construction(g)
        assignment, counts = px.contract_weights(trace.tree, trace.anchors)
        assert assignment == trace.nearest_anchor
        assert counts == trace.weights
        for b in trace.anchors:
            assert assignment[b] == b

    def test_auxiliary_graph_single_anchor(self):
        g = px.star_graph(3)
        trace = px.build_construction(g)
        aux = px.auxiliary_graph(trace.tree, trace.anchors)
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


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the ConstructionError it raises."""
    try:
        return fn(*args)
    except px.ConstructionError as exc:
        return f"ConstructionError: {exc}"


def _contract_by_floyd_warshall(tree, anchors):
    """Nearest anchor by full tree distances, ties to the lowest anchor id."""
    fw = floyd_warshall(tree)
    cols = sorted(anchors)
    if max(min(fw[v][b] for b in cols) for v in range(tree.n)) > 2:
        raise px.ConstructionError("a vertex is farther than 2 from every anchor")
    nearest = tuple(min(cols, key=lambda b: (fw[v][b], b)) for v in range(tree.n))
    return nearest, {b: nearest.count(b) for b in anchors}


def _aux_by_floyd_warshall(tree, anchors):
    fw = floyd_warshall(tree)
    r = len(anchors)
    sub = [[fw[a][b] for b in anchors] for a in anchors]
    aux = px.graph_from_edges(r, [(i, j) for i in range(r) for j in range(i + 1, r) if sub[i][j] <= 3])
    for i in range(1, r):
        if 3 not in sub[i][:i]:
            raise px.ConstructionError(f"anchor {anchors[i]} has no predecessor at tree-distance 3")
    if not px.is_connected(aux):
        raise px.ConstructionError("auxiliary graph is disconnected")
    return aux


class TestMatrixFreeTree:
    """The stages that read T through balls, against full tree distances."""

    @given(labeled_trees(max_order=14), st.data())
    @settings(max_examples=200, deadline=None)
    def test_stages_match_floyd_warshall(self, t, data):
        anchors = data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=6, unique=True))
        assert _outcome(px.contract_weights, t, anchors) == _outcome(
            _contract_by_floyd_warshall, t, anchors
        )
        assert _outcome(px.auxiliary_graph, t, anchors) == _outcome(
            _aux_by_floyd_warshall, t, anchors
        )

    @given(connected_graphs(max_order=14))
    @settings(max_examples=100, deadline=None)
    def test_construction_aux_matches_floyd_warshall(self, g):
        # the balls share one distance list; each must still start fresh
        trace = px.build_construction(g)
        assert trace.aux == _aux_by_floyd_warshall(trace.tree, trace.anchors)

    def test_aux_on_a_path_of_order_10_000(self):
        # T is the path itself, so anchors are adjacent in F exactly when
        # their ids differ by at most 3
        from proxrem import construction

        p = px.path_graph(10_000)
        anchors = construction._grow_anchor_tree(p)[0]
        aux = px.auxiliary_graph(p, anchors)
        by_id = sorted(range(len(anchors)), key=anchors.__getitem__)
        expected = {
            tuple(sorted((i, j)))
            for k, i in enumerate(by_id)
            for j in by_id[k + 1 : k + 3]
            if anchors[j] - anchors[i] <= 3
        }
        assert len(anchors) > 3000 and set(aux.edges()) == expected

    def test_tie_goes_to_the_lowest_anchor(self):
        # vertex 1 is at distance 1 from both anchors
        assert px.contract_weights(px.path_graph(3), [2, 0]) == ((0, 0, 2), {2: 1, 0: 2})

    def test_aux_edges_on_a_path(self):
        aux = px.auxiliary_graph(px.path_graph(10), [4, 1, 7])
        assert sorted(aux.edges()) == [(0, 1), (0, 2)]

    @pytest.mark.parametrize(
        "stage,anchors,message",
        [
            (px.contract_weights, [0], "a vertex is farther than 2 from every anchor"),
            (px.auxiliary_graph, [0, 2], "anchor 2 has no predecessor at tree-distance 3"),
            (px.auxiliary_graph, [0, 3, 9], "anchor 9 has no predecessor at tree-distance 3"),
        ],
    )
    def test_failed_checks_keep_their_messages(self, stage, anchors, message):
        with pytest.raises(px.ConstructionError, match=f"^{message}$"):
            stage(px.path_graph(10), anchors)


def _sparse_order_1000():
    # a random recursive tree plus chords: order 1000, mean degree 3 and a
    # small diameter, so G takes the bit-parallel kernel
    rng = random.Random(1000)
    n = 1000
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 2)]
    return px.graph_from_edges(n, [(u, v) for u, v in edges if u != v])


def _grid(width, height):
    n = width * height
    edges = [(v, v + 1) for v in range(n) if (v + 1) % width]
    edges += [(v, v + width) for v in range(n - width)]
    return px.graph_from_edges(n, edges)


class TestMemory:
    def test_chains_peak_below_12_n_squared_bytes(self):
        # T and the construction's stages must add no n×n array
        g = _sparse_order_1000()
        n = g.n
        assert 2 * max(graphs._bfs(g.adj, 0)) <= graphs._MAX_LEVELS
        tracemalloc.start()
        try:
            report = px.bound_report(g, include_chains=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_hold()
        assert peak < 12 * n * n

    @pytest.mark.parametrize(
        "make, bitset", [(_sparse_order_1000, True), (lambda: _grid(10, 100), False)],
        ids=["bitset", "scipy"],
    )
    def test_chains_peak_below_2_n_squared_bytes(self, make, bitset):
        # G's transmissions come in batches and no n×n array is built,
        # so nothing of order n² is left; the warm-up keeps the one-time
        # scipy import out of the measurement
        px.bound_report(_grid(3, 30), include_chains=True)
        g = make()
        n = g.n
        assert (2 * max(graphs._bfs(g.adj, 0)) <= graphs._MAX_LEVELS) == bitset
        tracemalloc.start()
        try:
            report = px.bound_report(g, include_chains=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.all_hold()
        assert peak < 2 * n * n


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
        trace, inv = px.build_construction(g), px.invariant_summary(g)
        prox = px.certify_proximity_chain(trace, inv)
        rem = px.certify_remoteness_chain(trace, inv)
        assert all(link.holds for link in prox), [l for l in prox if not l.holds]
        assert all(link.holds for link in rem), [l for l in rem if not l.holds]

    def test_chain_is_transitive_to_final_bound(self):
        g = px.cycle_graph(12)
        trace, inv = px.build_construction(g), px.invariant_summary(g)
        links = {l.name: l for l in px.certify_proximity_chain(trace, inv)}
        bounds = px.degree_range_bounds(g.n, trace.delta, trace.Delta)
        assert links["proximity_bound"].lhs == inv.proximity
        assert links["proximity_bound"].rhs == bounds.pi_bound

    def test_extremal_graph_chain(self):
        g = px.extremal_graph(px.ExtremalParams(20, 3, 8))
        trace, inv = px.build_construction(g), px.invariant_summary(g)
        assert all(l.holds for l in px.certify_proximity_chain(trace, inv))
        rem = px.certify_remoteness_chain(trace, inv)
        assert all(l.holds for l in rem)
        final = [l for l in rem if l.name == "remoteness_bound"][0]
        assert final.rhs == Fraction(259, 19)

    @given(connected_graphs(max_order=14))
    @settings(max_examples=60, deadline=None)
    def test_chains_hold_on_random_graphs(self, g):
        trace, inv = px.build_construction(g), px.invariant_summary(g)
        _verify_trace_invariants(g, trace)
        assert all(l.holds for l in px.certify_proximity_chain(trace, inv))
        assert all(l.holds for l in px.certify_remoteness_chain(trace, inv))


def _tree_by_documented_rule(g, anchors):
    """T rebuilt from the anchor order alone: each anchor's star, joined by
    the first tree-to-star edge found scanning tree vertices x upward from
    0 (and x's sorted neighbours), then every leftover vertex attached to
    its lowest-index core neighbour."""
    in_tree = [False] * g.n
    edges = []
    for i, b in enumerate(anchors):
        star = {b, *g.adj[b]}
        if i:
            edges.append(
                next((x, y) for x in range(g.n) if in_tree[x] for y in g.adj[x] if y in star)
            )
        edges.extend((b, w) for w in g.adj[b])
        for w in star:
            in_tree[w] = True
    for v in range(g.n):
        if not in_tree[v]:
            edges.append((min(w for w in g.adj[v] if in_tree[w]), v))
    return px.graph_from_edges(g.n, edges)


def _anchors_by_matrix_rule(g):
    """B by full distance rows: start at the lowest max-degree vertex, then
    take the lowest vertex at set-distance exactly 3 until there is none."""
    fw = floyd_warshall(g)
    degs = [g.degree(v) for v in range(g.n)]
    anchors = [degs.index(max(degs))]
    dist = list(fw[anchors[0]])
    while 3 in dist:
        b = dist.index(3)
        anchors.append(b)
        dist = [min(x, y) for x, y in zip(dist, fw[b])]
    return tuple(anchors)


class TestAnchorTree:
    @given(connected_graphs(max_order=14))
    @settings(max_examples=80, deadline=None)
    def test_tree_follows_documented_rule(self, g):
        trace = px.build_construction(g)
        assert trace.tree == _tree_by_documented_rule(g, trace.anchors)

    @given(connected_graphs(max_order=40))
    @settings(max_examples=80, deadline=None)
    def test_anchors_match_matrix_rule(self, g):
        assert px.build_construction(g).anchors == _anchors_by_matrix_rule(g)

    @pytest.mark.parametrize(
        "g",
        [
            px.path_graph(40),
            px.cycle_graph(31),
            _grid(5, 9),
            px.extremal_graph(px.ExtremalParams(20, 3, 8)),
            px.sample_corpus(1729, 1, 60)[0],
        ],
        ids=["P40", "C31", "grid5x9", "extremal", "random60"],
    )
    def test_anchors_match_matrix_rule_on_shapes(self, g):
        assert px.build_construction(g).anchors == _anchors_by_matrix_rule(g)


def _check_trace_sums(trace):
    """σ_c,T, σ_c,F and the q-adjusted sum the trace holds at each anchor,
    against Floyd–Warshall on T and F."""
    fw_tree = floyd_warshall(trace.tree)
    fw_aux = floyd_warshall(trace.aux)
    weights = [trace.weights[b] for b in trace.anchors]
    w0_pos = trace.anchors.index(trace.w0)
    sigma_f = weighted_floyd_warshall(trace.aux, weights)
    for i, b in enumerate(trace.anchors):
        assert trace.contracted_tree[i] == sum(w * fw_tree[b][a] for a, w in zip(trace.anchors, weights))
        assert trace.contracted_aux[i] == sigma_f[i]
        assert trace.adjusted_aux[i] == sigma_f[i] + trace.q * fw_aux[i][w0_pos]


class TestDistanceReuse:
    def test_report_with_chains_computes_tree_and_aux_distances_once(self, monkeypatch):
        from proxrem import construction, invariants

        calls, full_bfs, reroots, aux_calls = [], [], [], []

        def counting(g):
            calls.append(g.n)
            return px.all_pairs_distances(g)

        def counting_ball(adj, s, radius, dist=None):
            if radius == graphs.INF:
                full_bfs.append(len(adj))
            return graphs._ball(adj, s, radius, dist)

        def counting_reroot(edges, m, w):
            reroots.append(m)
            return _tree_sigmas(edges, m, w)

        def counting_aux(f, weights):
            aux_calls.append(f.n)
            return weighted_transmissions(f, weights)

        monkeypatch.setattr(construction, "all_pairs_distances", counting)
        monkeypatch.setattr(invariants, "all_pairs_distances", counting)
        monkeypatch.setattr(construction, "_ball", counting_ball)
        monkeypatch.setattr(construction, "_tree_sigmas", counting_reroot)
        monkeypatch.setattr(construction, "weighted_transmissions", counting_aux)
        g = px.cycle_graph(12)
        report = px.bound_report(g, include_chains=True)
        assert report.all_hold()
        assert calls == [12]  # G only; neither T nor F has an oracle
        assert full_bfs == [12]  # T's one BFS, which roots its edges
        assert reroots == [12, 12]  # T's contracted sums and its transmissions
        assert aux_calls == [4]  # F on the four anchors

    @given(connected_graphs(max_order=12))
    @settings(max_examples=40, deadline=None)
    def test_trace_distances_match_floyd_warshall(self, g):
        trace = px.build_construction(g)
        _check_trace_sums(trace)
        fw_tree = floyd_warshall(trace.tree)
        # w0 is the lowest-id anchor of least weighted transmission in F
        weights = [trace.weights[b] for b in trace.anchors]
        sigma = weighted_floyd_warshall(trace.aux, weights)
        assert weighted_transmissions(trace.aux, weights) == sigma
        assert trace.w0 == min(b for b, s in zip(trace.anchors, sigma) if s == min(sigma))
        assert trace.tree_summary == px.invariant_summary(trace.tree)
        # parent[v] is v's tree neighbour one step closer to the root
        b0 = trace.anchors[0]
        assert trace.parent[b0] == -1
        for v in range(g.n):
            if v != b0:
                p = trace.parent[v]
                assert trace.tree.has_edge(v, p)
                assert fw_tree[p][b0] == fw_tree[v][b0] - 1

    @pytest.mark.parametrize(
        "g",
        [px.path_graph(7), px.cycle_graph(12), px.extremal_graph(px.ExtremalParams(20, 3, 8))],
        ids=["P7", "C12", "extremal"],
    )
    def test_report_chains_equal_standalone_chains(self, g):
        report = px.bound_report(g, include_chains=True)
        trace, inv = px.build_construction(g), px.invariant_summary(g)
        assert report.proximity_chain == px.certify_proximity_chain(trace, inv)
        assert report.remoteness_chain == px.certify_remoteness_chain(trace, inv)

    @pytest.mark.parametrize(
        "g",
        [px.sample_corpus(1729, 1, 60)[0], _grid(3, 30)],
        ids=["random60", "grid3x30"],
    )
    def test_report_with_chains_never_builds_g_matrix(self, monkeypatch, g):
        from proxrem import construction

        oracles = []

        def recording(h):
            oracles.append(px.all_pairs_distances(h))
            return oracles[-1]

        monkeypatch.setattr(construction, "all_pairs_distances", recording)
        assert g.n >= 25
        assert px.bound_report(g, include_chains=True).all_hold()
        assert len(oracles) == 1  # G; F has weighted transmissions only
        # G's oracle holds its transmissions and nothing else
        assert set(vars(oracles[0])) == {"connected", "transmissions", "_adj"}

    def test_trace_equality_ignores_distance_fields(self):
        g = px.cycle_graph(9)
        a, b = px.build_construction(g), px.build_construction(g)
        assert a.tree_summary is not b.tree_summary and a == b
        sums = ("tree_summary", "contracted_tree", "contracted_aux", "adjusted_aux")
        assert not any(name in repr(a) for name in sums)
        assert not any(name in trace_to_json(a) for name in sums)
        assert a._replace(contracted_aux=(0,) * len(a.anchors)) == a

    @pytest.mark.parametrize(
        "g",
        [px.path_graph(7), px.cycle_graph(12), px.extremal_graph(px.ExtremalParams(20, 3, 8))],
        ids=["P7", "C12", "extremal"],
    )
    def test_trace_sums_match_floyd_warshall_on_shapes(self, g):
        _check_trace_sums(px.build_construction(g))

    @pytest.mark.parametrize(
        "g",
        [
            px.path_graph(7),
            px.cycle_graph(12),
            px.extremal_graph(px.ExtremalParams(20, 3, 8)),
            px.sample_corpus(1729, 1, 60)[0],
        ],
        ids=["P7", "C12", "extremal", "random60"],
    )
    def test_certifiers_do_no_distance_work(self, monkeypatch, g):
        from proxrem import construction

        trace, inv = px.build_construction(g), px.invariant_summary(g)
        expected = (
            px.certify_proximity_chain(trace, inv),
            px.certify_remoteness_chain(trace, inv),
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("a certifier computed a distance")

        for module, name in (
            (construction, "_bfs"),
            (construction, "_ball"),
            (construction, "_tree_sigmas"),
            (construction, "weighted_transmissions"),
            (construction, "all_pairs_distances"),
            (graphs, "_transmissions_bigint"),
            (graphs, "_transmissions_scipy"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        assert (
            px.certify_proximity_chain(trace, inv),
            px.certify_remoteness_chain(trace, inv),
        ) == expected


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
