from fractions import Fraction

import pytest

import proxrem as px
from proxrem.extremal import (
    ExtremalParams,
    SequentialSumSpec,
    extremal_block_sizes,
    layer_assignment,
    nearest_valid_n,
    valid_Deltas,
)


class TestSequentialSum:
    def test_singletons_make_path(self):
        g = px.sequential_sum(SequentialSumSpec((1, 1, 1)))
        assert g == px.path_graph(3)

    def test_two_edges_make_k4(self):
        assert px.sequential_sum(SequentialSumSpec((2, 2))) == px.complete_graph(4)

    def test_triangle_plus_vertex_makes_k4(self):
        assert px.sequential_sum(SequentialSumSpec((3, 1))) == px.complete_graph(4)

    def test_block_distance_structure(self):
        g = px.sequential_sum(SequentialSumSpec((2, 1, 3)))
        d = px.all_pairs_distances(g)
        # vertices in non-adjacent blocks are exactly block-index apart
        assert d.d(0, 3) == 2

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SequentialSumSpec(())
        with pytest.raises(ValueError):
            SequentialSumSpec((2, 0))


class TestExtremalFamily:
    def test_params_validation(self):
        with pytest.raises(ValueError, match="minimum degree"):
            ExtremalParams(20, 2, 8)
        with pytest.raises(ValueError, match="delta < Delta < n"):
            ExtremalParams(20, 4, 4)
        with pytest.raises(ValueError, match="divisible"):
            ExtremalParams(20, 3, 9)

    def test_nearest_valid_n(self):
        assert nearest_valid_n(20, 3, 9) == 21
        assert nearest_valid_n(20, 3, 8) == 20

    def test_block_sizes_20_3_8(self):
        p = ExtremalParams(20, 3, 8)
        assert p.k == 3
        assert extremal_block_sizes(p) == (3, 1, 1, 2, 1, 1, 2, 1, 1, 7)

    def test_graph_20_3_8(self):
        g = px.extremal_graph(ExtremalParams(20, 3, 8))
        assert g.n == 20
        assert px.degree_stats(g) == (3, 8)

    def test_graph_11_3_7_single_pattern(self):
        p = ExtremalParams(11, 3, 7)
        assert p.k == 1
        assert extremal_block_sizes(p) == (3, 1, 1, 6)
        assert px.degree_stats(px.extremal_graph(p)) == (3, 7)

    @pytest.mark.parametrize("n,delta,Delta", [(20, 3, 8), (22, 4, 12), (34, 5, 10)])
    def test_degree_profile(self, n, delta, Delta):
        p = ExtremalParams(n, delta, Delta)
        g = px.extremal_graph(p)
        assert px.degree_stats(g) == (delta, Delta)
        sizes = extremal_block_sizes(p)
        # last block (the big clique) has degree Delta - 1 throughout,
        # the single vertex before it has degree Delta
        start_last = n - sizes[-1]
        assert g.degree(start_last - 1) == Delta
        assert all(g.degree(v) == Delta - 1 for v in range(start_last, n))
        # the vertex joining the leading clique has degree delta + 1
        assert g.degree(delta) == delta + 1
        assert all(g.degree(v) == delta for v in range(delta))

    def test_layer_partition(self):
        p = ExtremalParams(20, 3, 8)
        layers = layer_assignment(p)
        counts = [layers.count(i) for i in range(p.k + 1)]
        assert counts == [4, 4, 4, 8]
        assert counts[-1] == p.Delta
        assert all(c == p.delta + 1 for c in counts[:-1])

    @pytest.mark.parametrize("n,delta,Delta", [(20, 3, 8), (16, 3, 8), (27, 4, 12)])
    def test_layer_distance_property(self, n, delta, Delta):
        p = ExtremalParams(n, delta, Delta)
        g = px.extremal_graph(p)
        layers = layer_assignment(p)
        d = px.all_pairs_distances(g)
        for x in range(n):
            for y in range(n):
                gap = abs(layers[x] - layers[y])
                assert d.d(x, y) >= 3 * gap - 2


class TestSharpness:
    def test_small_delta_case(self):
        r = px.sharpness_report(ExtremalParams(20, 3, 8))
        assert r.case == "small-Delta"
        assert r.gap_pi < Fraction(49, 4)
        assert r.gap_rho <= Fraction(17, 2)
        assert r.within_limits

    def test_large_delta_case(self):
        r = px.sharpness_report(ExtremalParams(20, 3, 16))
        assert 2 * r.Delta >= r.n
        assert r.gap_pi < 6 * 3 + Fraction(5, 2)
        assert r.within_limits

    def test_boundary_applies_both_limits(self):
        # Delta = n/2: both proximity gap limits apply, so the record
        # carries the tighter one
        r = px.sharpness_report(ExtremalParams(16, 3, 8))
        assert r.gap_pi_limit == Fraction(49, 4)
        assert r.within_limits

    def test_valid_deltas(self):
        assert valid_Deltas(20, 3) == [4, 8, 12, 16]

    def test_sweep_consistency(self):
        records = px.sharpness_sweep(3, 16, 28)
        assert len(records) == sum(len(valid_Deltas(n, 3)) for n in range(16, 29))
        assert all(r.within_limits for r in records)
        assert px.sharpness_sweep(3, 16, 28, jobs=2) == records
