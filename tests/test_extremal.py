from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxrem as px
from proxrem import extremal, graphs, invariants
from proxrem.construction import degree_range_bounds
from proxrem.extremal import (
    ExtremalParams,
    SequentialSumSpec,
    SharpnessRecord,
    extremal_block_sizes,
    layer_assignment,
    nearest_valid_n,
    sequential_sum_degrees,
    sequential_sum_transmissions,
    valid_Deltas,
)

from .conftest import floyd_warshall


def _specs(max_size, max_blocks):
    return st.lists(st.integers(1, max_size), min_size=1, max_size=max_blocks).map(
        lambda b: SequentialSumSpec(tuple(b)))


#: One to fifteen blocks of 1–5 vertices: orders 1–75.
specs = _specs(5, 15)


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
        # vertices in non-adjacent blocks are exactly block-index apart
        assert floyd_warshall(g)[0][3] == 2

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            SequentialSumSpec(())
        with pytest.raises(ValueError):
            SequentialSumSpec((2, 0))


def _per_vertex(spec, per_block):
    """A per-block tuple expanded to the built graph's vertex order."""
    return tuple(value for value, size in zip(per_block, spec.blocks, strict=True) for _ in range(size))


class TestBlockFormulas:
    """Transmissions and degrees from block sizes, against the built graph."""

    @given(specs)
    @example(SequentialSumSpec((1,)))
    @example(SequentialSumSpec((6,)))
    @example(SequentialSumSpec((1,) * 15))
    @example(SequentialSumSpec((3, 4)))
    @example(SequentialSumSpec((5,) * 15))
    @settings(max_examples=150, deadline=None)
    def test_transmissions_match_bfs(self, spec):
        g = px.sequential_sum(spec)
        expected = px.all_pairs_distances(g).transmissions
        assert _per_vertex(spec, sequential_sum_transmissions(spec)) == expected

    @given(_specs(4, 10))  # orders to 40 for the cubic Floyd–Warshall
    @example(SequentialSumSpec((1,)))
    @example(SequentialSumSpec((1,) * 15))
    @example(SequentialSumSpec((2, 5)))
    @settings(max_examples=40, deadline=None)
    def test_transmissions_match_floyd_warshall(self, spec):
        assert _per_vertex(spec, sequential_sum_transmissions(spec)) == tuple(
            map(sum, floyd_warshall(px.sequential_sum(spec))))

    @given(specs)
    @example(SequentialSumSpec((1,)))
    @example(SequentialSumSpec((4,)))
    @example(SequentialSumSpec((1, 1)))
    @settings(max_examples=150, deadline=None)
    def test_degrees_match_graph(self, spec):
        g = px.sequential_sum(spec)
        assert _per_vertex(spec, sequential_sum_degrees(spec)) == tuple(g.degree(v) for v in range(g.n))

    @pytest.mark.parametrize("delta, lo, hi", [(3, 16, 60), (4, 10, 50)])
    def test_sweep_matches_built_graphs(self, delta, lo, hi):
        records = px.sharpness_sweep(delta, lo, hi)
        assert records == [_record_from_graph(ExtremalParams(r.n, delta, r.Delta)) for r in records]

    def test_report_builds_no_graph(self, monkeypatch):
        for module in (extremal, graphs, invariants):
            for name in ("graph_from_edges", "all_pairs_distances"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _raise)
        records = px.sharpness_sweep(3, 16, 40)
        assert len(records) == sum(len(valid_Deltas(n, 3)) for n in range(16, 41))
        assert px.sharpness_report(ExtremalParams(20, 3, 8)) in records
        with pytest.raises(AssertionError):
            px.extremal_graph(ExtremalParams(20, 3, 8))


def _raise(*args, **kwargs):
    raise AssertionError("the sharpness sweep must not build a graph or run a BFS")


def _record_from_graph(p):
    """The sharpness record of ``p`` from its built graph's BFS."""
    g = px.extremal_graph(p)
    assert px.degree_stats(g) == (p.delta, p.Delta)
    inv = px.invariant_summary(g)
    bounds = degree_range_bounds(p.n, p.delta, p.Delta)
    limits = ([Fraction(49, 4)] if 2 * p.Delta <= p.n else []) + (
        [6 * p.delta + Fraction(5, 2)] if 2 * p.Delta >= p.n else []
    )
    gap_pi, gap_rho = bounds.pi_bound - inv.proximity, bounds.rho_bound - inv.remoteness
    return SharpnessRecord(
        n=p.n, delta=p.delta, Delta=p.Delta, case=bounds.case,
        proximity=inv.proximity, pi_bound=bounds.pi_bound, gap_pi=gap_pi,
        remoteness=inv.remoteness, rho_bound=bounds.rho_bound, gap_rho=gap_rho,
        gap_pi_limit=min(limits), within_limits=gap_pi < min(limits) and gap_rho <= Fraction(17, 2),
    )


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
        fw = floyd_warshall(g)
        for x in range(n):
            for y in range(n):
                gap = abs(layers[x] - layers[y])
                assert fw[x][y] >= 3 * gap - 2


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

    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_every_member_to_order_240_within_limits(self, delta):
        records = px.sharpness_sweep(delta, delta + 13, 240)
        assert len(records) == sum(len(valid_Deltas(n, delta)) for n in range(delta + 13, 241))
        assert all(r.within_limits for r in records)
