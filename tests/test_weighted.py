import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxrem as px
from proxrem.weighted import WeightProfile, any_vertex_bound, median_bound

from .conftest import labeled_trees, rational_weights


def _wp(total, heavy, floor=1):
    return WeightProfile.of(total, heavy, floor)


def _median(p):
    return median_bound(p.total, p.heavy, p.floor)


def _any(p):
    return any_vertex_bound(p.total, p.heavy, p.floor)


class TestWeightFunction:
    def test_total_and_support(self):
        c = px.WeightFunction.of([0, Fraction(1, 2), 3])
        assert c.total == Fraction(7, 2)
        assert c.support() == (1, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            px.WeightFunction.of([1, -1])

    def test_line_round_trip(self):
        c = px.WeightFunction.of([Fraction(3, 7), 0, 5])
        assert px.WeightFunction.from_lines(c.to_lines(), 3) == c

    @pytest.mark.parametrize("text", ["3 1/2\n", "-1 1/2\n"], ids=["past-end", "negative"])
    def test_from_lines_vertex_out_of_range(self, text):
        with pytest.raises(px.ParseError, match="out of range"):
            px.WeightFunction.from_lines(text, 3)

    def test_from_lines_zero_denominator(self):
        with pytest.raises(px.ParseError, match="zero denominator"):
            px.WeightFunction.from_lines("0 1/0\n", 3)

    def test_from_lines_repeated_vertex(self):
        # a second line for one vertex would silently override the first
        with pytest.raises(px.ParseError, match=r"^line 2: vertex 0 repeats line 1: '0 5/1'$"):
            px.WeightFunction.from_lines("0 1/1\n0 5/1\n1 2/1", 2)
        with pytest.raises(px.ParseError, match="^line 4: vertex 1 repeats line 2: "):
            px.WeightFunction.from_lines("# w\n1 1/2\n\n1 1/2\n", 3)

    @pytest.mark.parametrize("text", ["0\n", "0 1 2\n", "x 1\n", "0 1/2/3\n"])
    def test_from_lines_malformed_line(self, text):
        with pytest.raises(px.ParseError, match="line 1"):
            px.WeightFunction.from_lines(text, 3)


class TestWeightedDistance:
    def test_hand_example(self):
        g = px.path_graph(3)
        d = px.all_pairs_distances(g)
        c = px.WeightFunction.of([3, 1, 1])
        assert px.weighted_distance(g, d, c, 0) == 3
        assert px.weighted_distance(g, d, c, 1) == 4
        assert px.weighted_distance(g, d, c, 2) == 7
        assert px.c_median(g, d, c) == (0,)

    def test_unit_weights_reduce_to_transmission(self):
        g = px.cycle_graph(7)
        d = px.all_pairs_distances(g)
        c = px.WeightFunction.unit(7)
        trans = px.invariant_summary(g, d).transmissions
        for v in range(7):
            assert px.weighted_distance(g, d, c, v) == trans[v]
        assert px.c_median(g, d, c) == px.invariant_summary(g, d).median

    def test_zero_weights(self):
        g = px.path_graph(4)
        d = px.all_pairs_distances(g)
        c = px.WeightFunction.of([0, 0, 0, 0])
        assert px.weighted_distance(g, d, c, 0) == 0
        assert px.c_median(g, d, c) == (0, 1, 2, 3)

    def test_wrong_length_rejected(self):
        g = px.path_graph(3)
        d = px.all_pairs_distances(g)
        with pytest.raises(ValueError, match="covers"):
            px.weighted_distance(g, d, px.WeightFunction.unit(2), 0)

    def test_complete_graph_median_is_heaviest(self):
        g = px.complete_graph(6)
        d = px.all_pairs_distances(g)
        rng = random.Random(11)
        for _ in range(20):
            w = [rng.randint(0, 9) for _ in range(6)]
            top = max(w)
            assert px.c_median(g, d, px.WeightFunction.of(w)) == tuple(
                v for v, x in enumerate(w) if x == top
            )


class TestBranchWeight:
    def test_examples(self):
        p4 = px.path_graph(4)
        unit = px.WeightFunction.unit(4)
        assert px.branch_weight(p4, unit, 1) == 2
        star = px.star_graph(4)
        assert px.branch_weight(star, px.WeightFunction.unit(5), 0) == 1
        p3 = px.path_graph(3)
        assert px.branch_weight(p3, px.WeightFunction.of([3, 1, 1]), 1) == 3

    def test_single_vertex(self):
        g = px.graph_from_edges(1, [])
        assert px.branch_weight(g, px.WeightFunction.of([2]), 0) == 0
        assert px.median_by_branch_weight(g, px.WeightFunction.of([2])) == (0,)

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            px.branch_weight(px.cycle_graph(4), px.WeightFunction.unit(4), 0)

    def test_median_characterization_examples(self):
        p4 = px.path_graph(4)
        assert px.median_by_branch_weight(p4, px.WeightFunction.unit(4)) == (1, 2)
        p3 = px.path_graph(3)
        assert px.median_by_branch_weight(p3, px.WeightFunction.of([3, 1, 1])) == (0,)

    @given(labeled_trees(max_order=12), st.data())
    @settings(max_examples=120, deadline=None)
    def test_characterization_equals_brute_force(self, t, data):
        weights = data.draw(
            st.lists(rational_weights, min_size=t.n, max_size=t.n)
        )
        c = px.WeightFunction.of(weights)
        d = px.all_pairs_distances(t)
        assert px.median_by_branch_weight(t, c) == px.c_median(t, d, c)


class TestProfileBounds:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            _wp(5, 1, 1)  # heavy must exceed floor
        with pytest.raises(ValueError):
            _wp(3, 5, 1)  # heavy above total
        with pytest.raises(ValueError):
            _wp(Fraction(11, 2), 3, 1)  # non-integral step count
        assert _wp(5, 3, 1).steps == 2

    def test_median_bound_values(self):
        assert _median(_wp(5, 3)) == 3
        assert _median(_wp(10, 3)) == 27
        assert _median(_wp(4, 4)) == 0

    def test_any_vertex_bound_values(self):
        assert _any(_wp(5, 3)) == 7
        assert _any(_wp(4, 4)) == 0
        assert _any(_wp(10, 6, 2)) == 14

    def test_bare_forms_exact_for_ints(self):
        # with plain ints (5-3)*(5-3+1)/(2*1) would be the float 3.0
        assert median_bound(5, 3, 1) == 3 and any_vertex_bound(5, 3, 1) == 7
        for total in range(1, 9):
            for heavy in range(1, total + 1):
                for floor in range(1, 4):
                    for form in (median_bound, any_vertex_bound):
                        assert type(form(total, heavy, floor)) is Fraction

    def test_witness_tightness(self):
        for total, heavy, floor in [(5, 3, 1), (9, 5, 1), (10, 6, 2), (4, 4, 1)]:
            p = _wp(total, heavy, floor)
            t, c, v = px.witness_path(p, "remoteness")
            d = px.all_pairs_distances(t)
            assert px.weighted_distance(t, d, c, v) == _any(p)
            if 2 * p.heavy > p.total:
                t, c, v = px.witness_path(p, "proximity")
                d = px.all_pairs_distances(t)
                assert px.weighted_distance(t, d, c, v) == _median(p)
                assert v in px.c_median(t, d, c)

    def test_witness_path_shape(self):
        t, c, v = px.witness_path(_wp(5, 3), "proximity")
        assert t.n == 3 and c.values == (3, 1, 1) and v == 0
        t, c, v = px.witness_path(_wp(5, 3), "remoteness")
        assert v == 2

    def test_minority_proximity_witness_rejected(self):
        with pytest.raises(ValueError):
            px.witness_path(_wp(10, 3), "proximity")

    def test_scale_covariance(self):
        # scaling (total, heavy, floor) by t scales both bounds by t
        base = _wp(9, 5, 1)
        scaled = _wp(27, 15, 3)
        assert _median(scaled) == 3 * _median(base)
        assert _any(scaled) == 3 * _any(base)
