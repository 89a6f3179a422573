import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given

import proxrem as px
from proxrem import oracle
from proxrem.oracle import (
    _compositions,
    instance_csv_rows,
    parallel_map,
    sweep_instance_count,
)

from .conftest import floyd_warshall, labeled_trees


class TestPrufer:
    @pytest.mark.parametrize("m,count", [(1, 1), (2, 1), (3, 3), (5, 125)])
    def test_cayley_counts(self, m, count):
        trees = list(px.enumerate_trees(m))
        assert len(trees) == count == px.tree_count(m)

    def test_enumeration_is_duplicate_free(self):
        trees = [tuple(sorted(t.edges())) for t in px.enumerate_trees(5)]
        assert len(set(trees)) == len(trees)

    def test_all_results_are_trees(self):
        for t in px.enumerate_trees(6):
            assert t.edge_count() == 5 and px.is_connected(t)

    def test_encode_decode_round_trip_exhaustive(self):
        for m in range(3, 6):
            for seq in itertools.product(range(m), repeat=m - 2):
                assert px.prufer_encode(px.prufer_decode(seq, m)) == seq

    @given(labeled_trees(max_order=9))
    def test_decode_encode_round_trip(self, t):
        assert px.prufer_decode(px.prufer_encode(t), t.n) == t

    def test_validation(self):
        with pytest.raises(ValueError):
            px.prufer_decode((0, 1), 3)
        with pytest.raises(ValueError):
            px.prufer_decode((5,), 3)
        with pytest.raises(ValueError):
            list(px.enumerate_trees(9))
        with pytest.raises(ValueError):
            px.prufer_encode(px.cycle_graph(4))


class TestCompositions:
    def test_stars_and_bars_count(self):
        for total in range(1, 9):
            for parts in range(1, total + 1):
                assert len(list(_compositions(total, parts))) == comb(total - 1, parts - 1)

    def test_all_positive_and_sum(self):
        for c in _compositions(7, 3):
            assert sum(c) == 7 and min(c) >= 1


class TestLemmaSweep:
    def test_small_sweep_counts_match_closed_form(self):
        report = px.lemma_sweep(6, 4)
        trees, weightings, instances = sweep_instance_count(6, 4)
        assert (report.trees, report.weightings, report.instances) == (
            trees,
            weightings,
            instances,
        )
        assert report.trees == 1 + 1 + 3 + 16

    def test_no_violations_small(self):
        report = px.lemma_sweep(7, 5)
        assert report.ok
        assert report.violations == []

    def test_majority_regime_is_exactly_attained(self):
        report = px.lemma_sweep(7, 5)
        for r in report.records:
            if 2 * r.heavy > r.total:
                expected = Fraction((r.total - r.heavy) * (r.total - r.heavy + 1), 2)
                assert r.median_observed == expected == r.median_bound

    def test_all_pairs_realized(self):
        report = px.lemma_sweep(6, 4)
        pairs = {(r.total, r.heavy) for r in report.records}
        assert pairs == {
            (total, heavy) for total in range(1, 7) for heavy in range(2, total + 1)
        }

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            px.lemma_sweep(99, 7)
        with pytest.raises(ValueError, match="budget"):
            px.lemma_sweep(9, 8)

    def test_jobs_do_not_change_results(self):
        a = px.lemma_sweep(6, 4, jobs=1)
        b = px.lemma_sweep(6, 4, jobs=4)
        assert a.records == b.records

    def test_instance_rows(self):
        rows = list(instance_csv_rows(4, 3))
        assert rows[0].startswith("tree_id,")
        # every instance with max weight >= 2 appears once
        expected = sum(
            1
            for m in range(1, 4)
            for _ in range(px.tree_count(m))
            for total in range(m, 5)
            for w in _compositions(total, m)
            if max(w) >= 2
        )
        assert len(rows) - 1 == expected
        for row in rows[1:]:
            med, bound, slack = row.split(",")[2:]
            assert Fraction(slack) == Fraction(bound) - int(med) >= 0

    def test_instance_rows_match_independent_rebuild(self):
        # trees from prufer_decode, distances from Floyd-Warshall, the
        # unit-floor median bound written out, compositions by filtering
        rows = ["tree_id,weights,median_sigma,bound,slack"]
        for m in range(1, 5):
            for ti, seq in enumerate(itertools.product(range(m), repeat=max(0, m - 2))):
                dist = floyd_warshall(px.prufer_decode(seq, m))
                for total in range(m, 7):
                    for w in itertools.product(range(1, total + 1), repeat=m):
                        heavy = max(w)
                        if sum(w) != total or heavy < 2:
                            continue
                        med = min(sum(c * d for c, d in zip(w, row)) for row in dist)
                        if 2 * heavy > total:
                            bound = Fraction((total - heavy) * (total - heavy + 1), 2)
                        else:
                            bound = Fraction(total * total - 2 * heavy * heavy, 4) + Fraction(
                                total + heavy, 2
                            )
                        wtxt = "|".join(map(str, w))
                        rows.append(f"m{m}-{ti},{wtxt},{med},{bound},{bound - med}")
        assert len(rows) == 1 + 300
        assert list(instance_csv_rows(6, 4)) == rows


class TestRandomSampler:
    def test_deterministic(self):
        a = px.sample_corpus(123, 25, 30)
        b = px.sample_corpus(123, 25, 30)
        assert a == b

    def test_different_seed_differs(self):
        assert px.sample_corpus(1, 10, 30) != px.sample_corpus(2, 10, 30)

    def test_all_connected_and_in_range(self):
        for g in px.sample_corpus(99, 50, 20):
            assert 2 <= g.n <= 20
            assert px.is_connected(g)


class TestBoundCheck:
    def test_trees_exhaustive(self):
        report = px.exhaustive_bound_check(6, "exhaustive-trees")
        assert report.ok
        assert report.graphs == 1 + 3 + 16 + 125 + 1296
        assert report.path_equality_ok is True
        assert report.min_slack["remoteness_order"] == 0  # paths are tight

    def test_random_mode(self):
        report = px.exhaustive_bound_check(25, "random", samples=60, seed=5)
        assert report.ok
        assert report.graphs == 60
        assert report.path_equality_ok is None

    def test_complete_graphs_trivial(self):
        for m in range(2, 11):
            r = px.bound_report(px.complete_graph(m))
            assert r.proximity == r.remoteness == 1
            assert r.all_hold()

    def test_jobs_do_not_change_results(self):
        a = px.exhaustive_bound_check(5, "exhaustive-trees", jobs=1)
        b = px.exhaustive_bound_check(5, "exhaustive-trees", jobs=3)
        assert a.min_slack == b.min_slack

    def test_validation(self):
        with pytest.raises(ValueError):
            px.exhaustive_bound_check(9, "exhaustive-trees")
        with pytest.raises(ValueError):
            px.exhaustive_bound_check(20, "random", samples=0)
        with pytest.raises(ValueError):
            px.exhaustive_bound_check(20, "bogus")

    def test_order_bound_tight_exactly_on_paths_up_to_7(self):
        for m in range(2, 8):
            for t in px.enumerate_trees(m):
                inv = px.invariant_summary(t)
                is_path = max(len(a) for a in t.adj) <= 2
                assert (inv.remoteness == Fraction(m, 2)) == is_path


class TestParallelMap:
    @pytest.mark.parametrize(
        "jobs, cpus, items, pool",
        [
            (5000, 2, 10, 2),
            (3, 8, 10, 3),
            (5000, 8, 4, 4),
            (1, 2, 10, None),
            (5000, None, 10, None),
        ],
    )
    def test_pool_is_capped_at_cpu_count(self, monkeypatch, jobs, cpus, items, pool):
        # a fake context records the pool size and maps in this process, so
        # no worker is ever forked
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, xs):
                return [fn(x) for x in xs]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext())
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
        assert parallel_map(abs, range(-items, 0), jobs) == list(range(items, 0, -1))
        assert sizes == ([] if pool is None else [pool])
