import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, log

import pytest
from hypothesis import given
from hypothesis import strategies as st

import proxrem as px
from proxrem import graphs, oracle
from proxrem.cli import main
from proxrem.construction import bound_verdicts
from proxrem.graphs import _tree_sigmas
from proxrem.weighted import any_vertex_bound, median_bound
from proxrem.oracle import (
    BoundCheckReport,
    BoundWitness,
    SweepViolation,
    _compositions,
    _decode_edges,
    _tree_key,
    _tree_shapes,
    instance_csv_rows,
    parallel_map,
    sweep_instance_count,
)

from .conftest import floyd_warshall, labeled_trees, weighted_floyd_warshall


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


def _labelled_sweep(max_total, max_order, median, any_vertex):
    """The lemma sweep rebuilt over every labelled tree: trees from
    prufer_decode in product order, distances from Floyd-Warshall,
    compositions by filtering.  Returns the (total, heavy, median
    observed, any observed) records and the violations of the given
    bounds, each naming the first tree, then the first vector of its cell,
    that attains the observed maximum."""
    observed = {}
    violations = []
    for m in range(1, min(max_order, max_total) + 1):
        seqs = list(itertools.product(range(m), repeat=max(0, m - 2)))
        dists = [floyd_warshall(px.prufer_decode(seq, m)) for seq in seqs]
        for total in range(m, max_total + 1):
            vectors = [w for w in itertools.product(range(1, total + 1), repeat=m) if sum(w) == total]
            sigmas = [
                [[sum(c * d for c, d in zip(w, row)) for row in dist] for w in vectors]
                for dist in dists
            ]
            for heavy in range(2, total + 1):
                cols = [j for j, w in enumerate(vectors) if max(w) >= heavy]
                if not cols:
                    continue
                obs = {}
                for kind, pick, bound in (
                    ("median", min, median(total, heavy, 1)),
                    ("any", max, any_vertex(total, heavy, 1)),
                ):
                    values = [(pick(sigmas[ti][j]), ti, j) for ti in range(len(seqs)) for j in cols]
                    obs[kind] = max(v for v, _, _ in values)
                    if obs[kind] > bound:
                        ti, j = next((ti, j) for v, ti, j in values if v == obs[kind])
                        violations.append(
                            SweepViolation(kind, m, seqs[ti], vectors[j], heavy, obs[kind], bound)
                        )
                old = observed.get((total, heavy), (0, 0))
                observed[(total, heavy)] = (max(old[0], obs["median"]), max(old[1], obs["any"]))
    records = [(total, heavy, *obs) for (total, heavy), obs in sorted(observed.items())]
    return records, violations


class TestSweepAgainstLabelledTrees:
    """The sweep reads one labelling per rooted tree shape, from
    ``_tree_shapes``; these tests hold its maxima and its witnesses to
    every labelled tree."""

    def test_records_match_labelled_brute_force(self):
        report = px.lemma_sweep(8, 6)
        records, violations = _labelled_sweep(8, 6, median_bound, any_vertex_bound)
        assert [(r.total, r.heavy, r.median_observed, r.any_observed) for r in report.records] == records
        assert report.violations == violations == []

    @pytest.mark.parametrize("max_total,max_order", [(6, 4), (7, 5)])
    def test_violation_witnesses_match_labelled_brute_force(self, monkeypatch, max_total, max_order):
        # both bounds lowered below the true values, so most cells fail
        def median(total, heavy, floor):
            return median_bound(total, heavy, floor) / 2 - 1

        def any_vertex(total, heavy, floor):
            return any_vertex_bound(total, heavy, floor) * 2 / 3

        monkeypatch.setattr(oracle, "median_bound", median)
        monkeypatch.setattr(oracle, "any_vertex_bound", any_vertex)
        report = px.lemma_sweep(max_total, max_order)
        _, violations = _labelled_sweep(max_total, max_order, median, any_vertex)
        assert {v.kind for v in violations} == {"median", "any"}
        assert report.violations == violations

    @given(labeled_trees(min_order=1, max_order=9), st.data())
    def test_tree_sigmas_match_floyd_warshall(self, t, data):
        w = data.draw(st.lists(st.integers(1, 50), min_size=t.n, max_size=t.n))
        edges = _decode_edges(px.prufer_encode(t), t.n)
        assert tuple(_tree_sigmas(edges, t.n, w)) == weighted_floyd_warshall(t, w)


def _reference_sampler(rng, max_order):
    """The sampler as first written: the pair list, then graph_from_edges."""
    n = rng.randint(2, max_order)
    p_lo = min(1.0, 1.2 * log(n + 1) / n)
    for _ in range(1000):
        u = rng.random()
        p = p_lo + (1.0 - p_lo) * u * u
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = px.graph_from_edges(n, edges)
        if px.is_connected(g):
            return g
    raise RuntimeError(f"rejection sampling failed to connect a graph of order {n}")


class TestRandomSampler:
    @pytest.mark.parametrize("seed", [1729, 7, 42])
    @pytest.mark.parametrize("count,max_order", [(500, 60), (20, 300)])
    def test_corpus_equals_reference_sampler(self, seed, count, max_order):
        rng = random.Random(seed)
        expected = [_reference_sampler(rng, max_order) for _ in range(count)]
        corpus = px.sample_corpus(seed, count, max_order)
        assert corpus == expected
        assert all(g == px.graph_from_edges(g.n, g.edges()) for g in corpus)

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
        a = px.exhaustive_bound_check(6, "exhaustive-trees", jobs=1)
        b = px.exhaustive_bound_check(6, "exhaustive-trees", jobs=3)
        assert a == b
        assert a.witness and all(w.edge_list for w in a.witness.values())

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
        monkeypatch.setattr(graphs.os, "cpu_count", lambda: cpus)
        assert parallel_map(abs, range(-items, 0), jobs) == list(range(items, 0, -1))
        assert sizes == ([] if pool is None else [pool])


def _rebuilt_tree_check(max_n: int) -> BoundCheckReport:
    """The tree check as a plain loop: a Graph per tree, its own
    ``bound_report``, the path test read off its degrees, and every edge
    list rendered."""
    report = BoundCheckReport(mode="exhaustive-trees", params={"max_n": max_n}, graphs=0)
    path_eq_ok = True
    for m in range(2, max_n + 1):
        for i, t in enumerate(px.enumerate_trees(m)):
            label, r = f"tree-m{m}-i{i}", px.bound_report(t)
            report.graphs += 1
            if not r.all_hold():
                worst = min(r.slack, key=lambda k: r.slack[k])
                report.violations.append(BoundWitness(label, r.slack[worst], px.render_graph(t)))
            is_path = max(len(a) for a in t.adj) <= 2
            path_eq_ok = path_eq_ok and (r.slack["remoteness_order"] == 0) == is_path
            for name, value in r.slack.items():
                if name not in report.min_slack or value < report.min_slack[name]:
                    report.min_slack[name] = value
                    report.witness[name] = BoundWitness(label, value, px.render_graph(t))
    report.path_equality_ok = path_eq_ok
    return report


class TestTreeCheckFromPrufer:
    """The tree check evaluates the bounds once per exact key of the rooted
    tree shapes, and reads a labelled tree's key off its Prufer decode only
    to name a witness or a violation; these tests hold it to per-tree
    references."""

    def test_transmissions_match_every_tree_to_order_7(self):
        for m in range(2, 8):
            for seq in itertools.product(range(m), repeat=m - 2):
                t = px.prufer_decode(seq, m)
                expected = px.all_pairs_distances(t).transmissions
                edges = _decode_edges(seq, m)
                assert tuple(_tree_sigmas(edges, m, [1] * m)) == expected, (m, seq)
                assert expected == tuple(map(sum, floyd_warshall(t)))
                key = (m, *px.degree_stats(t), min(expected), max(expected))
                assert _tree_key(edges, m) == key, (m, seq)

    @given(labeled_trees(max_order=9))
    def test_transmissions_match_floyd_warshall(self, t):
        seq = px.prufer_encode(t)
        sigma = _tree_sigmas(_decode_edges(seq, t.n), t.n, [1] * t.n)
        assert tuple(sigma) == tuple(map(sum, floyd_warshall(t)))

    @pytest.mark.parametrize("max_n", range(2, 8))
    def test_report_equals_per_tree_rebuild(self, max_n):
        assert px.exhaustive_bound_check(max_n, "exhaustive-trees") == _rebuilt_tree_check(max_n)

    def test_bound_report_reads_the_pure_function(self):
        for g in (px.path_graph(9), px.star_graph(6), px.cycle_graph(8)):
            r = px.bound_report(g)
            trans = px.invariant_summary(g).transmissions
            v = bound_verdicts(g.n, r.delta, r.Delta, min(trans), max(trans))
            assert (r.case, r.proximity, r.remoteness) == (v.case, v.proximity, v.remoteness)
            assert (r.bounds, r.slack, r.holds) == (v.bounds, v.slack, v.holds)

    def _sabotage(self, monkeypatch, target):
        """Make ``bound_verdicts`` fail ``proximity_order`` by 1 on one key."""
        real = oracle.bound_verdicts
        keys = []

        def sabotaged(*key):
            keys.append(key)
            v = real(*key)
            if key != target:
                return v
            slack = {**v.slack, "proximity_order": Fraction(-1)}
            return v._replace(slack=slack, holds={name: s >= 0 for name, s in slack.items()})

        monkeypatch.setattr(oracle, "bound_verdicts", sabotaged)
        return keys

    def test_violation_names_every_tree_of_the_failing_key(self, monkeypatch):
        # K_{1,4}: order 5, degrees 1 and 4, transmissions 4 (centre) and 7
        target = (5, 1, 4, 4, 7)
        keys = self._sabotage(monkeypatch, target)
        report = px.exhaustive_bound_check(5, "exhaustive-trees")
        assert all(count == 1 for count in Counter(keys).values())  # once per key
        expected = []
        for i, seq in enumerate(itertools.product(range(5), repeat=3)):
            t = px.prufer_decode(seq, 5)
            trans = px.invariant_summary(t).transmissions
            if (5, *px.degree_stats(t), min(trans), max(trans)) == target:
                expected.append((f"tree-m5-i{i}", px.render_graph(t)))
        assert len(expected) == 5  # one star per centre
        assert [(w.label, w.edge_list) for w in report.violations] == expected
        assert report.violations[0].label == "tree-m5-i0"
        assert all(w.slack == -1 for w in report.violations)
        assert report.min_slack["proximity_order"] == -1
        assert report.witness["proximity_order"].label == expected[0][0]
        assert not report.ok
        # forked workers inherit the patch; the merge keeps the same order
        assert px.exhaustive_bound_check(5, "exhaustive-trees", jobs=2) == report

    def test_violation_exits_1(self, monkeypatch, capsys):
        self._sabotage(monkeypatch, (4, 1, 3, 3, 5))  # K_{1,3}
        assert main(["oracle", "bound-check", "--trees", "5"]) == 1
        doc = json.loads(capsys.readouterr().out)["bound_check"]
        assert doc["ok"] is False
        labels = [v["label"] for v in doc["violations"]]
        assert labels == [f"tree-m4-i{i}" for i in (0, 5, 10, 15)]
        assert doc["violations"][0]["edge_list"] == px.render_graph(px.prufer_decode((0, 0), 4))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_violation_at_order_7_names_every_tree_of_its_key(self, monkeypatch, jobs):
        # two claws K_{1,3} sharing a leaf: Δ = 3, the shared leaf's transmission
        # 10 and an end leaf's 16
        target = (7, 1, 3, 10, 16)
        self._sabotage(monkeypatch, target)
        report = px.exhaustive_bound_check(7, "exhaustive-trees", jobs=jobs)
        expected = []
        for i, seq in enumerate(itertools.product(range(7), repeat=5)):
            t = px.prufer_decode(seq, 7)
            trans = px.invariant_summary(t).transmissions
            if (7, *px.degree_stats(t), min(trans), max(trans)) == target:
                expected.append(BoundWitness(f"tree-m7-i{i}", Fraction(-1), px.render_graph(t)))
        assert len(expected) == 630  # 7!/8: the automorphism group has order 8
        assert report.violations == expected
        assert report.min_slack["proximity_order"] == -1
        assert report.witness["proximity_order"] == expected[0]


def _rooted_canonical(edges, m):
    """AHU canonical string of a tree rooted at 0, given its (child, parent) edges."""
    children = [[] for _ in range(m)]
    for child, parent in edges:
        children[parent].append(child)

    def code(v):
        return "(" + "".join(sorted(map(code, children[v]))) + ")"

    return code(0)


class TestTreeShapes:
    """``_tree_shapes(m)`` yields one labelling of each rooted tree."""

    A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_counts_match_a000081(self, m):
        assert sum(1 for _ in _tree_shapes(m)) == self.A000081[m - 1]

    @pytest.mark.parametrize("m", range(1, 10))
    def test_shapes_are_trees_in_leaf_first_post_order(self, m):
        for edges in _tree_shapes(m):
            assert [child for child, _ in edges] == list(range(m - 1, 0, -1))
            assert all(parent < child for child, parent in edges)
            t = px.graph_from_edges(m, edges)
            assert t.edge_count() == m - 1 and px.is_connected(t)
            for w in ([1] * m, [3 * v % 7 + 1 for v in range(m)]):
                assert tuple(_tree_sigmas(edges, m, w)) == weighted_floyd_warshall(t, w)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_shapes_are_pairwise_non_isomorphic(self, m):
        codes = [_rooted_canonical(edges, m) for edges in _tree_shapes(m)]
        assert len(set(codes)) == len(codes)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_shape_keys_equal_labelled_tree_keys(self, m):
        shape_keys = {_tree_key(edges, m) for edges in _tree_shapes(m)}
        labelled_keys = set()
        for t in px.enumerate_trees(m):
            trans = px.invariant_summary(t).transmissions
            labelled_keys.add((m, *px.degree_stats(t), min(trans), max(trans)))
        assert shape_keys == labelled_keys


class TestWorkCounts:
    """The sweeps do work per rooted shape and per exact key, not per
    labelled tree."""

    def test_lemma_sweep_reroots_once_per_shape_and_vector(self, monkeypatch):
        calls = []
        real = oracle._tree_sigmas

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(oracle, "_tree_sigmas", counted)
        assert px.lemma_sweep(9, 7).ok
        budget = sum(
            TestTreeShapes.A000081[m - 1] * sum(comb(total - 1, m - 1) for total in range(m, 10))
            for m in range(1, 8)
        )
        assert len(calls) <= budget

    def test_tree_check_decodes_only_the_witnesses(self, monkeypatch):
        decodes, keys = [], []
        real_decode, real_verdicts = oracle._decode_edges, oracle.bound_verdicts

        def decode(*args):
            decodes.append(args)
            return real_decode(*args)

        def verdicts(*key):
            keys.append(key)
            return real_verdicts(*key)

        monkeypatch.setattr(oracle, "_decode_edges", decode)
        monkeypatch.setattr(oracle, "bound_verdicts", verdicts)
        report = px.exhaustive_bound_check(8, "exhaustive-trees")
        assert report.ok and report.graphs == sum(px.tree_count(m) for m in range(2, 9))
        # resolving a witness "tree-m<m>-i<i>" decodes trees 0..i of order m
        need = sum(int(w.label.rsplit("-i", 1)[1]) + 1 for w in report.witness.values())
        assert len(decodes) <= need == 6
        assert all(count == 1 for count in Counter(keys).values())
        assert len(keys) == 44  # the distinct exact keys of orders 2..8
