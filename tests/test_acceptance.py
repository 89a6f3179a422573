"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> ...: PASS/FAIL`` line (visible with
``pytest -s`` or ``-rA``) and enforces the stated runtime ceiling.  All
value comparisons are exact rational equalities or inequalities; there
are no tolerance knobs anywhere.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import proxrem as px
from proxrem.cli import main
from proxrem.invariants import order_proximity_bound
from proxrem.weighted import WeightProfile, any_vertex_bound, median_bound

CORPUS_SEED = px.DEFAULT_SEED
CORPUS_SIZE = 500
CORPUS_MAX_ORDER = 60


def _finish(k: int, name: str, ok: bool, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {k} {name}: {status} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {k} ({name}) failed"
    assert elapsed < limit, f"criterion {k} exceeded {limit}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def corpus():
    graphs = px.sample_corpus(CORPUS_SEED, CORPUS_SIZE, CORPUS_MAX_ORDER)
    for m in range(2, 8):
        graphs.extend(px.enumerate_trees(m))
    return graphs


def test_criterion_1_path_cycle_exactness():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 101):
        inv = px.invariant_summary(px.path_graph(n))
        ok = ok and inv.remoteness == Fraction(n, 2)
        ok = ok and inv.proximity == order_proximity_bound(n)
        if n >= 3:
            ok = ok and px.invariant_summary(px.cycle_graph(n)).proximity == order_proximity_bound(n)
    _finish(1, "path/cycle exactness", ok, t0, 5.0)


def test_criterion_2_lemma_oracle():
    t0 = time.perf_counter()
    report = px.lemma_sweep(max_total=9, max_order=7)
    ok = report.ok and report.violations == []
    # every realizable (total, heavy) pair appears
    ok = ok and {(r.total, r.heavy) for r in report.records} == {
        (total, heavy) for total in range(1, 10) for heavy in range(2, total + 1)
    }
    # heavy-majority regime: the observed maximum equals the bound exactly
    for r in report.records:
        if 2 * r.heavy > r.total:
            expected = Fraction((r.total - r.heavy) * (r.total - r.heavy + 1), 2)
            ok = ok and r.median_observed == expected and r.median_bound == expected
    _finish(2, "lemma oracle sweep", ok, t0, 300.0)


def test_criterion_3_witness_tightness():
    t0 = time.perf_counter()
    rng = random.Random(CORPUS_SEED)
    ok = True
    for i in range(50):
        floor = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        steps = rng.randint(0, 10)
        if i % 2 == 0:
            # heavy-majority profile: heavy > total/2 guaranteed
            heavy = floor * (steps + 1 + Fraction(rng.randint(1, 5), rng.randint(1, 5)))
            p = WeightProfile(total=heavy + steps * floor, floor=floor, heavy=heavy)
            t, c, v = px.witness_path(p, "proximity")
            d = px.all_pairs_distances(t)
            ok = ok and px.weighted_distance(t, d, c, v) == median_bound(p.total, p.heavy, p.floor)
            ok = ok and v in px.c_median(t, d, c)
        else:
            heavy = floor * (1 + Fraction(rng.randint(1, 9), rng.randint(1, 5)))
            p = WeightProfile(total=heavy + steps * floor, floor=floor, heavy=heavy)
            t, c, v = px.witness_path(p, "remoteness")
            d = px.all_pairs_distances(t)
            ok = ok and px.weighted_distance(t, d, c, v) == any_vertex_bound(p.total, p.heavy, p.floor)
    _finish(3, "witness tightness", ok, t0, 1.0)


def test_criterion_4_construction_invariants_and_chains(corpus):
    t0 = time.perf_counter()
    ok = True
    for g in corpus:
        d = px.all_pairs_distances(g)
        trace = px.build_construction(g)
        n = g.n
        # every vertex of G within 2 of an anchor: two multi-source steps
        near = set(trace.anchors)
        for _ in range(2):
            near |= {w for v in near for w in g.adj[v]}
        ok = ok and len(near) == n
        ok = ok and trace.tree.degree(trace.anchors[0]) == trace.Delta
        ok = ok and px.is_connected(trace.aux)
        ok = ok and all(trace.weights[b] >= g.degree(b) + 1 for b in trace.anchors)
        ok = ok and sum(trace.weights.values()) == n
        inv = px.invariant_summary(g, d)
        prox = px.certify_proximity_chain(trace, inv)
        rem = px.certify_remoteness_chain(trace, inv)
        ok = ok and all(link.holds for link in prox)
        ok = ok and all(link.holds for link in rem)
        if not ok:
            print("first failure on:", px.render_graph(g))
            break
    _finish(4, "construction invariants + chains", ok, t0, 120.0)


def test_criterion_5_degree_bound_domination(corpus):
    t0 = time.perf_counter()
    ok = True
    for g in corpus:
        inv = px.invariant_summary(g)
        delta, Delta = px.degree_stats(g)
        b = px.degree_range_bounds(g.n, delta, Delta)
        ok = ok and inv.proximity <= b.pi_bound and inv.remoteness <= b.rho_bound
        if not ok:
            print("violated on:", px.render_graph(g))
            break
    _finish(5, "degree-aware bound domination", ok, t0, 60.0)


def test_criterion_6_sharpness_gaps():
    t0 = time.perf_counter()
    records = px.sharpness_sweep(3, 16, 120)
    ok = len(records) > 0
    for r in records:
        if 2 * r.Delta <= r.n:
            ok = ok and r.gap_pi < Fraction(49, 4)
        if 2 * r.Delta >= r.n:
            ok = ok and r.gap_pi < 6 * r.delta + Fraction(5, 2)
        ok = ok and r.gap_rho <= Fraction(17, 2)
        ok = ok and r.within_limits
    _finish(6, "sharpness gaps", ok, t0, 180.0)


def test_criterion_7_branch_weight_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(CORPUS_SEED)
    ok = True
    for _ in range(1000):
        m = rng.randint(1, 12)
        seq = tuple(rng.randrange(m) for _ in range(max(0, m - 2)))
        t = px.prufer_decode(seq, m)
        c = px.WeightFunction.of(
            [Fraction(rng.randint(0, 24), rng.randint(1, 6)) for _ in range(m)]
        )
        d = px.all_pairs_distances(t)
        ok = ok and px.median_by_branch_weight(t, c) == px.c_median(t, d, c)
    _finish(7, "branch-weight median equivalence", ok, t0, 30.0)


def test_criterion_8_determinism_across_jobs(tmp_path, capsys):
    t0 = time.perf_counter()

    def run(jobs: str) -> str:
        pieces = []
        for argv in (
            ["oracle", "lemma-sweep", "--max-n", "8", "--max-order", "6", "--jobs", jobs],
            ["oracle", "bound-check", "--random", "120", "--max-n", "40",
             "--seed", str(CORPUS_SEED), "--jobs", jobs],
            ["oracle", "bound-check", "--trees", "6", "--jobs", jobs],
            ["extremal", "--delta", "3", "--sweep", "16", "40", "--jobs", jobs],
        ):
            code = main(argv)
            out = capsys.readouterr().out
            pieces.append(f"exit={code}\n{out}")
        return "".join(pieces)

    serial = run("1")
    parallel = run("8")
    ok = serial == parallel and "exit=0" in serial
    _finish(8, "byte-identical reports across --jobs", ok, t0, 600.0)
