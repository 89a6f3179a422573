"""Benchmark inputs and output checks, against an independent BFS."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.worker import call
from perfbench.workloads import Op, check


def bfs_extremes(n: int, edges) -> tuple[Fraction, Fraction]:
    """Proximity and remoteness by a BFS from every vertex."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    sums = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        assert min(dist) >= 0, "disconnected input"
        sums.append(sum(dist))
    return Fraction(min(sums), n - 1), Fraction(max(sums), n - 1)


def sampled_inputs():
    corpus = list(inputs.corpus_graphs(1729))
    rng = random.Random(5)
    picks = [g for g in corpus if g[1] >= 40][:4] + rng.sample(corpus, 12)
    # the verify-large shapes at a size a pure-Python BFS handles quickly
    for name, degree, hub in inputs.LARGE_SHAPES:
        picks.append((f"small-{name}", 300, inputs.sparse_connected(rng, 300, degree, hub * 300 // 2000)))
    return picks


def verify(tmp_path: Path, name: str, n: int, edges) -> tuple[Op, int, str]:
    path = tmp_path / f"{name}.edges"
    path.write_text(inputs.render(n, edges))
    op = Op("verify", ("verify", "--chain", str(path)), 1, n, len(edges))
    _, code, out = call(op.argv)
    return op, code, out


@pytest.mark.parametrize("name,n,edges", sampled_inputs(), ids=lambda x: x if isinstance(x, str) else "")
def test_reported_extremes_match_independent_bfs(tmp_path, name, n, edges):
    op, code, out = verify(tmp_path, name, n, edges)
    assert check(op, 0, code, out) is None
    v = json.loads(out)["verification"]
    assert (Fraction(v["proximity"]), Fraction(v["remoteness"])) == bfs_extremes(n, edges)


def test_check_rejects_tampered_certificates(tmp_path):
    n, edges = inputs.warmup_graph(3)
    op, code, out = verify(tmp_path, "g", n, edges)
    assert check(op, 0, code, out) is None
    doc = json.loads(out)
    link = doc["verification"]["proximity_chain"][0]
    link["lhs"] = f"{Fraction(link['rhs']) + 1}"
    assert "fails" in check(op, 0, 0, json.dumps(doc))
    assert check(op, 0, 1, out) == "exit code 1"
    assert check(op._replace(edges=len(edges) + 1), 0, code, out).startswith("input read as")
    assert check(op, 0, 0, out[:-20]).startswith("malformed output")


def test_large_graphs_have_the_stated_shape():
    for (name, degree, hub), (_, n, edges) in zip(inputs.LARGE_SHAPES, inputs.large_graphs(11)):
        assert n == inputs.LARGE_ORDER and len(edges) == degree * n // 2
        assert len(set(edges)) == len(edges) and all(u < v for u, v in edges)
        assert inputs.connected(n, edges)
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        assert (2 * (max(degrees) + 1) > n) == bool(hub), name


def test_inputs_follow_the_seed():
    def digest(seed):
        d = hashlib.sha256()
        for name, n, edges in itertools.islice(inputs.corpus_graphs(seed), 600):
            d.update(f"{name} {inputs.render(n, edges)}".encode())
        return d.hexdigest()

    assert digest(1) == digest(1) != digest(2)


def test_trees_are_every_labelled_tree():
    for m in range(2, 7):
        trees = [tuple(t) for t in inputs.all_trees(m)]
        assert len(trees) == len(set(trees)) == inputs.tree_count(m)
        assert all(len(t) == m - 1 and inputs.connected(m, list(t)) for t in trees)


def test_closed_form_counts():
    def brute(max_total, max_order):
        count = 0
        for m in range(1, max_order + 1):
            for total in range(m, max_total + 1):
                vectors = [w for w in itertools.product(range(1, total + 1), repeat=m) if sum(w) == total]
                count += inputs.tree_count(m) * len(vectors) * (total - m)
        return count

    assert inputs.sweep_instance_count(6, 4) == brute(6, 4)
    assert len(inputs.extremal_params(3, 16, 120)) == 1641
