"""The tracer wraps every binding, restores them, and does not change output."""

from __future__ import annotations

import inspect
import json
from array import array
from pathlib import Path

import pytest

import proxrem
import proxrem.cli
from perfbench import inputs, run, tracer
from perfbench.tracer import PER_LAYER, Tracer, per_layer_metrics, proxrem_modules, traced_functions
from perfbench.worker import call
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def function_bindings():
    return [(m, attr, obj) for m in proxrem_modules() for attr, obj in vars(m).items()
            if inspect.isfunction(obj)]


@pytest.fixture
def installed():
    tr = Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_no_module_holds_an_original_while_installed():
    originals = traced_functions()
    tr = Tracer()
    tr.install()
    try:
        leftover = [f"{m.__name__}.{attr}" for m, attr, obj in function_bindings() if obj in originals]
        # the package re-exports and the sibling modules' imports are wrapped too
        rebound = [m.all_pairs_distances for m in (proxrem, proxrem.construction, proxrem.invariants,
                                                   proxrem.extremal, proxrem.cli)]
        json_dumps = proxrem.cli.json.dumps
    finally:
        tr.uninstall()
    assert leftover == []
    assert all(fn.__wrapped__ is proxrem.graphs.all_pairs_distances for fn in rebound)
    assert json_dumps.__wrapped__ is json.dumps


def test_uninstall_restores_every_binding():
    before = {(m.__name__, attr): obj for m in proxrem_modules() for attr, obj in vars(m).items()}
    tr = Tracer()
    tr.install()
    tr.uninstall()
    after = {(m.__name__, attr): obj for m in proxrem_modules() for attr, obj in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_output_is_byte_identical_and_counted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    n, edges = inputs.warmup_graph(7)
    Path("g.edges").write_text(inputs.render(n, edges))
    argv = ("verify", "--chain", "g.edges")
    _, code, untraced = call(argv)
    tr = Tracer()
    tr.install()
    try:
        _, traced_code, traced = call(argv)
    finally:
        tr.uninstall()
    assert (code, traced_code) == (0, 0)
    assert traced == untraced
    metrics = per_layer_metrics(tr, 1, len(traced.encode()), 1.0)
    assert [name for name, _, _ in PER_LAYER] == list(metrics)
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["construction.build_construction.calls"]["value"] == 1
    assert metrics["graphs.all_pairs_distances.per_graph"]["value"] >= 1
    assert metrics["graphs.all_pairs_distances.cells"]["value"] >= n * n
    assert metrics["construction.anchors"]["value"] >= 1
    assert metrics["cli.stdout_bytes"]["value"] == len(traced.encode())
    tr.write(tmp_path / "spans")
    header = json.loads((tmp_path / "spans" / "spans.json").read_text())
    size = sum(itemsize for _, _, itemsize in header["fields"]) * header["spans"]
    assert (tmp_path / "spans" / "spans.bin").stat().st_size == size


def test_generator_spans_nest_in_the_consumer(installed):
    list(proxrem.oracle.enumerate_trees(4))
    names = [installed.names[i] for i in installed.name_of]
    assert names.count("oracle.prufer_decode") == 16
    assert names.count("oracle.enumerate_trees") == 17  # one per resumption
    decode = installed.names.index("oracle.prufer_decode")
    for i, nid in enumerate(installed.name_of):
        if nid == decode:
            assert installed.names[installed.name_of[installed.parent[i]]] == "oracle.enumerate_trees"


def test_self_time_subtracts_children():
    tr = Tracer()
    # spans: 0 = [0, 100], 1 = [10, 40] in 0, 2 = [20, 30] in 1, 3 = [50, 90] in 0
    tr.start, tr.end = array("q", [0, 10, 20, 50]), array("q", [100, 40, 30, 90])
    tr.parent = array("l", [-1, 0, 1, 0])
    assert list(tr.self_times()) == [30, 20, 10, 40]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
