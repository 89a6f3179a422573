"""Spans around the public functions of every ``proxrem`` module.

``Tracer.install`` replaces every binding of a traced function in every
loaded ``proxrem`` module (the defining module, each ``from .x import f``
in a sibling, and the package re-exports) with a wrapper that records a
span: name, start, end, parent span, and the graph order when the first
argument is a ``Graph``.  ``cli``'s use of ``json.dumps`` is traced as
``cli.json_dumps``.  Spans stay in memory in flat arrays until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("graphs", "invariants", "weighted", "construction", "extremal", "oracle", "report", "cli")


def traced_functions() -> dict:
    """Original function -> span name, for every public module-level
    function defined in a ``proxrem`` layer."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"proxrem.{layer}")
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{attr}"
    return found


def proxrem_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "proxrem" or name.startswith("proxrem.")) and m is not None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.order = array("l")
        self.anchors = 0          # summed from build_construction results
        self.instances = 0        # summed from lemma_sweep results
        self._stack = [-1]
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        from proxrem.graphs import Graph

        name_id = len(self.names)
        self.names.append(name)
        name_of, start, end, parent, order, stack = (
            self.name_of, self.start, self.end, self.parent, self.order, self._stack)
        on_result = {
            "construction.build_construction": self._count_anchors,
            "oracle.lemma_sweep": self._count_instances,
        }.get(name)

        def open_span(args) -> int:
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            order.append(args[0].n if args and type(args[0]) is Graph else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            return idx

        def close_span(idx: int) -> None:
            end[idx] = perf_counter_ns()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so spans nest inside whoever iterates
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span(args)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(args)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_anchors(self, trace) -> None:
        self.anchors += len(trace.anchors)

    def _count_instances(self, report) -> None:
        self.instances += report.instances

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = traced_functions()
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for module in proxrem_modules():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))
        cli = sys.modules["proxrem.cli"]
        self._patches.append((cli, "json", cli.json))
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        proxy.dumps = self._wrap("cli.json_dumps", json.dumps)
        cli.json = proxy

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def self_times(self) -> array:
        """Each span's duration minus the time its child spans cover, in ns."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = array("q", bytes(8 * n))
        own = array("q", bytes(8 * n))
        for i in range(n - 1, -1, -1):  # children start after, so sit at higher indices
            dur = end[i] - start[i]
            own[i] = dur - covered[i]
            p = parent[i]
            if p >= 0:
                covered[p] += dur
        return own

    def write(self, directory: Path) -> None:
        """Write the spans: a JSON header and the raw arrays, in field order."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = ("name_of", "start", "end", "parent", "order")
        (directory / "spans.json").write_text(json.dumps({
            "names": self.names,
            "spans": len(self),
            "fields": [[f, getattr(self, f).typecode, getattr(self, f).itemsize] for f in fields],
            "clock": "perf_counter_ns",
        }, indent=1))
        with open(directory / "spans.bin", "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)


S, COUNT, PER_GRAPH = "s", "count", "calls/graph"

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("graphs.all_pairs_distances.calls", COUNT, "lower"),
    ("graphs.all_pairs_distances.self_s", S, "lower"),
    ("graphs.all_pairs_distances.cells", COUNT, "lower"),
    ("graphs.all_pairs_distances.self_s.n_lt_20", S, "lower"),
    ("graphs.all_pairs_distances.self_s.n_20_39", S, "lower"),
    ("graphs.all_pairs_distances.self_s.n_40_199", S, "lower"),
    ("graphs.all_pairs_distances.self_s.n_ge_200", S, "lower"),
    ("graphs.all_pairs_distances.per_graph", PER_GRAPH, "lower"),
    ("graphs.parse_graph.calls", COUNT, "lower"),
    ("graphs.parse_graph.self_s", S, "lower"),
    ("graphs.graph_from_edges.calls", COUNT, "lower"),
    ("graphs.graph_from_edges.self_s", S, "lower"),
    ("graphs.is_connected.calls", COUNT, "lower"),
    ("graphs.is_connected.self_s", S, "lower"),
    ("invariants.invariant_summary.calls", COUNT, "lower"),
    ("invariants.invariant_summary.self_s", S, "lower"),
    ("invariants.invariant_summary.per_graph", PER_GRAPH, "lower"),
    ("weighted.calls", COUNT, "lower"),
    ("weighted.self_s", S, "lower"),
    ("construction.build_construction.calls", COUNT, "lower"),
    ("construction.build_construction.self_s", S, "lower"),
    ("construction.anchors", COUNT, "lower"),
    ("construction.contract_weights.self_s", S, "lower"),
    ("construction.auxiliary_graph.self_s", S, "lower"),
    ("construction.certify_proximity_chain.self_s", S, "lower"),
    ("construction.certify_remoteness_chain.self_s", S, "lower"),
    ("construction.bound_report.self_s", S, "lower"),
    ("extremal.sequential_sum.self_s", S, "lower"),
    ("extremal.sharpness_report.calls", COUNT, "lower"),
    ("extremal.sharpness_report.self_s", S, "lower"),
    ("oracle.prufer_decode.calls", COUNT, "lower"),
    ("oracle.prufer_decode.self_s", S, "lower"),
    ("oracle.enumerate_trees.self_s", S, "lower"),
    ("oracle.exhaustive_bound_check.self_s", S, "lower"),
    ("oracle.lemma_sweep.self_s", S, "lower"),
    ("oracle.lemma_sweep.instances", COUNT, "higher"),
    ("oracle.random_connected_graph.calls", COUNT, "lower"),
    ("oracle.random_connected_graph.attempts", COUNT, "lower"),
    ("oracle.random_connected_graph.accept_ratio", "ratio", "higher"),
    ("report.calls", COUNT, "lower"),
    ("report.self_s", S, "lower"),
    ("report.frac_str.calls", COUNT, "lower"),
    ("cli.main.calls", COUNT, "lower"),
    ("cli.main.self_s", S, "lower"),
    ("cli.json_dumps.self_s", S, "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.spans", COUNT, "lower"),
    ("trace.overhead", "ratio", "lower"),
)

_APSP_BUCKETS = ((20, "n_lt_20"), (40, "n_20_39"), (200, "n_40_199"), (None, "n_ge_200"))


def per_layer_metrics(tr: Tracer, graphs: int, stdout_bytes: int, overhead: float) -> dict:
    """Every PER_LAYER metric from the recorded spans.

    ``graphs`` is the number of graphs the traced pass processed, the base
    of the ``per_graph`` ratios; ``overhead`` is traced over untraced wall
    time of the same pass.
    """
    own = tr.self_times()
    ids = {name: i for i, name in enumerate(tr.names)}
    calls = [0] * len(tr.names)
    self_ns = [0] * len(tr.names)
    apsp, from_edges, sampler = (ids["graphs.all_pairs_distances"], ids["graphs.graph_from_edges"],
                                 ids["oracle.random_connected_graph"])
    bucket_ns = dict.fromkeys((b for _, b in _APSP_BUCKETS), 0)
    cells = attempts = 0
    name_of, order, parent = tr.name_of, tr.order, tr.parent
    for i, t in enumerate(own):
        nid = name_of[i]
        calls[nid] += 1
        self_ns[nid] += t
        if nid == apsp:
            n = order[i]
            cells += n * n
            bucket_ns[next(b for lim, b in _APSP_BUCKETS if lim is None or n < lim)] += t
        elif nid == from_edges and parent[i] >= 0 and name_of[parent[i]] == sampler:
            attempts += 1

    values: dict[str, float] = {}
    for name, i in ids.items():
        values[f"{name}.calls"] = calls[i]
        values[f"{name}.self_s"] = self_ns[i] / 1e9
    for layer in ("weighted", "report"):
        members = [i for name, i in ids.items() if name.startswith(layer + ".")]
        values[f"{layer}.calls"] = sum(calls[i] for i in members)
        values[f"{layer}.self_s"] = sum(self_ns[i] for i in members) / 1e9
    for _, b in _APSP_BUCKETS:
        values[f"graphs.all_pairs_distances.self_s.{b}"] = bucket_ns[b] / 1e9
    values["graphs.all_pairs_distances.cells"] = cells
    values["graphs.all_pairs_distances.per_graph"] = calls[apsp] / graphs if graphs else 0.0
    summaries = calls[ids["invariants.invariant_summary"]]
    values["invariants.invariant_summary.per_graph"] = summaries / graphs if graphs else 0.0
    values["construction.anchors"] = tr.anchors
    values["oracle.lemma_sweep.instances"] = tr.instances
    values["oracle.random_connected_graph.attempts"] = attempts
    values["oracle.random_connected_graph.accept_ratio"] = calls[sampler] / attempts if attempts else 0.0
    values["cli.stdout_bytes"] = stdout_bytes
    values["trace.spans"] = len(own)
    values["trace.overhead"] = overhead
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
