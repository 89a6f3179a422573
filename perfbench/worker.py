"""Benchmark worker: one process that imports ``proxrem`` and writes the inputs.

Run from the per-run work directory as
``python3 -m perfbench.worker MODE --workload W --seed S --seconds T``:

* ``prepare``: set up, report ready, exit (a set-up sample).
* ``serve``: set up, then run the workload's operations through
  ``proxrem.cli.main`` repeatedly until they have taken ``T`` seconds,
  checking each output.
* ``trace``: set up, run the operations untraced twice and then traced,
  compare every stdout, and report the per-layer metrics.

Set-up is interpreter start, ``import proxrem``, input generation and, for
the in-process modes, a warm-up certification of a graph of order 60 (it
pulls in the lazy ``scipy.sparse`` import).  The worker prints one JSON
line when set-up is done and one with its results.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import perf_counter_ns

from . import inputs
from .tracer import Tracer, per_layer_metrics
from .workloads import MAX_REPORTED_FAILURES, WORKLOADS, Op, check, repeat


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def call(argv: tuple[str, ...]) -> tuple[int, int, str]:
    """Run one command through ``proxrem.cli.main``: (ns, exit code, stdout)."""
    cli = sys.modules["proxrem.cli"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        t0 = perf_counter_ns()
        code = cli.main(list(argv))
        ns = perf_counter_ns() - t0
    return ns, code, out.getvalue()


def set_up(workload: str, seed: int, warm: bool) -> list[Op]:
    import numpy
    import proxrem.cli  # noqa: F401  (the in-process modes call it)

    ops, digest = WORKLOADS[workload].build(seed, Path.cwd())
    if warm:
        n, edges = inputs.warmup_graph(seed)
        Path("warmup.edges").write_text(inputs.render(n, edges))
        op = Op("verify", ("verify", "--chain", "warmup.edges"), 1, n, len(edges))
        _, code, out = call(op.argv)
        why = check(op, seed, code, out)
        if why is not None:
            raise RuntimeError(f"warm-up certification failed: {why}")
    emit({
        "ready": True,
        "digest": digest,
        "ops": len(ops),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": metadata.version("scipy"),
            "platform": platform.platform(),
        },
    })
    return ops


def run_pass(ops: list[Op], seed: int, failures: list[str], reference: list[bytes] | None):
    """Run every operation once in this process and check it; return the
    time spent in ``cli.main``, each stdout's hash and the stdout bytes."""
    total_ns = stdout_bytes = 0
    hashes = []
    for i, op in enumerate(ops):
        ns, code, out = call(op.argv)
        total_ns += ns
        data = out.encode()
        stdout_bytes += len(data)
        hashes.append(hashlib.sha256(data).digest())
        why = check(op, seed, code, out)
        if why is None and reference is not None and hashes[i] != reference[i]:
            why = "stdout differs from the first untraced pass"
        if why is not None:
            failures.append(f"{' '.join(op.argv)}: {why}")
    return total_ns, hashes, stdout_bytes


def trace(ops: list[Op], seed: int, spans_dir: Path) -> dict:
    """A first untraced pass lets the allocator settle (the first pass of
    verify-large is otherwise slower than the second), then the timed
    untraced and traced passes."""
    failures: list[str] = []
    _, reference, _ = run_pass(ops, seed, failures, None)
    untraced_ns, _, _ = run_pass(ops, seed, failures, reference)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ns, _, stdout_bytes = run_pass(ops, seed, failures, reference)
    finally:
        tracer.uninstall()
    tracer.write(spans_dir)
    graphs = sum(op.graphs for op in ops)
    metrics = per_layer_metrics(tracer, graphs, stdout_bytes, traced_ns / untraced_ns)
    return {
        "metrics": metrics,
        "untraced_s": untraced_ns / 1e9,
        "traced_s": traced_ns / 1e9,
        "attempted": 3 * len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("mode", choices=("prepare", "serve", "trace"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    in_process = WORKLOADS[args.workload].in_process or args.mode == "trace"
    ops = set_up(args.workload, args.seed, warm=in_process)
    if args.mode == "serve":
        emit(repeat(ops, args.seed, args.seconds, call))
    elif args.mode == "trace":
        emit(trace(ops, args.seed, Path("trace")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
