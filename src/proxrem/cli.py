"""Command-line front end.

Subcommands: ``compute`` (invariants of one graph), ``verify`` (all
bounds, optionally with the certified inequality chains), ``extremal``
(family generation and sharpness gaps), ``oracle`` (exhaustive sweeps).

Exit codes: 0 success, 1 a verified claim failed (counterexample found),
2 usage or input error (an unreadable path, a disconnected graph, a
document above ``graphs.MAX_ORDER`` vertices or ``graphs.MAX_EDGES`` edge
lines, an ``extremal`` order above that cap or graph above that budget,
a sweep above ``extremal.MAX_SWEEP_WORK``, and an ``extremal`` flag that
does not apply: ``--n``, ``--Delta``, ``--sharpness`` or ``--output``
with ``--sweep``, ``--csv`` without it, ``--output`` with
``--sharpness``), 3 an internal
error: any other exception, reported as one ``internal error:`` line on
stderr so that a crash never reads as a counterexample.  ``compute`` and
``verify`` read G's transmissions, which come with no n×n array;
``verify --chain`` builds the spanning tree T and the auxiliary graph F
from balls, one BFS of each, rerooting passes over T and F's weighted
transmissions, with no n×n array either, and the certifiers read the
trace alone.  A distance kernel imports its array libraries only when
``graphs`` selects it, so a small graph, or a large one of small
diameter, is checked without them.

Each subcommand loads only its own modules, and none loads
``dataclasses``.  This module loads ``graphs``, ``invariants`` and
``report``, all that ``compute`` runs.  Every other subcommand names its
layer, which its parser (:class:`_Subcommand`) imports once the
subcommand is chosen, so that running the command imports nothing more:
``verify`` loads ``construction`` (and with it ``weighted``), whose
``ConstructionError`` :func:`_cmd_verify` catches and exits 1 on;
``extremal`` loads ``extremal``; ``oracle`` loads ``oracle`` (and
``weighted``).  The bounds that ``extremal`` and both ``oracle`` commands
check live in ``invariants``, so neither loads ``construction``, and
``extremal`` loads no ``weighted`` either.

Output is byte-identical for identical inputs and flags; ``--timings``
adds wall-clock data (a ``timings`` key, or a final ``seconds`` line
under ``compute --format text``) and is off by default so the default
output stays deterministic.  ``verify`` prints the text of
``report.verify_text``; the other JSON documents go through
``json.dumps(indent=2)``, which gives the same bytes for the same
document.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .graphs import (
    DEFAULT_SEED,
    DistanceOracle,
    Graph,
    ParseError,
    all_pairs_distances,
    parse_graph,
    render_graph,
)
from .invariants import invariant_summary
from . import report as rpt

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _emit(doc: dict, timings: dict | None) -> None:
    if timings is not None:
        doc["timings"] = timings
    print(json.dumps(doc, indent=2))


def _load_graph(path: str) -> tuple[Graph, DistanceOracle]:
    """Parse ``path`` into G and its distance oracle, and reject a
    disconnected graph from vertex 0's BFS row, in O(n+m), before any
    all-pairs work.  The file is opened by its name as given: ``pathlib``
    would intern each component of every path it parses, and a process
    that checks thousands of files grows the interpreter's table of
    interned strings for good."""
    with open(path) as fh:
        g = parse_graph(fh.read())
    d = all_pairs_distances(g)
    if not d.connected:
        raise ParseError("input graph is disconnected")
    return g, d


def _cmd_compute(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    g, d = _load_graph(args.input)
    inv = invariant_summary(g, d)
    timings = {"seconds": time.perf_counter() - t0} if args.timings else None
    if args.format == "text":
        print(f"order {g.n}, edges {g.edge_count()}")
        print(f"proximity {rpt.frac_str(inv.proximity)}  median {list(inv.median)}")
        print(f"remoteness {rpt.frac_str(inv.remoteness)}  antimedian {list(inv.antimedian)}")
        print("transmissions " + " ".join(str(t) for t in inv.transmissions))
        if timings is not None:
            print(f"seconds {timings['seconds']!r}")
    else:
        _emit(rpt.compute_document(g, inv, args.input), timings)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .construction import ConstructionError, bound_report

    t0 = time.perf_counter()
    g, d = _load_graph(args.input)
    try:
        report = bound_report(g, include_chains=args.chain, oracle=d)
    except ConstructionError as exc:
        print(f"construction invariant failed: {exc}", file=sys.stderr)
        return EXIT_CLAIM_FAILED
    seconds = time.perf_counter() - t0 if args.timings else None
    print(rpt.verify_text(g, report, args.input, seconds))
    return EXIT_OK if report.all_hold() else EXIT_CLAIM_FAILED


def _cmd_extremal(args: argparse.Namespace) -> int:
    if args.sweep is not None:
        return _extremal_sweep(args)
    if args.csv is not None:
        print("error: --csv needs --sweep", file=sys.stderr)
        return EXIT_USAGE
    if args.n is None or args.Delta is None:
        print("error: --n and --Delta are required without --sweep", file=sys.stderr)
        return EXIT_USAGE
    if args.sharpness and args.output:
        print("error: --output cannot be used with --sharpness", file=sys.stderr)
        return EXIT_USAGE
    from .extremal import ExtremalParams, extremal_graph, sharpness_report

    try:
        params = ExtremalParams(args.n, args.delta, args.Delta)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.sharpness:
        record = sharpness_report(params)
        _emit(rpt.sharpness_document(record), None)
        return EXIT_OK if record.within_limits else EXIT_CLAIM_FAILED
    text = render_graph(extremal_graph(params))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _extremal_sweep(args: argparse.Namespace) -> int:
    """``extremal --sweep``, which refuses every flag of a single member."""
    member_flags = (("--n", args.n), ("--Delta", args.Delta),
                    ("--sharpness", args.sharpness or None), ("--output", args.output))
    given = [flag for flag, value in member_flags if value is not None]
    if given:
        print(f"error: {', '.join(given)} cannot be used with --sweep", file=sys.stderr)
        return EXIT_USAGE
    from .extremal import sharpness_sweep

    lo, hi = args.sweep
    records = sharpness_sweep(args.delta, lo, hi, jobs=args.jobs)
    rows = "\n".join(rpt.sharpness_csv_rows(records)) + "\n"
    if args.csv:
        Path(args.csv).write_text(rows)
        print(json.dumps({"records": len(records), "ok": all(r.within_limits for r in records)}))
    else:
        sys.stdout.write(rows)
    return EXIT_OK if all(r.within_limits for r in records) else EXIT_CLAIM_FAILED


def _cmd_oracle_lemma_sweep(args: argparse.Namespace) -> int:
    from .oracle import instance_csv_rows, lemma_sweep

    report = lemma_sweep(args.max_n, args.max_order, jobs=args.jobs)
    if args.csv:
        Path(args.csv).write_text("\n".join(rpt.sweep_csv_rows(report)) + "\n")
    if args.instances:
        with open(args.instances, "w") as fh:
            for row in instance_csv_rows(args.max_n, args.max_order):
                fh.write(row + "\n")
    _emit(rpt.sweep_document(report), None)
    if report.violations:
        for i, v in enumerate(report.violations):
            _dump_violation(v, i)
        return EXIT_CLAIM_FAILED
    return EXIT_OK


def _dump_violation(v, index: int) -> None:
    from .oracle import prufer_decode
    from .weighted import WeightFunction

    tree = prufer_decode(v.prufer, v.order)
    base = Path(f"counterexample-{index}")
    base.with_suffix(".edges").write_text(render_graph(tree))
    base.with_suffix(".weights").write_text(
        WeightFunction.of(v.weights).to_lines()
    )
    print(
        f"violation[{index}]: kind={v.kind} order={v.order} heavy={v.heavy} "
        f"observed={v.observed} bound={rpt.frac_str(v.bound)} "
        f"(dumped to {base}.edges / {base}.weights)",
        file=sys.stderr,
    )


def _cmd_oracle_bound_check(args: argparse.Namespace) -> int:
    from .oracle import exhaustive_bound_check

    if args.trees is not None:
        report = exhaustive_bound_check(args.trees, "exhaustive-trees", jobs=args.jobs)
    elif args.random is not None:
        report = exhaustive_bound_check(
            args.max_n, "random", samples=args.random, seed=args.seed, jobs=args.jobs
        )
    else:
        print("error: one of --trees or --random is required", file=sys.stderr)
        return EXIT_USAGE
    _emit(rpt.bound_check_document(report), None)
    return EXIT_OK if report.ok else EXIT_CLAIM_FAILED


def _jobs(text: str) -> int:
    """``--jobs``: a worker count of at least 1.  A non-integer gets
    argparse's own ``int`` message."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


class _Subcommand(argparse.ArgumentParser):
    """The parser of one subcommand; it imports the subcommand's ``layer``,
    a module of this package, when the subcommand is chosen."""

    def __init__(self, *args, layer: str | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.layer = layer

    def parse_known_args(self, args=None, namespace=None):
        if self.layer is not None:
            # the builtin that import statements call, so -X importtime lists the layer
            __import__(f"{__package__}.{self.layer}")
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxrem",
        description="Exact proximity/remoteness invariants and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = sub.add_parser("compute", help="invariants of one edge-list graph")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--timings", action="store_true", help="add wall-clock timings")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="check every bound on one graph", layer="construction")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--chain", action="store_true", help="certify the inequality chains")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("extremal", help="generate the near-extremal family", layer="extremal")
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--Delta", type=int, dest="Delta")
    p.add_argument("--sharpness", action="store_true", help="measure bound gaps")
    p.add_argument("--sweep", type=int, nargs=2, metavar=("N_LO", "N_HI"),
                   help="sharpness CSV over all valid (n, Delta) in the range")
    p.add_argument("--csv", help="write sweep CSV to a file")
    p.add_argument("--output", "-o", help="write the graph to a file")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("oracle", help="brute-force verification sweeps", layer="oracle")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    q = osub.add_parser("lemma-sweep", help="exhaustive weighted-distance bound sweep")
    q.add_argument("--max-n", type=int, default=9, help="largest total weight")
    q.add_argument("--max-order", type=int, default=7, help="largest tree order")
    q.add_argument("--csv", help="write per-(total,heavy) records to a file")
    q.add_argument("--instances", help="write the per-instance CSV to a file")
    q.add_argument("--jobs", type=_jobs, default=1)
    q.set_defaults(func=_cmd_oracle_lemma_sweep)

    q = osub.add_parser("bound-check", help="verify all bounds on trees or random graphs")
    group = q.add_mutually_exclusive_group()
    group.add_argument("--trees", type=int, help="exhaustive over trees up to this order")
    group.add_argument("--random", type=int, help="number of random connected graphs")
    q.add_argument("--max-n", type=int, default=60, help="largest random order")
    q.add_argument("--seed", type=int, default=DEFAULT_SEED)
    q.add_argument("--jobs", type=_jobs, default=1)
    q.set_defaults(func=_cmd_oracle_bound_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and reused by every
    later call in the process; parsing leaves no state in it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
