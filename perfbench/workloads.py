"""The four workloads: their operations, and the check of every output.

An operation is one ``proxrem`` command line.  It runs either as its own
process (``python3 -m proxrem.cli ...``) or in a long-lived process through
``proxrem.cli.main(argv)``; both are run from the per-run work directory, so
input paths and therefore the output bytes are the same either way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import inputs

LEMMA_MAX_TOTAL, LEMMA_MAX_ORDER = 9, 7
TREES_MAX_N = 7
RANDOM_SAMPLES, RANDOM_MAX_N = 500, 60
EXTREMAL_DELTA, EXTREMAL_LO, EXTREMAL_HI = 3, 16, 120
MAX_REPORTED_FAILURES = 5
SHARPNESS_HEADER = "n,delta,Delta,case,proximity,pi_bound,gap_pi,remoteness,rho_bound,gap_rho"


class Op(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    graphs: int        # graphs whose invariants the operation computes
    order: int = 0     # verify only: expected order and edge count
    edges: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool   # timed through cli.main in one process, else a process per op
    build: Callable[[int, Path], tuple[list[Op], str]]


def _verify_ops(graphs, seed: int, work: Path) -> tuple[list[Op], str]:
    digest = hashlib.sha256()
    written = inputs.write_graphs(graphs(seed), work / "inputs", digest)
    ops = [Op("verify", ("verify", "--chain", rel), 1, n, m) for rel, n, m in written]
    return ops, digest.hexdigest()


def _argv_ops(ops: list[Op]) -> tuple[list[Op], str]:
    digest = hashlib.sha256()
    for op in ops:
        digest.update("\0".join(op.argv).encode() + b"\n")
    return ops, digest.hexdigest()


def _oracle_ops(seed: int, work: Path) -> tuple[list[Op], str]:
    trees = sum(inputs.tree_count(m) for m in range(2, TREES_MAX_N + 1))
    return _argv_ops([
        Op("bound-trees", ("oracle", "bound-check", "--trees", str(TREES_MAX_N), "--jobs", "1"), trees),
        Op("bound-random", ("oracle", "bound-check", "--random", str(RANDOM_SAMPLES),
                            "--max-n", str(RANDOM_MAX_N), "--seed", str(seed), "--jobs", "1"),
           RANDOM_SAMPLES),
        Op("lemma", ("oracle", "lemma-sweep", "--max-n", str(LEMMA_MAX_TOTAL),
                     "--max-order", str(LEMMA_MAX_ORDER), "--jobs", "1"), 0),
    ])


def _extremal_ops(seed: int, work: Path) -> tuple[list[Op], str]:
    rows = len(inputs.extremal_params(EXTREMAL_DELTA, EXTREMAL_LO, EXTREMAL_HI))
    return _argv_ops([
        Op("extremal", ("extremal", "--delta", str(EXTREMAL_DELTA), "--sweep",
                        str(EXTREMAL_LO), str(EXTREMAL_HI), "--jobs", "1"), rows),
    ])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-large", False, lambda s, w: _verify_ops(inputs.large_graphs, s, w)),
        Workload("certify-corpus", True, lambda s, w: _verify_ops(inputs.corpus_graphs, s, w)),
        Workload("oracle-sweeps", False, _oracle_ops),
        Workload("extremal-sweep", False, _extremal_ops),
    )
}


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else the reason.


def _check_verify(op: Op, seed: int, out: str) -> str | None:
    doc = json.loads(out)
    if (doc["input"]["order"], doc["input"]["edges"]) != (op.order, op.edges):
        return f"input read as {doc['input']}, expected order {op.order}, {op.edges} edges"
    v = doc["verification"]
    if v["all_hold"] is not True or not all(v["holds"].values()):
        return "a bound does not hold"
    for name, bound in v["bounds"].items():
        actual = v["proximity"] if name.startswith("proximity") else v["remoteness"]
        if Fraction(v["slack"][name]) != Fraction(bound) - Fraction(actual):
            return f"slack of {name} is not bound minus value"
    for chain in ("proximity_chain", "remoteness_chain"):
        links = v.get(chain)
        if not links:
            return f"{chain} missing"
        for link in links:
            if link["holds"] is not True or Fraction(link["lhs"]) > Fraction(link["rhs"]):
                return f"{chain} link {link['name']} fails"
    return None


def _check_bound(op: Op, seed: int, out: str) -> str | None:
    bc = json.loads(out)["bound_check"]
    if bc["graphs"] != op.graphs:
        return f"checked {bc['graphs']} graphs, expected {op.graphs}"
    if bc["ok"] is not True or bc["violations"]:
        return "bound check reports violations"
    if op.kind == "bound-trees" and bc["path_equality_ok"] is not True:
        return "order-only remoteness bound not tight exactly on paths"
    if op.kind == "bound-random" and bc["params"] != {
        "max_n": RANDOM_MAX_N, "samples": RANDOM_SAMPLES, "seed": seed,
    }:
        return f"random corpus parameters echoed as {bc['params']}"
    return None


def _check_lemma(op: Op, seed: int, out: str) -> str | None:
    doc = json.loads(out)
    sweep = doc["sweep"]
    expected = inputs.sweep_instance_count(LEMMA_MAX_TOTAL, LEMMA_MAX_ORDER)
    if sweep["instances"] != expected:
        return f"{sweep['instances']} instances, expected {expected}"
    if sweep["ok"] is not True or sweep["violations"] != 0:
        return "lemma sweep reports violations"
    for r in doc["records"]:
        if r["median_observed"] > Fraction(r["median_bound"]) or r["any_observed"] > Fraction(r["any_bound"]):
            return f"record total={r['total']} heavy={r['heavy']} exceeds its bound"
    return None


def _check_extremal(op: Op, seed: int, out: str) -> str | None:
    lines = out.splitlines()
    if not lines or lines[0] != SHARPNESS_HEADER:
        return "sharpness CSV header missing"
    expected = inputs.extremal_params(EXTREMAL_DELTA, EXTREMAL_LO, EXTREMAL_HI)
    if len(lines) - 1 != len(expected):
        return f"{len(lines) - 1} sharpness rows, expected {len(expected)}"
    for line, (n, D) in zip(lines[1:], expected):
        f = line.split(",")
        if (int(f[0]), int(f[1]), int(f[2])) != (n, EXTREMAL_DELTA, D):
            return f"row {line!r} out of order, expected n={n} Delta={D}"
        prox, pi_bound, gap_pi, rem, rho_bound, gap_rho = (Fraction(x) for x in f[4:])
        limits = []
        if 2 * D <= n:
            limits.append(Fraction(49, 4))
        if 2 * D >= n:
            limits.append(6 * EXTREMAL_DELTA + Fraction(5, 2))
        if gap_pi != pi_bound - prox or gap_rho != rho_bound - rem:
            return f"row {line!r}: gap is not bound minus value"
        if not (gap_pi < min(limits) and gap_rho <= Fraction(17, 2)):
            return f"row {line!r} outside the sharpness limits"
    return None


_CHECKS = {
    "verify": _check_verify,
    "bound-trees": _check_bound,
    "bound-random": _check_bound,
    "lemma": _check_lemma,
    "extremal": _check_extremal,
}


def check(op: Op, seed: int, code: int, out: str) -> str | None:
    """Why the output of ``op`` is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[op.kind](op, seed, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def repeat(ops: list[Op], seed: int, seconds: float,
           run_op: Callable[[tuple[str, ...]], tuple[int, int, str]]) -> dict:
    """Run ``ops`` in order, again until the timed operations have taken
    ``seconds`` in all, and check every output.  ``run_op(argv)`` returns
    the time taken in ns, the exit code and stdout; the checks are not
    timed, so the repetition count does not depend on how long they take."""
    walls: list[float] = []
    latencies: list[int] = []
    failures: list[str] = []
    while True:
        wall = 0
        for op in ops:
            ns, code, out = run_op(op.argv)
            wall += ns
            latencies.append(ns)
            why = check(op, seed, code, out)
            if why is not None:
                failures.append(f"{' '.join(op.argv)}: {why}")
        walls.append(wall / 1e9)
        if sum(walls) >= seconds:
            break
    return {"walls": walls, "latencies_ns": latencies, "attempted": len(latencies),
            "failed": len(failures), "failures": failures[:MAX_REPORTED_FAILURES]}
