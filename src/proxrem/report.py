"""Report documents: JSON-ready dicts and CSV rows.

Every rational is serialized as an exact ``p/q`` string; floats never
appear.  Key order is fixed so identical inputs yield byte-identical
output regardless of parallelism.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .construction import BoundReport, ChainLink
from .extremal import SharpnessRecord
from .graphs import Graph
from .invariants import InvariantSummary
from .oracle import BoundCheckReport, LemmaSweepReport

SCHEMA_VERSION = "1"


def frac_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def invariants_block(inv: InvariantSummary) -> dict:
    denom = inv.order - 1
    return {
        "order": inv.order,
        "transmissions": list(inv.transmissions),
        "avg_distances": [frac_str(Fraction(s, denom)) for s in inv.transmissions],
        "proximity": frac_str(inv.proximity),
        "remoteness": frac_str(inv.remoteness),
        "median": list(inv.median),
        "antimedian": list(inv.antimedian),
    }


def chain_block(links: Iterable[ChainLink]) -> list[dict]:
    return [
        {
            "name": link.name,
            "lhs": frac_str(link.lhs),
            "rhs": frac_str(link.rhs),
            "holds": link.holds,
        }
        for link in links
    ]


def bounds_block(report: BoundReport) -> dict:
    block: dict = {
        "delta": report.delta,
        "Delta": report.Delta,
        "case": report.case,
        "proximity": frac_str(report.proximity),
        "remoteness": frac_str(report.remoteness),
        "bounds": {k: frac_str(v) for k, v in report.bounds.items()},
        "slack": {k: frac_str(v) for k, v in report.slack.items()},
        "holds": dict(report.holds),
        "all_hold": report.all_hold(),
    }
    if report.proximity_chain is not None:
        block["proximity_chain"] = chain_block(report.proximity_chain)
    if report.remoteness_chain is not None:
        block["remoteness_chain"] = chain_block(report.remoteness_chain)
    return block


def _document(source: str, g: Graph) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "input": {"source": source, "order": g.n, "edges": g.edge_count()},
    }


def compute_document(g: Graph, inv: InvariantSummary, source: str) -> dict:
    doc = _document(source, g)
    doc["invariants"] = invariants_block(inv)
    return doc


def verify_document(g: Graph, report: BoundReport, source: str) -> dict:
    doc = _document(source, g)
    doc["verification"] = bounds_block(report)
    return doc


def sweep_document(report: LemmaSweepReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "sweep": {
            "max_total": report.max_total,
            "max_order": report.max_order,
            "trees": report.trees,
            "weightings": report.weightings,
            "instances": report.instances,
            "violations": len(report.violations),
            "ok": report.ok,
        },
        "records": [
            {
                "total": r.total,
                "heavy": r.heavy,
                "median_observed": r.median_observed,
                "median_bound": frac_str(r.median_bound),
                "median_slack": frac_str(r.median_slack),
                "any_observed": r.any_observed,
                "any_bound": frac_str(r.any_bound),
                "any_slack": frac_str(r.any_slack),
            }
            for r in report.records
        ],
    }


SWEEP_CSV_HEADER = (
    "total,heavy,median_observed,median_bound,median_slack,"
    "any_observed,any_bound,any_slack"
)


def sweep_csv_rows(report: LemmaSweepReport) -> Iterator[str]:
    yield SWEEP_CSV_HEADER
    for r in report.records:
        yield (
            f"{r.total},{r.heavy},{r.median_observed},{frac_str(r.median_bound)},"
            f"{frac_str(r.median_slack)},{r.any_observed},{frac_str(r.any_bound)},"
            f"{frac_str(r.any_slack)}"
        )


def bound_check_document(report: BoundCheckReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "bound_check": {
            "mode": report.mode,
            "params": dict(report.params),
            "graphs": report.graphs,
            "ok": report.ok,
            "path_equality_ok": report.path_equality_ok,
            "violations": [
                {"label": w.label, "slack": frac_str(w.slack), "edge_list": w.edge_list}
                for w in report.violations
            ],
            "min_slack": {
                name: {
                    "slack": frac_str(report.min_slack[name]),
                    "graph": report.witness[name].label,
                }
                for name in sorted(report.min_slack)
            },
        },
    }


SHARPNESS_CSV_HEADER = (
    "n,delta,Delta,case,proximity,pi_bound,gap_pi,remoteness,rho_bound,gap_rho"
)


def sharpness_csv_rows(records: Iterable[SharpnessRecord]) -> Iterator[str]:
    yield SHARPNESS_CSV_HEADER
    for r in records:
        yield (
            f"{r.n},{r.delta},{r.Delta},{r.case},{frac_str(r.proximity)},"
            f"{frac_str(r.pi_bound)},{frac_str(r.gap_pi)},{frac_str(r.remoteness)},"
            f"{frac_str(r.rho_bound)},{frac_str(r.gap_rho)}"
        )


def sharpness_document(r: SharpnessRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "sharpness": {
            "n": r.n,
            "delta": r.delta,
            "Delta": r.Delta,
            "case": r.case,
            "proximity": frac_str(r.proximity),
            "pi_bound": frac_str(r.pi_bound),
            "gap_pi": frac_str(r.gap_pi),
            "gap_pi_limit": frac_str(r.gap_pi_limit),
            "remoteness": frac_str(r.remoteness),
            "rho_bound": frac_str(r.rho_bound),
            "gap_rho": frac_str(r.gap_rho),
            "gap_rho_limit": "17/2",
            "within_limits": r.within_limits,
        },
    }
