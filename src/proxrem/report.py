"""Report documents: JSON-ready dicts, the ``verify`` text, and CSV rows.

Every rational is serialized as an exact ``p/q`` string, from the
``numerator`` and ``denominator`` that ``int`` and ``Fraction`` share, so
an integral value held as an ``int`` prints as ``n/1``; floats never
appear.  Key order is fixed so identical inputs yield byte-identical
output regardless of parallelism.

``verify`` prints one document per graph, so :func:`verify_text` writes
its JSON text directly, byte for byte what ``json.dumps(doc, indent=2)``
gives for the equivalent dict, whose pure-Python indent encoder would
otherwise cost more than the small graph itself.  The other documents
are dicts, printed once per process.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # annotations only: rendering a report loads no other module
    from .construction import BoundReport, ChainLink
    from .extremal import SharpnessRecord
    from .graphs import Graph
    from .invariants import InvariantSummary
    from .oracle import BoundCheckReport, LemmaSweepReport

SCHEMA_VERSION = "1"


def frac_str(x: Fraction | int) -> str:
    return f"{x.numerator}/{x.denominator}"


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


def compute_document(g: Graph, inv: InvariantSummary, source: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "input": {"source": source, "order": g.n, "edges": g.edge_count()},
        "invariants": invariants_block(inv),
    }


def _fraction_entries(values: dict[str, Fraction]) -> str:
    return ",\n".join(f'      "{k}": "{v.numerator}/{v.denominator}"' for k, v in values.items())


def _chain_text(key: str, links: Iterable[ChainLink]) -> str:
    items = ",\n".join(
        f'      {{\n        "name": "{link.name}",\n'
        f'        "lhs": "{link.lhs.numerator}/{link.lhs.denominator}",\n'
        f'        "rhs": "{link.rhs.numerator}/{link.rhs.denominator}",\n'
        f'        "holds": {"true" if link.holds else "false"}\n      }}'
        for link in links
    )
    return f',\n    "{key}": [\n{items}\n    ]'


def verify_text(g: Graph, report: BoundReport, source: str, seconds: float | None = None) -> str:
    """The ``verify`` document as JSON text, without a final newline:
    ``schema_version``, ``input``, ``verification`` with the six bounds,
    their slack and verdicts and each chain that was certified, then
    ``timings`` when ``seconds`` is given.

    Equal to ``json.dumps(doc, indent=2)`` of the same document as a dict
    (the tests keep that dict as the reference): ``source`` is escaped by
    the encoder ``json.dumps`` uses, and every other string is a name
    fixed in the code.
    """
    r = report
    holds = ",\n".join(f'      "{k}": {"true" if v else "false"}' for k, v in r.holds.items())
    chains = ""
    if r.proximity_chain is not None:
        chains += _chain_text("proximity_chain", r.proximity_chain)
    if r.remoteness_chain is not None:
        chains += _chain_text("remoteness_chain", r.remoteness_chain)
    timings = "" if seconds is None else f',\n  "timings": {{\n    "seconds": {seconds!r}\n  }}'
    return (
        f'{{\n  "schema_version": "{SCHEMA_VERSION}",\n'
        f'  "input": {{\n    "source": {encode_basestring_ascii(source)},\n'
        f'    "order": {g.n},\n    "edges": {g.edge_count()}\n  }},\n'
        f'  "verification": {{\n    "delta": {r.delta},\n    "Delta": {r.Delta},\n'
        f'    "case": "{r.case}",\n'
        f'    "proximity": "{r.proximity.numerator}/{r.proximity.denominator}",\n'
        f'    "remoteness": "{r.remoteness.numerator}/{r.remoteness.denominator}",\n'
        f'    "bounds": {{\n{_fraction_entries(r.bounds)}\n    }},\n'
        f'    "slack": {{\n{_fraction_entries(r.slack)}\n    }},\n'
        f'    "holds": {{\n{holds}\n    }},\n'
        f'    "all_hold": {"true" if r.all_hold() else "false"}{chains}\n  }}{timings}\n}}'
    )


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
