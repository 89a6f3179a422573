"""The ``verify`` text equals ``json.dumps(indent=2)`` of its document.

``report.verify_text`` writes the JSON text directly; the dict-building functions
below are the reference it must match byte for byte, with and without the
chains, with ``--timings``, and for any ``source`` path.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import proxrem as px
from proxrem import report as rpt
from proxrem.cli import main

from .conftest import connected_graphs


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def reference_chain(links) -> list[dict]:
    return [
        {"name": link.name, "lhs": _frac(link.lhs), "rhs": _frac(link.rhs), "holds": link.holds}
        for link in links
    ]


def reference_document(g, report, source, seconds=None) -> dict:
    block: dict = {
        "delta": report.delta,
        "Delta": report.Delta,
        "case": report.case,
        "proximity": _frac(report.proximity),
        "remoteness": _frac(report.remoteness),
        "bounds": {k: _frac(v) for k, v in report.bounds.items()},
        "slack": {k: _frac(v) for k, v in report.slack.items()},
        "holds": dict(report.holds),
        "all_hold": report.all_hold(),
    }
    if report.proximity_chain is not None:
        block["proximity_chain"] = reference_chain(report.proximity_chain)
    if report.remoteness_chain is not None:
        block["remoteness_chain"] = reference_chain(report.remoteness_chain)
    doc = {
        "schema_version": rpt.SCHEMA_VERSION,
        "input": {"source": source, "order": g.n, "edges": g.edge_count()},
        "verification": block,
    }
    if seconds is not None:
        doc["timings"] = {"seconds": seconds}
    return doc


_SOURCES = [
    "g.edges",
    "dir with space/g 1.edges",
    'quote"d.edges',
    "back\\slash.edges",
    "nön-ascii-图.edges",
    "tab\tand\nnewline.edges",
    os.fsdecode(b"non-utf8-\xff.edges"),  # a lone surrogate
]


@given(connected_graphs(max_order=12), st.booleans(), st.text(max_size=12))
@settings(max_examples=150, deadline=None)
@example(px.path_graph(2), True, _SOURCES[-1])
def test_text_equals_json_dumps(g, chains, source):
    report = px.bound_report(g, include_chains=chains)
    expected = json.dumps(reference_document(g, report, source), indent=2)
    assert rpt.verify_text(g, report, source) == expected


@pytest.mark.parametrize("seconds", [0.0, 1e-05, 0.0123456789, 3.5, 1234.5678])
def test_timings_key_comes_last(seconds):
    g = px.extremal_graph(px.ExtremalParams(20, 3, 8))
    report = px.bound_report(g, include_chains=True)
    expected = json.dumps(reference_document(g, report, "g.edges", seconds), indent=2)
    assert rpt.verify_text(g, report, "g.edges", seconds) == expected


@pytest.mark.parametrize("source", _SOURCES)
@pytest.mark.parametrize("flags", [[], ["--chain"], ["--chain", "--timings"]])
def test_cli_output_equals_json_dumps(capsys, tmp_path, monkeypatch, source, flags):
    # the source is printed as given, relative to the working directory
    monkeypatch.chdir(tmp_path)
    g = px.cycle_graph(9)
    os.makedirs(os.path.dirname(source) or ".", exist_ok=True)
    with open(source, "w") as fh:
        fh.write(px.render_graph(g))
    assert main(["verify", *flags, source]) == 0
    out = capsys.readouterr().out
    seconds = json.loads(out)["timings"]["seconds"] if "--timings" in flags else None
    report = px.bound_report(g, include_chains="--chain" in flags)
    assert out == json.dumps(reference_document(g, report, source, seconds), indent=2) + "\n"
