"""Differential test of the chain and bound arithmetic.

The reference below is the sum-of-``Fraction``s form of every closed form,
of a chain link (both sides made ``Fraction``s) and of the six bound
verdicts.  The package folds each closed form into one ``Fraction`` of
integers and keeps integral link sides as ``int``; every value, slack and
verdict must still equal the reference's, and no float may appear.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxrem as px
from proxrem.construction import bound_verdicts
from proxrem.weighted import any_vertex_bound, heavy_majority_bound, heavy_minority_bound, median_bound

from .conftest import connected_graphs

# ---------------------------------------------------------------------------
# Reference forms: each term its own Fraction, summed.


def ref_heavy_majority(total, heavy, floor):
    return (total - heavy) * (total - heavy + floor) / (2 * floor)


def ref_heavy_minority(total, heavy, floor):
    return (total * total - 2 * heavy * heavy) / (4 * floor) + (total + heavy) / 2


def ref_median_bound(total, heavy, floor):
    n, h, k = Fraction(total), Fraction(heavy), Fraction(floor)
    if h > n / 2:
        return ref_heavy_majority(n, h, k)
    return ref_heavy_minority(n, h, k)


def ref_any_vertex_bound(total, heavy, floor):
    n, h, k = Fraction(total), Fraction(heavy), Fraction(floor)
    return (n - h) * (n + h - k) / (2 * k)


def ref_degree_range_bounds(n, delta, Delta):
    if 2 * (Delta + 1) > n:
        pi = Fraction(3 * (n - Delta) ** 2, 2 * (n - 1) * (delta + 1)) + Fraction(13, 2)
        case = "large-Delta"
    else:
        pi = Fraction(3 * (n * n - 2 * Delta * Delta), 4 * (n - 1) * (delta + 1)) + Fraction(35, 4)
        case = "small-Delta"
    rho = Fraction(3 * (n * n - Delta * Delta), 2 * (n - 1) * (delta + 1)) + 7
    return pi, rho, case


def ref_classical_bounds(n, delta):
    pi_order = Fraction(n + 1, 4)
    if n % 2 == 0:
        pi_order += Fraction(1, 4 * (n - 1))
    return (
        Fraction(n, 2),
        pi_order,
        Fraction(3 * n, 2 * (delta + 1)) + Fraction(7, 2),
        Fraction(3 * n, 4 * (delta + 1)) + 3,
    )


def ref_link(name, lhs, rhs):
    lf, rf = Fraction(lhs), Fraction(rhs)
    return name, lf, rf, lf <= rf


def ref_sigmas(trace, at):
    i = trace.anchors.index(at)
    return (trace.tree_summary.transmissions[at], trace.contracted_tree[i],
            trace.contracted_aux[i], trace.adjusted_aux[i])


def ref_proximity_chain(trace, summary):
    n, delta, Delta = trace.order, trace.delta, trace.Delta
    sigma_t, sigma_c_t, sigma_c_f, sigma_adj_f = ref_sigmas(trace, trace.w0)
    big_n_d, heavy, floor = Fraction(n + delta), Fraction(Delta + 1), Fraction(delta + 1)
    adjusted_bound = ref_median_bound(n + trace.q, heavy, floor)
    if 2 * (Delta + 1) > n:
        q_free_bound = ref_heavy_majority(big_n_d, heavy, floor)
        merged_bound = Fraction((n - Delta) ** 2, 2 * (delta + 1)) + Fraction(3 * (n - 1), 2)
    else:
        q_free_bound = ref_heavy_minority(big_n_d, heavy, floor)
        merged_bound = Fraction(n * n - 2 * Delta * Delta, 4 * (delta + 1)) + Fraction(9 * (n - 1), 4)
    pi_bound, _, _ = ref_degree_range_bounds(n, delta, Delta)
    inv_t = trace.tree_summary
    return (
        ref_link("transmission_vs_contracted", sigma_t, sigma_c_t + 2 * (n - 1)),
        ref_link("tree_vs_aux_factor3", sigma_c_t, 3 * sigma_c_f),
        ref_link("adjusted_weights_dominate", sigma_c_f, sigma_adj_f),
        ref_link("median_bound_adjusted_total", sigma_adj_f, adjusted_bound),
        ref_link("median_bound_q_free", sigma_c_f, q_free_bound),
        ref_link("median_bound_merged", sigma_c_f, merged_bound),
        ref_link("root_transmission_bound", sigma_t, (n - 1) * pi_bound),
        ref_link("proximity_tree_dominates", summary.proximity, inv_t.proximity),
        ref_link("proximity_via_median", inv_t.proximity, Fraction(sigma_t, n - 1)),
        ref_link("proximity_bound", summary.proximity, pi_bound),
    )


def ref_remoteness_chain(trace, summary):
    n, delta, Delta = trace.order, trace.delta, trace.Delta
    inv_t = trace.tree_summary
    far = inv_t.antimedian[0]
    sigma_far = inv_t.transmissions[far]
    sigma_t, sigma_c_t, sigma_c_f, sigma_adj_f = ref_sigmas(trace, trace.nearest_anchor[far])
    adjusted_bound = ref_any_vertex_bound(n + trace.q, Delta + 1, delta + 1)
    q_free_bound = ref_any_vertex_bound(n + delta, Delta + 1, delta + 1)
    merged_bound = Fraction(n * n - Delta * Delta, 2 * (delta + 1)) + (n - 1)
    _, rho_bound, _ = ref_degree_range_bounds(n, delta, Delta)
    return (
        ref_link("far_vertex_vs_anchor", sigma_far, sigma_t + 2 * (n - 1)),
        ref_link("transmission_vs_contracted", sigma_t, sigma_c_t + 2 * (n - 1)),
        ref_link("tree_vs_aux_factor3", sigma_c_t, 3 * sigma_c_f),
        ref_link("adjusted_weights_dominate", sigma_c_f, sigma_adj_f),
        ref_link("any_vertex_bound_adjusted_total", sigma_adj_f, adjusted_bound),
        ref_link("any_vertex_bound_q_free", sigma_c_f, q_free_bound),
        ref_link("aux_remote_merged", sigma_c_f, merged_bound),
        ref_link("remote_chain_combined", sigma_far, 3 * sigma_c_f + 4 * (n - 1)),
        ref_link("remote_transmission_bound", sigma_far, (n - 1) * rho_bound),
        ref_link("remoteness_tree_bound", inv_t.remoteness, rho_bound),
        ref_link("remoteness_graph_dominates", summary.remoteness, inv_t.remoteness),
        ref_link("remoteness_bound", summary.remoteness, rho_bound),
    )


def ref_bound_verdicts(n, delta, Delta, sigma_min, sigma_max):
    proximity, remoteness = Fraction(sigma_min, n - 1), Fraction(sigma_max, n - 1)
    rho_order, pi_order, rho_min_degree, pi_min_degree = ref_classical_bounds(n, delta)
    pi_bound, rho_bound, case = ref_degree_range_bounds(n, delta, Delta)
    bounds = {
        "proximity_order": pi_order,
        "proximity_min_degree": pi_min_degree,
        "proximity_degree_aware": pi_bound,
        "remoteness_order": rho_order,
        "remoteness_min_degree": rho_min_degree,
        "remoteness_degree_aware": rho_bound,
    }
    slack = {
        name: bound - (proximity if name.startswith("proximity") else remoteness)
        for name, bound in bounds.items()
    }
    return case, proximity, remoteness, bounds, slack, {k: s >= 0 for k, s in slack.items()}


# ---------------------------------------------------------------------------


def _exact(x) -> bool:
    return type(x) in (int, Fraction)


def _assert_matches_reference(g):
    trace, summary = px.build_construction(g), px.invariant_summary(g)
    for chain, ref in (
        (px.certify_proximity_chain(trace, summary), ref_proximity_chain(trace, summary)),
        (px.certify_remoteness_chain(trace, summary), ref_remoteness_chain(trace, summary)),
    ):
        assert [link.name for link in chain] == [r[0] for r in ref]
        for link, (_, lhs, rhs, holds) in zip(chain, ref):
            assert _exact(link.lhs) and _exact(link.rhs), link
            assert (link.lhs, link.rhs, link.holds) == (lhs, rhs, holds), link

    report = px.bound_report(g, include_chains=True)
    trans = summary.transmissions
    case, proximity, remoteness, bounds, slack, holds = ref_bound_verdicts(
        g.n, report.delta, report.Delta, min(trans), max(trans)
    )
    assert (report.case, report.proximity, report.remoteness) == (case, proximity, remoteness)
    assert report.bounds == bounds and report.slack == slack and report.holds == holds
    assert all(type(v) is Fraction for v in (*report.bounds.values(), *report.slack.values()))


@given(connected_graphs(max_order=12))
@settings(max_examples=150, deadline=None)
def test_chains_and_verdicts_equal_reference(g):
    _assert_matches_reference(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda: px.path_graph(7),
        lambda: px.cycle_graph(12),
        lambda: px.complete_graph(6),
        lambda: px.star_graph(9),
        lambda: px.extremal_graph(px.ExtremalParams(20, 3, 8)),
    ],
    ids=["P7", "C12", "K6", "star9", "extremal-20-3-8"],
)
def test_chains_and_verdicts_equal_reference_on_shapes(make):
    _assert_matches_reference(make())


def test_degree_and_order_bounds_equal_reference():
    for n in range(2, 41):
        for delta in range(1, n):
            cb = px.classical_bounds(n, delta)
            assert tuple(cb) == (cb.rho_order, cb.pi_order, cb.rho_min_degree, cb.pi_min_degree)
            assert (cb.rho_order, cb.pi_order, cb.rho_min_degree, cb.pi_min_degree) == (
                ref_classical_bounds(n, delta)
            )
            assert all(type(v) is Fraction for v in cb)
            for Delta in range(delta, n):
                db = px.degree_range_bounds(n, delta, Delta)
                assert tuple(db) == ref_degree_range_bounds(n, delta, Delta)
                assert type(db.pi_bound) is type(db.rho_bound) is Fraction
                key = (n, delta, Delta, n - 1, n * (n - 1) // 2)
                verdicts = bound_verdicts(*key)
                assert tuple(verdicts) == ref_bound_verdicts(*key)


_rationals = st.fractions(min_value=0, max_value=40, max_denominator=7)
_rational_like = st.one_of(
    st.integers(0, 40), _rationals, _rationals.map(lambda f: f"{f.numerator}/{f.denominator}")
)


@given(_rational_like, _rational_like, _rational_like.filter(lambda k: Fraction(k) != 0))
@settings(max_examples=400, deadline=None)
def test_weighted_closed_forms_equal_reference(total, heavy, floor):
    n, h, k = Fraction(total), Fraction(heavy), Fraction(floor)
    for form, ref in (
        (heavy_majority_bound, ref_heavy_majority(n, h, k)),
        (heavy_minority_bound, ref_heavy_minority(n, h, k)),
        (median_bound, ref_median_bound(n, h, k)),
        (any_vertex_bound, ref_any_vertex_bound(n, h, k)),
    ):
        value = form(total, heavy, floor)
        assert type(value) is Fraction and value == ref, form.__name__
