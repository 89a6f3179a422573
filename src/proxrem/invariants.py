"""Unweighted distance invariants and the six bounds on proximity and
remoteness.

Everything is exact: transmissions are integers, proximity and remoteness
are ``fractions.Fraction``.  No floating point enters any comparison.

The bounds are closed forms in a graph's order and degree extremes: the
order / minimum-degree bounds (:func:`classical_bounds`), the degree-range
bounds (:func:`degree_range_bounds`), and :func:`bound_verdicts`, which
meets all six with a graph's transmission extremes.  They live here, with
no import of the construction, so that ``extremal`` and ``oracle`` check
them without loading it; ``construction`` imports them back for its
chains and :func:`~proxrem.construction.bound_report`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .graphs import DistanceOracle, Graph, all_pairs_distances


class InvariantSummary(NamedTuple):
    """Per-vertex and aggregate distance invariants of a connected graph.

    A vertex's average distance is its transmission over ``order - 1``;
    reports derive it from ``transmissions`` where they print it.
    """

    order: int
    transmissions: tuple[int, ...]
    proximity: Fraction          # min transmission / (order - 1)
    remoteness: Fraction         # max transmission / (order - 1)
    median: tuple[int, ...]      # argmin, sorted
    antimedian: tuple[int, ...]  # argmax, sorted


def invariant_summary(g: Graph, oracle: DistanceOracle | None = None) -> InvariantSummary:
    """Compute transmissions, proximity, remoteness and the (anti)medians.

    Requires a connected graph on at least two vertices.
    """
    if g.n < 2:
        raise ValueError("invariants need at least two vertices")
    d = oracle if oracle is not None else all_pairs_distances(g)
    if not d.connected:
        raise ValueError("invariants undefined on a disconnected graph")
    return summarize_transmissions(d.transmissions)


def summarize_transmissions(transmissions: Sequence[int]) -> InvariantSummary:
    """The summary of a connected graph of order ``len(transmissions)`` >= 2
    with these transmissions."""
    trans = tuple(transmissions)
    denom = len(trans) - 1
    tmin = min(trans)
    tmax = max(trans)
    return InvariantSummary(
        order=len(trans),
        transmissions=trans,
        proximity=Fraction(tmin, denom),
        remoteness=Fraction(tmax, denom),
        median=tuple([v for v, s in enumerate(trans) if s == tmin]),
        antimedian=tuple([v for v, s in enumerate(trans) if s == tmax]),
    )


class ClassicalBounds(NamedTuple):
    """Upper bounds on remoteness/proximity from order and minimum degree."""

    rho_order: Fraction
    pi_order: Fraction
    rho_min_degree: Fraction
    pi_min_degree: Fraction


def order_proximity_bound(n: int) -> Fraction:
    """Parity-split proximity bound in terms of order alone.

    ``(n+1)/4`` for odd ``n``, plus a ``1/(4(n-1))`` correction for even
    ``n``; attained exactly by paths and cycles.
    """
    if n < 2:
        raise ValueError("bound needs n >= 2")
    if n % 2 == 1:
        return Fraction(n + 1, 4)
    return Fraction(n * n, 4 * (n - 1))  # (n+1)/4 + 1/(4(n-1))


def classical_bounds(n: int, delta: int) -> ClassicalBounds:
    """All four order/min-degree bounds, as exact rationals, each one
    ``Fraction`` of integers with its constant folded in.

    ``rho_order = n/2``; ``pi_order`` is the parity-split value;
    ``rho_min_degree = 3n/(2(delta+1)) + 7/2``;
    ``pi_min_degree = 3n/(4(delta+1)) + 3``.
    """
    if n < 2:
        raise ValueError("bounds need n >= 2")
    if not 1 <= delta <= n - 1:
        raise ValueError(f"minimum degree {delta} out of range for order {n}")
    return ClassicalBounds(
        rho_order=Fraction(n, 2),
        pi_order=order_proximity_bound(n),
        rho_min_degree=Fraction(3 * n + 7 * (delta + 1), 2 * (delta + 1)),
        pi_min_degree=Fraction(3 * n + 12 * (delta + 1), 4 * (delta + 1)),
    )


class DegreeRangeBounds(NamedTuple):
    """Proximity/remoteness upper bounds from order and both degree extremes."""

    pi_bound: Fraction
    rho_bound: Fraction
    case: str  # "large-Delta" | "small-Delta"


def degree_range_bounds(n: int, delta: int, Delta: int) -> DegreeRangeBounds:
    """Case-split bounds: for ``Delta > n/2 - 1``,
    ``pi <= 3(n-Delta)^2 / (2(n-1)(delta+1)) + 13/2``; otherwise
    ``pi <= 3(n^2 - 2 Delta^2) / (4(n-1)(delta+1)) + 35/4``; and always
    ``rho <= 3(n^2 - Delta^2) / (2(n-1)(delta+1)) + 7``.

    Each is one ``Fraction`` of integers over the form's denominator
    ``2(n-1)(delta+1)`` or ``4(n-1)(delta+1)``, the constant folded in.
    """
    if n < 2 or not (1 <= delta <= Delta <= n - 1):
        raise ValueError(f"invalid parameters (n={n}, delta={delta}, Delta={Delta})")
    m = (n - 1) * (delta + 1)
    if 2 * (Delta + 1) > n:
        pi = Fraction(3 * (n - Delta) ** 2 + 13 * m, 2 * m)
        case = "large-Delta"
    else:
        pi = Fraction(3 * (n * n - 2 * Delta * Delta) + 35 * m, 4 * m)
        case = "small-Delta"
    rho = Fraction(3 * (n * n - Delta * Delta) + 14 * m, 2 * m)
    return DegreeRangeBounds(pi, rho, case)


class BoundVerdicts(NamedTuple):
    """The six bounds of one exact key, with slack and verdicts."""

    case: str  # of :func:`degree_range_bounds`
    proximity: Fraction
    remoteness: Fraction
    bounds: dict[str, Fraction]
    slack: dict[str, Fraction]
    holds: dict[str, bool]


def bound_verdicts(n: int, delta: int, Delta: int, sigma_min: int, sigma_max: int) -> BoundVerdicts:
    """All six bounds on a connected graph of order ``n`` with degree
    extremes ``delta`` and ``Delta`` and transmission extremes ``sigma_min``
    and ``sigma_max``: the one place the bounds meet a graph's proximity
    and remoteness.  A pure function of its arguments, so equal keys give
    equal verdicts."""
    proximity = Fraction(sigma_min, n - 1)
    remoteness = Fraction(sigma_max, n - 1)
    cb = classical_bounds(n, delta)
    db = degree_range_bounds(n, delta, Delta)
    bounds = {
        "proximity_order": cb.pi_order,
        "proximity_min_degree": cb.pi_min_degree,
        "proximity_degree_aware": db.pi_bound,
        "remoteness_order": cb.rho_order,
        "remoteness_min_degree": cb.rho_min_degree,
        "remoteness_degree_aware": db.rho_bound,
    }
    slack = {
        name: bound - (proximity if name.startswith("proximity") else remoteness)
        for name, bound in bounds.items()
    }
    # a Fraction's denominator is positive, so its numerator carries the sign
    holds = {name: s.numerator >= 0 for name, s in slack.items()}
    return BoundVerdicts(db.case, proximity, remoteness, bounds, slack, holds)
