"""Unweighted distance invariants and the order / minimum-degree bounds.

Everything is exact: transmissions are integers, proximity and remoteness
are ``fractions.Fraction``.  No floating point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .graphs import DistanceOracle, Graph, all_pairs_distances


@dataclass(frozen=True)
class InvariantSummary:
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
