"""Unweighted distance invariants and the order / minimum-degree bounds.

Everything is exact: transmissions are integers, averaged quantities are
``fractions.Fraction``.  No floating point enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graphs import INF, DistanceOracle, Graph, all_pairs_distances


@dataclass(frozen=True)
class InvariantSummary:
    """Per-vertex and aggregate distance invariants of a connected graph."""

    order: int
    transmissions: tuple[int, ...]
    avg_distances: tuple[Fraction, ...]
    proximity: Fraction          # min of avg_distances
    remoteness: Fraction         # max of avg_distances
    median: tuple[int, ...]      # argmin, sorted
    antimedian: tuple[int, ...]  # argmax, sorted


def transmission(d: DistanceOracle, v: int) -> int:
    """Sum of distances from ``v`` to all other vertices."""
    row = d.row(v)
    if not bool((row < INF).all()):
        raise ValueError("transmission undefined on a disconnected graph")
    return int(row.sum())


def invariant_summary(g: Graph, oracle: DistanceOracle | None = None) -> InvariantSummary:
    """Compute transmissions, average distances, proximity and remoteness.

    Requires a connected graph on at least two vertices.
    """
    if g.n < 2:
        raise ValueError("invariants need at least two vertices")
    d = oracle if oracle is not None else all_pairs_distances(g)
    if not d.all_finite():
        raise ValueError("invariants undefined on a disconnected graph")
    sums = d.matrix.sum(axis=1)
    trans = tuple(int(s) for s in sums)
    denom = g.n - 1
    avg = tuple(Fraction(s, denom) for s in trans)
    tmin = min(trans)
    tmax = max(trans)
    return InvariantSummary(
        order=g.n,
        transmissions=trans,
        avg_distances=avg,
        proximity=Fraction(tmin, denom),
        remoteness=Fraction(tmax, denom),
        median=tuple(v for v, s in enumerate(trans) if s == tmin),
        antimedian=tuple(v for v, s in enumerate(trans) if s == tmax),
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
    return Fraction(n + 1, 4) + Fraction(1, 4 * (n - 1))


def classical_bounds(n: int, delta: int) -> ClassicalBounds:
    """All four order/min-degree bounds, as exact rationals.

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
        rho_min_degree=Fraction(3 * n, 2 * (delta + 1)) + Fraction(7, 2),
        pi_min_degree=Fraction(3 * n, 4 * (delta + 1)) + 3,
    )
