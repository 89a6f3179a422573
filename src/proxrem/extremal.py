"""Sequential sums of complete graphs and the near-extremal family.

The family ``K_d + K_1 + [K_1 + K_{d-1} + K_1]^(k-1) + K_1 + K_D`` (with
``d`` the minimum degree, ``D+1`` the maximum degree, consecutive blocks
completely joined) realizes any order / minimum-degree / maximum-degree
triple with ``(n - Delta)`` divisible by ``delta + 1``, and its proximity
and remoteness come within fixed additive constants of the degree-aware
upper bounds.

In a sequential sum every block is a clique and only consecutive blocks
are joined, so two vertices in blocks i ≠ j are exactly |i − j| apart and
two in one block are adjacent.  All vertices of one block share their
transmission and their degree, so a member is read from its blocks: one
value of each per block, in O(#blocks) sums, and the sharpness sweep
builds no graph and no per-vertex tuple.  :func:`sequential_sum` is kept
for rendering a member and as the tests' reference.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from . import graphs
# all_pairs_distances is not called here; perfbench's tracer test checks this binding
from .graphs import MAX_ORDER, Graph, all_pairs_distances, graph_from_edges, parallel_map  # noqa: F401
from .invariants import degree_range_bounds


class _Blocks(NamedTuple):
    blocks: tuple[int, ...]


class SequentialSumSpec(_Blocks):
    """Ordered complete-block sizes of a sequential sum."""

    __slots__ = ()

    def __new__(cls, blocks: tuple[int, ...]) -> "SequentialSumSpec":
        if not blocks:
            raise ValueError("sequential sum needs at least one block")
        if min(blocks) < 1:
            raise ValueError(f"block sizes must be positive, got {blocks}")
        return super().__new__(cls, blocks)


def sequential_sum(spec: SequentialSumSpec) -> Graph:
    """Disjoint complete blocks with every consecutive pair fully joined.

    Blocks are numbered left to right with contiguous vertex indices, so
    block membership is recoverable by index arithmetic.
    """
    starts = [0]
    for size in spec.blocks:
        starts.append(starts[-1] + size)
    n = starts[-1]
    edges: list[tuple[int, int]] = []
    for bi, size in enumerate(spec.blocks):
        lo, hi = starts[bi], starts[bi + 1]
        for u in range(lo, hi):
            for v in range(u + 1, hi):
                edges.append((u, v))
        if bi + 1 < len(spec.blocks):
            nlo, nhi = starts[bi + 1], starts[bi + 2]
            for u in range(lo, hi):
                for v in range(nlo, nhi):
                    edges.append((u, v))
    return graph_from_edges(n, edges)


def sequential_sum_transmissions(spec: SequentialSumSpec) -> tuple[int, ...]:
    """The transmission of each block's vertices in :func:`sequential_sum`,
    one value per block, from the block sizes alone.

    A vertex of block i has σ = Σ_j b_j·|i − j| + b_i − 1.  Stepping from
    block i to block i + 1 takes the vertices of blocks 0..i one step
    farther and all the others one step closer.
    """
    blocks = spec.blocks
    n = sum(blocks)
    far = sum(map(mul, range(len(blocks)), blocks))  # Σ_j b_j·|i − j| at i = 0
    through = 0
    out: list[int] = []
    for size in blocks:
        out.append(far + size - 1)
        through += size
        far += 2 * through - n
    return tuple(out)


def sequential_sum_degrees(spec: SequentialSumSpec) -> tuple[int, ...]:
    """The degree of each block's vertices in :func:`sequential_sum`, one
    value per block: a vertex of block i sees the rest of its block and
    both neighbouring blocks."""
    blocks = spec.blocks
    return tuple([left + size + right - 1
                  for left, size, right in zip((0, *blocks), blocks, (*blocks[1:], 0))])


#: Largest Σ n over the members of one ``extremal --sweep``.  A member
#: costs one step per block, about n/(delta + 1) of them, for its
#: transmissions and degrees, and its record stays until the CSV is
#: written.  Measured as processes on 2 cores with Python 3.11.7,
#: ``--delta 3 --sweep 16 N_HI`` at N_HI = 300, 500 and 700 (the last
#: with this cap lifted) sums to 2.2·10⁶, 1.0·10⁷ and 2.8·10⁷ and took
#: 0.73, 2.3 and 7.0 s at 27, 48 and 80 MiB max RSS: about 0.25 µs per
#: unit and 1 KiB per member.  At the limit, sweeps at ``--delta`` 3,
#: 20, 200 and 3000 took 5.4, 1.9, 0.46 and 0.27 s at 67, 47, 30 and
#: 20 MiB.  The ``MAX_ORDER`` cap on N_HI bounds one member's blocks.
MAX_SWEEP_WORK = 20_000_000


class _Triple(NamedTuple):
    n: int
    delta: int
    Delta: int


class ExtremalParams(_Triple):
    """Valid parameter triple for the family: ``3 <= delta < Delta < n <=
    MAX_ORDER`` and ``n - Delta`` a multiple of ``delta + 1``."""

    __slots__ = ()

    def __new__(cls, n: int, delta: int, Delta: int) -> "ExtremalParams":
        if n > MAX_ORDER:
            raise ValueError(f"--n {n} is above the order limit of {MAX_ORDER}")
        if delta < 3:
            raise ValueError(f"family requires minimum degree >= 3, got {delta}")
        if not delta < Delta < n:
            raise ValueError(f"need delta < Delta < n, got ({delta}, {Delta}, {n})")
        if (n - Delta) % (delta + 1) != 0:
            raise ValueError(
                f"n - Delta = {n - Delta} must be divisible by "
                f"delta + 1 = {delta + 1}; adjust n "
                f"(nearest valid: {nearest_valid_n(n, delta, Delta)})"
            )
        return super().__new__(cls, n, delta, Delta)

    @property
    def k(self) -> int:
        return (self.n - self.Delta) // (self.delta + 1)


def nearest_valid_n(n: int, delta: int, Delta: int) -> int:
    """Closest order to ``n`` satisfying the divisibility requirement."""
    step = delta + 1
    rem = (n - Delta) % step
    down, up = n - rem, n - rem + step
    if down > Delta and n - down <= up - n:
        return down
    return up


def extremal_block_sizes(p: ExtremalParams) -> tuple[int, ...]:
    sizes = [p.delta, 1]
    sizes.extend([1, p.delta - 1, 1] * (p.k - 1))
    sizes.extend([1, p.Delta - 1])
    return tuple(sizes)


def extremal_graph(p: ExtremalParams) -> Graph:
    """Build the family member; order ``n``, degree extremes exactly
    ``(delta, Delta)``.

    Its edge count comes from the block sizes first: each block is a
    clique and consecutive blocks are fully joined.  Above
    ``graphs.MAX_EDGES`` it is a ``ValueError``, raised before any edge is
    built.
    """
    sizes = extremal_block_sizes(p)
    edges = sum(b * (b - 1) // 2 for b in sizes) + sum(a * b for a, b in zip(sizes, sizes[1:]))
    if edges > graphs.MAX_EDGES:
        raise ValueError(
            f"--n {p.n} --Delta {p.Delta}: the graph has {edges} edges > {graphs.MAX_EDGES}"
        )
    g = sequential_sum(SequentialSumSpec(sizes))
    assert g.n == p.n
    return g


def layer_assignment(p: ExtremalParams) -> tuple[int, ...]:
    """Layer index (0-based, 0..k) per vertex.

    Layer 0 holds the first two blocks (``delta + 1`` vertices), layers
    ``1..k-1`` hold one repeated pattern each (``delta + 1`` vertices),
    and layer ``k`` holds the last two blocks (``Delta`` vertices).
    """
    sizes = extremal_block_sizes(p)
    layer_of_block = [0, 0]
    for i in range(p.k - 1):
        layer_of_block.extend([i + 1] * 3)
    layer_of_block.extend([p.k, p.k])
    out: list[int] = []
    for bi, size in enumerate(sizes):
        out.extend([layer_of_block[bi]] * size)
    return tuple(out)


class SharpnessRecord(NamedTuple):
    """Gap between the degree-aware bounds and the family's true values."""

    n: int
    delta: int
    Delta: int
    case: str
    proximity: Fraction
    pi_bound: Fraction
    gap_pi: Fraction
    remoteness: Fraction
    rho_bound: Fraction
    gap_rho: Fraction
    gap_pi_limit: Fraction
    within_limits: bool


_SMALL_DELTA_GAP_PI_LIMIT = Fraction(49, 4)
_GAP_RHO_LIMIT = Fraction(17, 2)


@functools.cache
def _large_delta_gap_pi_limit(delta: int) -> Fraction:
    """6·delta + 5/2, built once per minimum degree."""
    return Fraction(12 * delta + 5, 2)


def _gap(bound: Fraction, sigma: int, denom: int) -> Fraction:
    """``bound − sigma/denom`` as one ``Fraction`` of integers."""
    return Fraction(bound.numerator * denom - sigma * bound.denominator, bound.denominator * denom)


def sharpness_report(p: ExtremalParams) -> SharpnessRecord:
    """The family member's proximity and remoteness, from the transmissions
    of its blocks, and their gaps to the degree-aware bounds.

    Asserted limits: ``gap_pi < 49/4`` when ``Delta <= n/2``,
    ``gap_pi < 6*delta + 5/2`` when ``Delta >= n/2``, and always
    ``gap_rho <= 17/2``.  At ``Delta = n/2`` both proximity limits
    apply and the tighter one, 49/4, is recorded: ``delta >= 3`` puts
    ``6*delta + 5/2`` above it.
    """
    spec = SequentialSumSpec(extremal_block_sizes(p))
    degrees = sequential_sum_degrees(spec)
    assert sum(spec.blocks) == p.n and (min(degrees), max(degrees)) == (p.delta, p.Delta)
    transmissions = sequential_sum_transmissions(spec)
    sigma_min, sigma_max = min(transmissions), max(transmissions)
    bounds = degree_range_bounds(p.n, p.delta, p.Delta)
    denom = p.n - 1
    gap_pi = _gap(bounds.pi_bound, sigma_min, denom)
    gap_rho = _gap(bounds.rho_bound, sigma_max, denom)
    if 2 * p.Delta <= p.n:
        gap_pi_limit = _SMALL_DELTA_GAP_PI_LIMIT
    else:
        gap_pi_limit = _large_delta_gap_pi_limit(p.delta)
    return SharpnessRecord(
        n=p.n,
        delta=p.delta,
        Delta=p.Delta,
        case=bounds.case,
        proximity=Fraction(sigma_min, denom),
        pi_bound=bounds.pi_bound,
        gap_pi=gap_pi,
        remoteness=Fraction(sigma_max, denom),
        rho_bound=bounds.rho_bound,
        gap_rho=gap_rho,
        gap_pi_limit=gap_pi_limit,
        within_limits=gap_pi < gap_pi_limit and gap_rho <= _GAP_RHO_LIMIT,
    )


def valid_Deltas(n: int, delta: int) -> list[int]:
    """All maximum degrees admitting a family member of order ``n``: none
    for ``delta < 3``, else those from ``delta + 1`` up that are congruent
    to n modulo ``delta + 1``."""
    step = delta + 1
    return list(range(step + n % step, n, step)) if delta >= 3 else []


def sharpness_sweep(delta: int, n_lo: int, n_hi: int, jobs: int = 1) -> list[SharpnessRecord]:
    """Sharpness records for every valid (n, Delta) in an order range, in
    order; identical for any ``jobs``.

    An empty range, an ``n_hi`` above ``MAX_ORDER`` or a range whose
    members' orders sum above ``MAX_SWEEP_WORK`` is a ``ValueError``,
    raised before any member is built.
    """
    if n_hi > MAX_ORDER:
        raise ValueError(f"--sweep {n_lo} {n_hi} goes above the order limit of {MAX_ORDER}")
    orders = range(max(n_lo, 0), n_hi + 1)
    work = sum(n * len(valid_Deltas(n, delta)) for n in orders)
    if work > MAX_SWEEP_WORK:
        raise ValueError(f"--sweep {n_lo} {n_hi}: members' orders sum to {work} > {MAX_SWEEP_WORK}")
    params = [ExtremalParams(n, delta, D) for n in orders for D in valid_Deltas(n, delta)]
    if not params:
        raise ValueError(f"--sweep {n_lo} {n_hi} holds no valid (n, Delta) for --delta {delta}")
    return parallel_map(sharpness_report, params, jobs)
