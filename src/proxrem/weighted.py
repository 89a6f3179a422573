"""Vertex-weighted distance machinery.

Weighted distances, weighted medians, branch weights with the
branch-weight characterization of tree medians, and the closed-form
upper bounds on the weighted distance of a median vertex (and of an
arbitrary vertex) under a floor-``k`` weight profile with one designated
heavy vertex.  All arithmetic is exact rational.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Literal

from .graphs import DistanceOracle, Graph, ParseError, is_connected

RationalLike = Fraction | int | str


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative rational weights on the vertices ``0..n-1``."""

    values: tuple[Fraction, ...]
    total: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for v, w in enumerate(self.values):
            if w < 0:
                raise ValueError(f"negative weight {w} at vertex {v}")
        object.__setattr__(self, "total", sum(self.values, Fraction(0)))

    @classmethod
    def of(cls, weights: Iterable[RationalLike]) -> "WeightFunction":
        return cls(tuple(_frac(w) for w in weights))

    @classmethod
    def unit(cls, n: int) -> "WeightFunction":
        return cls(tuple(Fraction(1) for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, w in enumerate(self.values) if w > 0)

    def restrict(self, keep: Iterable[int]) -> "WeightFunction":
        """Zero out every weight outside ``keep``; same vertex range."""
        kset = set(keep)
        return WeightFunction(
            tuple(w if v in kset else Fraction(0) for v, w in enumerate(self.values))
        )

    def transfer(self, src: int, dst: int, amount: RationalLike) -> "WeightFunction":
        """Move ``amount`` weight from ``src`` to ``dst``."""
        a = _frac(amount)
        if a < 0 or a > self.values[src]:
            raise ValueError(f"cannot move {a} from vertex {src} holding {self.values[src]}")
        vals = list(self.values)
        vals[src] -= a
        vals[dst] += a
        return WeightFunction(tuple(vals))

    def to_lines(self) -> str:
        """Serialize as ``vertex numerator/denominator`` lines."""
        return "\n".join(
            f"{v} {w.numerator}/{w.denominator}" for v, w in enumerate(self.values)
        ) + "\n"

    @classmethod
    def from_lines(cls, text: str, n: int) -> "WeightFunction":
        """Parse :meth:`to_lines` output; blank and ``#`` lines are skipped.

        Raises :class:`ParseError` on a malformed line, a vertex outside
        ``0..n-1`` or a zero denominator.
        """
        vals = [Fraction(0)] * n
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vtx, frac = line.split()
                v, w = int(vtx), Fraction(frac)
            except ZeroDivisionError:
                raise ParseError(f"line {lineno}: zero denominator in {raw!r}") from None
            except ValueError:
                raise ParseError(f"line {lineno}: expected 'vertex weight', got {raw!r}") from None
            if not 0 <= v < n:
                raise ParseError(f"line {lineno}: vertex {v} out of range for order {n}")
            vals[v] = w
        return cls(tuple(vals))


def _require_weights_on(g: Graph, c: WeightFunction) -> None:
    if c.n != g.n:
        raise ValueError(f"weight function covers {c.n} vertices, graph has {g.n}")


def weighted_distance(
    g: Graph, d: DistanceOracle, c: WeightFunction, v: int
) -> Fraction:
    """Weighted distance ``sum of c(w) * d(v, w)`` over ``w != v``."""
    _require_weights_on(g, c)
    row = d.row(v)
    total = Fraction(0)
    for w in c.support():
        if w != v:
            total += c[w] * int(row[w])
    return total


def c_median(g: Graph, d: DistanceOracle, c: WeightFunction) -> tuple[int, ...]:
    """All vertices minimizing the weighted distance, sorted ascending."""
    _require_weights_on(g, c)
    vals = [weighted_distance(g, d, c, v) for v in range(g.n)]
    best = min(vals)
    return tuple(v for v, x in enumerate(vals) if x == best)


def _assert_tree(t: Graph) -> None:
    if t.edge_count() != t.n - 1 or not is_connected(t):
        raise ValueError("expected a tree (connected, n-1 edges)")


def branch_weight(t: Graph, c: WeightFunction, v: int) -> Fraction:
    """Largest total weight among the components of ``t - v`` (0 if none)."""
    _assert_tree(t)
    _require_weights_on(t, c)
    seen = bytearray(t.n)
    seen[v] = 1
    best = Fraction(0)
    for root in t.adj[v]:
        if seen[root]:
            continue
        comp_weight = Fraction(0)
        dq = deque([root])
        seen[root] = 1
        while dq:
            u = dq.popleft()
            comp_weight += c[u]
            for w in t.adj[u]:
                if not seen[w]:
                    seen[w] = 1
                    dq.append(w)
        best = max(best, comp_weight)
    return best


def median_by_branch_weight(t: Graph, c: WeightFunction) -> tuple[int, ...]:
    """Vertices whose branch weight is at most half the total weight.

    For any tree and nonnegative weights this set equals the weighted
    median (the property tests exercise the equivalence).
    """
    _assert_tree(t)
    half = c.total / 2
    return tuple(v for v in range(t.n) if branch_weight(t, c, v) <= half)


@dataclass(frozen=True)
class WeightProfile:
    """Parameters of a floor-weight profile: total ``N``, per-vertex floor
    ``k``, and a designated heavy vertex of weight at least ``L``.

    Validity: ``0 < k < L <= N`` and ``(N - L) / k`` a nonnegative integer.
    """

    total: Fraction   # N
    floor: Fraction   # k
    heavy: Fraction   # L

    def __post_init__(self) -> None:
        if not (0 < self.floor < self.heavy <= self.total):
            raise ValueError(
                f"need 0 < floor < heavy <= total, got "
                f"({self.floor}, {self.heavy}, {self.total})"
            )
        steps = (self.total - self.heavy) / self.floor
        if steps.denominator != 1:
            raise ValueError(
                f"(total - heavy) / floor = {steps} must be a nonnegative integer"
            )

    @classmethod
    def of(cls, total: RationalLike, heavy: RationalLike, floor: RationalLike) -> "WeightProfile":
        return cls(total=_frac(total), floor=_frac(floor), heavy=_frac(heavy))

    @property
    def steps(self) -> int:
        """Number of floor-weight vertices on the witness path, ``(N-L)/k``."""
        return int((self.total - self.heavy) / self.floor)


def heavy_majority_bound(total: Fraction, heavy: Fraction, floor: Fraction) -> Fraction:
    """``(N-L)(N-L+k) / (2k)`` as a bare formula (no profile validation)."""
    return (total - heavy) * (total - heavy + floor) / (2 * floor)


def heavy_minority_bound(total: Fraction, heavy: Fraction, floor: Fraction) -> Fraction:
    """``(N^2 - 2L^2) / (4k) + (N+L)/2`` as a bare formula."""
    return (total * total - 2 * heavy * heavy) / (4 * floor) + (total + heavy) / 2


def median_weight_distance_bound(p: WeightProfile) -> Fraction:
    """Upper bound on the weighted distance of a weighted-median vertex.

    Case split at ``heavy > total/2``: the heavy-majority form is tight
    (attained by :func:`witness_path`); the heavy-minority form is an
    upper bound only.
    """
    if p.heavy > p.total / 2:
        return heavy_majority_bound(p.total, p.heavy, p.floor)
    return heavy_minority_bound(p.total, p.heavy, p.floor)


def max_weight_distance_bound(p: WeightProfile) -> Fraction:
    """Upper bound ``(N-L)(N+L-k) / (2k)`` on the weighted distance of an
    arbitrary vertex; attained by the far end of :func:`witness_path`."""
    return (p.total - p.heavy) * (p.total + p.heavy - p.floor) / (2 * p.floor)


WitnessMode = Literal["proximity", "remoteness"]


def witness_path(
    p: WeightProfile, mode: WitnessMode
) -> tuple[Graph, WeightFunction, int]:
    """Weighted path attaining the corresponding bound with equality.

    The path has ``1 + (N-L)/k`` vertices; vertex 0 carries weight ``L``
    and the rest carry ``k``.  For ``mode="proximity"`` the distinguished
    vertex is the heavy end (requires ``L > N/2``, where the heavy end is
    the unique weighted median); for ``mode="remoteness"`` it is the far
    floor-weight end.  Degenerates to a single vertex when ``N = L``.
    """
    if mode not in ("proximity", "remoteness"):
        raise ValueError(f"unknown witness mode {mode!r}")
    if mode == "proximity" and p.heavy <= p.total / 2:
        raise ValueError(
            "proximity witness requires heavy > total/2; the bound is not "
            "attained by this construction otherwise"
        )
    m = 1 + p.steps
    from .graphs import path_graph

    t = path_graph(m)
    weights = WeightFunction((p.heavy,) + (p.floor,) * (m - 1))
    distinguished = 0 if mode == "proximity" else m - 1
    return t, weights, distinguished
