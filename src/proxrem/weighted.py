"""Vertex-weighted distance machinery.

Weighted distances, weighted medians, branch weights with the
branch-weight characterization of tree medians, and the closed-form
upper bounds on the weighted distance of a median vertex (and of an
arbitrary vertex) under a floor-``k`` weight profile with one designated
heavy vertex.  All arithmetic is exact rational: each closed form is one
``Fraction`` of integer numerator and denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Literal, NamedTuple

from .graphs import DistanceOracle, Graph, ParseError, _bfs, is_connected

RationalLike = Fraction | int | str


def _frac(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class _Weights(NamedTuple):
    values: tuple[Fraction, ...]


class WeightFunction(_Weights):
    """Nonnegative rational weights on the vertices ``0..n-1``; ``w[v]`` is
    the weight of v."""

    __slots__ = ()

    def __new__(cls, values: tuple[Fraction, ...]) -> "WeightFunction":
        for v, w in enumerate(values):
            if w < 0:
                raise ValueError(f"negative weight {w} at vertex {v}")
        return super().__new__(cls, values)

    @property
    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

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

    def to_lines(self) -> str:
        """Serialize as ``vertex numerator/denominator`` lines."""
        return "\n".join(
            f"{v} {w.numerator}/{w.denominator}" for v, w in enumerate(self.values)
        ) + "\n"

    @classmethod
    def from_lines(cls, text: str, n: int) -> "WeightFunction":
        """Parse :meth:`to_lines` output; blank and ``#`` lines are skipped.

        Raises :class:`ParseError` on a malformed line, a vertex outside
        ``0..n-1``, a vertex given on two lines or a zero denominator.
        """
        vals = [Fraction(0)] * n
        seen: dict[int, int] = {}  # vertex -> its line
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
            if v in seen:
                raise ParseError(f"line {lineno}: vertex {v} repeats line {seen[v]}: {raw!r}")
            seen[v] = lineno
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
            total += c[w] * row[w]
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
    """Largest total weight among the components of ``t - v`` (0 if none).

    The component holding neighbour ``u`` is every ``w`` closer to ``u``
    than to ``v``, so one BFS per neighbour finds it.
    """
    _assert_tree(t)
    _require_weights_on(t, c)
    from_v = _bfs(t.adj, v)
    best = Fraction(0)
    for u in t.adj[v]:
        from_u = _bfs(t.adj, u)
        comp = sum((c[w] for w in range(t.n) if from_u[w] < from_v[w]), Fraction(0))
        best = max(best, comp)
    return best


def median_by_branch_weight(t: Graph, c: WeightFunction) -> tuple[int, ...]:
    """Vertices whose branch weight is at most half the total weight.

    For any tree and nonnegative weights this set equals the weighted
    median (the property tests exercise the equivalence).
    """
    _assert_tree(t)
    half = c.total / 2
    return tuple(v for v in range(t.n) if branch_weight(t, c, v) <= half)


class _Profile(NamedTuple):
    total: Fraction   # N
    floor: Fraction   # k
    heavy: Fraction   # L


class WeightProfile(_Profile):
    """Parameters of a floor-weight profile: total ``N``, per-vertex floor
    ``k``, and a designated heavy vertex of weight at least ``L``.

    Validity: ``0 < k < L <= N`` and ``(N - L) / k`` a nonnegative integer.
    """

    __slots__ = ()

    def __new__(cls, total: Fraction, floor: Fraction, heavy: Fraction) -> "WeightProfile":
        if not (0 < floor < heavy <= total):
            raise ValueError(
                f"need 0 < floor < heavy <= total, got "
                f"({floor}, {heavy}, {total})"
            )
        steps = (total - heavy) / floor
        if steps.denominator != 1:
            raise ValueError(
                f"(total - heavy) / floor = {steps} must be a nonnegative integer"
            )
        return super().__new__(cls, total, floor, heavy)

    @classmethod
    def of(cls, total: RationalLike, heavy: RationalLike, floor: RationalLike) -> "WeightProfile":
        return cls(total=_frac(total), floor=_frac(floor), heavy=_frac(heavy))

    @property
    def steps(self) -> int:
        """Number of floor-weight vertices on the witness path, ``(N-L)/k``."""
        return int((self.total - self.heavy) / self.floor)


def _common_numerators(
    total: RationalLike, heavy: RationalLike, floor: RationalLike
) -> tuple[int, int, int, int]:
    """``(a, b, c, d)`` with ``N, L, k = a/d, b/d, c/d`` over one common
    denominator ``d``, so that a closed form is a single ``Fraction`` of
    integers.  For ints ``d`` is 1 and no ``Fraction`` is built."""
    fs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (total, heavy, floor)]
    d = lcm(*(f.denominator for f in fs))
    a, b, c = (f.numerator * (d // f.denominator) for f in fs)
    return a, b, c, d


def _majority(a: int, b: int, c: int, d: int) -> Fraction:
    return Fraction((a - b) * (a - b + c), 2 * c * d)


def _minority(a: int, b: int, c: int, d: int) -> Fraction:
    return Fraction(a * a - 2 * b * b + 2 * c * (a + b), 4 * c * d)


def heavy_majority_bound(total: RationalLike, heavy: RationalLike, floor: RationalLike) -> Fraction:
    """``(N-L)(N-L+k) / (2k)`` as a bare formula (no profile validation).
    Over a common denominator ``d`` it is ``(a-b)(a-b+c) / (2cd)``."""
    return _majority(*_common_numerators(total, heavy, floor))


def heavy_minority_bound(total: RationalLike, heavy: RationalLike, floor: RationalLike) -> Fraction:
    """``(N^2 - 2L^2) / (4k) + (N+L)/2`` as a bare formula.  Over a common
    denominator ``d`` it is ``(a^2 - 2b^2 + 2c(a+b)) / (4cd)``."""
    return _minority(*_common_numerators(total, heavy, floor))


def median_bound(total: RationalLike, heavy: RationalLike, floor: RationalLike) -> Fraction:
    """Upper bound on the weighted distance of a weighted-median vertex.

    Case split at ``heavy > total/2``: the heavy-majority form is tight
    (attained by :func:`witness_path`); the heavy-minority form is an
    upper bound only.  The result is one exact ``Fraction``, for plain
    ints too.
    """
    a, b, c, d = _common_numerators(total, heavy, floor)
    return (_majority if 2 * b > a else _minority)(a, b, c, d)


def any_vertex_bound(total: RationalLike, heavy: RationalLike, floor: RationalLike) -> Fraction:
    """Upper bound ``(N-L)(N+L-k) / (2k)`` on the weighted distance of an
    arbitrary vertex; attained by the far end of :func:`witness_path`.
    Over a common denominator ``d`` it is ``(a-b)(a+b-c) / (2cd)``."""
    a, b, c, d = _common_numerators(total, heavy, floor)
    return Fraction((a - b) * (a + b - c), 2 * c * d)


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
