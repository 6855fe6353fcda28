"""Per-block rank functions, their extreme points, and exact decomposition.

For a fundamental-partition block C of an MCH source at key rate r_K, the
function f(B) = (component_count(h minus B) - 1) * r_K over subsets B of C is
normalized, nondecreasing, and supermodular; the discussion-rate constraints
over C are exactly r(B) >= f(B).  Every permutation of C telescopes f into a
vertex of that region, and any feasible vector dominates a convex combination
of at most |C| such vertices.  The decomposition certificate is computed on
the 2^|C| subset table of f with exact rational arithmetic only (the greedy
contra-polymatroid split: lower to a base, then peel off the vertex of a
chain of tight sets at a time); no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional

from .errors import (
    GroundTooLarge,
    NegativeRate,
    NotFundamentalBlock,
    SubsetOutsideBlock,
    UnknownVertex,
)
from .hypergraph import Hypergraph, removal_component_counts

__all__ = [
    "RankFunction",
    "ContraPolymatroidReport",
    "ExtremePoint",
    "DecompositionResult",
    "rank",
    "verify_contra_polymatroid",
    "extreme_points",
    "extreme_point_for_order",
    "decompose",
]


@dataclass(frozen=True)
class RankFunction:
    """f(B) = (component_count(h minus B) - 1) * key_rate for B inside block."""

    hypergraph: Hypergraph
    block: frozenset[str]
    key_rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "block", frozenset(str(v) for v in self.block))
        object.__setattr__(self, "key_rate", Fraction(self.key_rate))
        foreign = self.block - self.hypergraph.vertices
        if foreign:
            raise UnknownVertex(f"unknown vertices: {sorted(foreign)}")
        if not self.block:
            raise SubsetOutsideBlock("the block must be nonempty")
        if self.block == self.hypergraph.vertices:
            raise SubsetOutsideBlock("the block must be a proper vertex subset")
        if self.key_rate < 0:
            raise NegativeRate("key rate must be nonnegative")


def rank(fn: RankFunction, b: Iterable[str]) -> Fraction:
    bset = frozenset(str(v) for v in b)
    if not bset <= fn.block:
        raise SubsetOutsideBlock(
            f"{sorted(bset - fn.block)} lies outside the block {sorted(fn.block)}"
        )
    h = fn.hypergraph
    return (h.removal_component_count(bset) - 1) * fn.key_rate


def _subset_table(fn: RankFunction, *, max_block: int) -> tuple[tuple[str, ...], list[Fraction]]:
    """(order, values) with values[mask] = f(subset of block selected by mask)."""
    order, counts = removal_component_counts(
        fn.hypergraph, fn.block, max_base=max_block
    )
    values = [(c - 1) * fn.key_rate for c in counts]
    return order, values


@dataclass(frozen=True)
class ContraPolymatroidReport:
    """Outcome of the exhaustive normalization/monotonicity/supermodularity
    check, with the first counterexample in canonical order if one exists."""

    ok: bool
    normalized: bool
    nondecreasing: bool
    supermodular: bool
    counterexample: Optional[tuple[frozenset[str], frozenset[str]]] = None


def verify_contra_polymatroid(
    fn: RankFunction, *, max_block: int = 10
) -> ContraPolymatroidReport:
    """Exhaustively check f(empty)=0, monotonicity, and supermodularity.

    Works through bitmask-indexed subset tables, so the cost is 4^|block|
    cheap integer operations rather than 4^|block| component searches.
    """
    if len(fn.block) > max_block:
        raise GroundTooLarge(
            f"verification over a block of {len(fn.block)} exceeds cap {max_block}"
        )
    order, values = _subset_table(fn, max_block=max_block)
    n = len(order)
    full = 1 << n

    def subset_of(mask: int) -> frozenset[str]:
        return frozenset(order[i] for i in range(n) if mask >> i & 1)

    normalized = values[0] == 0
    if not normalized:
        return ContraPolymatroidReport(
            ok=False,
            normalized=False,
            nondecreasing=True,
            supermodular=True,
            counterexample=(frozenset(), frozenset()),
        )
    # monotone: adding one element never decreases the value
    for mask in range(full):
        for i in range(n):
            if not mask >> i & 1:
                bigger = mask | (1 << i)
                if values[bigger] < values[mask]:
                    return ContraPolymatroidReport(
                        ok=False,
                        normalized=True,
                        nondecreasing=False,
                        supermodular=True,
                        counterexample=(subset_of(mask), subset_of(bigger)),
                    )
    for s in range(full):
        for t in range(s, full):
            if values[s] + values[t] > values[s | t] + values[s & t]:
                return ContraPolymatroidReport(
                    ok=False,
                    normalized=True,
                    nondecreasing=True,
                    supermodular=False,
                    counterexample=(subset_of(s), subset_of(t)),
                )
    return ContraPolymatroidReport(
        ok=True, normalized=True, nondecreasing=True, supermodular=True
    )


@dataclass(frozen=True)
class ExtremePoint:
    """A region vertex: the telescoped increments of f along one permutation.

    order is the permutation that produced the point: from extreme_points,
    the first such permutation in lexicographic order when several collapse
    to one vector; from decompose, the order of the chain of tight sets the
    point was telescoped along.  rates holds (vertex, rate) pairs sorted by
    vertex.
    """

    order: tuple[str, ...]
    rates: tuple[tuple[str, Fraction], ...]

    def rate(self, v: str) -> Fraction:
        for name, r in self.rates:
            if name == v:
                return r
        raise UnknownVertex(f"extreme point has no rate for vertex {v!r}")

    def rates_map(self) -> dict[str, Fraction]:
        return dict(self.rates)


def extreme_point_for_order(fn: RankFunction, order: Iterable[str]) -> ExtremePoint:
    """Telescope f along one permutation of the block."""
    seq = tuple(str(v) for v in order)
    if frozenset(seq) != fn.block or len(seq) != len(fn.block):
        raise SubsetOutsideBlock("order must be a permutation of the block")
    h = fn.hypergraph
    rates: dict[str, Fraction] = {}
    prefix: set[str] = set()
    prev = Fraction(0)
    for v in seq:
        prefix.add(v)
        value = (h.removal_component_count(prefix) - 1) * fn.key_rate
        rates[v] = value - prev
        prev = value
    return ExtremePoint(order=seq, rates=tuple(sorted(rates.items())))


def extreme_points(fn: RankFunction, *, max_block: int = 8) -> tuple[ExtremePoint, ...]:
    """All distinct extreme points, one per rate vector.

    Permutations are visited in lexicographic order, depth first over prefix
    masks of the subset table; when several produce the same vector only the
    first is kept.  Blocks larger than max_block are refused (|block|!
    permutations).
    """
    if len(fn.block) > max_block:
        raise GroundTooLarge(
            f"extreme points over a block of {len(fn.block)} exceeds cap {max_block}"
        )
    order, values = _subset_table(fn, max_block=max_block)
    n = len(order)
    seen: dict[tuple[Fraction, ...], ExtremePoint] = {}
    rates = [Fraction(0)] * n
    seq: list[int] = []

    def grow(mask: int) -> None:
        if len(seq) == n:
            key = tuple(rates)
            if key not in seen:
                seen[key] = ExtremePoint(
                    order=tuple(order[i] for i in seq), rates=tuple(zip(order, key))
                )
            return
        for i in range(n):
            if not mask >> i & 1:
                rates[i] = values[mask | 1 << i] - values[mask]
                seq.append(i)
                grow(mask | 1 << i)
                seq.pop()

    grow(0)
    return tuple(seen.values())


@dataclass(frozen=True)
class DecompositionResult:
    """Either a convex combination of extreme points dominated by the target,
    or the first violated rank inequality in canonical order."""

    feasible: bool
    weights: Optional[tuple[tuple[Fraction, ExtremePoint], ...]] = None
    violated: Optional[tuple[frozenset[str], Fraction]] = None


def decompose(
    fn: RankFunction, target: Mapping[str, Fraction], *, max_block: int = 12
) -> DecompositionResult:
    """Certify membership of a rate vector in the per-block region.

    If some subset violates r(B) >= f(B), that inequality is returned (subsets
    scanned by size then lexicographically).  Otherwise the target is lowered
    to a base (each vertex in turn gives up the least slack of a subset
    containing it) and the base is split into at most |block| greedy vertices
    (Cunningham, JCTB 1984; Fujishige, Submodular Functions and Optimization,
    section 3): telescope f along a maximal chain of tight sets (smallest
    tight superset first, lowest mask on ties), record that vertex, and move
    the point away from it as far as the subset table allows.  A point's
    order is its chain order; the mix equals the base, so it is at most the
    target, and equal to it when the target is a base.

    f must be normalized and supermodular, as on every fundamental block of
    an MCH; where it is not, NotFundamentalBlock may be raised.
    """
    if len(fn.block) > max_block:
        raise GroundTooLarge(
            f"decomposition over a block of {len(fn.block)} exceeds cap {max_block}"
        )
    goal = {str(v): Fraction(r) for v, r in dict(target).items()}
    if frozenset(goal) != fn.block:
        raise SubsetOutsideBlock("target must assign a rate to each block vertex")
    if any(r < 0 for r in goal.values()):
        raise NegativeRate("target rates must be nonnegative")

    order, values = _subset_table(fn, max_block=max_block)
    index = {v: i for i, v in enumerate(order)}
    for size in range(1, len(order) + 1):
        for combo in combinations(sorted(fn.block), size):
            mask = 0
            for v in combo:
                mask |= 1 << index[v]
            need = values[mask]
            have = sum((goal[v] for v in combo), Fraction(0))
            if have < need:
                return DecompositionResult(
                    feasible=False, violated=(frozenset(combo), need)
                )

    n = len(order)
    full = (1 << n) - 1
    x = [goal[v] for v in order]
    slack = [s - f for s, f in zip(_subset_sums(x), values)]
    for i in range(n):
        members = [m for m in range(full + 1) if m >> i & 1]
        cut = min(slack[m] for m in members)
        x[i] -= cut
        for m in members:
            slack[m] -= cut

    by_size = sorted(range(1, full + 1), key=lambda m: (bin(m).count("1"), m))
    weights: list[tuple[Fraction, ExtremePoint]] = []
    mass = Fraction(1)
    for _ in range(n):
        sums = _subset_sums(x)
        chain: list[int] = []
        top = 0
        for m in by_size:
            if m & top == top and m != top and sums[m] == values[m]:
                chain.extend(i for i in range(n) if (m & ~top) >> i & 1)
                top = m
        if top != full or values[0]:
            break  # f is not a contra-polymatroid: no base, or f(empty) != 0
        vertex = [Fraction(0)] * n
        mask = 0
        for i in chain:
            vertex[i] = values[mask | 1 << i] - values[mask]
            mask |= 1 << i
        point = ExtremePoint(
            order=tuple(order[i] for i in chain), rates=tuple(zip(order, vertex))
        )
        if vertex == x:
            weights.append((mass, point))
            return DecompositionResult(feasible=True, weights=tuple(weights))
        far = _subset_sums(vertex)
        step = min(
            (sums[m] - values[m]) / (far[m] - sums[m])
            for m in range(1, full + 1)
            if far[m] > sums[m]
        )
        weights.append((mass * step / (1 + step), point))
        mass /= 1 + step
        x = [a + step * (a - b) for a, b in zip(x, vertex)]
    raise NotFundamentalBlock(
        "the rank function is not normalized and supermodular over this block"
    )


def _subset_sums(x: list[Fraction]) -> list[Fraction]:
    """sums[mask] = the sum of x[i] over the bits i of mask."""
    sums = [Fraction(0)] * (1 << len(x))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + x[low.bit_length() - 1]
    return sums
