"""Per-block rank functions, their extreme points, and exact decomposition.

For a fundamental-partition block C of an MCH source at key rate r_K, the
function f(B) = (component_count(h minus B) - 1) * r_K over subsets B of C is
normalized, nondecreasing, and supermodular; the discussion-rate constraints
over C are exactly r(B) >= f(B).  Every permutation of C telescopes f into a
vertex of that region, and any feasible vector dominates a convex combination
of such vertices.  The decomposition certificate is computed with exact
rational arithmetic only (a phase-1 simplex with Bland's rule); no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Mapping, Optional

from .errors import (
    GroundTooLarge,
    NegativeRate,
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

    order is the permutation that produced the point (the first such
    permutation in lexicographic order when several collapse to one vector);
    rates holds (vertex, rate) pairs sorted by vertex.
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


def extreme_point_for_order(
    fn: RankFunction, order: Iterable[str], *, max_block: int = 8
) -> ExtremePoint:
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

    Permutations are visited in lexicographic order; when several produce the
    same vector only the first is kept.  Blocks larger than max_block are
    refused (|block|! permutations).
    """
    if len(fn.block) > max_block:
        raise GroundTooLarge(
            f"extreme points over a block of {len(fn.block)} exceeds cap {max_block}"
        )
    order, values = _subset_table(fn, max_block=max_block)
    index = {v: i for i, v in enumerate(order)}
    seen: dict[tuple[Fraction, ...], ExtremePoint] = {}
    for perm in permutations(sorted(fn.block)):
        mask = 0
        prev = Fraction(0)
        rates: dict[str, Fraction] = {}
        for v in perm:
            mask |= 1 << index[v]
            value = values[mask]
            rates[v] = value - prev
            prev = value
        key = tuple(r for _, r in sorted(rates.items()))
        if key not in seen:
            seen[key] = ExtremePoint(order=perm, rates=tuple(sorted(rates.items())))
    return tuple(seen.values())


@dataclass(frozen=True)
class DecompositionResult:
    """Either a convex combination of extreme points dominated by the target,
    or the first violated rank inequality in canonical order."""

    feasible: bool
    weights: Optional[tuple[tuple[Fraction, ExtremePoint], ...]] = None
    violated: Optional[tuple[frozenset[str], Fraction]] = None


def decompose(
    fn: RankFunction, target: Mapping[str, Fraction], *, max_block: int = 8
) -> DecompositionResult:
    """Certify membership of a rate vector in the per-block region.

    If some subset violates r(B) >= f(B), that inequality is returned (subsets
    scanned by size then lexicographically).  Otherwise a convex combination
    of extreme points with combination <= target coordinatewise is found: a
    single canonical point if one is already dominated, else an exact
    phase-1 simplex certificate.
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

    points = extreme_points(fn, max_block=max_block)
    for pt in points:
        if all(r <= goal[v] for v, r in pt.rates):
            return DecompositionResult(feasible=True, weights=((Fraction(1), pt),))

    lams = _phase_one_feasible(points, goal, tuple(sorted(fn.block)))
    weights = tuple(
        (lam, pt) for lam, pt in zip(lams, points) if lam > 0
    )
    combo_sum = {v: Fraction(0) for v in fn.block}
    total = Fraction(0)
    for lam, pt in weights:
        total += lam
        for v, r in pt.rates:
            combo_sum[v] += lam * r
    assert total == 1 and all(combo_sum[v] <= goal[v] for v in fn.block)
    return DecompositionResult(feasible=True, weights=weights)


def _phase_one_feasible(
    points: tuple[ExtremePoint, ...],
    goal: Mapping[str, Fraction],
    coords: tuple[str, ...],
) -> list[Fraction]:
    """Solve sum(lam_j * p_j) + s = goal, sum(lam_j) = 1, lam, s >= 0.

    Exact phase-1 simplex with Bland's rule: artificial variables carry cost
    one, everything else cost zero; a zero optimum yields the lambda values.
    Raises if the optimum is positive, which would contradict the membership
    scan that already passed.
    """
    k = len(points)
    n = len(coords)
    rows = n + 1
    # columns: k lambdas, n slacks, rows artificials, then the rhs
    width = k + n + rows
    tableau: list[list[Fraction]] = []
    for i, v in enumerate(coords):
        row = [Fraction(0)] * (width + 1)
        for j, pt in enumerate(points):
            row[j] = pt.rate(v)
        row[k + i] = Fraction(1)
        row[k + n + i] = Fraction(1)
        row[width] = goal[v]
        tableau.append(row)
    convex = [Fraction(0)] * (width + 1)
    for j in range(k):
        convex[j] = Fraction(1)
    convex[k + n + rows - 1] = Fraction(1)
    convex[width] = Fraction(1)
    tableau.append(convex)

    basis = [k + n + i for i in range(rows)]
    cost = [Fraction(0)] * width
    for i in range(rows):
        cost[k + n + i] = Fraction(1)

    while True:
        entering = -1
        for j in range(width):
            reduced = cost[j] - sum(
                cost[basis[i]] * tableau[i][j] for i in range(rows)
            )
            if reduced < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio: Optional[Fraction] = None
        for i in range(rows):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][width] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:  # pragma: no cover - phase-1 objective is bounded
            raise RuntimeError("unbounded phase-1 simplex")
        pivot = tableau[leaving][entering]
        tableau[leaving] = [x / pivot for x in tableau[leaving]]
        for i in range(rows):
            if i != leaving and tableau[i][entering]:
                factor = tableau[i][entering]
                tableau[i] = [
                    a - factor * b for a, b in zip(tableau[i], tableau[leaving])
                ]
        basis[leaving] = entering

    objective = sum(
        cost[basis[i]] * tableau[i][width] for i in range(rows)
    )
    if objective != 0:  # pragma: no cover - membership scan already passed
        raise RuntimeError("feasibility contradiction in decomposition")
    lams = [Fraction(0)] * k
    for i, col in enumerate(basis):
        if col < k:
            lams[col] = tableau[i][width]
    return lams
