"""Per-block rank functions, their extreme points, and exact decomposition.

For a fundamental-partition block C of an MCH source at key rate r_K, the
function f(B) = (component_count(h minus B) - 1) * r_K over subsets B of C is
normalized, nondecreasing, and supermodular; the discussion-rate constraints
over C are exactly r(B) >= f(B).  Those blocks are the only ones a
RankFunction accepts: on other blocks f need not be a contra-polymatroid.
Every permutation of C telescopes f into a vertex of that region, and any
feasible vector dominates a convex combination of at most |C| such vertices.
A block's rank function has one form: the integer table of its 2^|C|
component counts that region_spec reads (hypergraph.block_removal_counts,
which refuses blocks of more than 12 vertices), scaled by r_K only where a
rate is returned.  rank and extreme_point_for_order query the same block
view one subset at a time, at any block size; neither searches all of h.
The laws are checked on the counts themselves, and the decomposition
certificate is computed with exact rational arithmetic only (the greedy
contra-polymatroid split: lower to a base, then peel off the vertex of a
chain of tight sets at a time); no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .capacity import (
    _as_fraction,
    _block_order,
    _canonical_masks,
    _key_rate,
    _members,
    _require_fundamental_block,
)
from .errors import (
    GroundTooLarge,
    NegativeRate,
    NotFundamentalBlock,
    SubsetOutsideBlock,
    UnknownVertex,
)
from .hypergraph import Hypergraph, _block_view, block_removal_counts

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

EXTREME_POINTS_CAP = 8  # extreme_points walks |block|! permutations


@dataclass(frozen=True)
class RankFunction:
    """f(B) = (component_count(h minus B) - 1) * key_rate for B inside block,
    a fundamental-partition block of an MCH: any other hypergraph raises
    NotMCH, and any other block NotFundamentalBlock."""

    hypergraph: Hypergraph
    block: frozenset[str]
    key_rate: Fraction

    def __post_init__(self):
        object.__setattr__(self, "block", frozenset(str(v) for v in self.block))
        object.__setattr__(self, "key_rate", _key_rate(self.key_rate))
        self.hypergraph._check_subset(self.block)
        if not self.block:
            raise SubsetOutsideBlock("the block must be nonempty")
        if self.block == self.hypergraph.vertices:
            raise SubsetOutsideBlock("the block must be a proper vertex subset")
        _require_fundamental_block(self.hypergraph, self.block)


def rank(fn: RankFunction, b: Iterable[str]) -> Fraction:
    """f(b), counted by the block's view, at any block size.  A one-vertex
    block {v} needs no view: removing v leaves one component per edge at v."""
    bset = frozenset(str(v) for v in b)
    if not bset <= fn.block:
        raise SubsetOutsideBlock(
            f"{sorted(bset - fn.block)} lies outside the block {sorted(fn.block)}"
        )
    if len(fn.block) == 1:  # no view: the counts of block_removal_counts
        _, counts = block_removal_counts(fn.hypergraph, fn.block)
        return (counts[len(bset)] - 1) * fn.key_rate
    view = _block_view(fn.hypergraph, fn.block)
    return (view.count(view.mask(bset)) - 1) * fn.key_rate


@dataclass(frozen=True)
class ContraPolymatroidReport:
    """Outcome of the exhaustive normalization/monotonicity/supermodularity
    check, with the first counterexample in canonical order if one exists."""

    ok: bool
    normalized: bool
    nondecreasing: bool
    supermodular: bool
    counterexample: Optional[tuple[frozenset[str], frozenset[str]]] = None


def verify_contra_polymatroid(fn: RankFunction) -> ContraPolymatroidReport:
    """Exhaustively check f(empty)=0, monotonicity, and supermodularity.

    Works on the block's integer table of component counts less one, f / r_K
    (a positive scale keeps every law and counterexample; at r_K = 0 f is
    the all-zero table), packed into one int: each law is a few big-int
    gate expressions, |block| for monotonicity and C(|block|, 2) for
    supermodularity (see _packed_gates), rather than 4^|block| component
    searches.  Only a table that fails a gate is walked by the ordered
    scans for its first counterexample.  A block of more than 12 vertices
    raises GroundTooLarge, as block_removal_counts does.
    """
    order, counts = block_removal_counts(fn.hypergraph, fn.block)
    values = [c - 1 for c in counts] if fn.key_rate else [0] * len(counts)
    return _contra_polymatroid_report(order, values)


def _contra_polymatroid_report(
    order: Sequence[str], values: Sequence[int]
) -> ContraPolymatroidReport:
    """The verdict on a set function given as a 2^len(order) table of ints:
    the first counterexample of normalization, then of monotonicity (masks
    ascending, then elements), then of supermodularity (pairs s <= t).
    f is supermodular exactly when -f is submodular
    (_first_submodular_violation)."""
    n = len(order)

    def failed(law: str, s: int, t: int) -> ContraPolymatroidReport:
        laws = {"normalized": True, "nondecreasing": True, "supermodular": True}
        laws[law] = False
        pair = (_members(order, s), _members(order, t))
        return ContraPolymatroidReport(ok=False, counterexample=pair, **laws)

    if values[0] != 0:
        return failed("normalized", 0, 0)
    drop = _first_decrease(values, n)
    if drop is not None:
        mask, i = drop
        return failed("nondecreasing", mask, mask | 1 << i)
    pair = _first_submodular_violation([-v for v in values], n)
    if pair is not None:
        return failed("supermodular", *pair)
    return ContraPolymatroidReport(
        ok=True, normalized=True, nondecreasing=True, supermodular=True
    )


def _pack(fields: Sequence[int], k: int) -> int:
    """The ints fields, each in [0, 2^(8k)), as one int: fields[S] at bit 8k*S."""
    if k == 1:
        raw = bytes(fields)
    else:
        raw = b"".join([f.to_bytes(k, "little") for f in fields])
    return int.from_bytes(raw, "little")


def _coverage_values(weighted: Sequence[tuple[int, int]], n: int) -> list[int]:
    """The 2^n table of S -> the sum of w over the (member mask, w) pairs of
    weighted whose mask meets S, for ints w >= 0.

    It is built packed (see _pack): a pair's mark has a 1 in each field S
    that misses its mask, grown from field 0 by one doubling per element
    outside it, and the table is the total weight in every field less the
    weighted sum of the marks."""
    total = sum(w for _, w in weighted)
    k = total.bit_length() // 8 + 1
    width = 8 * k
    missed = 0
    for m, w in weighted:
        mark = 1
        for i in range(n):
            if not m >> i & 1:
                mark |= mark << (width << i)
        missed += w * mark
    table = total * _pack([1] * (1 << n), k) - missed
    raw = table.to_bytes(k << n, "little")
    if k == 1:
        return list(raw)
    return [int.from_bytes(raw[s : s + k], "little") for s in range(0, len(raw), k)]


def _packed_gates(
    values: Sequence[int], n: int
) -> tuple[int, int, int, list[int]]:
    """(table, width, high, clear): a 2^n table packed for the gates.

    Field S, of width bits at bit width*S, holds values[S] - min(values).
    width is the fewest whole bytes in which a four-term difference of
    entries plus the bias 2^(width-1) lies in [0, 2^width), so a sum of
    shifted tables plus high, the bias in every field, never carries or
    borrows across a field: field S of it is the same sum over single
    entries.  Such a field is below the bias, its law failing at S, exactly
    when its top bit is clear.  clear[i] is the top bit of each field S
    that lacks i."""
    low = min(values)
    k = (2 * (max(values) - low)).bit_length() // 8 + 1
    table = _pack([v - low for v in values] if low else values, k)
    top = bytes(k - 1) + b"\x80"
    high = int.from_bytes(top * (1 << n), "little")
    clear = [
        int.from_bytes((top * (1 << i) + bytes(k << i)) * (1 << (n - 1 - i)), "little")
        for i in range(n)
    ]
    return table, 8 * k, high, clear


def _packed_monotone(values: Sequence[int], n: int) -> bool:
    """Whether a 2^n table is nondecreasing: for each element i, one
    big-int expression over the packed table (see _packed_gates) whose
    field S is f(S + i) - f(S) + bias, tested at the fields S that lack i."""
    table, width, high, clear = _packed_gates(values, n)
    return all(
        ((table >> (width << i)) + high - table) & m == m
        for i, m in enumerate(clear)
    )


def _packed_submodular(values: Sequence[int], n: int) -> bool:
    """Whether a 2^n table of f is submodular, by the local form of the law:
    f(S+i) + f(S+j) >= f(S+i+j) + f(S) for every S and i, j outside S
    (Schrijver, Combinatorial Optimization, Thm 44.1).  Each pair i < j is
    one big-int expression over the packed table (see _packed_gates) whose
    field S is f(S+i) + f(S+j) - f(S+i+j) - f(S) + bias, tested at the
    fields S that lack i and j.  Fewer than two elements make no pair."""
    if n < 2:
        return True
    table, width, high, clear = _packed_gates(values, n)
    up = [table >> (width << i) for i in range(n)]
    for i in range(n - 1):
        gain = up[i] + high - table
        for j in range(i + 1, n):
            m = clear[i] & clear[j]
            if (gain + up[j] - (up[i] >> (width << j))) & m != m:
                return False
    return True


def _first_decrease(values: Sequence[int], n: int) -> Optional[tuple[int, int]]:
    """The first (mask, i), masks ascending, then elements, with i outside
    mask and values[mask | 1 << i] < values[mask], in a 2^n table; or None.
    Only a table that fails the packed gates is walked in order."""
    if _packed_monotone(values, n):
        return None
    return next(
        (mask, i) for mask in range(1 << n) for i in range(n)
        if not mask >> i & 1 and values[mask | 1 << i] < values[mask]
    )


def _first_submodular_violation(
    values: Sequence[int], n: int
) -> Optional[tuple[int, int]]:
    """The first pair of masks s <= t (s ascending, then t) with
    f(s) + f(t) < f(s | t) + f(s & t) in a 2^n table of f; or None.

    The 4^n / 2 pair scan runs only once a packed gate fails
    (_packed_submodular), a local failure being itself a pair violation."""
    if _packed_submodular(values, n):
        return None
    full = 1 << n
    return next(
        (s, t) for s in range(full) for t in range(s, full)
        if values[s] + values[t] < values[s | t] + values[s & t]
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
    """Telescope f along one permutation of the block: one component count
    per prefix, read off the block's view, at any block size."""
    seq = _block_order(fn.block, order)
    if len(seq) == 1:  # one step, to f of the whole block
        return ExtremePoint(order=seq, rates=((seq[0], rank(fn, seq)),))
    view = _block_view(fn.hypergraph, fn.block)
    rates: dict[str, Fraction] = {}
    prefix = 0
    prev = 1  # the count with nothing removed
    for v in seq:
        prefix |= view.bit[v]
        count = view.count(prefix)
        rates[v] = (count - prev) * fn.key_rate
        prev = count
    return ExtremePoint(order=seq, rates=tuple(sorted(rates.items())))


def extreme_points(fn: RankFunction) -> tuple[ExtremePoint, ...]:
    """All distinct extreme points, one per rate vector.

    Permutations are visited in lexicographic order, depth first over prefix
    masks of the block's count table, whose differences times r_K are the
    rates; when several produce the same vector only the first is kept.  Blocks larger than EXTREME_POINTS_CAP are refused
    (|block|! permutations).
    """
    if len(fn.block) > EXTREME_POINTS_CAP:
        raise GroundTooLarge(
            f"extreme points over a block of {len(fn.block)} exceeds cap "
            f"{EXTREME_POINTS_CAP}"
        )
    order, counts = block_removal_counts(fn.hypergraph, fn.block)
    n = len(order)
    r = fn.key_rate
    seen: dict[tuple[int, ...], ExtremePoint] = {}
    steps = [0] * n  # count differences; the rates are r times them
    seq: list[int] = []

    def grow(mask: int) -> None:
        if len(seq) == n:
            key = tuple(steps) if r else ()  # at r = 0 every vector is zero
            if key not in seen:
                seen[key] = ExtremePoint(
                    order=tuple(order[i] for i in seq),
                    rates=tuple((v, d * r) for v, d in zip(order, steps)),
                )
            return
        for i in range(n):
            if not mask >> i & 1:
                steps[i] = counts[mask | 1 << i] - counts[mask]
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


def decompose(fn: RankFunction, target: Mapping[str, Fraction]) -> DecompositionResult:
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

    f is normalized and supermodular on every block a RankFunction accepts,
    so the split always ends; a block of more than 12 vertices raises
    GroundTooLarge.
    """
    goal = {str(v): _as_fraction(r) for v, r in dict(target).items()}
    if frozenset(goal) != fn.block:
        raise SubsetOutsideBlock("target must assign a rate to each block vertex")
    if any(r < 0 for r in goal.values()):
        raise NegativeRate("target rates must be nonnegative")

    order, counts = block_removal_counts(fn.hypergraph, fn.block)
    values = [(c - 1) * fn.key_rate for c in counts]
    n = len(order)
    x = [goal[v] for v in order]
    sums = _subset_sums(x)
    for mask in _canonical_masks(n):
        if sums[mask] < values[mask]:
            return DecompositionResult(
                feasible=False, violated=(_members(order, mask), values[mask])
            )

    full = (1 << n) - 1
    slack = [s - f for s, f in zip(sums, values)]
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
        if top != full:  # pragma: no cover
            break  # theorem guard: a base of f has a maximal tight chain
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
    raise NotFundamentalBlock(  # pragma: no cover - theorem guard
        "the rank function is not normalized and supermodular over this block"
    )


def _subset_sums(x: list[Fraction]) -> list[Fraction]:
    """sums[mask] = the sum of x[i] over the bits i of mask."""
    sums = [Fraction(0)] * (1 << len(x))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + x[low.bit_length() - 1]
    return sums
