"""Secret-key capacities and the achievable rate region for MCH sources.

For a minimally connected hypergraphical source, the unconstrained key
capacity is the minimum edge weight, the capacity under a total discussion
budget R is min(R / (|E| - 1), unconstrained), and the minimum total
discussion for a maximum-rate key is (|E| - 1) times the unconstrained
capacity.  The discussion-rate region at key rate r_K is cut out by one
constraint per subset B of a fundamental-partition block with
component_count(h minus B) > 1:

    sum of r_i over B  >=  (component_count(h minus B) - 1) * r_K.

Subsets with component count one would give coefficient zero and are never
materialized.

Three input rules have their one check here: a key rate (_key_rate, read
by RateTuple, polymatroid.RankFunction, scheme.rates_of and
simkit.quantize), a fundamental block (_require_fundamental_block) and an
order of one (_block_order, read by scheme.synthesize and
polymatroid.extreme_point_for_order).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    InvalidPartition,
    NegativeRate,
    NotFundamentalBlock,
    NotMCH,
    SubsetOutsideBlock,
    UnknownVertex,
)
from .hypergraph import (
    Hypergraph,
    _as_rational,
    _partition_blocks,
    block_removal_counts,
)
from .partitions import Partition, partition_connectivity

__all__ = [
    "RateTuple",
    "RegionSpec",
    "RegionCheck",
    "require_mch",
    "unconstrained_capacity",
    "constrained_capacity",
    "communication_complexity",
    "region_spec",
    "in_region",
    "outer_bound_deficit",
]


def require_mch(h: Hypergraph) -> None:
    if not h.is_mch():
        raise NotMCH("hypergraph is not minimally connected")


def _require_fundamental_block(h: Hypergraph, block: frozenset[str]) -> None:
    """NotMCH unless h is an MCH, then NotFundamentalBlock unless block is a
    block of its (cached) fundamental partition: one lookup, in time
    O(|block|), in the set of those blocks, cached on h."""
    require_mch(h)
    blocks = h._memo(
        "fundamental blocks",
        lambda: frozenset(partition_connectivity(h).fundamental.blocks),
    )
    if block not in blocks:
        raise NotFundamentalBlock(
            f"{sorted(block)} is not a block of the fundamental partition"
        )


def _block_order(block: frozenset[str], seq) -> tuple[str, ...]:
    """The one check of a block order: seq, each vertex through str, as a
    tuple, when it is a permutation of block; else SubsetOutsideBlock, for
    a seq that is not iterable too."""
    try:
        perm = tuple(str(v) for v in iter(seq))
    except TypeError:
        raise SubsetOutsideBlock(f"order {seq!r} is not iterable") from None
    if frozenset(perm) != block or len(perm) != len(block):
        raise SubsetOutsideBlock(
            f"order {perm!r} is not a permutation of {sorted(block)}"
        )
    return perm


def _as_fraction(value) -> Fraction:
    """The one reader of rates (hypergraph._as_rational): what it cannot read
    is a NegativeRate."""
    return _as_rational(value, NegativeRate, "a rate must be a rational")


def _key_rate(value) -> Fraction:
    """The one reader of a key rate: a rate (_as_fraction) that is not
    negative, else NegativeRate."""
    rate = _as_fraction(value)
    if rate.numerator < 0:
        raise NegativeRate("key rate must be nonnegative")
    return rate


@dataclass(frozen=True)
class RateTuple:
    """A key rate plus one discussion rate per vertex, all exact rationals."""

    key_rate: Fraction
    per_user: Mapping[str, Fraction]

    def __post_init__(self):
        # each rate is coerced once; a Fraction is kept as it is
        object.__setattr__(self, "key_rate", _key_rate(self.key_rate))
        normalized = {str(v): _as_fraction(r) for v, r in dict(self.per_user).items()}
        object.__setattr__(self, "per_user", normalized)
        if any(r.numerator < 0 for r in normalized.values()):
            raise NegativeRate("rates must be nonnegative")

    def total(self) -> Fraction:
        return sum(self.per_user.values(), Fraction(0))

    def over(self, subset: Iterable[str]) -> Fraction:
        out = Fraction(0)
        for v in subset:
            try:
                out += self.per_user[v]
            except KeyError:
                raise UnknownVertex(f"rate tuple has no entry for vertex {v!r}")
        return out


@dataclass(frozen=True)
class RegionSpec:
    """The rate region at unit key rate: cap on r_K plus linear constraints.

    constraints is a tuple of (subset, coefficient) meaning
    sum of r_i over subset >= coefficient * r_K, listed in canonical order
    (generator blocks by smallest member, subsets by size then sorted members).
    generator_blocks are the fundamental-partition blocks the subsets range
    over.
    """

    key_cap: Fraction
    constraints: tuple[tuple[frozenset[str], int], ...]
    generator_blocks: tuple[frozenset[str], ...]


@dataclass(frozen=True)
class RegionCheck:
    """Outcome of a membership test: ok, or the first violated constraint."""

    ok: bool
    key_cap_violated: bool = False
    violated: Optional[tuple[frozenset[str], int]] = None


def unconstrained_capacity(h: Hypergraph) -> Fraction:
    """Maximum key rate with unlimited discussion: the minimum edge weight."""
    require_mch(h)
    return h.min_weight()


def constrained_capacity(h: Hypergraph, total_rate: Fraction) -> Fraction:
    """Key capacity when the total discussion rate is capped at total_rate."""
    require_mch(h)
    budget = _as_fraction(total_rate)
    if budget < 0:
        raise NegativeRate("the discussion budget must be nonnegative")
    cap = h.min_weight()
    if len(h.edges) == 1:
        return cap
    return min(budget / (len(h.edges) - 1), cap)


def communication_complexity(h: Hypergraph) -> Fraction:
    """Least total discussion that still achieves the unconstrained capacity."""
    require_mch(h)
    return (len(h.edges) - 1) * h.min_weight()


@functools.cache
def _canonical_masks(k: int) -> tuple[int, ...]:
    """Nonempty subsets of k sorted members as bitmasks, by size then
    lexicographic member order."""
    return tuple(
        sum(1 << i for i in combo)
        for size in range(1, k + 1)
        for combo in itertools.combinations(range(k), size)
    )


def _members(order: Sequence[str], mask: int) -> frozenset[str]:
    """The members of order whose bits are set in mask."""
    return frozenset(v for i, v in enumerate(order) if mask >> i & 1)


def region_spec(h: Hypergraph) -> RegionSpec:
    """The region of an MCH, from the edges meeting each fundamental block;
    a block of more than 12 vertices raises GroundTooLarge."""
    require_mch(h)
    fundamental = partition_connectivity(h).fundamental
    constraints: list[tuple[frozenset[str], int]] = []
    for block in fundamental.blocks:
        order, counts = block_removal_counts(h, block)
        full = len(counts) - 1
        for mask in _canonical_masks(len(order)):
            kappa = counts[mask]
            if kappa > 1:
                subset = block if mask == full else _members(order, mask)
                constraints.append((subset, kappa - 1))
    return RegionSpec(
        key_cap=h.min_weight(),
        constraints=tuple(constraints),
        generator_blocks=fundamental.blocks,
    )


def in_region(h: Hypergraph, rt: RateTuple) -> RegionCheck:
    """Membership test; reports the first violated constraint if any.

    The key-rate cap is checked first, then the subset constraints in
    region_spec's canonical order.  The rate tuple must carry an entry for
    every vertex of h and for no other.
    """
    spec = region_spec(h)
    missing = h.vertices - set(rt.per_user)
    if missing:
        raise UnknownVertex(f"rate tuple missing vertices: {sorted(missing)}")
    foreign = set(rt.per_user) - h.vertices
    if foreign:
        raise UnknownVertex(f"rate tuple names unknown vertices: {sorted(foreign)}")
    if rt.key_rate > spec.key_cap:
        return RegionCheck(ok=False, key_cap_violated=True)
    for subset, coeff in spec.constraints:
        if rt.over(subset) < coeff * rt.key_rate:
            return RegionCheck(ok=False, violated=(subset, coeff))
    return RegionCheck(ok=True)


def outer_bound_deficit(
    h: Hypergraph, rt: RateTuple, b: Iterable[str], p: Partition
) -> Fraction:
    """Slack of one converse inequality; nonnegative iff it is satisfied.

    For a vertex subset B with |B| < |V| - 1 and a proper partition P of the
    remaining vertices, any achievable tuple obeys

        r(B) >= (|P| - 1) * (r_K - I_P)

    where I_P is the weighted partition functional of the source restricted to
    the remaining vertices.  Returns r(B) minus the right-hand side.
    """
    bset = h._check_subset(str(v) for v in b)
    if len(bset) >= len(h.vertices) - 1:
        raise InvalidPartition(
            "the bound needs at least two vertices outside the subset"
        )
    blocks = _partition_blocks(p, h.vertices - bset)
    if len(blocks) < 2:
        raise InvalidPartition("the bound needs a proper partition")
    # each block misses B, so it meets the same edges in h as in h minus B,
    # and (|P| - 1) I_P = sum over the edges not inside B of w_e (blocks met
    # - 1): on the integer index, each vertex outside B carries its block's
    # bit, and an edge's bits OR to the blocks it meets (none when inside B)
    index = h._index()
    bit = [0] * len(index.names)
    for k, c in enumerate(blocks):
        for v in c:
            bit[index.position[v]] = 1 << k
    scaled = 0
    for spots, w in zip(index.members, index.weights):
        met = 0
        for i in spots:
            met |= bit[i]
        if met:
            scaled += w * (met.bit_count() - 1)
    return (
        rt.over(bset)
        - (len(blocks) - 1) * rt.key_rate
        + Fraction(scaled, index.scale)
    )
