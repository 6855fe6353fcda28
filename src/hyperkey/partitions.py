"""Partitions of vertex sets and partition-based connectivity functionals.

Two functionals are minimized over proper partitions: the unit-count version
(crossing count normalized by block count minus one) and the weighted version
driven by the coverage entropy of the source (an edge contributes its weight
to every vertex set its members meet).  Both attain their minimum on a unique
finest partition, the fundamental partition.

Minimally connected hypergraphs (MCHs) take a linear path at any size: one
DFS of the vertex-edge incidence graph gives the fundamental partition, and
the minimum is 1 (unit) or the least edge weight (weighted); see _mch_report
for the proof and the run-time check of the value, which it keeps in integer
units on the hypergraph's index.  Every other input is
swept over the Bell(|V|) partitions, up to SWEEP_CAP vertices, by one
depth-first walk over restricted-growth codes (_minimizer_sweep); no
partition is built per leaf.  The walk skips a subtree when no completion
can tie the best value so far: a partial code with numerator num, whose
blocks form comps components under the edges met so far, cannot complete
to a numerator below num + w_min * (t + comps - whole) when it opens t more
blocks, w_min being the least weight and whole the component count of h,
since the quotient's cycle rank never falls as vertices are placed.  Ties
are never skipped, so an input on which every partition ties (no edges,
say) still costs all Bell(|V|) leaves.  The walk folds the finest
minimizer as it goes (_MeetFold) and checks the meet-closure instead of
assuming it, on every sweep.

A sweep builds one Partition, the fundamental one, and keeps nothing per
minimizer: it returns a ConnectivityReport, the value and the finest
minimizer.  _cached_sweep is its one entry and keeps that report on the
hypergraph under ("sweep", w), w false for the unit functional and for a
hypergraph whose weights are all one, so such a hypergraph sweeps once for
both.  partition_connectivity and mmi return that report on a non-MCH, and
the property suites read it as the oracle for the MCH fast path, so the
answers and the suites share one sweep per distinct functional.  Reports
and sweeps go with the hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Union

from .errors import (
    EmptyVertexSet,
    GroundTooLarge,
    SemiLatticeViolation,
    UnknownVertex,
)
from .hypergraph import Hypergraph, _find, _partition_blocks

__all__ = [
    "Partition",
    "ConnectivityReport",
    "crossing_count",
    "entropy",
    "partition_connectivity",
    "mmi",
]

SWEEP_CAP = 12  # the Bell(|V|) partition sweep refuses larger ground sets


@dataclass(frozen=True)
class Partition:
    """A partition of a ground set, blocks stored in canonical order.

    Canonical order sorts blocks by their smallest member (lexicographically).
    Construct via from_blocks / singletons so the order and the partition
    property are always enforced.
    """

    blocks: tuple[frozenset[str], ...]

    @staticmethod
    def from_blocks(
        blocks: Iterable[Iterable[str]], ground: Optional[frozenset[str]] = None
    ) -> "Partition":
        blist = _partition_blocks(blocks, ground)
        blist.sort(key=min)
        return Partition(tuple(blist))

    @staticmethod
    def singletons(ground: Iterable[str]) -> "Partition":
        return Partition.from_blocks([{v} for v in ground])

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, v: str) -> frozenset[str]:
        for b in self.blocks:
            if v in b:
                return b
        raise UnknownVertex(f"vertex {v!r} is in no block")

    def refines(self, other: "Partition") -> bool:
        """True when every block of self sits inside a block of other."""
        return all(any(b <= c for c in other.blocks) for b in self.blocks)

    def to_sorted_lists(self) -> list[list[str]]:
        return [sorted(b) for b in self.blocks]


def crossing_count(h: Hypergraph, p: Partition) -> int:
    """Sum of block degrees minus the edge count.

    Each edge contributes (number of blocks it meets) - 1, so the total counts
    block crossings: it is zero exactly when no edge crosses blocks.
    """
    blocks = _partition_blocks(p, h.vertices)
    return sum(h.degree(b) for b in blocks) - len(h.edges)


def entropy(h: Hypergraph, b: Iterable[str]) -> Fraction:
    """Coverage entropy of a vertex set: total weight of edges meeting it."""
    bset = h._check_subset(b)
    if not bset:
        return Fraction(0)
    return sum(
        (e.weight for e in h.edges if not e.members.isdisjoint(bset)),
        Fraction(0),
    )


@dataclass(frozen=True)
class ConnectivityReport:
    """Minimum of a partition functional plus where it is attained.

    value       -- the minimum over proper partitions (exact rational)
    fundamental -- the unique finest proper partition attaining it
    """

    value: Fraction
    fundamental: Partition


def _sweeps_weights(h: Hypergraph, weighted: bool) -> bool:
    """Whether the weighted sweep differs from the unit one: False when
    weighted is, or when every weight is one."""
    return weighted and any(e.weight != 1 for e in h.edges)


def _cached_sweep(h: Hypergraph, weighted: bool) -> ConnectivityReport:
    """_minimizer_sweep's report, the one entry to the sweep, kept by
    Hypergraph._memo under ("sweep", w), w being _sweeps_weights: all-one
    weights share one sweep for both functionals."""
    weighted = _sweeps_weights(h, weighted)
    return h._memo(("sweep", weighted), lambda: _minimizer_sweep(h, weighted))


def _scaled_edge_masks(
    h: Hypergraph, elems: list[str], edge_weights: Iterable[Union[Fraction, int]]
) -> tuple[list[tuple[int, int]], int]:
    """([(member bitmask over elems, weight * L) per edge], L), with L the lcm
    of the weights' denominators, so every scaled weight is an exact int."""
    weights = tuple(edge_weights)
    scale = lcm(*(w.denominator for w in weights))
    index = {v: i for i, v in enumerate(elems)}
    masks = [
        (sum(1 << index[v] for v in e.members), int(w * scale))
        for e, w in zip(h.edges, weights)
    ]
    return masks, scale


def _minimizer_sweep(h: Hypergraph, weighted: bool) -> ConnectivityReport:
    """The value and the fundamental partition: minimize (sum of block
    coverage sums - total) / (|P| - 1) over proper partitions, where a
    block's coverage sum adds the weight of every edge meeting it (1 per
    edge unless weighted).  Equivalently the numerator is
    sum_e w_e * (blocks met - 1).

    A depth-first walk over restricted-growth codes, block choices ascending,
    so leaves come in restricted-growth order.  Each edge keeps a bitmask
    of the blocks its placed members meet: placing vertex i in block k
    updates only the edges at i, adding an edge's scaled weight when k is new
    to it and it already met another block, and backtracking undoes that.
    The last vertex is only evaluated, never placed: one pass over its edges
    gives the total for each of its blocks.

    A child whose every completion would lose to the best so far is skipped
    whole.  Let num be its partial numerator, nb its block count, comps the
    count of components of its blocks joined by the edges met so far (a
    union-find over block ids, undone on backtrack), whole the component
    count of h and w_min the least scaled weight.  A completion opening t
    more blocks has a numerator of at least num + w_min * (t + comps -
    whole): the quotient's cycle rank, sum_e (c_e - 1) - blocks + comps,
    never falls as members are placed, the final quotient has at most
    whole components, and each further crossing weighs at least w_min.
    That bound over nb - 1 + t is monotone in t, so the child is skipped
    when it exceeds the best at the end where it is least.  No completion
    that ties the best is skipped, so the leaves that reach the fold and
    their order are those of the full walk; an input on which every
    partition ties (no edges, say) still walks all Bell(|V|) of them.  The
    value is kept as an integer pair, and a _MeetFold folds the finest
    minimizer, each new meet recounted on the edge masks (hits).
    """
    elems = sorted(h.vertices)
    n = len(elems)
    if n < 2:
        raise EmptyVertexSet("connectivity functionals need at least two vertices")
    if n > SWEEP_CAP:
        raise GroundTooLarge(
            f"partition enumeration over {n} elements exceeds cap {SWEEP_CAP}"
        )
    weighted_masks, scale = _scaled_edge_masks(
        h, elems, (e.weight if weighted else 1 for e in h.edges)
    )
    # incident[i]: (edge index, scaled weight) of every edge containing elems[i]
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, (em, w) in enumerate(weighted_masks):
        for i in range(n):
            if em >> i & 1:
                incident[i].append((j, w))
    # the bound's constants: the least scaled weight and h's component
    # count, from the edge masks (parts: each component's vertex bitmask)
    w_min = min((w for _, w in weighted_masks), default=0)
    parts = [1 << i for i in range(n)]
    for em, _ in weighted_masks:
        merged = em
        for part in [part for part in parts if part & em]:
            parts.remove(part)
            merged |= part
        parts.append(merged)
    whole = len(parts)
    met = [em & 1 for em, _ in weighted_masks]  # vertex 0 sits in block 0
    up = list(range(n))  # union-find over block ids joined by met edges
    code = [0] * n
    last = n - 1
    last_edges = incident[last]
    best_num: Optional[int] = None
    best_den = 1

    def hits(meet: tuple[int, ...]) -> bool:
        masks = [0] * (max(meet) + 1)  # meet is a restricted-growth code
        for i, k in enumerate(meet):
            masks[k] |= 1 << i
        num = sum(w * (sum(1 for m in masks if m & em) - 1) for em, w in weighted_masks)
        return num * best_den == best_num * (len(masks) - 1) * scale

    fold = _MeetFold(hits)

    def leaves(num: int, blocks: int) -> None:
        # the last vertex joins block k < blocks, or opens block `blocks`
        nonlocal best_num, best_den
        # one pass over its edges: opening a block adds the weight of every
        # edge already met (base); joining block k saves saving[k] of that
        base = num
        saving = [0] * blocks
        for j, w in last_edges:
            m = met[j]
            if m:
                base += w
                while m:
                    low = m & -m
                    saving[low.bit_length() - 1] += w
                    m ^= low
        for k in range(blocks + 1):
            if k < blocks:
                if blocks == 1:
                    continue
                total, den = base - saving[k], (blocks - 1) * scale
            else:
                total, den = base, blocks * scale
            code[last] = k
            if best_num is None or total * best_den < best_num * den:
                best_num, best_den = total, den
                fold.restart(tuple(code))
            elif total * best_den == best_num * den:
                fold.tie(tuple(code))

    def place(i: int, num: int, blocks: int, comps: int) -> None:
        if i == last:
            leaves(num, blocks)
            return
        edges = incident[i]
        rest = last - i  # vertices the child still places
        for k in range(blocks + 1):
            bit = 1 << k
            added = 0
            touched = []
            joined = []
            for j, w in edges:
                m = met[j]
                if not m & bit:
                    if m:
                        added += w
                        # join k's component with that of the edge's blocks
                        a = k
                        while up[a] != a:
                            a = up[a]
                        b = (m & -m).bit_length() - 1
                        while up[b] != b:
                            b = up[b]
                        if a != b:
                            up[a] = b
                            joined.append(a)
                    met[j] = m | bit
                    touched.append(j)
            code[i] = k
            nb = blocks + 1 if k == blocks else blocks
            c = comps + (k == blocks) - len(joined)
            # (floor + w_min * t) / (nb - 1 + t) bounds every completion
            # opening t more blocks; it is monotone in t, so its least is at
            # t = rest when it falls, else at the fewest blocks a proper
            # partition allows
            floor = num + added + w_min * (c - whole)
            t = rest if floor >= w_min * (nb - 1) else int(nb == 1)
            if (
                best_num is None
                or (floor + w_min * t) * best_den <= best_num * (nb - 1 + t) * scale
            ):
                place(i + 1, num + added, nb, c)
            for a in joined:
                up[a] = a
            for j in touched:
                met[j] ^= bit

    place(1, 0, 1, 1)
    # place holds itself through its closure: a cycle only a collection frees
    del place
    assert best_num is not None
    return ConnectivityReport(
        value=Fraction(best_num, best_den),
        fundamental=_partition_of_code(elems, fold.finest()),
    )


class _MeetFold:
    """The meet of a sweep's minimizers, folded leaf by leaf: a new best
    value restarts it, a tie refines it until it is the singletons, and a
    meet that is neither the old one nor the tie must attain the value
    (hits), or finest() raises.  The meet labels each element by its pair
    of labels in order of first occurrence: a restricted-growth code."""

    def __init__(self, hits):
        self.hits = hits

    def restart(self, code: tuple[int, ...]) -> None:
        self.meet, self.broken = code, False

    def tie(self, code: tuple[int, ...]) -> None:
        old = self.meet
        if old[-1] < len(old) - 1:
            ids: dict[tuple[int, int], int] = {}
            self.meet = tuple([ids.setdefault(p, len(ids)) for p in zip(old, code)])
            self.broken |= self.meet not in (old, code) and not self.hits(self.meet)

    def finest(self) -> tuple[int, ...]:
        if self.broken:
            raise SemiLatticeViolation(
                "minimizer set is not closed under common refinement"
            )
        return self.meet


def _partition_of_code(elems: list[str], code: tuple[int, ...]) -> Partition:
    """The partition whose restricted-growth code over elems is code."""
    blocks: list[set[str]] = [set() for _ in range(max(code) + 1)]
    for v, b in zip(elems, code):
        blocks[b].add(v)
    return Partition.from_blocks(blocks)


def _mch_report(h: Hypergraph, weighted: bool) -> ConnectivityReport:
    """Both functionals on an MCH, in O(|V| + sum of |e|) with no enumeration.

    Let c_e be the number of blocks of P that edge e meets and w_min the
    least weight.  The quotient h/P is connected because h is, so
    sum_e (c_e - 1) >= |P| - 1, and

        f(P) = sum_e w_e (c_e - 1) / (|P| - 1)
             >= w_min * sum_e (c_e - 1) / (|P| - 1) >= w_min.

    Equality needs both steps tight: the quotient has no Berge cycle (the
    second), and no edge heavier than w_min crosses blocks (the first).
    h/P has no Berge cycle exactly when every cycle of the incidence graph
    keeps its vertices inside one block, i.e. when P is coarser than the
    cyclic cores; contracting a heavy edge's members in a forest leaves a
    forest.  So the finest minimizer is the cyclic cores joined with the
    member set of every heavy edge, and the minimum is w_min (1 for the unit
    functional).  It is proper: an MCH edge of weight w_min separates the
    incidence graph, and neither a core nor another edge spans two sides.

    A run-time certificate checks that the partition is proper and that the
    functional evaluated exactly on it equals the bound, which proves the
    value and that P is a minimizer.  Since h/P is connected and every
    w_e >= w_min > 0, meeting the bound forces sum_e (c_e - 1) = |P| - 1, so
    h/P is a hypertree and has no Berge cycle; that needs no separate check.
    That P is the finest minimizer rests on the argument above and on the
    enumeration oracle tests, not on the certificate.

    Everything runs on the hypergraph's integer index: the weights are the
    index's w_e * L (all 1 for the unit functional), so the bound, the heavy
    edges and the certificate are integers, and the one Fraction built is
    the value, w_min.
    """
    index = h._index()
    names, members = index.names, index.members
    n = len(names)
    position = index.position
    if weighted:
        weights, scale = index.weights, index.scale
    else:
        weights, scale = [1] * len(members), 1
    bound = min(weights)
    groups = [[position[v] for v in core] for core in h.cyclic_cores()]
    groups.extend(members[j] for j, w in enumerate(weights) if w > bound)
    root = list(range(n))  # union-find joining each group's members
    for g in groups:
        head = _find(root, g[0])
        for x in g[1:]:
            r = _find(root, x)
            if r != head:
                root[r] = head
    # blocks numbered by their least position, so already in the order
    # Partition.from_blocks would sort them into (by least member)
    label = [-1] * n
    block_of = [0] * n
    blocks: list[list[str]] = []
    for i in range(n):
        r = _find(root, i)
        k = label[r]
        if k < 0:
            k = label[r] = len(blocks)
            blocks.append([])
        blocks[k].append(names[i])
        block_of[i] = k
    p = Partition(tuple(frozenset(b) for b in blocks))

    crossings = sum(
        w * (len({block_of[i] for i in spots}) - 1)
        for spots, w in zip(members, weights)
    )
    if len(p) < 2:
        raise SemiLatticeViolation("MCH fast path produced the one-block partition")
    if crossings != bound * (len(p) - 1):
        raise SemiLatticeViolation(
            f"MCH fast path partition has value "
            f"{Fraction(crossings, scale * (len(p) - 1))}, "
            f"not the lower bound {Fraction(bound, scale)}"
        )
    return ConnectivityReport(value=Fraction(bound, scale), fundamental=p)


def _connectivity(h: Hypergraph, weighted: bool) -> ConnectivityReport:
    """The report for one functional, cached on the value; reports are
    frozen, so callers share one.  A non-MCH's report is its _cached_sweep
    report, the one the property suites read."""

    def build():
        if len(h.vertices) >= 2 and h.is_mch():
            return _mch_report(h, weighted)
        return _cached_sweep(h, weighted)

    return h._memo(("connectivity", weighted), build)


def partition_connectivity(h: Hypergraph) -> ConnectivityReport:
    """Unit-count connectivity: min over proper partitions of
    crossing_count / (|P| - 1).

    On an MCH the value is 1 and the fundamental partition is the cyclic
    cores plus singletons, found in linear time at any size.  Other inputs
    are enumerated, up to 12 vertices; there the value is zero
    exactly when h is disconnected, and the fundamental partition is then
    the partition into connected components.
    """
    return _connectivity(h, False)


def mmi(h: Hypergraph) -> ConnectivityReport:
    """Weighted shared-information functional over proper partitions.

    For each proper partition P of the ground set, the value is
    (sum of block coverage entropies - total entropy) / (|P| - 1); the report
    carries the minimum and the finest minimizer.  On an MCH the minimum is
    the least edge weight and the finest minimizer is found in linear time;
    other inputs are enumerated, up to 12 vertices.  For a vertex subset s,
    call mmi(h.induced(s)).
    """
    return _connectivity(h, True)
