"""Synthesis and verification of the linear XOR discussion scheme.

The scheme broadcasts, per fundamental-partition block and per vertex of that
block in a chosen order, a chain of XORs of truncated edge variables.  At a
vertex i the representatives it shares an edge with split into reachability
classes once the order prefix is deleted; one edge is picked per class (least
representative, then least edge id) and consecutive picks are XORed, giving
one fewer message than classes.  Over the whole hypergraph this emits exactly
(edge count - 1) rows, each the sorted pair of edge columns it XORs, whose
matrix has full row rank, and adding any single edge indicator raises the
rank to the edge count, which is at once the zero-error recovery condition
for every vertex and perfect secrecy of the key edge: pair rows can never
sum to a unit vector.  `verify` checks all of it with a union-find over the
columns (gf2.eliminate serves any other row set).  A block's
representatives, one per edge meeting it, come from one rule
(hypergraph._representatives); they depend on the block, not on its order.
A block of two or more vertices is read through its cached view
(hypergraph._BlockView): one search over its local edges gives the classes
after each order prefix, in time linear in h when the cyclic cores are
bounded; a one-vertex block needs no view, since each edge at it is a
class alone.  Columns are edge indices of the hypergraph's integer index,
which lists the edges in id order, as the columns are.  A row's columns
are read by one rule, _columns, for row_pairs, verify and the scheme
check of simkit; an orders mapping's blocks and orders are checked by
capacity._require_fundamental_block and capacity._block_order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from . import gf2
from .capacity import (
    RateTuple,
    _as_fraction,
    _block_order,
    _key_rate,
    _require_fundamental_block,
    require_mch,
)
from .errors import (
    NegativeRate,
    NotFundamentalBlock,
    RankDefect,
    SchemeUnverified,
    WeightsNotConvex,
)
from .hypergraph import Hypergraph, _block_view, _find, _representatives
from .partitions import partition_connectivity

__all__ = [
    "DiscussionScheme",
    "VerificationReport",
    "CompositeScheme",
    "representatives",
    "synthesize",
    "verify",
    "rates_of",
    "compose_time_shared",
]


@dataclass(frozen=True)
class DiscussionScheme:
    """A linear non-interactive discussion: XOR rows over edge columns.

    edge_order fixes the column layout (edge ids, lexicographic); rows are
    sorted tuples of the columns they XOR (pairs when synthesized); speakers
    name the vertex that broadcasts each row; key_edge is the edge whose
    truncated variable is the key; recovery maps every vertex to the
    incident edge it solves the system with.
    """

    edge_order: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    speakers: tuple[str, ...]
    key_edge: str
    recovery: tuple[tuple[str, str], ...]

    @property
    def mu(self) -> int:
        return len(self.edge_order)

    def column(self, eid: str) -> int:
        if eid not in self.edge_order:
            raise SchemeUnverified(f"edge {eid!r} is not a scheme column")
        return self.edge_order.index(eid)

    def row_pairs(self) -> tuple[tuple[str, ...], ...]:
        """Each row's edge ids, one per column _columns reads off it."""
        mu, order = self.mu, self.edge_order
        return tuple(tuple(order[j] for j in _columns(row, mu)) for row in self.rows)

    def vertices(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.recovery)

    @cached_property
    def _report(self) -> "VerificationReport":
        """verify's report, computed on first use; the scheme is frozen, so
        it cannot go stale."""
        return _verification(self)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of every scheme check; verification never raises.

    ok is the conjunction of: the row count is edge count minus one, every row
    is a tuple (i, j) of two int columns with 0 <= i < j < mu (bad_rows lists
    the others, whatever they hold), the matrix has full row rank, appending
    any single-edge indicator reaches full column rank (every vertex can
    recover every edge variable), and the key indicator in particular is
    outside the row space (perfect secrecy of the key).
    """

    ok: bool
    row_count_ok: bool
    row_weights_ok: bool
    bad_rows: tuple[int, ...]
    matrix_rank: int
    rank_ok: bool
    recovery_ok: bool
    unrecoverable_edges: tuple[str, ...]
    secrecy_ok: bool


def representatives(h: Hypergraph, c: Iterable[str]) -> frozenset[str]:
    """One degree-one vertex per component of the incident restriction of c
    with c deleted; the least vertex of each component is chosen."""
    block = frozenset(str(v) for v in c)
    _require_fundamental_block(h, block)
    names = h._index().names
    return frozenset(names[p] for p, _ in _representatives(h, block))


def _normalize_orders(
    h: Hypergraph, orders: Optional[Mapping] = None
) -> dict[frozenset[str], tuple[str, ...]]:
    """Every fundamental block of the MCH h with its order, in block order:
    the one orders gives it, checked by _require_fundamental_block and
    _block_order, else ascending."""
    fundamental = partition_connectivity(h).fundamental
    table: dict[frozenset[str], tuple[str, ...]] = {
        block: tuple(sorted(block)) for block in fundamental.blocks
    }
    for key, seq in (orders or {}).items():
        try:
            block = frozenset(str(v) for v in iter(key))
        except TypeError:
            raise NotFundamentalBlock(f"order key {key!r} is not iterable") from None
        _require_fundamental_block(h, block)
        table[block] = _block_order(block, seq)
    return table


def synthesize(
    h: Hypergraph, orders: Optional[Mapping] = None
) -> tuple[DiscussionScheme, dict[frozenset[str], tuple[str, ...]]]:
    """Build the scheme for an MCH source with the given per-block orders.

    orders maps a block (any iterable of its vertices) to a permutation of it;
    blocks not mentioned use ascending order.  Rows appear block by block in
    canonical block order and, within a block, in the order's sequence.

    Returns the scheme and the orders it used: a dict from every
    fundamental block to its order, in the rows' block order, so passing it
    back as orders gives the same scheme.  A vertex speaks only at its own
    turn in its own block's order, so a row's block and (1-based) step are
    those of its speaker there; a block's representatives are
    representatives(h, block).
    """
    require_mch(h)
    table = _normalize_orders(h, orders)
    # h.edges is in id order, so an edge's index is its column
    edge_order = tuple(e.id for e in h.edges)
    index = h._index()
    names = index.names

    rows: list[tuple[int, ...]] = []
    speakers: list[str] = []

    # one row per pair of consecutive picks, each spoken by the vertex
    def say(vertex: str, picked: list[int]):
        for a, b in zip(picked, picked[1:]):
            rows.append((a, b) if a < b else (b, a))
            speakers.append(vertex)

    for block, order in table.items():
        if len(order) == 1:
            say(order[0], [j for _, j in _representatives(h, order)])
        else:
            view = _block_view(h, block)
            # a representative lies on one edge only
            rep_edge = {rep: j for j, rep in view.reps.items()}
            prefix = 0
            for vertex in order:
                prefix |= view.bit[vertex]
                classes = view.classes(vertex, prefix)
                say(vertex, [rep_edge[min(c)] for c in classes])

    # the index lists each vertex's edges in id order
    recovery = tuple(
        (v, edge_order[edges[0]]) for v, edges in zip(names, index.incident)
    )
    scheme = DiscussionScheme(
        edge_order=edge_order,
        rows=tuple(rows),
        speakers=tuple(speakers),
        key_edge=edge_order[0],
        recovery=recovery,
    )
    if len(rows) != len(edge_order) - 1:
        raise RankDefect(
            f"synthesized {len(rows)} rows for {len(edge_order)} edges"
        )
    report = verify(scheme)
    if not report.ok:
        raise RankDefect(f"synthesized scheme failed verification: {report}")
    return scheme, table


def verify(scheme: DiscussionScheme) -> VerificationReport:
    """Check every scheme property; never raises.

    When every row is a pair (i, j) with 0 <= i < j < mu, the rows are the
    edges of a graph on the columns: the rank is the column count minus the
    number of components, and no unit vector lies in the span, since every
    sum of rows has even weight.  So edge i is recoverable iff the graph is
    connected, and the key is secret iff it names a column.  Other row sets
    go through one GF(2) elimination of their masks (_row_mask): the rank is
    the size of the reduced basis, and the unit vector of column i lies in
    the span iff basis[i] is 1 << i; edge i is recoverable iff rank +
    (e_i outside the span) is the edge count.

    The report is computed once per scheme and cached on it.
    """
    return scheme._report


def _verification(scheme: DiscussionScheme) -> VerificationReport:
    """verify's report, computed."""
    mu = scheme.mu
    row_count_ok = len(scheme.rows) == len(scheme.speakers) == mu - 1
    bad_rows = tuple(
        idx
        for idx, row in enumerate(scheme.rows)
        if not (_columns(row, mu) == row and len(row) == 2 and row[0] < row[1])
    )
    row_weights_ok = not bad_rows
    if row_weights_ok:
        matrix_rank = mu - _column_components(mu, scheme.rows)
        spanned = 0  # columns whose unit vector lies in the row space
    else:
        basis = gf2.eliminate(_row_mask(row, mu) for row in scheme.rows)
        matrix_rank = len(basis)
        spanned = sum(1 << i for i, mask in basis.items() if mask == 1 << i)
    rank_ok = matrix_rank == mu - 1
    unrecoverable = tuple(
        eid
        for i, eid in enumerate(scheme.edge_order)
        if matrix_rank + (not spanned >> i & 1) != mu
    )
    recovery_ok = not unrecoverable
    secrecy_ok = scheme.key_edge in scheme.edge_order and not (
        spanned >> scheme.edge_order.index(scheme.key_edge) & 1
    )
    ok = row_count_ok and row_weights_ok and rank_ok and recovery_ok and secrecy_ok
    return VerificationReport(
        ok=ok,
        row_count_ok=row_count_ok,
        row_weights_ok=row_weights_ok,
        bad_rows=bad_rows,
        matrix_rank=matrix_rank,
        rank_ok=rank_ok,
        recovery_ok=recovery_ok,
        unrecoverable_edges=unrecoverable,
        secrecy_ok=secrecy_ok,
    )


def _column_components(mu: int, rows: Iterable[tuple[int, ...]]) -> int:
    """Components of the graph on mu columns whose edges are the pair rows:
    a union-find with path halving."""
    root = list(range(mu))
    components = mu
    for i, j in rows:
        a, b = _find(root, i), _find(root, j)
        if a != b:
            root[a] = b
            components -= 1
    return components


def _columns(row, mu: int) -> tuple[int, ...]:
    """The one reader of a scheme row: its int entries in range(mu), in row
    order, repeats kept; any other entry names no column, and a row that is
    not a tuple names none."""
    if not isinstance(row, tuple):
        return ()
    return tuple([j for j in row if isinstance(j, int) and 0 <= j < mu])


def _row_mask(row: tuple[int, ...], mu: int) -> int:
    """The gf2 mask of a row: the XOR of 1 << j over its _columns, so a
    repeated column cancels."""
    mask = 0
    for j in _columns(row, mu):
        mask ^= 1 << j
    return mask


def rates_of(scheme: DiscussionScheme, key_rate: Fraction) -> RateTuple:
    """Discussion rate per vertex: the rows naming it as speaker times the
    key rate.  A speaker the recovery map lacks raises SchemeUnverified."""
    counts: dict[str, int] = {v: 0 for v in scheme.vertices()}
    for speaker in scheme.speakers:
        if speaker not in counts:
            raise SchemeUnverified(
                f"a row is attributed to {speaker!r}, which is not a scheme vertex"
            )
        counts[speaker] += 1
    rate = _key_rate(key_rate)
    # one Fraction per distinct row count; RateTuple keeps Fractions as they are
    scaled = {n: n * rate for n in set(counts.values())}
    return RateTuple(
        key_rate=rate,
        per_user={v: scaled[n] for v, n in counts.items()},
    )


@dataclass(frozen=True)
class CompositeScheme:
    """A time-shared mixture of schemes: run part j for multipliers[j] blocks
    out of every blocklength_unit, so rates combine convexly."""

    parts: tuple[tuple[Fraction, DiscussionScheme], ...]
    blocklength_unit: int
    multipliers: tuple[int, ...]

    def rates(self, key_rate: Fraction) -> RateTuple:
        rate = _key_rate(key_rate)
        combined: dict[str, Fraction] = {}
        for weight, scheme in self.parts:
            part = rates_of(scheme, rate)
            for v, r in part.per_user.items():
                combined[v] = combined.get(v, Fraction(0)) + weight * r
        return RateTuple(key_rate=rate, per_user=combined)


def compose_time_shared(
    h: Hypergraph, plan: Sequence[tuple[Fraction, Optional[Mapping]]]
) -> CompositeScheme:
    """Time share several order choices with positive weights summing to one."""
    if not plan:
        raise WeightsNotConvex("the plan must contain at least one entry")
    try:
        weights = [_as_fraction(w) for w, _ in plan]
        convex = all(w > 0 for w in weights) and sum(weights) == 1
    except NegativeRate:  # a weight that is not a rational at all
        convex = False
    if not convex:
        raise WeightsNotConvex("weights must be positive rationals summing to one")
    parts = []
    for (weight, orders), w in zip(plan, weights):
        scheme, _ = synthesize(h, orders)
        parts.append((w, scheme))
    unit = lcm(*(w.denominator for w in weights))
    multipliers = tuple(int(w * unit) for w in weights)
    return CompositeScheme(
        parts=tuple(parts), blocklength_unit=unit, multipliers=multipliers
    )
