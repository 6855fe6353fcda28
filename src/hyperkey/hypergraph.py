"""Weighted hypergraphs and their structural operations.

Vertex and edge ids are opaque strings; every canonical ordering used in this
package is plain lexicographic ordering of those strings.  Edge weights are
exact rationals (fractions.Fraction) and must be strictly positive.
Hypergraph values are immutable: every operation returns a new value and never
mutates its inputs.

A vertex may belong to no edge (it is then an isolated component).  Member
sets are nonempty subsets of the vertex set; distinct edges may have identical
member sets (parallel edges) and single-vertex edges (loops) are allowed.

Hypergraph.edges, Edge and the Fraction weights are the public view.  The
answer path for an MCH reads one integer index instead (_Index, cached on
the hypergraph): the sorted vertex names and their positions, each edge's
member positions and each vertex's incident edges, both in id order, and
the weights as integers over one common denominator.  The incidence scan,
min_weight, partitions._mch_report, simkit.quantize, the block views and
scheme.synthesize read it.  What the library reads off a fundamental block
of an MCH (the components left by removing part of it, its
representatives and their classes) comes from one view of the edges
meeting it, _BlockView, cached on the hypergraph for a block of two or
more vertices; the representatives come from one rule, _representatives,
and a one-vertex block's view is built afresh when one is asked for.

What is derived from a value is kept on it, in _cache, and stored only
through Hypergraph._memo(key, build).  The keys, by the module that owns
them:

  hypergraph  "by_id", "min_weight", "index", "scan" (the incidence scan),
              ("block", block) (a _BlockView)
  partitions  ("sweep", w), ("connectivity", weighted)
  capacity    "fundamental blocks"
  simkit      ("shape", numerator, denominator) (quantize, per key rate)
  properties  ("properties", "components") (properties._components, the
              bitmask component search with its per-mask memo),
              ("properties", "synthesize") (the default-order scheme, its
              orders and its pairing-tree violations)

Two input rules are checked here for the whole package: a rational
argument is read by _as_rational, each caller naming its error class (an
edge weight by as_weight, a rate by capacity._as_fraction), and a
partition by _partition_blocks (Partition.from_blocks, merge,
partitions.crossing_count and capacity.outer_bound_deficit).

The independent checks stay off the index, so a fault in it shows as a
disagreement instead of being copied into both sides: components,
removal_component_count and _search (a union-find over the Edge objects),
properties._components and the Bell sweep in partitions (their own
bitmasks, _scaled_edge_masks).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Optional, TypeVar, Union

from .errors import (
    DuplicateEdgeId,
    EmptyResult,
    EmptyVertexSet,
    GroundTooLarge,
    HyperkeyError,
    InvalidPartition,
    NonpositiveWeight,
    RankDefect,
    UnknownVertex,
)

__all__ = [
    "Edge",
    "Hypergraph",
    "BergeCycle",
    "block_removal_counts",
]

WeightLike = Union[Fraction, int, str]
T = TypeVar("T")


def _digit_limit() -> int:
    """Python's int-to-str limit in digits, 0 when there is none; the one
    reader of it in the package."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _read_rational(text: str) -> Fraction:
    """text as a signed integer, p/q or decimal, else ValueError or
    ZeroDivisionError.  Exponent notation is refused before Fraction() sees
    it: "1e30000000" would make it build a 30-million-digit integer.  So is
    a value str() cannot print; neither of its parts has more digits than
    text has characters.  A plain ASCII digit string is read by int(), which
    refuses more digits than the same limit just as Fraction() does."""
    if text.isdigit() and text.isascii():
        return Fraction(int(text))
    if "e" in text or "E" in text:
        raise ValueError(f"exponent notation is not a rational form: {text!r}")
    value = Fraction(text)
    limit = _digit_limit()
    parts = (abs(value.numerator), value.denominator)
    if 0 < limit < len(text) and max(parts) >= 10**limit:
        raise ValueError(f"{text!r} has more than {limit} digits")
    return value


def _as_rational(value, error: type[HyperkeyError], message: str) -> Fraction:
    """The one reader of a rational argument: a Fraction as it is, a str by
    _read_rational, anything else by Fraction().  A value none of them reads
    (a malformed string, a zero denominator, None) raises
    error(f"{message}, got {value!r}")."""
    if type(value) is Fraction:
        return value
    try:
        return _read_rational(value) if isinstance(value, str) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise error(f"{message}, got {value!r}") from None


def as_weight(value: WeightLike) -> Fraction:
    """An int / string / Fraction (_as_rational) as a positive exact
    rational, else NonpositiveWeight."""
    w = _as_rational(
        value, NonpositiveWeight, "edge weight must be a positive rational"
    )
    if w <= 0:
        raise NonpositiveWeight(f"edge weight must be positive, got {value!r}")
    return w


def _member_set(eid, members) -> frozenset[str]:
    """members as a frozenset of vertex ids (each item through str); a
    member set that is not iterable raises UnknownVertex."""
    try:
        items = iter(members)
    except TypeError:
        raise UnknownVertex(
            f"edge {str(eid)!r} has a member set that is not iterable: {members!r}"
        ) from None
    return frozenset(str(m) for m in items)


@dataclass(frozen=True)
class Edge:
    """One hyperedge: an id, a nonempty member set, and a positive weight."""

    id: str
    members: frozenset[str]
    weight: Fraction


@dataclass(frozen=True)
class BergeCycle:
    """A cycle witness: vertices v_1..v_l with v_1 = v_l and edges e_1..e_{l-1}.

    Consecutive vertices v_j, v_{j+1} both belong to e_j, the edges are
    pairwise distinct, and the internal vertices v_1..v_{l-1} are pairwise
    distinct, with l >= 3.
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    def is_valid_in(self, h: "Hypergraph") -> bool:
        vs, es = self.vertices, self.edges
        if len(vs) < 3 or len(es) != len(vs) - 1:
            return False
        if vs[0] != vs[-1]:
            return False
        interior = vs[:-1]
        if len(set(interior)) != len(interior) or len(set(es)) != len(es):
            return False
        by_id = h._by_id
        for j, eid in enumerate(es):
            edge = by_id.get(eid)
            if edge is None:
                return False
            if vs[j] not in edge.members or vs[j + 1] not in edge.members:
                return False
        return True


class Hypergraph:
    """Immutable weighted hypergraph over string vertex and edge ids."""

    __slots__ = ("vertices", "edges", "_cache")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[Union[Edge, tuple[str, Iterable[str], WeightLike]]] = (),
    ):
        vset = frozenset(str(v) for v in vertices)
        if not vset:
            raise EmptyVertexSet("a hypergraph needs at least one vertex")
        normalized: list[Edge] = []
        seen_ids: set[str] = set()
        for item in edges:
            if isinstance(item, Edge):
                eid, members, weight = item.id, item.members, item.weight
                # a well-formed Edge is kept as it is, not rebuilt
                whole = (
                    type(item) is Edge
                    and type(eid) is str
                    and type(members) is frozenset
                    and type(weight) is Fraction
                    and weight.numerator > 0
                )
                if type(members) is not frozenset:
                    members = _member_set(eid, members)
            else:
                try:
                    eid, members, weight = item
                except (TypeError, ValueError):
                    raise UnknownVertex(
                        f"edge item {item!r} is no Edge or (id, members, weight)"
                    ) from None
                members = _member_set(eid, members)
                whole = False
            eid = str(eid)
            if eid in seen_ids:
                raise DuplicateEdgeId(f"duplicate edge id {eid!r}")
            seen_ids.add(eid)
            if not members:
                raise EmptyVertexSet(f"edge {eid!r} has an empty member set")
            if not members <= vset:
                foreign = sorted(members - vset, key=str)
                raise UnknownVertex(f"edge {eid!r} uses unknown vertices: {foreign}")
            normalized.append(item if whole else Edge(eid, members, as_weight(weight)))
        normalized.sort(key=lambda e: e.id)
        object.__setattr__(self, "vertices", vset)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Hypergraph values are immutable")

    # -- basic accessors ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph({sorted(self.vertices)}, {len(self.edges)} edges)"

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def edge(self, eid: str) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise UnknownVertex(f"no edge with id {eid!r}") from None

    def _memo(self, key, build: Callable[[], T]) -> T:
        """build(), built on first use and kept in the value's cache under
        key; build must not return None.  The only store into _cache."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    @property
    def _by_id(self) -> dict[str, Edge]:
        return self._memo("by_id", lambda: {e.id: e for e in self.edges})

    def min_weight(self) -> Fraction:
        def build():
            if not self.edges:
                raise EmptyResult("the minimum weight of no edges is undefined")
            index = self._index()
            return Fraction(min(index.weights), index.scale)

        return self._memo("min_weight", build)

    def _index(self) -> "_Index":
        """The integer index of the value (see _Index), built on first use."""
        return self._memo("index", lambda: _Index(self))

    def _check_subset(self, c: Iterable[str]) -> frozenset[str]:
        cset = frozenset(c)
        foreign = cset - self.vertices
        if foreign:
            raise UnknownVertex(f"unknown vertices: {sorted(foreign)}")
        return cset

    # -- counting and restriction -------------------------------------------

    def degree(self, c: Iterable[str]) -> int:
        """Number of edges whose member set meets c (c may be empty)."""
        cset = self._check_subset(c)
        if not cset:
            return 0
        return sum(1 for e in self.edges if not e.members.isdisjoint(cset))

    def removal_component_count(self, c: Iterable[str]) -> int:
        """remove_vertices(c).component_count(), without building the
        remainder: one _search with c removed (c may be empty), so it
        shares nothing with the incidence scan.  Raises what
        remove_vertices raises."""
        cset = self._check_subset(c)
        if len(cset) == len(self.vertices):
            raise EmptyResult("removing every vertex leaves no hypergraph")
        return len(self._search(cset))

    def remove_vertices(self, c: Iterable[str]) -> "Hypergraph":
        """Drop the vertices in c, intersect member sets, drop emptied edges."""
        cset = self._check_subset(c)
        if not cset:
            return self
        remaining = self.vertices - cset
        if not remaining:
            raise EmptyResult("removing every vertex leaves no hypergraph")
        kept = [
            Edge(e.id, e.members - cset, e.weight)
            for e in self.edges
            if e.members - cset
        ]
        return Hypergraph(remaining, kept)

    def induced(self, c: Iterable[str]) -> "Hypergraph":
        """Restrict to the vertices in c (drop everything else); each id in c
        goes through str, as vertex ids do when a Hypergraph is built."""
        cset = frozenset(str(v) for v in c)
        if not cset:
            raise EmptyVertexSet("cannot induce on an empty vertex set")
        self._check_subset(cset)
        return self.remove_vertices(self.vertices - cset)

    def incident_restriction(self, c: Iterable[str]) -> "Hypergraph":
        """Keep only the edges meeting c; vertices = union of their members."""
        cset = self._check_subset(c)
        if not cset:
            raise EmptyVertexSet("incident restriction needs a nonempty set")
        kept = [e for e in self.edges if not e.members.isdisjoint(cset)]
        support: set[str] = set()
        for e in kept:
            support |= e.members
        if not support:
            # c has no incident edges at all; keep c itself as isolated points
            support = set(cset)
        return Hypergraph(support, kept)

    def merge(self, blocks) -> "Hypergraph":
        """Contract each block of a partition of the vertex set to one vertex.

        The new vertex for a block is the comma-join of its sorted members,
        each with backslashes and commas escaped by a backslash, so labels are
        deterministic and distinct even when vertex ids contain commas.  Edge
        ids, weights, and the number of edges are unchanged; member sets
        become sets of block labels.
        """
        block_list = _partition_blocks(blocks, self.vertices)
        label: dict[str, str] = {}
        labels: list[str] = []
        for blk in block_list:
            name = ",".join(
                v.replace("\\", "\\\\").replace(",", "\\,") for v in sorted(blk)
            )
            labels.append(name)
            for v in blk:
                label[v] = name
        merged_edges = [
            Edge(e.id, frozenset(label[v] for v in e.members), e.weight)
            for e in self.edges
        ]
        return Hypergraph(labels, merged_edges)

    # -- connectivity --------------------------------------------------------

    def components(self) -> tuple[frozenset[str], ...]:
        """Connected components, sorted by their smallest member (one
        _search, so it shares nothing with the incidence scan)."""
        return tuple(frozenset(comp) for comp in self._search(frozenset()))

    def _search(self, removed: frozenset[str]) -> list[set[str]]:
        """Components of h minus removed, sorted by smallest member: one
        union-find over the members of the Edge objects outside removed
        (Tarjan 1975), reading no index."""
        root = {v: v for v in self.vertices - removed}
        for e in self.edges:
            head = None
            for v in e.members:
                if v in root:
                    r = _find(root, v)
                    if head is None:
                        head = r
                    elif r != head:
                        root[r] = head
        groups: dict[str, set[str]] = {}
        for v in root:
            groups.setdefault(_find(root, v), set()).add(v)
        return sorted(groups.values(), key=min)

    def component_count(self) -> int:
        """The roots of the incidence scan: each starts one component."""
        return self._incidence_scan().component_count

    def is_connected(self) -> bool:
        return self.component_count() == 1

    def loop_edges(self) -> tuple[str, ...]:
        """Ids of single-vertex edges, in id order."""
        return tuple(e.id for e in self.edges if len(e.members) == 1)

    def find_berge_cycle(self) -> Optional[BergeCycle]:
        """First cycle witness in canonical depth-first order, if any.

        Read off the cached incidence scan (see _incidence_scan): the first
        back edge of its DFS closes a cycle through the nodes on the stack,
        whose vertex and edge nodes spell out the witness.
        """
        walk = self._incidence_scan().walk
        if walk is None:
            return None
        return _walk_to_cycle(walk, self._index().names, self.edges)

    # -- incidence-graph structure ---------------------------------------------

    def _incidence_scan(self) -> "_IncidenceScan":
        """_scan_incidence's result, cached on the value."""
        return self._memo("scan", self._scan_incidence)

    def _scan_incidence(self) -> "_IncidenceScan":
        """One iterative Hopcroft-Tarjan DFS of the vertex-edge incidence graph.

        Node i < n is the i-th vertex in sorted order, node n + j is the j-th
        edge.  The node stack pops one biconnected component each time a child
        u of p finishes with low[u] >= disc[p]; that also makes p an
        articulation point, since an edge node is never a DFS root.  A
        component of two nodes is a bridge; the vertex nodes of every other
        component lie on a common cycle and are united.

        Roots are taken in vertex order and neighbors in id order (a vertex's
        edges by edge id, an edge's members by vertex id), so the walk is the
        canonical one.  The incidence graph is simple, so the first non-tree
        neighbor the walk meets other than the parent is an ancestor still
        on the stack; that back edge and the stack above it are the cycle
        find_berge_cycle reports.  The neighbors are read off the integer
        index.  Every edge has a member, so each root starts one component.
        Cost O(|V| + |E| + sum of |e|); _incidence_scan caches the result on
        the value.
        """
        index = self._index()
        names = index.names
        incident = index.incident
        members = index.members
        n = len(names)
        total = n + len(members)
        disc = [0] * total  # discovery time, 0 while unvisited
        low = [0] * total
        parent = [-1] * total
        cursor = [0] * total
        cut = [False] * total
        core = list(range(n))  # union-find over vertex nodes
        clock = 0
        roots = 0
        walk: Optional[tuple[int, ...]] = None  # stack from the first back edge
        for root in range(n):
            if disc[root]:
                continue
            roots += 1
            clock += 1
            disc[root] = low[root] = clock
            path = [root]
            nodes = [root]
            while path:
                u = path[-1]
                k = cursor[u]
                if u < n:
                    near, offset = incident[u], n
                else:
                    near, offset = members[u - n], 0
                if k < len(near):
                    cursor[u] = k + 1
                    w = near[k] + offset
                    if not disc[w]:
                        clock += 1
                        disc[w] = low[w] = clock
                        parent[w] = u
                        path.append(w)
                        nodes.append(w)
                    elif w != parent[u]:
                        if walk is None:
                            walk = tuple(path[path.index(w):])
                        if disc[w] < low[u]:
                            low[u] = disc[w]
                    continue
                path.pop()
                p = parent[u]
                if p < 0:
                    continue
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    cut[p] = True
                    component = [p]
                    while True:
                        x = nodes.pop()
                        component.append(x)
                        if x == u:
                            break
                    if len(component) > 2:
                        verts = [x for x in component if x < n]
                        head = _find(core, verts[0])
                        for x in verts[1:]:
                            rx = _find(core, x)
                            if rx != head:
                                core[rx] = head
        groups: dict[int, list[str]] = {}
        for i in range(n):
            groups.setdefault(_find(core, i), []).append(names[i])
        return _IncidenceScan(
            component_count=roots,
            every_edge_cuts=all(cut[n:]),
            cores=tuple(frozenset(g) for g in groups.values() if len(g) > 1),
            walk=walk,
        )

    def cyclic_cores(self) -> tuple[frozenset[str], ...]:
        """Vertex sets of the biconnected components of the incidence graph
        that are not bridges, merged where they share a vertex; sorted by
        their smallest member.

        Two vertices share a core exactly when a chain of Berge cycles, each
        meeting the next in a vertex, leads from one to the other, so the
        cores plus singletons form the finest partition whose merge has no
        Berge cycle.
        """
        return self._incidence_scan().cores

    # -- shape predicates -----------------------------------------------------

    def _require_two_vertices(self) -> None:
        if len(self.vertices) < 2:
            raise EmptyVertexSet("shape predicates need at least two vertices")

    def is_connected_and_cycle_free(self) -> bool:
        """Connected with no cycle; loops are permitted."""
        scan = self._incidence_scan()
        return scan.component_count == 1 and scan.walk is None

    def is_hypertree(self) -> bool:
        """Connected, loopless, and cycle-free."""
        self._require_two_vertices()
        scan = self._incidence_scan()
        return scan.component_count == 1 and scan.walk is None and not self.loop_edges()

    def is_mch(self) -> bool:
        """Connected, and removing any single edge (keeping all vertices)
        disconnects the hypergraph.

        Removing edge e keeps the vertices connected exactly when the edge
        node e does not separate the incidence graph, so this is one DFS:
        connected, and every edge node an articulation point.
        """
        self._require_two_vertices()
        scan = self._incidence_scan()
        return scan.component_count == 1 and scan.every_edge_cuts


@dataclass(frozen=True)
class _IncidenceScan:
    component_count: int
    every_edge_cuts: bool
    cores: tuple[frozenset[str], ...]
    walk: Optional[tuple[int, ...]]  # see _walk_to_cycle


class _Index:
    """A hypergraph by integer positions, for the MCH answer path.

    names     -- the vertex names, sorted; a vertex's position is its index
    position  -- name -> position
    members   -- per edge, in id order, its member positions, ascending
    incident  -- per position, the indices of the edges at it, ascending
    scale     -- L, the lcm of the weights' denominators
    weights   -- per edge, in id order, its weight times L, an exact int
    """

    __slots__ = ("names", "position", "members", "incident", "scale", "weights")

    def __init__(self, h: Hypergraph):
        self.names = names = sorted(h.vertices)
        self.position = position = {v: i for i, v in enumerate(names)}
        self.members = members = []
        self.incident = incident = [[] for _ in names]
        scale = 1
        for j, e in enumerate(h.edges):
            spots = tuple(sorted(map(position.__getitem__, e.members)))
            members.append(spots)
            for i in spots:
                incident[i].append(j)
            d = e.weight.denominator
            if scale % d:
                scale = scale // gcd(scale, d) * d
        self.scale = scale
        self.weights = [
            e.weight.numerator * (scale // e.weight.denominator) for e in h.edges
        ]


def _partition_blocks(
    blocks, ground: Optional[frozenset[str]] = None
) -> list[frozenset[str]]:
    """The one check of a partition: blocks (a Partition or any iterable of
    vertex iterables), each vertex through str, as a list of frozensets,
    when they are nonempty, pairwise disjoint and, if ground is given, cover
    exactly ground; else InvalidPartition."""
    raw = getattr(blocks, "blocks", blocks)
    block_list = [frozenset(str(v) for v in b) for b in raw]
    if any(not b for b in block_list):
        raise InvalidPartition("partition blocks must be nonempty")
    union: set[str] = set()
    total = 0
    for b in block_list:
        union |= b
        total += len(b)
    if total != len(union):
        raise InvalidPartition("partition blocks must be disjoint")
    if ground is not None and union != ground:
        raise InvalidPartition(
            f"blocks cover {sorted(union)} but the ground set is {sorted(ground)}"
        )
    return block_list


def _walk_to_cycle(
    walk: tuple[int, ...], names: list[str], edges: tuple[Edge, ...]
) -> BergeCycle:
    """The witness spelled by an incidence-scan walk: walk[0] is the ancestor
    a back edge returned to from walk[-1], node i < n is names[i] and node
    n + j is edges[j].  The closed walk is rotated to start (and therefore
    end) at a vertex node."""
    n = len(names)
    if walk[0] >= n:
        walk = walk[1:] + walk[:1]
    walk += walk[:1]
    return BergeCycle(
        vertices=tuple(names[x] for x in walk if x < n),
        edges=tuple(edges[x - n].id for x in walk if x >= n),
    )


def _find(root, x):
    """The root of x in a union-find forest kept as root[x] = parent (a list
    or a dict), halving the path on the way."""
    while root[x] != x:
        root[x] = root[root[x]]
        x = root[x]
    return x


def block_removal_counts(
    h: Hypergraph, block: frozenset[str]
) -> tuple[tuple[str, ...], list[int]]:
    """(order, counts) with counts[mask] = the block view's count(mask) for
    every mask, so counts[0] is 1; a block of more than 12 vertices raises
    GroundTooLarge.  A one-vertex block {v} needs no view: removing v leaves
    one component per edge at v (see _representatives).  The table of a
    larger block is built once and kept on its cached view, so the list is
    shared by every caller: read it, never change it."""
    if len(block) > 12:
        raise GroundTooLarge(
            f"subset enumeration over {len(block)} vertices exceeds cap 12"
        )
    if len(block) == 1:
        (vertex,) = block
        index = h._index()
        return (vertex,), [1, len(index.incident[index.position[vertex]])]
    view = _block_view(h, block)
    if view.table is None:
        view.table = [view.count(removed) for removed in range(view.full + 1)]
    return view.order, view.table


def _block_view(h: Hypergraph, block: frozenset[str]) -> "_BlockView":
    """The _BlockView of a fundamental block of the MCH h, cached on h when
    the block has two or more vertices.  A one-vertex block's view is built
    afresh: a path has one such block per vertex, and keeping a view for
    each would grow the cache and the collector's walk with the path."""
    if len(block) == 1:
        return _BlockView(h, block)
    return h._memo(("block", block), lambda: _BlockView(h, block))


def _representatives(h: Hypergraph, block) -> list[tuple[int, int]]:
    """(representative position, edge index) of each edge meeting the
    fundamental block (any iterable of its vertices) of the MCH h, sorted.

    Every such edge has outside members of its own (see _BlockView), and
    its representative is the least of them.  A one-vertex block {v} needs
    no view: once v is deleted each representative is a class alone, so
    sorted by representative these are the classes of the block's one step.
    """
    index = h._index()
    members, incident, position = index.members, index.incident, index.position
    if len(block) == 1:  # one position: no set, and no edge met twice
        (vertex,) = block
        spots = (position[vertex],)
        edges = incident[spots[0]]
    else:
        spots = {position[v] for v in block}
        edges = dict.fromkeys(j for p in spots for j in incident[p])
    out: list[tuple[int, int]] = []
    claimed: set[int] = set()
    for j in edges:
        outside = [i for i in members[j] if i not in spots]
        if not outside or not claimed.isdisjoint(outside):  # pragma: no cover
            raise RankDefect(f"edge {h.edges[j].id!r} lacks outside members of its own")
        claimed.update(outside)
        out.append((outside[0], j))
    out.sort()
    return out


class _BlockView:
    """The edges of an MCH that meet one fundamental block, read locally.

    An edge with two or more members in the block lies on a cycle through
    it (a local edge); any other edge at a block vertex is a bridge of the
    incidence graph.  Each of these edges has members outside the block, as
    its node cuts the incidence graph, and they are its own: two edges
    sharing an outside vertex would close a Berge cycle through it, which
    would put that vertex in the block.  So with block vertices removed, the
    side of an edge away from the block stays whole, and the least of its
    outside members (its representative) has degree one in the incident
    restriction of the block.

    Subsets of the block are bitmasks over order, the sorted block; edges
    are read off the hypergraph's integer index, by edge index and member
    position, and reps maps each edge at the block to its representative
    (_representatives).  One search over the local edges (_component)
    serves count and classes, at a cost in the block and its local edges
    whatever the size of h.  table is count of every mask, in mask order,
    once block_removal_counts has built it (None before).
    """

    __slots__ = (
        "order", "bit", "full", "hanging", "local", "adjacent", "reps",
        "table", "_index", "_masks",
    )

    def __init__(self, h: Hypergraph, block: frozenset[str]):
        self.order = order = tuple(sorted(block))
        self.bit = {v: 1 << i for i, v in enumerate(order)}
        self.full = (1 << len(order)) - 1
        self.hanging = hanging = [0] * len(order)  # bridges at each block vertex
        self.local: list[int] = []  # each local edge once, at its lowest member
        self.adjacent = adjacent = [0] * len(order)  # local edges at each, joined
        self._index = index = h._index()
        names = index.names
        self.reps = {j: names[p] for p, j in _representatives(h, block)}
        self.table: Optional[list[int]] = None  # block_removal_counts, once built
        position = index.position
        spot = {position[v]: 1 << i for i, v in enumerate(order)}
        members = index.members
        # edge index -> the bits of its members in the block, for each edge
        # at the block, in order of first meeting
        self._masks = masks = {}
        for i, v in enumerate(order):
            b = 1 << i
            for j in index.incident[position[v]]:
                mask = masks.get(j)
                if mask is None:
                    mask = 0
                    for p in members[j]:
                        mask |= spot.get(p, 0)
                    masks[j] = mask
                if mask == b:
                    hanging[i] += 1
                else:
                    adjacent[i] |= mask
                    if mask & -mask == b:
                        self.local.append(mask)

    def mask(self, members: Iterable[str]) -> int:
        """The bits of the members that lie in the block."""
        bit = self.bit
        m = 0
        for u in members:
            m |= bit.get(u, 0)
        return m

    def _component(self, seed: int, kept: int) -> int:
        """The vertices of kept that local edges join to seed (one component)."""
        adjacent = self.adjacent
        left = kept ^ seed
        frontier = seed
        while frontier:
            low = frontier & -frontier
            grown = adjacent[low.bit_length() - 1] & left
            left ^= grown
            frontier ^= low | grown
        return kept ^ left

    def count(self, removed: int) -> int:
        """Hypergraph.removal_component_count of the block vertices removed
        selects: one per bridge at a removed vertex, one per local edge whose
        block members all went, plus the local edges' components on the rest."""
        total = 0
        rest = removed
        while rest:
            low = rest & -rest
            total += self.hanging[low.bit_length() - 1]
            rest ^= low
        kept = self.full ^ removed
        for m in self.local:
            if not m & kept:
                total += 1
        while kept:
            kept ^= self._component(kept & -kept, kept)
            total += 1
        return total

    def classes(self, vertex: str, prefix: int) -> tuple[frozenset[str], ...]:
        """Classes of the representatives on the edges at vertex once the
        block vertices in prefix (vertex among them) are deleted, sorted by
        their least member.  A representative reaches only its own edge, so
        two share a class exactly when their edges keep block vertices that
        the local edges still join; an edge that keeps none is a class alone.
        """
        reps = self.reps
        masks = self._masks
        kept = self.full ^ prefix
        near = self.adjacent[self.bit[vertex].bit_length() - 1] & kept
        label: dict[int, int] = {}  # kept bit on an edge at vertex -> its component
        groups: dict[Union[int, str], set[str]] = {}
        for j in self._index.incident[self._index.position[vertex]]:
            rep = key = reps[j]
            mask = masks[j] & kept
            if mask:
                key = label.get(mask & -mask)
                if key is None:
                    key = self._component(mask, kept)
                    rest = key & near
                    while rest:
                        low = rest & -rest
                        label[low] = key
                        rest ^= low
            groups.setdefault(key, set()).add(rep)
        return tuple(sorted((frozenset(g) for g in groups.values()), key=min))
