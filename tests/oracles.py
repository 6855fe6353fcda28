"""Earlier, independent implementations kept as test oracles.

The library answers these questions from one incidence-graph scan, one GF(2)
reduction or a union-find over weight-two rows, parses .hg text with one
count of the declared names, rejection-samples MCHs on vertex bitmasks,
sweeps partitions with an incremental per-edge count, splits a block's rate
vector into greedy vertices along chains of tight sets, reads region
constraints and scheme classes off the edges meeting each block, renders
JSON in one pass, tests set-function laws by big-int gates on a packed table
and sums outer-bound slacks on the integer index; the functions here answer
them the long way (a separate depth-first search, one elimination per
question, column-order elimination, a rescan of the vertex list per name, a
Hypergraph and an is_mch scan per proposal, a recount of every edge against
every block per partition, all |B|! extreme points and an exact phase-1
simplex, one component search of the whole hypergraph per removed subset, an
incident-restriction Hypergraph per block, json.dumps, one comparison per
set-function inequality, Fraction coverage sums) and never call the code
they check.
"""

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from itertools import combinations
from string import ascii_lowercase
from typing import Mapping, Optional

from hyperkey import (
    BergeCycle,
    ConnectivityReport,
    DecompositionResult,
    DuplicateEdgeId,
    Edge,
    ExtremePoint,
    GenerationBudgetExhausted,
    GroundTooLarge,
    Hypergraph,
    NegativeRate,
    NonpositiveWeight,
    ParseError,
    Partition,
    RankDefect,
    RankFunction,
    SemiLatticeViolation,
    SubsetOutsideBlock,
    extreme_points,
)
from hyperkey.capacity import RegionSpec, require_mch
from hyperkey.gf2 import eliminate
from hyperkey.partitions import partition_connectivity
from hyperkey.scheme import (
    DiscussionScheme,
    VerificationReport,
)


# -- GF(2) -----------------------------------------------------------------------


def rank(rows) -> int:
    """Rank of the span of the given bitmask rows."""
    pivots: list[int] = []
    for row in rows:
        cur = row
        for p in pivots:
            if cur & (p & -p):
                cur ^= p
        if cur:
            pivots.append(cur)
    return len(pivots)


def rank_with(rows, extra: int) -> int:
    """Rank of rows plus one extra row."""
    return rank(list(rows) + [extra])


def solve_with_payload(rows, ncols: int) -> tuple[list[int], bool]:
    """Column-order elimination of (mask, payload) rows over ncols columns.

    Returns (values, unique): values[j] is the payload assigned to column j,
    with free columns forced to zero, and unique is True exactly when there
    were no free columns.  Raises RankDefect on an inconsistent system.
    """
    work = [list(r) for r in rows]
    used = [False] * len(work)
    pivot_of: dict[int, int] = {}
    for col in range(ncols):
        pivot = None
        for i, (mask, _) in enumerate(work):
            if not used[i] and mask >> col & 1:
                pivot = i
                break
        if pivot is None:
            continue
        used[pivot] = True
        pivot_of[col] = pivot
        pmask, ppay = work[pivot]
        for i, (mask, pay) in enumerate(work):
            if i != pivot and mask >> col & 1:
                work[i][0] = mask ^ pmask
                work[i][1] = pay ^ ppay
    for mask, pay in work:
        if mask == 0 and pay != 0:
            raise RankDefect("inconsistent linear system")
    values = [0] * ncols
    for col, i in pivot_of.items():
        values[col] = work[i][1]
    return values, len(pivot_of) == ncols


def row_masks(rows, mu: int) -> list[int]:
    """Each scheme row (a tuple of column indices) as a bitmask over mu
    columns: bit i is set iff i occurs in the row an odd number of times, so
    an index outside range(mu) sets no bit."""
    return [sum(1 << i for i in range(mu) if row.count(i) % 2) for row in rows]


def rank_verdicts(rows, edge_order, key_edge):
    """(matrix_rank, unrecoverable_edges, secrecy_ok) of a scheme, with one
    rank per column: edge i is recoverable iff appending its unit vector
    reaches rank mu, and the key is secret iff its unit vector adds rank."""
    mu = len(edge_order)
    rows = row_masks(rows, mu)
    matrix_rank = rank(rows)
    unrecoverable = tuple(
        edge_order[i] for i in range(mu) if rank_with(rows, 1 << i) != mu
    )
    secrecy_ok = key_edge in edge_order and (
        rank_with(rows, 1 << edge_order.index(key_edge)) == matrix_rank + 1
    )
    return matrix_rank, unrecoverable, secrecy_ok


# -- Berge cycles ---------------------------------------------------------------


def dfs_berge_cycle(h) -> Optional[BergeCycle]:
    """First cycle witness of a depth-first search of the incidence graph.

    Starts from vertices in id order and expands a vertex's edges by edge id
    and an edge's members by vertex id, never going straight back to the
    parent node; the first back edge to a node on the stack closes the cycle.
    """
    incident: dict[str, list[str]] = {v: [] for v in h.vertices}
    members: dict[str, list[str]] = {}
    for e in sorted(h.edges, key=lambda e: e.id):
        members[e.id] = sorted(e.members)
        for v in e.members:
            incident[v].append(e.id)

    def neighbors(node):
        kind, name = node
        if kind == "v":
            return [("e", eid) for eid in incident[name]]
        return [("v", v) for v in members[name]]

    visited: set[tuple[str, str]] = set()
    for start in sorted(h.vertices):
        node = ("v", start)
        if node in visited:
            continue
        path = [node]
        path_pos = {node: 0}
        iters = [iter(neighbors(node))]
        parents: list[Optional[tuple[str, str]]] = [None]
        visited.add(node)
        while path:
            try:
                nxt = next(iters[-1])
            except StopIteration:
                del path_pos[path.pop()]
                iters.pop()
                parents.pop()
                continue
            if nxt == parents[-1]:
                continue
            if nxt in path_pos:
                return _closed_walk_to_cycle(path[path_pos[nxt]:] + [nxt])
            if nxt in visited:
                continue
            visited.add(nxt)
            parents.append(path[-1])
            path.append(nxt)
            path_pos[nxt] = len(path) - 1
            iters.append(iter(neighbors(nxt)))
    return None


def _closed_walk_to_cycle(nodes) -> BergeCycle:
    # rotate a walk that closes at an edge node to start at the vertex after it
    if nodes[0][0] == "e":
        nodes = nodes[1:] + [nodes[1]]
    return BergeCycle(
        vertices=tuple(name for kind, name in nodes if kind == "v"),
        edges=tuple(name for kind, name in nodes if kind == "e"),
    )


# -- .hg parsing ------------------------------------------------------------------


def _tokens(line: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for piece in line.split():
        col = line.index(piece, col)
        out.append((piece, col + 1))
        col += len(piece)
    return out


def _weight_token(token: str, lineno: int, column: int) -> Fraction:
    try:
        if set(token) & set("eE"):  # the format has no exponent notation
            raise ValueError(token)
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"invalid weight {token!r}", line=lineno, column=column
        ) from None
    if value <= 0:
        raise NonpositiveWeight(
            f"edge weight must be positive, got {token!r} (line {lineno})"
        )
    return value


def parse_hg(text: str) -> Hypergraph:
    """.hg text to a Hypergraph, quadratic in the vertex count: each declared
    name is counted over the whole vertex list, and each edge line rebuilds
    the set of known names."""
    vertices: Optional[list[str]] = None
    edges: list[Edge] = []
    seen_ids: set[str] = set()
    saw_statement = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = _tokens(raw)
        head, head_col = toks[0]

        if head == "format:":
            if saw_statement:
                raise ParseError(
                    "format line must come first", line=lineno, column=head_col
                )
            if len(toks) != 2 or toks[1][0] != "1":
                raise ParseError(
                    "unsupported format version", line=lineno, column=head_col
                )
            saw_statement = True
            continue
        saw_statement = True

        if head == "vertices:":
            if vertices is not None:
                raise ParseError(
                    "duplicate vertices line", line=lineno, column=head_col
                )
            if len(toks) == 1:
                raise ParseError(
                    "vertices line declares no vertices",
                    line=lineno,
                    column=head_col,
                )
            names = [t for t, _ in toks[1:]]
            for (name, col) in toks[1:]:
                if names.count(name) > 1:
                    raise ParseError(
                        f"duplicate vertex {name!r}", line=lineno, column=col
                    )
            vertices = names
            continue

        if head == "edge":
            if vertices is None:
                raise ParseError(
                    "edge line before vertices line", line=lineno, column=head_col
                )
            if len(toks) < 2 or not toks[1][0].endswith(":"):
                raise ParseError(
                    "edge line needs an id followed by ':'",
                    line=lineno,
                    column=head_col,
                )
            eid, eid_col = toks[1][0][:-1], toks[1][1]
            if not eid:
                raise ParseError("empty edge id", line=lineno, column=eid_col)
            if eid in seen_ids:
                raise DuplicateEdgeId(
                    f"duplicate edge id {eid!r}", line=lineno, column=eid_col
                )
            body = toks[2:]
            if len(body) < 2 or body[-2][0] != "weight":
                raise ParseError(
                    "edge line must end with 'weight <value>'",
                    line=lineno,
                    column=head_col,
                )
            weight = _weight_token(body[-1][0], lineno, body[-1][1])
            members = body[:-2]
            if not members:
                raise ParseError(
                    f"edge {eid!r} has no members", line=lineno, column=eid_col
                )
            known = set(vertices)
            for name, col in members:
                if name not in known:
                    raise ParseError(
                        f"unknown member {name!r}", line=lineno, column=col
                    )
            seen_ids.add(eid)
            edges.append(
                Edge(
                    id=eid,
                    members=frozenset(name for name, _ in members),
                    weight=weight,
                )
            )
            continue

        raise ParseError(
            f"unknown statement {head!r}", line=lineno, column=head_col
        )

    if vertices is None:
        raise ParseError("missing vertices line", line=1, column=1)
    return Hypergraph(vertices, edges)


# -- random MCH sampling -----------------------------------------------------------


def random_mch_with_stats(
    vertex_count: int,
    edge_count: int,
    max_weight: int = 1,
    seed: int = 0,
    *,
    max_attempts: int = 200000,
    proposer=None,
) -> tuple[Hypergraph, int]:
    """(first proposal that is an MCH, attempts taken): a Hypergraph built
    and scanned by is_mch for every proposal of proposer (by default
    propose_assignment_first, simkit's draw order; propose draws the
    shuffle first).  Shape bounds are not checked."""
    proposer = proposer or propose_assignment_first
    rng = random.Random(seed)
    names = [str(i + 1) for i in range(vertex_count)]
    for attempt in range(1, max_attempts + 1):
        proposal = proposer(rng, names, edge_count, max_weight)
        if proposal is not None and proposal.is_mch():
            return proposal, attempt
    raise GenerationBudgetExhausted(
        f"no MCH with {vertex_count} vertices and {edge_count} edges found "
        f"in {max_attempts} attempts"
    )


def propose_assignment_first(
    rng: random.Random, names: list[str], edge_count: int, max_weight: int
) -> Optional[Hypergraph]:
    """A connected random hypergraph over names in which every edge
    introduces a vertex, or None when the assignment leaves an edge with
    none (such a proposal is never an MCH).

    The public-API reference for simkit._proposals: it makes the
    randrange, shuffle, randint, random and sample calls whose draws
    simkit takes straight from getrandbits, so equal instances and
    attempt counts pin that reduction to the running Python's random.py.
    It draws what propose draws, the assignment first: the two have one
    law, as a proposal's assignment and its shuffle are independent."""
    owners = [rng.randrange(edge_count) for _ in names[1:]]
    if set(owners) != set(range(edge_count)):
        return None
    pool = list(names)
    rng.shuffle(pool)
    intro: list[list[str]] = [[] for _ in range(edge_count)]
    intro[0].append(pool[0])
    for v, owner in zip(pool[1:], owners):
        intro[owner].append(v)
    existing: list[str] = []
    edges = []
    for j in range(edge_count):
        members = set(intro[j])
        if existing:
            span = len(existing)
            if rng.random() < 0.15:
                take = rng.randint(1, span)
            else:
                take = min(rng.randint(1, 3), span)
            members.update(rng.sample(existing, take))
        weight = rng.randint(1, max_weight)
        edges.append((ascii_lowercase[j], sorted(members), weight))
        existing.extend(intro[j])
    return Hypergraph(names, edges)


def propose(
    rng: random.Random, names: list[str], edge_count: int, max_weight: int
) -> Optional[Hypergraph]:
    """A connected random hypergraph over names, or None when an edge would
    get fewer than two members.

    The law reference for propose_assignment_first: it draws the shuffle
    before the assignment and builds every proposal, the doomed ones (an
    edge after the first that introduces no vertex) included."""
    pool = list(names)
    rng.shuffle(pool)
    # distribute every vertex to the edge that introduces it
    intro: list[list[str]] = [[] for _ in range(edge_count)]
    intro[0].append(pool[0])
    for v in pool[1:]:
        intro[rng.randrange(edge_count)].append(v)
    existing: list[str] = []
    edges = []
    for j in range(edge_count):
        members = set(intro[j])
        if existing:
            span = len(existing)
            if rng.random() < 0.15:
                take = rng.randint(1, span)
            else:
                take = min(rng.randint(1, 3), span)
            if not members and take == 1 and span >= 2:
                take = 2  # avoid proposing loops, which are never minimal
            members.update(rng.sample(existing, take))
        if len(members) < 2:
            return None  # loops and empty edges never occur in an MCH
        weight = rng.randint(1, max_weight)
        edges.append((ascii_lowercase[j], sorted(members), weight))
        for v in intro[j]:
            existing.append(v)
    return Hypergraph(names, edges)


# -- partition sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class MinimizerSweep(ConnectivityReport):
    """minimizer_sweep's report: also every minimizer.

    minimizers -- every proper partition attaining value, in enumeration
                  order; fundamental is their meet
    """

    minimizers: tuple[Partition, ...]


def common_refinement(p: Partition, q: Partition) -> Partition:
    """The meet of p and q: every nonempty intersection of their blocks."""
    return Partition.from_blocks([b & c for b in p.blocks for c in q.blocks if b & c])


def minimizer_sweep(h: Hypergraph, edge_weights) -> MinimizerSweep:
    """Every proper partition in restricted-growth order, each one rebuilt
    as block bitmasks and every edge counted against every block; the
    minimizers in that order, and their meet as the fundamental partition
    (SemiLatticeViolation when a partial meet is not a minimizer)."""
    elems = sorted(h.vertices)
    n = len(elems)
    scale = 1
    for w in edge_weights:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    weighted_masks = [
        (sum(1 << elems.index(v) for v in e.members), int(w * scale))
        for e, w in zip(h.edges, edge_weights)
    ]
    best_num: Optional[int] = None
    best_den = 1
    opt_codes: list[tuple[int, ...]] = []
    code = [0] * n
    while True:
        nblocks = max(code) + 1
        if nblocks > 1:
            masks = [0] * nblocks
            for i in range(n):
                masks[code[i]] |= 1 << i
            num = 0
            for em, w in weighted_masks:
                crossed = -1
                for k in range(nblocks):
                    if masks[k] & em:
                        crossed += 1
                num += w * crossed
            den = (nblocks - 1) * scale
            if best_num is None or num * best_den < best_num * den:
                best_num, best_den = num, den
                opt_codes = [tuple(code)]
            elif num * best_den == best_num * den:
                opt_codes.append(tuple(code))
        # advance to the next restricted growth string
        i = n - 1
        while i > 0 and code[i] > max(code[:i]):
            i -= 1
        if i == 0:
            break
        code[i] += 1
        for j in range(i + 1, n):
            code[j] = 0

    opts = []
    for c in opt_codes:
        blocks: list[set[str]] = [set() for _ in range(max(c) + 1)]
        for i, b in enumerate(c):
            blocks[b].add(elems[i])
        opts.append(Partition.from_blocks(blocks))
    opt_set = set(opts)
    meet = opts[0]
    for p in opts[1:]:
        meet = common_refinement(meet, p)
        if meet not in opt_set:
            raise SemiLatticeViolation(
                "minimizer set is not closed under common refinement"
            )
    return MinimizerSweep(
        value=Fraction(best_num, best_den), fundamental=meet, minimizers=tuple(opts)
    )


def prop2_violations(
    h: Hypergraph, value: Fraction, fundamental: Partition
) -> list[str]:
    """The non-singleton fundamental blocks are exactly the maximal vertex
    sets, of two or more, whose induced connectivity exceeds value; checked
    by brute force over every subset of at most 9 vertices."""
    names = sorted(h.vertices)
    if len(names) > 9:
        return ["prop2 brute force skipped: ground too large"]
    family: list[frozenset[str]] = []
    for size in range(2, len(names) + 1):
        for combo in combinations(names, size):
            sub = frozenset(combo)
            if partition_connectivity(h.induced(sub)).value > value:
                family.append(sub)
    maximal = {
        c for c in family if not any(c < other for other in family)
    }
    expected = {block for block in fundamental.blocks if len(block) > 1}
    if maximal != expected:
        return [
            "maximal subsets with larger connectivity "
            f"{sorted(sorted(c) for c in maximal)} != non-singleton blocks "
            f"{sorted(sorted(c) for c in expected)}"
        ]
    return []


# -- block decomposition -------------------------------------------------------------


def decompose(fn: RankFunction, target: Mapping[str, Fraction]) -> DecompositionResult:
    """Certify membership of a rate vector in the per-block region.

    If some subset violates r(B) >= f(B), that inequality is returned (subsets
    scanned by size then lexicographically).  Otherwise a convex combination
    of extreme points with combination <= target coordinatewise is found: a
    single canonical point if one is already dominated, else an exact
    phase-1 simplex certificate.  The rank table is the per-subset search
    (removal_component_counts).
    """
    goal = {str(v): Fraction(r) for v, r in dict(target).items()}
    if frozenset(goal) != fn.block:
        raise SubsetOutsideBlock("target must assign a rate to each block vertex")
    if any(r < 0 for r in goal.values()):
        raise NegativeRate("target rates must be nonnegative")

    order, counts = removal_component_counts(fn.hypergraph, fn.block)
    values = [(c - 1) * fn.key_rate for c in counts]
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

    points = extreme_points(fn)
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


# -- inputs ------------------------------------------------------------------------


def random_mchs(count: int, seed: int, max_vertices: int = 10) -> list:
    """MCHs of 2 to max_vertices vertices with weights 1-3, grown from one
    vertex by hanging either a tree edge (1-3 new members) or a cyclic core
    (a cycle of 2-5 three-member edges, each with its own new pendant) at a
    random vertex, so cores of up to 5 vertices merge where they share
    one.  Vertex and edge ids are shuffled labels, so their sorted order is
    unrelated to the construction: a pool of 24, extended by "v0", "v1", ...
    only when max_vertices is larger, so every smaller call draws as it
    always did."""
    rng = random.Random(seed)
    labels = [*ascii_lowercase[:12], *(str(i) for i in range(4, 14)), "x1", "Z"]
    labels += [f"v{i}" for i in range(max_vertices - len(labels))]
    out = []
    while len(out) < count:
        target = rng.randint(2, max_vertices)
        size = 1
        members = []

        def fresh(k):
            nonlocal size
            size += k
            return list(range(size - k, size))

        while size < target:
            room = target - size
            at = rng.randrange(size)
            if room >= 3 and rng.random() < 0.5:
                k = rng.randint(2, min(5, (room + 1) // 2))
                cycle = [at, *fresh(k - 1)]
                for i in range(k):
                    members.append([cycle[i], cycle[(i + 1) % k], *fresh(1)])
            else:
                members.append([at, *fresh(rng.randint(1, min(room, 3)))])
        names = rng.sample(labels, size)
        ids = rng.sample(labels, len(members))
        h = Hypergraph(
            names,
            [
                (eid, [names[v] for v in m], rng.randint(1, 3))
                for eid, m in zip(ids, members)
            ],
        )
        if not h.is_mch():  # pragma: no cover - the construction guarantees it
            raise AssertionError(f"random_mchs built a non-MCH: {h}")
        out.append(h)
    return out


# -- census ------------------------------------------------------------------------


def census_mchs():
    """The 521 MCHs of the criterion-9 census (|V| <= 5, |E| <= 4, unit
    weights); loops and repeated edges are skipped, as no MCH has them.
    Each call builds new Hypergraphs, so no per-instance cache is shared
    between callers; only the search for them (_census_specs) runs once."""
    for names, edges in _census_specs():
        yield Hypergraph(names, edges)


@functools.cache
def _census_specs() -> tuple:
    """(vertex names, edge triples) of each census MCH, in census order."""
    found = []
    for n in (2, 3, 4, 5):
        names = tuple(str(i + 1) for i in range(n))
        member_sets = [
            tuple(names[v] for v in range(n) if mask >> v & 1)
            for mask in range(1 << n)
        ]
        wide = [mask for mask in range(1 << n) if bin(mask).count("1") >= 2]
        for m in range(1, 5):
            for combo in combinations(wide, m):
                edges = tuple(
                    (f"e{j}", member_sets[mask], 1) for j, mask in enumerate(combo)
                )
                if Hypergraph(names, edges).is_mch():
                    found.append((names, edges))
    return tuple(found)


# -- set-function tables -----------------------------------------------------------


def first_decrease(values, n: int):
    """The first (mask, i), masks ascending, then elements, with i outside
    mask and values[mask | 1 << i] < values[mask] in a 2^n table; or None.
    One comparison per mask and element, in that order."""
    for mask in range(1 << n):
        vm = values[mask]
        for i in range(n):
            if not mask >> i & 1 and values[mask | 1 << i] < vm:
                return mask, i
    return None


def first_submodular_violation(values, n: int):
    """The first pair of masks s <= t (s ascending, then t) with
    f(s) + f(t) < f(s | t) + f(s & t) in a 2^n table of f; or None.  The
    local inequalities f(S+i) + f(S+j) >= f(S+i+j) + f(S), one comparison
    each, decide whether the 4^n / 2 pair scan runs (Schrijver,
    Combinatorial Optimization, Thm 44.1)."""
    full = 1 << n
    for s in range(full):
        vs = values[s]
        grown = [s | 1 << i for i in range(n) if not s >> i & 1]
        for a, si in enumerate(grown):
            gain = values[si] - vs
            for sj in grown[a + 1 :]:
                if gain + values[sj] < values[si | sj]:
                    return next(
                        (u, t) for u in range(full) for t in range(u, full)
                        if values[u] + values[t] < values[u | t] + values[u & t]
                    )
    return None


def outer_bound_deficit(h: Hypergraph, rt, b, p: Partition) -> Fraction:
    """r(B) - (|P| - 1)(r_K - I_P) in Fractions: I_P is the coverage
    entropy of each block of p, summed, less the weight of the edges not
    inside B, over |P| - 1.  No argument checks."""
    bset = frozenset(b)
    block_sum = sum(
        (e.weight for c in p.blocks for e in h.edges if e.members & c), Fraction(0)
    )
    rest = sum((e.weight for e in h.edges if not e.members <= bset), Fraction(0))
    i_p = (block_sum - rest) / (len(p) - 1)
    return rt.over(bset) - (len(p) - 1) * (rt.key_rate - i_p)


# -- region ------------------------------------------------------------------------


def removal_component_counts(h: Hypergraph, base) -> tuple[tuple[str, ...], list[int]]:
    """(order, counts): order is the sorted tuple of base vertices and
    counts[mask] the component count of h with the subset that mask selects
    over order removed, one Hypergraph.removal_component_count search of all
    of h per subset.  Like the library's table, it refuses more than 12."""
    order = tuple(sorted(base))
    if len(order) > 12:
        raise GroundTooLarge(
            f"subset enumeration over {len(order)} vertices exceeds cap 12"
        )
    counts = []
    for mask in range(1 << len(order)):
        drop = frozenset(v for i, v in enumerate(order) if mask >> i & 1)
        counts.append(h.removal_component_count(drop))
    return order, counts


def region_spec(h: Hypergraph) -> RegionSpec:
    """The region, with one component search of all of h per subset of every
    fundamental block (removal_component_counts)."""
    require_mch(h)
    fundamental = partition_connectivity(h).fundamental
    constraints = []
    for block in fundamental.blocks:
        order, counts = removal_component_counts(h, block)
        index = {v: i for i, v in enumerate(order)}
        members = sorted(block)
        for size in range(1, len(members) + 1):
            for combo in combinations(members, size):
                kappa = counts[sum(1 << index[v] for v in combo)]
                if kappa > 1:
                    constraints.append((frozenset(combo), kappa - 1))
    return RegionSpec(
        key_cap=h.min_weight(),
        constraints=tuple(constraints),
        generator_blocks=fundamental.blocks,
    )


# -- scheme ------------------------------------------------------------------------


def representatives_of_restriction(restriction: Hypergraph, block) -> frozenset:
    outside = restriction._search(block & restriction.vertices)
    reps = frozenset(min(comp) for comp in outside)
    for v in reps:
        if restriction.degree({v}) != 1:
            raise RankDefect(f"representative {v!r} is not degree one")
    return reps


def classes(restriction: Hypergraph, reps, vertex, prefix) -> tuple:
    shared = frozenset(
        v
        for v in reps
        if any(vertex in e.members and v in e.members for e in restriction.edges)
    )
    if not shared:
        return ()
    found = [
        hits
        for comp in restriction._search(prefix & restriction.vertices)
        if (hits := shared & comp)
    ]
    found.sort(key=min)
    return tuple(found)


def synthesize(h: Hypergraph, orders: Optional[Mapping] = None):
    """The scheme and the per-block order table it used, from an
    incident-restriction Hypergraph per block, one scan of its edges per
    class pick and of all edges per recovery entry, checked by the
    elimination-only `verify` below; and per row, the (vertex, block,
    1-based step) that spoke it, counted here rather than read off the
    table."""
    require_mch(h)
    fundamental = partition_connectivity(h).fundamental
    given = {
        frozenset(str(v) for v in key): tuple(str(v) for v in seq)
        for key, seq in (orders or {}).items()
    }
    table = {b: given.get(b, tuple(sorted(b))) for b in fundamental.blocks}
    edge_order = tuple(sorted(e.id for e in h.edges))
    column = {eid: k for k, eid in enumerate(edge_order)}
    rows, said = [], []
    for block in fundamental.blocks:
        restriction = h.incident_restriction(block)
        reps = representatives_of_restriction(restriction, block)
        order = table[block]
        prefix = set()
        for step, vertex in enumerate(order, start=1):
            prefix.add(vertex)
            found = classes(restriction, reps, vertex, frozenset(prefix))
            picked = [
                min(
                    e.id
                    for e in restriction.edges
                    if vertex in e.members and min(cls) in e.members
                )
                for cls in found
            ]
            for a, b in zip(picked, picked[1:]):
                i, j = column[a], column[b]
                rows.append((min(i, j), max(i, j)))
                said.append((vertex, block, step))
    recovery = tuple(
        (v, min(e.id for e in h.edges if v in e.members)) for v in sorted(h.vertices)
    )
    scheme = DiscussionScheme(
        edge_order=edge_order,
        rows=tuple(rows),
        speakers=tuple(vertex for vertex, _, _ in said),
        key_edge=edge_order[0],
        recovery=recovery,
    )
    if len(rows) != len(edge_order) - 1 or not verify(scheme).ok:
        raise RankDefect("synthesized scheme failed verification")
    return scheme, table, tuple(said)


def spoken(scheme: DiscussionScheme, order) -> list:
    """Each vertex of a block's order with the edge pairs of the rows it
    spoke, in row order."""
    said = list(zip(scheme.row_pairs(), scheme.speakers))
    return [(v, tuple(p for p, s in said if s == v)) for v in order]


def verify(scheme: DiscussionScheme) -> VerificationReport:
    """Every verdict read off one GF(2) elimination of all the rows,
    whatever they are; a good row is one of the pairs combinations(range(mu),
    2) lists."""
    mu = scheme.mu
    row_count_ok = len(scheme.rows) == mu - 1 and len(scheme.speakers) == len(
        scheme.rows
    )
    pairs = set(combinations(range(mu), 2))
    bad_rows = tuple(
        idx for idx, row in enumerate(scheme.rows) if tuple(row) not in pairs
    )
    basis = eliminate(row_masks(scheme.rows, mu))
    matrix_rank = len(basis)

    def outside_span(i: int) -> bool:
        return basis.get(i, 0) != 1 << i

    unrecoverable = tuple(
        scheme.edge_order[i] for i in range(mu) if matrix_rank + outside_span(i) != mu
    )
    secrecy_ok = scheme.key_edge in scheme.edge_order and outside_span(
        scheme.edge_order.index(scheme.key_edge)
    )
    rank_ok = matrix_rank == mu - 1
    return VerificationReport(
        ok=row_count_ok and not bad_rows and rank_ok and not unrecoverable and secrecy_ok,
        row_count_ok=row_count_ok,
        row_weights_ok=not bad_rows,
        bad_rows=bad_rows,
        matrix_rank=matrix_rank,
        rank_ok=rank_ok,
        recovery_ok=not unrecoverable,
        unrecoverable_edges=unrecoverable,
        secrecy_ok=secrecy_ok,
    )


def row_pairs(scheme: DiscussionScheme) -> tuple:
    """Each row's column ids in row order, testing every column against
    every index of every row."""
    return tuple(
        tuple(scheme.edge_order[i] for j in row for i in range(scheme.mu) if i == j)
        for row in scheme.rows
    )


# -- rendering ---------------------------------------------------------------------


def flatten(value, prefix: str, out: list) -> None:
    """The text renderer's `key = value` pairs, deciding whether a list fits
    one line by testing every character of every item."""
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            flatten(value[key], sub, out)
    elif isinstance(value, (list, tuple)):
        plain = all(
            not isinstance(x, (dict, list, tuple))
            and not (isinstance(x, str) and any(c.isspace() for c in x))
            for x in value
        )
        if plain:
            out.append((prefix, " ".join(_scalar(x) for x in value)))
        else:
            for i, x in enumerate(value):
                flatten(x, f"{prefix}[{i}]", out)
    else:
        out.append((prefix, _scalar(value)))


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_text(document: dict) -> str:
    pairs: list = []
    flatten(document, "", pairs)
    return "\n".join(f"{key} = {val}" for key, val in pairs) + "\n"


def jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(x) for x in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(x) for x in sorted(value)]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    return str(value)


def render_json(document: dict) -> str:
    return json.dumps(jsonable(document), sort_keys=True, indent=2) + "\n"
