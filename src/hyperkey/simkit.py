"""Concrete bit-level realization of schemes plus randomized test inputs.

Quantization picks the least blocklength scale m that turns the key rate and
every edge weight into whole bit counts; an edge of weight w then carries
m * w uniform bits.  The edge blocks sit end to end in one source word, in
edge order; truncation keeps the leading m * key_rate bits of each block
(_layout), the key is the key edge's truncation, and a row's message is the
XOR of its columns' truncations, so each message is exactly the key length.
The shape is cached on the hypergraph per key rate and verify's report on
the scheme (both are immutable), so one simulation, which quantizes in the
CLI, in run and in brute_force_secrecy and verifies in synthesize and in
run, computes each once.

Exhaustive checks cover all 2^total realizations without a loop over them.
The zero-error sweep is bit-sliced: bit plane b is a 2^total-bit int whose
bit w is source bit b of realization w, so for each key bit one broadcast
and one walk of the row tree (see `run`), with planes as messages, decide
every word at once.  The secrecy table is a per-bit convolution: the
(message pattern, key) observation is XOR-linear in the realization, so the
table (_cell_counts) follows from the observations of the single-bit words.

Two secrecy oracles are kept deliberately separate: the rank oracle,
`verify(scheme).secrecy_ok` (the key indicator stays outside the row space
over GF(2): a union-find over the edge columns for weight-two rows, one
reduced basis otherwise; the CLI prints it as secrecy_rank_ok), and the
exhaustive oracle, `brute_force_secrecy` (cell counts of the joint
message/key table are flat).  The convolution counts cells and never takes
a rank.  Tests compare them; nothing in this module derives one from the
other.

The random MCH sampler (random_mch_with_stats) gives up after MAX_ATTEMPTS
proposals.  It takes every integer draw straight from getrandbits, as the
random.Random methods it stands for would take it (_proposals lists them),
so a seed gives the instance those methods would; tests/oracles.propose
makes the public calls and the TestRandomMCH oracle tests in
tests/test_simkit.py compare the two.  Most proposals of the larger
shapes are doomed from their first draws: every edge after the first must
introduce a vertex.  An edge that introduces none joins vertices the
earlier edges already connect, and each later edge meets a vertex that
was there before it, so removing that edge leaves the proposal
connected.  Such a proposal makes the rest of its draws by counts alone
and is never built (see _proposals).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from string import ascii_lowercase
from typing import Iterator, Optional

from .errors import (
    GenerationBudgetExhausted,
    GroundTooLarge,
    KeyRateExceedsCapacity,
    NegativeRate,
    SchemeUnverified,
    StateSpaceTooLarge,
)
from .capacity import _key_rate
from .hypergraph import Hypergraph, _digit_limit
from .scheme import DiscussionScheme, _columns, verify

__all__ = [
    "QuantizedShape",
    "ProtocolRun",
    "SecrecyReport",
    "GenerationStats",
    "quantize",
    "run",
    "brute_force_secrecy",
    "random_mch_with_stats",
]

MAX_SAMPLE_BITS = 1 << 24  # the most source bits a run draws (2 MiB)
MAX_STATE_BITS = 20  # the most source bits an exhaustive sweep covers
MAX_ATTEMPTS = 200000  # proposals random_mch_with_stats draws before giving up


def _count_text(n: int) -> str:
    """n in decimal, or "10^limit or more" when str() would refuse it for
    passing the int-to-str limit (a source that large is only named in an
    error)."""
    limit = _digit_limit()
    return f"10^{limit} or more" if limit and n >= 10**limit else str(n)


@dataclass(frozen=True)
class QuantizedShape:
    """Blocklength scale plus per-edge bit lengths and the key length."""

    scale: int
    edge_lengths: tuple[tuple[str, int], ...]
    key_length: int

    def lengths_map(self) -> dict[str, int]:
        return dict(self.edge_lengths)

    def total_bits(self) -> int:
        return sum(n for _, n in self.edge_lengths)


def quantize(h: Hypergraph, key_rate: Fraction) -> QuantizedShape:
    """Least scale m making m * key_rate and every m * weight integral:
    the lcm of the rate's denominator and L, the common denominator of the
    hypergraph's integer index, whose weights w * L give the lengths.
    Cached on h per rate, so one simulation quantizes once."""
    rate = _key_rate(key_rate)

    def build():
        _require_rate_within_capacity(h, rate)
        index = h._index()
        scale = lcm(rate.denominator, index.scale)
        factor = scale // index.scale
        lengths = tuple((e.id, w * factor) for e, w in zip(h.edges, index.weights))
        return QuantizedShape(
            scale=scale,
            edge_lengths=lengths,
            key_length=rate.numerator * (scale // rate.denominator),
        )

    return h._memo(("shape", rate.numerator, rate.denominator), build)


def _require_rate_within_capacity(h: Hypergraph, rate: Fraction) -> None:
    """KeyRateExceedsCapacity if rate is above the least edge weight of h,
    which is the secret-key capacity of an MCH."""
    if rate > h.min_weight():
        raise KeyRateExceedsCapacity(
            f"key rate {rate} exceeds the minimum edge weight {h.min_weight()}"
        )


@dataclass(frozen=True)
class ProtocolRun:
    """One simulated execution (plus, optionally, an exhaustive sweep).

    The recorded realization, messages, per-vertex recoveries, and key always
    come from the seeded sample; with exhaustive=True the zero_error verdict
    quantifies over every realization of the quantized source instead of just
    the recorded one, and realizations_checked is 2^total (the bit-sliced
    sweep decides them together, not one by one).
    """

    seed: int
    scale: int
    edge_lengths: tuple[tuple[str, int], ...]
    key_length: int
    realized: tuple[tuple[str, int], ...]
    messages: tuple[int, ...]
    recovered: tuple[tuple[str, int], ...]
    key: int
    zero_error: bool
    exhaustive: bool
    realizations_checked: int


def _check_scheme_matches(h: Hypergraph, scheme: DiscussionScheme) -> None:
    if scheme.edge_order != tuple(e.id for e in h.edges):  # in id order
        raise SchemeUnverified("scheme edge order does not match the hypergraph")
    if len(scheme.recovery) != len(h.vertices) or set(scheme.vertices()) != h.vertices:
        raise SchemeUnverified("scheme recovery map does not list each vertex once")
    edges = h._by_id
    if any(e not in edges or v not in edges[e].members for v, e in scheme.recovery):
        raise SchemeUnverified("a recovery edge is not a column its vertex holds")
    if scheme.key_edge not in scheme.edge_order:
        raise SchemeUnverified(f"key edge {scheme.key_edge!r} is not a scheme column")
    mu = scheme.mu
    if any(_columns(row, mu) != row for row in scheme.rows):
        raise SchemeUnverified(
            "a scheme row is not a tuple of column indices into the edge order"
        )


def _bit_plane(bit: int, total: int) -> int:
    """The 2^total-bit int whose bit w is bit `bit` of the word w.

    One period (2^bit zeros, then 2^bit ones) is doubled by shift-and-OR
    until it spans every word, so the cost is linear in the plane length.
    """
    half = 1 << bit
    plane = ((1 << half) - 1) << half
    span = half << 1
    while span < 1 << total:
        plane |= plane << span
        span <<= 1
    return plane


def _layout(shape: QuantizedShape) -> list[tuple[int, int]]:
    """Per edge, the source bit index where its block starts and where its
    truncation starts: the blocks sit end to end in edge order, and
    truncation keeps the leading key_length bits of each block."""
    out = []
    at = 0
    for _, n in shape.edge_lengths:
        out.append((at, at + n - shape.key_length))
        at += n
    return out


def _broadcast(rows: tuple[tuple[int, ...], ...], trunc: list[int]) -> list[int]:
    """One message per row: the XOR of the truncations of its columns."""
    out = []
    for row in rows:
        acc = 0
        for j in row:
            acc ^= trunc[j]
        out.append(acc)
    return out


def _tree_walk(rows: tuple, mu: int, root: int) -> list[tuple[int, int, int]]:
    """(column, parent, row) per column but root, parents first (a BFS)."""
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(mu)]
    for r, (i, j) in enumerate(rows):
        adjacent[i].append((j, r))
        adjacent[j].append((i, r))
    steps = [(root, root, -1)]
    for c, _, came in steps:
        steps.extend((d, c, r) for d, r in adjacent[c] if r != came)
    return steps[1:]


def _path_xors(steps: list, mu: int, msgs: list[int]) -> list[int]:
    """Per column, the XOR of the messages on its tree path to the root."""
    path = [0] * mu
    for c, parent, r in steps:
        path[c] = path[parent] ^ msgs[r]
    return path


def run(
    h: Hypergraph,
    scheme: DiscussionScheme,
    key_rate: Fraction,
    seed: int = 0,
    *,
    exhaustive: bool = False,
) -> ProtocolRun:
    """Sample the source, broadcast the scheme rows, and let every vertex
    recover the key from the messages plus its own pivot edge.  A scheme
    failing verification raises SchemeUnverified, and a source of more
    than MAX_SAMPLE_BITS bits StateSpaceTooLarge, before anything is drawn.

    The report of verify is cached on the scheme and the shape of quantize
    on h, so a simulation that has synthesized and quantized already
    computes neither again.

    A verified scheme's pair rows are a spanning tree on the columns, so the
    messages on the tree path from column c to the key column XOR to
    trunc[c] ^ key: a vertex with pivot column c recovers trunc[c] ^ path[c],
    and one walk from the key column (_tree_walk, _path_xors) serves all.

    With exhaustive=True every realization (at most 2^MAX_STATE_BITS) is
    checked at once on bit planes, one truncation bit t at a time: bit w of
    plane t of an edge is bit t of that edge's truncation in realization w,
    and one broadcast plus one walk decides bit t of the key for all words.
    """
    _check_scheme_matches(h, scheme)
    if not verify(scheme).ok:
        raise SchemeUnverified("scheme failed verification")
    shape = quantize(h, key_rate)
    total = shape.total_bits()
    cap = MAX_STATE_BITS if exhaustive else MAX_SAMPLE_BITS
    if total > cap:
        kind = "exhaustive" if exhaustive else "sampling"
        raise StateSpaceTooLarge(
            f"{_count_text(total)} source bits exceed the {kind} cap {cap}"
        )
    key_len = shape.key_length
    layout = _layout(shape)
    column = {eid: k for k, eid in enumerate(scheme.edge_order)}
    key_idx = column[scheme.key_edge]
    pivot_idx = {v: column[e] for v, e in scheme.recovery}
    steps = _tree_walk(scheme.rows, scheme.mu, key_idx)

    rng = random.Random(seed)
    sample = [rng.getrandbits(n) if n else 0 for _, n in shape.edge_lengths]
    trunc0 = [b >> (start - at) for b, (at, start) in zip(sample, layout)]
    msgs0 = _broadcast(scheme.rows, trunc0)
    path0 = _path_xors(steps, scheme.mu, msgs0)
    recovered0 = {v: trunc0[c] ^ path0[c] for v, c in pivot_idx.items()}
    true_key0 = trunc0[key_idx]
    zero_error = all(k == true_key0 for k in recovered0.values())

    if exhaustive:
        pivots = set(pivot_idx.values())
        for t in range(key_len):
            planes = [_bit_plane(start + t, total) for _, start in layout]
            path = _path_xors(steps, scheme.mu, _broadcast(scheme.rows, planes))
            if any(planes[c] ^ path[c] != planes[key_idx] for c in pivots):
                zero_error = False
                break

    return ProtocolRun(
        seed=seed,
        scale=shape.scale,
        edge_lengths=shape.edge_lengths,
        key_length=key_len,
        realized=tuple(zip(scheme.edge_order, sample)),
        messages=tuple(msgs0),
        recovered=tuple(sorted(recovered0.items())),
        key=true_key0,
        zero_error=zero_error,
        exhaustive=exhaustive,
        realizations_checked=1 << total if exhaustive else 1,
    )


@dataclass(frozen=True)
class SecrecyReport:
    """Exact joint tabulation of (messages, key) over all realizations.

    perfect means every message pattern splits the realizations evenly across
    all possible key values, which makes the conditional key entropy equal the
    key length with no logarithms of non-powers-of-two involved.  Entropies
    are in bits; conditional_entropy_bits is None when the slices are not
    uniform (then no exact rational value exists in general).
    """

    perfect: bool
    key_entropy_bits: Fraction
    conditional_entropy_bits: Optional[Fraction]
    realizations: int
    message_patterns: int
    min_cell: int
    max_cell: int


def brute_force_secrecy(
    h: Hypergraph,
    scheme: DiscussionScheme,
    key_rate: Fraction,
) -> SecrecyReport:
    """Count every (message pattern, key) cell over all 2^total realizations
    (_cell_counts), then keep, per message pattern, the number of keys it
    occurs with and its smallest and largest cell.  A source of more than
    MAX_STATE_BITS bits raises StateSpaceTooLarge.
    """
    _check_scheme_matches(h, scheme)
    shape = quantize(h, key_rate)
    total = shape.total_bits()
    if total > MAX_STATE_BITS:
        raise StateSpaceTooLarge(
            f"{_count_text(total)} source bits exceed the exhaustive cap "
            f"{MAX_STATE_BITS}"
        )
    counts = _cell_counts(scheme, shape)
    key_len = shape.key_length
    key_mask = (1 << key_len) - 1
    realizations = 1 << total
    key_values = 1 << key_len
    # message pattern -> [keys it occurs with, smallest cell, largest cell]
    patterns: dict[int, list[int]] = {}
    key_marginal: dict[int, int] = {}
    for packed, n in counts.items():
        key = packed & key_mask
        key_marginal[key] = key_marginal.get(key, 0) + n
        stats = patterns.get(packed >> key_len)
        if stats is None:
            patterns[packed >> key_len] = [1, n, n]
        else:
            stats[0] += 1
            if n < stats[1]:
                stats[1] = n
            elif n > stats[2]:
                stats[2] = n

    # regular: every pattern's slice is flat over one common number of keys
    supports = {support for support, _, _ in patterns.values()}
    regular = len(supports) == 1 and all(
        lo == hi for _, lo, hi in patterns.values()
    )
    perfect = regular and supports == {key_values}

    # the key is a truncation of one uniform block, so its marginal is flat
    assert len(key_marginal) == key_values
    assert len(set(key_marginal.values())) == 1
    key_entropy = Fraction(key_len)

    conditional: Optional[Fraction] = None
    if regular:
        (support,) = supports
        bits = support.bit_length() - 1
        if 1 << bits == support:
            conditional = Fraction(bits)
    elif key_len == 0:
        conditional = Fraction(0)

    return SecrecyReport(
        perfect=perfect,
        key_entropy_bits=key_entropy,
        conditional_entropy_bits=conditional,
        realizations=realizations,
        message_patterns=len(patterns),
        min_cell=min(counts.values()),
        max_cell=max(counts.values()),
    )


def _cell_counts(scheme: DiscussionScheme, shape: QuantizedShape) -> dict[int, int]:
    """Realizations per (message pattern, key) cell, keyed by the packed
    observation fpack << key_len | key (row r's message at bit r * key_len
    of fpack), which is the XOR of the observations of the realization's set
    source bits.  So the table starts as {0: 1} and each source bit adds to
    it, in place, its copy XOR-shifted by that bit's flip (or doubles every
    count when the flip is zero): O(total * cells) dict operations instead
    of one pass per realization, with one table alive.
    """
    key_len = shape.key_length
    key_mask = (1 << key_len) - 1
    key_idx = scheme.column(scheme.key_edge)
    layout = _layout(shape)

    def observe(word: int) -> int:
        trunc = [word >> start & key_mask for _, start in layout]
        fpack = 0
        for r, acc in enumerate(_broadcast(scheme.rows, trunc)):
            fpack |= acc << (r * key_len)
        return fpack << key_len | trunc[key_idx]

    counts = {0: 1}
    for bit in range(shape.total_bits()):
        flip = observe(1 << bit)
        if flip:
            # each pair {x, x ^ flip} ends with the sum of its two old
            # counts; a partner missing before the pass is added only here
            for x in tuple(counts):
                y = x ^ flip
                n = counts.get(y)
                if n is None:
                    counts[y] = counts[x]
                elif x < y:
                    counts[x] = counts[y] = counts[x] + n
        else:
            for x in counts:
                counts[x] *= 2
    return counts


@dataclass(frozen=True)
class GenerationStats:
    attempts: int


def random_mch_with_stats(
    vertex_count: int,
    edge_count: int,
    max_weight: int = 1,
    seed: int = 0,
) -> tuple[Hypergraph, GenerationStats]:
    """Rejection-sample random hypergraphs until one is minimally connected.

    vertex_count and edge_count are exact; proposals are grown connected
    (every edge meets the earlier ones, every vertex enters through an edge)
    so rejection only has to find minimality.  Proposals are vertex bitmasks
    drawn from a private random.Random(seed) (see _proposals) and are tested
    by _is_minimal; the one Hypergraph built is the accepted case, over
    vertices "1".."n" with edge ids "a", "b", ... in proposal order.
    attempts counts every proposal, the accepted one included.  Some shapes
    admit no MCH at all and exhaust the budget of MAX_ATTEMPTS proposals.

    Shapes with edge_count >= vertex_count are among them, and raise
    GenerationBudgetExhausted before any draw: an MCH on n vertices has at
    most n - 1 edges.  Remove the edges of an MCH h one at a time.  Each
    removal adds a component: if the members of an edge f were still
    connected in h - S - f (S the edges removed before f), they would be
    connected in h - f too, so h - f would be connected, against the
    minimality of h.  The count starts at one component and ends at n, once
    no edge is left, so 1 + m <= n.
    """
    if not 2 <= vertex_count <= 8:
        raise GroundTooLarge("vertex count must be between 2 and 8")
    if not 1 <= edge_count <= 6:
        raise GroundTooLarge("edge count must be between 1 and 6")
    if max_weight < 1:
        raise NegativeRate("max weight must be at least one")
    if edge_count >= vertex_count:
        raise GenerationBudgetExhausted(
            f"no MCH with {vertex_count} vertices and {edge_count} edges "
            f"exists: an MCH on n vertices has at most n - 1 edges"
        )
    full = (1 << vertex_count) - 1
    proposals = _proposals(random.Random(seed), vertex_count, edge_count, max_weight)
    for attempt, proposal in zip(range(1, MAX_ATTEMPTS + 1), proposals):
        if proposal is None:
            continue
        masks, weights = proposal
        if not _is_minimal(masks, full):
            continue
        names = [str(i + 1) for i in range(vertex_count)]
        edges = [
            (
                ascii_lowercase[j],
                [names[i] for i in range(vertex_count) if masks[j] >> i & 1],
                weights[j],
            )
            for j in range(edge_count)
        ]
        stats = GenerationStats(attempts=attempt)
        return Hypergraph(names, edges), stats
    raise GenerationBudgetExhausted(
        f"no MCH with {vertex_count} vertices and {edge_count} edges found "
        f"in {MAX_ATTEMPTS} attempts"
    )


def _proposals(
    rng: random.Random, vertex_count: int, edge_count: int, max_weight: int
) -> Iterator[Optional[tuple[list[int], list[int]]]]:
    """Endless connected proposals, each as (member bitmask per edge, weight
    per edge), bit i standing for vertex i + 1, or None for a proposal that
    cannot be an MCH: one with a loop or one that is doomed (below).

    A proposal draws what these random.Random calls would, in order: one
    shuffle of the vertices, one randrange(edge_count) per vertex after the
    first to pick the edge that introduces it, then per edge a random() and
    a randint(1, span) or randint(1, 3) choosing how many earlier vertices
    to add and one sample of them (none for the first edge), and one
    randint(1, max_weight) weight.  The sample runs over the earlier
    vertices in introduction order, so its picks depend only on that order.

    Every draw but random() is taken straight from getrandbits, the way
    CPython's random.py takes it.  randrange(k) is _randbelow(k), and
    randint(a, b) is a + _randbelow(b - a + 1); _randbelow(k) draws
    getrandbits(k.bit_length()) and redraws while the value is k or more.
    shuffle(x) swaps x[i] with x[_randbelow(i + 1)] for i from len(x) - 1
    down to 1.  sample(pool, k) of a pool of at most 21 takes
    pool[j], j = _randbelow(n - i), for i in range(k) and moves the last
    unpicked item into slot j.  So each seed gives the instance and attempt
    count of the public calls, which tests/oracles.propose makes;
    TestRandomMCH in tests/test_simkit.py (test_matches_the_rebuild_oracle,
    test_proposals_keep_step_with_the_oracle and
    test_multi_word_weights_match_the_oracle) compares the two.

    Which draws a proposal makes depends on the counts alone: how many
    vertices each edge introduces (fresh) and how many earlier ones it
    takes, out of span.  Only the first edge can be a loop, when it
    introduces one vertex: every later edge has a vertex of its own plus a
    pick, or takes two picks out of a span of at least two.  That one is
    yielded as None at once, as the public calls stop there too.  A
    proposal with a later edge j that introduces no vertex is doomed:
    edge j's members are vertices that edges 0..j-1 already connect, and
    every later edge hangs its new vertices on what is there, so h - e_j
    stays connected and the proposal is not minimal.  Its draws are still
    made, to keep the generator in step, but by counts alone.  The
    shuffle's swaps are recorded as they are drawn and applied only for a
    proposal that survives, and only that one builds its intro lists,
    masks and weights.
    """
    getrandbits = rng.getrandbits
    uniform = rng.random
    bits = [k.bit_length() for k in range(vertex_count + 1)]
    edge_bits = edge_count.bit_length()
    weight_bits = max_weight.bit_length()
    later = range(1, edge_count)
    while True:
        swaps = []  # the shuffle's partner of x[i], i from vertex_count - 1 down
        for i in range(vertex_count - 1, 0, -1):
            k = bits[i + 1]
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            swaps.append(r)
        owners = []  # the edge that introduces each vertex after the first
        fresh = [0] * edge_count  # how many vertices each edge introduces
        fresh[0] = 1
        for _ in range(vertex_count - 1):
            r = getrandbits(edge_bits)
            while r >= edge_count:
                r = getrandbits(edge_bits)
            owners.append(r)
            fresh[r] += 1
        if fresh[0] == 1:
            yield None  # the first edge is a loop
            continue
        r = getrandbits(weight_bits)
        while r >= max_weight:
            r = getrandbits(weight_bits)
        live = 0 not in fresh
        if live:
            pool = list(range(vertex_count))
            for i, partner in zip(range(vertex_count - 1, 0, -1), swaps):
                pool[i], pool[partner] = pool[partner], pool[i]
            intro: list[list[int]] = [[] for _ in fresh]
            intro[0].append(pool[0])
            for v, owner in zip(pool[1:], owners):
                intro[owner].append(v)
            existing = intro[0][:]
            members = 0
            for v in existing:
                members |= 1 << v
            masks = [members]
            weights = [r + 1]
        span = fresh[0]
        for j in later:
            if uniform() < 0.15:
                k = bits[span]
                r = getrandbits(k)
                while r >= span:
                    r = getrandbits(k)
                take = r + 1
            else:
                r = getrandbits(2)
                while r >= 3:
                    r = getrandbits(2)
                take = min(r + 1, span)
            if take == 1 and not fresh[j]:
                take = 2  # avoid proposing loops, which are never minimal
            if live:
                members = 0
                for v in intro[j]:
                    members |= 1 << v
                unpicked = existing[:]
            for size in range(span, span - take, -1):
                k = bits[size]
                r = getrandbits(k)
                while r >= size:
                    r = getrandbits(k)
                if live:
                    members |= 1 << unpicked[r]
                    unpicked[r] = unpicked[size - 1]
            r = getrandbits(weight_bits)
            while r >= max_weight:
                r = getrandbits(weight_bits)
            span += fresh[j]
            if live:
                masks.append(members)
                weights.append(r + 1)
                existing += intro[j]
        yield (masks, weights) if live else None


def _is_minimal(masks: list[int], full: int) -> bool:
    """Whether a connected proposal is an MCH: for every edge, a flood fill
    from vertex bit 0 over the other edges leaves some vertex unreached."""
    for j in range(len(masks)):
        others = masks[:j] + masks[j + 1 :]
        reached = 1
        grew = True
        while grew:
            grew = False
            for m in others:
                if m & reached and m & ~reached:
                    reached |= m
                    grew = True
        if reached == full:
            return False
    return True
