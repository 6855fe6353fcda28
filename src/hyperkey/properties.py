"""Invariant suites used by the fuzz command and the property tests.

Each function returns a list of human-readable violation strings; an empty
list means every law held.  The checks are deterministic given the rng, so a
seed plus an instance reproduces any reported counterexample exactly.  Fast
answers are checked against slower computations that share no code with
them: a whole-graph component count, the Bell partition sweep, exhaustive
simulation and the brute-force secrecy table (the last two on sources of
at most simkit.MAX_STATE_BITS bits).

The suites read the Bell sweep's report (partitions._cached_sweep), its
value and finest minimizer; the sweep lists no minimizers.  It folds the
meet of every minimizer as it walks, so comparing the fast path's
fundamental partition with that meet covers each minimizer at once.
What does not depend on the rate is computed once per instance and kept on
it by Hypergraph._memo, under ("properties", name): _components, the
component search with its memo keyed by the removed set's bitmask and the
scaled edge masks the coverage table reads, which lemma_violations and
every scheme_round_trip_violations call share, and the default-order
synthesize with the pairing-tree check of its rows, which the round trips
at several rates share.  The redundancy check draws its vertex sets as
bitmasks straight from getrandbits, as random.Random.randrange and sample
would draw them (the way simkit._proposals draws), and counts each set and
its block traces on that memo.

The set-function laws (monotone and submodular coverage entropy, the
contra-polymatroid shape of each block's rank table) are checked on 2^n
integer tables packed into one int, one big-int gate per element and per
pair of elements (polymatroid._packed_gates); only a table that fails a
gate is walked by the ordered scans that name its first counterexample.
A block's table is its integer component counts, checked entry by entry
against the component search and then by the public
polymatroid.verify_contra_polymatroid.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .capacity import (
    _as_fraction,
    _canonical_masks,
    _members,
    in_region,
    outer_bound_deficit,
    require_mch,
    unconstrained_capacity,
)
from .hypergraph import Hypergraph, _find, block_removal_counts
from .partitions import (
    Partition,
    _cached_sweep,
    _scaled_edge_masks,
    mmi,
    partition_connectivity,
)
from .polymatroid import (
    RankFunction,
    _coverage_values,
    _first_decrease,
    _first_submodular_violation,
    extreme_point_for_order,
    verify_contra_polymatroid,
)
from .scheme import rates_of, synthesize, verify
from .simkit import MAX_STATE_BITS, brute_force_secrecy, quantize, run

__all__ = ["lemma_violations", "scheme_round_trip_violations"]

SUBADDITIVITY_SAMPLES = 50  # random vertex sets per redundancy check


def lemma_violations(
    h: Hypergraph, *, rng: Optional[random.Random] = None
) -> list[str]:
    """Check the structural laws an MCH and its fundamental partition obey.

    Covers: the component/degree identities over fundamental blocks, the
    hypertree shape of the merged hypergraph, the incident-restriction degree
    laws, per-block rank tables (each count of block_removal_counts
    against its component search) and their contra-polymatroid shape
    (verify_contra_polymatroid), redundancy of constraints on
    SUBADDITIVITY_SAMPLES vertex sets drawn from rng, entropy
    monotonicity/submodularity (the packed gates of the coverage table over
    integer-scaled weights, on every ground this function accepts), and
    agreement of the weighted capacity formula with the brute-force
    partition minimum, plus the fast-path law of _fast_path_violations.
    That law also covers "the fundamental partition refines every
    minimizer": the sweep's finest minimizer is the meet of every
    minimizer (its _MeetFold raises otherwise), so a fundamental partition
    equal to it refines each of them.  Every component count comes
    from _components, one bitmask component search independent of the
    rank tables.  The enumeration oracle refuses grounds over 12
    vertices, and so does this function.  The brute-force maximal-subset characterization
    of non-singleton fundamental blocks is too slow for every case; the
    tests check it (oracles.prop2_violations).
    """
    require_mch(h)
    rng = rng or random.Random(0)
    bad = _fast_path_violations(h)
    components = _components(h)
    report = partition_connectivity(h)
    fundamental = report.fundamental
    edge_count = len(h.edges)

    if report.value <= 0:
        bad.append(f"I(H) = {report.value} is not positive on a connected MCH")

    degree_sum = 0
    for block in fundamental.blocks:
        d = h.degree(block)
        degree_sum += d - 1
        k = len(components(components.mask(block)))
        if k != d:
            bad.append(
                f"block {sorted(block)}: component count {k} != degree {d}"
            )
    if degree_sum != edge_count - 1:
        bad.append(
            f"sum of (degree-1) over blocks is {degree_sum}, expected {edge_count - 1}"
        )

    merged = h.merge(fundamental)
    if not merged.is_hypertree():
        bad.append("merging the fundamental partition did not give a hypertree")

    for block in fundamental.blocks:
        restriction = h.incident_restriction(block)
        label = sorted(block)
        if not restriction.is_mch():
            bad.append(f"incident restriction of {label} is not an MCH")
        # each vertex's degree in the restriction, from one pass over its edges
        degree = Counter(v for e in restriction.edges for v in e.members)
        for v in sorted(restriction.vertices - block):
            if degree[v] != 1:
                bad.append(
                    f"outside vertex {v!r} has degree != 1 in the restriction of {label}"
                )
        if len(block) > 1:
            for v in sorted(block):
                if degree[v] < 2:
                    bad.append(
                        f"block vertex {v!r} has degree < 2 in the restriction of {label}"
                    )
            for e in restriction.edges:
                degs = [degree[v] for v in e.members]
                if not any(d == 1 for d in degs) or not any(d > 1 for d in degs):
                    bad.append(
                        f"edge {e.id!r} of the restriction of {label} lacks a "
                        "degree-1 or a degree->1 member"
                    )

    for block in fundamental.blocks:
        order, counts = block_removal_counts(h, block)
        for mask, c in enumerate(counts):
            removed = _members(order, mask)
            if c != len(components(components.mask(removed))):
                bad.append(
                    f"block {sorted(block)}: rank table says {c - 1} at "
                    f"{sorted(removed)}, the component search disagrees"
                )
        result = verify_contra_polymatroid(RankFunction(h, block, Fraction(1)))
        if not result.ok:
            bad.append(
                f"rank function on block {sorted(block)} failed: {result}"
            )

    bad.extend(_redundancy_violations(h, fundamental, rng))
    bad.extend(_entropy_shape_violations(h))

    cap = unconstrained_capacity(h)
    brute = _cached_sweep(h, True).value
    if cap != brute:
        bad.append(f"minimum edge weight {cap} != brute-force weighted minimum {brute}")

    unit = Hypergraph(h.vertices, [(e.id, e.members, 1) for e in h.edges])
    unit_mmi = mmi(unit)
    if (unit_mmi.value, unit_mmi.fundamental) != (report.value, fundamental):
        bad.append("unit-weight weighted minimum disagrees with partition connectivity")
    return bad


def _fast_path_violations(h: Hypergraph) -> list[str]:
    """Both functionals' value and fundamental partition equal what the
    enumeration oracle finds.  The sweeps are cached per hypergraph, so the
    suites share at most two per instance (one when every weight is one)."""
    bad: list[str] = []
    for name, fast, weighted in (
        ("partition connectivity", partition_connectivity(h), False),
        ("weighted minimum", mmi(h), True),
    ):
        sweep = _cached_sweep(h, weighted)
        if (fast.value, fast.fundamental) != (sweep.value, sweep.fundamental):
            bad.append(
                f"{name}: fast path gives {fast.value} at "
                f"{fast.fundamental.to_sorted_lists()}, enumeration gives "
                f"{sweep.value} at {sweep.fundamental.to_sorted_lists()}"
            )
    return bad


def _redundancy_violations(
    h: Hypergraph, fundamental: Partition, rng: random.Random
) -> list[str]:
    """r(B) >= (k(H/B)-1) r_K is implied blockwise: the component defect of an
    arbitrary B never exceeds the sum over blocks of the defects of B's traces.
    B (SUBADDITIVITY_SAMPLES sets drawn by _vertex_samples) and its traces
    are bitmasks over the sorted vertices, counted by _components."""
    bad: list[str] = []
    components = _components(h)
    names = components.names
    if len(names) < 2:
        return bad
    blocks = [components.mask(block) for block in fundamental.blocks]
    for b in _vertex_samples(rng, len(names), SUBADDITIVITY_SAMPLES):
        whole = len(components(b)) - 1
        parts = 0
        for block in blocks:
            trace = b & block
            if trace:
                parts += len(components(trace)) - 1
        if whole > parts:
            bad.append(
                f"defect {whole} of {sorted(_members(names, b))} exceeds "
                f"blockwise sum {parts}"
            )
    return bad


def _vertex_samples(rng: random.Random, n: int, samples: int) -> Iterator[int]:
    """samples proper nonempty subsets of n >= 2 sorted names, as bitmasks:
    each is what rng.sample(names, rng.randrange(1, n)) would pick, drawn
    straight from getrandbits as random.py draws it (see simkit._proposals).
    randrange(1, n) is 1 + _randbelow(n - 1), and a sample of a pool of at
    most 21 takes pool[j], j = _randbelow(n - i), for i in range(size) and
    moves the last unpicked item into slot j.  lemma_violations refuses
    more than 12 vertices, so that pool path holds."""
    getrandbits = rng.getrandbits
    bits = [k.bit_length() for k in range(n + 1)]
    for _ in range(samples):
        k = bits[n - 1]
        r = getrandbits(k)
        while r >= n - 1:
            r = getrandbits(k)
        pool = list(range(n))
        b = 0
        for left in range(n, n - 1 - r, -1):  # left = n - i unpicked items
            k = bits[left]
            j = getrandbits(k)
            while j >= left:
                j = getrandbits(k)
            b |= 1 << pool[j]
            pool[j] = pool[left - 1]
        yield b


def _components(h: Hypergraph) -> "_Components":
    """h's _Components, built once and kept on h, so every suite run on h
    shares it and its memo."""
    return h._memo(("properties", "components"), lambda: _Components(h))


class _Components:
    """The components of h minus a proper vertex subset, as bitmasks over
    names (the sorted vertices), memoized per removed set: the edges'
    bitmasks cut to the kept vertices, merged, plus a singleton per kept
    vertex no edge reaches.  It reads no block structure and no index, so
    it stays an independent check of the block view behind
    block_removal_counts.

    names  -- the vertex names, sorted; bit i stands for names[i]
    edges  -- _scaled_edge_masks of h's weights over names, per edge
    """

    __slots__ = ("names", "edges", "_bit", "_full", "_found")

    def __init__(self, h: Hypergraph):
        self.names = names = sorted(h.vertices)
        self.edges, _ = _scaled_edge_masks(h, names, (e.weight for e in h.edges))
        self._bit = {v: 1 << i for i, v in enumerate(names)}
        self._full = (1 << len(names)) - 1
        self._found: dict[int, tuple[int, ...]] = {}

    def mask(self, vertices: Iterable[str]) -> int:
        """The bitmask of vertices, a set of h's vertex names."""
        bit = self._bit
        m = 0
        for v in vertices:
            m |= bit[v]
        return m

    def __call__(self, removed: int) -> tuple[int, ...]:
        """The components left once the vertices of the mask removed go."""
        comps = self._found.get(removed)
        if comps is None:
            kept = self._full ^ removed
            found: list[int] = []
            reached = 0
            for m, _ in self.edges:
                m &= kept
                if not m:
                    continue
                reached |= m
                apart = []
                for comp in found:
                    if comp & m:
                        m |= comp
                    else:
                        apart.append(comp)
                apart.append(m)
                found = apart
            lone = kept & ~reached
            found += [1 << i for i in range(len(self.names)) if lone >> i & 1]
            comps = self._found[removed] = tuple(found)
        return comps


def _entropy_shape_violations(h: Hypergraph) -> list[str]:
    """Coverage entropy is monotone and submodular, checked exhaustively by
    the packed gates on the integer-scaled table of _coverage_table (at
    most 12 vertices)."""
    return _table_shape_violations(*_coverage_table(h))


def _coverage_table(h: Hypergraph) -> tuple[list[str], list[int]]:
    """(order, values) with values[mask] = L times the coverage entropy of the
    vertices selected by mask over order, L being the lcm of the weights'
    denominators, read off the scaled edge masks of _components.  A
    positive scale keeps both laws and every comparison."""
    components = _components(h)
    return components.names, _coverage_values(components.edges, len(components.names))


def _table_shape_violations(order: Sequence[str], values: Sequence[int]) -> list[str]:
    """First monotonicity violation (masks ascending, then elements), else
    first submodularity violation over pairs s <= t, of a set function given
    as a 2^len(order) table; [] when both laws hold.  The laws are
    polymatroid's packed gates; only a table that fails one is scanned in
    order for the first violation."""
    drop = _first_decrease(values, len(order))
    if drop is not None:
        return [f"entropy not monotone at mask {drop[0]} plus {order[drop[1]]!r}"]
    pair = _first_submodular_violation(values, len(order))
    if pair is not None:
        return ["entropy not submodular at masks {}, {}".format(*pair)]
    return []


def scheme_round_trip_violations(
    h: Hypergraph,
    key_rate: Fraction,
    orders: Optional[Mapping] = None,
) -> list[str]:
    """Synthesize a scheme and check every consequence the theory promises.

    Covers: verification, per-block rate telescoping against the extreme
    points, region membership, nonnegative outer-bound deficits on the tight
    (B, component-partition) family, the per-block spanning-tree shape of the
    pairing rows, the fast-path law of _fast_path_violations, and — when the
    quantized source has at most simkit.MAX_STATE_BITS bits — exhaustive
    zero-error simulation plus agreement of both secrecy oracles.
    """
    rate = _as_fraction(key_rate)
    bad = _fast_path_violations(h)
    if orders is None:
        # neither the scheme nor its pairing-tree verdict depends on the
        # rate, so the round trips at several rates of one instance share
        # the default-order synthesis and its check
        scheme, used, tree = h._memo(
            ("properties", "synthesize"), lambda: _checked_synthesis(h, None)
        )
    else:
        scheme, used, tree = _checked_synthesis(h, orders)
    report = verify(scheme)  # ok, or synthesize would have raised
    rates = rates_of(scheme, rate)
    fundamental = partition_connectivity(h).fundamental
    if rates.total() != (len(h.edges) - 1) * rate:
        bad.append(
            f"total rate {rates.total()} != (edge count - 1) * key rate"
        )
    for block, order in used.items():
        fn = RankFunction(h, block, rate)
        point = extreme_point_for_order(fn, order)
        for v, r in point.rates:
            if rates.per_user[v] != r:
                bad.append(
                    f"rate of {v!r} is {rates.per_user[v]}, extreme point says {r}"
                )

    check = in_region(h, rates)
    if not check.ok:
        bad.append(f"synthesized rates fall outside the region: {check}")

    components = _components(h)
    for block in fundamental.blocks:
        order = sorted(block)
        for mask in _canonical_masks(len(order)):
            b = _members(order, mask)
            if len(b) >= len(h.vertices) - 1:
                continue
            rest = components(components.mask(b))
            if len(rest) < 2:
                continue
            p = Partition.from_blocks(_members(components.names, m) for m in rest)
            deficit = outer_bound_deficit(h, rates, b, p)
            if deficit < 0:
                bad.append(f"outer bound violated by {deficit} at B={sorted(b)}")

    bad.extend(tree)

    shape = quantize(h, rate)
    if shape.total_bits() <= MAX_STATE_BITS:
        outcome = run(h, scheme, rate, seed=0, exhaustive=True)
        if not outcome.zero_error:
            bad.append("exhaustive simulation found a recovery error")
        secrecy = brute_force_secrecy(h, scheme, rate)
        if secrecy.perfect != report.secrecy_ok:
            bad.append(
                f"secrecy oracles disagree: brute force {secrecy.perfect}, "
                f"rank {report.secrecy_ok}"
            )
        if secrecy.key_entropy_bits != shape.key_length:
            bad.append(
                f"key entropy {secrecy.key_entropy_bits} != key length {shape.key_length}"
            )
        if secrecy.perfect and secrecy.conditional_entropy_bits != shape.key_length:
            bad.append(
                "perfect secrecy but conditional entropy "
                f"{secrecy.conditional_entropy_bits} != key length {shape.key_length}"
            )
    return bad


def _checked_synthesis(h: Hypergraph, orders: Optional[Mapping]):
    """synthesize(h, orders), plus the _pairing_tree_violations of what it
    returns (the rate plays no part in either)."""
    scheme, used = synthesize(h, orders)
    return scheme, used, _pairing_tree_violations(h, scheme, used)


def _pairing_tree_violations(h: Hypergraph, scheme, used) -> list[str]:
    """Rows spoken in one block pair its representative edges into a tree.

    A block has one representative per edge that meets it, so its rows
    number h.degree(block) - 1, a count from a scan of the Edge objects.
    """
    block_of = {v: block for block, order in used.items() for v in order}
    by_block: dict[frozenset[str], list[tuple[str, ...]]] = {}
    for pair, speaker in zip(scheme.row_pairs(), scheme.speakers):
        by_block.setdefault(block_of.get(speaker), []).append(pair)
    bad: list[str] = []
    for block in used:
        pairs = by_block.get(block, [])
        nodes = {n for pair in pairs for n in pair}
        expected = h.degree(block)
        label = sorted(block)
        if len(pairs) != expected - 1:
            bad.append(
                f"block {label} emitted {len(pairs)} rows, expected {expected - 1}"
            )
            continue
        if expected == 1:
            continue
        if len(nodes) != expected:
            bad.append(
                f"block {label} rows touch {len(nodes)} edges, expected {expected}"
            )
            continue
        parent = {n: n for n in nodes}
        acyclic = True
        for a, b in pairs:
            ra, rb = _find(parent, a), _find(parent, b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic or len({_find(parent, n) for n in nodes}) != 1:
            bad.append(f"block {label} rows do not form a spanning tree")
    return bad
