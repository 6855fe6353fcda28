"""Partition machinery: the Bell sweep and the two functionals."""

import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm

import pytest

from hyperkey import (
    EmptyVertexSet,
    Hypergraph,
    InvalidPartition,
    Partition,
    UnknownVertex,
    crossing_count,
    lemma_violations,
    mmi,
    partition_connectivity,
    quantize,
    scheme_round_trip_violations,
    unconstrained_capacity,
)
from hyperkey import hgio, partitions
from hyperkey.cli import main
from hyperkey.errors import GroundTooLarge, SemiLatticeViolation
from hyperkey.partitions import _cached_sweep, _MeetFold
import oracles
import scale_walls
from conftest import RecordingFold
from oracles import propose as _propose


def blocks(partition):
    return sorted(tuple(sorted(b)) for b in partition.blocks)


def _partitions(h, codes):
    """The partition of each restricted-growth code over h's sorted vertices."""
    elems = sorted(h.vertices)
    out = []
    for code in codes:
        parts = [set() for _ in range(max(code) + 1)]
        for v, k in zip(elems, code):
            parts[k].add(v)
        out.append(Partition.from_blocks(parts))
    return tuple(out)


class TestPartition:
    def test_from_blocks_validation(self):
        with pytest.raises(InvalidPartition):
            Partition.from_blocks([{"1", "2"}, {"2", "3"}])  # overlap
        with pytest.raises(InvalidPartition):
            Partition.from_blocks([{"1"}, set()])  # empty block

    def test_singletons_and_refinement(self):
        s = Partition.singletons("abc")
        p = Partition.from_blocks([{"a", "b"}, {"c"}])
        assert s == Partition.from_blocks([{"c"}, {"b"}, {"a"}])
        assert p != Partition.singletons("abc")
        assert s.refines(p)
        assert not p.refines(s)
        assert p.block_of("a") == frozenset("ab")

    def test_block_of_an_unknown_vertex_is_a_domain_error(self):
        with pytest.raises(UnknownVertex):
            Partition.from_blocks([{"a", "b"}, {"c"}]).block_of("d")

    def test_to_sorted_lists(self):
        p = Partition.from_blocks([{"2", "1"}, {"3"}])
        assert p.to_sorted_lists() == [["1", "2"], ["3"]]


class TestEnumeration:
    """The Bell sweep visits every partition once: on an edgeless ground
    every proper partition has value zero, so each one is a minimizer."""

    @pytest.mark.parametrize("n,total,proper", [(1, 1, 0), (3, 5, 4), (4, 15, 14), (5, 52, 51)])
    def test_counts_match_bell_numbers(self, swept_codes, n, total, proper):
        edgeless = Hypergraph([str(i) for i in range(n)])
        if proper == 0:  # one vertex has no proper partition to sweep
            with pytest.raises(EmptyVertexSet):
                _cached_sweep(edgeless, False)
            return
        _, codes = swept_codes(edgeless)
        assert len(set(codes)) == len(codes) == proper == total - 1

    def test_ground_guard(self):
        with pytest.raises(GroundTooLarge):
            _cached_sweep(Hypergraph([str(i) for i in range(13)]), False)


class TestCrossingCount:
    def test_h1_values(self, h1):
        assert crossing_count(h1, Partition.singletons(h1.vertices)) == 6
        p = Partition.from_blocks([{"1", "2", "3"}, {"4", "5"}, {"6"}])
        assert crossing_count(h1, p) == 3

    def test_h3_singleton_crossing(self, h3):
        # degree sum 2+3+3+2+1+1+1+2+1 = 16 over 5 edges
        assert crossing_count(h3, Partition.singletons(h3.vertices)) == 11

    def test_inner_edges_do_not_cross(self, h1):
        whole = Partition.from_blocks([set(h1.vertices)])
        assert crossing_count(h1, whole) == 0


class TestPartitionConnectivity:
    def test_h1(self, h1, swept_codes):
        rep = partition_connectivity(h1)
        assert rep.value == 1
        assert blocks(rep.fundamental) == [("1", "2", "3"), ("4",), ("5",), ("6",)]
        assert rep.fundamental in _partitions(h1, swept_codes(h1)[1])

    def test_h1_induced_triangle(self, h1):
        rep = partition_connectivity(h1.induced("123"))
        assert rep.value == Fraction(3, 2)
        assert rep.fundamental == Partition.singletons("123")

    def test_h3(self, h3):
        rep = partition_connectivity(h3)
        assert rep.value == 1
        assert blocks(rep.fundamental) == [
            ("1", "2"), ("3", "4", "8"), ("5",), ("6",), ("7",), ("9",),
        ]

    def test_h5(self, h5):
        rep = partition_connectivity(h5)
        assert rep.value == 1
        assert blocks(rep.fundamental) == [
            ("1", "2", "3", "4", "5"),
            ("v1",), ("v2",), ("v3",), ("v4",), ("v5",), ("v6",),
        ]

    def test_h4_loops_do_not_matter(self, h4):
        rep = partition_connectivity(h4)
        assert rep.value == 1
        assert rep.fundamental == Partition.singletons(h4.vertices)

    def test_every_optimizer_is_coarser_than_fundamental(self, h1, h3, swept_codes):
        for h in (h1, h3):
            rep = partition_connectivity(h)
            minimizers = _partitions(h, swept_codes(h)[1])
            assert all(rep.fundamental.refines(p) for p in minimizers)

    def test_disconnected_value_zero_components_fundamental(self):
        h = Hypergraph("1234", [("a", "12", 1), ("b", "34", 1)])
        rep = partition_connectivity(h)
        assert rep.value == 0
        assert blocks(rep.fundamental) == [("1", "2"), ("3", "4")]

    def test_single_vertex_is_an_error(self):
        with pytest.raises(EmptyVertexSet):
            partition_connectivity(Hypergraph("1", []))


class TestMMI:
    def test_weighted_h1_differs_from_unit(self, h1):
        rep = mmi(h1)
        assert rep.value == 1
        # weights pull 5 and 6 into the core block; the unit functional keeps them out
        assert blocks(rep.fundamental) == [("1", "2", "3", "5", "6"), ("4",)]

    def test_h2(self, h2):
        rep = mmi(h2)
        assert rep.value == 1
        assert blocks(rep.fundamental) == [("1", "2", "3"), ("4",), ("5",)]

    def test_restrict_to_triangle(self, h1):
        assert mmi(h1.induced("123")).value == 3
        assert mmi(h1.induced([1, 2, 3])).value == 3

    def test_induced_refuses_an_empty_or_unknown_set(self, h1):
        with pytest.raises(EmptyVertexSet):
            mmi(h1.induced(""))
        with pytest.raises(UnknownVertex):
            mmi(h1.induced("19"))

    def test_unit_weights_agree_with_partition_connectivity(self, h3, h5):
        for h in (h3, h5):
            a, b = mmi(h), partition_connectivity(h)
            assert a.value == b.value
            assert blocks(a.fundamental) == blocks(b.fundamental)


def _is_mch_by_rebuild(h):
    """The definition: connected, and deleting any one edge disconnects."""
    if not h.is_connected():
        return False
    return not any(
        Hypergraph(h.vertices, [e for e in h.edges if e.id != skip.id]).is_connected()
        for skip in h.edges
    )


def _assert_fast_path_matches_oracle(h):
    for fast, weighted in ((partition_connectivity(h), False), (mmi(h), True)):
        sweep = _cached_sweep(h, weighted)
        assert (fast.value, fast.fundamental) == (sweep.value, sweep.fundamental), (
            sorted((e.id, sorted(e.members), e.weight) for e in h.edges),
            weighted,
        )


def _random_mch(rng, n, max_weight):
    """A random hypertree with extra members added to about half its edges,
    kept once it is an MCH by the rebuild definition."""
    names = [f"v{i}" for i in range(n)]
    while True:
        order = names[:]
        rng.shuffle(order)
        edges, placed, i = [], [order[0]], 1
        while i < n:
            k = rng.randint(1, min(3, n - i))
            edges.append({rng.choice(placed), *order[i:i + k]})
            placed += order[i:i + k]
            i += k
        for members in edges:
            if rng.random() < 0.5:
                members.add(rng.choice(names))
        h = Hypergraph(
            names,
            [(f"e{j}", members, rng.randint(1, max_weight)) for j, members in enumerate(edges)],
        )
        if _is_mch_by_rebuild(h):
            return h


def _family(name, n):
    """Edges of an n-vertex path, star or cyclic-core MCH over vertices
    0..n-1, and its fundamental partition, for unit weights and for weights
    that are 2 except on edge 0, which weighs 1."""
    if name == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
        unit = [{i} for i in range(n)]
        weighted = [{0}, set(range(1, n))]
    elif name == "star":
        edges = [(0, i, i + 1) for i in range(1, n - 1, 2)]
        if n % 2 == 0:
            edges.append((0, n - 1))
        unit = [{i} for i in range(n)]
        weighted = [{1}, {2}, {0} | set(range(3, n))]
    else:
        # five 3-vertex edges around a 5-cycle, pendant i + 5 on edge i, and
        # a path of 2-vertex edges hung off pendant 9
        edges = [(i, (i + 1) % 5, 5 + i) for i in range(5)]
        edges += [(v - 1, v) for v in range(10, n)]
        unit = [set(range(5))] + [{i} for i in range(5, n)]
        weighted = [{5}, set(range(n)) - {5}]
    return edges, unit, weighted


def _family_hypergraph(edges, n, heavy):
    return Hypergraph(
        [str(i) for i in range(n)],
        [
            (f"e{j}", [str(v) for v in e], 2 if heavy and j else 1)
            for j, e in enumerate(edges)
        ],
    )


def _as_partition(blocks):
    return Partition.from_blocks([{str(v) for v in b} for b in blocks])


class TestMchFastPath:
    def test_census_mchs_match_the_oracle(self):
        """Every instance of the criterion-9 census (|V| <= 5, |E| <= 4, unit
        weights): linear is_mch equals the rebuild definition, and on MCHs
        both functionals equal the enumeration, also with weights 1 and 2."""
        mchs = 0
        for n in (2, 3, 4, 5):
            names = [str(i + 1) for i in range(n)]
            member_sets = [
                [names[v] for v in range(n) if mask >> v & 1] for mask in range(1 << n)
            ]
            for m in range(5):
                for combo in combinations_with_replacement(range(1, 1 << n), m):
                    h = Hypergraph(
                        names,
                        [(f"e{j}", member_sets[mask], 1) for j, mask in enumerate(combo)],
                    )
                    assert h.is_mch() == _is_mch_by_rebuild(h), (n, combo)
                    if h.is_mch():
                        mchs += 1
                        _assert_fast_path_matches_oracle(h)
                        _assert_fast_path_matches_oracle(Hypergraph(
                            names,
                            [(e.id, e.members, 1 + j % 2) for j, e in enumerate(h.edges)],
                        ))
        assert mchs == 521

    def test_random_mchs_match_the_oracle(self):
        rng = random.Random(11)
        cyclic = 0
        for n, count in [(n, 30) for n in range(2, 9)] + [(9, 8), (10, 3)]:
            for _ in range(count):
                h = _random_mch(rng, n, 3)
                cyclic += bool(h.cyclic_cores())
                _assert_fast_path_matches_oracle(h)
        assert cyclic >= 60  # the cyclic-core branch is exercised

    def test_is_mch_matches_rebuild_on_random_mch_proposals(self):
        rng = random.Random(5)
        accepted = 0
        for n, m in [(3, 2), (5, 3), (6, 4), (7, 5), (8, 5), (8, 6)] * 300:
            h = _propose(rng, [str(i + 1) for i in range(n)], m, 3)
            if h is not None:
                assert h.is_mch() == _is_mch_by_rebuild(h)
                accepted += h.is_mch()
        assert accepted >= 50

    @pytest.mark.parametrize("n", [13, 100, 10**4])
    @pytest.mark.parametrize("name", ["path", "star", "core"])
    def test_closed_form_families_at_any_size(self, name, n):
        edges, unit, weighted = _family(name, n)
        flat = _family_hypergraph(edges, n, heavy=False)
        assert flat.is_mch()
        for report in (partition_connectivity(flat), mmi(flat)):
            assert report.value == 1
            assert report.fundamental == _as_partition(unit)
        heavy = _family_hypergraph(edges, n, heavy=True)
        assert partition_connectivity(heavy).fundamental == _as_partition(unit)
        report = mmi(heavy)
        assert report.value == 1
        assert report.fundamental == _as_partition(weighted)

    def test_large_non_mch_is_still_refused(self):
        cycle = Hypergraph(
            [str(i) for i in range(13)],
            [(f"e{i}", [str(i), str((i + 1) % 13)], 1) for i in range(13)],
        )
        assert not cycle.is_mch()
        with pytest.raises(GroundTooLarge):
            partition_connectivity(cycle)
        with pytest.raises(GroundTooLarge):
            mmi(cycle)

    def test_failed_certificate_raises(self, h1, monkeypatch):
        # without its cyclic core, h1's singleton partition leaves the
        # triangle 1-2-3 uncontracted and misses the lower bound
        monkeypatch.setattr(Hypergraph, "cyclic_cores", lambda self: ())
        with pytest.raises(SemiLatticeViolation):
            partition_connectivity(h1)


def _assert_sweep_matches_oracle(sweep, h):
    """Both functionals: value, fundamental partition and every minimizer,
    in enumeration order, as the per-partition recount gives them; sweep is
    the swept_codes fixture, which reads the minimizers off the sweep's
    fold."""
    for weighted in (False, True):
        weights = tuple(e.weight if weighted else Fraction(1) for e in h.edges)
        try:
            expected = oracles.minimizer_sweep(h, weights)
        except SemiLatticeViolation:
            with pytest.raises(SemiLatticeViolation):
                sweep(h, weighted)
            continue
        got, codes = sweep(h, weighted)
        assert (got.value, got.fundamental, _partitions(h, codes)) == (
            expected.value,
            expected.fundamental,
            expected.minimizers,
        ), (sorted((e.id, sorted(e.members), e.weight) for e in h.edges), weighted)


class TestSweepMatchesRecountOracle:
    def test_census(self, swept_codes):
        """Every hypergraph with |V| <= 4 and |E| <= 4, every 100th with
        |V| = 5 (the whole census takes about 35 s), weights alternating
        1 and 2: disconnected, loop and parallel-edge shapes included."""
        checked = 0
        for n in (2, 3, 4, 5):
            names = [str(i + 1) for i in range(n)]
            member_sets = [
                [names[v] for v in range(n) if mask >> v & 1] for mask in range(1 << n)
            ]
            for m in range(5):
                combos = combinations_with_replacement(range(1, 1 << n), m)
                for k, combo in enumerate(combos):
                    if n == 5 and k % 100:
                        continue
                    _assert_sweep_matches_oracle(swept_codes, Hypergraph(
                        names,
                        [
                            (f"e{j}", member_sets[mask], 1 + j % 2)
                            for j, mask in enumerate(combo)
                        ],
                    ))
                    checked += 1
        assert checked == 4767

    def test_random_weighted_hypergraphs(self, swept_codes):
        rng = random.Random(23)
        shapes = {"disconnected": 0, "loop": 0, "parallel": 0, "mch": 0}
        for n, count in [(n, 16) for n in range(2, 8)] + [(8, 8), (9, 2), (10, 1)]:
            names = [f"v{i}" for i in range(n)]
            for _ in range(count):
                edges = []
                for j in range(rng.randint(n // 2, n + 1)):
                    members = rng.sample(names, rng.randint(1, min(n, 4)))
                    if edges and rng.random() < 0.1:
                        members = sorted(edges[-1][1])  # a parallel edge
                    weight = Fraction(rng.randint(1, 6), rng.randint(1, 3))
                    edges.append((f"e{j}", members, weight))
                h = Hypergraph(names, edges)
                shapes["disconnected"] += not h.is_connected()
                shapes["loop"] += bool(h.loop_edges())
                shapes["parallel"] += len({e.members for e in h.edges}) < len(h.edges)
                shapes["mch"] += h.is_mch()
                _assert_sweep_matches_oracle(swept_codes, h)
            for _ in range(3 if n < 9 else 0):  # fuzz sweeps MCHs
                shapes["mch"] += 1
                _assert_sweep_matches_oracle(swept_codes, _random_mch(rng, n, 3))
        assert min(shapes.values()) >= 5, shapes

    def test_cycle(self, swept_codes):
        """A cycle is not an MCH, so both functionals take the sweep; the
        singleton partition is the unique minimizer, at n / (n - 1)."""
        n = 9
        cycle = Hypergraph(
            [str(i) for i in range(n)],
            [(f"e{i}", [str(i), str((i + 1) % n)], 1) for i in range(n)],
        )
        _assert_sweep_matches_oracle(swept_codes, cycle)
        assert partition_connectivity(cycle).value == Fraction(n, n - 1)

    def test_edgeless(self, swept_codes):
        """Every proper partition is a minimizer, at 0, so the meet folds
        over Bell(n) - 1 of them down to the singletons."""
        h = Hypergraph([f"v{i}" for i in range(7)], [])
        _assert_sweep_matches_oracle(swept_codes, h)
        assert len(swept_codes(h)[1]) == 876
        report = partition_connectivity(h)
        assert (report.value, report.fundamental) == (0, Partition.singletons(h.vertices))

    # The sweep skips a subtree when no completion can tie the best so far;
    # these inputs are where that bound cuts hardest or is closest to wrong.

    @pytest.mark.parametrize(
        "n, cycle, chords, pendants",
        [
            # a 7-cycle, weights 1-3, with a chord, two pendants and a
            # three-member edge hanging a third pendant off the cycle
            (10, 7, [((0, 3), 2)], [((1, 7), 3), ((4, 8), 1), ((5, 9, 2), 2)]),
            # a 6-cycle with a light chord and a pendant path of two edges
            (9, 6, [((1, 4), 1)], [((0, 6), 2), ((3, 7), 3), ((7, 8), 1)]),
            # a 9-cycle with two crossing chords
            (9, 9, [((0, 4), 1), ((2, 7), 3)], []),
        ],
        ids=["10-vertex", "9-vertex-pendant-path", "9-cycle-crossing-chords"],
    )
    def test_weighted_cycles_with_chords_and_pendants(
        self, swept_codes, n, cycle, chords, pendants
    ):
        edges = [((i, (i + 1) % cycle), i % 3 + 1) for i in range(cycle)]
        h = Hypergraph(
            [f"v{i}" for i in range(n)],
            [
                (f"e{j}", [f"v{i}" for i in members], weight)
                for j, (members, weight) in enumerate(edges + chords + pendants)
            ],
        )
        assert h.is_connected() and not h.is_mch()
        _assert_sweep_matches_oracle(swept_codes, h)

    def test_disconnected_host_with_a_cyclic_component(self, swept_codes):
        """A weighted triangle with a pendant, a 4-cycle and an isolated
        vertex: three components, so every minimizer is at 0."""
        h = Hypergraph(
            [f"v{i}" for i in range(9)],
            [
                ("a", ["v0", "v1"], 2), ("b", ["v1", "v2"], 3), ("c", ["v2", "v0"], 2),
                ("d", ["v2", "v3"], Fraction(1, 2)),
                ("e", ["v4", "v5"], 1), ("f", ["v5", "v6"], 2),
                ("g", ["v6", "v7"], 1), ("h", ["v7", "v4"], 3),
            ],
        )
        _assert_sweep_matches_oracle(swept_codes, h)
        report = mmi(h)
        assert report.value == 0 and len(report.fundamental) == 3

    def test_a_loop_lighter_than_every_crossing_edge(self, swept_codes):
        """The least weight is a loop's, which never crosses a block."""
        h = Hypergraph(
            [f"v{i}" for i in range(9)],
            [(f"c{i}", [f"v{i}", f"v{(i + 1) % 6}"], 3 + i % 2) for i in range(6)]
            + [
                ("loop", ["v2"], Fraction(1, 3)),
                ("p", ["v0", "v6"], 2), ("q", ["v3", "v7", "v8"], 5),
            ],
        )
        assert h.loop_edges() == ("loop",)
        _assert_sweep_matches_oracle(swept_codes, h)

    def test_a_non_mch_with_many_ties_at_the_optimum(self, swept_codes):
        """Every path edge doubled: each partition into runs of the path
        ties at 2 for the unit functional."""
        names = [f"v{i}" for i in range(9)]
        h = Hypergraph(
            names,
            [
                (f"{side}{i}", [names[i], names[i + 1]], weight)
                for i in range(8)
                for side, weight in (("a", 1), ("b", 1 + i % 2))
            ],
        )
        _assert_sweep_matches_oracle(swept_codes, h)
        assert len(swept_codes(h)[1]) == 2**8 - 1


DENOMINATORS = (2, 3, 7, 10**18 + 9)


def _scaled_family(name, n, rng):
    """An n-vertex path or star of _family, or H1's triangle core with a
    pendant per edge and a path tail, with weights whose denominators are
    drawn from DENOMINATORS and whose numerators lie near 2^64; about one
    edge in three repeats the weight of an earlier one."""
    if name == "core":
        edges = [(i, (i + 1) % 3, 3 + i) for i in range(3)]
        edges += [(v - 1, v) for v in range(6, n)]
    else:
        edges, _, _ = _family(name, n)
    weights = []
    for _ in edges:
        if weights and rng.random() < 0.3:
            weights.append(rng.choice(weights))
        else:
            numerator = 2**64 + rng.randrange(-40, 40)
            weights.append(Fraction(numerator, rng.choice(DENOMINATORS)))
    return Hypergraph(
        [f"v{i}" for i in range(n)],
        [(f"e{j}", [f"v{i}" for i in e], w) for j, (e, w) in enumerate(zip(edges, weights))],
    )


class TestIntegerScaledWeights:
    """The MCH answer path reads weights as integers over one common
    denominator; the Bell sweep and Fraction references written here read
    the Edge weights."""

    @pytest.mark.parametrize("name, n", [("path", 7), ("star", 8), ("core", 8)])
    def test_functionals_match_the_sweep(self, name, n):
        rng = random.Random(n)
        for _ in range(6):
            h = _scaled_family(name, n, rng)
            assert h.is_mch()
            for fast, weighted in ((partition_connectivity(h), False), (mmi(h), True)):
                sweep = _cached_sweep(h, weighted)
                assert (fast.value, fast.fundamental) == (sweep.value, sweep.fundamental)

    @pytest.mark.parametrize("name, n", [("path", 40), ("star", 41), ("core", 30)])
    def test_min_weight_and_quantize_match_fractions(self, name, n):
        rng = random.Random(n)
        for _ in range(6):
            h = _scaled_family(name, n, rng)
            weights = [e.weight for e in h.edges]
            assert h.min_weight() == min(weights)
            assert mmi(h).value == min(weights)
            for rate in (min(weights), min(weights) / 3, Fraction(1, 10**18 + 9), 0):
                rate = Fraction(rate)
                shape = quantize(h, rate)
                scale = lcm(rate.denominator, *(w.denominator for w in weights))
                assert shape.scale == scale
                assert shape.edge_lengths == tuple(
                    (e.id, int(e.weight * scale)) for e in h.edges
                )
                assert all((e.weight * scale).denominator == 1 for e in h.edges)
                assert shape.key_length == rate * scale


class TestSweepCache:
    def test_unit_weights_share_one_sweep(self, h1):
        """The sweep is cached per functional, and a hypergraph whose
        weights are all one sweeps once for both."""
        unit = Hypergraph(h1.vertices, [(e.id, e.members, 1) for e in h1.edges])
        assert _cached_sweep(unit, True) is _cached_sweep(unit, False)
        weighted = _cached_sweep(h1, True)
        assert weighted is _cached_sweep(h1, True)
        assert weighted != _cached_sweep(h1, False)
        assert weighted.value == 1


# SHA-256 of `--json analyze` stdout on the 10-vertex scale_walls cycles
ANALYZE_SHA256 = {
    "unit": "af615e3e605cba7df0a2400c4832980def4c2e420b55adbae2463ec630fffc47",
    "weights 1-3": "1e339105da950683aaaae3ee1c29da103c910605c17f002e6c9b08647f9f22eb",
}


def _counted_sweeps(monkeypatch):
    """The list that every later _minimizer_sweep call appends its
    arguments to."""
    calls = []
    real = partitions._minimizer_sweep

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(partitions, "_minimizer_sweep", counted)
    return calls


class TestOneSweepEntry:
    """_cached_sweep is the one entry to the Bell sweep: a hypergraph sweeps
    once per distinct functional, whether partition_connectivity and mmi
    (on a non-MCH) or the property suites (on an MCH) ask first, and a
    non-MCH's answer is the cached sweep's report itself."""

    @pytest.mark.parametrize("name, sweeps", [("unit", 1), ("weights 1-3", 2)])
    def test_a_ten_cycle_sweeps_once_per_functional(self, monkeypatch, name, sweeps):
        calls = _counted_sweeps(monkeypatch)
        h = hgio.parse(scale_walls.cycle_text(10, scale_walls.CYCLE_WEIGHTS[name]))
        unit = partition_connectivity(h)
        weighted = mmi(h)
        assert len(calls) == sweeps
        assert unit is _cached_sweep(h, False)
        assert weighted is _cached_sweep(h, True)
        assert (weighted is unit) == (sweeps == 1)
        assert len(calls) == sweeps
        assert unit.value == Fraction(10, 9)

    def test_the_suites_sweep_a_ten_vertex_mch_once_per_functional(self, monkeypatch):
        """A 5-vertex cyclic core with a pendant on each edge, weights 1-3,
        so the two functionals differ: the answers take the linear path,
        and lemma_violations and the round trips at C and C/2 share one
        sweep per functional."""
        calls = _counted_sweeps(monkeypatch)
        h = hgio.parse(scale_walls.ring_text(5, random.Random(1)))
        assert h.is_mch() and len(h.vertices) == 10
        assert len({e.weight for e in h.edges}) > 1
        unit, weighted = partition_connectivity(h), mmi(h)
        assert calls == []
        assert lemma_violations(h) == []
        cap = unconstrained_capacity(h)
        for rate in (cap, cap / 2):
            assert scheme_round_trip_violations(h, rate) == []
        assert sorted(w for _, w in calls) == [False, True]  # one per functional
        assert partition_connectivity(h) is unit and mmi(h) is weighted
        assert _cached_sweep(h, False).fundamental == unit.fundamental
        assert _cached_sweep(h, True).fundamental == weighted.fundamental
        assert len(calls) == 2

    def test_connectivity_is_the_cached_sweep_report(self, monkeypatch, request):
        # value 0 on one edge {0, 1}: every partition keeping 0 and 1
        # together is a minimizer, Bell(9) - 1 = 21146 of them at 10
        # vertices, and Bell(7) - 1 = 876 at 8
        big = Hypergraph([str(i) for i in range(10)], [("a", ["0", "1"], 1)])
        tracemalloc.start()
        try:
            assert partition_connectivity(big).value == mmi(big).value == 0
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20
        assert partition_connectivity(big) is mmi(big) is _cached_sweep(big, False)

        h = Hypergraph([str(i) for i in range(8)], [("a", ["0", "1"], 1)])
        swept_codes = request.getfixturevalue("swept_codes")  # after the above
        _assert_sweep_matches_oracle(swept_codes, h)
        assert len(swept_codes(h)[1]) == 876
        calls = _counted_sweeps(monkeypatch)
        assert mmi(h) is partition_connectivity(h) is _cached_sweep(h, True)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", scale_walls.CYCLE_WEIGHTS)
    def test_analyze_prints_what_two_sweep_callers_printed(self, tmp_path, capsys, name):
        """`--json analyze` stdout on each cycle is pinned byte for byte: the
        shared sweep prints what a sweep per functional printed."""
        path = tmp_path / "cycle.hg"
        path.write_text(scale_walls.cycle_text(10, scale_walls.CYCLE_WEIGHTS[name]))
        assert main(["--json", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[name], out


class TestMeetOfCodes:
    """_MeetFold on bare restricted-growth codes, as a sweep feeds it: each
    run is the leaves at one value, better than the run before, so its first
    code restarts the fold and the rest tie; a meet attains the value when
    it is a code of the current run."""

    @staticmethod
    def _finest(*runs):
        current = []
        fold = _MeetFold(lambda meet: meet in current)
        for run in runs:
            current[:] = run
            fold.restart(run[0])
            for code in run[1:]:
                fold.tie(code)
        return fold.finest()

    def test_folds_to_the_common_refinement(self):
        # {0,1 | 2}, {0 | 1,2} and their meet, the singletons
        assert self._finest([(0, 0, 1), (0, 1, 1), (0, 1, 2)]) == (0, 1, 2)
        # {0,2 | 1,3} and {0,1 | 2,3} meet in {0 | 1 | 2 | 3}; {0,2 | 1 | 3} is coarser
        codes = [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 2, 3)]
        assert self._finest(codes) == (0, 1, 2, 3)
        assert self._finest([(0, 1, 1, 0)]) == (0, 1, 1, 0)

    def test_a_meet_outside_the_set_raises(self):
        with pytest.raises(SemiLatticeViolation):
            self._finest([(0, 0, 1), (0, 1, 1)])

    def test_a_prefix_meet_outside_the_set_raises_though_the_last_is_in(self):
        # A ^ B = {0 | 1,2 | 3} is no minimizer; the final meet C is one
        a, b, c = (0, 0, 0, 1), (0, 1, 1, 1), (0, 1, 2, 3)
        with pytest.raises(SemiLatticeViolation):
            self._finest([a, b, c])

    def test_a_break_at_a_beaten_value_is_dropped(self):
        a, b = (0, 0, 1), (0, 1, 1)
        assert self._finest([a, b], [(0, 1, 0)]) == (0, 1, 0)
        assert self._finest([a, b], [(0, 1, 0), (0, 1, 2)]) == (0, 1, 2)

    def test_a_recording_fold_lists_the_codes_at_the_best_value(self):
        """The tests' RecordingFold lists the codes a new best value starts
        and its ties add, and folds the meet as _MeetFold does."""
        fold = RecordingFold(lambda meet: True)
        fold.restart((0, 0, 1))
        fold.tie((0, 1, 1))
        assert fold.codes == [(0, 0, 1), (0, 1, 1)]
        fold.restart((0, 1, 0))
        fold.tie((0, 1, 2))
        assert fold.codes == [(0, 1, 0), (0, 1, 2)]
        assert fold.finest() == (0, 1, 2)


# SHA-256 of `--json analyze` stdout on scale_walls.ties_text(name, 10),
# recorded while the sweep still listed every minimizer for analyze
TIES_ANALYZE_SHA256 = {
    "no edges": "e2c38917721871c034f17cf591e8924afbb74f97c505f3c54c51b0aa940c6536",
    "two parallel edges": (
        "a7dc2ffa837e7b03da1db5b76367653d5579184d2d4dc21e013454f89384ecae"
    ),
}


class TestTiesKeepNoCodes:
    """The sweep folds the finest minimizer as it walks, so the 115,974
    tied proper partitions of 10 vertices with no edges, or with two
    parallel edges over all ten, cost no memory per minimizer, neither
    while partition_connectivity and mmi sweep nor in the cached sweep."""

    @pytest.mark.parametrize("name", TIES_ANALYZE_SHA256)
    def test_peak_memory_stays_small(self, name):
        h = hgio.parse(scale_walls.ties_text(name, 10))
        tracemalloc.start()
        try:
            unit, weighted = partition_connectivity(h), mmi(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        singletons = Partition.singletons(h.vertices)
        assert unit.fundamental == weighted.fundamental == singletons
        assert unit.value == weighted.value == (2 if h.edges else 0)
        assert unit is weighted is _cached_sweep(h, True)

    @pytest.mark.parametrize("name", TIES_ANALYZE_SHA256)
    def test_the_cached_sweep_holds_under_a_mebibyte(self, name):
        h = hgio.parse(scale_walls.ties_text(name, 10))
        tracemalloc.start()
        try:
            sweep = _cached_sweep(h, False)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20, held
        assert sweep.fundamental == Partition.singletons(h.vertices)

    @pytest.mark.parametrize("name", TIES_ANALYZE_SHA256)
    def test_analyze_prints_the_listing_sweeps_bytes(self, tmp_path, capsys, name):
        path = tmp_path / "ties.hg"
        path.write_text(scale_walls.ties_text(name, 10))
        assert main(["--json", "analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == TIES_ANALYZE_SHA256[name], out


def test_connectivity_matches_the_recount_oracle_on_weighted_non_mchs():
    """partition_connectivity and mmi, which sweep without listing codes, on
    fresh random weighted hypergraphs of 2-10 vertices that are no MCH."""
    rng = random.Random(77)
    checked = 0
    for n, count in [(n, 10) for n in range(2, 8)] + [(8, 5), (9, 2), (10, 1)]:
        names = [f"v{i}" for i in range(n)]
        while count:
            edges = [
                (f"e{j}", rng.sample(names, rng.randint(1, min(n, 4))),
                 Fraction(rng.randint(1, 6), rng.randint(1, 3)))
                for j in range(rng.randint(0, n + 1))
            ]
            h = Hypergraph(names, edges)
            if h.is_mch():
                continue
            count -= 1
            for report, weighted in ((partition_connectivity(h), False), (mmi(h), True)):
                weights = tuple(e.weight if weighted else Fraction(1) for e in h.edges)
                expected = oracles.minimizer_sweep(h, weights)
                assert (report.value, report.fundamental) == (
                    expected.value, expected.fundamental,
                ), (edges, weighted)
            checked += 1
    assert checked == 68
