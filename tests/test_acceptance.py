"""Acceptance criteria, one test per criterion.

Every numeric assertion is exact rational or integer equality.  Criteria 1-7
freeze hand-derived values for the five reference fixtures.  Criteria 8-11
are property checks over seed-pinned generated instances; criterion 9
additionally re-derives both sides of the census equivalence with
first-written oracles (union-find over the incidence graph on the left,
integer crossing-count tables on the right) and cross-validates the library
on a deterministic subsample.

The run summary prints one PASS/FAIL line per criterion (see conftest).
"""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from hyperkey import (
    Hypergraph,
    Partition,
    brute_force_secrecy,
    communication_complexity,
    constrained_capacity,
    crossing_count,
    lemma_violations,
    partition_connectivity,
    quantize,
    random_mch_with_stats,
    region_spec,
    scheme_round_trip_violations,
    synthesize,
    unconstrained_capacity,
    verify,
)

import oracles

# (vertex_count, edge_count, max_weight) cycle for the seed-pinned generator;
# every entry stays inside the generator bounds and admits an MCH quickly
FUZZ_MENU = [
    (2, 1, 1), (3, 2, 2), (4, 2, 3), (4, 3, 1), (5, 3, 2), (5, 4, 1),
    (6, 3, 3), (6, 4, 1), (6, 5, 1), (7, 4, 2), (7, 5, 1), (8, 4, 3),
    (8, 5, 1), (8, 6, 2),
]


def blocks(partition):
    return sorted(tuple(sorted(b)) for b in partition.blocks)


@pytest.fixture(scope="module")
def fuzz_pool():
    pool = []
    for seed in range(200):
        n, m, w = FUZZ_MENU[seed % len(FUZZ_MENU)]
        pool.append((seed, random_mch_with_stats(n, m, w, seed=seed)[0]))
    return pool


def test_criterion_01_h1_connectivity(h1):
    rep = partition_connectivity(h1)
    assert rep.value == 1
    assert blocks(rep.fundamental) == [("1", "2", "3"), ("4",), ("5",), ("6",)]

    triangle = partition_connectivity(h1.induced("123"))
    assert triangle.value == Fraction(3, 2)
    assert triangle.fundamental.is_singletons()

    p = Partition.from_blocks([{"1", "2", "3"}, {"4", "5"}, {"6"}])
    assert Fraction(crossing_count(h1, p), len(p.blocks) - 1) == Fraction(3, 2)


def test_criterion_02_h1_region(h1):
    spec = region_spec(h1)
    assert spec.key_cap == 1
    got = {(frozenset(s), c) for s, c in spec.constraints}
    assert got == {
        (frozenset("12"), 1),
        (frozenset("13"), 1),
        (frozenset("23"), 1),
        (frozenset("123"), 2),
    }


def test_criterion_03_h1_capacities(h1):
    assert unconstrained_capacity(h1) == 1
    evaluated = {r: constrained_capacity(h1, Fraction(r)) for r in (0, 1, 2, 5)}
    assert evaluated == {0: 0, 1: Fraction(1, 2), 2: 1, 5: 1}
    assert all(v == min(Fraction(r, 2), Fraction(1)) for r, v in evaluated.items())
    assert communication_complexity(h1) == 2


def test_criterion_04_h2_hypertree_region(h2):
    spec = region_spec(h2)
    assert spec.key_cap == 1
    got = {(frozenset(s), c) for s, c in spec.constraints}
    assert got == {(frozenset("1"), 1), (frozenset("3"), 1)}
    kappa = {
        v: h2.remove_vertices([v]).component_count() for v in sorted(h2.vertices)
    }
    assert kappa == {"1": 2, "2": 1, "3": 2, "4": 1, "5": 1}


def test_criterion_05_h3_structure(h3):
    rep = partition_connectivity(h3)
    assert blocks(rep.fundamental) == [
        ("1", "2"), ("3", "4", "8"), ("5",), ("6",), ("7",), ("9",),
    ]

    inc = h3.incident_restriction("12")
    assert {v: inc.degree(v) for v in sorted(inc.vertices)} == {
        "1": 2, "2": 3, "3": 1, "5": 1, "6": 1,
    }

    kappa = {
        s: h3.remove_vertices(s).component_count() for s in ("34", "48", "348", "4")
    }
    assert kappa == {"34": 2, "48": 1, "348": 3, "4": 1}
    assert kappa["34"] + kappa["48"] <= kappa["348"] + kappa["4"]  # 2+1 <= 3+1


def test_criterion_06_h4_loops(h4):
    assert h4.is_connected()
    assert h4.find_berge_cycle() is None
    assert h4.loop_edges() == ("d", "e")
    rep = partition_connectivity(h4)
    assert rep.value == 1
    assert rep.fundamental.is_singletons()
    assert not h4.is_hypertree()


def test_criterion_07_h5_scheme_replay(h5):
    scheme, used = synthesize(h5, {frozenset("12345"): tuple("12345")})
    core = next(order for block, order in used.items() if len(block) > 1)
    assert oracles.spoken(scheme, core) == [
        ("1", ()),
        ("2", (("e1", "e2"),)),
        ("3", (("e2", "e3"), ("e3", "e4"))),
        ("4", (("e5", "e6"),)),
        ("5", (("e4", "e6"),)),
    ]
    assert len(scheme.rows) == 5
    masks = oracles.row_masks(scheme.rows, 6)
    assert oracles.rank(masks) == 5
    # appending any single-edge indicator column reaches full rank 6
    assert all(oracles.rank_with(masks, 1 << i) == 6 for i in range(6))


def test_criterion_08_lemma_identities_fuzz(fuzz_pool):
    assert len(fuzz_pool) == 200
    failures = []
    for seed, h in fuzz_pool:
        found = lemma_violations(h, rng=random.Random(seed))
        if found:
            failures.append((seed, found))
    assert failures == []


def test_criterion_09_census_equivalence():
    """(connected and cycle-free) iff (I(H)=1 with singleton P*), exhaustively.

    Left side per instance: the library predicate.  Right side per instance:
    an integer oracle over precomputed partition tables; I(H)=1 with singleton
    fundamental partition holds exactly when the singleton crossing count is
    |V|-1 while no proper partition crosses fewer than |P|-1 edge units.
    Every 97th instance additionally cross-checks the full library report and
    a union-find rebuild of the left side.
    """
    total = 0
    checked_library = 0
    for n in (2, 3, 4, 5):
        names = [str(i + 1) for i in range(n)]
        member_sets = [
            [names[v] for v in range(n) if mask >> v & 1] for mask in range(1 << n)
        ]
        popcount = [bin(mask).count("1") for mask in range(1 << n)]

        proper = []  # proper partitions as tuples of block masks
        def grow(i, built):
            if i == n:
                if len(built) >= 2:
                    proper.append(tuple(built))
                return
            for j in range(len(built)):
                grow(i + 1, built[:j] + [built[j] | (1 << i)] + built[j + 1:])
            grow(i + 1, built + [1 << i])
        grow(0, [])
        # crossing units contributed by an edge mask, per partition
        table = [
            [sum(1 for b in p if b & mask) - 1 for mask in range(1 << n)]
            for p in proper
        ]
        slack = [len(p) - 1 for p in proper]

        for m in range(0, 5):
            for combo in combinations_with_replacement(range(1, 1 << n), m):
                total += 1
                h = Hypergraph(
                    names,
                    [(f"e{j}", member_sets[mask], 1) for j, mask in enumerate(combo)],
                )
                left = h.is_connected_and_cycle_free()

                right = sum(popcount[mask] - 1 for mask in combo) == n - 1
                if right:
                    for row, s in zip(table, slack):
                        if sum(row[mask] for mask in combo) < s:
                            right = False
                            break
                assert left == right, (n, combo)

                if total % 97 == 0:
                    checked_library += 1
                    rep = partition_connectivity(h)
                    assert (rep.value == 1 and rep.fundamental.is_singletons()) == right
                    assert _connected_and_forest_by_union_find(n, combo) == left
    assert total == 56601
    assert checked_library == 583


def _connected_and_forest_by_union_find(n, combo):
    """Left-side rebuild: H is connected and Berge-cycle-free exactly when its
    vertex-edge incidence graph is a connected forest."""
    m = len(combo)
    parent = list(range(n + m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    incidences = 0
    components = n + m
    for j, mask in enumerate(combo):
        for v in range(n):
            if mask >> v & 1:
                incidences += 1
                a, b = find(v), find(n + j)
                if a != b:
                    parent[a] = b
                    components -= 1
    acyclic = incidences == (n + m) - components
    return components == 1 and acyclic


def _per_block_orders(h, max_block=4):
    """One orders mapping per permutation of each small non-singleton block,
    leaving every other block in canonical order."""
    fundamental = partition_connectivity(h).fundamental
    for block in sorted(fundamental.blocks, key=min):
        if 1 < len(block) <= max_block:
            for perm in permutations(sorted(block)):
                yield {block: perm}


@pytest.fixture(scope="module")
def theorem_pool(fuzz_pool):
    """Deterministic criterion-10 subset: the first six fuzzed instances plus
    the first ten whose fundamental partition has a non-singleton block of
    size at most 4 (so the permutation sweep has something to permute)."""
    chosen = [h for _, h in fuzz_pool[:6]]
    with_blocks = 0
    for seed, h in fuzz_pool:
        if with_blocks == 10:
            break
        fundamental = partition_connectivity(h).fundamental
        if any(1 < len(b) <= 4 for b in fundamental.blocks):
            chosen.append(h)
            with_blocks += 1
    assert with_blocks == 10
    return chosen


def test_criterion_10_end_to_end(theorem_pool):
    failures = []
    sweeps = 0
    for h in theorem_pool:
        cap = unconstrained_capacity(h)
        for key_rate in (cap, cap / 2):
            found = scheme_round_trip_violations(h, key_rate)
            if found:
                failures.append((sorted(h.edge_ids), key_rate, None, found))
            for orders in _per_block_orders(h):
                sweeps += 1
                found = scheme_round_trip_violations(h, key_rate, orders)
                if found:
                    failures.append((sorted(h.edge_ids), key_rate, orders, found))
    assert failures == []
    assert sweeps >= 40  # the permutation sweep must not be vacuous


def test_criterion_11_secrecy_oracle_cross_check(h1, theorem_pool):
    agreements = 0
    deepest = 0
    for h in theorem_pool:
        cap = unconstrained_capacity(h)
        for key_rate in (cap, cap / 2):
            bits = quantize(h, key_rate).total_bits()
            if bits > 14:
                continue
            scheme, _ = synthesize(h)
            by_rank = verify(scheme).secrecy_ok
            by_table = brute_force_secrecy(h, scheme, key_rate).perfect
            assert by_rank is True and by_table is True
            agreements += 1
            deepest = max(deepest, bits)
    assert agreements >= 18
    assert deepest >= 8  # at least one exhaustive table spans 256+ realizations

    # the oracles must also agree on a broken scheme
    scheme, _ = synthesize(h1)
    leak = dataclasses.replace(
        scheme,
        rows=scheme.rows + ((scheme.column(scheme.key_edge),),),
        speakers=scheme.speakers + (scheme.speakers[0],),
    )
    assert verify(leak).secrecy_ok is False
    assert brute_force_secrecy(h1, leak, Fraction(1)).perfect is False
