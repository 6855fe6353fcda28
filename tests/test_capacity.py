"""Secret-key capacities, the achievable region, and the outer bound."""

import random
from fractions import Fraction

import pytest

from hyperkey import (
    GroundTooLarge,
    Hypergraph,
    InvalidPartition,
    NegativeRate,
    NotMCH,
    Partition,
    RankFunction,
    RateTuple,
    RegionCheck,
    UnknownVertex,
    WeightsNotConvex,
    communication_complexity,
    compose_time_shared,
    constrained_capacity,
    decompose,
    entropy,
    in_region,
    quantize,
    random_mch_with_stats,
    rates_of,
    region_spec,
    scheme_round_trip_violations,
    synthesize,
    unconstrained_capacity,
)
from hyperkey.capacity import _as_fraction, outer_bound_deficit

import oracles


def rates(h, key_rate, **named):
    per_user = {v: named.get(f"r{v}", 0) for v in h.vertices}
    return RateTuple(Fraction(key_rate), per_user)


class TestCapacities:
    def test_unconstrained_is_min_edge_weight(self, h1, h2, h3, h5):
        assert unconstrained_capacity(h1) == 1
        assert unconstrained_capacity(h2) == 1
        assert unconstrained_capacity(h3) == 1
        assert unconstrained_capacity(h5) == 1
        scaled = Hypergraph("123456", [("a", "124", 2), ("b", "235", 6), ("c", "136", 4)])
        assert unconstrained_capacity(scaled) == 2

    def test_rejects_non_mch(self, h4, triangle):
        for h in (h4, triangle):
            with pytest.raises(NotMCH):
                unconstrained_capacity(h)

    def test_communication_complexity(self, h1, h2, h3, h5, single_edge):
        assert communication_complexity(h1) == 2
        assert communication_complexity(h2) == 2
        assert communication_complexity(h3) == 4
        assert communication_complexity(h5) == 5
        assert communication_complexity(single_edge) == 0

    @pytest.mark.parametrize(
        "total,expected",
        [(0, 0), (1, Fraction(1, 2)), (2, 1), (5, 1)],
    )
    def test_constrained_capacity_h1(self, h1, total, expected):
        assert constrained_capacity(h1, Fraction(total)) == expected

    def test_constrained_capacity_single_edge_ignores_rate(self):
        free = Hypergraph("12", [("a", "12", 5)])
        assert constrained_capacity(free, Fraction(0)) == 5

    def test_constrained_capacity_rejects_negative(self, h1):
        with pytest.raises(NegativeRate):
            constrained_capacity(h1, Fraction(-1))


class TestRegionSpec:
    def test_h1_constraints(self, h1):
        spec = region_spec(h1)
        assert spec.key_cap == 1
        got = {(tuple(sorted(s)), c) for s, c in spec.constraints}
        assert got == {
            (("1", "2"), 1),
            (("1", "3"), 1),
            (("2", "3"), 1),
            (("1", "2", "3"), 2),
        }
        assert sorted(tuple(sorted(b)) for b in spec.generator_blocks) == [
            ("1", "2", "3"), ("4",), ("5",), ("6",),
        ]

    def test_h2_constraints(self, h2):
        spec = region_spec(h2)
        assert spec.key_cap == 1
        got = {(tuple(sorted(s)), c) for s, c in spec.constraints}
        assert got == {(("1",), 1), (("3",), 1)}


    def test_matches_the_per_subset_oracle(self, h1, h2, h3, h5, single_edge):
        """Constraints read off the edges meeting each block equal one
        component search of all of h per removed subset, in the same order,
        on the fixtures, the census MCHs and random MCHs of 2-10 vertices."""
        inputs = [h1, h2, h3, h5, single_edge, *oracles.census_mchs()]
        inputs += oracles.random_mchs(400, seed=3)
        cores = 0
        for h in inputs:
            assert region_spec(h) == oracles.region_spec(h), h
            cores += any(len(b) > 1 for b in region_spec(h).generator_blocks)
        assert cores > 300

    def test_core_over_twelve_vertices_is_refused(self):
        """A 13-vertex cyclic core: a cycle of 3-member edges, each with a
        pendant; the refusal is the same as the per-subset search's."""
        names = [f"c{i}" for i in range(13)] + [f"p{i}" for i in range(13)]
        h = Hypergraph(
            names,
            [(f"e{i}", (f"c{i}", f"c{(i + 1) % 13}", f"p{i}"), 1) for i in range(13)],
        )
        for spec in (region_spec, oracles.region_spec):
            with pytest.raises(GroundTooLarge, match="13 vertices exceeds cap 12"):
                spec(h)


class TestRateTuple:
    def test_requires_every_vertex(self, h1):
        with pytest.raises(UnknownVertex):
            in_region(h1, RateTuple(Fraction(1), {"1": 1}))

    def test_rejects_vertices_outside_the_hypergraph(self, h1):
        per_user = {v: 1 for v in h1.vertices}
        per_user["zz"] = 5
        with pytest.raises(UnknownVertex):
            in_region(h1, RateTuple(Fraction(1), per_user))

    def test_rejects_negative_rates(self, h1):
        with pytest.raises(NegativeRate):
            in_region(h1, rates(h1, 1, r1=-1))

    def test_values_normalize_to_fractions(self, h1):
        rt = rates(h1, 1, r2=1)
        assert rt.per_user["2"] == Fraction(1)
        assert rt.key_rate == Fraction(1)


def _core(h):
    return RankFunction(h, frozenset("123"), Fraction(1))


# each public entry point that reads a rate, as a call on h1 and one value
RATE_READERS = {
    "constrained_capacity": lambda h, v: constrained_capacity(h, v),
    "RateTuple key_rate": lambda h, v: RateTuple(key_rate=v, per_user={}),
    "RateTuple per_user": lambda h, v: RateTuple(Fraction(1), {"1": v}),
    "quantize": lambda h, v: quantize(h, v),
    "RankFunction": lambda h, v: RankFunction(h, frozenset("123"), v),
    "rates_of": lambda h, v: rates_of(synthesize(h)[0], v),
    "decompose": lambda h, v: decompose(_core(h), {"1": v, "2": 1, "3": 1}),
    "scheme_round_trip_violations": lambda h, v: scheme_round_trip_violations(h, v),
}
UNREADABLE_RATES = ["abc", None, "1e3", "1/0", float("nan")]


class TestRateReader:
    """capacity._as_fraction reads every rate: a value that is not a
    rational is a NegativeRate wherever it is passed, never a stray
    ValueError or TypeError."""

    @pytest.mark.parametrize("value", UNREADABLE_RATES, ids=repr)
    @pytest.mark.parametrize("reader", RATE_READERS)
    def test_an_unreadable_rate_is_a_negative_rate(self, h1, reader, value):
        with pytest.raises(NegativeRate):
            RATE_READERS[reader](h1, value)

    @pytest.mark.parametrize("value", UNREADABLE_RATES, ids=repr)
    def test_an_unreadable_time_sharing_weight_is_not_convex(self, h1, value):
        with pytest.raises(WeightsNotConvex):
            compose_time_shared(h1, [(value, None)])

    def test_readable_forms_give_the_same_rate(self, h1):
        half = Fraction(1, 2)
        for value in ("1/2", "0.5", 0.5, half):
            assert constrained_capacity(h1, value) == constrained_capacity(h1, half)
            assert quantize(h1, value) == quantize(h1, half)
            assert RateTuple(value, {"1": value}) == RateTuple(half, {"1": half})
        assert _as_fraction(half) is half


class TestInRegion:
    def test_scheme_rates_are_inside(self, h1):
        check = in_region(h1, rates(h1, 1, r2=1, r3=1))
        assert check.ok and not check.key_cap_violated and check.violated is None

    def test_key_cap_violation(self, h1):
        check = in_region(h1, rates(h1, 2, r2=5, r3=5))
        assert not check.ok and check.key_cap_violated

    def test_subset_violation_names_the_constraint(self, h1):
        check = in_region(h1, rates(h1, 1, r3=1))
        assert not check.ok
        assert check.violated == (frozenset({"1", "2"}), 1)

    def test_fractional_rates_scale(self, h1):
        half = rates(h1, Fraction(1, 2), r2=Fraction(1, 2), r3=Fraction(1, 2))
        assert in_region(h1, half).ok

    def test_matches_a_scan_of_the_per_subset_oracle(self):
        """in_region equals an independent scan: the key cap first, then
        the first constraint of oracles.region_spec whose subset's rates
        sum below it.  On the census MCHs and 100 random MCHs of 2-10
        vertices, at r_K = C and at r_K just over C, the tuples put each
        constraint's subset exactly on it and just below it, every other
        vertex at a rate no constraint can hold down."""

        def scan(spec, rt):
            if rt.key_rate > spec.key_cap:
                return RegionCheck(ok=False, key_cap_violated=True)
            for subset, coeff in spec.constraints:
                if sum(rt.per_user[v] for v in subset) < coeff * rt.key_rate:
                    return RegionCheck(ok=False, violated=(subset, coeff))
            return RegionCheck(ok=True)

        outcomes = set()
        for h in [*oracles.census_mchs(), *oracles.random_mchs(100, seed=13)]:
            spec = oracles.region_spec(h)
            cap = spec.key_cap
            top = cap * (1 + max((c for _, c in spec.constraints), default=0))
            tuples = [
                RateTuple(r_k, dict.fromkeys(h.vertices, top))
                for r_k in (cap, cap + Fraction(1, 97))
            ]
            for subset, coeff in spec.constraints:
                share = coeff * cap / len(subset)
                on = {v: share if v in subset else top for v in h.vertices}
                below = {**on, min(subset): share * Fraction(6, 7)}
                tuples += [RateTuple(cap, on), RateTuple(cap, below)]
            for rt in tuples:
                want = scan(spec, rt)
                assert in_region(h, rt) == want, (h, rt)
                outcomes.add((want.ok, want.key_cap_violated))
        assert outcomes == {(True, False), (False, True), (False, False)}


class TestOuterBound:
    def test_scheme_point_is_tight_on_the_core_block(self, h1):
        rt = rates(h1, 1, r2=1, r3=1)
        b = frozenset("123")
        p = Partition.from_blocks(h1.remove_vertices(b).components())
        assert outer_bound_deficit(h1, rt, b, p) == 0

    def test_zero_rates_fall_outside(self, h2):
        rt = rates(h2, 1)
        b = frozenset("1")
        p = Partition.from_blocks(h2.remove_vertices(b).components())
        assert outer_bound_deficit(h2, rt, b, p) == -1

    def test_scheme_point_clears_h2_bound(self, h2):
        rt = rates(h2, 1, r1=1, r3=1)
        b = frozenset("1")
        p = Partition.from_blocks(h2.remove_vertices(b).components())
        assert outer_bound_deficit(h2, rt, b, p) == 0

    def test_subset_leaving_one_vertex_is_refused(self, h2):
        # |B| = |V| - 1: one vertex is left, too few for a proper partition
        with pytest.raises(InvalidPartition, match="at least two vertices outside"):
            outer_bound_deficit(
                h2, rates(h2, 1), frozenset("1234"), Partition.from_blocks([{"5"}])
            )

    def test_matches_the_rebuilt_remainder(self):
        """The deficit equals the formula taken on h minus B, rebuilt, for
        every B leaving two or more vertices and two partitions of the rest
        (its components, when proper, and a random proper one)."""
        rng = random.Random(6)
        checked = 0
        for seed in range(30):
            n = rng.randint(3, 7)
            h, _ = random_mch_with_stats(n, rng.randint(2, n // 2 + 1), 3, seed)
            members = sorted(h.vertices)
            rt = RateTuple(
                Fraction(rng.randint(0, 3), 2),
                {v: Fraction(rng.randint(0, 4), 2) for v in members},
            )
            for mask in range(1 << n):
                b = frozenset(v for i, v in enumerate(members) if mask >> i & 1)
                if len(b) >= n - 1:
                    continue
                rest = h.remove_vertices(b)
                labels = sorted(rest.vertices)
                split = rng.randint(1, len(labels) - 1)
                rng.shuffle(labels)
                candidates = [Partition.from_blocks([labels[:split], labels[split:]])]
                if len(rest.components()) > 1:
                    candidates.append(Partition.from_blocks(rest.components()))
                for p in candidates:
                    block_sum = sum((entropy(rest, c) for c in p.blocks), Fraction(0))
                    i_p = (block_sum - entropy(rest, rest.vertices)) / (len(p) - 1)
                    want = rt.over(b) - (len(p) - 1) * (rt.key_rate - i_p)
                    assert outer_bound_deficit(h, rt, b, p) == want
                    checked += 1
        assert checked > 1000

    def test_integer_index_matches_the_fraction_formula(self):
        """The deficit summed on the integer index equals the Fraction
        formula of the oracles on the census and on seeded MCHs with weights
        1-4 (over 1-3 on half of them) and rational rates, for every B
        leaving two or more vertices, with its components (when proper) and
        a random proper partition of the rest."""
        rng = random.Random(26)
        sources = list(oracles.census_mchs())
        for j, g in enumerate(oracles.random_mchs(40, 26, max_vertices=8)):
            sources.append(Hypergraph(g.vertices, [
                (e.id, e.members, Fraction(rng.randint(1, 4), rng.randint(1, 3) if j % 2 else 1))
                for e in g.edges
            ]))
        checked = 0
        for h in sources:
            members = sorted(h.vertices)
            rt = RateTuple(
                Fraction(rng.randint(0, 6), rng.randint(1, 4)),
                {v: Fraction(rng.randint(0, 6), rng.randint(1, 4)) for v in members},
            )
            for mask in range(1 << len(members)):
                b = frozenset(v for i, v in enumerate(members) if mask >> i & 1)
                if len(b) >= len(members) - 1:
                    continue
                labels = sorted(h.vertices - b)
                rng.shuffle(labels)
                split = rng.randint(1, len(labels) - 1)
                candidates = [Partition.from_blocks([labels[:split], labels[split:]])]
                parts = h.remove_vertices(b).components()
                if len(parts) > 1:
                    candidates.append(Partition.from_blocks(parts))
                for p in candidates:
                    assert outer_bound_deficit(h, rt, b, p) == oracles.outer_bound_deficit(h, rt, b, p)
                    checked += 1
        assert checked > 5000, checked
