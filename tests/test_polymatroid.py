"""Per-block rank functions: values, shape verification, extreme points,
exact decomposition certificates."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from hyperkey import (
    Hypergraph,
    NegativeRate,
    NotFundamentalBlock,
    NotMCH,
    RankFunction,
    SubsetOutsideBlock,
    UnknownVertex,
    compose_time_shared,
    decompose,
    extreme_points,
    partition_connectivity,
    random_mch_with_stats,
    rank,
    synthesize,
    verify,
)
from hyperkey.errors import GroundTooLarge
from hyperkey.capacity import region_spec
from hyperkey.hypergraph import _BlockView, block_removal_counts
from hyperkey.polymatroid import (
    ContraPolymatroidReport,
    ExtremePoint,
    _contra_polymatroid_report,
    _first_decrease,
    _first_submodular_violation,
    _packed_monotone,
    _packed_submodular,
    extreme_point_for_order,
    verify_contra_polymatroid,
)
import oracles


@pytest.fixture
def fn1(h1):
    return RankFunction(h1, frozenset("123"), Fraction(1))


class TestRankFunction:
    def test_block_must_be_nonempty_proper_subset(self, h1):
        with pytest.raises(SubsetOutsideBlock):
            RankFunction(h1, frozenset(), Fraction(1))
        with pytest.raises(SubsetOutsideBlock):
            RankFunction(h1, frozenset(h1.vertices), Fraction(1))
        with pytest.raises(UnknownVertex):
            RankFunction(h1, frozenset("19"), Fraction(1))
        with pytest.raises(NegativeRate):
            RankFunction(h1, frozenset("123"), Fraction(-1))

    def test_rank_values_h1(self, fn1):
        got = {b: rank(fn1, b) for b in ("", "1", "3", "12", "13", "23", "123")}
        assert got == {"": 0, "1": 0, "3": 0, "12": 1, "13": 1, "23": 1, "123": 2}

    def test_rank_scales_with_key_rate(self, h1):
        half = RankFunction(h1, frozenset("123"), Fraction(1, 2))
        assert rank(half, "123") == 1
        assert rank(half, "12") == Fraction(1, 2)

    def test_rank_outside_block(self, fn1):
        with pytest.raises(SubsetOutsideBlock):
            rank(fn1, "4")

    def test_rank_values_h3(self, h3):
        fn = RankFunction(h3, frozenset("348"), Fraction(1))
        got = {b: rank(fn, b) for b in ("3", "4", "8", "34", "38", "48", "348")}
        # component counts after removal, minus one; criterion 5 instance
        assert got == {"3": 1, "4": 0, "8": 0, "34": 1, "38": 1, "48": 0, "348": 2}
        assert got["34"] + got["48"] <= got["348"] + got["4"]


class TestContraPolymatroid:
    def test_h1_core_block(self, fn1):
        report = verify_contra_polymatroid(fn1)
        assert report.ok
        assert report.normalized and report.nondecreasing and report.supermodular
        assert report.counterexample is None

    def test_h3_blocks(self, h3):
        for block in ("12", "348"):
            assert verify_contra_polymatroid(RankFunction(h3, frozenset(block), Fraction(1))).ok

    def test_the_rank_table_is_built_once_per_block(self, h5, monkeypatch):
        """The block's view keeps its table: two verifications, then
        decompose, extreme_points and region_spec, count each subset of the
        core once, and the kept table equals one built afresh."""
        block = frozenset("12345")
        fn = RankFunction(h5, block, Fraction(1))
        calls = []
        real = _BlockView.count

        def counted(view, removed):
            calls.append(removed)
            return real(view, removed)

        monkeypatch.setattr(_BlockView, "count", counted)
        assert verify_contra_polymatroid(fn).ok
        assert verify_contra_polymatroid(fn).ok
        assert sorted(calls) == list(range(2 ** len(block)))
        decompose(fn, {v: Fraction(2) for v in block})
        extreme_points(fn)
        region_spec(h5)
        assert len(calls) == 2 ** len(block)
        monkeypatch.undo()
        fresh = _BlockView(h5, block)
        assert block_removal_counts(h5, block) == (
            fresh.order, [fresh.count(m) for m in range(fresh.full + 1)]
        )

    def test_block_size_guard(self):
        """The table's cap of 12 is the only one: 11- and 12-vertex cores
        verify, as the Fraction scan of their table at r_K = 1 (whose
        entries are ints) says, and a 13-vertex core is refused."""
        for k in (11, 12):
            h, block = _cyclic_core(k)
            report = verify_contra_polymatroid(RankFunction(h, block, Fraction(1)))
            order, counts = oracles.removal_component_counts(h, block)
            assert report.ok
            assert report == fraction_contra_polymatroid_report(
                order, [c - 1 for c in counts]
            )
        h, block = _cyclic_core(13)
        fn = RankFunction(h, block, Fraction(1))
        with pytest.raises(GroundTooLarge):
            verify_contra_polymatroid(fn)

    def test_verdicts_on_tables_outside_the_domain(self):
        """The scan names the first failing law and its counterexample on
        tables no RankFunction yields: a non-fundamental block, a
        disconnected source and a hand-made decreasing table."""
        # on the path 1-2-3-4 the block {2, 3} has f({2}) + f({3}) = 2 > f({2, 3}) = 1
        path = Hypergraph("1234", [("a", "12", 1), ("b", "23", 1), ("c", "34", 1)])
        # vertex 5 meets no edge, so f(empty) = 1
        apart = Hypergraph("12345", [("a", "123", 1), ("b", "124", 1)])
        tables = []
        for h, block in ((path, "23"), (apart, "12")):
            order, counts = oracles.removal_component_counts(h, block)
            tables.append((order, [c - 1 for c in counts]))
        tables.append((("x", "y"), [0, 2, 1, 1]))
        got = [_contra_polymatroid_report(order, values) for order, values in tables]
        # the gated pair scan reports what the full 4^n scan reports
        assert got == [fraction_contra_polymatroid_report(*table) for table in tables]
        assert got == [
            ContraPolymatroidReport(
                ok=False, normalized=True, nondecreasing=True, supermodular=False,
                counterexample=(frozenset("2"), frozenset("3")),
            ),
            ContraPolymatroidReport(
                ok=False, normalized=False, nondecreasing=True, supermodular=True,
                counterexample=(frozenset(), frozenset()),
            ),
            ContraPolymatroidReport(
                ok=False, normalized=True, nondecreasing=False, supermodular=True,
                counterexample=(frozenset("x"), frozenset("xy")),
            ),
        ]


class TestExtremePoints:
    def test_h1_has_three_vertices(self, fn1):
        pts = extreme_points(fn1)
        got = {tuple(sorted((v, r) for v, r in p.rates)) for p in pts}
        assert got == {
            (("1", 0), ("2", 1), ("3", 1)),
            (("1", 1), ("2", 0), ("3", 1)),
            (("1", 1), ("2", 1), ("3", 0)),
        }
        # every extreme point spends exactly f(block) in total
        assert all(sum(r for _, r in p.rates) == 2 for p in pts)

    def test_order_telescopes(self, fn1):
        ep = extreme_point_for_order(fn1, "321")
        assert ep.order == ("3", "2", "1")
        assert dict(ep.rates) == {"1": 1, "2": 1, "3": 0}
        assert ep.rate("2") == 1

    def test_bad_orders_are_refused_as_synthesize_refuses_them(self, h1, fn1):
        """An order that is not iterable, or that misses a block vertex,
        raises SubsetOutsideBlock with the message synthesize gives for the
        same order of the same block."""
        for order in (5, ("1", "2"), "124"):
            with pytest.raises(SubsetOutsideBlock) as want:
                synthesize(h1, {fn1.block: order})
            with pytest.raises(SubsetOutsideBlock) as got:
                extreme_point_for_order(fn1, order)
            assert str(got.value) == str(want.value), order

    def test_rate_of_a_vertex_outside_the_block_is_a_domain_error(self, fn1):
        with pytest.raises(UnknownVertex):
            extreme_point_for_order(fn1, "123").rate("4")

    def test_singleton_block(self, h1):
        fn = RankFunction(h1, frozenset("4"), Fraction(1))
        (pt,) = extreme_points(fn)
        assert dict(pt.rates) == {"4": 0}

    def test_matches_the_permutation_scan(self, h3):
        """Same points in the same order as telescoping every permutation in
        lexicographic order and keeping the first of each vector."""
        fns = [RankFunction(h3, frozenset("348"), Fraction(1))]
        for k in range(3, 7):
            h, block = _cyclic_core(k)
            fns.append(RankFunction(h, block, Fraction(1, 2)))
        for fn in fns:
            first = {}
            for perm in permutations(sorted(fn.block)):
                pt = extreme_point_for_order(fn, perm)
                first.setdefault(pt.rates, pt)
            assert extreme_points(fn) == tuple(first.values())

    def test_block_size_guard(self):
        h, block = _cyclic_core(9)
        fn = RankFunction(h, block, Fraction(1))
        with pytest.raises(GroundTooLarge):
            extreme_points(fn)

    def test_key_rate_scales_points(self, h1):
        fn = RankFunction(h1, frozenset("123"), Fraction(1, 2))
        assert all(
            sum(r for _, r in p.rates) == 1 for p in extreme_points(fn)
        )


class TestDecompose:
    def test_dominating_target_is_feasible(self, fn1):
        res = decompose(fn1, {"1": 1, "2": 1, "3": 1})
        assert res.feasible
        assert sum(w for w, _ in res.weights) == 1
        # the combination is dominated coordinatewise by the target
        mix = {v: Fraction(0) for v in "123"}
        for w, p in res.weights:
            for v, r in p.rates:
                mix[v] += w * r
        assert all(mix[v] <= 1 for v in "123")

    def test_interior_point_splits_evenly(self, fn1):
        res = decompose(fn1, {"1": Fraction(1, 2), "2": 1, "3": Fraction(1, 2)})
        assert res.feasible
        mix = {v: Fraction(0) for v in "123"}
        for w, p in res.weights:
            assert w > 0
            for v, r in p.rates:
                mix[v] += w * r
        # the target sits on the sum-tight face, so the combination is exact
        assert mix == {"1": Fraction(1, 2), "2": Fraction(1), "3": Fraction(1, 2)}

    def test_extreme_point_gets_weight_one(self, fn1):
        target = dict(extreme_points(fn1)[0].rates)
        res = decompose(fn1, target)
        assert res.feasible
        assert [w for w, _ in res.weights] == [1]

    def test_infeasible_target_names_a_violated_constraint(self, fn1):
        res = decompose(fn1, {"1": 0, "2": 0, "3": 0})
        assert not res.feasible
        subset, required = res.violated
        assert sorted(subset) == ["1", "2"]
        assert required == 1


def fraction_contra_polymatroid_report(order, values):
    """Reference: the verdict scan on Fraction values, as it ran before the
    table was scaled to integers."""
    n = len(order)

    def failed(law, s, t):
        laws = {"normalized": True, "nondecreasing": True, "supermodular": True}
        laws[law] = False
        members = [frozenset(v for i, v in enumerate(order) if m >> i & 1) for m in (s, t)]
        return ContraPolymatroidReport(ok=False, counterexample=tuple(members), **laws)

    if values[0] != 0:
        return failed("normalized", 0, 0)
    for mask in range(1 << n):
        for i in range(n):
            bigger = mask | 1 << i
            if bigger != mask and values[bigger] < values[mask]:
                return failed("nondecreasing", mask, bigger)
    for s in range(1 << n):
        for t in range(s, 1 << n):
            if values[s] + values[t] > values[s | t] + values[s & t]:
                return failed("supermodular", s, t)
    return ContraPolymatroidReport(
        ok=True, normalized=True, nondecreasing=True, supermodular=True
    )


MIXED = (2, 3, 7, 10**18 + 9)  # denominators of the tables below


def _scaled(values):
    """A Fraction table times the lcm of its denominators: an int table
    with every comparison of the Fraction one."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _mixed_table(h, block, rates):
    """A block's rank table at key rate 2/3 plus the nonnegative modular
    term with the given per-vertex rates: normalized, nondecreasing and
    supermodular, over several denominators."""
    fn = RankFunction(h, block, Fraction(2, 3))
    order, counts = block_removal_counts(h, block)
    values = [
        (c - 1) * fn.key_rate + sum(r for i, r in enumerate(rates) if m >> i & 1)
        for m, c in enumerate(counts)
    ]
    return order, values


class TestIntegerScan:
    """_contra_polymatroid_report takes int tables; on a table with mixed
    denominators scaled to ints by their lcm, it gives the Fraction scan's
    report on the unscaled table."""

    def test_named_tables(self, h1, h3):
        # order is 3, 4, 8; f is 2/3 at {3}, {3, 4}, {3, 8} and 0 at {4},
        # {8}, {4, 8}
        rates = (Fraction(1, 10**18 + 9), Fraction(5, 7), Fraction(3, 2))
        order, values = _mixed_table(h3, frozenset("348"), rates)
        assert order == ("3", "4", "8")
        cases = {"passes": (order, values)}
        shifted = list(values)
        shifted[0] += Fraction(1, 7)
        cases["non-normalized"] = (order, shifted)
        lowered = list(values)
        lowered[-1] = values[-2] - Fraction(1, 10**18 + 9)
        cases["non-monotone"] = (order, lowered)
        # raising the {4} entry by 1/2 keeps it below the {3, 4} and {4, 8}
        # entries but breaks f({4}) + f({8}) <= f({4, 8}) + f(empty)
        raised = list(values)
        raised[0b010] += Fraction(1, 2)
        cases["non-supermodular"] = (order, raised)
        got = {
            name: _contra_polymatroid_report(order, _scaled(values))
            for name, (order, values) in cases.items()
        }
        assert got == {
            name: fraction_contra_polymatroid_report(*table)
            for name, table in cases.items()
        }
        assert got["passes"].ok
        assert not got["non-normalized"].normalized
        assert got["non-monotone"].normalized and not got["non-monotone"].nondecreasing
        assert got["non-supermodular"].nondecreasing
        assert not got["non-supermodular"].supermodular

    def test_perturbed_tables_match_the_fraction_scan(self):
        """One entry of a clean mixed-denominator table moved by a small
        mixed-denominator amount; every verdict occurs."""
        rng = random.Random(6)
        kinds = Counter()
        blocks = [
            (h, b) for h in _random_mchs(12)
            for b in partition_connectivity(h).fundamental.blocks if len(b) > 1
        ]
        blocks += [_cyclic_core(k) for k in (4, 5, 6)]
        for _ in range(300):
            h, block = rng.choice(blocks)
            rates = [Fraction(rng.randint(0, 5), rng.choice(MIXED)) for _ in block]
            order, values = _mixed_table(h, block, rates)
            k = rng.randrange(len(values))
            values[k] += Fraction(rng.choice([-3, -1, 1, 3]), rng.choice(MIXED))
            got = _contra_polymatroid_report(order, _scaled(values))
            assert got == fraction_contra_polymatroid_report(order, values)
            kinds[
                "ok" if got.ok else next(
                    law for law in ("normalized", "nondecreasing", "supermodular")
                    if not getattr(got, law)
                )
            ] += 1
        assert min(kinds[k] for k in ("ok", "normalized", "nondecreasing", "supermodular")) >= 10, kinds


def _gate_tables(rng, n):
    """Seeded 2^n int tables with their scale.  Each starts as the coverage
    table (monotone and submodular) of a singleton edge at about half the
    elements and up to six random edges of 1-3 elements, scaled past 2^64
    or not; at most 8 elements it may be negated (supermodular); it may be
    shifted so every entry is negative.  Then up to two entries are moved
    by one or two scale units, dipped to the largest entry one element
    below or lifted to the smallest one element above (both still
    monotone).  Above 8 elements there are fewer tables, and only entries
    below mask 64 move, so a violation's pair scan stays short."""
    out = []
    for _ in range(10 if n <= 8 else 5):
        scale = rng.choice((1, 3**45))
        edges = [1 << i for i in range(n) if rng.random() < 0.5]
        for _ in range(rng.randint(0, 6) if n else 0):
            edges.append(sum(1 << i for i in rng.sample(range(n), rng.randint(1, min(n, 3)))))
        values = [0] * (1 << n)
        for m in edges:
            w = scale * rng.randint(1, 4)
            for mask in range(1 << n):
                if m & mask:
                    values[mask] += w
        if n <= 8 and rng.random() < 0.25:
            values = [-v for v in values]
        if rng.random() < 0.5:  # every entry negative
            top = max(values) + rng.choice((1, 2**70))
            values = [v - top for v in values]
        reach = len(values) if n <= 8 else 64
        for _ in range(rng.choice((0, 1, 1, 2))):
            k = rng.randrange(reach)
            near = [k ^ 1 << i for i in range(n)]
            how = rng.randrange(3)
            if how == 0 and k:
                values[k] = max(values[m] for m in near if m < k)
            elif how == 1 and k != len(values) - 1:
                values[k] = min(values[m] for m in near if m > k)
            else:
                values[k] += scale * rng.choice((-2, -1, 1, 2))
        out.append((values, scale))
    return out


class TestPackedGates:
    """The packed gates decide a table as the ungated scans of the oracles
    do, and a failed gate reports the scans' first counterexample."""

    def test_gates_agree_with_the_scans(self):
        rng = random.Random(26)
        kinds = Counter()
        for n in range(13):
            for values, scale in _gate_tables(rng, n):
                drop = oracles.first_decrease(values, n)
                pair = oracles.first_submodular_violation(values, n)
                assert _packed_monotone(values, n) == (drop is None), (n, values)
                assert _packed_submodular(values, n) == (pair is None), (n, values)
                assert _first_decrease(values, n) == drop, (n, values)
                assert _first_submodular_violation(values, n) == pair, (n, values)
                verdict = (
                    "decrease" if drop else "not submodular" if pair else "clean"
                )
                kinds["above 8", n > 8, verdict] += 1
                kinds["past 2^64", scale > 2**64, verdict] += 1
        # every verdict occurs above and below 8 elements, and with entry
        # differences past 2^64 and below
        for split in ("above 8", "past 2^64"):
            for side in (False, True):
                for verdict in ("clean", "decrease", "not submodular"):
                    assert kinds[split, side, verdict] >= 3, kinds

    @pytest.mark.parametrize("bits", [6, 7, 8, 15, 16, 63, 64, 65, 100])
    def test_extreme_differences_at_each_field_width(self, bits):
        """Two-element tables whose local differences reach twice the span,
        either sign, with the span on either side of each byte boundary of
        the field width."""
        for span in (2**bits - 1, 2**bits, 2**bits + 1):
            for table in (
                (0, span, span, 0), (span, 0, 0, span), (0, span, 0, span),
                (span, span, 0, 0), (0, 0, span, span), (0, 0, 0, span),
                (span, 0, 0, 0), (-span, 0, 0, 0), (0, -span, -span, 0),
            ):
                assert _packed_monotone(table, 2) == (oracles.first_decrease(table, 2) is None)
                assert _packed_submodular(table, 2) == (
                    oracles.first_submodular_violation(table, 2) is None
                )


KEY_RATES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2))


def _random_mchs(count):
    """MCHs of 4-8 vertices with weights 1-3 whose fundamental partition has
    a block of two or more vertices."""
    rng = random.Random(8)
    found = 0
    while found < count:
        n = rng.randint(4, 8)
        h, _ = random_mch_with_stats(
            n, rng.randint(2, min(n - 1, 6)), 3, rng.randrange(10**6)
        )
        if any(len(b) > 1 for b in partition_connectivity(h).fundamental.blocks):
            found += 1
            yield h


def _cyclic_core(k):
    """k edges {c_i, c_i+1, p_i} around a k-cycle; the core is a block."""
    names = [f"c{i:02d}" for i in range(k)] + [f"p{i:02d}" for i in range(k)]
    edges = [(f"e{i}", [names[i], names[(i + 1) % k], names[k + i]], 1) for i in range(k)]
    return Hypergraph(names, edges), frozenset(names[:k])


def _targets(fn, rng, count):
    """Random rational targets, half of them a convex mix of two random
    vertices (a base), moved up or down on some coordinates."""
    members = sorted(fn.block)
    out = []
    for j in range(count):
        if j % 2:
            out.append({v: Fraction(rng.randint(0, 3), rng.randint(1, 3)) for v in members})
            continue
        a, b = (extreme_point_for_order(fn, rng.sample(members, len(members))) for _ in "ab")
        w = Fraction(rng.randint(0, 4), 4)
        target = {v: w * a.rate(v) + (1 - w) * b.rate(v) for v in members}
        for v in members:
            nudge = rng.choice((0, 0, Fraction(1, 3), Fraction(-1, 3)))
            target[v] = max(Fraction(0), target[v] + nudge * fn.key_rate)
        out.append(target)
    return out


def _assert_certificate(fn, target, res):
    """Positive weights summing to one on at most |B| telescoped vertices,
    whose mix is at or below the target, and equal to it on a base."""
    assert res.feasible and res.violated is None
    assert 1 <= len(res.weights) <= len(fn.block)
    assert all(w > 0 for w, _ in res.weights)
    assert sum(w for w, _ in res.weights) == 1
    mix = {v: Fraction(0) for v in fn.block}
    for w, pt in res.weights:
        assert pt == extreme_point_for_order(fn, pt.order)
        for v, r in pt.rates:
            mix[v] += w * r
    assert all(mix[v] <= target[v] for v in fn.block)
    if sum(target.values()) == rank(fn, fn.block):
        assert mix == target


def _assert_matches_oracle(h, rng, per_rate):
    feasible = 0
    for block in partition_connectivity(h).fundamental.blocks:
        if len(block) > 6:
            continue
        for key_rate in KEY_RATES:
            fn = RankFunction(h, block, key_rate)
            for target in _targets(fn, rng, per_rate):
                res = decompose(fn, target)
                ref = oracles.decompose(fn, target)
                assert (res.feasible, res.violated) == (ref.feasible, ref.violated)
                if res.feasible:
                    feasible += 1
                    _assert_certificate(fn, target, res)
    return feasible


class TestGreedyDecomposition:
    def test_census_blocks_match_the_simplex_oracle(self):
        rng = random.Random(1)
        census = list(oracles.census_mchs())
        assert len(census) == 521
        assert sum(_assert_matches_oracle(h, rng, 1) for h in census) > 1000

    def test_random_mch_blocks_match_the_simplex_oracle(self):
        rng = random.Random(2)
        assert sum(_assert_matches_oracle(h, rng, 6) for h in _random_mchs(30)) > 500

    def test_cyclic_core_blocks_match_the_simplex_oracle(self):
        rng = random.Random(3)
        for k in range(3, 7):
            assert _assert_matches_oracle(_cyclic_core(k)[0], rng, 6) > 20

    @pytest.mark.parametrize("k", range(3, 13))
    def test_cyclic_core_blocks_up_to_the_cap(self, k):
        h, block = _cyclic_core(k)
        rng = random.Random(k)
        fn = RankFunction(h, block, Fraction(1, 2))
        points = [
            extreme_point_for_order(fn, rng.sample(sorted(block), k)) for _ in range(3)
        ]
        base = {v: sum((p.rate(v) for p in points), Fraction(0)) / 3 for v in block}
        above = {v: r + Fraction(i % 2, 3) for i, (v, r) in enumerate(sorted(base.items()))}
        for target in (base, above):
            _assert_certificate(fn, target, decompose(fn, target))

    def test_worked_certificate(self, fn1):
        """Worked by hand.  Lowering takes 13/60 off vertex 1, giving the
        base (9/20, 3/4, 4/5), tight only on the block: the chain order is
        1, 2, 3, the vertex (0, 1, 1), and {2, 3} stops the line search at
        11/9.  At (1, 4/9, 5/9) the chain is {2, 3}: order 2, 3, 1, vertex
        (1, 0, 1), step 5/4.  At (1, 1, 0) the chain is {3}, then {1, 3} (the
        lower mask of the tight {1, 3} and {2, 3}), which ends the split."""
        res = decompose(fn1, {"1": Fraction(2, 3), "2": Fraction(3, 4), "3": Fraction(4, 5)})
        got = [(w, p.order, dict(p.rates)) for w, p in res.weights]
        assert got == [
            (Fraction(11, 20), ("1", "2", "3"), {"1": 0, "2": 1, "3": 1}),
            (Fraction(1, 4), ("2", "3", "1"), {"1": 1, "2": 0, "3": 1}),
            (Fraction(1, 5), ("3", "1", "2"), {"1": 1, "2": 1, "3": 0}),
        ]

    def test_block_above_the_cap_is_refused(self):
        h, block = _cyclic_core(13)
        fn = RankFunction(h, block, Fraction(1))
        with pytest.raises(GroundTooLarge):
            decompose(fn, {v: 1 for v in block})

    def test_non_supermodular_block_is_refused(self):
        # on the path 1-2-3-4, f({2}) + f({3}) = 2 > f({2, 3}) = 1, and
        # {2, 3} is not a fundamental block (those are the singletons)
        path = Hypergraph("1234", [("a", "12", 1), ("b", "23", 1), ("c", "34", 1)])
        with pytest.raises(NotFundamentalBlock):
            RankFunction(path, frozenset("23"), Fraction(1))

    def test_disconnected_source_is_refused(self):
        # vertex 5 meets no edge, so f(empty) = 1; the source is no MCH
        apart = Hypergraph("12345", [("a", "123", 1), ("b", "124", 1)])
        with pytest.raises(NotMCH):
            RankFunction(apart, frozenset("12"), Fraction(1))


def fraction_extreme_points(order, values):
    """Reference: the telescoped vectors of a Fraction table along every
    permutation of order, in lexicographic order, the first of each kept."""
    first = {}
    for perm in permutations(range(len(order))):
        rates = [Fraction(0)] * len(order)
        mask = 0
        for i in perm:
            rates[i] = values[mask | 1 << i] - values[mask]
            mask |= 1 << i
        key = tuple(rates)
        if key not in first:
            first[key] = ExtremePoint(
                order=tuple(order[i] for i in perm), rates=tuple(zip(order, key))
            )
    return tuple(first.values())


class TestAgainstFractionTables:
    """verify_contra_polymatroid, extreme_points and decompose read a
    block's integer counts and scale by r_K only where they return rates;
    each answers as the oracles on f's Fraction table do, r_K = 0 included."""

    def test_census_and_random_blocks(self):
        rng = random.Random(29)
        sizes = Counter()
        for h in [*oracles.census_mchs(), *oracles.random_mchs(100, 29, max_vertices=8)]:
            for block in partition_connectivity(h).fundamental.blocks:
                order, counts = oracles.removal_component_counts(h, block)
                sizes[len(block)] += 1
                for key_rate in (Fraction(0), Fraction(1), Fraction(3, 7)):
                    fn = RankFunction(h, block, key_rate)
                    values = [(c - 1) * key_rate for c in counts]
                    want = fraction_contra_polymatroid_report(order, values)
                    assert verify_contra_polymatroid(fn) == want
                    assert extreme_points(fn) == fraction_extreme_points(order, values)
                    for target in _targets(fn, rng, 1):
                        res = decompose(fn, target)
                        ref = oracles.decompose(fn, target)
                        assert (res.feasible, res.violated) == (ref.feasible, ref.violated)
                        if res.feasible:
                            _assert_certificate(fn, target, res)
        assert all(sizes[k] >= 5 for k in (1, 2, 3, 4)), sizes


def _searched(fn, members):
    """f of a subset by one removal_component_count search of all of h."""
    return (fn.hypergraph.removal_component_count(members) - 1) * fn.key_rate


def _assert_local_queries_match_the_search(fn, orders):
    for order in orders:
        want = []
        for k in range(1, len(order) + 1):
            want.append(_searched(fn, order[:k]) - _searched(fn, order[: k - 1]))
        point = extreme_point_for_order(fn, order)
        assert point.order == tuple(order)
        assert point.rates_map() == dict(zip(order, want)), (fn, order)


class TestLocalQueries:
    """rank and extreme_point_for_order read only the edges that meet the
    block; every answer equals the telescoping of
    Hypergraph.removal_component_count, a search of all of h."""

    def test_census_and_random_blocks_match_the_search(self):
        rng = random.Random(12)
        cores = 0
        for h in [*oracles.census_mchs(), *oracles.random_mchs(200, seed=7)]:
            for block in partition_connectivity(h).fundamental.blocks:
                fn = RankFunction(h, block, Fraction(3, 2))
                members = sorted(block)
                for mask in range(1 << len(members)):
                    b = [v for i, v in enumerate(members) if mask >> i & 1]
                    assert rank(fn, b) == _searched(fn, b), (h, b)
                orders = [members, rng.sample(members, len(members))]
                _assert_local_queries_match_the_search(fn, orders)
                cores += len(block) > 1
        assert cores >= 200

    @pytest.mark.parametrize("k", [13, 14, 64])
    def test_cyclic_cores_above_the_table_cap(self, k):
        h, block = _cyclic_core(k)
        with pytest.raises(GroundTooLarge):
            block_removal_counts(h, block)
        fn = RankFunction(h, block, Fraction(1, 2))
        rng = random.Random(k)
        orders = [sorted(block), *(rng.sample(sorted(block), k) for _ in range(3))]
        _assert_local_queries_match_the_search(fn, orders)
        # removing the whole core strands each of the k pendants
        assert rank(fn, block) == Fraction(k - 1, 2)
        for size in (1, 2, k // 2, k - 1):
            b = rng.sample(sorted(block), size)
            assert rank(fn, b) == _searched(fn, b)


class TestTimeSharedRoundTrip:
    """decompose's weights and chain orders, fed to compose_time_shared,
    give verified parts whose mixed rates sit at or below the target."""

    def _round_trip(self, h, rng):
        trips = 0
        for block in partition_connectivity(h).fundamental.blocks:
            if len(block) < 2:
                continue
            for key_rate in (Fraction(1, 2), Fraction(1)):
                fn = RankFunction(h, block, key_rate)
                for target in _targets(fn, rng, 4):
                    res = decompose(fn, target)
                    if not res.feasible:
                        continue
                    scheme = compose_time_shared(
                        h, [(w, {block: pt.order}) for w, pt in res.weights]
                    )
                    assert all(verify(part).ok for _, part in scheme.parts)
                    rates = scheme.rates(key_rate).per_user
                    assert all(rates[v] <= target[v] for v in block)
                    trips += 1
        return trips

    def test_h1_and_h3(self, h1, h3):
        rng = random.Random(4)
        assert self._round_trip(h1, rng) + self._round_trip(h3, rng) > 4

    def test_random_mch_blocks(self):
        rng = random.Random(5)
        assert sum(self._round_trip(h, rng) for h in _random_mchs(10)) > 20
