"""Bundled structure validators: lemma identities and scheme round trips."""

import contextlib
import dataclasses
import io
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

import hyperkey.partitions as partitions
import hyperkey.properties as properties
import oracles
from hyperkey import (
    ConnectivityReport,
    Hypergraph,
    NotMCH,
    Partition,
    lemma_violations,
    partition_connectivity,
    random_mch_with_stats,
    scheme_round_trip_violations,
    synthesize,
    unconstrained_capacity,
)
from hyperkey.capacity import require_mch
from hyperkey.cli import main
from hyperkey.properties import (
    _coverage_table,
    _components,
    _entropy_shape_violations,
    _pairing_tree_violations,
    _redundancy_violations,
    _table_shape_violations,
    _vertex_samples,
)


def fraction_coverage_table(h):
    """Coverage entropy of every vertex subset as a Fraction sum, with the
    subset encoded as a bitmask over the sorted vertices."""
    order = sorted(h.vertices)
    n = len(order)
    masks = []
    for e in h.edges:
        m = 0
        for i, v in enumerate(order):
            if v in e.members:
                m |= 1 << i
        masks.append((m, e.weight))
    values = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        values[mask] = sum((w for m, w in masks if m & mask), Fraction(0))
    return order, values


def fraction_shape_violations(order, values):
    """Oracle: the monotone and pairwise submodular scan on Fraction values,
    as it ran before the table was scaled to integers."""
    n = len(order)
    for mask in range(1 << n):
        for i in range(n):
            if not mask >> i & 1 and values[mask | 1 << i] < values[mask]:
                return [f"entropy not monotone at mask {mask} plus {order[i]!r}"]
    for s in range(1 << n):
        for t in range(s, 1 << n):
            if values[s] + values[t] < values[s | t] + values[s & t]:
                return [f"entropy not submodular at masks {s}, {t}"]
    return []


def _random_weighted_hypergraph(rng, max_vertices):
    """Any shape, weights with denominators 1-6."""
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    return Hypergraph(
        names,
        [
            (
                f"e{j}",
                rng.sample(names, rng.randint(1, n)),
                Fraction(rng.randint(1, 12), rng.randint(1, 6)),
            )
            for j in range(rng.randint(0, 6))
        ],
    )


class TestEntropyScan:
    def test_integer_table_is_the_scaled_fraction_table(self):
        rng = random.Random(7)
        for _ in range(40):
            h = _random_weighted_hypergraph(rng, 8)
            order, ints = _coverage_table(h)
            scale = lcm(*(e.weight.denominator for e in h.edges))
            expected_order, fractions = fraction_coverage_table(h)
            assert order == expected_order
            assert [Fraction(v, scale) for v in ints] == fractions
            assert _entropy_shape_violations(h) == []
            assert fraction_shape_violations(order, fractions) == []

    def test_broken_tables_give_the_oracle_message(self):
        """One entry raised or lowered: both scans report the same first
        violation, and both kinds of message occur."""
        rng = random.Random(8)
        kinds = Counter()
        for _ in range(400):
            h = _random_weighted_hypergraph(rng, 6)
            order, ints = _coverage_table(h)
            _, fractions = fraction_coverage_table(h)
            scale = lcm(*(e.weight.denominator for e in h.edges))
            k = rng.randrange(len(ints))
            delta = rng.choice([-2, -1, 1, 2])
            ints[k] += delta
            fractions[k] += Fraction(delta, scale)
            found = _table_shape_violations(order, ints)
            assert found == fraction_shape_violations(order, fractions)
            kinds[found[0].split(" at ")[0] if found else "clean"] += 1
        assert kinds["entropy not monotone"] >= 25, kinds
        assert kinds["entropy not submodular"] >= 25, kinds

    def test_two_broken_entries_give_the_oracle_message(self):
        """Two entries moved: the gated scan still reports the oracle's
        first violation, and tables that are monotone but not submodular
        occur."""
        rng = random.Random(9)
        kinds = Counter()
        for _ in range(400):
            h = _random_weighted_hypergraph(rng, 6)
            order, ints = _coverage_table(h)
            _, fractions = fraction_coverage_table(h)
            scale = lcm(*(e.weight.denominator for e in h.edges))
            for k in rng.sample(range(len(ints)), min(2, len(ints))):
                delta = rng.choice([-2, -1, 1, 2])
                ints[k] += delta
                fractions[k] += Fraction(delta, scale)
            found = _table_shape_violations(order, ints)
            assert found == fraction_shape_violations(order, fractions)
            kinds[found[0].split(" at ")[0] if found else "clean"] += 1
        assert kinds["entropy not monotone"] >= 25, kinds
        assert kinds["entropy not submodular"] >= 10, kinds

    def test_wide_fields_match_the_fraction_table(self):
        """Weights over denominators whose lcm passes 2^64, so the scaled
        entries need packed fields of more than eight bytes, on 12-vertex
        MCHs and on small shapes with one entry moved by 1/L."""
        rng = random.Random(10)
        wide = (2**31 - 1, 2**61 - 1, 10**18 + 9)
        ground = [g for g in oracles.random_mchs(60, 12, max_vertices=12)
                  if len(g.vertices) == 12][:3]
        assert len(ground) == 3
        for g in ground:
            h = Hypergraph(g.vertices, [
                (e.id, e.members, Fraction(rng.randint(1, 4), wide[j % 3]))
                for j, e in enumerate(g.edges)
            ])
            order, ints = _coverage_table(h)
            scale = lcm(*(e.weight.denominator for e in h.edges))
            assert scale > 2**64 and max(ints) > 2**64
            assert (order, [Fraction(v, scale) for v in ints]) == fraction_coverage_table(h)
            assert _entropy_shape_violations(h) == []
        kinds = Counter()
        for _ in range(150):
            g = _random_weighted_hypergraph(rng, 6)
            h = Hypergraph(g.vertices, [
                (e.id, e.members, e.weight / wide[j % 3])
                for j, e in enumerate(g.edges)
            ])
            order, ints = _coverage_table(h)
            _, fractions = fraction_coverage_table(h)
            scale = lcm(*(e.weight.denominator for e in h.edges))
            assert [Fraction(v, scale) for v in ints] == fractions
            k = rng.randrange(len(ints))
            delta = rng.choice([-1, 1])
            ints[k] += delta
            fractions[k] += Fraction(delta, scale)
            found = _table_shape_violations(order, ints)
            assert found == fraction_shape_violations(order, fractions)
            kinds[found[0].split(" at ")[0] if found else "clean"] += 1
        assert min(kinds.values()) >= 10 and len(kinds) == 3, kinds

    @pytest.mark.parametrize("n", [11, 12])
    def test_every_accepted_ground_is_scanned(self, n, monkeypatch):
        """lemma_violations accepts up to 12 vertices, and the scan covers
        them: a clean table passes, a broken one is reported."""
        h = next(g for g in oracles.random_mchs(40, n, max_vertices=12)
                 if len(g.vertices) == n)
        assert _entropy_shape_violations(h) == []
        real = properties._coverage_table

        def broken(g):
            order, values = real(g)
            values[-1] -= 1  # the full set now lies below its subsets
            return order, values

        monkeypatch.setattr(properties, "_coverage_table", broken)
        found = _entropy_shape_violations(h)
        assert found and found[0].startswith("entropy not monotone"), found


class TestRemovalCounter:
    @staticmethod
    def _assert_matches_the_search(h):
        components = _components(h)
        names = sorted(h.vertices)
        assert components.names == names
        for size in range(len(names)):
            for c in combinations(names, size):
                want = {frozenset(comp) for comp in h._search(frozenset(c))}
                mask = sum(1 << names.index(v) for v in c)
                assert components.mask(c) == mask, (h, c)
                assert components.mask(frozenset(c)) == mask, (h, c)
                got = components(mask)
                assert len(got) == len(want) == h.removal_component_count(c), (h, c)
                assert {
                    frozenset(v for i, v in enumerate(names) if m >> i & 1)
                    for m in got
                } == want, (h, c)

    def test_census(self):
        checked = 0
        for h in oracles.census_mchs():
            self._assert_matches_the_search(h)
            checked += 1
        assert checked == 521

    def test_random_mchs(self):
        for h in oracles.random_mchs(200, 31):
            self._assert_matches_the_search(h)

    def test_any_hypergraph(self):
        """The counter is generic: loops, isolated vertices, disconnected
        and cyclic shapes count as the search does."""
        rng = random.Random(32)
        isolated = 0
        for _ in range(100):
            h = _random_weighted_hypergraph(rng, 7)
            isolated += any(h.degree({v}) == 0 for v in h.vertices)
            self._assert_matches_the_search(h)
        assert isolated >= 10


class TestCodeRefinement:
    """The suites read the Bell sweep's value and finest minimizer, and
    build no Partition per minimizer."""

    def test_one_partition_per_sweep_in_a_fuzz_case(self, monkeypatch, swept_codes):
        """lemma_violations and both round trips of one (8, 4) case build
        no Partition per minimizer: at most one per Bell sweep."""
        h, _ = random_mch_with_stats(8, 4, 1, seed=3)
        assert len(swept_codes(h)[1]) > 20  # the case has many minimizers
        calls = Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(
            partitions, "_partition_of_code",
            counted("partitions", partitions._partition_of_code),
        )
        monkeypatch.setattr(
            partitions, "_minimizer_sweep",
            counted("sweeps", partitions._minimizer_sweep),
        )
        cap = unconstrained_capacity(h)
        assert lemma_violations(h) == []
        for rate in (cap, cap / 2):
            assert scheme_round_trip_violations(h, rate) == []
        # every weight is one, so both functionals share one sweep
        assert calls["sweeps"] == 1
        assert calls["partitions"] <= calls["sweeps"], calls


class TestRequireMCH:
    def test_accepts_fixtures(self, h1, h2, h3, h5):
        for h in (h1, h2, h3, h5):
            require_mch(h)

    def test_rejects_h4_and_triangle(self, h4, triangle):
        for h in (h4, triangle):
            with pytest.raises(NotMCH):
                require_mch(h)


class TestLemmaViolations:
    def test_fixtures_are_clean(self, h1, h2, h3, h5):
        for h in (h1, h2, h3, h5):
            assert lemma_violations(h, rng=random.Random(0)) == []

    def test_prop2_brute_force_on_small_grounds(self, h1, h2, h3):
        for h in (h1, h2, h3):
            report = partition_connectivity(h)
            assert oracles.prop2_violations(h, report.value, report.fundamental) == []

    def test_prop2_reports_a_skip_instead_of_passing_silently(self, h5):
        # 11 vertices exceed the exhaustive-subfamily cap
        report = partition_connectivity(h5)
        out = oracles.prop2_violations(h5, report.value, report.fundamental)
        assert out == ["prop2 brute force skipped: ground too large"]

    def test_non_mch_is_rejected(self, h4):
        with pytest.raises(NotMCH):
            lemma_violations(h4)

    def test_fast_path_disagreeing_with_the_oracle_is_reported(self, h1, monkeypatch):
        import hyperkey.properties as properties

        wrong = ConnectivityReport(Fraction(2), Partition.singletons(h1.vertices))
        monkeypatch.setattr(properties, "mmi", lambda h: wrong)
        for found in (
            lemma_violations(h1, rng=random.Random(0)),
            scheme_round_trip_violations(h1, Fraction(1)),
        ):
            assert any(v.startswith("weighted minimum: fast path gives 2") for v in found)

    def test_generated_instances_are_clean(self):
        for seed, (n, m, w) in enumerate([(4, 3, 2), (5, 4, 1), (6, 4, 3), (7, 5, 2)]):
            g, _ = random_mch_with_stats(n, m, w, seed=seed)
            assert lemma_violations(g, rng=random.Random(seed)) == []

    def test_a_wrong_rank_table_entry_is_reported(self, h1, monkeypatch):
        real = properties.block_removal_counts

        def corrupted(h, block):
            # a copy: the real list is shared, kept on the block's view
            order, counts = real(h, block)
            return order, [*counts[:-1], counts[-1] + 1]

        monkeypatch.setattr(properties, "block_removal_counts", corrupted)
        found = lemma_violations(h1, rng=random.Random(0))
        assert (
            "block ['1', '2', '3']: rank table says 3 at ['1', '2', '3'], "
            "the component search disagrees"
        ) in found, found

    def test_the_laws_are_checked_once_per_block_by_the_public_check(
        self, h1, h5, monkeypatch
    ):
        """lemma_violations checks each fundamental block's laws through
        verify_contra_polymatroid, once per block."""
        real = properties.verify_contra_polymatroid
        seen = []

        def counted(fn):
            seen.append(fn.block)
            return real(fn)

        monkeypatch.setattr(properties, "verify_contra_polymatroid", counted)
        for h in (h1, h5):
            seen.clear()
            assert lemma_violations(h, rng=random.Random(0)) == []
            blocks = partition_connectivity(h).fundamental.blocks
            assert Counter(seen) == Counter(blocks)
            assert len(seen) == len(blocks) > 1

    def test_a_wrong_component_count_is_reported(self, h1, monkeypatch):
        class OffByOne(properties._Components):
            __slots__ = ()

            def __call__(self, removed):
                return super().__call__(removed) + (0,)

        monkeypatch.setattr(properties, "_Components", OffByOne)
        found = lemma_violations(h1, rng=random.Random(0))
        assert "block ['1', '2', '3']: component count 4 != degree 3" in found
        assert "block ['4']: component count 2 != degree 1" in found, found

    def test_redundancy_needs_the_fundamental_blocks(self, h1):
        """On singleton blocks the blockwise sum undercounts: removing two
        of h1's core vertices splits off more than each does alone."""
        found = _redundancy_violations(
            h1, Partition.singletons(h1.vertices), random.Random(0)
        )
        assert found and all(
            re.fullmatch(r"defect \d+ of \[.*\] exceeds blockwise sum \d+", v)
            for v in found
        ), found
        clean = _redundancy_violations(
            h1, partition_connectivity(h1).fundamental, random.Random(0)
        )
        assert clean == []


class TestRedundancyDraws:
    def test_draws_are_randrange_then_sample(self):
        """The sets _vertex_samples draws are those of randrange(1, n) and
        sample(names, size) on a generator of the same seed, and the two
        generators end in one state."""
        for n in range(2, 13):
            names = [f"v{i:02d}" for i in range(n)]
            for seed in range(300):
                ours, theirs = random.Random(seed), random.Random(seed)
                got = list(_vertex_samples(ours, n, 50))
                want = []
                for _ in range(50):
                    picked = theirs.sample(names, theirs.randrange(1, n))
                    want.append(sum(1 << names.index(v) for v in picked))
                assert got == want, (n, seed)
                assert ours.getstate() == theirs.getstate(), (n, seed)

    @staticmethod
    def _by_public_calls(h, fundamental, rng, samples):
        """The redundancy check as randrange, sample and the whole-graph
        count of Hypergraph.removal_component_count give it."""
        names = sorted(h.vertices)
        bad = []
        for _ in range(samples):
            b = frozenset(rng.sample(names, rng.randrange(1, len(names))))
            whole = h.removal_component_count(b) - 1
            parts = sum(
                h.removal_component_count(b & block) - 1
                for block in fundamental.blocks
                if b & block
            )
            if whole > parts:
                bad.append(f"defect {whole} of {sorted(b)} exceeds blockwise sum {parts}")
        return bad

    def test_same_report_as_the_public_calls(self, h1, h3, h5):
        """Singleton blocks undercount on a core, so most of these report."""
        reported = 0
        for h in (h1, h3, h5):
            for fundamental in (
                Partition.singletons(h.vertices),
                partition_connectivity(h).fundamental,
            ):
                for seed in range(20):
                    got = _redundancy_violations(h, fundamental, random.Random(seed))
                    want = self._by_public_calls(h, fundamental, random.Random(seed), 50)
                    assert got == want, (h, fundamental, seed)
                    reported += bool(got)
        assert reported >= 40, reported


class TestFuzzOutputUnchanged:
    MENU = (
        (2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3),
        (6, 4), (7, 4), (7, 5), (8, 4), (8, 5),
    )

    def _stdout(self):
        out = []
        for n, m in self.MENU:
            for seed in (3, 50, 901):
                argv = ["--json", "fuzz", "--cases", "1", "--max-weight", "1",
                        "--seed", str(seed), "--vertices", str(n), "--edges", str(m)]
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    main(argv)
                out.append(buf.getvalue())
        return out

    def test_same_bytes_as_the_whole_graph_search_and_pairwise_scan(self, monkeypatch):
        fast = self._stdout()

        class BySearch(properties._Components):
            """The bitmask reader's answers from Hypergraph._search."""

            __slots__ = ("h",)

            def __init__(self, h):
                super().__init__(h)
                self.h = h

            def __call__(self, removed):
                gone = frozenset(v for i, v in enumerate(self.names) if removed >> i & 1)
                return tuple(self.mask(comp) for comp in self.h._search(gone))

        monkeypatch.setattr(properties, "_Components", BySearch)
        monkeypatch.setattr(
            properties, "_table_shape_violations", fraction_shape_violations
        )
        assert self._stdout() == fast

    def test_same_bytes_with_no_sharing(self, monkeypatch):
        """Every per-instance helper rebuilt at each use, as before they
        were shared."""
        fast = self._stdout()
        memo = Hypergraph._memo

        def unshared(h, key, build):
            return build() if key[0] == "properties" else memo(h, key, build)

        monkeypatch.setattr(Hypergraph, "_memo", unshared)
        assert self._stdout() == fast


class TestSchemeRoundTrips:
    def test_fixtures_at_full_and_half_rate(self, h1, h2, h5):
        for h in (h1, h2, h5):
            cap = Fraction(1)
            assert scheme_round_trip_violations(h, cap) == []
            assert scheme_round_trip_violations(h, cap / 2) == []

    def test_explicit_order(self, h1):
        orders = {frozenset("123"): ("3", "2", "1")}
        assert scheme_round_trip_violations(h1, Fraction(1), orders) == []

    def test_h3_round_trip(self, h3):
        assert scheme_round_trip_violations(h3, Fraction(1)) == []

    def test_simulation_cap_skips_gracefully(self, h1):
        # 1/8 rate needs 48 state bits; everything except the exhaustive
        # simulation still runs and must stay clean
        assert scheme_round_trip_violations(h1, Fraction(1, 8)) == []


class TestPairingTreeOncePerSynthesis:
    def test_a_corrupted_scheme_is_reported_at_both_rates(self, h5, monkeypatch):
        """Every row spoken by v1, a vertex of one edge: the scheme still
        verifies, the pairing-tree law fails, and the round trips at cap
        and cap/2 report it from one check."""
        real = properties.synthesize

        def one_speaker(h, orders=None):
            scheme, used = real(h, orders)
            speakers = ("v1",) * len(scheme.speakers)
            return dataclasses.replace(scheme, speakers=speakers), used

        checks = []
        real_check = properties._pairing_tree_violations

        def counted(*args):
            checks.append(args)
            return real_check(*args)

        monkeypatch.setattr(properties, "synthesize", one_speaker)
        monkeypatch.setattr(properties, "_pairing_tree_violations", counted)
        cap = unconstrained_capacity(h5)
        for rate in (cap, cap / 2):
            found = scheme_round_trip_violations(h5, rate)
            assert "block ['v1'] emitted 5 rows, expected 0" in found, found
        assert len(checks) == 1


class TestComponentsOncePerInstance:
    def test_one_build_across_the_suites(self, h1, h5, monkeypatch):
        """lemma_violations and the round trips at cap and cap/2 read one
        _Components per instance: its counts, masks and coverage table."""
        built = []

        class Counted(properties._Components):
            __slots__ = ()

            def __init__(self, h):
                built.append(h)
                super().__init__(h)

        monkeypatch.setattr(properties, "_Components", Counted)
        for h in (h1, h5):
            built.clear()
            assert lemma_violations(h, rng=random.Random(0)) == []
            cap = unconstrained_capacity(h)
            for rate in (cap, cap / 2):
                assert scheme_round_trip_violations(h, rate) == []
            assert len(built) == 1 and built[0] is h, built


class TestPairingTreeLaw:
    """The H5 core block {1..5} speaks the rows e1^e2, e2^e3, e3^e4, e5^e6,
    e4^e6 (columns 0-5), a tree on its six representative edges; each
    tampering below breaks one clause of the law and gets its message."""

    CORE = "block ['1', '2', '3', '4', '5']"

    @staticmethod
    def _scheme(h5):
        scheme, used = synthesize(h5, {frozenset("12345"): tuple("12345")})
        assert scheme.rows == ((0, 1), (1, 2), (2, 3), (4, 5), (3, 5))
        return scheme, used

    def test_synthesized_rows_pass(self, h5):
        assert _pairing_tree_violations(h5, *self._scheme(h5)) == []

    def test_a_missing_row(self, h5):
        scheme, used = self._scheme(h5)
        cut = dataclasses.replace(
            scheme, rows=scheme.rows[:-1], speakers=scheme.speakers[:-1]
        )
        assert _pairing_tree_violations(h5, cut, used) == [
            f"{self.CORE} emitted 4 rows, expected 5"
        ]

    def test_rows_closing_a_cycle(self, h5):
        # e1^e3 in place of e3^e4: e1 e2 e3 close a cycle, all six edges named
        scheme, used = self._scheme(h5)
        rows = list(scheme.rows)
        rows[2] = (0, 2)
        cycle = dataclasses.replace(scheme, rows=tuple(rows))
        assert _pairing_tree_violations(h5, cycle, used) == [
            f"{self.CORE} rows do not form a spanning tree"
        ]

    def test_rows_touching_too_few_edges(self, h5):
        # e1^e3 in place of e5^e6: no row names e5
        scheme, used = self._scheme(h5)
        rows = list(scheme.rows)
        rows[3] = (0, 2)
        short = dataclasses.replace(scheme, rows=tuple(rows))
        assert _pairing_tree_violations(h5, short, used) == [
            f"{self.CORE} rows touch 5 edges, expected 6"
        ]
