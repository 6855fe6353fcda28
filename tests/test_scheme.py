"""Scheme synthesis: representatives, golden row sequences, verification,
rates, and time sharing."""

import dataclasses
import random
from fractions import Fraction

import pytest

from hyperkey import (
    DiscussionScheme,
    NotFundamentalBlock,
    NotMCH,
    RankFunction,
    SchemeUnverified,
    SubsetOutsideBlock,
    WeightsNotConvex,
    cli,
    compose_time_shared,
    partition_connectivity,
    rates_of,
    representatives,
    synthesize,
    verify,
)
from hyperkey.hypergraph import _block_view
from hyperkey.scheme import _normalize_orders, _row_mask

import oracles


def weight_two_rows(rng, mu):
    """Pair rows on mu columns: a random spanning tree, a tree plus one more
    row (a cycle), a tree minus some rows (a forest) or a tree with a row
    repeated, in random row order."""
    if mu < 2:
        return []
    perm = rng.sample(range(mu), mu)
    rows = [tuple(sorted((perm[i], perm[rng.randrange(i)]))) for i in range(1, mu)]
    shape = rng.choice(("tree", "cycle", "forest", "duplicate"))
    if shape == "cycle":
        rows.append(tuple(sorted(rng.sample(range(mu), 2))))
    elif shape == "forest":
        rows = rng.sample(rows, rng.randrange(len(rows)))
    elif shape == "duplicate":
        rows.append(rng.choice(rows))
    rng.shuffle(rows)
    return rows


def scheme_inputs(fixtures):
    """The fixtures, the census MCHs and random MCHs of 2-10 vertices, with
    default and random per-block orders."""
    rng = random.Random(12)
    for h in [*fixtures, *oracles.census_mchs(), *oracles.random_mchs(400, seed=4)]:
        yield h, None
        orders = {}
        for block in partition_connectivity(h).fundamental.blocks:
            orders[block] = tuple(rng.sample(sorted(block), len(block)))
        yield h, orders


def pairs_and_users(scheme):
    return list(zip(scheme.row_pairs(), scheme.speakers))


def block_views(h):
    """The block views cached on h, by their cache keys."""
    return {key for key in h._cache if isinstance(key, tuple) and key[0] == "block"}


class TestRepresentatives:
    def test_h1_core_block(self, h1):
        reps = representatives(h1, "123")
        assert sorted(reps) == ["4", "5", "6"]
        # every representative touches exactly one incident edge
        inc = h1.incident_restriction("123")
        assert all(inc.degree(r) == 1 for r in reps)

    def test_h2_singleton_block(self, h2):
        assert sorted(representatives(h2, "1")) == ["2", "5"]
        assert not block_views(h2)

    def test_h5_core_block(self, h5):
        assert sorted(representatives(h5, "12345")) == [f"v{i}" for i in range(1, 7)]

    def test_rejects_non_fundamental_block(self, h1):
        with pytest.raises(NotFundamentalBlock):
            representatives(h1, "12")

    def test_shared_classes_after_prefix(self, h1):
        view = _block_view(h1, frozenset("123"))
        classes = view.classes("2", view.mask("12"))
        assert [sorted(c) for c in classes] == [["4"], ["5"]]

    def test_the_guard_takes_exactly_the_fundamental_blocks(self):
        """Every fundamental block passes the guard of representatives and
        RankFunction; a union of two blocks and a core less one vertex are
        refused."""
        unions = parts = 0
        for h in [*oracles.census_mchs(), *oracles.random_mchs(200, seed=9)]:
            blocks = partition_connectivity(h).fundamental.blocks
            for block in blocks:
                representatives(h, block)
                RankFunction(h, block, 1)
            refused = [blocks[0] | blocks[-1]]
            unions += 1
            for block in blocks:
                if len(block) > 1:
                    refused.append(block - {min(block)})
                    parts += 1
            for c in refused:
                with pytest.raises(NotFundamentalBlock):
                    representatives(h, c)
                if c != h.vertices:  # the whole vertex set is refused earlier
                    with pytest.raises(NotFundamentalBlock):
                        RankFunction(h, c, 1)
        assert unions > 200 and parts > 100


class TestSynthesize:
    def test_h1_default_order(self, h1):
        scheme, _ = synthesize(h1)
        assert pairs_and_users(scheme) == [(("a", "b"), "2"), (("b", "c"), "3")]
        assert scheme.key_edge == "a"
        assert scheme.recovery == (
            ("1", "a"), ("2", "a"), ("3", "b"), ("4", "a"), ("5", "b"), ("6", "c"),
        )
        assert verify(scheme).ok

    def test_h1_reversed_core_order(self, h1):
        scheme, _ = synthesize(h1, {frozenset("123"): ("3", "2", "1")})
        assert pairs_and_users(scheme) == [(("a", "b"), "2"), (("a", "c"), "1")]
        assert verify(scheme).ok

    def test_h2_rows_come_from_singleton_blocks(self, h2):
        scheme, _ = synthesize(h2)
        assert pairs_and_users(scheme) == [(("a", "c"), "1"), (("a", "b"), "3")]

    def test_h5_replay(self, h5):
        scheme, used = synthesize(h5, {frozenset("12345"): tuple("12345")})
        assert pairs_and_users(scheme) == [
            (("e1", "e2"), "2"),
            (("e2", "e3"), "3"),
            (("e3", "e4"), "3"),
            (("e5", "e6"), "4"),
            (("e4", "e6"), "5"),
        ]
        core = [order for block, order in used.items() if len(block) > 1]
        assert len(core) == 1
        assert oracles.spoken(scheme, core[0]) == [
            ("1", ()),
            ("2", (("e1", "e2"),)),
            ("3", (("e2", "e3"), ("e3", "e4"))),
            ("4", (("e5", "e6"),)),
            ("5", (("e4", "e6"),)),
        ]

    def test_row_count_is_edges_minus_one(self, h1, h2, h3, h5, single_edge):
        for h in (h1, h2, h3, h5, single_edge):
            scheme, _ = synthesize(h)
            assert len(scheme.rows) == len(h.edges) - 1

    def test_key_edge_is_least_id(self, h1, h5):
        assert synthesize(h1)[0].key_edge == "a"
        assert synthesize(h5)[0].key_edge == "e1"

    def test_rejects_non_mch(self, h4, triangle):
        for h in (h4, triangle):
            with pytest.raises(NotMCH):
                synthesize(h)

    def test_orders_validation(self, h1):
        with pytest.raises(NotFundamentalBlock):
            synthesize(h1, {frozenset("12"): ("1", "2")})
        with pytest.raises(SubsetOutsideBlock, match="is not a permutation of"):
            synthesize(h1, {frozenset("123"): ("1", "2")})

    def test_orders_that_are_not_iterable_are_domain_errors(self, h1):
        with pytest.raises(NotFundamentalBlock, match="order key 5 is not iterable"):
            synthesize(h1, {5: (5,)})
        with pytest.raises(SubsetOutsideBlock, match="order 5 is not iterable"):
            synthesize(h1, {"123": 5})


class TestVerify:
    def test_dropped_row(self, h1):
        scheme, _ = synthesize(h1)
        dropped = dataclasses.replace(
            scheme, rows=scheme.rows[:1], speakers=scheme.speakers[:1]
        )
        report = verify(dropped)
        assert not report.ok
        assert not report.row_count_ok
        assert not report.recovery_ok
        assert report.unrecoverable_edges == ("a", "b", "c")

    def test_duplicated_row_loses_rank(self, h1):
        scheme, _ = synthesize(h1)
        dup = dataclasses.replace(scheme, rows=(scheme.rows[0], scheme.rows[0]))
        report = verify(dup)
        assert not report.ok and not report.rank_ok
        assert report.matrix_rank == 1

    def test_heavy_row_flagged_by_index(self, h1):
        scheme, _ = synthesize(h1)
        fat = dataclasses.replace(scheme, rows=(scheme.rows[0], (0, 1, 2)))
        report = verify(fat)
        assert not report.ok and not report.row_weights_ok
        assert report.bad_rows == (1,)

    def test_row_that_is_no_tuple_of_ints_is_a_bad_row(self):
        """verify never raises: an entry that is not an int, and a row that
        is no tuple, make a bad row, and _row_mask reads them as naming no
        column."""
        cases = [
            ((0, "x"), 0b01),
            ((0, 1.0), 0b01),
            (("a", "b"), 0),
            (5, 0),
            ([0, 1], 0),
        ]
        for row, mask in cases:
            assert _row_mask(row, 2) == mask, row
            report = verify(DiscussionScheme(("a", "b"), (row,), ("1",), "a", ()))
            assert not report.ok and not report.row_weights_ok, row
            assert report.bad_rows == (0,), row
            assert report.matrix_rank == (mask != 0), row
        report = verify(DiscussionScheme(("a",), ((0, "x"),), ("1",), "a", ()))
        assert report.bad_rows == (0,) and not report.ok

    def test_row_pairs_of_a_row_that_is_no_tuple_of_ints(self):
        """row_pairs never raises: as in _row_mask, an entry that is not an
        int, and a row that is no tuple, name no column."""
        cases = [
            ((0, "x"), ("a",)),
            (("x", 1), ("b",)),
            ((0, 1.0), ("a",)),
            (5, ()),
            ([0, 1], ()),
            ((0, 1), ("a", "b")),
        ]
        for row, names in cases:
            scheme = DiscussionScheme(("a", "b"), (row,), ("1",), "a", ())
            assert scheme.row_pairs() == (names,), row

    def test_key_leak_breaks_secrecy(self, h1):
        scheme, _ = synthesize(h1)
        key_column = (scheme.column(scheme.key_edge),)
        leak = dataclasses.replace(
            scheme,
            rows=scheme.rows + (key_column,),
            speakers=scheme.speakers + ("2",),
        )
        report = verify(leak)
        assert not report.ok and not report.secrecy_ok

    def test_unknown_key_edge_fails_secrecy_without_raising(self, h1):
        scheme, _ = synthesize(h1)
        report = verify(dataclasses.replace(scheme, key_edge="zz"))
        assert not report.ok and not report.secrecy_ok
        assert report.rank_ok and report.recovery_ok

    def test_verdicts_match_the_per_column_rank_oracle(self):
        """The union-find (pair rows) and the reduced basis (any other rows)
        give the verdicts of one rank per column and the whole report of the
        elimination-only verify, on row sets with rows of any length,
        columns out of range (negative and past the edge order), repeated
        indices, unsorted pairs, dependent rows and unknown key edges."""
        rng = random.Random(5)
        seen = dict.fromkeys(("deficient", "bad", "leak", "unknown_key", "ok"), 0)
        forms = set()
        for _ in range(20000):
            mu = rng.randint(1, 7)
            edge_order = tuple(f"e{i}" for i in range(mu))
            rows = []
            for _ in range(rng.randint(0, mu + 1)):
                pick = rng.random()
                if pick < 0.75 and mu >= 2:
                    rows.append(tuple(sorted(rng.sample(range(mu), 2))))
                elif pick < 0.85:
                    rows.append(tuple(j for j in range(mu) if rng.getrandbits(1)))
                elif pick < 0.95:
                    size = rng.randint(0, 4)
                    rows.append(tuple(rng.randrange(-2, mu + 3) for _ in range(size)))
                else:
                    rows.append(tuple(rng.choices(range(mu), k=2)))
            key_edge = rng.choice(edge_order + ("zz",))
            report = self.check_against_oracles(edge_order, rows, key_edge)
            seen["deficient"] += report.matrix_rank < len(rows)
            seen["bad"] += not report.row_weights_ok
            seen["leak"] += key_edge != "zz" and not report.secrecy_ok
            seen["unknown_key"] += key_edge == "zz"
            seen["ok"] += report.rank_ok and report.recovery_ok
            for row in rows:
                forms.add(min(len(row), 3))
                forms.add("negative" if min(row, default=0) < 0 else None)
                forms.add("past mu" if max(row, default=0) >= mu else None)
                forms.add("repeated" if len(set(row)) < len(row) else None)
                forms.add("unsorted" if list(row) != sorted(row) else None)
        assert min(seen.values()) >= 1000, seen
        assert forms == {0, 1, 2, 3, "negative", "past mu", "repeated", "unsorted", None}

    def test_weight_two_verdicts_match_the_per_column_rank_oracle(self):
        """The same oracles on pair-only row sets: spanning trees,
        trees plus a row (cycles), forests and trees with a repeated row,
        with known and unknown key edges.  No such set puts a unit vector
        in the span, so a known key edge always stays secret."""
        rng = random.Random(6)
        seen = dict.fromkeys(("deficient", "unrecoverable", "unknown_key", "ok"), 0)
        for _ in range(8000):
            mu = rng.randint(1, 9)
            edge_order = tuple(f"e{i}" for i in range(mu))
            rows = weight_two_rows(rng, mu)
            key_edge = rng.choice(edge_order + ("zz",))
            report = self.check_against_oracles(edge_order, rows, key_edge)
            assert report.row_weights_ok
            assert report.secrecy_ok == (key_edge != "zz")
            seen["deficient"] += report.matrix_rank < len(rows)
            seen["unrecoverable"] += bool(report.unrecoverable_edges)
            seen["unknown_key"] += key_edge == "zz"
            seen["ok"] += report.rank_ok and report.recovery_ok
        assert min(seen.values()) >= 500, seen

    @staticmethod
    def check_against_oracles(edge_order, rows, key_edge):
        scheme = DiscussionScheme(
            edge_order=edge_order,
            rows=tuple(rows),
            speakers=(),
            key_edge=key_edge,
            recovery=(),
        )
        report = verify(scheme)
        want = oracles.rank_verdicts(rows, edge_order, key_edge)
        got = (report.matrix_rank, report.unrecoverable_edges, report.secrecy_ok)
        assert got == want, (rows, key_edge)
        assert report == oracles.verify(scheme), (rows, key_edge)
        assert scheme.row_pairs() == oracles.row_pairs(scheme), rows
        return report

    def test_report_is_computed_once_per_scheme(self, h1):
        scheme, _ = synthesize(h1)
        assert verify(scheme) is verify(scheme)
        dropped = dataclasses.replace(
            scheme, rows=scheme.rows[:1], speakers=scheme.speakers[:1]
        )
        assert verify(dropped) is verify(dropped)
        assert verify(scheme).ok and not verify(dropped).ok

    def test_column_of_an_unknown_edge_is_a_domain_error(self, h1):
        scheme, _ = synthesize(h1)
        assert scheme.column("b") == 1
        with pytest.raises(SchemeUnverified):
            scheme.column("zz")


class TestAgainstOracles:
    def test_synthesize_matches_the_restriction_oracle(
        self, h1, h2, h3, h5, single_edge
    ):
        """Rows, speakers, recovery and the order of every block, in row
        order, equal the ones built from an incident-restriction Hypergraph
        per block; the orders used give the same scheme again; verify and
        row_pairs equal the elimination-only and per-column oracles."""
        cores = 0
        for h, orders in scheme_inputs((h1, h2, h3, h5, single_edge)):
            scheme, used = synthesize(h, orders)
            want, table, _ = oracles.synthesize(h, orders)
            assert scheme == want, (h, orders)
            assert list(used.items()) == list(table.items()), (h, orders)
            assert synthesize(h, used)[0] == scheme, (h, orders)
            assert verify(scheme) == oracles.verify(scheme)
            assert scheme.row_pairs() == oracles.row_pairs(scheme)
            cores += any(len(block) > 1 for block in used)
        assert cores > 600

    def test_rendered_rows_name_the_oracles_speaker_block_and_step(
        self, h1, h2, h3, h5, single_edge
    ):
        """The CLI derives each row's block and step from where its speaker
        sits in the orders used; the oracle counts them while it speaks.
        Each rendered block lists the representatives of its incident
        restriction, sorted."""
        later = 0  # rows spoken after a block's first turn
        for h, orders in scheme_inputs((h1, h2, h3, h5, single_edge)):
            scheme, used = synthesize(h, orders)
            doc = cli._scheme_document(h, scheme, used, Fraction(1))
            _, table, said = oracles.synthesize(h, orders)
            want = [
                (vertex, " ".join(sorted(block)), step) for vertex, block, step in said
            ]
            got = [(row["user"], row["block"], row["step"]) for row in doc["rows"]]
            assert got == want, (h, orders)
            blocks = [
                (
                    " ".join(sorted(block)),
                    list(order),
                    sorted(
                        oracles.representatives_of_restriction(
                            h.incident_restriction(block), block
                        )
                    ),
                )
                for block, order in table.items()
            ]
            rendered = [
                (b["block"], b["order"], b["representatives"]) for b in doc["blocks"]
            ]
            assert rendered == blocks, (h, orders)
            later += sum(step > 1 for _, _, step in said)
        assert later > 1000

    def test_representatives_and_classes_match_the_oracle(
        self, h1, h2, h3, h5, single_edge
    ):
        """Every block of every scheme input, walked in the order synthesize
        takes for it there; representatives caches no block view, so a
        one-vertex block never gets one from it."""
        for h, orders in scheme_inputs((h1, h2, h3, h5, single_edge)):
            fundamental = partition_connectivity(h).fundamental
            table = _normalize_orders(h, orders)
            for block in fundamental.blocks:
                restriction = h.incident_restriction(block)
                reps = oracles.representatives_of_restriction(restriction, block)
                views = block_views(h)
                assert representatives(h, block) == reps
                assert block_views(h) == views, (h, block)  # it builds none
                order = table[block]
                for k in range(1, len(order) + 1):
                    prefix = frozenset(order[:k])
                    want = oracles.classes(restriction, reps, order[k - 1], prefix)
                    view = _block_view(h, block)
                    got = view.classes(order[k - 1], view.mask(prefix))
                    assert got == want, (h, block, order[:k])


class TestRates:
    def test_h1_per_user_rates(self, h1):
        scheme, _ = synthesize(h1)
        rt = rates_of(scheme, Fraction(1))
        assert {v: r for v, r in rt.per_user.items()} == {
            "1": 0, "2": 1, "3": 1, "4": 0, "5": 0, "6": 0,
        }
        assert sum(rt.per_user.values()) == 2

    def test_rates_scale_with_key_rate(self, h5):
        scheme, _ = synthesize(h5)
        rt = rates_of(scheme, Fraction(1, 2))
        nonzero = {v: r for v, r in rt.per_user.items() if r}
        assert nonzero == {
            "2": Fraction(1, 2), "3": 1, "4": Fraction(1, 2), "5": Fraction(1, 2),
        }
        assert sum(rt.per_user.values()) == Fraction(5, 2)

    def test_a_row_of_a_vertex_without_recovery_is_refused(self, h1):
        scheme, _ = synthesize(h1)
        stray = dataclasses.replace(
            scheme,
            speakers=tuple("zz" for _ in scheme.speakers),
        )
        assert verify(stray).ok
        with pytest.raises(SchemeUnverified, match="'zz'"):
            rates_of(stray, Fraction(1))


class TestTimeSharing:
    def test_even_mix_of_two_orders(self, h1):
        comp = compose_time_shared(
            h1,
            [
                (Fraction(1, 2), None),
                (Fraction(1, 2), {frozenset("123"): ("3", "2", "1")}),
            ],
        )
        mixed = comp.rates(Fraction(1))
        assert {v: r for v, r in mixed.per_user.items() if r} == {
            "1": Fraction(1, 2), "2": 1, "3": Fraction(1, 2),
        }
        assert comp.blocklength_unit == 2
        assert comp.multipliers == (1, 1)

    def test_weights_must_be_convex(self, h1):
        with pytest.raises(WeightsNotConvex):
            compose_time_shared(h1, [(Fraction(1, 2), None), (Fraction(1, 4), None)])
