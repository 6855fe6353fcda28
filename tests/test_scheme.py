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
    RowAttribution,
    SchemeUnverified,
    VertexNotInBlock,
    WeightsNotConvex,
    compose_time_shared,
    rates_of,
    representatives,
    shared_representatives,
    synthesize,
    verify,
)

import oracles


def pairs_and_users(scheme):
    return list(zip(scheme.row_pairs(), (a.vertex for a in scheme.attributions)))


class TestRepresentatives:
    def test_h1_core_block(self, h1):
        reps = representatives(h1, "123")
        assert sorted(reps) == ["4", "5", "6"]
        # every representative touches exactly one incident edge
        inc = h1.incident_restriction("123")
        assert all(inc.degree(r) == 1 for r in reps)

    def test_h2_singleton_block(self, h2):
        assert sorted(representatives(h2, "1")) == ["2", "5"]

    def test_h5_core_block(self, h5):
        assert sorted(representatives(h5, "12345")) == [f"v{i}" for i in range(1, 7)]

    def test_rejects_non_fundamental_block(self, h1):
        with pytest.raises(NotFundamentalBlock):
            representatives(h1, "12")

    def test_shared_classes_after_prefix(self, h1):
        classes = shared_representatives(h1, "123", "2", "12")
        assert [sorted(c) for c in classes] == [["4"], ["5"]]


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
        scheme, trace = synthesize(h5, {frozenset("12345"): tuple("12345")})
        assert pairs_and_users(scheme) == [
            (("e1", "e2"), "2"),
            (("e2", "e3"), "3"),
            (("e3", "e4"), "3"),
            (("e5", "e6"), "4"),
            (("e4", "e6"), "5"),
        ]
        core = [t for t in trace if len(t.block) > 1]
        assert len(core) == 1
        emissions = [(it.vertex, it.emitted) for it in core[0].iterations]
        assert emissions == [
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
        with pytest.raises(VertexNotInBlock):
            synthesize(h1, {frozenset("123"): ("1", "2")})


class TestVerify:
    def test_dropped_row(self, h1):
        scheme, _ = synthesize(h1)
        dropped = dataclasses.replace(
            scheme, rows=scheme.rows[:1], attributions=scheme.attributions[:1]
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
        fat = dataclasses.replace(scheme, rows=(scheme.rows[0], 0b111))
        report = verify(fat)
        assert not report.ok and not report.row_weights_ok
        assert report.bad_rows == (1,)

    def test_key_leak_breaks_secrecy(self, h1):
        scheme, _ = synthesize(h1)
        key_column = 1 << scheme.column(scheme.key_edge)
        leak = dataclasses.replace(
            scheme,
            rows=scheme.rows + (key_column,),
            attributions=scheme.attributions + (RowAttribution("2", frozenset("123"), 3),),
        )
        report = verify(leak)
        assert not report.ok and not report.secrecy_ok

    def test_unknown_key_edge_fails_secrecy_without_raising(self, h1):
        scheme, _ = synthesize(h1)
        report = verify(dataclasses.replace(scheme, key_edge="zz"))
        assert not report.ok and not report.secrecy_ok
        assert report.rank_ok and report.recovery_ok

    def test_verdicts_match_the_per_column_rank_oracle(self):
        """One reduced basis gives the verdicts of one rank per column, on
        row sets with bad weights, columns out of range (high bits and
        negative masks), dependent rows and unknown key edges."""
        rng = random.Random(5)
        seen = dict.fromkeys(("deficient", "bad", "leak", "unknown_key", "ok"), 0)
        for _ in range(20000):
            mu = rng.randint(1, 7)
            edge_order = tuple(f"e{i}" for i in range(mu))
            rows = []
            for _ in range(rng.randint(0, mu + 1)):
                pick = rng.random()
                if pick < 0.75 and mu >= 2:
                    i, j = rng.sample(range(mu), 2)
                    rows.append(1 << i | 1 << j)
                elif pick < 0.85:
                    rows.append(rng.getrandbits(mu))
                elif pick < 0.95:
                    rows.append(rng.getrandbits(mu + 3))
                else:
                    rows.append(-rng.getrandbits(mu + 1))
            key_edge = rng.choice(edge_order + ("zz",))
            scheme = DiscussionScheme(
                edge_order=edge_order,
                rows=tuple(rows),
                attributions=(),
                key_edge=key_edge,
                recovery=(),
            )
            report = verify(scheme)
            want = oracles.rank_verdicts(rows, edge_order, key_edge)
            got = (report.matrix_rank, report.unrecoverable_edges, report.secrecy_ok)
            assert got == want, (rows, key_edge)
            seen["deficient"] += report.matrix_rank < len(rows)
            seen["bad"] += not report.row_weights_ok
            seen["leak"] += key_edge != "zz" and not report.secrecy_ok
            seen["unknown_key"] += key_edge == "zz"
            seen["ok"] += report.rank_ok and report.recovery_ok
        assert min(seen.values()) >= 1000, seen

    def test_column_of_an_unknown_edge_is_a_domain_error(self, h1):
        scheme, _ = synthesize(h1)
        assert scheme.column("b") == 1
        with pytest.raises(SchemeUnverified):
            scheme.column("zz")


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
