"""Quantization, protocol simulation, the two secrecy oracles, and the
seed-pinned MCH generator.

The exhaustive sweeps in hyperkey.simkit are bit-sliced; the per-word loops
below are their test oracles and must give equal results."""

import dataclasses
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from hyperkey import (
    EmptyResult,
    GenerationBudgetExhausted,
    Hypergraph,
    KeyRateExceedsCapacity,
    NegativeRate,
    SchemeUnverified,
    SecrecyReport,
    StateSpaceTooLarge,
    brute_force_secrecy,
    quantize,
    random_mch_with_stats,
    run,
    synthesize,
    unconstrained_capacity,
    verify,
)
from hyperkey import simkit
from hyperkey.errors import GroundTooLarge
from hyperkey.simkit import MAX_SAMPLE_BITS, _cell_counts, _is_minimal, _proposals

import oracles


def _layout(h, scheme, key_rate):
    """Per-edge (offset, shift) of the truncated block, key length, total bits."""
    shape = quantize(h, key_rate)
    lengths = [n for _, n in shape.edge_lengths]
    key_len = shape.key_length
    offsets = [sum(lengths[:j]) for j in range(len(lengths))]
    shifts = [n - key_len for n in lengths]
    return list(zip(offsets, shifts)), key_len, shape.total_bits()


def _xor_selected(mask, values):
    acc = 0
    for j, value in enumerate(values):
        if mask >> j & 1:
            acc ^= value
    return acc


def per_word_zero_error(h, scheme, key_rate):
    """Oracle for run(exhaustive=True): decode every realization on its own.

    Returns (zero_error, realizations_checked).
    """
    layout, key_len, total = _layout(h, scheme, key_rate)
    key_mask = (1 << key_len) - 1
    key_idx = scheme.edge_order.index(scheme.key_edge)
    pivots = {scheme.edge_order.index(e) for _, e in scheme.recovery}
    masks = oracles.row_masks(scheme.rows, scheme.mu)
    for word in range(1 << total):
        trunc = [(word >> (o + s)) & key_mask for o, s in layout]
        msgs = [_xor_selected(mask, trunc) for mask in masks]
        for idx in pivots:
            stacked = list(zip(masks, msgs)) + [(1 << idx, trunc[idx])]
            values, _ = oracles.solve_with_payload(stacked, scheme.mu)
            if values[key_idx] != trunc[key_idx]:
                return False, 1 << total
    return True, 1 << total


def per_word_secrecy(h, scheme, key_rate):
    """Oracle for brute_force_secrecy: tabulate every realization on its own.

    Returns the report and the table {(message pattern, key): count}.
    """
    layout, key_len, total = _layout(h, scheme, key_rate)
    key_mask = (1 << key_len) - 1
    key_idx = scheme.edge_order.index(scheme.key_edge)
    masks = oracles.row_masks(scheme.rows, scheme.mu)
    counts: dict[tuple[int, int], int] = {}
    for word in range(1 << total):
        trunc = [(word >> (o + s)) & key_mask for o, s in layout]
        fpack = 0
        for r, mask in enumerate(masks):
            fpack |= _xor_selected(mask, trunc) << (r * key_len)
        cell = (fpack, trunc[key_idx])
        counts[cell] = counts.get(cell, 0) + 1
    slices: dict[int, dict[int, int]] = {}
    for (fpack, key), n in counts.items():
        slices.setdefault(fpack, {})[key] = n

    perfect = True
    regular = True
    uniform_support: Optional[int] = None
    for table in slices.values():
        if len(set(table.values())) != 1:
            regular = perfect = False
            break
        if uniform_support is None:
            uniform_support = len(table)
        elif uniform_support != len(table):
            regular = perfect = False
            break
        if len(table) != 1 << key_len:
            perfect = False
    conditional = None
    if regular and uniform_support is not None:
        bits = uniform_support.bit_length() - 1
        if 1 << bits == uniform_support:
            conditional = Fraction(bits)
    elif key_len == 0:
        conditional = Fraction(0)

    report = SecrecyReport(
        perfect=perfect,
        key_entropy_bits=Fraction(key_len),
        conditional_entropy_bits=conditional,
        realizations=1 << total,
        message_patterns=len(slices),
        min_cell=min(counts.values()),
        max_cell=max(counts.values()),
    )
    return report, counts


def leaky(scheme):
    """The scheme plus one row that broadcasts the key edge itself."""
    return dataclasses.replace(
        scheme,
        rows=scheme.rows + ((scheme.column(scheme.key_edge),),),
        speakers=scheme.speakers + scheme.speakers[:1],
    )


def row_dropped(scheme, keep=slice(0, 1)):
    """The scheme with only the rows in keep (default: the first): rank
    deficient, and with keep=slice(-1, None) on H1 two source bits share one
    nonzero observation, which the secrecy convolution must merge."""
    return dataclasses.replace(
        scheme, rows=scheme.rows[keep], speakers=scheme.speakers[keep]
    )


def doubled(scheme):
    """The scheme with its first row's first index written twice: (i, i, j)
    XORs to the truncation of column j alone."""
    first = scheme.rows[0]
    return dataclasses.replace(scheme, rows=(first[:1] + first,) + scheme.rows[1:])


def assert_sweeps_match_oracles(h, scheme, key_rate):
    r = run(h, scheme, key_rate, seed=7, exhaustive=True)
    assert (r.zero_error, r.realizations_checked) == per_word_zero_error(
        h, scheme, key_rate
    )
    assert_secrecy_matches_oracles(h, scheme, key_rate)


def assert_secrecy_matches_oracles(h, scheme, key_rate):
    report, table = per_word_secrecy(h, scheme, key_rate)
    assert brute_force_secrecy(h, scheme, key_rate) == report
    shape = quantize(h, key_rate)
    assert _cell_counts(scheme, shape) == {
        fpack << shape.key_length | key: n for (fpack, key), n in table.items()
    }


# random MCHs whose quantized sources stay small enough for the per-word oracles
ORACLE_BITS = 12
RANDOM_SHAPES = [(2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 3), (6, 4), (7, 4)]


def _random_cases():
    """Seeded MCHs at key rates up to their capacity.  They come from the
    shuffle-first sampler (oracles.propose), whose instances, and so the
    capacities in the case ids, do not move with simkit's draw order."""
    cases = []
    for n, m in RANDOM_SHAPES:
        for seed in range(3):
            g, _ = oracles.random_mch_with_stats(n, m, 3, seed, proposer=oracles.propose)
            cap = g.min_weight()
            for rate in sorted({Fraction(0), cap / 2, Fraction(1), cap}):
                if quantize(g, rate).total_bits() <= ORACLE_BITS:
                    cases.append(pytest.param(g, rate, id=f"{n}v{m}e-s{seed}-r{rate}"))
    return cases


class TestQuantize:
    def test_integer_rate_uses_scale_one(self, h1):
        q = quantize(h1, Fraction(1))
        assert (q.scale, q.key_length) == (1, 1)
        assert q.lengths_map() == {"a": 1, "b": 3, "c": 2}
        assert q.total_bits() == 6

    def test_scale_is_the_lcm_of_denominators(self, h1):
        q = quantize(h1, Fraction(1, 3))
        assert (q.scale, q.key_length) == (3, 1)
        assert q.lengths_map() == {"a": 3, "b": 9, "c": 6}

    def test_fractional_weights_enter_the_lcm(self):
        from hyperkey import Hypergraph

        h = Hypergraph("12", [("a", "12", Fraction(3, 2))])
        q = quantize(h, Fraction(1, 2))
        assert q.scale == 2
        assert q.lengths_map() == {"a": 3}
        assert q.key_length == 1

    def test_zero_rate_keys_nothing(self, h1):
        assert quantize(h1, Fraction(0)).key_length == 0

    def test_rate_validation(self, h1):
        with pytest.raises(NegativeRate):
            quantize(h1, Fraction(-1))
        with pytest.raises(KeyRateExceedsCapacity):
            quantize(h1, Fraction(3, 2))

    def test_edgeless_source_is_a_domain_error(self):
        with pytest.raises(EmptyResult):
            quantize(Hypergraph("12", []), Fraction(1))

    def test_shape_is_cached_per_rate(self, h1):
        half = quantize(h1, Fraction(1, 2))
        assert quantize(h1, Fraction(2, 4)) is half
        assert quantize(h1, Fraction(1)) is not half
        # a refused rate is refused on every call
        for _ in range(2):
            with pytest.raises(KeyRateExceedsCapacity):
                quantize(h1, Fraction(3, 2))


class TestRun:
    def test_seeded_run_is_deterministic(self, h1):
        scheme, _ = synthesize(h1)
        a = run(h1, scheme, Fraction(1), seed=3)
        assert a == run(h1, scheme, Fraction(1), seed=3)
        assert a.zero_error and not a.exhaustive
        assert a.realizations_checked == 1

    def test_key_is_the_leading_bits_of_the_key_edge(self, h1):
        scheme, _ = synthesize(h1)
        r = run(h1, scheme, Fraction(1, 2), seed=9)
        lengths = dict(r.edge_lengths)
        realized = dict(r.realized)
        value = realized[scheme.key_edge]
        assert r.key == value >> (lengths[scheme.key_edge] - r.key_length)
        assert all(k == r.key for _, k in r.recovered)

    def test_messages_xor_leading_bits(self, h1):
        scheme, _ = synthesize(h1)
        r = run(h1, scheme, Fraction(1), seed=3)
        lengths = dict(r.edge_lengths)
        realized = dict(r.realized)

        def lead(eid):
            return realized[eid] >> (lengths[eid] - r.key_length)

        expected = tuple(lead(x) ^ lead(y) for x, y in scheme.row_pairs())
        assert r.messages == expected

    def test_exhaustive_covers_the_state_space(self, h1, single_edge):
        scheme, _ = synthesize(h1)
        r = run(h1, scheme, Fraction(1), exhaustive=True)
        assert r.zero_error and r.exhaustive
        assert r.realizations_checked == 64
        tiny, _ = synthesize(single_edge)
        assert run(single_edge, tiny, Fraction(1), exhaustive=True).realizations_checked == 2

    def test_exhaustive_respects_the_state_cap(self, h1):
        scheme, _ = synthesize(h1)
        with pytest.raises(StateSpaceTooLarge):
            run(h1, scheme, Fraction(1, 64), exhaustive=True)

    def test_sampling_cap_comes_before_the_draw(self):
        """A quantization of about 7.8e39 bits is refused, not drawn."""
        h = Hypergraph("12", [("a", "12", Fraction(1, 3))])
        scheme, _ = synthesize(h)
        rate = Fraction(1, int("7" * 40))
        assert quantize(h, rate).total_bits() > MAX_SAMPLE_BITS
        for exhaustive, kind in ((False, "sampling"), (True, "exhaustive")):
            with pytest.raises(StateSpaceTooLarge, match=f"the {kind} cap"):
                run(h, scheme, rate, exhaustive=exhaustive)

    def test_a_count_past_the_digit_limit_is_named_without_str(self):
        """Two edges of limit nines quantize to more source bits than str()
        prints; both caps name the count as a power of ten."""
        limit = sys.get_int_max_str_digits()
        w = int("9" * limit)
        h = Hypergraph("abc", [("e0", "ab", w), ("e1", "bc", w)])
        scheme, _ = synthesize(h)
        assert quantize(h, Fraction(1)).total_bits() >= 10**limit
        message = f"10\\^{limit} or more source bits exceed the"
        for exhaustive, kind in ((False, "sampling"), (True, "exhaustive")):
            with pytest.raises(StateSpaceTooLarge, match=f"{message} {kind} cap"):
                run(h, scheme, Fraction(1), exhaustive=exhaustive)
        with pytest.raises(StateSpaceTooLarge, match=f"{message} exhaustive cap"):
            brute_force_secrecy(h, scheme, Fraction(1))

    def test_sampling_cap_is_inclusive(self):
        h = Hypergraph("12", [("a", "12", MAX_SAMPLE_BITS)])
        scheme, _ = synthesize(h)
        r = run(h, scheme, Fraction(1), seed=2)
        assert r.zero_error and r.key == r.realized[0][1] >> (MAX_SAMPLE_BITS - 1)
        wider = Hypergraph("12", [("a", "12", MAX_SAMPLE_BITS + 1)])
        with pytest.raises(StateSpaceTooLarge, match="the sampling cap"):
            run(wider, scheme, Fraction(1), seed=2)

    def test_unverified_schemes_are_rejected_by_default(self, h1):
        scheme, _ = synthesize(h1)
        broken = dataclasses.replace(
            scheme, rows=scheme.rows[:1], speakers=scheme.speakers[:1]
        )
        with pytest.raises(SchemeUnverified):
            run(h1, broken, Fraction(1), exhaustive=True)

    def test_wrong_hypergraph_is_rejected(self, h1, h2):
        scheme, _ = synthesize(h1)
        with pytest.raises(SchemeUnverified):
            run(h2, scheme, Fraction(1))


def assert_recoveries_match_oracle(h, key_rate, seed):
    """Each vertex's seeded recovery is the key column of the column-order
    solution of the rows plus its pivot edge's unit row, with the messages
    and the pivot's truncation as payloads."""
    scheme, _ = synthesize(h)
    r = run(h, scheme, key_rate, seed=seed)
    lengths = dict(r.edge_lengths)
    realized = dict(r.realized)
    masks = oracles.row_masks(scheme.rows, scheme.mu)
    key_idx = scheme.edge_order.index(scheme.key_edge)
    pivots = dict(scheme.recovery)
    assert [v for v, _ in r.recovered] == sorted(h.vertices)
    for v, recovered in r.recovered:
        e = pivots[v]
        trunc = realized[e] >> (lengths[e] - r.key_length)
        stacked = [*zip(masks, r.messages), (1 << scheme.edge_order.index(e), trunc)]
        values, unique = oracles.solve_with_payload(stacked, scheme.mu)
        assert unique
        assert recovered == values[key_idx] == r.key


class TestSeededRecoveryOracle:
    """run's tree decoding against a per-vertex elimination, at capacity
    and at half capacity."""

    @staticmethod
    def check(h, seed):
        cap = unconstrained_capacity(h)
        for key_rate in (cap, cap / 2):
            assert_recoveries_match_oracle(h, key_rate, seed)

    @pytest.mark.parametrize("name", ["h1", "h2", "h3", "h5", "single_edge"])
    def test_fixtures(self, request, name):
        for seed in range(3):
            self.check(request.getfixturevalue(name), seed)

    def test_census(self):
        for seed, h in enumerate(oracles.census_mchs()):
            self.check(h, seed)

    def test_random_mchs(self):
        for seed, h in enumerate(oracles.random_mchs(200, seed=13)):
            self.check(h, seed)


class TestSecrecyOracles:
    def test_rank_oracle_accepts_synthesized_schemes(self, h1, h2, h5):
        for h in (h1, h2, h5):
            scheme, _ = synthesize(h)
            assert verify(scheme).secrecy_ok

    def test_rank_oracle_rejects_key_leak(self, h1):
        scheme, _ = synthesize(h1)
        key_column = (scheme.column(scheme.key_edge),)
        leak = dataclasses.replace(scheme, rows=scheme.rows + (key_column,))
        assert not verify(leak).secrecy_ok

    def test_brute_force_h1(self, h1):
        scheme, _ = synthesize(h1)
        rep = brute_force_secrecy(h1, scheme, Fraction(1))
        assert rep.perfect
        assert rep.key_entropy_bits == 1
        assert rep.conditional_entropy_bits == 1
        assert rep.realizations == 64
        assert rep.message_patterns == 4
        assert (rep.min_cell, rep.max_cell) == (8, 8)
        # 4 patterns x 2 key values
        assert len(_cell_counts(scheme, quantize(h1, Fraction(1)))) == 8

    def test_brute_force_h5(self, h5):
        scheme, _ = synthesize(h5)
        rep = brute_force_secrecy(h5, scheme, Fraction(1))
        assert rep.perfect
        assert rep.realizations == 64
        assert rep.message_patterns == 32
        assert (rep.min_cell, rep.max_cell) == (1, 1)

    def test_brute_force_detects_leak(self, h1):
        scheme, _ = synthesize(h1)
        key_column = (scheme.column(scheme.key_edge),)
        leak = dataclasses.replace(
            scheme,
            rows=scheme.rows + (key_column,),
            speakers=scheme.speakers + (scheme.speakers[0],),
        )
        rep = brute_force_secrecy(h1, leak, Fraction(1))
        assert not rep.perfect
        assert rep.conditional_entropy_bits == 0  # the extra row reveals the key


class TestSweepsMatchPerWordOracles:
    @pytest.mark.parametrize("name", ["h1", "h2", "h3", "h5", "single_edge"])
    @pytest.mark.parametrize("key_rate", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_fixtures(self, request, name, key_rate):
        h = request.getfixturevalue(name)
        scheme, _ = synthesize(h)
        assert_sweeps_match_oracles(h, scheme, key_rate)

    @pytest.mark.parametrize("name", ["h1", "h2", "h5"])
    def test_leaky_and_row_dropped_schemes(self, request, name):
        """run refuses these schemes; both secrecy sweeps still tabulate them."""
        h = request.getfixturevalue(name)
        scheme, _ = synthesize(h)
        for bad in (
            leaky(scheme),
            row_dropped(scheme),
            row_dropped(scheme, slice(-1, None)),
            doubled(scheme),
        ):
            for key_rate in (Fraction(0), Fraction(1)):
                with pytest.raises(SchemeUnverified):
                    run(h, bad, key_rate, exhaustive=True)
                assert_secrecy_matches_oracles(h, bad, key_rate)

    @pytest.mark.parametrize("h, key_rate", _random_cases())
    def test_random_mchs(self, h, key_rate):
        scheme, _ = synthesize(h)
        assert_sweeps_match_oracles(h, scheme, key_rate)

    @pytest.mark.parametrize("weight, key_rate", [(1, 1), (3, 2), (3, 0), (4, 3)])
    def test_one_edge_source(self, weight, key_rate):
        h = Hypergraph("12", [("a", "12", weight)])
        scheme, _ = synthesize(h)
        assert scheme.rows == ()
        assert_sweeps_match_oracles(h, scheme, Fraction(key_rate))


class TestTwentyBitCap:
    def test_two_edge_path_at_rate_ten(self):
        h = Hypergraph("123", [("a", "12", 10), ("b", "23", 10)])
        scheme, _ = synthesize(h)
        r = run(h, scheme, Fraction(10), exhaustive=True)
        assert r.zero_error and r.realizations_checked == 2**20
        rep = brute_force_secrecy(h, scheme, Fraction(10))
        assert rep.perfect and rep.realizations == 2**20
        assert rep.message_patterns == 1024
        assert (rep.min_cell, rep.max_cell) == (1, 1)
        assert rep.conditional_entropy_bits == 10

    def test_four_edge_path_at_rate_one(self):
        h = Hypergraph("12345", [(e, m, 5) for e, m in zip("abcd", ["12", "23", "34", "45"])])
        scheme, _ = synthesize(h)
        r = run(h, scheme, Fraction(1), exhaustive=True)
        assert r.zero_error and r.realizations_checked == 2**20
        rep = brute_force_secrecy(h, scheme, Fraction(1))
        assert rep.perfect and rep.realizations == 2**20
        assert rep.message_patterns == 8
        assert (rep.min_cell, rep.max_cell) == (65536, 65536)
        assert rep.conditional_entropy_bits == 1
        assert len(_cell_counts(scheme, quantize(h, Fraction(1)))) == 16


class TestSchemeMismatch:
    def test_unknown_key_edge(self, h1):
        scheme, _ = synthesize(h1)
        stray = dataclasses.replace(scheme, key_edge="zz")
        with pytest.raises(SchemeUnverified):
            run(h1, stray, Fraction(1))
        with pytest.raises(SchemeUnverified):
            brute_force_secrecy(h1, stray, Fraction(1))
        assert verify(stray).secrecy_ok is False

    def test_unknown_pivot_edge(self, h1):
        scheme, _ = synthesize(h1)
        stray = dataclasses.replace(
            scheme, recovery=tuple((v, "zz") for v, _ in scheme.recovery)
        )
        with pytest.raises(SchemeUnverified):
            run(h1, stray, Fraction(1))

    def test_pivot_edge_not_held_or_vertex_listed_twice(self, h1):
        """Every vertex recovering through b (1, 4 and 6 are not on b), or
        vertex 1 listed a second time."""
        scheme, _ = synthesize(h1)
        for recovery in (
            tuple((v, "b") for v, _ in scheme.recovery),
            scheme.recovery + scheme.recovery[:1],
        ):
            stray = dataclasses.replace(scheme, recovery=recovery)
            for exhaustive in (False, True):
                with pytest.raises(SchemeUnverified):
                    run(h1, stray, Fraction(1), exhaustive=exhaustive)

    def test_row_outside_the_edge_order(self, h1):
        scheme, _ = synthesize(h1)
        for row in ((0, 3), (-1, 1)):
            wide = dataclasses.replace(scheme, rows=scheme.rows[:1] + (row,))
            with pytest.raises(SchemeUnverified):
                run(h1, wide, Fraction(1), exhaustive=True)
            with pytest.raises(SchemeUnverified):
                brute_force_secrecy(h1, wide, Fraction(1))

    @pytest.mark.parametrize("row", [(0, "x"), (0, 1.0), 5, [0, 1]])
    def test_row_that_is_no_tuple_of_ints(self, h1, row):
        scheme, _ = synthesize(h1)
        odd = dataclasses.replace(scheme, rows=scheme.rows[:1] + (row,))
        with pytest.raises(SchemeUnverified, match="not a tuple of column indices"):
            run(h1, odd, Fraction(1))
        with pytest.raises(SchemeUnverified, match="not a tuple of column indices"):
            brute_force_secrecy(h1, odd, Fraction(1))


class _Assigned(random.Random):
    """A random.Random whose first one-argument randrange calls return
    owners in turn: the assignment of a proposal, fixed."""

    def __init__(self, seed, owners):
        super().__init__(seed)
        self.owners = list(owners)

    def randrange(self, start, stop=None, step=1):
        if stop is None and self.owners:
            return self.owners.pop(0)
        return super().randrange(start, stop, step)


def _introduces_none(h: Hypergraph) -> bool:
    """Whether an edge after the first (in id order) has every member on an
    earlier edge."""
    seen: set = set()
    for j, e in enumerate(h.edges):
        if j and e.members <= seen:
            return True
        seen |= e.members
    return False


class TestRandomMCH:
    def test_two_vertices_give_the_unique_instance(self):
        g, _ = random_mch_with_stats(2, 1, 1, seed=9)
        assert [(e.id, sorted(e.members), e.weight) for e in g.edges] == [
            ("a", ["1", "2"], 1)
        ]

    def test_seeded_golden_instance(self):
        g, stats = random_mch_with_stats(6, 3, 3, seed=1)
        assert [(e.id, sorted(e.members), e.weight) for e in g.edges] == [
            ("a", ["1", "2", "4", "5"], 1),
            ("b", ["4", "6"], 2),
            ("c", ["3", "4"], 2),
        ]
        assert stats.attempts == 1

    def test_generation_is_deterministic(self):
        assert random_mch_with_stats(7, 4, 2, seed=13) == random_mch_with_stats(
            7, 4, 2, seed=13
        )

    def test_counts_are_exact(self):
        for n, m, w, seed in [(4, 3, 1, 0), (6, 4, 2, 3), (8, 6, 4, 7)]:
            g, _ = random_mch_with_stats(n, m, w, seed=seed)
            assert len(g.vertices) == n
            assert len(g.edges) == m
            assert g.is_mch()
            assert all(1 <= e.weight <= w for e in g.edges)

    def test_bounds(self):
        for n, m in [(1, 1), (9, 3), (4, 0), (4, 7)]:
            with pytest.raises(GroundTooLarge):
                random_mch_with_stats(n, m)
        with pytest.raises(NegativeRate):
            random_mch_with_stats(3, 2, 0)

    def test_infeasible_counts_exhaust_the_budget(self):
        with pytest.raises(GenerationBudgetExhausted):
            random_mch_with_stats(2, 2, 1)

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 6), (3, 3), (5, 5), (6, 6)])
    def test_no_mch_has_as_many_edges_as_vertices(self, n, m, monkeypatch):
        # refused before any draw: a billion proposals would not finish
        monkeypatch.setattr(simkit, "MAX_ATTEMPTS", 10**9)
        with pytest.raises(GenerationBudgetExhausted, match="at most n - 1 edges"):
            random_mch_with_stats(n, m, 1, seed=3)

    def test_census_has_no_mch_with_as_many_edges_as_vertices(self):
        shapes = {(len(h.vertices), len(h.edges)) for h in oracles.census_mchs()}
        assert all(m < n for n, m in shapes)
        # the census reaches m >= n for n <= 4, and m = n - 1 for every n
        assert {(n, n - 1) for n in (2, 3, 4, 5)} <= shapes

    def test_multi_word_weights_match_the_oracle(self):
        """Weight bounds past 32 bits, where one getrandbits call takes
        several words of the generator's output."""
        for w in (2**32, 2**32 + 1, 2**40 + 3):
            for n, m in [(3, 2), (5, 3), (6, 4)]:
                for seed in range(10):
                    expected = oracles.random_mch_with_stats(n, m, w, seed)
                    g, stats = random_mch_with_stats(n, m, w, seed)
                    assert (g, stats.attempts) == expected, (w, n, m, seed)

    def test_matches_the_rebuild_oracle(self, monkeypatch):
        """Same instance and attempts as a Hypergraph plus is_mch per
        proposal, and a budget exhausted on the same cases: every shape the
        bounds allow, weights up to 1 and 3, 25 seeds, 60 proposals."""
        monkeypatch.setattr(simkit, "MAX_ATTEMPTS", 60)
        outcomes = {"accepted": 0, "exhausted": 0}
        for n in range(2, 9):
            for m in range(1, 7):
                for w in (1, 3):
                    for seed in range(25):
                        try:
                            expected = oracles.random_mch_with_stats(
                                n, m, w, seed, max_attempts=60
                            )
                        except GenerationBudgetExhausted:
                            with pytest.raises(GenerationBudgetExhausted):
                                random_mch_with_stats(n, m, w, seed)
                            outcomes["exhausted"] += 1
                            continue
                        g, stats = random_mch_with_stats(n, m, w, seed)
                        assert (g, stats.attempts) == expected, (n, m, w, seed)
                        outcomes["accepted"] += 1
        assert min(outcomes.values()) >= 500, outcomes

    # the fuzz menu, plus the two rare shapes it leaves out
    SHAPES = (
        (2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3),
        (6, 4), (7, 4), (7, 5), (8, 4), (8, 5), (6, 5), (8, 6),
    )

    def test_proposals_keep_step_with_the_oracle(self, monkeypatch):
        """_proposals and oracles.propose_assignment_first on two generators
        of one seed, over the first 120 proposals: each proposal _proposals
        yields is the reference's (the same edges and weights, accepted
        alike) with the generators in one state, each one it skips the
        reference rejects on its assignment, and after the last proposal
        the states are equal again."""
        monkeypatch.setattr(simkit, "MAX_ATTEMPTS", 120)
        doomed = accepted_count = 0
        for n, m in self.SHAPES:
            names = [str(i + 1) for i in range(n)]
            full = (1 << n) - 1
            for w in (1, 3, 2**32 + 1):
                for seed in range(3):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    made = 0
                    for attempt, masks, weights in _proposals(ours, n, m, w):
                        for _ in range(made + 1, attempt):
                            assert oracles.propose_assignment_first(
                                theirs, names, m, w
                            ) is None
                            doomed += 1
                        made = attempt
                        want = oracles.propose_assignment_first(theirs, names, m, w)
                        assert ours.getstate() == theirs.getstate(), (n, m, w, seed)
                        assert [
                            (sum(1 << names.index(v) for v in e.members), e.weight)
                            for e in want.edges
                        ] == list(zip(masks, weights))
                        accepted = want.is_mch()
                        assert _is_minimal(masks, full) == accepted
                        accepted_count += accepted
                    for _ in range(made, 120):
                        assert oracles.propose_assignment_first(
                            theirs, names, m, w
                        ) is None
                        doomed += 1
                    assert ours.getstate() == theirs.getstate(), (n, m, w, seed)
        assert doomed >= 5000 and accepted_count >= 1500, (doomed, accepted_count)

    @pytest.mark.parametrize("n, m", [(4, 3), (5, 4)])
    def test_assignments_rejected_first_are_never_mchs(self, n, m):
        """Every assignment of the n - 1 later vertices to the m edges:
        the ones the assignment-first order rejects (some edge picked by
        none) give, under the shuffle-first oracles.propose and 20 seeds
        for its other draws, only proposals with a loop first edge (None)
        or with a later edge that introduces no vertex, which is_mch
        rejects; the others give proposals in the assignment-first order."""
        names = [str(i + 1) for i in range(n)]
        rejected = built = 0
        for owners in itertools.product(range(m), repeat=n - 1):
            kept = set(owners) == set(range(m))
            rejected += not kept
            for seed in range(20):
                first = _Assigned(seed, owners)
                assert (
                    oracles.propose_assignment_first(first, names, m, 1) is not None
                ) == kept
                if kept:
                    continue
                rng = _Assigned(seed, owners)
                h = oracles.propose(rng, names, m, 1)
                assert not rng.owners
                if h is not None:
                    assert _introduces_none(h) and not h.is_mch(), (owners, seed)
                    built += 1
        surjections = sum(
            (-1) ** k * math.comb(m, k) * (m - k) ** (n - 1) for k in range(m + 1)
        )
        assert rejected == m ** (n - 1) - surjections
        assert built >= 10 * rejected

    # (vertices, edges, max weight, old-order cases, new-order cases);
    # fixed with the tolerances below before the test first ran
    LAW_SHAPES = ((3, 2, 2, 1500, 6000), (4, 3, 1, 400, 4000), (5, 4, 1, 80, 1000))

    @pytest.mark.parametrize("n, m, w, old_cases, new_cases", LAW_SHAPES)
    def test_assignment_first_keeps_the_law(self, n, m, w, old_cases, new_cases):
        """The shuffle-first sampler (oracles.propose, every proposal built
        and scanned by is_mch, seeds 0..old_cases-1) and random_mch_with_stats
        (seeds from 10^6 on) agree in law: mean attempts within 4 standard
        errors, and a chi-square homogeneity statistic over the accepted
        instances (bins whose pooled count is under 10 merged) at most
        df + 4 * sqrt(2 * df).  The instance is its edges with their weights
        on (3, 2) and (4, 3), and the degree of each vertex on (5, 4), whose
        labelled instances are too many for the sample."""

        def key(g):
            if n == 5:
                return tuple(sum(v in e.members for e in g.edges) for v in names)
            return tuple((e.id, tuple(sorted(e.members)), e.weight) for e in g.edges)

        names = [str(i + 1) for i in range(n)]
        old = [
            oracles.random_mch_with_stats(n, m, w, seed, proposer=oracles.propose)
            for seed in range(old_cases)
        ]
        new = [
            (g, stats.attempts)
            for g, stats in (
                random_mch_with_stats(n, m, w, seed)
                for seed in range(10**6, 10**6 + new_cases)
            )
        ]
        moments = []
        for sample in (old, new):
            attempts = [a for _, a in sample]
            mean = sum(attempts) / len(attempts)
            var = sum((a - mean) ** 2 for a in attempts) / (len(attempts) - 1)
            moments.append((mean, var / len(attempts)))
        (mean_old, se2_old), (mean_new, se2_new) = moments
        assert abs(mean_old - mean_new) <= 4 * math.sqrt(se2_old + se2_new), moments

        counts = [Counter(key(g) for g, _ in sample) for sample in (old, new)]
        pooled = counts[0] + counts[1]
        rare = [k for k in pooled if pooled[k] < 10]
        bins = [[k] for k in pooled if pooled[k] >= 10] + ([rare] if rare else [])
        sizes = (old_cases, new_cases)
        chi2 = 0.0
        for keys in bins:
            total = sum(pooled[k] for k in keys)
            for c, size in zip(counts, sizes):
                expected = total * size / (old_cases + new_cases)
                chi2 += (sum(c[k] for k in keys) - expected) ** 2 / expected
        df = len(bins) - 1
        assert df >= 3 and chi2 <= df + 4 * math.sqrt(2 * df), (chi2, df)

    def test_seven_vertices_six_edges_fit_the_default_budget(self):
        """The least seed of the shape (7, 6) that takes more than 20000
        proposals, the budget the sampler once had, is seed 0, at 20884;
        both samplers agree on it."""
        expected = oracles.random_mch_with_stats(7, 6, 1, 0)
        g, stats = random_mch_with_stats(7, 6, 1, 0)
        assert (g, stats.attempts) == expected
        assert stats.attempts == 20884

    @pytest.mark.parametrize("n, m", [(6, 5), (8, 6)])
    def test_rare_shapes_match_under_the_default_budget(self, n, m):
        # thousands of proposals per case: the attempt counts the fuzz
        # command prints must still agree
        for seed in range(2):
            expected = oracles.random_mch_with_stats(n, m, 1, seed)
            g, stats = random_mch_with_stats(n, m, 1, seed)
            assert (g, stats.attempts) == expected

    @given(st.integers(0, 30))
    def test_generated_instances_are_mch(self, seed):
        menu = [(3, 2, 1), (4, 3, 2), (5, 3, 1), (6, 4, 3)]
        n, m, w = menu[seed % len(menu)]
        g, _ = random_mch_with_stats(n, m, w, seed=seed)
        assert g.is_mch()
        assert len(g.vertices) == n and len(g.edges) == m
