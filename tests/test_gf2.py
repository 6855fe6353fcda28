"""GF(2) bitmask linear algebra."""

import random

import pytest
from hypothesis import given, strategies as st

from hyperkey import RankDefect, gf2


class TestRank:
    def test_empty_and_zero_rows(self):
        assert gf2.rank([]) == 0
        assert gf2.rank([0, 0]) == 0

    def test_identity(self):
        assert gf2.rank([0b001, 0b010, 0b100]) == 3

    def test_dependent_rows(self):
        assert gf2.rank([0b011, 0b101, 0b110]) == 2  # third is the XOR of the first two

    def test_rank_with_counts_new_direction(self):
        rows = [0b011, 0b110]
        assert gf2.rank_with(rows, 0b101) == 2  # inside the span
        assert gf2.rank_with(rows, 0b001) == 3  # outside

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=10), st.integers(0, 255))
    def test_appending_a_row_adds_at_most_one(self, rows, extra):
        r = gf2.rank(rows)
        assert r <= gf2.rank_with(rows, extra) <= r + 1

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=10))
    def test_rank_is_permutation_invariant(self, rows):
        rng = random.Random(0)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert gf2.rank(rows) == gf2.rank(shuffled)


class TestSolveWithPayload:
    def test_unique_solution_round_trip(self):
        # x0=5, x1=9, x2=12 encoded through three independent equations
        x = [5, 9, 12]
        rows = [(0b011, x[0] ^ x[1]), (0b110, x[1] ^ x[2]), (0b100, x[2])]
        values, unique = gf2.solve_with_payload(rows, 3)
        assert unique
        assert values == x

    def test_free_columns_are_zeroed(self):
        values, unique = gf2.solve_with_payload([(0b011, 7)], 2)
        assert not unique
        assert values == [7, 0]  # column 1 is free, pivot column absorbs the payload

    def test_inconsistent_system_raises(self):
        with pytest.raises(RankDefect):
            gf2.solve_with_payload([(0b01, 1), (0b01, 2)], 2)

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_payload_solver_matches_direct_xor(self, a, b, c):
        rows = [(0b001, a), (0b011, a ^ b), (0b111, a ^ b ^ c)]
        values, unique = gf2.solve_with_payload(rows, 3)
        assert unique
        assert values == [a, b, c]
