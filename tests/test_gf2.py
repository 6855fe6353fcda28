"""GF(2) bitmask linear algebra: the reduced basis of gf2.eliminate, read
for rank, span membership and solutions, and checked against the rank and
column-order solver oracles in tests/oracles.py."""

import random

import pytest
from hypothesis import given, strategies as st

from hyperkey import RankDefect, gf2

import oracles


def rank(rows):
    return len(gf2.eliminate((row, 0) for row in rows))


def solve(rows, ncols):
    """(values, unique) read off the reduced basis, free columns zero."""
    basis = gf2.eliminate(rows)
    values = [basis.get(col, (0, 0))[1] for col in range(ncols)]
    return values, all(col in basis for col in range(ncols))


def unit_in_span(basis, col):
    return basis.get(col, (0, 0))[0] == 1 << col


class TestRank:
    def test_empty_and_zero_rows(self):
        assert gf2.eliminate([]) == {}
        assert gf2.eliminate([(0, 0), (0, 0)]) == {}

    def test_identity(self):
        rows = [(0b001, 0), (0b010, 0), (0b100, 0)]
        assert gf2.eliminate(rows) == {0: (0b001, 0), 1: (0b010, 0), 2: (0b100, 0)}

    def test_dependent_rows(self):
        # the third row is the XOR of the first two; the basis is reduced
        basis = gf2.eliminate([(0b011, 0), (0b101, 0), (0b110, 0)])
        assert basis == {0: (0b101, 0), 1: (0b110, 0)}

    def test_rank_with_counts_new_direction(self):
        rows = [0b011, 0b110]
        assert rank(rows + [0b101]) == 2  # inside the span
        assert rank(rows + [0b001]) == 3  # outside
        basis = gf2.eliminate((row, 0) for row in rows)
        assert not any(unit_in_span(basis, col) for col in range(3))
        basis = gf2.eliminate([(0b011, 0), (0b010, 0)])
        assert unit_in_span(basis, 0) and unit_in_span(basis, 1)
        assert not unit_in_span(basis, 2)

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=10), st.integers(0, 255))
    def test_appending_a_row_adds_at_most_one(self, rows, extra):
        r = rank(rows)
        assert r == oracles.rank(rows)
        assert r <= rank(rows + [extra]) <= r + 1

    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=10))
    def test_rank_is_permutation_invariant(self, rows):
        rng = random.Random(0)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        # the reduced form is unique, not just its size
        assert gf2.eliminate((r, 0) for r in rows) == gf2.eliminate(
            (r, 0) for r in shuffled
        )


class TestSolveWithPayload:
    def test_unique_solution_round_trip(self):
        # x0=5, x1=9, x2=12 encoded through three independent equations
        x = [5, 9, 12]
        rows = [(0b011, x[0] ^ x[1]), (0b110, x[1] ^ x[2]), (0b100, x[2])]
        values, unique = solve(rows, 3)
        assert unique
        assert values == x

    def test_free_columns_are_zeroed(self):
        values, unique = solve([(0b011, 7)], 2)
        assert not unique
        assert values == [7, 0]  # column 1 is free, pivot column absorbs the payload

    def test_inconsistent_system_raises(self):
        with pytest.raises(RankDefect):
            gf2.eliminate([(0b01, 1), (0b01, 2)])

    @given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7))
    def test_payload_solver_matches_direct_xor(self, a, b, c):
        rows = [(0b001, a), (0b011, a ^ b), (0b111, a ^ b ^ c)]
        values, unique = solve(rows, 3)
        assert unique
        assert values == [a, b, c]


class TestAgainstOracles:
    def test_rank_and_unit_vectors_match_the_rank_oracle(self):
        rng = random.Random(20261018)
        for _ in range(20000):
            ncols = rng.randint(1, 8)
            rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 9))]
            if rows and rng.random() < 0.3:  # force a dependent row
                rows.append(rows[0] ^ rows[-1])
            basis = gf2.eliminate((row, 0) for row in rows)
            r = oracles.rank(rows)
            assert len(basis) == r
            for col in range(ncols):
                inside = oracles.rank_with(rows, 1 << col) == r
                assert unit_in_span(basis, col) == inside
            # reduced form: each pivot is its row's lowest bit and the only
            # pivot bit in it
            pivots = sum(1 << col for col in basis)
            for col, (mask, _) in basis.items():
                assert mask & -mask == 1 << col
                assert mask & pivots == 1 << col

    def test_solutions_match_the_column_order_oracle(self):
        rng = random.Random(1018)
        raised = solved = 0
        for _ in range(20000):
            ncols = rng.randint(1, 7)
            x = [rng.getrandbits(4) for _ in range(ncols)]
            rows = []
            for _ in range(rng.randint(0, 9)):
                mask = rng.getrandbits(ncols)
                payload = 0
                for col in range(ncols):
                    if mask >> col & 1:
                        payload ^= x[col]
                if rng.random() < 0.1:  # a wrong right-hand side
                    payload ^= rng.getrandbits(4)
                rows.append((mask, payload))
            try:
                want = oracles.solve_with_payload(rows, ncols)
            except RankDefect:
                with pytest.raises(RankDefect):
                    gf2.eliminate(rows)
                raised += 1
                continue
            assert solve(rows, ncols) == want
            solved += 1
        assert raised > 1000 and solved > 10000
