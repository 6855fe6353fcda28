"""GF(2) bitmask linear algebra: the reduced basis of gf2.eliminate, read
for rank and span membership, and checked against the rank oracle in
tests/oracles.py."""

import random

from hypothesis import given, strategies as st

from hyperkey import gf2

import oracles


def rank(rows):
    return len(gf2.eliminate(rows))


def unit_in_span(basis, col):
    return basis.get(col, 0) == 1 << col


class TestRank:
    def test_empty_and_zero_rows(self):
        assert gf2.eliminate([]) == {}
        assert gf2.eliminate([0, 0]) == {}

    def test_identity(self):
        rows = [0b001, 0b010, 0b100]
        assert gf2.eliminate(rows) == {0: 0b001, 1: 0b010, 2: 0b100}

    def test_dependent_rows(self):
        # the third row is the XOR of the first two; the basis is reduced
        basis = gf2.eliminate([0b011, 0b101, 0b110])
        assert basis == {0: 0b101, 1: 0b110}

    def test_rank_with_counts_new_direction(self):
        rows = [0b011, 0b110]
        assert rank(rows + [0b101]) == 2  # inside the span
        assert rank(rows + [0b001]) == 3  # outside
        basis = gf2.eliminate(rows)
        assert not any(unit_in_span(basis, col) for col in range(3))
        basis = gf2.eliminate([0b011, 0b010])
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
        assert gf2.eliminate(rows) == gf2.eliminate(shuffled)


class TestAgainstOracles:
    def test_rank_and_unit_vectors_match_the_rank_oracle(self):
        rng = random.Random(20261018)
        for _ in range(20000):
            ncols = rng.randint(1, 8)
            rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 9))]
            if rows and rng.random() < 0.3:  # force a dependent row
                rows.append(rows[0] ^ rows[-1])
            basis = gf2.eliminate(rows)
            r = oracles.rank(rows)
            assert len(basis) == r
            for col in range(ncols):
                inside = oracles.rank_with(rows, 1 << col) == r
                assert unit_in_span(basis, col) == inside
            # reduced form: each pivot is its row's lowest bit and the only
            # pivot bit in it
            pivots = sum(1 << col for col in basis)
            for col, mask in basis.items():
                assert mask & -mask == 1 << col
                assert mask & pivots == 1 << col
