"""Per-block rank functions: values, shape verification, extreme points,
exact decomposition certificates."""

from fractions import Fraction

import pytest

from hyperkey import (
    NegativeRate,
    RankFunction,
    SubsetOutsideBlock,
    UnknownVertex,
    decompose,
    extreme_point_for_order,
    extreme_points,
    rank,
    verify_contra_polymatroid,
)
from hyperkey.errors import GroundTooLarge


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

    def test_block_size_guard(self, h5):
        fn = RankFunction(h5, frozenset("12345"), Fraction(1))
        with pytest.raises(GroundTooLarge):
            verify_contra_polymatroid(fn, max_block=4)


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

    def test_rate_of_a_vertex_outside_the_block_is_a_domain_error(self, fn1):
        with pytest.raises(UnknownVertex):
            extreme_point_for_order(fn1, "123").rate("4")

    def test_singleton_block(self, h1):
        fn = RankFunction(h1, frozenset("4"), Fraction(1))
        (pt,) = extreme_points(fn)
        assert dict(pt.rates) == {"4": 0}

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

    def test_block_size_guard(self, h5):
        fn = RankFunction(h5, frozenset("12345"), Fraction(1))
        with pytest.raises(GroundTooLarge):
            decompose(fn, {v: 1 for v in "12345"}, max_block=4)
