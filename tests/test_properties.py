"""Bundled structure validators: lemma identities and scheme round trips."""

import random
from fractions import Fraction

import pytest

from hyperkey import (
    ConnectivityReport,
    NotMCH,
    Partition,
    lemma_violations,
    random_mch,
    require_mch,
    scheme_round_trip_violations,
)


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
            assert lemma_violations(h, rng=random.Random(0), check_prop2=True) == []

    def test_prop2_reports_a_skip_instead_of_passing_silently(self, h5):
        # 11 vertices exceed the exhaustive-subfamily cap
        out = lemma_violations(h5, rng=random.Random(0), check_prop2=True)
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
            g = random_mch(n, m, w, seed=seed)
            assert lemma_violations(g, rng=random.Random(seed)) == []


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
        assert scheme_round_trip_violations(h1, Fraction(1, 8), simulate_cap=10) == []
