"""Hypergraph construction, predicates, and the vertex/edge operations."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from hyperkey import (
    BergeCycle,
    DuplicateEdgeId,
    EmptyResult,
    EmptyVertexSet,
    Hypergraph,
    NonpositiveWeight,
    UnknownVertex,
    entropy,
    partition_connectivity,
)
from hyperkey import hgio, hypergraph
from hyperkey.capacity import region_spec
from hyperkey.errors import GroundTooLarge
from hyperkey.hypergraph import Edge, _block_view, block_removal_counts
from hyperkey.polymatroid import RankFunction, extreme_point_for_order, rank
from hyperkey.scheme import representatives, synthesize

import oracles
import scale_walls


class TestConstruction:
    def test_rejects_empty_vertex_set(self):
        with pytest.raises(EmptyVertexSet):
            Hypergraph([], [])

    def test_rejects_unknown_member(self):
        with pytest.raises(UnknownVertex):
            Hypergraph("12", [("a", "17", 1)])

    def test_rejects_duplicate_edge_id(self):
        with pytest.raises(DuplicateEdgeId):
            Hypergraph("12", [("a", "12", 1), ("a", "1", 1)])

    def test_rejects_empty_member_set(self):
        with pytest.raises(EmptyVertexSet):
            Hypergraph("12", [("a", [], 1)])

    @pytest.mark.parametrize("w", [0, -2, Fraction(-1, 3)])
    def test_rejects_nonpositive_weight(self, w):
        with pytest.raises(NonpositiveWeight):
            Hypergraph("12", [("a", "12", w)])

    @pytest.mark.parametrize(
        "w", ["x", "1/0", None, float("inf"), float("nan"), "1e3", "1e30000000"]
    )
    def test_rejects_a_weight_that_is_no_rational(self, w):
        # Fraction() raises ValueError, ZeroDivisionError, TypeError or
        # OverflowError here, and exponent notation is refused before it
        # (Fraction would build a 30-million-digit integer); each is the one
        # domain error
        with pytest.raises(NonpositiveWeight):
            Hypergraph("12", [("a", "12", w)])

    def test_weight_forms_normalize_to_fraction(self):
        h = Hypergraph("12", [("a", "12", "3/2"), ("b", "12", Fraction(3, 2))])
        assert h.edge("a").weight == h.edge("b").weight == Fraction(3, 2)

    def test_edges_sorted_by_id_and_value_semantics(self, h1):
        assert [e.id for e in h1.edges] == ["a", "b", "c"]
        same = Hypergraph("123456", [("c", "136", 2), ("b", "235", 3), ("a", "124", 1)])
        assert same == h1
        assert hash(same) == hash(h1)


class TestKeptEdges:
    def test_well_formed_edges_are_kept_as_they_are(self):
        edge = Edge("a", frozenset({"1", "2"}), Fraction(3, 2))
        assert Hypergraph("12", [edge]).edges[0] is edge

    def test_other_edges_are_rebuilt(self):
        """An int or str weight or a plain member set is coerced as before."""
        for edge in (
            Edge("a", frozenset({"1", "2"}), 2),
            Edge("a", {"1", "2"}, Fraction(2)),
            Edge("a", frozenset({"1", "2"}), "2"),
        ):
            kept = Hypergraph("12", [edge]).edges[0]
            assert kept is not edge
            assert kept == Edge("a", frozenset({"1", "2"}), Fraction(2))
            assert type(kept.members) is frozenset
            assert type(kept.weight) is Fraction

    def test_a_nonpositive_weight_is_still_refused(self):
        for weight in (Fraction(0), Fraction(-1, 2)):
            with pytest.raises(NonpositiveWeight):
                Hypergraph("12", [Edge("a", frozenset({"1", "2"}), weight)])
        with pytest.raises(UnknownVertex):
            Hypergraph("12", [Edge("a", frozenset({"1", 2}), Fraction(1))])

    @pytest.mark.parametrize(
        "members", [["1", "2"], ("1", "2"), "12", [1, 2]],
        ids=["list", "tuple", "str", "ints"],
    )
    def test_any_member_iterable_is_coerced_as_the_tuple_form_is(self, members):
        expected = Hypergraph("12", [("a", members, 1)]).edges
        assert expected == (Edge("a", frozenset({"1", "2"}), Fraction(1)),)
        for edge in (Edge("a", members, 1), Edge("a", members, Fraction(1))):
            got = Hypergraph("12", [edge]).edges
            assert got == expected
            assert type(got[0].members) is frozenset

    @pytest.mark.parametrize("members", [None, 5, Fraction(1, 2)])
    def test_a_member_set_that_is_not_iterable_is_a_domain_error(self, members):
        for edge in (Edge("a", members, 1), ("a", members, 1)):
            with pytest.raises(UnknownVertex, match="member set that is not iterable"):
                Hypergraph("12", [edge])

    @pytest.mark.parametrize(
        "item", [("a", "12"), ("a", "12", 1, 2), (), 5, None],
        ids=["pair", "quadruple", "empty", "int", "none"],
    )
    def test_an_edge_item_that_is_no_triple_is_a_domain_error(self, item):
        with pytest.raises(UnknownVertex, match="is no Edge or"):
            Hypergraph("12", [item])

    def test_malformed_members_still_meet_the_member_checks(self):
        with pytest.raises(EmptyVertexSet):
            Hypergraph("12", [Edge("a", [], 1)])
        with pytest.raises(UnknownVertex, match=r"unknown vertices: \['3'\]"):
            Hypergraph("12", [Edge("a", ["1", "3"], 1)])
        # a frozenset of mixed item types is kept, and still refused in words
        with pytest.raises(UnknownVertex, match=r"unknown vertices: \[1, '3'\]"):
            Hypergraph("12", [Edge("a", frozenset({1, "3"}), Fraction(1))])


class TestAccessors:
    def test_degree_counts_incident_edges(self, h1):
        assert {v: h1.degree(v) for v in sorted(h1.vertices)} == {
            "1": 2, "2": 2, "3": 2, "4": 1, "5": 1, "6": 1,
        }

    def test_degree_unknown_vertex(self, h1):
        with pytest.raises(UnknownVertex):
            h1.degree("9")

    def test_min_weight(self, h1, h2):
        assert h1.min_weight() == 1
        assert h2.min_weight() == 1

    def test_min_weight_of_no_edges_is_a_domain_error(self):
        h = Hypergraph("12", [])
        for _ in range(2):
            with pytest.raises(EmptyResult):
                h.min_weight()

    def test_min_weight_is_cached_on_the_value(self):
        h = Hypergraph("123", [("a", "12", Fraction(3, 2)), ("b", "23", Fraction(5, 4))])
        assert h.min_weight() == Fraction(5, 4)
        assert h._cache["min_weight"] is h.min_weight()

    def test_unknown_edge_id_is_a_domain_error(self, h1):
        with pytest.raises(UnknownVertex):
            h1.edge("zz")

    def test_coverage_entropy(self, h1):
        # H(Z_B) sums the weights of edges meeting B
        assert entropy(h1, "1") == 3  # a and c
        assert entropy(h1, "23") == 6  # all three edges
        assert entropy(h1, h1.vertices) == 6
        assert entropy(h1, []) == 0
        with pytest.raises(UnknownVertex):
            entropy(h1, "17")


class TestConnectivity:
    def test_components_and_connectedness(self, h1, h2):
        assert h1.is_connected()
        assert h1.component_count() == 1
        cut = h2.remove_vertices("3")
        assert sorted(sorted(c) for c in cut.components()) == [["1", "2", "5"], ["4"]]

    def test_isolated_vertices_are_components(self):
        h = Hypergraph("123", [("a", "12", 1)])
        assert h.component_count() == 2

    def test_component_count_is_the_scan_root_count(self):
        """component_count counts the incidence scan's roots; it equals the
        components the independent _search finds on every hypergraph of at
        most 4 vertices and 3 edges (connected or not, loops and parallel
        edges included), on the criterion-9 census MCHs, on random MCHs,
        and on edgeless inputs."""
        inputs = [Hypergraph([f"v{i}" for i in range(n)], []) for n in (1, 2, 7)]
        for n in (1, 2, 3, 4):
            names = [str(i + 1) for i in range(n)]
            for m in range(4):
                for combo in combinations_with_replacement(range(1, 1 << n), m):
                    inputs.append(Hypergraph(names, [
                        (f"e{j}", [names[v] for v in range(n) if mask >> v & 1], 1)
                        for j, mask in enumerate(combo)
                    ]))
        inputs += [*oracles.census_mchs(), *oracles.random_mchs(100, seed=5)]
        counts = set()
        for h in inputs:
            assert h.component_count() == len(h.components()), h
            counts.add(h.component_count())
        assert counts == {1, 2, 3, 4, 7}

    def test_remove_all_vertices_is_an_error(self, h1):
        with pytest.raises(EmptyResult):
            h1.remove_vertices(h1.vertices)


class TestOperations:
    def test_induced_keeps_weights_and_trims_members(self, h1):
        sub = h1.induced("123")
        assert sorted(sub.vertices) == ["1", "2", "3"]
        assert [(e.id, sorted(e.members), e.weight) for e in sub.edges] == [
            ("a", ["1", "2"], 1),
            ("b", ["2", "3"], 3),
            ("c", ["1", "3"], 2),
        ]

    def test_incident_restriction_keeps_whole_edges(self, h3):
        inc = h3.incident_restriction("12")
        assert inc.edge_ids == ("a", "b", "c")
        assert sorted(inc.vertices) == ["1", "2", "3", "5", "6"]
        # degree law inside H_{E_C}: members of C keep their degree, the rest drop to 1
        assert {v: inc.degree(v) for v in sorted(inc.vertices)} == {
            "1": 2, "2": 3, "3": 1, "5": 1, "6": 1,
        }

    def test_merge_contracts_blocks(self, h1):
        from hyperkey import partition_connectivity

        merged = h1.merge(partition_connectivity(h1).fundamental)
        assert sorted(merged.vertices) == ["1,2,3", "4", "5", "6"]
        assert [(e.id, sorted(e.members)) for e in merged.edges] == [
            ("a", ["1,2,3", "4"]),
            ("b", ["1,2,3", "5"]),
            ("c", ["1,2,3", "6"]),
        ]
        assert merged.is_hypertree()

    def test_merge_labels_survive_comma_ids(self):
        # a plain comma-join names {1, 2} and {"1,2"} alike; escaping commas
        # alone would name {"1\\", 2} and {"1,2"} alike
        h = Hypergraph(["1", "2", "1,2", "1\\"], [("a", ["1", "2", "1,2", "1\\"], 1)])
        for blocks in ([{"1", "2"}, {"1,2"}, {"1\\"}], [{"1\\", "2"}, {"1,2"}, {"1"}]):
            merged = h.merge(blocks)
            assert len(merged.vertices) == 3
            assert len(merged.edge("a").members) == 3

    def test_removal_component_counts_enumerates_subsets(self, h3):
        names, counts = block_removal_counts(h3, frozenset("348"))
        assert names == ("3", "4", "8")
        # index is the subset bitmask over names; counted by hand
        assert counts == [1, 2, 1, 2, 1, 2, 1, 3]

    def test_removal_component_counts_guard(self):
        """The removal counts of a block are taken over 2^|block| subsets,
        so a block of more than 12 vertices is refused."""
        names = [f"c{i:02d}" for i in range(13)] + [f"p{i:02d}" for i in range(13)]
        core = names[:13]
        h = Hypergraph(
            names,
            [(f"e{i}", [core[i], core[(i + 1) % 13], names[13 + i]], 1) for i in range(13)],
        )
        assert frozenset(core) in partition_connectivity(h).fundamental.blocks
        with pytest.raises(GroundTooLarge):
            block_removal_counts(h, frozenset(core))

    def test_block_removal_counts_match_the_search(
        self, h1, h2, h3, h5, single_edge
    ):
        """The local count on each fundamental block of an MCH (singletons
        and cyclic cores) equals one removal_component_count per subset
        (oracles.removal_component_counts), on the fixtures, the census MCHs
        and random MCHs."""
        inputs = [h1, h2, h3, h5, single_edge, *oracles.census_mchs()]
        kinds = {"singleton": 0, "core": 0}
        for h in inputs + oracles.random_mchs(200, seed=7):
            for block in partition_connectivity(h).fundamental.blocks:
                if block == h.vertices:
                    continue
                want = oracles.removal_component_counts(h, block)
                assert block_removal_counts(h, block) == want, (h, block)
                kinds["singleton" if len(block) == 1 else "core"] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_one_cached_view_per_fundamental_block(self, h1, h3, h5):
        """region_spec and synthesize read one _BlockView per block of two
        or more vertices and build none for a one-vertex block; the rank and
        representative queries read the same views, cached on the value,
        and keep none for a one-vertex block."""
        for h in (h1, h3, h5):
            blocks = partition_connectivity(h).fundamental.blocks
            region_spec(h)
            synthesize(h)
            first = _cached_views(h)
            assert first.keys() == {b for b in blocks if len(b) > 1}, h
            for block in blocks:
                fn = RankFunction(h, block, Fraction(1))
                order = sorted(block, reverse=True)
                rank(fn, order[:1])
                extreme_point_for_order(fn, order)
                representatives(h, block)
                view = _block_view(h, block)
                view.classes(order[0], view.mask(order[:1]))
            views = _cached_views(h)
            assert views.keys() == {b for b in blocks if len(b) > 1}, h
            assert all(views[b] is first[b] for b in first), h

    def test_one_vertex_blocks_get_no_view(self, h2):
        """synthesize and region_spec answer a one-vertex block without a
        _BlockView; a hypertree (a path, H2) has no other kind."""
        inputs = [
            h2,
            hgio.parse(scale_walls.path_text(60, random.Random(1))),
            hgio.parse(scale_walls.core_chain_text(5, random.Random(1))),
            *oracles.random_mchs(40, seed=3),
        ]
        for h in inputs:
            blocks = partition_connectivity(h).fundamental.blocks
            region_spec(h)
            synthesize(h)
            assert _cached_views(h).keys() == {b for b in blocks if len(b) > 1}, h
        assert not _cached_views(inputs[0]) and not _cached_views(inputs[1])

    def test_block_queries_keep_no_view_for_a_one_vertex_block(self, h2):
        """rank, extreme_point_for_order and the block view's classes answer
        every block of a hypertree (H2, a 60-vertex path), each of one
        vertex, with the values of the component search, and keep no view
        on the value."""
        rate = Fraction(3, 2)
        for h in (h2, hgio.parse(scale_walls.path_text(60, random.Random(1)))):
            for block in partition_connectivity(h).fundamental.blocks:
                assert len(block) == 1
                (vertex,) = block
                want = oracles.removal_component_counts(h, block)
                assert block_removal_counts(h, block) == want
                fn = RankFunction(h, block, rate)
                assert rank(fn, ()) == 0
                assert rank(fn, block) == (want[1][1] - 1) * rate
                point = extreme_point_for_order(fn, (vertex,))
                assert point.rates == ((vertex, (want[1][1] - 1) * rate),)
                restriction = h.incident_restriction(block)
                reps = oracles.representatives_of_restriction(restriction, block)
                view = _block_view(h, block)
                got = view.classes(vertex, view.mask(block))
                assert got == oracles.classes(restriction, reps, vertex, block)
            assert not _cached_views(h), h

    def test_rank_and_extreme_point_build_no_view_for_a_one_vertex_block(
        self, h1, h2, monkeypatch
    ):
        """rank and extreme_point_for_order read a one-vertex block off the
        index, building no _BlockView, not even a throwaway one; a block of
        two or more vertices still reads its view."""
        built = []
        init = hypergraph._BlockView.__init__

        def counting_init(self, h, block):
            built.append(block)
            init(self, h, block)

        monkeypatch.setattr(hypergraph._BlockView, "__init__", counting_init)
        rate = Fraction(3, 2)
        path = hgio.parse(scale_walls.path_text(60, random.Random(1)))
        for h in (h1, h2, path):
            for block in partition_connectivity(h).fundamental.blocks:
                if len(block) > 1:
                    continue
                (vertex,) = block
                edges_at = oracles.removal_component_counts(h, block)[1][1]
                fn = RankFunction(h, block, rate)
                assert rank(fn, ()) == 0
                assert rank(fn, block) == (edges_at - 1) * rate
                point = extreme_point_for_order(fn, (vertex,))
                assert point.rates == ((vertex, (edges_at - 1) * rate),)
        assert built == []
        (core,) = [b for b in partition_connectivity(h1).fundamental.blocks if len(b) > 1]
        extreme_point_for_order(RankFunction(h1, core, rate), sorted(core))
        assert built == [core]


def _cached_views(h):
    return {
        key[1]: view
        for key, view in h._cache.items()
        if isinstance(key, tuple) and key[0] == "block"
    }


def _subsets(names):
    return [
        [names[i] for i in range(len(names)) if mask >> i & 1]
        for mask in range(1 << len(names))
    ]


def _assert_counts_match_rebuild(h):
    """removal_component_count equals the rebuilt remainder's count on every
    proper subset, and raises EmptyResult on the full vertex set."""
    names = sorted(h.vertices)
    for c in _subsets(names)[:-1]:
        assert h.removal_component_count(c) == h.remove_vertices(c).component_count(), (
            sorted((e.id, sorted(e.members)) for e in h.edges),
            c,
        )
    with pytest.raises(EmptyResult):
        h.removal_component_count(names)


def _random_hypergraph(rng, n, m):
    """Any shape: loops, parallel edges, isolated vertices, disconnected."""
    names = [f"v{i}" for i in range(n)]
    edges = []
    for j in range(m):
        if edges and rng.random() < 0.15:
            members = set(edges[rng.randrange(len(edges))][1])  # parallel
        elif rng.random() < 0.2:
            members = {rng.choice(names)}  # loop
        else:
            members = set(rng.sample(names, rng.randint(1, n)))
        edges.append((f"e{j}", members, 1))
    return Hypergraph(names, edges)


class TestRemovalComponentCount:
    def test_census_instances_match_the_rebuild(self):
        """Every census instance (criterion 9: |V| <= 5, |E| <= 4, member
        sets with repetition) with |V| <= 4, and every 25th with |V| = 5."""
        checked = 0
        for n in (2, 3, 4, 5):
            names = [str(i + 1) for i in range(n)]
            member_sets = _subsets(names)
            for m in range(5):
                for k, combo in enumerate(
                    combinations_with_replacement(range(1, 1 << n), m)
                ):
                    if n == 5 and k % 25:
                        continue
                    checked += 1
                    _assert_counts_match_rebuild(Hypergraph(
                        names,
                        [(f"e{j}", member_sets[mask], 1) for j, mask in enumerate(combo)],
                    ))
        assert checked == 6339

    def test_random_hypergraphs_of_any_shape_match_the_rebuild(self):
        rng = random.Random(3)
        shapes = {"loop": 0, "parallel": 0, "isolated": 0, "not_mch": 0}
        for _ in range(300):
            h = _random_hypergraph(rng, rng.randint(1, 8), rng.randint(0, 6))
            _assert_counts_match_rebuild(h)
            shapes["loop"] += bool(h.loop_edges())
            shapes["parallel"] += len({e.members for e in h.edges}) < len(h.edges)
            shapes["isolated"] += bool(h.vertices - {v for e in h.edges for v in e.members})
            shapes["not_mch"] += len(h.vertices) > 1 and not h.is_mch()
        assert min(shapes.values()) >= 30, shapes

    def test_errors_match_remove_vertices(self, h1):
        for c, error in ((["1", "zz"], UnknownVertex), (h1.vertices, EmptyResult)):
            for call in (h1.remove_vertices, h1.removal_component_count):
                with pytest.raises(error):
                    call(c)

    def test_empty_set_gives_the_component_count(self, h1):
        split = Hypergraph("1234", [("a", "12", 1)])
        for h in (h1, split):
            assert h.removal_component_count([]) == h.component_count()


class TestCycles:
    def test_h1_has_a_triangle_cycle(self, h1):
        cyc = h1.find_berge_cycle()
        assert cyc == BergeCycle(("1", "2", "3", "1"), ("a", "b", "c"))
        assert cyc.is_valid_in(h1)

    def test_parallel_edges_form_a_two_edge_cycle(self):
        dbl = Hypergraph("12", [("x", "12", 1), ("y", "12", 1)])
        cyc = dbl.find_berge_cycle()
        assert cyc is not None and cyc.is_valid_in(dbl)
        assert not dbl.is_connected_and_cycle_free()

    def test_hypertrees_have_no_cycle(self, h2):
        assert h2.find_berge_cycle() is None

    def test_loops_never_close_a_cycle(self, h4):
        assert h4.find_berge_cycle() is None

    def test_back_edge_to_an_edge_node_keeps_that_edge(self):
        # the walk a 2 b 3 closes at edge node a; the witness must use a
        h = Hypergraph("123", [("a", "123", 1), ("b", "23", 1)])
        cyc = h.find_berge_cycle()
        assert cyc == BergeCycle(("2", "3", "2"), ("b", "a"))
        assert cyc.is_valid_in(h)

    def test_scan_witness_matches_the_dfs_oracle(self):
        """The witness read off the incidence scan is the separate DFS's
        first cycle, on random hypergraphs with loops, parallel edges,
        isolated vertices and several components, and is always valid."""
        rng = random.Random(2026)
        names = ["1", "2", "10", "b", "a", "a b", "Z", "é"]
        eids = ["e", "f", "g", "h", "i", "j", "k", "aa", "b0"]
        shapes = dict.fromkeys(("cyclic", "loop", "parallel", "isolated", "split"), 0)
        for _ in range(20000):
            verts = rng.sample(names, rng.randint(1, 7))
            ids = rng.sample(eids, rng.randint(0, 7))
            edges = []
            for eid in ids:
                if edges and rng.random() < 0.1:
                    members = edges[rng.randrange(len(edges))][1]
                else:
                    size = min(rng.choice([1, 2, 2, 2, 3, 7]), len(verts))
                    members = rng.sample(verts, size)
                edges.append((eid, members, 1))
            h = Hypergraph(verts, edges)
            cyc = h.find_berge_cycle()
            assert cyc == oracles.dfs_berge_cycle(h), h
            assert cyc is None or cyc.is_valid_in(h)
            assert h.is_connected_and_cycle_free() == (h.is_connected() and cyc is None)
            shapes["cyclic"] += cyc is not None
            shapes["loop"] += bool(h.loop_edges())
            member_sets = [e.members for e in h.edges]
            shapes["parallel"] += len(set(member_sets)) < len(member_sets)
            covered = set().union(*member_sets)
            shapes["isolated"] += len(covered) < len(h.vertices)
            shapes["split"] += not h.is_connected()
        assert min(shapes.values()) >= 1000, shapes

    def test_is_valid_in_rejects_mangled_cycles(self, h1):
        assert not BergeCycle(("1", "2", "1"), ("a", "a")).is_valid_in(h1)
        assert not BergeCycle(("1", "2", "3", "2"), ("a", "b", "b")).is_valid_in(h1)
        # edge 'c' does not contain vertex 2
        assert not BergeCycle(("1", "2", "3", "1"), ("a", "c", "b")).is_valid_in(h1)

    def test_is_valid_in_rejects_an_unknown_edge_id(self, h1):
        assert not BergeCycle(("1", "2", "3", "1"), ("a", "zz", "c")).is_valid_in(h1)


class TestPredicates:
    def test_fixture_classification(self, h1, h2, h3, h4, h5, triangle, single_edge):
        # (connected_and_cycle_free, hypertree, mch) per fixture
        expected = {
            "h1": (False, False, True),
            "h2": (True, True, True),
            "h3": (False, False, True),
            "h4": (True, False, False),
            "h5": (False, False, True),
            "triangle": (False, False, False),
            "single_edge": (True, True, True),
        }
        graphs = {
            "h1": h1, "h2": h2, "h3": h3, "h4": h4, "h5": h5,
            "triangle": triangle, "single_edge": single_edge,
        }
        got = {
            name: (g.is_connected_and_cycle_free(), g.is_hypertree(), g.is_mch())
            for name, g in graphs.items()
        }
        assert got == expected

    def test_h4_loops(self, h4):
        assert h4.loop_edges() == ("d", "e")

    def test_disconnected_is_not_mch(self):
        h = Hypergraph("1234", [("a", "12", 1), ("b", "34", 1)])
        assert not h.is_connected()
        assert not h.is_mch()

    def test_shape_predicates_need_two_vertices(self):
        point = Hypergraph("1", [("a", "1", 1)])
        for predicate in (point.is_mch, point.is_hypertree):
            with pytest.raises(EmptyVertexSet):
                predicate()

    def test_cyclic_cores(self, h1, h2, h5):
        assert h1.cyclic_cores() == (frozenset("123"),)
        assert h2.cyclic_cores() == ()
        assert h5.cyclic_cores() == (frozenset("12345"),)

    def test_parallel_edges_are_not_mch(self):
        dbl = Hypergraph("12", [("x", "12", 1), ("y", "12", 1)])
        assert not dbl.is_mch()
