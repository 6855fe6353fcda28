"""The seeded input generators of tests/oracles.py draw what they drew,
and the oracles' own partition meet is the meet.

Other tests take their random MCHs from oracles.random_mchs by seed, so a
change to the generator would change what they check without a failure.
"""

import hashlib

from hyperkey import Partition, hgio

import oracles

# (count, seed, max_vertices) of each random_mchs call the tests make, and
# of the one-instance calls test_cli_answers draws, for 20 of its seeds
CALLS = (
    (400, 4, 10), (200, 9, 10), (200, 13, 10), (100, 29, 8), (200, 7, 10),
    (400, 3, 10), (40, 26, 8), (60, 12, 12), (40, 11, 12), (40, 12, 12),
    (200, 31, 10), (100, 5, 10), (40, 3, 10),
    *((1, seed, n) for n in range(2, 9) for seed in range(20)),
)


def test_random_mchs_draw_the_instances_the_tests_use():
    digest = hashlib.sha256()
    for count, seed, max_vertices in CALLS:
        for h in oracles.random_mchs(count, seed, max_vertices=max_vertices):
            digest.update(hgio.serialize(h).encode())
    assert digest.hexdigest() == (
        "c7c5f71d175a29f21b6088d135982a0165fdb16ccb7248975e16f501c42208b8"
    )


def test_random_mchs_past_the_label_pool():
    """More than the 24 labels of the pool: the pool grows, and every
    instance is an MCH (random_mchs checks) with distinct ids."""
    sizes = []
    for h in oracles.random_mchs(5, 1, max_vertices=40):
        assert len({e.id for e in h.edges}) == len(h.edges)
        sizes.append(len(h.vertices))
    assert max(sizes) > 24, sizes


def test_common_refinement_is_the_meet():
    p = Partition.from_blocks([{"1", "2"}, {"3", "4"}])
    q = Partition.from_blocks([{"1", "3"}, {"2", "4"}])
    assert oracles.common_refinement(p, q) == Partition.singletons("1234")
    r = Partition.from_blocks([{"1", "2", "3"}, {"4"}])
    assert oracles.common_refinement(p, r) == Partition.from_blocks(
        [{"1", "2"}, {"3"}, {"4"}]
    )
