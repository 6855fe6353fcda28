"""Synthesizing the XOR discussion scheme, step by step.

The source is two triangles glued at user 3: users 1..5 sit on six unit
edges and six helper leaves v1..v6 pin each edge down.  The scheme
publishes one XOR of two edge variables per row, |E| - 1 rows in total,
after which every user can reconstruct all six edges and the first edge
doubles as the key.
"""

from fractions import Fraction

from hyperkey import Hypergraph, rates_of, synthesize, verify

h = Hypergraph(
    ["1", "2", "3", "4", "5", "v1", "v2", "v3", "v4", "v5", "v6"],
    [
        ("e1", {"1", "2", "v1"}, 1),
        ("e2", {"2", "3", "v2"}, 1),
        ("e3", {"1", "3", "v3"}, 1),
        ("e4", {"3", "5", "v4"}, 1),
        ("e5", {"3", "4", "v5"}, 1),
        ("e6", {"4", "5", "v6"}, 1),
    ],
)

scheme, used = synthesize(h, {frozenset("12345"): tuple("12345")})

print("key edge:", scheme.key_edge)
print("rows (edge pair @ speaking user):")
for (left, right), speaker in zip(scheme.row_pairs(), scheme.speakers):
    print(f"  {left} ^ {right}   spoken by user {speaker}")

# each row names its speaker, who speaks only at its own turn in its block:
# replay the core block user by user, in the order synthesize used for it
block, order = next((b, o) for b, o in used.items() if len(b) > 1)
print("iteration over block", sorted(block), ":")
for user in order:
    said = ", ".join(
        f"{a}^{b}"
        for (a, b), speaker in zip(scheme.row_pairs(), scheme.speakers)
        if speaker == user
    )
    print(f"  user {user} says {said or 'nothing'}")

# verification covers row count, row shape, rank, recovery, and secrecy
report = verify(scheme)
print("verified:", report.ok)
print("  matrix rank:", report.matrix_rank, "of", len(scheme.rows), "rows")
print("  every user recovers every edge:", report.recovery_ok)
print("  key independent of all messages:", report.secrecy_ok)

# discussion rates charged per speaking user, at full and half key rate
print("rates at key rate 1:", {v: str(r) for v, r in sorted(rates_of(scheme, Fraction(1)).per_user.items()) if r})
print("rates at key rate 1/2:", {v: str(r) for v, r in sorted(rates_of(scheme, Fraction(1, 2)).per_user.items()) if r})
