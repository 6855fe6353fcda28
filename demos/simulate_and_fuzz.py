"""Running the protocol on concrete bits, then hammering the pipeline.

First half: quantize the weighted source at a fractional key rate, run a
few seeded trials, then check every realization of the state space and
count the (message pattern, key) cells whose flat counts certify perfect
secrecy.
Second half: generate random minimally connected instances and let the
structural and end-to-end checkers loose on them.
"""

import random
from fractions import Fraction

from hyperkey import (
    brute_force_secrecy,
    lemma_violations,
    quantize,
    random_mch_with_stats,
    run,
    scheme_round_trip_violations,
    synthesize,
    unconstrained_capacity,
)
from hyperkey import Hypergraph

h = Hypergraph(
    "123456",
    [("a", "124", 1), ("b", "235", 3), ("c", "136", 2)],
)

# a key rate of 1/2 forces blocklength 2: edges carry 2, 6, 4 bits
shape = quantize(h, Fraction(1, 2))
print("scale:", shape.scale, "key bits:", shape.key_length)
print("bits per edge:", shape.lengths_map())
print("total state bits:", shape.total_bits())

scheme, _ = synthesize(h)
for seed in (0, 1, 2):
    outcome = run(h, scheme, Fraction(1, 2), seed=seed)
    print(f"seed {seed}: messages = {outcome.messages} key = {outcome.key}",
          "zero error:", outcome.zero_error)

# exhaustive check over all realizations at once: each source bit becomes a
# bit plane (one bit per realization), and one walk of the row tree per key
# bit decodes every vertex on whole planes
outcome = run(h, scheme, Fraction(1, 2), exhaustive=True)
print("exhaustive over", outcome.realizations_checked, "realizations:",
      "zero error =", outcome.zero_error)

# the exact (message pattern, key) table, built one source bit at a time
report = brute_force_secrecy(h, scheme, Fraction(1))
print("perfect secrecy:", report.perfect)
print("realizations:", report.realizations, "message patterns:", report.message_patterns)
print("key entropy:", report.key_entropy_bits, "given all messages:", report.conditional_entropy_bits)

# fuzzing: every generated instance is minimally connected by construction
print()
for seed in range(3):
    g, stats = random_mch_with_stats(5, 3, 2, seed=seed)
    edges = {e.id: "".join(sorted(e.members)) for e in g.edges}
    print(f"seed {seed}: edges {edges} after {stats.attempts} attempts")
    structural = lemma_violations(g, rng=random.Random(seed))
    end_to_end = scheme_round_trip_violations(g, unconstrained_capacity(g))
    print("  structural violations:", structural or "none")
    print("  round trip violations:", end_to_end or "none")
