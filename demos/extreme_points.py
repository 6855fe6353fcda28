"""Extreme points of the per-block rate polyhedron and exact decompositions.

Within one fundamental block, the achievable discussion rates form a
contra-polymatroid: every vertex ordering yields an extreme point by
telescoping the rank function, and any feasible point dominates a convex
combination of at most |block| extreme points with exact rational weights.
decompose finds one greedily: it lowers the point to a base, then peels off
the vertex of a chain of tight sets at a time.
"""

from fractions import Fraction

from hyperkey import Hypergraph, RankFunction, decompose, extreme_points, rank

h = Hypergraph(
    "123456",
    [("a", "124", 1), ("b", "235", 3), ("c", "136", 2)],
)
block = frozenset("123")
fn = RankFunction(h, block, Fraction(1))

# the rank of a subset counts the components its removal creates, less one
for subset in ("1", "12", "13", "23", "123"):
    print(f"rank({subset}) = {rank(fn, subset)}")

def show(rates):
    return "{" + ", ".join(f"{v}: {r}" for v, r in sorted(rates)) + "}"


print("extreme points:")
for point in extreme_points(fn):
    print("  ", show(point.rates))

# a point on the sum-tight face splits across two chain orders with exact weights
interior = {"1": Fraction(1, 2), "2": 1, "3": Fraction(1, 2)}
cert = decompose(fn, interior)
print("decomposition of {1: 1/2, 2: 1, 3: 1/2}")
for weight, point in cert.weights:
    print(f"  weight {weight} on", show(point.rates))
print("weights sum to", sum(w for w, _ in cert.weights))

# infeasible points come back with the violated constraint instead
low = {"1": Fraction(1, 4), "2": Fraction(1, 4), "3": 1}
cert = decompose(fn, low)
subset, needed = cert.violated
print("infeasible point rejected: r(", "".join(sorted(subset)), ") must reach", needed)
