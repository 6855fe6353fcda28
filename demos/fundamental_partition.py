"""Partition connectivity, its weighted sibling, and the finest minimizer.

Both functionals minimize, over every proper partition of the vertex set,
the cross-block surplus divided by one less than the block count; they differ
only in whether an edge counts one unit or its weight.  The minimum is
attained on a unique finest partition.  On a minimally connected source it is
read off the incidence graph's cycles in linear time; the enumeration oracle
sweeps every partition and recovers it as the meet of all minimizers.
"""

from hyperkey import (
    Hypergraph,
    Partition,
    crossing_count,
    enumerate_minimizers,
    mmi,
    partition_connectivity,
)

h = Hypergraph(
    "123456",
    [("a", "124", 1), ("b", "235", 3), ("c", "136", 2)],
)

# unit counting: every edge is one unit regardless of weight
unit = partition_connectivity(h)
print("unit connectivity:", unit.value)
print("unit fundamental:", unit.fundamental.to_sorted_lists())
print("cyclic cores:", [sorted(c) for c in h.cyclic_cores()])

# the enumeration oracle finds the same answer and every other minimizer
sweep = enumerate_minimizers(h)
assert (sweep.value, sweep.fundamental) == (unit.value, unit.fundamental)
print("number of minimizers:", len(sweep.minimizers))

# weighted counting drives the secrecy capacity
weighted = mmi(h)
print("weighted connectivity:", weighted.value)
print("weighted fundamental:", weighted.fundamental.to_sorted_lists())

# the two fundamentals genuinely differ on weighted inputs
assert unit.fundamental != weighted.fundamental

# hand evaluation of one partition against the library count
p = Partition.from_blocks([{"1", "2", "3"}, {"4", "5"}, {"6"}])
print("crossings of", p.to_sorted_lists(), "=", crossing_count(h, p))

# restricting to the triangle makes the structure denser than a tree
triangle = mmi(h.induced("123"))
print("triangle weighted connectivity:", triangle.value)
print("triangle fundamental:", triangle.fundamental.to_sorted_lists())

# a disconnected source has connectivity zero and the components as blocks
parts = Hypergraph("1234", [("a", "12", 1), ("b", "34", 1)])
report = partition_connectivity(parts)
print("disconnected value:", report.value)
print("disconnected fundamental:", report.fundamental.to_sorted_lists())
