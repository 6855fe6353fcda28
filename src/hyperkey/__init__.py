"""Secret-key capacities, rate regions, and XOR discussion schemes for
minimally connected hypergraphical sources.

Everything is exact: weights and rates are rationals, partition functionals
are minimized in linear time on minimally connected inputs (on one cached
integer index of the hypergraph, weights over a common denominator) and by
enumeration otherwise, shape predicates and Berge-cycle witnesses come from
one cached DFS of the incidence graph, rate regions, per-block rank
functions and schemes read each fundamental block through one cached view
of the edges that meet it (hypergraph._BlockView; a one-vertex block needs
none), schemes of column-pair rows are
verified by a union-find over the edge columns (other row sets by one
reduced GF(2) basis of their bitmasks, gf2.eliminate), and the simulation
kit decodes verified schemes on their row tree, seeded or exhaustively
over small state spaces.

__all__ is the public surface; internal helpers that the checks also use
live in their own modules and are imported from there.
"""

from .errors import (
    DuplicateEdgeId,
    EmptyResult,
    EmptyVertexSet,
    GenerationBudgetExhausted,
    GroundTooLarge,
    HyperkeyError,
    InvalidPartition,
    KeyRateExceedsCapacity,
    NegativeRate,
    NonpositiveWeight,
    NotFundamentalBlock,
    NotMCH,
    ParseError,
    RankDefect,
    SchemeUnverified,
    SemiLatticeViolation,
    StateSpaceTooLarge,
    SubsetOutsideBlock,
    UnknownVertex,
    WeightsNotConvex,
)
from .hypergraph import BergeCycle, Edge, Hypergraph
from .partitions import (
    ConnectivityReport,
    MinimizerSweep,
    Partition,
    crossing_count,
    entropy,
    enumerate_minimizers,
    mmi,
    partition_connectivity,
)
from .capacity import (
    RateTuple,
    RegionCheck,
    RegionSpec,
    communication_complexity,
    constrained_capacity,
    in_region,
    region_spec,
    unconstrained_capacity,
)
from .polymatroid import (
    ContraPolymatroidReport,
    DecompositionResult,
    ExtremePoint,
    RankFunction,
    decompose,
    extreme_points,
    rank,
)
from .scheme import (
    CompositeScheme,
    DiscussionScheme,
    VerificationReport,
    compose_time_shared,
    rates_of,
    representatives,
    synthesize,
    verify,
)
from .simkit import (
    GenerationStats,
    ProtocolRun,
    QuantizedShape,
    SecrecyReport,
    brute_force_secrecy,
    quantize,
    random_mch_with_stats,
    run,
)
from .properties import lemma_violations, scheme_round_trip_violations
from .hgio import parse, serialize

__version__ = "0.1.0"

__all__ = [
    "BergeCycle",
    "CompositeScheme",
    "ConnectivityReport",
    "ContraPolymatroidReport",
    "DecompositionResult",
    "DiscussionScheme",
    "DuplicateEdgeId",
    "Edge",
    "EmptyResult",
    "EmptyVertexSet",
    "ExtremePoint",
    "GenerationBudgetExhausted",
    "GenerationStats",
    "GroundTooLarge",
    "Hypergraph",
    "HyperkeyError",
    "InvalidPartition",
    "KeyRateExceedsCapacity",
    "MinimizerSweep",
    "NegativeRate",
    "NonpositiveWeight",
    "NotFundamentalBlock",
    "NotMCH",
    "ParseError",
    "Partition",
    "ProtocolRun",
    "QuantizedShape",
    "RankDefect",
    "RankFunction",
    "RateTuple",
    "RegionCheck",
    "RegionSpec",
    "SchemeUnverified",
    "SecrecyReport",
    "SemiLatticeViolation",
    "StateSpaceTooLarge",
    "SubsetOutsideBlock",
    "UnknownVertex",
    "VerificationReport",
    "WeightsNotConvex",
    "brute_force_secrecy",
    "communication_complexity",
    "compose_time_shared",
    "constrained_capacity",
    "crossing_count",
    "decompose",
    "entropy",
    "enumerate_minimizers",
    "extreme_points",
    "in_region",
    "lemma_violations",
    "mmi",
    "parse",
    "partition_connectivity",
    "quantize",
    "random_mch_with_stats",
    "rank",
    "rates_of",
    "region_spec",
    "representatives",
    "run",
    "scheme_round_trip_violations",
    "serialize",
    "synthesize",
    "unconstrained_capacity",
    "verify",
]
