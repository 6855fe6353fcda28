"""The public surface: the names in hyperkey.__all__ and the parameters with
defaults over its functions.

A new public name or a new knob shows up here as a test diff, so widening
the API is a decision someone makes on purpose.
"""

import inspect

import hyperkey

PUBLIC_NAMES = [
    "BergeCycle",
    "BlockTrace",
    "CompositeScheme",
    "ConnectivityReport",
    "ContraPolymatroidReport",
    "DecompositionResult",
    "Disconnected",
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
    "IterationRecord",
    "KeyRateExceedsCapacity",
    "MinimizerSweep",
    "NegativeRate",
    "NonpositiveWeight",
    "NotCycleFree",
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
    "RowAttribution",
    "SchemeUnverified",
    "SecrecyReport",
    "SemiLatticeViolation",
    "StateSpaceTooLarge",
    "SubsetOutsideBlock",
    "SubsetTooLarge",
    "UnknownVertex",
    "VerificationReport",
    "VertexNotInBlock",
    "WeightsNotConvex",
    "brute_force_secrecy",
    "chain_order",
    "communication_complexity",
    "compose_time_shared",
    "constrained_capacity",
    "crossing_count",
    "decompose",
    "entropy",
    "enumerate_minimizers",
    "enumerate_partitions",
    "extreme_point_for_order",
    "extreme_points",
    "in_region",
    "lemma_violations",
    "mmi",
    "outer_bound_deficit",
    "parse",
    "partition_connectivity",
    "quantize",
    "random_mch",
    "random_mch_with_stats",
    "rank",
    "rates_of",
    "region_spec",
    "representatives",
    "require_mch",
    "run",
    "scheme_round_trip_violations",
    "secrecy_by_rank",
    "serialize",
    "shared_representatives",
    "synthesize",
    "unconstrained_capacity",
    "verify",
    "verify_contra_polymatroid",
]

# function name -> its parameters that have a default value
KNOBS = {
    "brute_force_secrecy": ["max_state_bits", "keep_cells_up_to"],
    "chain_order": ["mode"],
    "enumerate_minimizers": ["weighted"],
    "enumerate_partitions": ["proper_only", "max_ground"],
    "in_region": ["spec"],
    "lemma_violations": ["rng", "subadditivity_samples", "check_prop2"],
    "mmi": ["restrict_to"],
    "random_mch": ["max_weight", "seed", "max_attempts"],
    "random_mch_with_stats": ["max_weight", "seed", "max_attempts"],
    "run": ["seed", "exhaustive", "max_state_bits", "allow_unverified"],
    "scheme_round_trip_violations": ["orders", "simulate_cap"],
    "synthesize": ["orders"],
}


def _knobs():
    out = {}
    for name in hyperkey.__all__:
        obj = getattr(hyperkey, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            defaulted = [p.name for p in params if p.default is not p.empty]
            if defaulted:
                out[name] = defaulted
    return out


def test_public_names_are_pinned():
    assert sorted(hyperkey.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 82
    assert all(hasattr(hyperkey, name) for name in PUBLIC_NAMES)


def test_parameters_with_defaults_are_pinned():
    assert _knobs() == KNOBS
    assert sum(len(names) for names in KNOBS.values()) == 24
