"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HyperkeyError",
    "UnknownVertex",
    "EmptyVertexSet",
    "EmptyResult",
    "InvalidPartition",
    "GroundTooLarge",
    "SemiLatticeViolation",
    "NotMCH",
    "NegativeRate",
    "SubsetOutsideBlock",
    "NotFundamentalBlock",
    "RankDefect",
    "SchemeUnverified",
    "WeightsNotConvex",
    "KeyRateExceedsCapacity",
    "StateSpaceTooLarge",
    "GenerationBudgetExhausted",
    "NonpositiveWeight",
    "ParseError",
    "DuplicateEdgeId",
]


class HyperkeyError(Exception):
    """Base class for every domain error raised by this package."""


class UnknownVertex(HyperkeyError):
    """A vertex or edge id was used that is not part of the hypergraph (or of
    the partition or rate vector) it was looked up in, or an edge item is no
    Edge or (id, members, weight) triple with an iterable member set."""


class EmptyVertexSet(HyperkeyError):
    """An operation that needs a nonempty vertex set received an empty one."""


class EmptyResult(HyperkeyError):
    """An operation would have produced a hypergraph with no vertices, or
    asked for the minimum edge weight of a hypergraph with no edges."""


class InvalidPartition(HyperkeyError):
    """Blocks do not form a partition of the expected ground set, or that
    ground set has no proper partition (fewer than two vertices)."""


class GroundTooLarge(HyperkeyError):
    """Explicit enumeration was requested over a ground set above the cap."""


class SemiLatticeViolation(HyperkeyError):
    """Internal consistency failure of the finest-minimizer selection: an
    enumerated minimizer set is not meet-closed, or the partition found by
    the MCH fast path fails its certificate.

    This is never expected on valid inputs; it exists so the finest-minimizer
    selection fails loudly instead of guessing.
    """


class NotMCH(HyperkeyError):
    """The hypergraph is not minimally connected."""


class NegativeRate(HyperkeyError):
    """A rate was negative, or not a rational at all (None, NaN, "1/0")."""


class SubsetOutsideBlock(HyperkeyError):
    """A subset, vertex or order is not within the block it is given for:
    a subset or vertex outside it, or an order that is no permutation of
    it."""


class NotFundamentalBlock(HyperkeyError):
    """The given set is not a block of the fundamental partition."""


class RankDefect(HyperkeyError):
    """An internally synthesized matrix failed its rank invariant."""


class SchemeUnverified(HyperkeyError):
    """A scheme failed verification where a verified scheme is required, or
    does not fit its use: an edge id that is not one of its columns, or a
    hypergraph other than its own."""


class WeightsNotConvex(HyperkeyError):
    """Time-sharing weights are not positive rationals summing to one."""


class KeyRateExceedsCapacity(HyperkeyError):
    """The requested key rate exceeds the unconstrained capacity."""


class StateSpaceTooLarge(HyperkeyError):
    """A simulation's source is too large to sweep, sample or print."""


class GenerationBudgetExhausted(HyperkeyError):
    """Rejection sampling used up its attempt budget without success."""


class NonpositiveWeight(HyperkeyError):
    """Edge weights must be strictly positive rationals."""


class ParseError(HyperkeyError):
    """A document could not be parsed (with its 1-based line and column), or
    a hypergraph has an id that the .hg format cannot write."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DuplicateEdgeId(ParseError):
    """Two edge statements reuse the same id."""
