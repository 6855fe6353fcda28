"""Line-oriented text format for hypergraphs (the .hg files the CLI reads).

The format is strict and whitespace-tokenized, one statement per line:

    # full-line comments and blank lines are ignored
    format: 1
    vertices: 1 2 3 4 5 6
    edge a: 1 2 4 weight 1
    edge b: 2 3 5 weight 3/2

The `format:` line is optional and must come first if present.  Exactly one
`vertices:` line must appear before any edge.  Weights accept integers,
rationals ("3/2"), and decimals ("1.5"), all stored exactly; exponent
notation ("1e3") is refused like any other malformed weight.  The other
forms are those of fractions.Fraction, so a sign ("+2"), a bare point ("1.",
".5"), underscores between digits ("1_0") and non-ASCII decimal digits
("٣/٢", Arabic-Indic 3/2) are accepted too; a plain ASCII digit string is
read by int(), which gives the same value.  A weight with more digits than
Python's int-to-str limit is refused.  Unknown statements, unknown members,
duplicate edge ids, and nonpositive weights are rejected; errors carry
1-based line and column positions.

Each line is split on whitespace once (str.split), and the checks read the
tokens alone: one set of the declared names against their count, one
subset test of an edge's members.  A token's column is computed only for
the error that is raised.
"""

from __future__ import annotations

from collections import Counter

from .errors import DuplicateEdgeId, NonpositiveWeight, ParseError
from .hypergraph import Edge, Hypergraph, _read_rational

__all__ = ["parse", "serialize"]


def _error(
    raw: str,
    toks: list[str],
    lineno: int,
    message: str,
    i: int = 0,
    kind: type[ParseError] = ParseError,
) -> ParseError:
    """kind(message) positioned at toks[i], toks being raw.split().  Only an
    error needs a column, so it is found here: each token is looked up from
    the end of the one before it."""
    col = 0
    for piece in toks[:i]:
        col = raw.index(piece, col) + len(piece)
    return kind(message, line=lineno, column=raw.index(toks[i], col) + 1)


def parse(text: str) -> Hypergraph:
    """Parse .hg text into a Hypergraph with exact rational weights."""
    vertices: list[str] | None = None
    known: set[str] = set()
    edges: list[Edge] = []
    seen_ids: set[str] = set()
    saw_statement = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0].startswith("#"):
            continue
        head = toks[0]

        if head == "format:":
            if saw_statement:
                raise _error(raw, toks, lineno, "format line must come first")
            if len(toks) != 2 or toks[1] != "1":
                raise _error(raw, toks, lineno, "unsupported format version")
            saw_statement = True
            continue
        saw_statement = True

        if head == "vertices:":
            if vertices is not None:
                raise _error(raw, toks, lineno, "duplicate vertices line")
            if len(toks) == 1:
                raise _error(
                    raw, toks, lineno, "vertices line declares no vertices"
                )
            names = toks[1:]
            known = set(names)
            if len(known) != len(names):
                # the first token whose name recurs, not the first repeat
                counts = Counter(names)
                i = next(i for i in range(1, len(toks)) if counts[toks[i]] > 1)
                raise _error(
                    raw, toks, lineno, f"duplicate vertex {toks[i]!r}", i
                )
            vertices = names
            continue

        if head == "edge":
            if vertices is None:
                raise _error(raw, toks, lineno, "edge line before vertices line")
            if len(toks) < 2 or not toks[1].endswith(":"):
                raise _error(
                    raw, toks, lineno, "edge line needs an id followed by ':'"
                )
            eid = toks[1][:-1]
            if not eid:
                raise _error(raw, toks, lineno, "empty edge id", 1)
            if eid in seen_ids:
                raise _error(
                    raw, toks, lineno, f"duplicate edge id {eid!r}", 1,
                    DuplicateEdgeId,
                )
            if len(toks) < 4 or toks[-2] != "weight":
                raise _error(
                    raw, toks, lineno, "edge line must end with 'weight <value>'"
                )
            token = toks[-1]
            try:
                weight = _read_rational(token)
            except (ValueError, ZeroDivisionError):
                raise _error(
                    raw, toks, lineno, f"invalid weight {token!r}", len(toks) - 1
                ) from None
            if weight.numerator <= 0:
                raise NonpositiveWeight(
                    f"edge weight must be positive, got {token!r} (line {lineno})"
                )
            if len(toks) == 4:
                raise _error(raw, toks, lineno, f"edge {eid!r} has no members", 1)
            members = frozenset(toks[2:-2])
            if not members <= known:
                i = next(i for i in range(2, len(toks) - 2) if toks[i] not in known)
                raise _error(raw, toks, lineno, f"unknown member {toks[i]!r}", i)
            seen_ids.add(eid)
            edges.append(Edge(id=eid, members=members, weight=weight))
            continue

        raise _error(raw, toks, lineno, f"unknown statement {head!r}")

    if vertices is None:
        raise ParseError("missing vertices line", line=1, column=1)
    return Hypergraph(vertices, edges)


def _check_writable(kind: str, name: str) -> None:
    if not name or any(ch.isspace() for ch in name):
        raise ParseError(
            f"{kind} id {name!r} cannot be written: .hg ids are nonempty and "
            "contain no whitespace"
        )


def serialize(h: Hypergraph) -> str:
    """Canonical .hg text; parse(serialize(h)) reproduces h exactly.

    The format splits on whitespace, so an empty id or one containing any
    whitespace character (str.isspace) cannot be written: ParseError.
    """
    for v in h.vertices:
        _check_writable("vertex", v)
    for e in h.edges:
        _check_writable("edge", e.id)
    lines = ["format: 1"]
    lines.append("vertices: " + " ".join(sorted(h.vertices)))
    for e in h.edges:
        members = " ".join(sorted(e.members))
        lines.append(f"edge {e.id}: {members} weight {e.weight}")
    return "\n".join(lines) + "\n"
