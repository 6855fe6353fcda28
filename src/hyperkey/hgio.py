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
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .errors import DuplicateEdgeId, NonpositiveWeight, ParseError
from .hypergraph import Edge, Hypergraph, _read_rational

__all__ = ["parse", "serialize"]


def _tokens(line: str) -> list[tuple[str, int]]:
    """Whitespace-split with 1-based column of each token's first character."""
    out = []
    col = 0
    for piece in line.split():
        col = line.index(piece, col)
        out.append((piece, col + 1))
        col += len(piece)
    return out


def _weight_token(token: str, lineno: int, column: int) -> Fraction:
    try:
        value = _read_rational(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"invalid weight {token!r}", line=lineno, column=column
        ) from None
    if value.numerator <= 0:
        raise NonpositiveWeight(
            f"edge weight must be positive, got {token!r} (line {lineno})"
        )
    return value


def parse(text: str) -> Hypergraph:
    """Parse .hg text into a Hypergraph with exact rational weights."""
    vertices: list[str] | None = None
    known: set[str] = set()
    edges: list[Edge] = []
    seen_ids: set[str] = set()
    saw_statement = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = _tokens(raw)
        head, head_col = toks[0]

        if head == "format:":
            if saw_statement:
                raise ParseError(
                    "format line must come first", line=lineno, column=head_col
                )
            if len(toks) != 2 or toks[1][0] != "1":
                raise ParseError(
                    "unsupported format version", line=lineno, column=head_col
                )
            saw_statement = True
            continue
        saw_statement = True

        if head == "vertices:":
            if vertices is not None:
                raise ParseError(
                    "duplicate vertices line", line=lineno, column=head_col
                )
            if len(toks) == 1:
                raise ParseError(
                    "vertices line declares no vertices",
                    line=lineno,
                    column=head_col,
                )
            names = [t for t, _ in toks[1:]]
            counts = Counter(names)
            for (name, col) in toks[1:]:
                # the first token whose name recurs, not the first repeat
                if counts[name] > 1:
                    raise ParseError(
                        f"duplicate vertex {name!r}", line=lineno, column=col
                    )
            vertices = names
            known = set(names)
            continue

        if head == "edge":
            if vertices is None:
                raise ParseError(
                    "edge line before vertices line", line=lineno, column=head_col
                )
            if len(toks) < 2 or not toks[1][0].endswith(":"):
                raise ParseError(
                    "edge line needs an id followed by ':'",
                    line=lineno,
                    column=head_col,
                )
            eid, eid_col = toks[1][0][:-1], toks[1][1]
            if not eid:
                raise ParseError("empty edge id", line=lineno, column=eid_col)
            if eid in seen_ids:
                raise DuplicateEdgeId(
                    f"duplicate edge id {eid!r}", line=lineno, column=eid_col
                )
            body = toks[2:]
            if len(body) < 2 or body[-2][0] != "weight":
                raise ParseError(
                    "edge line must end with 'weight <value>'",
                    line=lineno,
                    column=head_col,
                )
            weight = _weight_token(body[-1][0], lineno, body[-1][1])
            members = body[:-2]
            if not members:
                raise ParseError(
                    f"edge {eid!r} has no members", line=lineno, column=eid_col
                )
            for name, col in members:
                if name not in known:
                    raise ParseError(
                        f"unknown member {name!r}", line=lineno, column=col
                    )
            seen_ids.add(eid)
            edges.append(
                Edge(
                    id=eid,
                    members=frozenset(name for name, _ in members),
                    weight=weight,
                )
            )
            continue

        raise ParseError(
            f"unknown statement {head!r}", line=lineno, column=head_col
        )

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
