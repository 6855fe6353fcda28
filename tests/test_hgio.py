"""The .hg line format: parsing, serialization, and positioned errors."""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperkey import (
    DuplicateEdgeId,
    HyperkeyError,
    Hypergraph,
    NonpositiveWeight,
    ParseError,
    parse,
    random_mch_with_stats,
    serialize,
)
from hyperkey.cli import main
from oracles import parse_hg


class TestRoundTrip:
    def test_serialize_h1(self, h1):
        assert serialize(h1) == (
            "format: 1\n"
            "vertices: 1 2 3 4 5 6\n"
            "edge a: 1 2 4 weight 1\n"
            "edge b: 2 3 5 weight 3\n"
            "edge c: 1 3 6 weight 2\n"
        )

    def test_parse_inverts_serialize(self, h1, h2, h3, h4, h5):
        for h in (h1, h2, h3, h4, h5):
            assert parse(serialize(h)) == h

    def test_fractional_weights_survive(self):
        h = Hypergraph("12", [("a", "12", Fraction(3, 2))])
        text = serialize(h)
        assert "weight 3/2" in text
        assert parse(text) == h

    def test_edgeless_hypergraph(self):
        h = Hypergraph("12", [])
        assert parse(serialize(h)) == h

    @given(st.integers(0, 40))
    def test_random_instances_round_trip(self, seed):
        menu = [(3, 2, 1), (5, 4, 3), (6, 3, 2), (8, 5, 4)]
        n, m, w = menu[seed % len(menu)]
        h, _ = random_mch_with_stats(n, m, w, seed=seed)
        assert parse(serialize(h)) == h


ADVERSARIAL_IDS = [
    ":", "a:", ":b", "a:b", ",", "a,b", "#", "#x", "\\", "a\\,b", "weight",
    "edge", "vertices:", "format:", "1", "3/2", "é", "名前", "\x00",
]
writable_ids = st.one_of(
    st.sampled_from(ADVERSARIAL_IDS),
    st.text(min_size=1, max_size=4).filter(
        lambda t: not any(ch.isspace() for ch in t)
    ),
)
refused_ids = st.one_of(
    st.just(""),
    st.builds(
        lambda a, ws, b: a + ws + b,
        st.text(max_size=2),
        st.sampled_from(
            [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u3000"]
        ),
        st.text(max_size=2),
    ),
)


@st.composite
def hypergraphs(draw):
    vertices = draw(st.lists(writable_ids, min_size=1, max_size=5, unique=True))
    edge_ids = draw(st.lists(writable_ids, max_size=4, unique=True))
    edges = [
        (
            eid,
            draw(st.lists(st.sampled_from(vertices), min_size=1, unique=True)),
            draw(st.fractions(min_value=Fraction(1, 7), max_value=5)),
        )
        for eid in edge_ids
    ]
    return Hypergraph(vertices, edges)


class TestAdversarialIds:
    @given(hypergraphs())
    def test_writable_ids_round_trip(self, h):
        assert parse(serialize(h)) == h

    @given(hypergraphs(), refused_ids, st.booleans())
    def test_unwritable_ids_are_refused(self, h, bad, as_edge):
        if as_edge:
            h = Hypergraph(h.vertices, [*h.edges, (bad, [min(h.vertices)], 1)])
        else:
            h = Hypergraph(h.vertices | {bad}, h.edges)
        with pytest.raises(ParseError):
            serialize(h)

    def test_ids_the_format_used_to_garble(self):
        # "a b" came back as two vertices, "" vanished, and an edge id with
        # a space gave text that did not parse
        for h in (
            Hypergraph(["a b", "c"], [("x", ["a b", "c"], 1)]),
            Hypergraph(["", "c"], [("x", ["c"], 1)]),
            Hypergraph(["a", "c"], [("x y", ["a", "c"], 1)]),
        ):
            with pytest.raises(ParseError):
                serialize(h)


class TestParsing:
    def test_format_line_is_optional(self):
        bare = "vertices: 1 2\nedge x: 1 2 weight 1\n"
        assert parse(bare) == parse("format: 1\n" + bare)

    def test_comments_and_blanks_are_skipped(self):
        text = "# header\n\nvertices: 1 2\n  # indented comment\nedge x: 1 2 weight 1\n"
        assert len(parse(text).edges) == 1

    def test_decimal_weights_become_exact_rationals(self):
        h = parse("vertices: 1 2\nedge x: 1 2 weight 1.5")
        assert h.edge("x").weight == Fraction(3, 2)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,excerpt",
        [
            ("vertices: 1 2\nedge x: 1 7 weight 1", "line 2, column 11"),
            ("vertices: 1 2\nbogus: 3", "unknown statement 'bogus:' (line 2, column 1)"),
            ("edge x: 1 2 weight 1\nvertices: 1 2", "edge line before vertices line (line 1"),
            ("vertices: 1 2\nedge x 1 2 weight 1", "id followed by ':'"),
            ("vertices: 1 2\nedge x: 1 2 mass 1", "must end with 'weight <value>'"),
            ("vertices: 1 2\nedge x: 1 2 weight x/y", "invalid weight 'x/y' (line 2, column 20)"),
            ("vertices: 1 2\nvertices: 1 2", "duplicate vertices line (line 2"),
            ("vertices: 1 1 2", "duplicate vertex '1' (line 1, column 11)"),
            ("vertices: 1 2\nedge x: weight 1", "edge 'x' has no members"),
            ("format: 2\nvertices: 1 2", "unsupported format version"),
            ("vertices: 1 2\nformat: 1", "format line must come first"),
            ("", "missing vertices line"),
            ("# only a comment\n", "missing vertices line"),
        ],
    )
    def test_positioned_errors(self, text, excerpt):
        with pytest.raises(ParseError, match=None) as err:
            parse(text)
        assert excerpt in str(err.value)

    def test_duplicate_edge_id(self):
        with pytest.raises(DuplicateEdgeId) as err:
            parse("vertices: 1 2\nedge x: 1 2 weight 1\nedge x: 1 weight 1")
        assert "line 3, column 6" in str(err.value)

    @pytest.mark.parametrize("token", ["1e3", "2.5E-1", "-1e3", "1e30000000"])
    def test_exponent_notation_is_refused_at_once(self, token):
        # Fraction("1e30000000") alone builds a 30-million-digit integer
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(f"vertices: 1 2\nedge x: 1 2 weight {token}")
        assert time.perf_counter() - start < 1
        assert str(err.value) == f"invalid weight {token!r} (line 2, column 20)"

    def test_a_weight_past_the_digit_limit_is_refused(self):
        # 3000 digits on each side of the point make a 6000-digit numerator;
        # a denominator of 10^limit has one digit more than str() prints
        limit = sys.get_int_max_str_digits()
        for token in ("1" * 3000 + "." + "3" * 3000, "0." + "0" * (limit - 1) + "1"):
            with pytest.raises(ParseError) as err:
                parse(f"vertices: 1 2\nedge x: 1 2 weight {token}")
            assert str(err.value) == f"invalid weight {token!r} (line 2, column 20)"

    def test_weights_within_the_digit_limit_parse(self):
        limit = sys.get_int_max_str_digits()
        for token, value in (
            ("1" * 2000 + "." + "3" * 2000, Fraction("1" * 2000 + "3" * 2000) / 10**2000),
            ("0." + "0" * (limit - 2) + "1", Fraction(1, 10 ** (limit - 1))),
            ("1" + "0" * 2500 + "." + "0" * 2500, Fraction(10**2500)),
        ):
            h = parse(f"vertices: 1 2\nedge x: 1 2 weight {token}")
            assert h.edges[0].weight == value

    @pytest.mark.parametrize(
        "token, want",
        [
            ("+2", Fraction(2)),
            ("1.", Fraction(1)),
            (".5", Fraction(1, 2)),
            ("1_0", Fraction(10)),
            ("\u0661", Fraction(1)),  # ARABIC-INDIC DIGIT ONE
            ("\u0663/\u0662", Fraction(3, 2)),
            ("007", Fraction(7)),
            ("9" * 4300, Fraction(10**4300 - 1)),
            ("-0", NonpositiveWeight),
            ("0", NonpositiveWeight),
            ("0.0", NonpositiveWeight),
            ("1/0", ParseError),
            ("nan", ParseError),
            ("1e3", ParseError),
            ("1/-2", ParseError),
            ("1" * 5000, ParseError),
        ],
        ids=lambda x: x if isinstance(x, str) and len(x) < 20 else None,
    )
    def test_weight_grammar(self, token, want, tmp_path, capsys):
        """Plain ASCII digit strings are read by int(), every other token by
        Fraction(); the accepted forms and the refusals stay those of
        Fraction() alone, and the CLI exits 0 on a weight it accepts and 2
        on one it refuses."""
        text = f"vertices: 1 2\nedge x: 1 2 weight {token}\n"
        if isinstance(want, Fraction):
            assert parse(text).edges[0].weight == want
        else:
            with pytest.raises(HyperkeyError) as err:
                parse(text)
            assert type(err.value) is want
        path = tmp_path / "w.hg"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path)]) == (0 if isinstance(want, Fraction) else 2)
        capsys.readouterr()

    def test_nonpositive_weight_is_a_domain_error(self):
        with pytest.raises(NonpositiveWeight):
            parse("vertices: 1 2\nedge x: 1 2 weight 0")
        with pytest.raises(NonpositiveWeight):
            parse("vertices: 1 2\nedge x: 1 2 weight -3")


NAMES = ["1", "2", "3", "a", "b", "x"]
# str.split() separates tokens at each of these, and str.splitlines() breaks
# no line at any of them, so they move columns without moving line numbers
SPACES = st.sampled_from(
    [" ", "  ", "\t", " \t ", "\xa0", "\u2003", "\u3000", "\x1f", " \u3000\x1f"]
)
# every one of these ends a line for str.splitlines()
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


def _joined(draw, tokens):
    out = draw(st.one_of(st.just(""), SPACES))
    for tok in tokens:
        out += tok + draw(SPACES)
    return out.rstrip() if draw(st.booleans()) else out


@st.composite
def vertices_lines(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    if not draw(st.integers(0, 3)):  # one in four repeats a name or declares none
        names = draw(st.sampled_from([names + [names[0]], [*names[1:], *names], []]))
    return _joined(draw, ["vertices:", *names])


@st.composite
def edge_lines(draw):
    eid = draw(st.sampled_from(["a:", "b:", "c:", "d:", "e:", "w:", ":", "a", "edge:"]))
    members = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4))
    if not draw(st.integers(0, 5)):
        members = draw(st.sampled_from([[], [*members, "z"], ["z", *members]]))
    weight = ["weight", draw(st.sampled_from(["1", "2", "3/2", "1.5", "0.25"]))]
    if not draw(st.integers(0, 5)):
        weight = draw(
            st.sampled_from(
                [["weight", "0"], ["weight", "-1"], ["weight", "x/y"],
                 ["weight", "1/0"], ["weight", "1e3"], ["weight", "-2E1"],
                 ["weight"], ["mass", "1"], []]
            )
        )
    return _joined(draw, ["edge", eid, *members, *weight])


other_lines = st.sampled_from(
    ["", "# comment", "  # indented", "format: 1", "format: 2", "format:",
     "format: 1 1", "bogus: 3", "edges: a"]
)


@st.composite
def hg_texts(draw):
    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(["format: 1", "format: 1", "format: 2", "# head"])))
    if draw(st.integers(0, 9)):
        lines.append(draw(vertices_lines()))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind < 7:
            lines.append(draw(edge_lines()))
        elif kind < 8:
            lines.append(draw(vertices_lines()))
        else:
            lines.append(draw(other_lines))
    return draw(st.sampled_from(LINE_BREAKS)).join(lines)


def outcome(parser, text):
    """The Hypergraph, or the error as (class, message, line, column)."""
    try:
        return parser(text)
    except HyperkeyError as exc:
        return (
            type(exc),
            str(exc),
            getattr(exc, "line", None),
            getattr(exc, "column", None),
        )


class TestAgreesWithQuadraticOracle:
    """parse counts the vertex names once; the oracle rescans them per name.
    Both give the same Hypergraph or the same first error."""

    @settings(max_examples=200)
    @given(hg_texts())
    def test_random_and_malformed_texts(self, text):
        assert outcome(parse, text) == outcome(parse_hg, text)

    @given(hypergraphs())
    def test_serialized_texts(self, h):
        text = serialize(h)
        assert outcome(parse, text) == outcome(parse_hg, text) == h

    @pytest.mark.parametrize(
        "text",
        [
            "vertices: x b c b x",
            "vertices: 1 2\nedge a: 1 z weight 0",
            "vertices: 1 2\nedge a: 1 2 weight 1\nedge a: 1 weight 1",
            "vertices: 1 2\nedge : 1 2 weight 1",
            "vertices: 1 2\nedge a: 1 2 weight 1/0",
            "vertices: 1 2 1\nedge a: 3 weight 1",
            # the erring token's text also occurs earlier on its line
            "vertices: ab a b a",
            "vertices: 1 2\nedge a: 1 e weight 1",
            "vertices: 1 2\nedge e1: 1 2 weight e",
            "vertices:\u3000ab\xa0a\x1fb a",
            "# x\x85vertices: 1 2\u2028edge a:\u2003e 1 weight 1",
        ],
    )
    def test_fixed_malformed_texts(self, text):
        assert outcome(parse, text) == outcome(parse_hg, text)

    def test_first_recurring_name_is_reported(self):
        # the first token whose name occurs twice is x at column 11, not the
        # first repeated token (b at column 17)
        assert outcome(parse, "vertices: x b c b x") == (
            ParseError, "duplicate vertex 'x' (line 1, column 11)", 1, 11
        )

    def test_long_path(self):
        n = 2000
        text = "vertices: " + " ".join(f"v{i}" for i in range(n)) + "\n" + "".join(
            f"edge e{i}: v{i} v{i + 1} weight {1 + i % 3}\n" for i in range(n - 1)
        )
        assert parse(text) == parse_hg(text)
