"""Every CLI call on a valid source gives an answer or one error line.

A hypothesis test drives analyze, capacity, region, check, scheme and
simulate in process, as text and as --json, on random MCH and non-MCH
sources of 2-8 vertices whose ids hold ":", "," or "=", with weights of up
to a few hundred digits and flag values that are zero, negative,
unreadable or very long, the int flags (--seed, --trials) included.
The exit code must be 0, 1 or 2; on 1 or 2, stdout is empty and stderr
is one `error:` line; nothing escapes main.  On exit 0, analyze agrees
with the recount oracle (non-MCH) or the MCH closed forms, capacity with
its closed forms, and check with a scan of oracles.region_spec.
--trials stays small, since a seeded run costs one simulation per trial.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperkey import Hypergraph, hgio, partition_connectivity
from hyperkey.cli import main

import oracles

IDS = st.text(alphabet="ab:,=\\-", min_size=1, max_size=3)
BIG = 10**300
WEIGHTS = st.one_of(
    st.integers(1, 3),
    st.integers(1, BIG),
    st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.integers(1, 9), st.sampled_from([7, 10**18 + 9])),
)
# values for the rational flags: readable, zero, negative, unreadable, long
RATIONALS = st.one_of(
    st.sampled_from(["0", "-1", "-3/2", "1/0", "x", "1e3", "", "0x1", "1/3", "2"]),
    WEIGHTS.map(str),
    st.sampled_from(["9" * 5000, "1/" + "7" * 5000, "-" + "9" * 400]),
)
# values for the int flags: readable, or unreadable to argparse's int
UNREADABLE_INTS = st.sampled_from(["x", "", "1/2", "1e3", "1.0", "9" * 5000])
INTS = st.one_of(
    st.integers(-3, 3).map(str), st.integers(-BIG, BIG).map(str), UNREADABLE_INTS
)
TRIALS = st.one_of(st.integers(-1, 3).map(str), UNREADABLE_INTS)
MATRIX = ["--emit-matrix"]
MANGLES = ["none"] * 4 + ["drop", "repeat", "foreign", "bare"]


def _escaped(name: str) -> str:
    """A vertex id as --rates and --order read it: a backslash before each
    backslash, "," and "="."""
    return "".join("\\" + ch if ch in "\\,=" else ch for ch in name)


def _flag(option: str, value: str) -> list:
    """option and value as two tokens, or as option=value when the value
    would read as an option."""
    return [f"{option}={value}"] if value.startswith("-") else [option, value]


@st.composite
def sources(draw):
    """An MCH (oracles.random_mchs) or a random hypergraph, relabelled with
    drawn vertex ids and weights."""
    n = draw(st.integers(2, 8))
    names = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    if draw(st.booleans()):
        grown = oracles.random_mchs(1, draw(st.integers(0, 10**6)), max_vertices=n)[0]
        old = sorted(grown.vertices)
        rename = dict(zip(old, names))
        members = [[rename[v] for v in e.members] for e in grown.edges]
        names = names[: len(old)]
    else:
        members = draw(
            st.lists(
                st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True),
                max_size=n + 1,
            )
        )
    weights = draw(st.lists(WEIGHTS, min_size=len(members), max_size=len(members)))
    edges = [(f"e{j}", m, w) for j, (m, w) in enumerate(zip(members, weights))]
    return Hypergraph(names, edges)


@st.composite
def orders(draw, h: Hypergraph):
    """--order values: a block of the fundamental partition with a drawn
    permutation, or a mangled one (a member dropped or repeated, a foreign
    id, no "=")."""
    blocks = partition_connectivity(h).fundamental.blocks
    out = []
    for block in draw(st.lists(st.sampled_from(blocks), max_size=2)):
        perm = draw(st.permutations(sorted(block)))
        mangle = draw(st.sampled_from(MANGLES))
        if mangle == "drop":
            perm = perm[1:]
        elif mangle == "repeat":
            perm = [perm[0], *perm]
        elif mangle == "foreign":
            perm = [*perm, "zz"]
        left = ",".join(_escaped(v) for v in sorted(block))
        right = ",".join(_escaped(v) for v in perm)
        out.append(left if mangle == "bare" else f"{left}={right}")
    return out


@st.composite
def calls(draw):
    """(source, [argv without --json and file]) for the six subcommands,
    check twice: once with drawn flag values, once near the region."""
    h = draw(sources())
    names = sorted(h.vertices)
    rates = ",".join(
        f"{_escaped(v)}:{draw(RATIONALS)}"
        for v in draw(st.lists(st.sampled_from(names), max_size=3))
    )
    order_flags = sum((_flag("--order", o) for o in draw(orders(h))), [])
    key_rate = draw(st.one_of(st.none(), RATIONALS))
    key_flags = [] if key_rate is None else _flag("--key-rate", key_rate)
    total = draw(st.one_of(st.none(), RATIONALS))
    sim = draw(
        st.one_of(
            st.just(["--exhaustive"]),
            st.tuples(INTS, TRIALS).map(
                lambda p: _flag("--seed", p[0]) + _flag("--trials", p[1])
            ),
        )
    )
    # rates near the region: every vertex at 0-3, the key at the capacity
    near = ",".join(f"{_escaped(v)}:{draw(st.integers(0, 3))}" for v in names)
    least = str(min((e.weight for e in h.edges), default=1))
    argvs = [
        ["analyze"],
        ["capacity"] + ([] if total is None else _flag("--total-rate", total)),
        ["region"],
        ["check"] + _flag("--key-rate", draw(RATIONALS)) + _flag("--rates", rates),
        ["check", "--key-rate", least] + _flag("--rates", near),
        ["scheme", *key_flags, *order_flags, *draw(st.sampled_from([[], MATRIX]))],
        ["simulate"] + key_flags + order_flags + sim,
    ]
    return h, argvs


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_answer(h: Hypergraph, command: str, doc: dict) -> None:
    if command == "analyze" and not h.is_mch():
        for value, blocks, weighted in (
            ("partition_connectivity", "fundamental_partition", False),
            ("mmi", "mmi_fundamental", True),
        ):
            weights = tuple(e.weight if weighted else Fraction(1) for e in h.edges)
            expected = oracles.minimizer_sweep(h, weights)
            assert doc[value] == str(expected.value)
            assert doc[blocks] == [
                " ".join(b) for b in expected.fundamental.to_sorted_lists()
            ]
    elif command == "analyze":
        assert doc["partition_connectivity"] == "1"
        assert doc["mmi"] == str(min(e.weight for e in h.edges))
    elif command == "capacity":
        least = min(e.weight for e in h.edges)
        assert doc["unconstrained_capacity"] == str(least)
        assert doc["communication_complexity"] == str((len(h.edges) - 1) * least)
    elif command == "check":
        # an independent scan: the key cap first, then the first constraint
        # of the per-subset oracle whose rates sum below it
        key_rate = Fraction(doc["key_rate"])
        rates = {v: Fraction(r) for v, r in doc["rates"].items()}
        spec = oracles.region_spec(h)
        expected = "key_cap" if key_rate > spec.key_cap else next(
            (
                {"subset": sorted(b), "coefficient": c}
                for b, c in spec.constraints
                if sum(rates[v] for v in b) < c * key_rate
            ),
            None,
        )
        got = doc.get("violated")
        if isinstance(got, dict):
            got = {"subset": got["subset"], "coefficient": got["coefficient"]}
        assert (doc["in_region"], got) == (expected is None, expected)


@settings(max_examples=250)
@given(calls())
def test_every_call_answers_or_prints_one_error_line(tmp_path_factory, call):
    h, argvs = call
    path = tmp_path_factory.mktemp("source") / "source.hg"
    path.write_text(hgio.serialize(h), encoding="utf-8")
    for argv in argvs:
        results = []
        for head in ([], ["--json"]):
            full = head + [argv[0], str(path)] + argv[1:]
            code, out, err = _run(full)
            assert code in (0, 1, 2), full
            if code:
                assert out == "", full
                assert err.startswith("error: ") and err.count("\n") == 1, (full, err)
            else:
                assert err == "", full
            results.append((code, err))
        assert results[0] == results[1], argv
        if results[1][0] == 0:
            _check_answer(h, argv[0], json.loads(out))
