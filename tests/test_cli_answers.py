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
fuzz, which reads no file, runs on a fixed list of flag values: shapes out
of bounds or with no MCH, case counts below one, and weights and seeds
that are negative, unreadable or thousands of digits long; its answer's
cases_run is the number of instances it lists.  An int flag whose value
has more digits than Python's int-from-str limit gets one short line that
names the limit, and a malformed one argparse's own line.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest
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


def _expect_answer_or_one_error(argv) -> list:
    """(exit code, stdout, stderr) of argv as text and as --json, after
    checking that each is an answer (exit 0, nothing on stderr) or one
    `error:` line (exit 1 or 2, nothing on stdout), the same both ways."""
    results = []
    for head in ([], ["--json"]):
        code, out, err = _run(head + argv)
        assert code in (0, 1, 2), argv
        if code:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        else:
            assert err == "", argv
        results.append((code, out, err))
    (text_code, _, text_err), (json_code, _, json_err) = results
    assert (text_code, text_err) == (json_code, json_err), argv
    return results


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
        _, (code, out, _) = _expect_answer_or_one_error(
            [argv[0], str(path), *argv[1:]]
        )
        if code == 0:
            _check_answer(h, argv[0], json.loads(out))


FUZZ = ["fuzz", "--vertices", "4", "--edges", "2", "--cases", "1"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--vertices", "1"],
        ["--vertices", "9"],
        ["--edges", "0"],
        ["--edges", "7"],
        ["--vertices", "5", "--edges", "5"],
        ["--vertices", "8", "--edges", "7"],
        ["--cases", "0"],
        ["--cases=-3"],
        ["--cases", "3"],
        ["--max-weight", "0"],
        ["--max-weight=-1"],
        ["--max-weight", "1e3"],
        ["--max-weight", str(2**70)],
        ["--max-weight", "9" * 4299],
        ["--max-weight", "9" * 5000],
        ["--seed=-5"],
        ["--seed", "9" * 4300],
        ["--seed", "9" * 4300, "--cases", "2"],
    ],
    ids=lambda flags: " ".join(f if len(f) < 20 else f"<{len(f)} digits>" for f in flags),
)
def test_fuzz_answers_or_prints_one_error_line(flags):
    """Later flags override FUZZ's, so each call changes what it names."""
    (code, _, _), (_, out, _) = _expect_answer_or_one_error(FUZZ + flags)
    if code == 0:
        doc = json.loads(out)
        assert doc["ok"] and doc["cases_run"] == len(doc["instances"]) >= 1


LIMIT = sys.get_int_max_str_digits()
PAST_LIMIT = "9" * (LIMIT + 1)
SIMULATE = ["simulate", "source.hg"]  # argparse refuses the flag before the file


@pytest.mark.parametrize(
    "argv, flag",
    [
        (SIMULATE + ["--seed", PAST_LIMIT], "--seed"),
        (SIMULATE + ["--seed=-" + "9" * 5000], "--seed"),
        (SIMULATE + ["--trials", "9" * 5000], "--trials"),
        (FUZZ + ["--vertices", PAST_LIMIT], "--vertices"),
        (FUZZ + ["--edges", "+" + PAST_LIMIT], "--edges"),
        (FUZZ + ["--seed", PAST_LIMIT], "--seed"),
        (FUZZ + ["--cases", "9" * 5000], "--cases"),
        (FUZZ + ["--max-weight", "9" * 5000], "--max-weight"),
        (FUZZ + ["--max-weight", "9_" * LIMIT + "9"], "--max-weight"),
    ],
    ids=lambda x: x if isinstance(x, str) else f"{x[0]} <{len(x[-1])} chars>",
)
def test_an_int_flag_past_the_digit_limit_is_one_short_error_line(argv, flag):
    (code, _, err), _ = _expect_answer_or_one_error(argv)
    assert code == 2
    assert err == (
        f"error: argument {flag}: the value has more than {LIMIT} digits, "
        "past Python's int-from-str limit\n"
    )


@pytest.mark.parametrize("value", ["x", "", "1e3", "1.0", "9" * 50 + "x"])
def test_a_malformed_int_flag_keeps_argparse_s_line(value):
    (code, _, err), _ = _expect_answer_or_one_error(FUZZ + ["--max-weight", value])
    assert code == 2
    assert err == f"error: argument --max-weight: invalid int value: {value!r}\n"
