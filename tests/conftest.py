"""Shared fixtures: the five reference hypergraphs and a few degenerate shapes.

H1, H2, H3, H5 are minimally connected; H4 is the connected cycle-free
hypergraph with loops.  Derived values frozen in the test modules were
computed by hand from the definitions (coverage sums, component counts after
vertex removal) or by the independent brute-force oracles in
tests/test_acceptance.py.
"""

from hypothesis import settings

import pytest

from hyperkey import Hypergraph

settings.register_profile("suite", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("suite")


# labels for the one-line acceptance verdicts printed after a run
CRITERION_LABELS = {
    1: "H1 connectivity values and fundamental partition",
    2: "H1 rate region constraints",
    3: "H1 capacities and communication complexity",
    4: "H2 hypertree region and removal counts",
    5: "H3 fundamental partition, degrees, supermodularity",
    6: "H4 cycle-free with loops",
    7: "H5 scheme replay and rank facts",
    8: "lemma identities on 200 random MCHs",
    9: "census equivalence, |V|<=5 |E|<=4",
    10: "end-to-end theorem check on fuzzed MCHs",
    11: "secrecy oracle cross-check",
}


def pytest_terminal_summary(terminalreporter):
    lines = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            name = getattr(report, "nodeid", "")
            if "test_criterion_" not in name:
                continue
            number = int(name.split("test_criterion_")[1].split("_")[0])
            verdict = "PASS" if outcome == "passed" else "FAIL"
            lines[number] = f"criterion {number}: {verdict} ({CRITERION_LABELS[number]})"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(lines):
            terminalreporter.write_line(lines[number])


# vertices and edges of each fixture, by fixture name; the triangle is
# connected but not minimally connected: every edge removal keeps it whole
SOURCES = {
    "h1": ("123456", [("a", "124", 1), ("b", "235", 3), ("c", "136", 2)]),
    "h2": ("12345", [("a", "123", 2), ("b", "34", 1), ("c", "15", 1)]),
    "h3": (
        "123456789",
        [
            ("a", "125", 1),
            ("b", "126", 1),
            ("c", "23", 1),
            ("d", "3478", 1),
            ("e", "3489", 1),
        ],
    ),
    "h4": (
        "12345",
        [("a", "123", 1), ("b", "34", 1), ("c", "15", 1), ("d", "2", 1), ("e", "5", 1)],
    ),
    "h5": (
        ["1", "2", "3", "4", "5", "v1", "v2", "v3", "v4", "v5", "v6"],
        [
            ("e1", ["1", "2", "v1"], 1),
            ("e2", ["2", "3", "v2"], 1),
            ("e3", ["1", "3", "v3"], 1),
            ("e4", ["3", "5", "v4"], 1),
            ("e5", ["3", "4", "v5"], 1),
            ("e6", ["4", "5", "v6"], 1),
        ],
    ),
    "triangle": ("123", [("p", "12", 1), ("q", "23", 1), ("r", "13", 1)]),
    "single_edge": ("12", [("a", "12", 1)]),
}


def source(name):
    """A fresh Hypergraph of the fixture named name."""
    return Hypergraph(*SOURCES[name])


@pytest.fixture
def h1():
    return source("h1")


@pytest.fixture
def h2():
    return source("h2")


@pytest.fixture
def h3():
    return source("h3")


@pytest.fixture
def h4():
    return source("h4")


@pytest.fixture
def h5():
    return source("h5")


@pytest.fixture
def triangle():
    return source("triangle")


@pytest.fixture
def single_edge():
    return source("single_edge")
