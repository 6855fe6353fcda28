"""Golden outputs: every call of a fixed corpus prints what it printed when
tests/golden.json was recorded, byte for byte.

The corpus runs `cli.main` in process on:
  - every file subcommand, text and --json, on the fixtures of conftest
    (H1-H5, the triangle and the single edge) written out by hgio.serialize,
    plus `fuzz` on two small cases;
  - seeded and --exhaustive `simulate` on the same files;
  - `fuzz --json` on each (vertices, edges) shape of MENU with seeds 0-49,
    one case per call, at --max-weight 1 and 3;
and adds the stdout of every demos/ script, from the runs test_demos makes.

golden.json keeps one sha256 per call, over its exit code, stdout and
stderr, so a failure names the calls that changed, and one sha256 per
group, over the group's stdouts joined in corpus order.  Pytest only
compares; a change that alters a digest says which calls changed and why.
To record the digests again, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from conftest import source
from hyperkey import hgio
from hyperkey.cli import main
from test_demos import DEMOS, run_demo

GOLDEN = Path(__file__).with_name("golden.json")

FIXTURES = ("h1", "h2", "h3", "h4", "h5", "triangle", "single_edge")

# the (vertices, edges) shapes of the benchmark's fuzz workload
MENU = (
    (2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3),
    (6, 4), (7, 4), (7, 5), (8, 4), (8, 5),
)
FUZZ_SEEDS = range(50)

# a block order of H5's fundamental block {1, 2, 3, 4, 5}
H5_ORDER = ["--order", "1,2,3,4,5=5,4,3,2,1"]


def _files_calls(name: str) -> list[list[str]]:
    path = f"{name}.hg"
    every_rate = ",".join(f"{v}:1" for v in sorted(source(name).vertices))
    calls = [
        ["analyze", path],
        ["capacity", path],
        ["capacity", path, "--total-rate", "5/2"],
        ["region", path],
        ["check", path, "--key-rate", "1"],
        ["check", path, "--key-rate", "1/2", "--rates", every_rate],
        ["scheme", path],
        ["scheme", path, "--key-rate", "1/2", "--emit-matrix"],
    ]
    if name == "h5":
        calls.append(["scheme", path, *H5_ORDER])
    return calls


def _simulate_calls(name: str) -> list[list[str]]:
    path = f"{name}.hg"
    calls = [
        ["simulate", path, "--seed", "3", "--trials", "2"],
        ["simulate", path, "--key-rate", "1/2", "--exhaustive"],
    ]
    if name == "h5":
        calls.append(["simulate", path, "--exhaustive", *H5_ORDER])
    return calls


def _both_renderings(calls: list[list[str]]) -> list[list[str]]:
    return [argv for call in calls for argv in (call, ["--json", *call])]


def corpus() -> dict[str, list[list[str]]]:
    """The argv lists of each CLI group, in order."""
    files = [argv for name in FIXTURES for argv in _files_calls(name)]
    files.append(["fuzz", "--vertices", "5", "--edges", "3", "--seed", "2",
                  "--cases", "2"])
    groups = {
        "subcommands": _both_renderings(files),
        "simulate": _both_renderings(
            [argv for name in FIXTURES for argv in _simulate_calls(name)]
        ),
    }
    for weight in ("1", "3"):
        groups[f"fuzz max-weight {weight}"] = [
            ["--json", "fuzz", "--cases", "1", "--max-weight", weight, "--seed",
             str(seed), "--vertices", str(n), "--edges", str(m)]
            for n, m in MENU
            for seed in FUZZ_SEEDS
        ]
    return groups


GROUPS = (*corpus(), "demos")


def write_fixtures(directory: Path) -> None:
    for name in FIXTURES:
        (directory / f"{name}.hg").write_text(
            hgio.serialize(source(name)), encoding="utf-8"
        )


def _digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def measure(group: str) -> tuple[dict[str, str], str]:
    """(call -> digest, group digest) for group; the CLI groups read the
    fixture files from the current directory."""
    if group == "demos":
        runs = {}
        for demo in DEMOS:
            done = run_demo(demo)
            runs[f"demos/{demo.name}"] = (done.returncode, done.stdout, done.stderr)
    else:
        runs = {" ".join(argv): _run(argv) for argv in corpus()[group]}
    calls = {key: _digest(*run) for key, run in runs.items()}
    whole = hashlib.sha256("".join(out for _, out, _ in runs.values()).encode())
    return calls, whole.hexdigest()


@pytest.mark.parametrize("group", GROUPS)
def test_outputs_match_the_recorded_digests(group, tmp_path, monkeypatch):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    calls, whole = measure(group)
    want = recorded["calls"][group]
    changed = [key for key in want if calls.get(key) != want[key]]
    assert not changed and calls.keys() == want.keys(), changed[:20]
    assert whole == recorded["groups"][group]


def record() -> None:
    golden = {"groups": {}, "calls": {}}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_fixtures(Path(directory))
        os.chdir(directory)
        try:
            for group in GROUPS:
                calls, whole = measure(group)
                golden["calls"][group] = calls
                golden["groups"][group] = whole
        finally:
            os.chdir(here)
    text = json.dumps(golden, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    for group, whole in golden["groups"].items():
        print(f"{group}: {len(golden['calls'][group])} calls, {whole}")


if __name__ == "__main__":
    record()
