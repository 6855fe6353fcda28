"""Every narrative script in demos/ runs to completion against the package,
so an API change cannot break a demo unnoticed, and the scheme walkthrough
prints the same narrative line for line."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@functools.cache
def run_demo(demo):
    """One run per demo and session; tests/test_golden.py reads it too."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


# the H5 replay, row by row and speaker by speaker
WALKTHROUGH = [
    "key edge: e1",
    "rows (edge pair @ speaking user):",
    "  e1 ^ e2   spoken by user 2",
    "  e2 ^ e3   spoken by user 3",
    "  e3 ^ e4   spoken by user 3",
    "  e5 ^ e6   spoken by user 4",
    "  e4 ^ e6   spoken by user 5",
    "iteration over block ['1', '2', '3', '4', '5'] :",
    "  user 1 says nothing",
    "  user 2 says e1^e2",
    "  user 3 says e2^e3, e3^e4",
    "  user 4 says e5^e6",
    "  user 5 says e4^e6",
    "verified: True",
    "  matrix rank: 5 of 5 rows",
    "  every user recovers every edge: True",
    "  key independent of all messages: True",
    "rates at key rate 1: {'2': '1', '3': '2', '4': '1', '5': '1'}",
    "rates at key rate 1/2: {'2': '1/2', '3': '1', '4': '1/2', '5': '1/2'}",
]


def test_scheme_walkthrough_tells_the_same_story():
    done = run_demo(ROOT / "demos" / "scheme_walkthrough.py")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(line + "\n" for line in WALKTHROUGH)
