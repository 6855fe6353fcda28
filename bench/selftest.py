"""Self-test of the benchmark itself (not of hyperkey):

    python3 -m pytest -q bench/selftest.py

Checks that the oracles reject wrong answers and that a rejected op counts
as failed, that one seed gives the same instances and outputs twice, that
tracing puts back every binding it wrapped, and that the benchmark refuses
to run without the library's sources.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
from hyperkey import cli  # noqa: E402

MCH = workloads.WORKLOADS["mch-scale"]
SIM = workloads.WORKLOADS["exhaustive-sim"]
FUZZ = workloads.WORKLOADS["fuzz"]


@pytest.fixture
def workdir():
    path = run.WORK / f"selftest-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def first(workload, seed, directory, k):
    insts = list(islice(workload.instances(seed, directory), k))
    workloads.write_inputs(insts, directory)
    return insts


def replace_doc(results, index, **changes):
    """results with document `index` re-rendered after applying changes."""
    out = list(results)
    code, text = out[index]
    doc = json.loads(text)
    doc.update(changes)
    out[index] = (code, json.dumps(doc))
    return out


def test_mch_scale_oracle_rejects_doctored_documents(workdir):
    core = first(MCH, 7, workdir, 3)[2]  # the cyclic-core family
    _, results = run.run_op(cli, core)
    assert MCH.check(core, results) is None
    analyze = json.loads(results[0][1])
    merged = analyze["fundamental_partition"][:2]
    wrong_block = [" ".join(merged)] + analyze["fundamental_partition"][2:]
    doctored = [
        replace_doc(results, 0, fundamental_partition=wrong_block),
        replace_doc(results, 0, partition_connectivity="2"),
        replace_doc(results, 0, mmi="7"),
        replace_doc(results, 1, generator_blocks=wrong_block),
        replace_doc(results, 2, verified=False),
        replace_doc(results, 2, row_count=analyze["edge_count"]),
        [results[0], (1, results[1][1]), results[2]],
        [results[0], results[1], (0, "not json")],
    ]
    for bad in doctored:
        assert MCH.check(core, bad) is not None


def test_exhaustive_sim_oracle_rejects_doctored_documents(workdir):
    inst = first(SIM, 7, workdir, 1)[0]
    _, results = run.run_op(cli, inst)
    assert SIM.check(inst, results) is None
    doc = json.loads(results[0][1])
    for change in (
        {"zero_error": False},
        {"perfect_secrecy": False},
        {"secrecy_rank_ok": False},
        {"realizations_checked": doc["realizations_checked"] // 2},
        {"key_entropy_bits": "0"},
        {"conditional_entropy_bits": "0"},
    ):
        assert SIM.check(inst, replace_doc(results, 0, **change)) is not None


def test_fuzz_oracle_rejects_counterexample_and_exit_code(workdir):
    inst = first(FUZZ, 7, workdir, 1)[0]
    _, results = run.run_op(cli, inst)
    assert FUZZ.check(inst, results) is None
    assert FUZZ.check(inst, replace_doc(results, 0, ok=False)) is not None
    assert FUZZ.check(inst, [(1, results[0][1])]) is not None


class DoctoredCli:
    """Stands in for hyperkey.cli: runs the real one, then breaks one field."""

    @staticmethod
    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        doc = json.loads(out.getvalue())
        doc["zero_error"] = False
        print(json.dumps(doc))
        return code


class SmallRounds(workloads.ExhaustiveSim):
    round_size = 10


def test_failed_check_counts_as_failed_op(workdir):
    insts = first(SIM, 8, workdir, 10)
    loop = run.Loop(DoctoredCli, SmallRounds(), 8, insts, iter(()), workdir)
    passed, busy = loop.run(0, 1)
    assert passed == 0 and busy > 0
    assert len(loop.failures) == len(loop.latencies) == 10


def digest(workload, seed, directory, k):
    h = hashlib.sha256()
    insts = first(workload, seed, directory, k)
    for inst in insts:
        _, results = run.run_op(cli, inst)
        assert workload.check(inst, results) is None
        for code, out in results:
            h.update(f"{code}\n{out}\n".encode())
    return [(i.argvs, i.hg_text) for i in insts], h.hexdigest()


@pytest.mark.parametrize("workload,k", [(MCH, 6), (SIM, 10), (FUZZ, 8)])
def test_same_seed_same_instances_and_digest(workload, k, workdir):
    once = digest(workload, 11, workdir / "a", k)
    shutil.rmtree(workdir)
    twice = digest(workload, 11, workdir / "a", k)
    assert once == twice
    other = digest(workload, 12, workdir / "a", k)
    assert other[0] != once[0]


def bindings():
    """Every (owner, attribute) -> object id of hyperkey's module namespaces
    and of the Hypergraph class."""
    out = {}
    for module in layertrace._hyperkey_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = id(value)
    from hyperkey.hypergraph import Hypergraph

    for attr, value in vars(Hypergraph).items():
        out[("Hypergraph", attr)] = id(value)
    return out


def test_tracer_wraps_and_restores_every_binding(workdir):
    import hyperkey.cli
    import hyperkey.properties
    import hyperkey.scheme
    from hyperkey.hypergraph import Hypergraph

    before = bindings()
    originals = (hyperkey.cli.synthesize, hyperkey.properties.run,
                 hyperkey.scheme.partition_connectivity, Hypergraph.is_mch)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        wrapped = (hyperkey.cli.synthesize, hyperkey.properties.run,
                   hyperkey.scheme.partition_connectivity, Hypergraph.is_mch)
        assert all(a is not b for a, b in zip(originals, wrapped))
        inst = first(MCH, 9, workdir, 1)[0]
        tracer.begin_op(0)
        _, results = run.run_op(cli, inst)
        tracer.end_op()
        assert MCH.check(inst, results) is None
    finally:
        tracer.uninstall()
    assert bindings() == before
    summary = tracer.summary("mch-scale")
    missing = set(layertrace.PER_LAYER_UNITS) - set(summary) - {"tracing.ops_per_s_delta"}
    assert not missing
    assert summary["partitions.partition_connectivity.calls"] >= 1
    assert summary["share.target"] == summary["share.partitions"] > 0


def test_refuses_to_run_without_library(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (run.ROOT / "BENCHMARK.json").is_file():
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.PER_LAYER_UNITS
    loop = run.Loop(cli, MCH, 1, [], iter(()), run.WORK)
    loop.latencies, loop.passed, loop.rss_mb, loop.setup_samples = [0.1, 0.2], 2, 30.0, [0.1]
    printed = {name: m["unit"] for name, m in run.end_to_end(loop).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == printed
