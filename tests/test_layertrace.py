"""The benchmark's layer tracer (bench/layertrace.py) still fits the library.

The tracer wraps the functions named in each layer module's __all__ plus
Hypergraph.is_mch and Hypergraph.find_berge_cycle; a refactor that drops one
of those would only show when a traced benchmark run fails.  This reads
bench/ and writes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

from hyperkey import DiscussionScheme, Hypergraph, verify
from hyperkey.cli import main

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no bytecode cache under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_tracer_installs_traces_and_uninstalls(tmp_path, capsys):
    layertrace = load_layertrace()
    modules = layertrace._hyperkey_modules()
    before = [(m, dict(vars(m))) for m in modules]
    methods = dict(vars(Hypergraph))
    path = tmp_path / "h1.hg"
    path.write_text(
        "vertices: 1 2 3 4 5 6\n"
        "edge a: 1 2 4 weight 1\n"
        "edge b: 2 3 5 weight 3\n"
        "edge c: 1 3 6 weight 2\n"
    )

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        assert main(["--json", "analyze", str(path)]) == 0
        assert main(["--json", "scheme", str(path)]) == 0
        assert main(["--json", "simulate", str(path), "--seed", "1"]) == 0
        # the CLI verifies pair rows without gf2 and decodes on the row
        # tree; a row that is not a pair goes through gf2.eliminate
        single = DiscussionScheme(("a", "b"), ((0,),), (), "a", ())
        assert not verify(single).ok
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()

    summary = tracer.summary("mch-scale")
    assert summary["gf2.eliminations"] > 0
    assert summary["scheme.verify.self_s"] > 0
    assert summary["hypergraph.find_berge_cycle.self_s"] > 0
    assert summary["hypergraph.is_mch.calls"] > 0
    for module, names in before:
        assert all(vars(module)[k] is v for k, v in names.items()), module
    assert all(vars(Hypergraph)[k] is v for k, v in methods.items())
