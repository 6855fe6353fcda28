"""Span tracing of hyperkey's layers from outside the library.

`Tracer.install()` replaces, in every loaded `hyperkey` module, each binding
of a layer's public function (the names in that module's `__all__`) with a
wrapper that records a span, plus two `Hypergraph` search methods; it counts
`Hypergraph` constructions without a span.  `uninstall()` puts every
original object back.  Nothing in the library changes on disk.

A span is (name, start, end, parent span, op id).  Spans live in flat arrays
until the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "hgio", "hypergraph", "partitions", "capacity", "polymatroid",
    "scheme", "gf2", "simkit", "properties", "cli",
)
HYPERGRAPH_METHODS = ("is_mch", "find_berge_cycle")
OP = "op"

# which layers each workload was chosen to load, for the share it reports
TARGET_LAYERS = {
    "mch-scale": ("partitions",),
    "exhaustive-sim": ("simkit", "gf2"),
    "fuzz": ("properties", "hypergraph"),
}

# per-layer metrics: name -> unit; every traced run reports all of them
PER_LAYER_UNITS = {
    "partitions.partition_connectivity.calls": "calls/op",
    "partitions.partition_connectivity.self_s": "s/op",
    "partitions.mmi.calls": "calls/op",
    "partitions.mmi.self_s": "s/op",
    "partitions.repeat_ratio": "ratio",
    "hypergraph.is_mch.calls": "calls/op",
    "hypergraph.is_mch.self_s": "s/op",
    "hypergraph.constructions": "count/op",
    "simkit.random_mch.self_s": "s/op",
    "simkit.random_mch.accept_ratio": "ratio",
    "hypergraph.find_berge_cycle.self_s": "s/op",
    "hypergraph.removal_component_counts.self_s": "s/op",
    "capacity.region_spec.self_s": "s/op",
    "capacity.in_region.self_s": "s/op",
    "simkit.run.self_s": "s/op",
    "simkit.run.realizations": "count/op",
    "simkit.run.realizations_per_s": "1/s",
    "simkit.brute_force_secrecy.self_s": "s/op",
    "simkit.brute_force_secrecy.realizations_per_s": "1/s",
    "gf2.eliminations": "count/op",
    "gf2.self_s": "s/op",
    "properties.lemma_violations.self_s": "s/op",
    "properties.scheme_round_trip_violations.self_s": "s/op",
    "polymatroid.verify_contra_polymatroid.self_s": "s/op",
    "polymatroid.extreme_point_for_order.self_s": "s/op",
    "scheme.synthesize.calls": "calls/op",
    "scheme.synthesize.self_s": "s/op",
    "scheme.verify.self_s": "s/op",
    "hgio.parse.self_s": "s/op",
    "cli.self_s": "s/op",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "share.unattributed": "ratio",
    "share.target": "ratio",
    "tracing.ops_per_s_delta": "ops/s",
}

# span names whose self time and calls are reported under another name
ALIASES = {
    "simkit.random_mch_with_stats": "simkit.random_mch",
    "cli.main": "cli",
}


def _hyperkey_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "hyperkey" or name.startswith("hyperkey."))
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self._stack = [-1]
        self._op = -1
        self._op_span = -1
        self._seen: set = set()
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._seen = set()
        self._op_span = self._open(self._name_id(OP))

    def end_op(self) -> None:
        self._close(self._op_span)

    def _wrap(self, name: str, fn, after=None):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters taken from arguments and results ---------------------------

    def _partition_call(self, args, result) -> None:
        h = args[0] if args else None
        self.counts["partitions.calls"] += 1
        if h in self._seen:
            self.counts["partitions.repeats"] += 1
        else:
            self._seen.add(h)

    def _after_hooks(self):
        counts = self.counts

        def run(args, result):
            counts["simkit.run.realizations"] += result.realizations_checked

        def secrecy(args, result):
            counts["simkit.brute_force_secrecy.realizations"] += result.realizations

        def random_mch(args, result):
            counts["simkit.random_mch.attempts"] += result[1].attempts
            counts["simkit.random_mch.accepted"] += 1

        return {
            "partitions.partition_connectivity": self._partition_call,
            "partitions.mmi": self._partition_call,
            "simkit.run": run,
            "simkit.brute_force_secrecy": secrecy,
            "simkit.random_mch_with_stats": random_mch,
        }

    # -- installing and removing the wrappers --------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every binding of every layer's public functions."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _hyperkey_modules()
        by_module = {m.__name__: m for m in modules}
        hooks = self._after_hooks()
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = by_module[f"hyperkey.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = self._wrap(name, fn, hooks.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])

        hg = by_module["hyperkey.hypergraph"].Hypergraph
        for attr in HYPERGRAPH_METHODS:
            self._set(hg, attr, self._wrap(f"hypergraph.{attr}", vars(hg)[attr]))
        init = vars(hg)["__init__"]
        counts = self.counts

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            counts["hypergraph.constructions"] += 1
            init(*args, **kwargs)

        self._set(hg, "__init__", counted_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as CSV: op, span, parent, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = self.names
        with path.open("w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start,end\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{names[self.name[i]]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )

    def summary(self, workload: str) -> dict[str, float]:
        """Per-op means of the per-layer metrics over every traced op."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        kind = [ALIASES.get(nm, nm) for nm in self.names]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        gf2_outer = 0
        for i in range(n):
            k = kind[self.name[i]]
            self_s[k] += dur[i] - child[i]
            total_s[k] += dur[i]
            calls[k] += 1
            if k.startswith("gf2.") and (
                self.parent[i] < 0 or not kind[self.name[self.parent[i]]].startswith("gf2.")
            ):
                gf2_outer += 1
        ops = calls[OP]
        op_time = total_s[OP]
        if not ops or op_time <= 0:
            raise ValueError("no traced ops")

        layer_self: dict[str, float] = defaultdict(float)
        for k, s in self_s.items():
            if k != OP:
                layer_self[k.split(".")[0]] += s
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "partitions.repeat_ratio": ratio(c["partitions.repeats"], c["partitions.calls"]),
            "hypergraph.constructions": c["hypergraph.constructions"] / ops,
            "simkit.random_mch.accept_ratio": ratio(
                c["simkit.random_mch.accepted"], c["simkit.random_mch.attempts"]
            ),
            "simkit.run.realizations": c["simkit.run.realizations"] / ops,
            "simkit.run.realizations_per_s": ratio(
                c["simkit.run.realizations"], total_s["simkit.run"]
            ),
            "simkit.brute_force_secrecy.realizations_per_s": ratio(
                c["simkit.brute_force_secrecy.realizations"],
                total_s["simkit.brute_force_secrecy"],
            ),
            "gf2.eliminations": gf2_outer / ops,
            "gf2.self_s": layer_self["gf2"] / ops,
            "cli.self_s": self_s["cli"] / ops,
            "share.unattributed": self_s[OP] / op_time,
            "share.target": sum(layer_self[x] for x in TARGET_LAYERS[workload]) / op_time,
        }
        for layer in LAYERS:
            out[f"share.{layer}"] = layer_self[layer] / op_time
        for metric in PER_LAYER_UNITS:
            base, _, stat = metric.rpartition(".")
            if metric in out:
                continue
            if stat == "self_s":
                out[metric] = self_s[base] / ops
            elif stat == "calls":
                out[metric] = calls[base] / ops
        return out
