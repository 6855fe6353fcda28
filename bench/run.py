#!/usr/bin/env python3
"""Benchmark of the hyperkey CLI: one seeded workload per run.

    python3 bench/run.py --workload mch-scale --seed 1 --seconds 35 --trace 0

Run from the repository root (or any checkout of it); the library is loaded
from ./src, nothing is installed.  Each op runs `hyperkey.cli.main(argv)` in
this process with stdout captured, in a closed loop with one client: the
next op starts when the previous one has returned and its output has been
checked.  Ops come in whole rounds (see workloads.py), and the run stops at
the first round boundary after --seconds of wall time once at least
MIN_OPS ops have run.

--trace 0 prints the end-to-end metrics: ops_per_s (passed ops per second
of op time), op_p50_ms and op_p90_ms over every op,
peak_rss_mb after the first MIN_OPS-worth of rounds, and setup_s (the median
of SETUP_PROBES fresh interpreters, spread over the run, each timed from
spawn to having imported hyperkey and generated and written those rounds'
inputs).  Times are scaled to the reference machine speed (REFERENCE_S);
the unscaled figures are printed above the result line.  error_rate is
failed / attempted of the result line.

--trace 1 runs the first half of the time untraced and the second half with
every layer wrapped (layertrace.py), and prints the per-layer metrics; the
spans go to .bench_out/.  The last line of stdout is one JSON object:
correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

MIN_OPS = 100  # op_p90_ms then has at least 10 samples beyond it
SETUP_PROBES = 7

# Best-of-three time of _reference_loop on the reference machine (2 vCPU
# shared VM, Python 3.11.7) with quiet neighbours.  Neighbours on that
# machine slow a fixed computation by up to half for tens of seconds, so
# every reported time is scaled by REFERENCE_S / (the loop's time around
# it).  Fixed for good: changing it rescales every time metric.
REFERENCE_S = 0.020
CALIBRATE_EVERY_S = 1.0

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def min_rounds(workload) -> int:
    return -(-MIN_OPS // workload.round_size)


def library_present() -> bool:
    return (SRC / "hyperkey" / "__init__.py").is_file()


def setup(workload, seed: int, directory: Path):
    """Import the CLI and generate and write the first MIN_OPS-worth of
    rounds; returns the CLI module and the rest of the instance stream."""
    sys.path.insert(0, str(SRC))
    from hyperkey import cli

    stream = workload.instances(seed, directory)
    first = list(islice(stream, min_rounds(workload) * workload.round_size))
    workloads.write_inputs(first, directory)
    return cli, first, stream


def probe_setup(workload, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    directory = WORK / f"probe-{os.getpid()}"
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
        "--seed", str(seed), "--setup-probe", str(directory),
    ]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def run_op(cli, inst) -> tuple[float, list[tuple[object, str]]]:
    results = []
    t0 = perf_counter()
    for argv in inst.argvs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except Exception as exc:  # an escaped exception is a failed op
            code = f"raised {type(exc).__name__}: {exc}"
        results.append((code, out.getvalue()))
    return perf_counter() - t0, results


def _reference_loop() -> float:
    t0 = perf_counter()
    acc = 0
    table = {}
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = (acc, i)
    return perf_counter() - t0


def machine_speed() -> float:
    """REFERENCE_S over the best of three timings of a fixed pure-Python
    loop that never touches hyperkey: about 1 on the reference machine when
    its neighbours are quiet, lower while they slow it down."""
    return REFERENCE_S / min(_reference_loop() for _ in range(3))


class Loop:
    """Runs ops round by round and keeps what the metrics need.

    Every op time is scaled by the mean machine speed measured before and
    after it, at most about CALIBRATE_EVERY_S apart (see REFERENCE_S); the
    raw times are kept as well."""

    def __init__(self, cli, workload, seed, first, stream, directory):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.pending = list(first)
        self.stream = stream
        self.directory = directory
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.failures: list[str] = []
        self.passed = 0
        self.setup_samples: list[float] = []
        self.raw_setup_samples: list[float] = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.rss_mb: float | None = None

    def _next_round(self):
        size = self.workload.round_size
        if not self.pending:
            self.pending = list(islice(self.stream, size))
            workloads.write_inputs(self.pending, self.directory)
        batch, self.pending = self.pending[:size], self.pending[size:]
        return batch

    def _op(self, inst, tracer) -> tuple[float, bool]:
        if tracer is not None:
            tracer.begin_op(inst.index)
        dt, results = run_op(self.cli, inst)
        if tracer is not None:
            tracer.end_op()
        why = self.workload.check(inst, results)
        if why is not None:
            self.failures.append(f"op {inst.index} {inst.argvs[0]}: {why}")
        digest_ops = min_rounds(self.workload) * self.workload.round_size
        if self.digested < digest_ops:
            for code, out in results:
                self.digest.update(f"{code}\n{out}\n".encode())
            self.digested += 1
            if self.digested == digest_ops:
                # peak RSS over a fixed amount of work, so that a faster
                # program running more ops does not read as a memory
                # regression
                self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return dt, why is None

    def run(self, seconds: float, min_ops: int, probes: int = 0, tracer=None) -> tuple[int, float]:
        """Whole rounds until `seconds` have passed and `min_ops` ops ran,
        with `probes` set-up probes spread evenly over that time; returns
        the ops that passed and their scaled op time."""
        t0 = perf_counter()
        ops_before = len(self.raw_latencies)
        passed_before = self.passed
        speed = machine_speed()
        self._calibrated_at = perf_counter()
        while len(self.raw_latencies) - ops_before < min_ops or perf_counter() - t0 < seconds:
            for inst in self._next_round():
                dt, ok = self._op(inst, tracer)
                self.raw_latencies.append(dt)
                self.passed += ok
                if perf_counter() - self._calibrated_at >= CALIBRATE_EVERY_S:
                    speed = self._calibrate(speed)
            speed = self._calibrate(speed)
            done = min(1.0, (perf_counter() - t0) / seconds) if seconds > 0 else 1.0
            while len(self.setup_samples) < probes * done:
                self._probe(speed)
        while len(self.setup_samples) < probes:
            self._probe(machine_speed())
        return self.passed - passed_before, sum(self.latencies[ops_before:])

    def _calibrate(self, speed_before: float) -> float:
        """Measure the machine speed now and scale the ops run since the
        last measurement by the mean of the two; returns the new speed."""
        speed_after = machine_speed()
        speed = (speed_before + speed_after) / 2
        self.latencies.extend(dt * speed for dt in self.raw_latencies[len(self.latencies):])
        self._calibrated_at = perf_counter()
        return speed_after

    def _probe(self, speed: float) -> None:
        raw = probe_setup(self.workload, self.seed)
        self.raw_setup_samples.append(raw)
        self.setup_samples.append(raw * speed)


def end_to_end(loop: Loop) -> dict:
    lat_ms = [t * 1000 for t in loop.latencies]
    return {
        "ops_per_s": {"value": loop.passed / sum(loop.latencies), "unit": "ops/s"},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": loop.rss_mb, "unit": "MiB"},
        "setup_s": {"value": statistics.median(loop.setup_samples), "unit": "s"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    if not library_present():
        print(f"error: no hyperkey sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_probe:
        directory = Path(args.setup_probe)
        try:
            setup(workload, args.seed, directory)
            print("ready", flush=True)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return 0

    directory = WORK / f"{workload.name}-{os.getpid()}"
    try:
        cli, first, stream = setup(workload, args.seed, directory)
        loop = Loop(cli, workload, args.seed, first, stream, directory)
        if args.trace:
            metrics = traced_run(loop, workload, args)
        else:
            loop.run(args.seconds, MIN_OPS, SETUP_PROBES)
            metrics = end_to_end(loop)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    attempted = len(loop.latencies)
    failed = len(loop.failures)
    for line in loop.failures[:20]:
        print(f"FAILED {line}")
    raw = sum(loop.raw_latencies)
    print(f"workload {workload.name} seed {args.seed}: {attempted} ops in {raw:.3f} s of op "
          f"time ({sum(loop.latencies):.3f} s scaled to the reference speed), error_rate "
          f"{failed / attempted:.6f} ratio, p90 over {attempted} samples, outputs sha256 "
          f"{loop.digest.hexdigest()} (first {loop.digested} ops)")
    raw_ms = sorted(t * 1000 for t in loop.raw_latencies)
    print(f"  unscaled: {attempted / raw:.6g} ops/s over all ops, p50 {statistics.median(raw_ms):.6g} ms, "
          f"p90 {statistics.quantiles(raw_ms, n=10)[8]:.6g} ms, set-up "
          f"{statistics.median(loop.raw_setup_samples or [0]):.6g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def traced_run(loop: Loop, workload, args) -> dict:
    from layertrace import PER_LAYER_UNITS, Tracer

    half = args.seconds / 2
    passed, busy = loop.run(half, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced_passed, traced_busy = loop.run(half, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    values = tracer.summary(workload.name)
    values["tracing.ops_per_s_delta"] = traced_passed / traced_busy - passed / busy
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.csv")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())
