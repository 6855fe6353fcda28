"""Hand-timing of the CLI on large minimally connected hypergraphs.

Not a test (pytest does not collect it) and not a benchmark: it prints the
wall time, the peak RSS and the count of generation-2 collections of
`analyze`, `region` and `scheme` (each with --json, parse and rendering
included) on a path and on a chain of triangle cores at 10^3, 10^4 and
10^5 vertices, of `hgio.parse` alone on the same texts (the reader's share
of each of those calls), of `analyze` and `scheme` on one
cyclic core of 10^3 vertices with a pendant each (`region` refuses blocks
of more than 12), of `check` in and out of the region on such a core of
CHECK_CORE = 12 vertices, the largest block the count table serves, of a
seeded `simulate` on a path of each size, and of `analyze` on a 12-vertex
cycle, which is no MCH, so both connectivity
functionals take the partition sweep: with unit weights one sweep serves
both, with weights 1-3 each takes its own.  On a cycle few partitions
come near the minimum, so the sweep's bound skips most subtrees and these
rows no longer meet Bell(12) leaves.  The "ties" row runs
`analyze` where every proper partition is a minimizer: 11 and 12 vertices
with no edges, and two parallel edges over 10 vertices (TIES), so the
bound skips nothing, the sweep meets all Bell(|V|) - 1 tied leaves and
must hold nothing per minimizer.  A last row counts, on
a path of each size, the objects the cyclic garbage collector tracks per
vertex: those the parsed hypergraph holds, and those `synthesize` adds
and keeps (its result and what it caches on the hypergraph), each the
growth of len(gc.get_objects()) after a full collection.  Another times,
on a path of each size, `representatives` on every fundamental block and
`RankFunction` plus `rank` of the whole block on every block, in
microseconds per block: the fundamental-block guard both pass is one set
lookup, so the figure should not grow with the path.  The last row times
the packed table gates at the largest tables the property suites scan:
the coverage entropy of a 12-vertex path (a 2^12 table,
`properties._coverage_table`, checked by `_table_shape_violations`) and
the rank table of the 12-vertex block of a cyclic core with a pendant per
edge (a 2^12 table at the cap of `hypergraph.block_removal_counts`,
checked by `verify_contra_polymatroid`), each in milliseconds: the table
build once, then the check, first call and best of three more, with the
peak RSS.  The "fuzz sampler" row times
`simkit.random_mch_with_stats` at weight 1 on the shapes of
SAMPLER_SHAPES, each a pass over the fixed seeds 0..SAMPLER_SEEDS-1, in
milliseconds per case: the first pass and the best of three more, in a
fresh interpreter per shape.  Each
call runs in a fresh interpreter and reads its peak RSS from VmHWM in
/proc/self/status (Linux only), so the figure is its own; the time is
taken around the `main` (or `hgio.parse`) call inside it, without the
interpreter start and the imports.  Run from the repository root:

    PYTHONPATH=src python tests/scale_walls.py

Edit EXPONENTS for a shorter run.
"""

from __future__ import annotations

import random
import subprocess
import sys
import tempfile
from pathlib import Path

EXPONENTS = (3, 4, 5)  # |V| = 10^3, 10^4, 10^5
RING = 10**3  # core vertices of the ring row (|V| is twice that)
CYCLE = 12  # vertices of the non-MCH cycle rows
CYCLE_WEIGHTS = {"unit": lambda i: 1, "weights 1-3": lambda i: i % 3 + 1}
TIES = (("no edges", 11), ("no edges", 12), ("two parallel edges", 10))
GATE_PATH = 12  # vertices of the path whose coverage table the gates check
GATE_CORE = 12  # core vertices of the ring whose rank table the gates check
CHECK_CORE = 12  # core vertices of the ring the check row tests rates on
SAMPLER_SHAPES = ((7, 5), (6, 5), (8, 6))  # (vertices, edges) the sampler row draws
SAMPLER_SEEDS = 8  # one pass of the sampler row draws seeds 0..SAMPLER_SEEDS-1


def path_text(n: int, rng: random.Random) -> str:
    """A path on n vertices with weights 1-3."""
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(n))]
    for i in range(n - 1):
        lines.append(f"edge e{i}: v{i} v{i + 1} weight {rng.randint(1, 3)}")
    return "\n".join(lines) + "\n"


def core_chain_text(units: int, rng: random.Random) -> str:
    """`units` H1-like cores in a row, 6 vertices and 4 edges each.

    Unit j has core vertices c{j}_0..c{j}_2 and three 3-vertex edges
    {c_i, c_i+1, p_i} around the triangle, each with its own pendant p_i (the
    benchmark's core family at k = 3); a 2-vertex edge joins p{j}_2 to the
    next unit's c{j+1}_0.
    """
    names = []
    edges = []
    for j in range(units):
        core = [f"c{j}_{i}" for i in range(3)]
        pend = [f"p{j}_{i}" for i in range(3)]
        names += core + pend
        for i in range(3):
            edges.append((f"t{j}_{i}", (core[i], core[(i + 1) % 3], pend[i])))
        if j + 1 < units:
            edges.append((f"l{j}", (pend[2], f"c{j + 1}_0")))
    lines = ["vertices: " + " ".join(names)]
    for eid, members in edges:
        lines.append(f"edge {eid}: {' '.join(members)} weight {rng.randint(1, 3)}")
    return "\n".join(lines) + "\n"


def ring_text(k: int, rng: random.Random) -> str:
    """One cyclic core c0..c{k-1}: k edges {c_i, c_i+1, p_i} around the
    cycle, each with its own pendant p_i, so the core is one fundamental
    block of k vertices."""
    names = [f"c{i}" for i in range(k)] + [f"p{i}" for i in range(k)]
    lines = ["vertices: " + " ".join(names)]
    for i in range(k):
        lines.append(
            f"edge e{i}: c{i} c{(i + 1) % k} p{i} weight {rng.randint(1, 3)}"
        )
    return "\n".join(lines) + "\n"


def ring_rates(k: int, core: str) -> str:
    """--rates for ring_text(k): core on each core vertex, 1 on each pendant.
    Each core subset B has coefficient |B| - 1 at key rate 1, so core "1"
    is in the region and "9/10" is not (first at an 11-vertex subset)."""
    return ",".join([f"c{i}:{core}" for i in range(k)] + [f"p{i}:1" for i in range(k)])


def cycle_text(n: int, weight) -> str:
    """The cycle v0 e0 v1 ... v{n-1} e{n-1} v0, edge e_i of weight weight(i)."""
    lines = ["vertices: " + " ".join(f"v{i}" for i in range(n))]
    for i in range(n):
        lines.append(f"edge e{i}: v{i} v{(i + 1) % n} weight {weight(i)}")
    return "\n".join(lines) + "\n"


def ties_text(name: str, n: int) -> str:
    """n vertices with "no edges", or "two parallel edges" a and b of weight
    1 over all of them: either way every proper partition is a minimizer."""
    names = " ".join(f"v{i}" for i in range(n))
    if name == "no edges":
        return f"vertices: {names}\n"
    return f"vertices: {names}\nedge a: {names} weight 1\nedge b: {names} weight 1\n"


# The child reports VmHWM, its own peak RSS: on Linux ru_maxrss carries the
# parent's high-water mark across fork and exec, so a child of a parent that
# holds the 10^5 texts would report the parent's peak instead of its own.
# It also reports how many generation-2 (full) collections the cyclic
# garbage collector ran during the call, from gc.get_stats().
# With "parse FILE" as its arguments it times hgio.parse alone on the text,
# read before the clock starts.
CALL = """\
import contextlib, gc, io, sys
from time import perf_counter
from hyperkey import hgio
from hyperkey.cli import main
argv = sys.argv[1:]
if argv[0] == "parse":
    with open(argv[1], encoding="utf-8") as file:
        text = file.read()
with contextlib.redirect_stdout(io.StringIO()):
    full = gc.get_stats()[2]["collections"]
    start = perf_counter()
    if argv[0] == "parse":
        hgio.parse(text)
        code = 0
    else:
        code = main(argv)
    elapsed = perf_counter() - start
    full = gc.get_stats()[2]["collections"] - full
with open("/proc/self/status") as status:
    peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, elapsed, peak_kib, full)
"""


# With a file as its argument: the gc-tracked objects per vertex that
# hgio.parse leaves, then those synthesize adds on top and keeps alive.
OBJECTS = """\
import gc, sys
from hyperkey import hgio, synthesize
with open(sys.argv[1], encoding="utf-8") as file:
    text = file.read()
gc.collect()
base = len(gc.get_objects())
h = hgio.parse(text)
gc.collect()
parsed = len(gc.get_objects())
result = synthesize(h)
gc.collect()
kept = len(gc.get_objects())
n = len(h.vertices)
print(f"{(parsed - base) / n:.2f} {(kept - parsed) / n:.2f}")
"""


# With a file as its argument: microseconds per fundamental block of
# representatives, then of RankFunction plus rank, over every block, after
# one partition_connectivity call outside the clock.
PER_BLOCK = """\
import sys
from time import perf_counter
from hyperkey import RankFunction, hgio, partition_connectivity, rank, representatives
with open(sys.argv[1], encoding="utf-8") as file:
    h = hgio.parse(file.read())
blocks = partition_connectivity(h).fundamental.blocks
start = perf_counter()
for block in blocks:
    representatives(h, block)
middle = perf_counter()
for block in blocks:
    rank(RankFunction(h, block, 1), block)
end = perf_counter()
scale = 1e6 / len(blocks)
print(f"{(middle - start) * scale:.1f} {(end - middle) * scale:.1f}")
"""


# With "entropy FILE" or "contra FILE": whether a violation was found, the
# seconds of properties._entropy_shape_violations on the parsed
# hypergraph, or of verify_contra_polymatroid on its largest fundamental
# block at key rate 1, first call and best of three more, and the peak
# RSS, VmHWM as in CALL.
GATES = """\
import sys
from time import perf_counter
from hyperkey import RankFunction, hgio, partition_connectivity
from hyperkey.hypergraph import block_removal_counts
from hyperkey.polymatroid import verify_contra_polymatroid
from hyperkey.properties import _coverage_table, _table_shape_violations
kind, path = sys.argv[1:]
with open(path, encoding="utf-8") as file:
    h = hgio.parse(file.read())
if kind == "entropy":
    start = perf_counter()
    table = _coverage_table(h)
else:
    # the table is kept on the block's view, so the checks below read it
    fn = RankFunction(h, max(partition_connectivity(h).fundamental.blocks, key=len), 1)
    start = perf_counter()
    block_removal_counts(h, fn.block)
build = perf_counter() - start
times = []
for _ in range(4):
    start = perf_counter()
    if kind == "entropy":
        bad = bool(_table_shape_violations(*table))
    else:
        bad = not verify_contra_polymatroid(fn).ok
    times.append(perf_counter() - start)
with open("/proc/self/status") as status:
    peak_kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(bad, build, times[0], min(times[1:]), peak_kib)
"""


# With "VERTICES EDGES SEEDS": the seconds per case of random_mch_with_stats
# over seeds 0..SEEDS-1 at weight 1, first pass and best of three more.
SAMPLER = """\
import sys
from time import perf_counter
from hyperkey.simkit import random_mch_with_stats
n, m, seeds = map(int, sys.argv[1:])
times = []
for _ in range(4):
    start = perf_counter()
    for seed in range(seeds):
        random_mch_with_stats(n, m, 1, seed)
    times.append((perf_counter() - start) / seeds)
print(times[0], min(times[1:]))
"""


def sampler_cell(n: int, m: int) -> str:
    """random_mch_with_stats at (n, m) in a fresh interpreter, as "first
    ms/best later ms" per case."""
    done = subprocess.run(
        [sys.executable, "-c", SAMPLER, str(n), str(m), str(SAMPLER_SEEDS)],
        capture_output=True,
        text=True,
        check=True,
    )
    first, later = done.stdout.split()
    return f"{float(first) * 1e3:.2f}/{float(later) * 1e3:.2f}"


def gate_cell(kind: str, file: Path) -> str:
    """Packed-gate checks ("entropy" or "contra") of the source in file, in
    a fresh interpreter, as "table build ms/first check ms/best later check
    ms/peak RSS in MiB"."""
    done = subprocess.run(
        [sys.executable, "-c", GATES, kind, str(file)],
        capture_output=True,
        text=True,
        check=True,
    )
    bad, build, first, later, peak_kib = done.stdout.split()
    if bad != "False":
        raise SystemExit(f"{kind} found a violation in {file}")
    ms = "/".join(f"{float(t) * 1e3:.2f}" for t in (build, first, later))
    return f"{ms}/{int(peak_kib) / 1024:.0f}"


def per_block_micros(file: Path) -> tuple[str, str]:
    """Microseconds per fundamental block of representatives, and of
    RankFunction plus rank, counted in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", PER_BLOCK, str(file)],
        capture_output=True,
        text=True,
        check=True,
    )
    reps, ranks = done.stdout.split()
    return reps, ranks


def objects_per_vertex(file: Path) -> tuple[str, str]:
    """gc-tracked objects per vertex held after hgio.parse, and added by
    synthesize, counted in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", OBJECTS, str(file)],
        capture_output=True,
        text=True,
        check=True,
    )
    parsed, synthesized = done.stdout.split()
    return parsed, synthesized


def timed(argv: list[str]) -> str:
    """One CLI call, or hgio.parse alone for ["parse", file], in a fresh
    interpreter, as "seconds/peak RSS in MiB/generation-2 collections"."""
    done = subprocess.run(
        [sys.executable, "-c", CALL, *argv], capture_output=True, text=True, check=True
    )
    code, elapsed, peak_kib, full = done.stdout.split()
    if code != "0":
        raise SystemExit(f"{argv} exited {code}")
    return f"{float(elapsed):.3f}/{int(peak_kib) / 1024:.0f}/{full}"


def main_script() -> None:
    rng = random.Random(1)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        print("each cell: seconds/peak RSS in MiB/generation-2 collections")
        print(f"{'family':<6} {'|V|':>7}  {'analyze':>14} {'region':>14} {'scheme':>14}")
        for exponent in EXPONENTS:
            n = 10**exponent
            for family, text in (
                ("path", path_text(n, rng)),
                ("cores", core_chain_text(n // 6, rng)),
            ):
                file = work / f"{family}{n}.hg"
                file.write_text(text)
                cells = " ".join(
                    f"{timed(['--json', cmd, str(file)]):>14}"
                    for cmd in ("analyze", "region", "scheme")
                )
                print(f"{family:<6} {n:>7}  {cells}", flush=True)
        print(f"{'hgio.parse alone':<24} {'|V|':>7}  {'path':>14} {'cores':>14}")
        for exponent in EXPONENTS:
            n = 10**exponent
            cells = " ".join(
                f"{timed(['parse', str(work / f'{family}{n}.hg')]):>14}"
                for family in ("path", "cores")
            )
            print(f"{'':<24} {n:>7}  {cells}", flush=True)
        file = work / "ring.hg"
        file.write_text(ring_text(RING, rng))
        cells = [timed(["--json", cmd, str(file)]) for cmd in ("analyze", "scheme")]
        print(f"{'ring':<6} {2 * RING:>7}  {cells[0]:>14} {'-':>14} {cells[1]:>14}")
        file = work / "check-ring.hg"
        file.write_text(ring_text(CHECK_CORE, rng))
        print(f"{'check, ring core':<24} {'|V|':>7}  {'in':>14} {'out':>14}")
        cells = [
            timed(["--json", "check", str(file), "--key-rate", "1",
                   "--rates", ring_rates(CHECK_CORE, core)])
            for core in ("1", "9/10")
        ]
        print(f"{'':<24} {2 * CHECK_CORE:>7}  {cells[0]:>14} {cells[1]:>14}", flush=True)
        print(f"{'simulate (seeded), path':<24} {'|V|':>7}  {'s/MiB/gen2':>14}")
        for exponent in EXPONENTS:
            n = 10**exponent
            file = work / f"sim{n}.hg"
            file.write_text(path_text(n, rng))
            cell = timed(["--json", "simulate", str(file), "--seed", "1"])
            print(f"{'':<24} {n:>7}  {cell:>14}", flush=True)
        print(f"{'analyze, cycle (no MCH)':<24} {'|V|':>7}  {'s/MiB/gen2':>14}")
        for label, weight in CYCLE_WEIGHTS.items():
            file = work / "cycle.hg"
            file.write_text(cycle_text(CYCLE, weight))
            cell = timed(["--json", "analyze", str(file)])
            print(f"{label:<24} {CYCLE:>7}  {cell:>14}", flush=True)
        print(f"{'analyze, ties (no MCH)':<24} {'|V|':>7}  {'s/MiB/gen2':>14}")
        for label, n in TIES:
            file = work / "ties.hg"
            file.write_text(ties_text(label, n))
            cell = timed(["--json", "analyze", str(file)])
            print(f"{label:<24} {n:>7}  {cell:>14}", flush=True)
        print(f"{'tracked objects / vertex':<24} {'|V|':>7}  {'parse':>14} {'synthesize':>14}")
        for exponent in EXPONENTS:
            n = 10**exponent
            parsed, synthesized = objects_per_vertex(work / f"path{n}.hg")
            print(f"{'path':<24} {n:>7}  {parsed:>14} {synthesized:>14}", flush=True)
        print(f"{'us / block, path':<24} {'|V|':>7}  {'representatives':>15} {'rank':>14}")
        for exponent in EXPONENTS:
            n = 10**exponent
            reps, ranks = per_block_micros(work / f"path{n}.hg")
            print(f"{'':<24} {n:>7}  {reps:>15} {ranks:>14}", flush=True)
        print(f"{'packed table gates':<24} {'|V|':>7}  {'ms/ms/ms/MiB':>22}")
        file = work / "gates-path.hg"
        file.write_text(path_text(GATE_PATH, rng))
        cell = gate_cell("entropy", file)
        print(f"{'entropy shape, path':<24} {GATE_PATH:>7}  {cell:>22}", flush=True)
        file = work / "gates-ring.hg"
        file.write_text(ring_text(GATE_CORE, rng))
        cell = gate_cell("contra", file)
        print(f"{'contra-polymatroid, ring':<24} {2 * GATE_CORE:>7}  {cell:>22}", flush=True)
        print(f"{'fuzz sampler':<24} {'shape':>7}  {'ms/ms per case':>17}")
        for n, m in SAMPLER_SHAPES:
            cell = sampler_cell(n, m)
            print(f"{'':<24} {f'({n},{m})':>7}  {cell:>17}", flush=True)


if __name__ == "__main__":
    sys.exit(main_script())
