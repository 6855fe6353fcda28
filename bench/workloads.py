"""Seeded inputs, ops and output oracles for the three benchmark workloads.

The generator builds every mch-scale and exhaustive-sim instance itself, from
closed-form families, and never calls into hyperkey: a change to the library
cannot change the inputs it is measured on.  Each oracle states what the
right answer is from the family's construction, not from the library.

An op is a list of CLI argument vectors run back to back; a workload's ops
come in rounds, and one round covers every (family, size, ...) combination
of the workload once, so a run that stops on a round boundary always
measures the same mix.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from pathlib import Path
from typing import Iterator

LABEL_CHARS = "abcdefghijkmnpqrstuvwxyz23456789"


@dataclass(frozen=True)
class Instance:
    """One generated op: its CLI calls plus what the output must say."""

    index: int
    argvs: tuple[tuple[str, ...], ...]
    hg_text: str | None
    expect: dict


# -- closed-form MCH families ---------------------------------------------------


def family_shape(family: str, n: int, rng: random.Random):
    """Edges (as vertex-position tuples) and the fundamental partition of an
    n-vertex member of `family`, over vertex positions 0..n-1.

    path: 2-vertex edges along a line; every block is a singleton.
    star: 3-vertex edges {c, a_i, b_i} through centre 0, plus one 2-vertex
      edge when n is even; a hypertree, so every block is a singleton.
    core: k = min(n // 2, 5) 3-vertex edges {c_i, c_i+1, p_i} around a
      k-cycle with a pendant p_i each, plus a tail of 2-vertex edges hung
      off a random vertex; the fundamental partition is {c_0..c_k-1} plus
      singletons.
    """
    if family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
        blocks = [(i,) for i in range(n)]
    elif family == "star":
        edges = [(0, i, i + 1) for i in range(1, n - 1, 2)]
        if n % 2 == 0:
            edges.append((0, n - 1))
        blocks = [(i,) for i in range(n)]
    elif family == "core":
        k = min(n // 2, 5)
        edges = [(i, (i + 1) % k, k + i) for i in range(k)]
        prev = rng.randrange(2 * k)
        for v in range(2 * k, n):
            edges.append((prev, v))
            prev = v
        blocks = [tuple(range(k))] + [(i,) for i in range(k, n)]
    else:
        raise ValueError(f"unknown family {family!r}")
    return edges, blocks


def _labels(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """Fresh vertex labels never handed out before in this instance list, so
    no two ops share a hypergraph value and the library's caches never
    answer across ops."""
    out: list[str] = []
    while len(out) < count:
        label = "".join(rng.choice(LABEL_CHARS) for _ in range(5))
        if label not in taken:
            taken.add(label)
            out.append(label)
    return out


def _hg_text(labels, edges, weights) -> str:
    lines = ["format: 1", "vertices: " + " ".join(labels)]
    for j, (members, w) in enumerate(zip(edges, weights)):
        lines.append(f"edge e{j}: {' '.join(labels[i] for i in members)} weight {w}")
    return "\n".join(lines) + "\n"


# -- workloads ------------------------------------------------------------------


class Workload:
    name: str
    round_size: int

    def instances(self, seed: int, directory: Path) -> Iterator[Instance]:
        """The endless op stream for `seed`; input files live in `directory`."""
        raise NotImplementedError

    def check(self, inst: Instance, results) -> str | None:
        """None when the op's outputs are right, else why they are not.
        results holds (exit code, stdout) per CLI call."""
        try:
            docs = []
            for code, out in results:
                _expect(code == 0, f"exit code {code}")
                docs.append(json.loads(out))
            self.verify(inst, docs)
        except (_Wrong, KeyError, TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def verify(self, inst: Instance, docs: list[dict]) -> None:
        """Raise _Wrong (or fail a lookup) unless docs are the right answer."""
        raise NotImplementedError


class _Wrong(Exception):
    pass


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise _Wrong(what)


def _blockset(rendered) -> set[frozenset[str]]:
    return {frozenset(b.split()) for b in rendered}


class MchScale(Workload):
    """analyze + region + scheme on a new MCH; the Bell(|V|) partition sweeps
    dominate and simkit is never reached.  Sizes stop at 10 vertices, where
    one op takes about a second; 8 vertices comes five times a round so
    that the median op is sampled often enough to be steady."""

    name = "mch-scale"
    families = ("path", "star", "core")
    sizes = (6, 7, 8, 8, 8, 8, 8, 9, 10)
    round_size = len(families) * len(sizes)

    def instances(self, seed, directory):
        rng = random.Random(f"mch-scale:{seed}")
        taken: set[str] = set()
        for index in count():
            family = self.families[index % len(self.families)]
            n = self.sizes[index // len(self.families) % len(self.sizes)]
            edges, blocks = family_shape(family, n, rng)
            labels = _labels(rng, n, taken)
            # one edge holds the minimum weight, so the weighted sweep has
            # as many minimizers on every instance of a shape and the op's
            # cost does not depend on the seed
            low = rng.randint(1, 2)
            weights = [rng.randint(low + 1, 3) for _ in edges]
            weights[rng.randrange(len(edges))] = low
            name = str(directory / f"{index:05d}-{family}{n}.hg")
            yield Instance(
                index=index,
                argvs=tuple(
                    ("--json", cmd, name) for cmd in ("analyze", "region", "scheme")
                ),
                hg_text=_hg_text(labels, edges, weights),
                expect={
                    "fundamental": {
                        frozenset(labels[i] for i in b) for b in blocks
                    },
                    "min_weight": Fraction(min(weights)),
                    "edge_count": len(edges),
                },
            )

    def verify(self, inst, docs):
        analyze, region, scheme = docs
        want = inst.expect
        w = want["min_weight"]
        _expect(analyze["is_mch"] is True, "is_mch is not true")
        _expect(
            Fraction(analyze["partition_connectivity"]) == 1,
            "partition_connectivity != 1",
        )
        _expect(
            _blockset(analyze["fundamental_partition"]) == want["fundamental"],
            "wrong fundamental partition",
        )
        _expect(Fraction(analyze["mmi"]) == w, "mmi != minimum weight")
        _expect(Fraction(region["key_cap"]) == w, "key_cap != minimum weight")
        _expect(
            _blockset(region["generator_blocks"]) == want["fundamental"],
            "generator_blocks != fundamental partition",
        )
        _expect(
            Fraction(scheme["key_rate"]) == w,
            "unconstrained capacity != minimum weight",
        )
        _expect(scheme["row_count"] == want["edge_count"] - 1, "row_count != |E|-1")
        _expect(scheme["verified"] is True, "scheme not verified")
        _expect(
            Fraction(scheme["total_rate"]) == (want["edge_count"] - 1) * w,
            "total_rate != (|E|-1) * key_rate",
        )


class ExhaustiveSim(Workload):
    """simulate --exhaustive on a 4-7 vertex MCH whose quantized source has
    12, 14 or 16 bits; the 2^bits zero-error and secrecy sweeps dominate."""

    name = "exhaustive-sim"
    shapes = (
        ("path", 4), ("path", 5), ("path", 6), ("path", 7),
        ("star", 4), ("star", 5), ("star", 6), ("star", 7),
        ("core", 6), ("core", 7),
    )
    bit_targets = (12, 14, 16)
    round_size = len(shapes) * len(bit_targets)

    def instances(self, seed, directory):
        rng = random.Random(f"exhaustive-sim:{seed}")
        taken: set[str] = set()
        for index in count():
            family, n = self.shapes[index % len(self.shapes)]
            bits = self.bit_targets[index // len(self.shapes) % len(self.bit_targets)]
            edges, _ = family_shape(family, n, rng)
            labels = _labels(rng, n, taken)
            while True:
                weights = [rng.randint(1, 3) for _ in edges]
                if bits % sum(weights) == 0:
                    break
            # key rate r = min_w / d whose denominator is the scale s, so the
            # quantized source has exactly sum(w) * s = bits bits
            s = bits // sum(weights)
            w = min(weights)
            d = rng.choice([d for d in range(1, s * w + 1) if d // gcd(w, d) == s])
            rate = Fraction(w, d)
            name = str(directory / f"{index:05d}-{family}{n}.hg")
            yield Instance(
                index=index,
                argvs=(
                    ("--json", "simulate", name, "--key-rate", str(rate), "--exhaustive"),
                ),
                hg_text=_hg_text(labels, edges, weights),
                expect={"bits": bits, "key_length": rate * s},
            )

    def verify(self, inst, docs):
        (doc,) = docs
        want = inst.expect
        _expect(doc["zero_error"] is True, "zero_error is not true")
        _expect(doc["perfect_secrecy"] is True, "perfect_secrecy is not true")
        _expect(doc["secrecy_rank_ok"] is True, "secrecy_rank_ok is not true")
        _expect(
            doc["realizations_checked"] == 1 << want["bits"],
            "realizations_checked != 2^bits",
        )
        _expect(
            Fraction(doc["key_entropy_bits"]) == want["key_length"],
            "key_entropy_bits != key length",
        )
        _expect(
            Fraction(doc["conditional_entropy_bits"]) == want["key_length"],
            "conditional_entropy_bits != key length",
        )


class Fuzz(Workload):
    """One weight-1 fuzz case per op, cycling the acceptance suite's
    (vertices, edges) menu; rejection sampling, is_mch and the property
    suites dominate.

    The menu leaves out (6, 5) and (8, 6).  random_mch needs about 2300 and
    3200 proposals on average for those shapes, geometrically distributed,
    so a case exhausts its 20000-proposal budget and the op exits 1 on
    about one seed in 6000 and one in 500; the rest of the menu needs at
    most about 350 on average."""

    name = "fuzz"
    menu = (
        (2, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3),
        (6, 4), (7, 4), (7, 5), (8, 4), (8, 5),
    )
    round_size = len(menu)

    def instances(self, seed, directory):
        rng = random.Random(f"fuzz:{seed}")
        for index in count():
            n, m = self.menu[index % len(self.menu)]
            case_seed = rng.randrange(1 << 30)
            argv = (
                "--json", "fuzz", "--cases", "1", "--max-weight", "1",
                "--seed", str(case_seed), "--vertices", str(n), "--edges", str(m),
            )
            yield Instance(index=index, argvs=(argv,), hg_text=None, expect={})

    def verify(self, inst, docs):
        (doc,) = docs
        _expect(doc["ok"] is True, "fuzz reported a counterexample")
        _expect(doc["cases_run"] == 1, "cases_run != 1")


WORKLOADS = {w.name: w for w in (MchScale(), ExhaustiveSim(), Fuzz())}


def write_inputs(instances, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        if inst.hg_text is not None:
            Path(inst.argvs[0][2]).write_text(inst.hg_text, encoding="utf-8")
