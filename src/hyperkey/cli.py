"""Command-line front end.

Every subcommand reads a .hg file (see hgio), computes with the library, and
prints one structured document: flattened `key = value` lines by default, or
JSON with sorted keys under --json.  All numbers are exact rational text.
Exit codes: 0 success, 1 domain error (e.g. the hypergraph is not an MCH)
or a document whose "ok" is false (fuzz found a counterexample), 2 usage or
parse error.  Each handler in _HANDLERS returns its document's body; main
stamps schema_version and command on it.

`main` may be called any number of times in one process.  The argparse tree
is built on the first call and shared by every later one; it keeps no state
between calls, so each call's output and exit code are those of a fresh
process.  The tree is the only grammar, but a well-formed argv (exact option
strings, every value present and of its type) is read off tables taken from
it (_flag_tables, _quick_args) without running parse_args; anything else,
help and every usage error included, goes to argparse, which answers it.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence

from . import hgio, simkit
from .capacity import (
    RateTuple,
    communication_complexity,
    constrained_capacity,
    in_region,
    region_spec,
    unconstrained_capacity,
)
from .errors import HyperkeyError, ParseError, StateSpaceTooLarge
from .hypergraph import Hypergraph, _digit_limit, _read_rational, _representatives
from .partitions import mmi, partition_connectivity
from .properties import lemma_violations, scheme_round_trip_violations
from .scheme import rates_of, synthesize, verify
from .simkit import brute_force_secrecy, quantize, random_mch_with_stats, run

__all__ = ["main", "console_main"]

SCHEMA_VERSION = 1


class UsageError(Exception):
    """Bad flag values discovered after argparse."""


def _flatten(value, prefix: str, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], sub, out)
    elif isinstance(value, (list, tuple)):
        plain = not any(
            isinstance(x, (dict, list, tuple))
            or (isinstance(x, str) and _has_space(x))
            for x in value
        )
        if plain:
            out.append((prefix, " ".join(_scalar(x) for x in value)))
        else:
            for i, x in enumerate(value):
                _flatten(x, f"{prefix}[{i}]", out)
    else:
        out.append((prefix, _scalar(value)))


# \s matches exactly the characters for which str.isspace() is true
_has_space = re.compile(r"\s").search


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_text(document: dict) -> str:
    pairs: list[tuple[str, str]] = []
    _flatten(document, "", pairs)
    return "\n".join(f"{key} = {val}" for key, val in pairs) + "\n"


def render_json(document: dict) -> str:
    """The text of json.dumps(..., sort_keys=True, indent=2) in one pass:
    rationals and unknown objects as strings, sets as sorted lists, keys
    as their str() and strings escaped to ASCII."""
    out: list[str] = []
    _write_json(document, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append value's JSON text; newline is a line break plus the indent of
    the line value starts on."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, set, frozenset)):
        if not value:
            out.append("[]")
            return
        if isinstance(value, (set, frozenset)):
            value = sorted(value)
        inner = newline + "  "
        lead = "[" + inner
        for x in value:
            out.append(lead)
            _write_json(x, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        named = {str(k): v for k, v in value.items()}
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(named):
            out.append(lead + _quote(key) + ": ")
            _write_json(named[key], inner, out)
            lead = "," + inner
        out.append(newline + "}")
    else:  # Fraction and anything else render as their text
        out.append(_quote(str(value)))


def _load(path: str) -> Hypergraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    try:
        return hgio.parse(text)
    except ParseError:
        raise
    except HyperkeyError as exc:
        # weight-domain failures inside a file are parse failures to the CLI
        raise ParseError(str(exc)) from None


def _rational_flag(text: str, flag: str) -> Fraction:
    try:
        return _read_rational(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} expects a rational like 3 or 3/2, got {text!r}")


def _split(text: str, separator: str) -> list[str]:
    """text cut at each separator no backslash escapes; the escapes stay,
    for _unescape to read."""
    pieces, start, i = [], 0, 0
    while i < len(text):
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == separator:
            pieces.append(text[start:i])
            start = i + 1
        i += 1
    pieces.append(text[start:])
    return pieces


# the escapes of Hypergraph.merge's labels: a backslash before ",", "=" or
# "\\" stands for that character, and is kept before any other
_unescape = functools.partial(re.compile(r"\\([,=\\])").sub, r"\1")


def _names(text: str) -> tuple[str, ...]:
    """The nonempty vertex ids of a comma list, escapes read."""
    return tuple(_unescape(v) for v in _split(text, ",") if v)


def _parse_orders(pairs: Sequence[str]) -> dict:
    orders = {}
    for text in pairs:
        left, *right = _split(text, "=")
        if not right:
            raise UsageError(f"--order expects BLOCK=perm, got {text!r}")
        block = _names(left)
        perm = _names("=".join(right))
        if not block or not perm:
            raise UsageError(f"--order expects BLOCK=perm, got {text!r}")
        key = frozenset(block)
        if key in orders:
            raise UsageError(f"--order names block {' '.join(sorted(key))} twice")
        orders[key] = perm
    return orders


def _parse_rates(text: str) -> dict[str, Fraction]:
    rates: dict[str, Fraction] = {}
    if not text:
        return rates
    for item in _split(text, ","):
        if ":" not in item:
            raise UsageError(f"--rates expects v:r pairs, got {item!r}")
        vertex, value = item.rsplit(":", 1)  # a rate never contains ":"
        vertex = _unescape(vertex)
        if vertex in rates:
            raise UsageError(f"--rates names vertex {vertex!r} twice")
        rates[vertex] = _rational_flag(value, "--rates")
    return rates


def _edge_documents(h: Hypergraph) -> list[dict]:
    return [
        {"id": e.id, "members": sorted(e.members), "weight": e.weight}
        for e in h.edges
    ]


def _cmd_analyze(args) -> dict:
    h = _load(args.file)
    doc = {
        "vertex_count": len(h.vertices),
        "edge_count": len(h.edges),
        "vertices": sorted(h.vertices),
        "edges": _edge_documents(h),
        "component_count": h.component_count(),
        "is_mch": h.is_mch() if len(h.vertices) >= 2 else False,
        "is_connected_and_cycle_free": h.is_connected_and_cycle_free(),
    }
    doc["is_hypertree"] = h.is_hypertree() if len(h.vertices) >= 2 else False
    cycle = h.find_berge_cycle()
    if cycle is None:
        doc["berge_cycle"] = "none"
    else:
        walk = []
        for v, e in zip(cycle.vertices, cycle.edges):
            walk.extend([v, e])
        walk.append(cycle.vertices[-1])
        doc["berge_cycle"] = " ".join(walk)
    if len(h.vertices) >= 2:
        unit = partition_connectivity(h)
        weighted = mmi(h)
        doc["partition_connectivity"] = unit.value
        doc["fundamental_partition"] = [
            " ".join(block) for block in unit.fundamental.to_sorted_lists()
        ]
        doc["mmi"] = weighted.value
        doc["mmi_fundamental"] = [
            " ".join(block) for block in weighted.fundamental.to_sorted_lists()
        ]
    return doc


def _cmd_capacity(args) -> dict:
    h = _load(args.file)
    doc = {
        "unconstrained_capacity": unconstrained_capacity(h),
        "communication_complexity": communication_complexity(h),
    }
    if args.total_rate is not None:
        budget = _rational_flag(args.total_rate, "--total-rate")
        doc["total_rate"] = budget
        doc["constrained_capacity"] = constrained_capacity(h, budget)
    return doc


def _cmd_region(args) -> dict:
    h = _load(args.file)
    spec = region_spec(h)
    return {
        "key_cap": spec.key_cap,
        "generator_blocks": [" ".join(sorted(b)) for b in spec.generator_blocks],
        "constraints": [
            {"subset": sorted(b), "coefficient": coeff}
            for b, coeff in spec.constraints
        ],
    }


def _cmd_check(args) -> dict:
    h = _load(args.file)
    key_rate = _rational_flag(args.key_rate, "--key-rate")
    given = _parse_rates(args.rates)
    per_user = {v: given.get(v, Fraction(0)) for v in h.vertices}
    extra = set(given) - h.vertices
    if extra:
        raise UsageError(f"--rates names unknown vertices: {sorted(extra)}")
    rt = RateTuple(key_rate=key_rate, per_user=per_user)
    outcome = in_region(h, rt)
    doc = {
        "key_rate": key_rate,
        "rates": {v: per_user[v] for v in sorted(per_user)},
        "in_region": outcome.ok,
    }
    if not outcome.ok:
        if outcome.key_cap_violated:
            doc["violated"] = "key_cap"
        else:
            subset, coeff = outcome.violated
            doc["violated"] = {
                "subset": sorted(subset),
                "coefficient": coeff,
                "required": coeff * key_rate,
                "actual": rt.over(subset),
            }
    return doc


def _scheme_document(h: Hypergraph, scheme, used, key_rate: Fraction) -> dict:
    rates = rates_of(scheme, key_rate)
    report = verify(scheme)
    labels = {block: " ".join(sorted(block)) for block in used}
    # a row's block and step are where its speaker sits in the used orders
    seat = {
        v: (labels[block], k)
        for block, order in used.items()
        for k, v in enumerate(order, 1)
    }
    names = h._index().names
    rows = [
        {"pair": f"{a}^{b}", "user": v, "block": seat[v][0], "step": seat[v][1]}
        for (a, b), v in zip(scheme.row_pairs(), scheme.speakers)
    ]
    return {
        "edge_order": list(scheme.edge_order),
        "key_edge": scheme.key_edge,
        "key_rate": key_rate,
        "row_count": len(scheme.rows),
        "rows": rows,
        "recovery": {v: e for v, e in scheme.recovery},
        "rates": {v: rates.per_user[v] for v in sorted(rates.per_user)},
        "total_rate": rates.total(),
        "verified": report.ok,
        "blocks": [
            {
                "block": labels[block],
                "order": list(order),
                # positions ascend, so the names come sorted
                "representatives": [names[p] for p, _ in _representatives(h, block)],
            }
            for block, order in used.items()
        ],
    }


def _synthesized(args) -> tuple:
    """(h, key rate, scheme, used orders) for scheme and simulate: the file,
    --key-rate (the capacity when absent) and the scheme of the --order
    orders."""
    h = _load(args.file)
    key_rate = (
        _rational_flag(args.key_rate, "--key-rate")
        if args.key_rate is not None
        else unconstrained_capacity(h)
    )
    orders = _parse_orders(args.order or [])
    scheme, used = synthesize(h, orders or None)
    return h, key_rate, scheme, used


def _cmd_scheme(args) -> dict:
    h, key_rate, scheme, used = _synthesized(args)
    simkit._require_rate_within_capacity(h, key_rate)
    doc = _scheme_document(h, scheme, used, key_rate)
    if args.emit_matrix:
        doc["matrix"] = [
            f"{a}^{b} @user={speaker}"
            for (a, b), speaker in zip(scheme.row_pairs(), scheme.speakers)
        ]
    return doc


@functools.cache
def _ten_to(limit: int) -> int:
    """10**limit, computed once per int-to-str limit."""
    return 10**limit


def _require_printable(shape, exhaustive: bool) -> None:
    """Refuse before any draw a simulation whose scale, or (seeded) whose
    words of L bits, could pass the int-to-str limit: a word reaches
    2**L - 1, so L must satisfy 2**L <= 10**limit.  A source over run's cap
    in source bits is left to run, which names that cap."""
    limit = _digit_limit()
    cap = simkit.MAX_STATE_BITS if exhaustive else simkit.MAX_SAMPLE_BITS
    if not limit or shape.total_bits() > cap:
        return
    if shape.scale >= _ten_to(limit):
        raise StateSpaceTooLarge(f"the quantization scale has over {limit} digits")
    longest = max(n for _, n in shape.edge_lengths)
    if not exhaustive and longest >= _ten_to(limit).bit_length():
        raise StateSpaceTooLarge(
            f"{longest}-bit edge words may have over {limit} digits"
        )


def _cmd_simulate(args) -> dict:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.exhaustive and args.trials != 1:
        raise UsageError("--exhaustive runs one trial; --trials must be 1")
    h, key_rate, scheme, _ = _synthesized(args)
    shape = quantize(h, key_rate)
    _require_printable(shape, args.exhaustive)
    doc = {
        "key_rate": key_rate,
        "scale": shape.scale,
        "key_length": shape.key_length,
        "edge_lengths": {eid: n for eid, n in shape.edge_lengths},
        "exhaustive": bool(args.exhaustive),
    }
    if args.exhaustive:
        outcome = run(h, scheme, key_rate, seed=args.seed, exhaustive=True)
        checked, all_zero = outcome.realizations_checked, outcome.zero_error
        secrecy = brute_force_secrecy(h, scheme, key_rate)
        doc["perfect_secrecy"] = secrecy.perfect
        doc["key_entropy_bits"] = secrecy.key_entropy_bits
        if secrecy.conditional_entropy_bits is not None:
            doc["conditional_entropy_bits"] = secrecy.conditional_entropy_bits
    else:
        all_zero = True
        first: Optional[dict] = None
        checked = 0
        for t in range(args.trials):
            outcome = run(h, scheme, key_rate, seed=args.seed + t)
            checked += outcome.realizations_checked
            all_zero = all_zero and outcome.zero_error
            if first is None:
                first = {
                    "seed": outcome.seed,
                    "realized": {eid: val for eid, val in outcome.realized},
                    "messages": list(outcome.messages),
                    "recovered": {v: k for v, k in outcome.recovered},
                    "key": outcome.key,
                }
        doc["first_trial"] = first
    doc["trials"] = args.trials  # --exhaustive requires 1
    doc["realizations_checked"] = checked
    doc["zero_error"] = all_zero
    doc["secrecy_rank_ok"] = verify(scheme).secrecy_ok
    return doc


def _cmd_fuzz(args) -> dict:
    if not 2 <= args.vertices <= 8:
        raise UsageError("--vertices must be between 2 and 8")
    if not 1 <= args.edges <= 6:
        raise UsageError("--edges must be between 1 and 6")
    if args.max_weight < 1:
        raise UsageError("--max-weight must be at least 1")
    if args.cases < 1:
        raise UsageError("--cases must be at least 1")
    instances = []
    counterexample = None
    for k in range(args.cases):
        h, stats = random_mch_with_stats(
            args.vertices, args.edges, args.max_weight, args.seed + k
        )
        violations = lemma_violations(h)
        if not violations:
            cap = unconstrained_capacity(h)
            for rate in (cap, cap / 2):
                violations = scheme_round_trip_violations(h, rate)
                if violations:
                    break
        instances.append(
            {
                "seed": args.seed + k,
                "attempts": stats.attempts,
                "edge_count": len(h.edges),
                "vertex_count": len(h.vertices),
                "ok": not violations,
            }
        )
        if violations and counterexample is None:
            counterexample = {
                "seed": args.seed + k,
                "violations": violations,
                "hypergraph": hgio.serialize(h),
            }
            break
    doc = {
        "cases_requested": args.cases,
        "cases_run": len(instances),
        "instances": instances,
        "ok": counterexample is None,
    }
    if counterexample is not None:
        doc["counterexample"] = counterexample
    return doc


_HANDLERS = {
    "analyze": _cmd_analyze,
    "capacity": _cmd_capacity,
    "region": _cmd_region,
    "check": _cmd_check,
    "scheme": _cmd_scheme,
    "simulate": _cmd_simulate,
    "fuzz": _cmd_fuzz,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  parse_args keeps
    nothing on it, and help and errors go to the sys.stdout and sys.stderr
    current at each call."""
    parser = argparse.ArgumentParser(
        prog="hyperkey",
        description="Secret-key capacities and XOR discussion schemes for "
        "hypergraphical sources",
    )
    parser.add_argument("--json", action="store_true", help="render JSON output")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="structure, connectivity, partitions")
    p.add_argument("file")

    p = sub.add_parser("capacity", help="capacity formulas")
    p.add_argument("file")
    p.add_argument("--total-rate", default=None, help="discussion budget R")

    p = sub.add_parser("region", help="achievable rate region constraints")
    p.add_argument("file")

    p = sub.add_parser("check", help="test a rate tuple against the region")
    p.add_argument("file")
    p.add_argument("--key-rate", required=True)
    p.add_argument("--rates", default="", help="comma list v:r, others 0")

    p = sub.add_parser("scheme", help="synthesize the XOR discussion scheme")
    p.add_argument("file")
    p.add_argument("--key-rate", default=None)
    p.add_argument("--order", action="append", help="BLOCK=perm, repeatable")
    p.add_argument("--emit-matrix", action="store_true")

    p = sub.add_parser("simulate", help="run the protocol on sampled bits")
    p.add_argument("file")
    p.add_argument("--key-rate", default=None)
    p.add_argument("--order", action="append", help="BLOCK=perm, repeatable")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--trials", type=int, default=1)

    p = sub.add_parser("fuzz", help="random MCHs through the property suite")
    p.add_argument("--vertices", type=int, default=6)
    p.add_argument("--edges", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--max-weight", type=int, default=3)
    return parser


@functools.cache
def _flag_tables(parser: argparse.ArgumentParser) -> dict:
    """parser's grammar as tables, by subcommand name and None for the top
    level: (positional dests, exact option string -> action, the defaults
    parse_args starts from).  The top level's one positional names the
    subcommand.  Actions with no default (help) are left out.  Keyed on
    the parser, so the tables always come from the tree _build_parser holds."""

    def table(p: argparse.ArgumentParser) -> tuple:
        actions = [a for a in p._actions if a.default is not argparse.SUPPRESS]
        return (
            [a.dest for a in actions if not a.option_strings],
            {s: a for a in actions for s in a.option_strings},
            {a.dest: a.default for a in actions},
        )

    (subparsers,) = parser._subparsers._group_actions
    tables = {name: table(p) for name, p in subparsers.choices.items()}
    tables[None] = table(parser)
    return tables


def _quick_args(argv: Sequence) -> Optional[argparse.Namespace]:
    """The Namespace _build_parser().parse_args(argv) returns, read off
    _flag_tables; None for any argv outside the plain form (exact option
    strings, each value a str not starting with "-" that its type accepts,
    every positional and required option present, nothing extra), which
    is left to argparse with its help, errors and exit codes."""
    tables = _flag_tables(_build_parser())
    positionals, options, defaults = tables[None]
    namespace = argparse.Namespace(**defaults)
    missing = {a for a in options.values() if a.required}
    top = True
    tokens = iter(argv)
    for token in tokens:
        if not isinstance(token, str):
            return None
        if not token.startswith("-"):
            if not positionals:
                return None
            setattr(namespace, positionals[0], token)
            positionals = positionals[1:]
            if top:  # token names the subcommand, which reads the rest
                if missing or token not in tables:
                    return None
                positionals, options, defaults = tables[token]
                vars(namespace).update(defaults)
                missing = {a for a in options.values() if a.required}
                top = False
            continue
        action = options.get(token)
        if action is None:
            return None
        values = []
        if action.nargs != 0:
            values = next(tokens, None)
            if not isinstance(values, str) or values.startswith("-"):
                return None
            if action.type is not None:
                try:
                    values = action.type(values)
                except (TypeError, ValueError, argparse.ArgumentTypeError):
                    return None
        action(None, namespace, values, token)
        missing.discard(action)
    return None if top or positionals or missing else namespace


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _quick_args(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        doc = _HANDLERS[args.subcommand](args)
    except (UsageError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except HyperkeyError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    doc.update({"schema_version": SCHEMA_VERSION, "command": args.subcommand})
    # the whole text is rendered before a byte is written; the one error
    # rendering raises is a number str() refuses to print
    try:
        text = render_json(doc) if args.json else render_text(doc)
    except ValueError:
        sys.stderr.write(
            f"error: the answer holds a number of more than {_digit_limit()} digits, "
            "past Python's int-to-str limit\n"
        )
        return 1
    sys.stdout.write(text)
    return 0 if doc.get("ok", True) else 1  # fuzz's verdict


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
