"""The public surface: the names in hyperkey.__all__, the parameters with
defaults over its functions, and the error classes it exports.

A new public name or a new knob shows up here as a test diff, so widening
the API is a decision someone makes on purpose.  An exported error class
that nothing in the library raises fails the scan below, and so does a
second copy of an input rule that has one owner (RULE_OWNERS).
"""

import ast
import inspect
import re
from pathlib import Path

import hyperkey

SOURCE = Path(hyperkey.__file__).resolve().parent
BASE_ERRORS = {"HyperkeyError", "ParseError"}  # raised only as subclasses

PUBLIC_NAMES = [
    "BergeCycle",
    "CompositeScheme",
    "ConnectivityReport",
    "ContraPolymatroidReport",
    "DecompositionResult",
    "DiscussionScheme",
    "DuplicateEdgeId",
    "Edge",
    "EmptyResult",
    "EmptyVertexSet",
    "ExtremePoint",
    "GenerationBudgetExhausted",
    "GenerationStats",
    "GroundTooLarge",
    "Hypergraph",
    "HyperkeyError",
    "InvalidPartition",
    "KeyRateExceedsCapacity",
    "NegativeRate",
    "NonpositiveWeight",
    "NotFundamentalBlock",
    "NotMCH",
    "ParseError",
    "Partition",
    "ProtocolRun",
    "QuantizedShape",
    "RankDefect",
    "RankFunction",
    "RateTuple",
    "RegionCheck",
    "RegionSpec",
    "SchemeUnverified",
    "SecrecyReport",
    "SemiLatticeViolation",
    "StateSpaceTooLarge",
    "SubsetOutsideBlock",
    "UnknownVertex",
    "VerificationReport",
    "WeightsNotConvex",
    "brute_force_secrecy",
    "communication_complexity",
    "compose_time_shared",
    "constrained_capacity",
    "crossing_count",
    "decompose",
    "entropy",
    "extreme_points",
    "in_region",
    "lemma_violations",
    "mmi",
    "parse",
    "partition_connectivity",
    "quantize",
    "random_mch_with_stats",
    "rank",
    "rates_of",
    "region_spec",
    "representatives",
    "run",
    "scheme_round_trip_violations",
    "serialize",
    "synthesize",
    "unconstrained_capacity",
    "verify",
]

# function name -> its parameters that have a default value
KNOBS = {
    "lemma_violations": ["rng"],
    "random_mch_with_stats": ["max_weight", "seed"],
    "run": ["seed", "exhaustive"],
    "scheme_round_trip_violations": ["orders"],
    "synthesize": ["orders"],
}


def _knobs():
    out = {}
    for name in hyperkey.__all__:
        obj = getattr(hyperkey, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            defaulted = [p.name for p in params if p.default is not p.empty]
            if defaulted:
                out[name] = defaulted
    return out


def _error_classes():
    return [
        name
        for name in hyperkey.__all__
        if isinstance(getattr(hyperkey, name), type)
        and issubclass(getattr(hyperkey, name), hyperkey.HyperkeyError)
    ]


def _raised_names():
    """Names of the classes some raise statement under the package raises."""
    raised = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return raised


def _cache_writers():
    """(module, enclosing qualified name) of every subscript store or delete
    into a `_cache` attribute, and of every mutating method called on one,
    under the package; reads such as `_cache.get(key)` are not listed."""
    mutators = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__"}
    found = []

    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Subscript)
                and isinstance(child.ctx, (ast.Store, ast.Del))
                and is_cache(child.value)
            ) or (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in mutators
                and is_cache(child.func.value)
            ):
                found.append((path.stem, ".".join(scope)))
            visit(child, scope)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_memo_stores_into_a_hypergraph_cache():
    """Hypergraph._memo is the one place a derived value is kept on a
    hypergraph, so every cache key goes through it."""
    assert _cache_writers() == [("hypergraph", "Hypergraph._memo")]


def _memo_key_strings():
    """Module -> the string constants in the key of its every `_memo` call,
    for each module under the package that makes one."""
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "_memo"
                and node.args
            ):
                for part in ast.walk(node.args[0]):
                    if isinstance(part, ast.Constant) and isinstance(part.value, str):
                        found.setdefault(path.stem, set()).add(part.value)
    return found


def _memo_key_table():
    """Module -> the quoted strings of its rows in the hypergraph module
    docstring's table of memo keys (from the line that introduces the
    table to the next blank line; a row starts with the module's name, and
    its continuation lines are indented further)."""
    doc = ast.get_docstring(ast.parse((SOURCE / "hypergraph.py").read_text("utf-8")))
    table = doc.split("by the module that owns\nthem:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("   "):
            module = line.split()[0]
        rows.setdefault(module, set()).update(re.findall(r'"([^"]+)"', line))
    return rows


def test_the_memo_key_table_matches_the_memo_calls():
    """Every string in a cache key is listed in the hypergraph module's
    table of keys, in its module's row, and every key listed there is
    still in use by that module."""
    table = _memo_key_table()
    assert "index" in table["hypergraph"]  # the table was read
    assert _memo_key_strings() == table


# each input rule -> the one function that checks it; a rule is found by a
# string constant it raises (docstrings aside), by the except clause of the
# rational reader, or by the isinstance test on a scheme row's entries
RULE_OWNERS = {
    "partition blocks must be nonempty": "hypergraph._partition_blocks",
    "partition blocks must be disjoint": "hypergraph._partition_blocks",
    "but the ground set is": "hypergraph._partition_blocks",
    "is not a block of the fundamental partition": (
        "capacity._require_fundamental_block"
    ),
    "is not a permutation of": "capacity._block_order",
    "key rate must be nonnegative": "capacity._key_rate",
    "except (TypeError, ValueError, ZeroDivisionError, OverflowError)": (
        "hypergraph._as_rational"
    ),
    "isinstance(j, int)": "scheme._columns",
}


def _rule_sites():
    """(module.qualified name of the innermost enclosing def, text) for every
    string constant that is not a docstring, every except clause (as
    "except " and its class tuple) and every isinstance call under the
    package."""
    found = []

    def visit(node, scope):
        body = getattr(node, "body", None)
        docstring = None
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            docstring = body[0]
        for child in ast.iter_child_nodes(node):
            if child is docstring:
                continue
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                found.append((".".join(scope), child.value))
            elif isinstance(child, ast.ExceptHandler) and child.type is not None:
                found.append((".".join(scope), "except " + ast.unparse(child.type)))
            elif isinstance(child, ast.Call):
                call = ast.unparse(child)
                if call.startswith("isinstance("):
                    found.append((".".join(scope), call))
            visit(child, inner)

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return found


def test_each_input_rule_has_one_owner():
    """Each input rule (a partition, a block order, a key rate, a rational,
    a scheme row) is checked in one function; a copy that comes back
    elsewhere fails here."""
    sites = _rule_sites()
    owners = {rule: {at for at, text in sites if rule in text} for rule in RULE_OWNERS}
    assert owners == {rule: {owner} for rule, owner in RULE_OWNERS.items()}


def test_public_names_are_pinned():
    assert sorted(hyperkey.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 64
    assert all(hasattr(hyperkey, name) for name in PUBLIC_NAMES)
    assert len(_error_classes()) == 20


def test_parameters_with_defaults_are_pinned():
    assert _knobs() == KNOBS
    assert sum(len(names) for names in KNOBS.values()) == 7


def test_every_exported_error_is_raised():
    raised = _raised_names()
    assert "NotMCH" in raised  # the scan sees the package's raise statements
    unraised = [
        name for name in _error_classes() if name not in BASE_ERRORS | raised
    ]
    assert unraised == []
