"""Every public name in ``src/repro`` has a production caller.

A stdlib-``ast`` scan.  The definitions checked are the public top-level
functions and classes of every ``src/repro`` module except
:mod:`repro.oracles` (the test fixtures), and the public methods of those
classes.  A production caller is a read of the name — as a bare name, or
as an attribute for methods and module members — in ``src/repro`` outside
``oracles.py``, or in ``examples/``, ``benchmarks/`` or ``perfbench/``.
These reads do not count:

* package ``__init__`` re-exports (imports and ``__all__`` entries are not
  reads at all);
* reads inside the name's own definition (recursion, ``cls(...)``);
* reads inside a public definition that is itself unreached, so a helper
  used only by test-only code is test-only too (computed to a fixed
  point).

Method names are matched by attribute name alone, so a method is reached
when any production code reads an attribute of that name: the scan errs on
the side of keeping code.  :data:`ALLOWLIST` names the definitions kept
without a caller, each with the reason.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
ORACLES = os.path.join(SRC, "oracles.py")
PRODUCTION_ROOTS = tuple(
    os.path.join(ROOT, name) for name in ("src", "examples", "benchmarks", "perfbench")
)

#: ``module:qualname`` -> why it stays without a production caller.
ALLOWLIST: Dict[str, str] = {
    # Roadmap item 7/8 (knowledge on the orbit index, the Lemma 2
    # certificate) answers these from the orbit index.
    "knowledge.operators:no_correct_process_decides": "Lemma 1 predicate; roadmap items 7/8 give it a caller",
    "knowledge.operators:exists_value": "Lemma predicate; roadmap items 7/8 give it a caller",
    "knowledge.operators:value_persists": "Lemma predicate; roadmap items 7/8 give it a caller",
    "knowledge.operators:at_most_low_values_decided": "Lemma 3 predicate; roadmap items 7/8 give it a caller",
    "knowledge.operators:knowledge_of_precondition_holds": "Lemma predicate; roadmap items 7/8 give it a caller",
    "knowledge.operators:System.orbit_weights": "orbit-weighted knowledge queries of roadmap items 7/8",
    "knowledge.operators:System.fact_holds": "fact evaluation behind the Lemma predicates, roadmap items 7/8",
    # Roadmap item 4 lifts representative facets along stabiliser cosets.
    "symmetry.canonical:apply_to_view_key": "orbit-lifted complex construction, roadmap item 4",
    "symmetry.canonical:apply_to_adversary": "orbit-lifted complex construction, roadmap item 4",
    # Roadmap item 10 checks the paper's domination claims over whole spaces.
    "baselines.early_deciding:UniformEarlyStoppingConsensus": "uniform consensus baseline of the domination survey, roadmap item 10",
    "verification.domination:last_decider_compare": "Opt0 vs early-stopping last-decider claim of the domination survey, roadmap item 10",
    # Roadmap item 9 scans every single-state deviant for a violation.
    "verification.beatability:find_agreement_violation": "violation scan of the deviation search, roadmap item 9",
    # Roadmap item 12 puts the stage record into this structured form.
    "runtime.report:RunReport.to_dict": "machine-readable report the stage telemetry extends, roadmap item 12",
    # The store's documented single-adversary key, pinned byte for byte.
    "store.keys:adversary_key": "one-adversary form of adversary_keys; tests/test_identity_pins.py pins it from repro.store",
}


class Definition(NamedTuple):
    key: str  # ``module:qualname``
    name: str
    path: str
    start: int
    end: int


class Use(NamedTuple):
    name: str
    path: str
    line: int


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _module_name(path: str) -> str:
    relative = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
    return relative[: -len(".__init__")] if relative.endswith(".__init__") else relative


def _python_files(root: str) -> Iterator[str]:
    for directory, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if not d.startswith(".") and d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def _parse(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def definitions(path: str) -> Iterator[Definition]:
    """Public top-level functions and classes of a module, and their public methods."""
    module = _module_name(path)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in _parse(path).body:
        if not isinstance(node, defs) or not _is_public(node.name):
            continue
        yield Definition(f"{module}:{node.name}", node.name, path, node.lineno, node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and _is_public(member.name):
                    yield Definition(
                        f"{module}:{node.name}.{member.name}",
                        member.name,
                        path,
                        member.lineno,
                        member.end_lineno,
                    )


def uses(path: str) -> Iterator[Use]:
    """Every name read and attribute accessed in a file (imports are not reads)."""
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield Use(node.id, path, node.lineno)
        elif isinstance(node, ast.Attribute):
            yield Use(node.attr, path, node.lineno)


def _inside(use: Use, definition: Definition) -> bool:
    return use.path == definition.path and definition.start <= use.line <= definition.end


def unreached(
    defined: List[Definition], used: List[Use], allowlist: Dict[str, str]
) -> List[Definition]:
    """Definitions no production read reaches, to a fixed point."""
    by_name: Dict[str, List[Use]] = {}
    for use in used:
        by_name.setdefault(use.name, []).append(use)
    dead: Set[Definition] = set()
    while True:
        dead_spans = list(dead)
        newly = [
            definition
            for definition in defined
            if definition not in dead
            and definition.key not in allowlist
            and not any(
                not _inside(use, definition)
                and not any(_inside(use, span) for span in dead_spans)
                for use in by_name.get(definition.name, ())
            )
        ]
        if not newly:
            return sorted(dead, key=lambda d: d.key)
        dead.update(newly)


def scan() -> Tuple[List[Definition], List[Use]]:
    defined = [
        definition
        for path in _python_files(SRC)
        if path != ORACLES
        for definition in definitions(path)
    ]
    used = [
        use
        for root in PRODUCTION_ROOTS
        for path in _python_files(root)
        if path != ORACLES
        for use in uses(path)
    ]
    return defined, used


def test_every_public_name_has_a_production_caller():
    defined, used = scan()
    found = [
        f"{definition.key} ({os.path.relpath(definition.path, ROOT)}:{definition.start})"
        for definition in unreached(defined, used, ALLOWLIST)
    ]
    assert not found, "public names with no production caller:\n" + "\n".join(found)


def test_allowlist_entries_exist_and_are_still_needed():
    defined, used = scan()
    keys = {definition.key for definition in defined}
    assert set(ALLOWLIST) <= keys, sorted(set(ALLOWLIST) - keys)
    assert all(reason.strip() for reason in ALLOWLIST.values())
    still_needed = {definition.key for definition in unreached(defined, used, {})}
    assert set(ALLOWLIST) <= still_needed, sorted(set(ALLOWLIST) - still_needed)


def test_scan_follows_callers_to_a_fixed_point(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def only_tests():\n"
        "    return inner() + only_tests()\n"
        "def inner():\n"
        "    return 2\n"
        "class Box:\n"
        "    def read(self):\n"
        "        return self.read()\n"
        "    def write(self):\n"
        "        return Box()\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from module import used, Box\nused()\nBox().write()\n")
    defined = [
        definition._replace(key=definition.key.rsplit(":", 1)[1])
        for definition in definitions(str(module))
    ]
    used = list(uses(str(module))) + list(uses(str(caller)))
    assert [d.key for d in unreached(defined, used, {})] == ["Box.read", "inner", "only_tests"]
    assert [d.key for d in unreached(defined, used, {"only_tests": "kept"})] == ["Box.read"]
