"""Every name a module of the package or of the tests imports is used,
and every function, class and method the package defines is used; only
the allowed cold functions hold a match statement, and the hot walks
are there and hold none."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports only to re-export
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b as c, d\nd()\n") == \
        ["os (line 1)", "c (line 2)"]


def references(source: str, strings: bool = False) -> set[str]:
    """The names, attributes and imported names in source; with strings,
    also the last part of each string that is a dotted name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) \
                and re.fullmatch(r"[\w.]+", node.value):
            out.add(node.value.rsplit(".", 1)[-1])
    return out


def unreferenced(package: list[str], bench: list[str]) -> list[str]:
    """The top-level functions and classes of the package's sources, and
    the methods of those classes but the dunders (as Class.method), that
    nothing in the package refers to (an import counts, so a re-export
    of the package's __init__ does; another module's is checked used
    above) and that no name or dotted string of the bench's names."""
    used = set().union(*map(references, package),
                       *(references(s, strings=True) for s in bench))
    out = []
    for source in package:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in used:
                out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out.extend(f"{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("__")
                           and item.name not in used)
    return out


def test_every_definition_is_used():
    def read(d):
        return [p.read_text(encoding="utf-8")
                for p in sorted((ROOT / d).glob("*.py"))]

    assert unreferenced(read("src/lambdamu"), read("perfbench")) == []


def test_detects_an_unused_definition():
    package = ["def used():\n    pass\n\n\ndef dead():\n    pass\n\n\n"
               "class Dead:\n    pass\n\n\nclass Kept:\n"
               "    def __init__(self):\n        pass\n\n"
               "    def called(self):\n        pass\n\n"
               "    def unused(self):\n        pass\n",
               "from .a import Kept\n\nused()\nKept().called()\n",
               "def timed():\n    pass\n"]
    doc = '"""Wraps timed."""\n'
    assert unreferenced(package, [doc + 'WRAP = ("a.timed",)\n']) == \
        ["dead", "Dead", "Kept.unused"]
    assert unreferenced(package, [doc]) == \
        ["dead", "Dead", "Kept.unused", "timed"]


# the only functions and methods of the package that may hold a match
# statement: cold code, run once per derivation node, target or probe;
# every walk that runs once per node of a term picks a node's case by
# its type instead
MATCH_ALLOWED = {
    "typecheck.validate_derivation",
    "metatheory.subformulas",
    "behavior._peirce_propvar",
    "behavior._tertium_branch_kinds",
}

# the walks that run once per node of every term, or per reduct, that
# the corpus or the probes explore: each picks a node's case by its
# type, never by match
HOT_WALKS = {
    "typecheck": ("_infer",),
    "reduction": ("_result_ann", "_reducts", "_contract", "_rebuild",
                  "SuccessorFacts._settle"),
    "syntax": ("alpha_key", "splice_key", "_pf", "_Printer.term",
               "_Printer.eterm"),
    "terms": ("shape", "_shifted", "_substituted", "_mu_substituted"),
    "behavior": ("Leaf.match", "_match_spine"),
}


def definitions(sources: dict[str, str]) -> dict[str, ast.FunctionDef]:
    """The top-level functions and the methods of top-level classes of
    sources, a module's source by its name, as module.name or
    module.Class.name."""
    defs = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                defs.update((f"{module}.{node.name}.{item.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                defs[f"{module}.{node.name}"] = node
    return defs


def holds_match(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Match) for n in ast.walk(node))


def matches_outside(sources: dict[str, str], allowed) -> list[str]:
    """The definitions of sources that hold a match and are not in
    allowed; then the names in allowed that sources do not define."""
    defs = definitions(sources)
    return [name for name, node in defs.items()
            if name not in allowed and holds_match(node)] + \
        sorted(name for name in allowed if name not in defs)


def walks_with_match(sources: dict[str, str], names) -> list[str]:
    """Those of names that sources do not define, or whose definition
    holds a match."""
    defs = definitions(sources)
    return [name for name in names
            if name not in defs or holds_match(defs[name])]


def test_match_only_where_allowed():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "lambdamu").glob("*.py"))}
    assert matches_outside(sources, MATCH_ALLOWED) == []


@pytest.mark.parametrize("module", sorted(HOT_WALKS))
def test_no_match_in_the_hot_walks(module):
    path = ROOT / "src" / "lambdamu" / f"{module}.py"
    names = [f"{module}.{name}" for name in HOT_WALKS[module]]
    assert walks_with_match({module: path.read_text(encoding="utf-8")},
                            names) == []
    assert MATCH_ALLOWED.isdisjoint(names)


def test_detects_a_match_in_a_walk():
    source = ("def walk(t):\n    match t:\n        case _:\n            pass\n"
              "\n\nclass C:\n    def walk(self, t):\n        if t:\n"
              "            match t:\n                case 1:\n"
              "                    pass\n\n    def cold(self, t):\n"
              "        return t\n")
    assert matches_outside({"m": source}, {"m.C.walk", "m.C.cold", "m.gone"}) \
        == ["m.walk", "m.gone"]
    assert walks_with_match({"m": source},
                            ("m.walk", "m.C.walk", "m.C.cold", "m.gone")) \
        == ["m.walk", "m.C.walk", "m.gone"]
