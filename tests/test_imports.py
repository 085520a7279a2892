"""Every name a module of the package or of the tests imports is used,
and every function, class and method the package defines is used; the
hot walks hold no match statement."""

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


# the walks that run once per node of every term the corpus or the
# probes explore: each picks a node's case by its type, never by match
HOT_WALKS = {
    "typecheck": ("_infer",),
    "reduction": ("_result_ann", "_reducts", "_contract"),
    "syntax": ("alpha_key", "_pf", "_Printer.term", "_Printer.eterm"),
    "terms": ("shape", "free_variables", "all_names"),
    "behavior": ("Leaf.match", "_match_spine"),
}


def walks_with_match(source: str, names) -> list[str]:
    """Those of names (a method as Class.name) that source does not
    define at its top level, or whose definition holds a match."""
    defs = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            defs.update((f"{node.name}.{item.name}", item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            defs[node.name] = node
    return [name for name in names if name not in defs
            or any(isinstance(n, ast.Match) for n in ast.walk(defs[name]))]


@pytest.mark.parametrize("module", sorted(HOT_WALKS))
def test_no_match_in_the_hot_walks(module):
    path = ROOT / "src" / "lambdamu" / f"{module}.py"
    assert walks_with_match(path.read_text(encoding="utf-8"),
                            HOT_WALKS[module]) == []


def test_detects_a_match_in_a_walk():
    source = ("def walk(t):\n    match t:\n        case _:\n            pass\n"
              "\n\nclass C:\n    def walk(self, t):\n        if t:\n"
              "            match t:\n                case 1:\n"
              "                    pass\n\n    def cold(self, t):\n"
              "        return t\n")
    assert walks_with_match(source, ("walk", "C.walk", "C.cold", "gone")) \
        == ["walk", "C.walk", "gone"]
