"""The benchmark's hooks into the package: every name perfbench looks up
in lambdamu exists, so a rename fails here rather than in every run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
pytestmark = pytest.mark.skipif(not PERFBENCH.is_dir(),
                                reason="no perfbench directory")


def _worker_tree() -> ast.Module:
    return ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def modules() -> dict:
    """The modules worker.py imports, by the short names in its LAYERS."""
    layers = next(ast.literal_eval(node.value) for node in _worker_tree().body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["LAYERS"])
    assert len(layers) == 7
    return {name: importlib.import_module(f"lambdamu.{name}")
            for name in layers}


def test_tracer_boundaries_resolve(modules):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.boundaries(modules)
    assert all(callable(getattr(owner, attr)) for owner, attr in targets)
    wrapped = {(owner.__name__, attr) for owner, attr in targets}
    for short, names in tracer.OWN_GLOBALS.items():
        assert {(f"lambdamu.{short}", name) for name in names} <= wrapped


def test_worker_reads_existing_names(modules):
    # every lm["module"].name in worker.py, the api it builds included
    reads = {(node.value.slice.value, node.attr)
             for node in ast.walk(_worker_tree())
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Subscript)
             and isinstance(node.value.value, ast.Name)
             and node.value.value.id == "lm"}
    assert ("behavior", "probe_tertium") in reads
    missing = [f"{module}.{name}" for module, name in sorted(reads)
               if not hasattr(modules[module], name)]
    assert missing == []
