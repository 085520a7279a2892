"""Spans around the calls between lambdamu's modules, recorded from outside.

The tracer replaces, for the duration of a ``with tracer.active(...)``
block, a function at the reference its caller looks it up through: the
name a module imported from another module (``reduction.canonical_form``,
``behavior.step_at``), a module global that callers in the same module
or in ``cli`` use (``reduction.redexes``, ``metatheory.check_confluence``),
or the benchmark's own references.  A recursive function is never
wrapped at its own module's global, so each outermost call is one span
and the recursion inside it costs nothing extra.  No file of the package
changes.

Each span has a name, a parent span and an item id.  Spans are kept in
flat arrays, which the garbage collector does not scan, and are
aggregated per (name, parent) when the run ends.  Self time is a span's
duration minus the whole of its child spans, including the children's
bookkeeping, so tracing cost shows up only in ``trace.overhead_s``.
"""

from __future__ import annotations

import gc
import json
import types
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NO_PARENT = -1
SETUP_ITEM = -1

# Module globals looked up by callers in the same module, or by cli
# through the module object (``metatheory.check_confluence(...)``).
OWN_GLOBALS = {
    "metatheory": ("enumerate_typed_terms", "check_subject_reduction",
                   "check_confluence", "check_strong_normalization"),
    "reduction": ("redexes", "step_at"),
    "behavior": ("search_spine_reduct",),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _calls_itself(fn) -> bool:
    """True when fn, or a function nested in it, looks up fn's own global."""
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        if fn.__name__ in code.co_names:
            return True
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return False


def boundaries(modules: dict) -> list[tuple[object, str]]:
    """(owner, attribute) for every lambdamu function called across modules.

    ``modules`` maps a short module name to the imported module.  Each
    public function a module imported from another lambdamu module is
    wrapped at that module; the globals in OWN_GLOBALS are wrapped at
    their own module, after checking that none calls itself.
    """
    out = []
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ != mod.__name__
                    and obj.__module__.startswith("lambdamu.")):
                out.append((mod, attr))
        for attr in OWN_GLOBALS.get(short, ()):
            fn = getattr(mod, attr)
            if _calls_itself(fn):
                raise ValueError(f"{short}.{attr} is recursive; wrap it "
                                 "at its callers' references instead")
            out.append((mod, attr))
    return out


def _graph_counts(tracer, args, graph):
    c = tracer.counts
    c["reduction.node_visits"] += len(graph.nodes)
    c["reduction.edges"] += len(graph.edges)
    c["reduction.cap_hits"] += not graph.complete
    tracer.distinct_nodes.update(graph.nodes)


def _search_counts(tracer, args, search):
    tracer.counts["behavior.explored"] += search.explored
    tracer.counts["behavior.cap_hits"] += search.status == "cap-exceeded"


def _parse_counts(tracer, args, term):
    tracer.counts["syntax.parse_chars"] += len(args[0])


def _enumerate_counts(tracer, args, corpus):
    tracer.counts["metatheory.enumerate_terms"] += len(corpus)


# Work counts read from a call's arguments and result, after its span ends.
COUNTERS = {
    "reduction.reduction_graph": _graph_counts,
    "behavior.search_spine_reduct": _search_counts,
    "syntax.parse_term": _parse_counts,
    "metatheory.enumerate_typed_terms": _enumerate_counts,
}


class Tracer:
    def __init__(self):
        self.item = SETUP_ITEM
        self.counts: Counter = Counter()
        self.distinct_nodes: set[str] = set()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._item = array("q")
        self._start = array("d")
        self._end = array("d")
        self._outer = array("d")
        self._stack = [NO_PARENT]
        self._gc_start = 0.0

    def wrap(self, fn):
        name = span_name(fn)
        nid = self._name_ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        count = COUNTERS.get(name)
        names, parents, items = self._name, self._parent, self._item
        starts, ends, outers = self._start, self._end, self._outer
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            t_in = perf_counter()
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item)
            starts.append(0.0)
            ends.append(0.0)
            outers.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
                outers[sid] = t1 - t_in
            if count is not None:
                count(tracer, args, result)
                outers[sid] = perf_counter() - t_in
            return result

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def active(self, targets):
        """Wrap every (owner, attribute) and watch the collector; undo on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]
        try:
            for owner, attr, fn in saved:
                setattr(owner, attr, self.wrap(fn))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def aggregate(self) -> list[dict]:
        """One row per (name, parent name): calls, total, self and slowest."""
        n = len(self._name)
        covered = [0.0] * n
        for sid in range(n):
            parent = self._parent[sid]
            if parent != NO_PARENT:
                covered[parent] += self._outer[sid]
        rows: dict[tuple[str, str], dict] = {}
        for sid in range(n):
            parent = self._parent[sid]
            key = (self._names[self._name[sid]],
                   "-" if parent == NO_PARENT
                   else self._names[self._name[parent]])
            row = rows.get(key)
            if row is None:
                row = rows[key] = {"name": key[0], "parent": key[1],
                                   "calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "max_s": 0.0, "max_item": None}
            duration = self._end[sid] - self._start[sid]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[sid]
            if duration > row["max_s"]:
                row["max_s"] = duration
                row["max_item"] = self._item[sid]
        return list(rows.values())

    def write(self, path, rows: list[dict], extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": len(self._name),
                       "counts": dict(self.counts),
                       "gc_s": self.gc_s,
                       "gc_collections": self.gc_collections,
                       "by_name_and_parent": rows}, fh, indent=1)
