"""One workload in a fresh single-threaded process: set-up, timed passes, checks.

``run.py`` starts this script and reads the JSON object it prints last.
It is a closed loop with one caller: each item starts when the previous
one has returned.  Passes over the workload's items repeat until
``--seconds`` of timed work are done and the workload's ``min_passes``
are made, always over the same items in the same order; the garbage
collector runs before each pass, so no pass pays for garbage left by
set-up or by the pass before it.  Times are nominal seconds
(``speed.py``), with raw seconds beside them.

With ``--trace 1`` times are raw, the set-up runs traced, then the
untraced passes, then exactly one traced pass, so the per-layer counts
are those of one set-up and one pass whatever ``--seconds`` is.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import spec
from speed import Speedometer
from tracer import Tracer, boundaries

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("cli", "metatheory", "reduction", "behavior", "typecheck",
          "syntax", "terms")


def import_lambdamu() -> dict:
    """The seven modules, imported from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import lambdamu
    if Path(lambdamu.__file__).resolve().parent != SRC / "lambdamu":
        raise ImportError(f"lambdamu imported from {lambdamu.__file__}, "
                          f"not from {SRC}")
    return {name: importlib.import_module(f"lambdamu.{name}")
            for name in LAYERS}


class Pass(SimpleNamespace):
    """wall_s and raw_s (nominal and raw seconds), item_s (one nominal
    latency per item), attempted, failed, outcomes."""


def _digest(outcomes) -> str:
    return hashlib.sha256(
        "\n".join(sorted(outcomes)).encode()).hexdigest()[:16]


class Suite:
    """``lambdamu suite --max-size 11 --json`` in-process; one item per pass."""

    min_passes = 1

    def __init__(self, lm, api, rng):
        self.setup_failed = 0

    def run_pass(self, api, tracer, sp) -> Pass:
        out = io.StringIO()
        t0, r0 = sp.now(), sp.raw()
        try:
            with redirect_stdout(out):
                code = api.main(list(spec.SUITE_ARGV))
        except Exception as exc:  # counted as a failure of every entry
            print(f"suite-11: {exc!r}", file=sys.stderr)
            code = None
        wall, raw = sp.now() - t0, sp.raw() - r0
        n = spec.CORPUS_FACTS_11["terms"]
        failed, outcomes = self.check(code, out.getvalue(), n)
        return Pass(wall_s=wall, raw_s=raw, item_s=[wall], attempted=n,
                    failed=failed, outcomes=outcomes)

    @staticmethod
    def check(code, text: str, n: int) -> tuple[int, list[str]]:
        """Failed entries: in a failure or incomplete list, or missing."""
        try:
            reports = [json.loads(line) for line in text.splitlines()]
        except json.JSONDecodeError:
            return n, []
        if code != 0 or [r["property"] for r in reports] != \
                list(spec.SUITE_PROPERTIES):
            return n, []
        bad = set()
        missing = 0
        for r in reports:
            bad.update(f["term"] for f in r["failures"])
            bad.update(r["incomplete"])
            missing = max(missing, abs(n - r["checked"]))
        outcomes = [f"{r['property']} checked={r['checked']} "
                    f"failures={len(r['failures'])} "
                    f"incomplete={len(r['incomplete'])}" for r in reports]
        return min(n, len(bad) + missing), outcomes


class Probes:
    """Every closed inhabitant of each law at size 11, probed in seed order."""

    min_passes = 3

    def __init__(self, lm, api, rng):
        self.setup_failed = 0
        self.subjects = []
        for law, expected in spec.PROBE_SUBJECTS.items():
            target = lm["syntax"].parse_formula(spec.LAW_FORMULA[law])
            corpus = api.enumerate_typed_terms(spec.PROBE_SIZE, target=target)
            self.setup_failed += abs(len(corpus) - expected)
            self.subjects.extend((law, e.term) for e in corpus.entries)
        rng.shuffle(self.subjects)
        self.probe_seed = rng.randrange(1000)
        self.print_term = lm["syntax"].print_term

    def run_pass(self, api, tracer, sp) -> Pass:
        probes = {"exfalso": api.probe_exfalso, "peirce": api.probe_peirce,
                  "tertium": api.probe_tertium}
        seed = self.probe_seed
        item_s = []
        verdicts = []
        clock = sp.now
        start, r0 = clock(), sp.raw()
        for i, (law, term) in enumerate(self.subjects):
            if tracer is not None:
                tracer.item = i
            t0 = clock()
            try:
                report = probes[law](term, seed=seed)
                verdict, m = report.verdict, report.m
            except Exception as exc:
                print(f"probes-11: {law}: {exc!r}", file=sys.stderr)
                verdict, m = "error", None
            item_s.append(clock() - t0)
            verdicts.append((law, term, verdict, m))
        wall, raw = clock() - start, sp.raw() - r0
        failed = sum(v != "confirmed" for _, _, v, _ in verdicts)
        outcomes = [f"{law} {self.print_term(t)} {v} m={m}"
                    for law, t, v, m in verdicts]
        return Pass(wall_s=wall, raw_s=raw, item_s=item_s,
                    attempted=len(self.subjects), failed=failed,
                    outcomes=outcomes)


class Frontend:
    """Parse, infer and print every size-12 corpus term, given as text."""

    min_passes = 3

    def __init__(self, lm, api, rng):
        corpus = api.enumerate_typed_terms(spec.FRONTEND_SIZE)
        self.setup_failed = abs(len(corpus) - spec.FRONTEND_TERMS)
        print_term = lm["syntax"].print_term
        self.items = [(print_term(e.term), e.formula) for e in corpus.entries]
        del corpus
        rng.shuffle(self.items)

    def run_pass(self, api, tracer, sp) -> Pass:
        parse_term, infer, print_term = api.parse_term, api.infer, api.print_term
        item_s = []
        failed = 0
        clock = sp.now
        start, r0 = clock(), sp.raw()
        for i, (text, formula) in enumerate(self.items):
            if tracer is not None:
                tracer.item = i
            t0 = clock()
            try:
                term = parse_term(text)
                ok = (infer({}, {}, term).conclusion.formula == formula
                      and print_term(term) == text)
            except Exception as exc:
                print(f"frontend-12: {text}: {exc!r}", file=sys.stderr)
                ok = False
            item_s.append(clock() - t0)
            failed += not ok
        wall, raw = clock() - start, sp.raw() - r0
        return Pass(wall_s=wall, raw_s=raw, item_s=item_s,
                    attempted=len(self.items),
                    failed=failed,
                    outcomes=[f"round trips={len(self.items) - failed}"])


WORKLOADS = {"suite-11": Suite, "probes-11": Probes, "frontend-12": Frontend}


def corpus_facts(lm) -> dict:
    """Size-11 corpus totals with one reduction graph per entry."""
    corpus = lm["metatheory"].enumerate_typed_terms(11)
    facts = dict.fromkeys(spec.CORPUS_FACTS_11, 0)
    facts["terms"] = len(corpus)
    distinct = set()
    for entry in corpus.entries:
        graph = lm["reduction"].reduction_graph(entry.term)
        facts["node_visits"] += len(graph.nodes)
        facts["edges"] += len(graph.edges)
        facts["cap_hits"] += not graph.complete
        distinct.update(graph.nodes)
    facts["distinct_nodes"] = len(distinct)
    return facts


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``; one value
    is its own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, rows: list[dict], overhead_s: float) -> dict:
    calls, total, self_s = {}, {}, {}
    for row in rows:
        name = row["name"]
        calls[name] = calls.get(name, 0) + row["calls"]
        total[name] = total.get(name, 0.0) + row["total_s"]
        self_s[name] = self_s.get(name, 0.0) + row["self_s"]
    c = tracer.counts
    visits = c["reduction.node_visits"]
    parse_s = total.get("syntax.parse_term", 0.0)
    alpha = ("terms.alpha_equal", "terms.alpha_equal_eterm")
    values = {
        "metatheory.enumerate_s": total.get("metatheory.enumerate_typed_terms", 0.0),
        "metatheory.enumerate_terms": c["metatheory.enumerate_terms"],
        "metatheory.subject_reduction_self_s":
            self_s.get("metatheory.check_subject_reduction", 0.0),
        "metatheory.confluence_self_s":
            self_s.get("metatheory.check_confluence", 0.0),
        "metatheory.strong_normalization_self_s":
            self_s.get("metatheory.check_strong_normalization", 0.0),
        "reduction.graph_calls": calls.get("reduction.reduction_graph", 0),
        "reduction.graph_s": total.get("reduction.reduction_graph", 0.0),
        "reduction.node_visits": visits,
        "reduction.distinct_nodes": len(tracer.distinct_nodes),
        "reduction.edges": c["reduction.edges"],
        "reduction.dedup_ratio":
            len(tracer.distinct_nodes) / visits if visits else 0.0,
        "reduction.cap_hits": c["reduction.cap_hits"],
        "reduction.redexes_calls": calls.get("reduction.redexes", 0),
        "reduction.redexes_s": total.get("reduction.redexes", 0.0),
        "reduction.step_calls": calls.get("reduction.step_at", 0),
        "reduction.step_s": total.get("reduction.step_at", 0.0),
        "syntax.canonical_form_calls": calls.get("syntax.canonical_form", 0),
        "syntax.canonical_form_s": total.get("syntax.canonical_form", 0.0),
        "terms.canonicalize_s": total.get("terms.canonicalize", 0.0),
        "syntax.parse_s": parse_s,
        "syntax.parse_chars_per_s":
            c["syntax.parse_chars"] / parse_s if parse_s else 0.0,
        "syntax.print_s": total.get("syntax.print_term", 0.0),
        "typecheck.check_calls": calls.get("typecheck.check", 0),
        "typecheck.check_s": total.get("typecheck.check", 0.0),
        "typecheck.infer_s": total.get("typecheck.infer", 0.0),
        "terms.substitute_calls": calls.get("terms.substitute", 0),
        "terms.substitute_s": total.get("terms.substitute", 0.0),
        "terms.mu_substitute_calls": calls.get("terms.mu_substitute", 0),
        "terms.mu_substitute_s": total.get("terms.mu_substitute", 0.0),
        "terms.alpha_equal_calls": sum(calls.get(n, 0) for n in alpha),
        "terms.alpha_equal_s": sum(total.get(n, 0.0) for n in alpha),
        "behavior.search_calls": calls.get("behavior.search_spine_reduct", 0),
        "behavior.search_s": total.get("behavior.search_spine_reduct", 0.0),
        "behavior.explored": c["behavior.explored"],
        "behavior.cap_hits": c["behavior.cap_hits"],
        "cli.self_s": self_s.get("cli.main", 0.0),
        "python.gc_s": tracer.gc_s,
        "python.gc_collections": tracer.gc_collections,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in spec.PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # With --trace 1 every figure is raw: the timer would interrupt spans.
    with Speedometer(enabled=not args.trace) as sp:
        before = sp.started_monotonic - args.launched
        lm = import_lambdamu()
        api = SimpleNamespace(
            main=lm["cli"].main,
            enumerate_typed_terms=lm["metatheory"].enumerate_typed_terms,
            probe_exfalso=lm["behavior"].probe_exfalso,
            probe_peirce=lm["behavior"].probe_peirce,
            probe_tertium=lm["behavior"].probe_tertium,
            parse_term=lm["syntax"].parse_term, infer=lm["typecheck"].infer,
            print_term=lm["syntax"].print_term)
        rng = random.Random(args.seed)
        tracer = Tracer() if args.trace else None
        targets = boundaries(lm) + [(api, name) for name in vars(api)]

        with tracer.active(targets) if tracer else nullcontext():
            workload = WORKLOADS[args.workload](lm, api, rng)
        # process start and the imports above count at the set-up's speed
        nominal, raw = sp.now(), sp.raw()
        setup_raw = before + raw
        setup_s = setup_raw * nominal / raw
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
            return 0

        passes = []
        while (len(passes) < workload.min_passes
               or sum(p.wall_s for p in passes) < args.seconds):
            gc.collect()
            passes.append(workload.run_pass(api, None, sp))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "passes": len(passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "wall_raw_s": statistics.median(p.raw_s for p in passes),
        "items_per_pass": passes[0].attempted,
        "items": len(passes[0].item_s),
        "attempted": sum(p.attempted for p in passes),
        "failed": workload.setup_failed * len(passes)
                  + sum(p.failed for p in passes),
        "digest": _digest(passes[0].outcomes),
        "peak_rss_mb": peak_rss_mb,
    }
    # an item's latency is its median over the passes, which keeps a
    # momentary slowdown of the machine out of the tail
    item_s = [statistics.median(ts) for ts in zip(*(p.item_s for p in passes))]
    result["item_p50_ms"] = percentile(item_s, 50) * 1e3
    result["item_p99_ms"] = percentile(item_s, 99) * 1e3
    for p in passes[1:]:
        if _digest(p.outcomes) != result["digest"]:
            print(f"{args.workload}: passes disagree", file=sys.stderr)
            result["failed"] += 1

    if args.workload == "suite-11":
        facts = corpus_facts(lm)
        result["facts"] = facts
        result["facts_ok"] = facts == spec.CORPUS_FACTS_11
        print(f"corpus facts at size 11: {json.dumps(facts)} "
              f"({'match' if result['facts_ok'] else 'DIFFER FROM'} pinned)")

    if tracer:
        tracer.item = 0
        gc.collect()
        with tracer.active(targets):
            traced = workload.run_pass(api, tracer, sp)
        rows = tracer.aggregate()
        untraced = result["wall_raw_s"]
        result["attempted"] += traced.attempted
        result["failed"] += workload.setup_failed + traced.failed
        result["layers"] = layer_metrics(tracer, rows,
                                         traced.raw_s - untraced)
        out = ROOT / "perfbench" / "out" / \
            f"{args.workload}-seed{args.seed}.trace.json"
        tracer.write(out, rows, {"workload": args.workload, "seed": args.seed,
                                 "traced_wall_s": traced.raw_s,
                                 "untraced_wall_s": untraced})
        print(f"spans written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
