"""What the benchmark measures: workloads, metrics, bounds and pinned facts.

BENCHMARK.json at the repository root repeats the names, units, bounds
and "why" sentences below; ``run.py --self-check`` verifies that the two
agree.  ``moves`` says which end-to-end metric, on which workload, a
per-layer metric should move, so that a change to one layer can name
the figure it expects to change before it is measured.
"""

# name -> why the workload is in the benchmark
WORKLOADS = {
    "suite-11": "lambdamu suite at size 11: enumeration plus the SR, CF and "
                "SN oracles, each exploring every reduction graph again",
    "probes-11": "the three behaviour probes over every closed inhabitant "
                 "of their law at size 11: spine search, never an oracle",
    "frontend-12": "parse, infer and print each size-12 corpus term from "
                   "text: front end and checker with no reduction at all",
}

LAW_FORMULA = {"exfalso": "_|_ -> P", "peirce": "(~P -> P) -> P",
               "tertium": "~P \\/ P"}

# Whole-corpus facts at size 11, one reduction_graph per entry.  A
# speed-up must leave them unchanged, so every suite-11 run checks them.
CORPUS_FACTS_11 = {"terms": 8317, "node_visits": 36040, "edges": 42976,
                   "distinct_nodes": 10076, "cap_hits": 0}

SUITE_ARGV = ["suite", "--max-size", "11", "--json"]
SUITE_PROPERTIES = ("subject-reduction", "confluence", "strong-normalization")
PROBE_SIZE = 11
PROBE_SUBJECTS = {"exfalso": 3267, "peirce": 42, "tertium": 37}
FRONTEND_SIZE = 12
FRONTEND_TERMS = 24759

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("items_per_s", "1/s", "higher", 0.2),
    ("item_p50_ms", "ms", "lower", 0.2),
    ("item_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_SUITE = "wall_s on suite-11"
_PROBES = "items_per_s on probes-11"

# name, unit, better, moves
PER_LAYER = [
    ("metatheory.enumerate_s", "s", "lower",
     "wall_s on suite-11; setup_s on probes-11 and frontend-12"),
    ("metatheory.enumerate_terms", "count", "higher",
     "wall_s on suite-11; setup_s on probes-11 and frontend-12"),
    ("metatheory.subject_reduction_self_s", "s", "lower", _SUITE),
    ("metatheory.confluence_self_s", "s", "lower", _SUITE),
    ("metatheory.strong_normalization_self_s", "s", "lower", _SUITE),
    ("reduction.graph_calls", "count", "lower",
     _SUITE + "; no change on probes-11"),
    ("reduction.graph_s", "s", "lower", _SUITE + "; no change on probes-11"),
    ("reduction.node_visits", "count", "lower",
     _SUITE + "; no change on probes-11"),
    ("reduction.distinct_nodes", "count", "lower",
     _SUITE + "; no change on probes-11"),
    ("reduction.edges", "count", "lower", _SUITE + "; no change on probes-11"),
    ("reduction.dedup_ratio", "ratio", "higher",
     _SUITE + "; no change on probes-11"),
    ("reduction.cap_hits", "count", "lower",
     _SUITE + "; no change on probes-11"),
    ("reduction.redexes_calls", "count", "lower", f"{_SUITE}; {_PROBES}"),
    ("reduction.redexes_s", "s", "lower", f"{_SUITE}; {_PROBES}"),
    ("reduction.step_calls", "count", "lower", f"{_SUITE}; {_PROBES}"),
    ("reduction.step_s", "s", "lower", f"{_SUITE}; {_PROBES}"),
    ("syntax.canonical_form_calls", "count", "lower", f"{_SUITE}; {_PROBES}"),
    ("syntax.canonical_form_s", "s", "lower", f"{_SUITE}; {_PROBES}"),
    ("terms.canonicalize_s", "s", "lower", f"{_SUITE}; {_PROBES}"),
    ("syntax.parse_s", "s", "lower", "item_p50_ms on frontend-12"),
    ("syntax.parse_chars_per_s", "chars/s", "higher",
     "item_p50_ms on frontend-12"),
    ("syntax.print_s", "s", "lower", "item_p50_ms on frontend-12"),
    ("typecheck.check_calls", "count", "lower", _SUITE),
    ("typecheck.check_s", "s", "lower", _SUITE),
    ("typecheck.infer_s", "s", "lower", "item_p50_ms on frontend-12"),
    ("terms.substitute_calls", "count", "lower", f"{_SUITE}; {_PROBES}"),
    ("terms.substitute_s", "s", "lower", f"{_SUITE}; {_PROBES}"),
    ("terms.mu_substitute_calls", "count", "lower", f"{_SUITE}; {_PROBES}"),
    ("terms.mu_substitute_s", "s", "lower", f"{_SUITE}; {_PROBES}"),
    ("terms.alpha_equal_calls", "count", "lower", "item_p99_ms on probes-11"),
    ("terms.alpha_equal_s", "s", "lower", "item_p99_ms on probes-11"),
    ("behavior.search_calls", "count", "lower",
     f"{_PROBES}; item_p99_ms on probes-11"),
    ("behavior.search_s", "s", "lower", f"{_PROBES}; item_p99_ms on probes-11"),
    ("behavior.explored", "count", "lower",
     f"{_PROBES}; item_p99_ms on probes-11"),
    ("behavior.cap_hits", "count", "lower",
     f"{_PROBES}; item_p99_ms on probes-11"),
    ("cli.self_s", "s", "lower", _SUITE + "; expected to stay small"),
    ("python.gc_s", "s", "lower", "wall_s and peak_rss_mb on suite-11"),
    ("python.gc_collections", "count", "lower",
     "wall_s and peak_rss_mb on suite-11"),
    ("trace.overhead_s", "s", "lower",
     "none; traced wall_s minus untraced wall_s"),
]
