"""Golden whole-corpus facts at term size 10.

These pin the work the reduction engine and the probes do over the
default corpus, so a refactor of the explorer or the oracles cannot
change the graphs, the searches or the verdicts without failing here.
"""

from collections import Counter

from lambdamu import (
    behavior, check_confluence, check_strong_normalization,
    check_subject_reduction, enumerate_typed_terms, parse_formula, run_suite,
)
from lambdamu.reduction import reduction_graph

SIZE = 10


def test_corpus_graph_facts():
    corpus = enumerate_typed_terms(SIZE)
    visits = edges = cap_hits = largest = 0
    distinct = set()
    for entry in corpus.entries:
        graph = reduction_graph(entry.term)
        visits += len(graph.nodes)
        edges += len(graph.edges)
        cap_hits += not graph.complete
        largest = max(largest, len(graph.nodes))
        distinct.update(graph.nodes)
    assert (len(corpus), visits, edges, len(distinct), cap_hits, largest) == \
        (2604, 8830, 8348, 3089, 0, 6)


def test_probe_search_facts(monkeypatch):
    searches = []
    search = behavior.search_spine_reduct

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        searches.append(result)
        return result

    monkeypatch.setattr(behavior, "search_spine_reduct", counted)
    laws = [("exfalso", "_|_ -> P", behavior.probe_exfalso),
            ("peirce", "(~P -> P) -> P", behavior.probe_peirce),
            ("tertium", "~P \\/ P", behavior.probe_tertium)]
    verdicts = Counter()
    for law, formula, probe in laws:
        subjects = enumerate_typed_terms(SIZE, target=parse_formula(formula))
        for entry in subjects.entries:
            report = probe(entry.term)
            verdicts[law, report.verdict, report.m] += 1
    assert verdicts == {
        ("exfalso", "confirmed", 0): 981,
        ("peirce", "confirmed", 1): 11,
        ("tertium", "confirmed", 2): 25,
        ("tertium", "confirmed", 3): 6,
    }
    assert len(searches) == 1102
    assert sum(s.explored for s in searches) == 10783
    assert {s.status for s in searches} == {"found"}


def test_run_suite_matches_the_three_checks():
    corpus = enumerate_typed_terms(7)
    checks = [check_subject_reduction(corpus), check_confluence(corpus),
              check_strong_normalization(corpus)]
    for suite, single in zip(run_suite(corpus), checks, strict=True):
        assert suite.property == single.property
        assert suite.checked == single.checked == len(corpus)
        assert suite.failures == single.failures
        assert suite.incomplete == single.incomplete
        assert suite.longest_paths == single.longest_paths
