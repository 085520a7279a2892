"""Acceptance gate.

Each test here is a release criterion with a pinned budget.  The corpus
bounds (term size 10, formula pool size 3, cut pool of five formulas,
lambda depth 3, mu depth 2, no mu binder at _|_) are the library's
defaults and constants; the enumerated corpus under them holds 2604
closed well-typed terms.
"""

import time

import pytest

from lambdamu import (
    Abs, App, Arrow, BOT, PropVar, Var, canonical_terms,
    check_strong_normalization, close, enumerate_typed_terms, normalize,
    parse_formula, parse_term, print_term, run_suite,
)
from lambdamu.cli import main
from lambdamu.metatheory import CorpusEntry, Corpus

P = PropVar("P")
CORPUS_MAX_SIZE = 10
CORPUS_COUNT = 2604


@pytest.fixture(scope="module")
def corpus():
    return enumerate_typed_terms(CORPUS_MAX_SIZE)


@pytest.fixture(scope="module")
def suite(corpus):
    """The three oracle reports by property, from one reduction graph per
    entry, built within the 2-minute budget of criteria 3 to 5."""
    reports = timed(120.0, run_suite, corpus)
    return {report.property: report for report in reports}


def timed(budget_s, fn, *args, **kwargs):
    start = time.monotonic()
    result = fn(*args, **kwargs)
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
    return result


# --------------------------------------------------------------------------
# 1. Golden types, under 1 second
# --------------------------------------------------------------------------

def test_acceptance_golden_types():
    def check_all():
        lib = canonical_terms()
        return {name: ty for name, (_, ty) in lib.items()}

    types = timed(1.0, check_all)
    assert types == {
        "T": parse_formula("_|_ -> P"),
        "Tvar": parse_formula("_|_ -> P"),
        "C1": parse_formula("(~P -> P) -> P"),
        "C2": parse_formula("(~P -> P) -> P"),
        "W": parse_formula("P \\/ ~P"),
        "Wprime": parse_formula("~P \\/ P"),
    }


# --------------------------------------------------------------------------
# 2. Golden traces, under 5 seconds
# --------------------------------------------------------------------------

def test_acceptance_golden_traces():
    def run_traces():
        T, _ = canonical_terms()["T"]
        applied = App(App(T, Var("t")), Var("u"))
        nf, trace = normalize(applied)
        assert [s.rule for s in trace.steps] == ["beta", "mu-struct"]
        assert print_term(nf) == "mu a. t"

        C1, _ = canonical_terms()["C1"]
        nf1, trace1 = normalize(App(C1, Var("u")))
        assert trace1.steps[0].rule == "beta"
        assert print_term(nf1) == "mu a:P. [a] (u \\y:P. [a] y)"
        return True

    assert timed(5.0, run_traces)


# --------------------------------------------------------------------------
# 3. Subject reduction on the enumerated corpus, 0 failures; criteria 3 to
#    5 share one run_suite pass, under 2 minutes
# --------------------------------------------------------------------------

def test_acceptance_subject_reduction(corpus, suite):
    assert len(corpus) == CORPUS_COUNT
    report = suite["subject-reduction"]
    assert report.failures == []
    assert report.incomplete == []
    assert report.checked == CORPUS_COUNT


# --------------------------------------------------------------------------
# 4. Confluence on the same corpus
# --------------------------------------------------------------------------

def test_acceptance_confluence(suite):
    report = suite["confluence"]
    assert report.failures == []
    assert report.incomplete == []
    assert report.checked == CORPUS_COUNT


# --------------------------------------------------------------------------
# 5. Strong normalization on the same corpus plus a looping negative
#    control
# --------------------------------------------------------------------------

def test_acceptance_strong_normalization(suite):
    report = suite["strong-normalization"]
    assert report.failures == []
    assert report.incomplete == []
    assert report.checked == CORPUS_COUNT


def test_acceptance_negative_control_flagged():
    # (\x:~P. (x x)) applied to itself beta-reduces to itself; the oracle
    # must flag the cycle.  The term is untypeable, so it is injected into
    # a curated corpus past the checker on purpose.
    half = close(Abs("x", Arrow(P, BOT), App(Var("x"), Var("x"))))
    loop = App(half, half)
    control = Corpus([CorpusEntry(loop, Arrow(P, P))])
    report = check_strong_normalization(control, node_cap=100)
    assert not report.ok
    assert "cycle" in report.failures[0][1]


# --------------------------------------------------------------------------
# 6. Probe universality: every closed enumerated inhabitant of the three
#    law formulas confirms under its probe, with no refutations and no
#    inconclusive verdicts
# --------------------------------------------------------------------------

@pytest.mark.parametrize("law, formula, probe_kwargs, expected_count", [
    ("efq", "_|_ -> P", {}, 981),
    ("peirce", "(~P -> P) -> P", {}, 11),
    ("lem", "~P \\/ P", {}, 31),
])
def test_acceptance_probe_universality(law, formula, probe_kwargs,
                                       expected_count):
    from lambdamu import probe_exfalso, probe_peirce, probe_tertium
    probe = {"efq": probe_exfalso, "peirce": probe_peirce,
             "lem": probe_tertium}[law]
    inhabitants = enumerate_typed_terms(CORPUS_MAX_SIZE,
                                        target=parse_formula(formula))
    assert len(inhabitants) == expected_count
    verdicts = {}
    for entry in inhabitants.entries:
        report = probe(entry.term, **probe_kwargs)
        verdicts.setdefault(report.verdict, []).append(entry.term)
    assert set(verdicts) == {"confirmed"}, {
        v: [print_term(t) for t in ts[:3]]
        for v, ts in verdicts.items() if v != "confirmed"
    }


# --------------------------------------------------------------------------
# 7. Round trip and determinism
# --------------------------------------------------------------------------

def test_acceptance_round_trip(corpus):
    for entry in corpus.entries:
        assert parse_term(print_term(entry.term)) == entry.term


def test_acceptance_seed_determinism(capsys):
    def probe_output(seed):
        code = main(["--seed", str(seed), "probe", "--term", "C2",
                     "--law", "peirce"])
        assert code == 0
        return capsys.readouterr().out

    assert probe_output(17) == probe_output(17)
    # verdict is stable across seeds even though fresh names differ
    import json
    assert json.loads(probe_output(3))["verdict"] == "confirmed"
    assert json.loads(probe_output(4))["verdict"] == "confirmed"


def test_acceptance_corpus_enumeration_deterministic():
    c1 = enumerate_typed_terms(7)
    c2 = enumerate_typed_terms(7)
    assert [(print_term(e.term), e.formula) for e in c1.entries] == \
        [(print_term(e.term), e.formula) for e in c2.entries]
