"""Golden whole-corpus facts at term size 10, and at size 8 over formulas
of size 5.

These pin the work the reduction engine and the probes do over the
default corpus, so a refactor of the explorer or the oracles cannot
change the graphs, the searches or the verdicts without failing here.
"""

import contextlib
import hashlib
import io
import json
import random
import re
from collections import Counter
from itertools import zip_longest
from pathlib import Path

import pytest

from lambdamu import (
    BOT, Abs, App, Arrow, Corpus, Mu, Named, Pair, ParseError, PropertyReport,
    ReductTooDeep, TypeCheckError, Var, alpha_key, behavior, check,
    derivation_to_json, enumerate_typed_terms, infer, metatheory,
    parse_formula, parse_term, print_formula, print_term, reduction,
    run_suite, validate_derivation,
)
from lambdamu.cli import main
from lambdamu.metatheory import PROPERTIES, CorpusEntry, formula_pool
from lambdamu.reduction import (
    DEFAULT_NODE_CAP, RULE_IDS, SuccessorFacts, reduction_graph,
)
from lambdamu.terms import rename_binders

from erasure import erase

SIZE = 10
GOLDEN_CLI = json.loads(
    (Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


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


def test_corpus_graph_keys_and_edges():
    # the nodes and edges themselves, printed, not only their number
    keys, edges = set(), set()
    for entry in enumerate_typed_terms(SIZE).entries:
        graph = reduction_graph(entry.term)
        text = graph.printed()
        keys.update(text.values())
        edges.update(f"{text[src]}\t{text[dst]}"
                     for src, _, _, dst in graph.edges)
    assert (len(keys), _sha256(keys)) == (
        3089, "e52a281ceeb26727442c1200c4cecf092e0698f36d49348bbdc328821ff2fac1")
    assert (len(edges), _sha256(edges)) == (
        4907, "489f7b41eb9bc154da15d67d60772ef2bf290ad882069ad15e70eef1ccf98942")


def test_alpha_key_is_equality():
    # over every size-10 reduct and two renamings of its binders, two
    # terms share a key exactly when they are ==: hints change no key
    reducts = [t for entry in enumerate_typed_terms(SIZE).entries
               for t in reduction_graph(entry.term).nodes.values()]
    terms = reducts + [rename_binders(t, rename) for t in reducts
                       for rename in (lambda kind, hint: "x",
                                      lambda kind, hint: f"{hint}_")]
    by_key = {}
    for t in terms:
        assert by_key.setdefault(alpha_key(t), t) == t
    assert len(by_key) == len(set(terms)) == 3089
    for i, t in enumerate(reducts):
        assert alpha_key(terms[len(reducts) + 2 * i]) == alpha_key(t) == \
            alpha_key(terms[len(reducts) + 2 * i + 1])


def test_corpus_graph_edges_in_exploration_order():
    # every edge of every graph, in the order the explorer adds it, with
    # the position and rule of its redex; and how often each rule fires
    # (case-perm never fires at size 10)
    lines, rules = [], Counter()
    for entry in enumerate_typed_terms(SIZE).entries:
        graph = reduction_graph(entry.term)
        text = graph.printed()
        for src, position, rule, dst in graph.edges:
            lines.append(f"{text[src]}\t{list(position)}\t{rule}"
                         f"\t{text[dst]}")
            rules[rule] += 1
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        8348, "760428d953180c3bb2900d42fc3fb25f0db1ace57105112ad3206847a78bccf5")
    assert {rule: rules[rule] for rule in RULE_IDS} == {
        "beta": 3391, "proj": 904, "case-inj": 362, "case-perm": 0,
        "mu-struct": 3691}


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


@pytest.mark.parametrize("name, law", [
    ("T", "efq"), ("C1", "peirce"), ("C2", "peirce"), ("W", "lem"),
    ("Wprime", "lem")])
def test_probe_json_output(name, law):
    assert _stdout("probe", "--term", name, "--law", law) == \
        json.dumps(GOLDEN_CLI["probe"][name], indent=2) + "\n"


@pytest.mark.parametrize("term, open_vars", [
    ("(\\x:P. \\y:P. x y)", "y"),
    ("(\\x:_|_. mu b:P. x [b] y)", "y,b"),
    ("((s [x.x, y.y]) x)", "s,x"),
    ("(mu a:P. [a] y [a] z)", "y,z,a"),
])
def test_reduce_renames_a_capturing_binder(term, open_vars):
    # each normal form has a binder whose name occurs free in its scope
    assert _stdout("reduce", "--term", term, "--open", open_vars) == \
        GOLDEN_CLI["reduce"][term] + "\n"


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


LAW_PROBES = {"_|_ -> P": behavior.probe_exfalso,
              "(~P -> P) -> P": behavior.probe_peirce,
              "~P \\/ P": behavior.probe_tertium,
              "P \\/ ~P": behavior.probe_tertium}
EFQ = "\\x0:_|_. mu a0:P. x0"
PEIRCE = "\\x0:~P -> P. mu a0:P. [a0] (x0 \\x1:P. [a0] x1)"
NEG_P = "mu a0:~P \\/ P. [a0] in1{P} \\x0:P. [a0] in2{~P} x0"
P_NEG = "mu a0:P \\/ ~P. [a0] in2{P} \\x0:P. [a0] in1{~P} x0"
ALL_CONFIRMED = [(981, 0, None, {0: 981}), (11, 0, None, {1: 11}),
                 (31, 0, None, {2: 25, 3: 6}), (31, 0, None, {2: 25, 3: 6})]
ALL_REFUTED = [(0, 981, EFQ, {}), (0, 11, PEIRCE, {}), (0, 31, NEG_P, {}),
               (0, 31, P_NEG, {})]
# per law type, in LAW_PROBES order: the confirmed and refuted counts
# with one rule dropped, the first refuted subject, printed, and the
# histogram of m over the confirmed subjects; the enumerator lists by
# size, so that subject is a smallest one.  No dropped rule moves the
# histogram of the subjects that stay confirmed
RULE_REMOVAL = {
    None: ALL_CONFIRMED,
    "beta": ALL_REFUTED,
    "proj": [(771, 210, "\\x0:_|_. mu a0:P. (<x0, x0> p1)", {0: 771})]
    + ALL_CONFIRMED[1:],
    "case-inj": [(945, 36, "\\x0:_|_. (in1{P} mu a0:P. x0 "
                           "[x1.x1, x1.x1]{P})", {0: 945}),
                 ALL_CONFIRMED[1]] + ALL_REFUTED[2:],
    "case-perm": ALL_CONFIRMED,
    "mu-struct": ALL_REFUTED,
}


@pytest.fixture(scope="module")
def law_subjects():
    return {formula: enumerate_typed_terms(
                SIZE, target=parse_formula(formula)).entries
            for formula in LAW_PROBES}


def test_probe_reports(law_subjects):
    # every probe report over each law's inhabitants, traces included,
    # byte for byte: 981 ex falso, 11 Peirce, 31 of each disjunct order
    lines = [json.dumps(probe(entry.term).to_json())
             for formula, probe in LAW_PROBES.items()
             for entry in law_subjects[formula]]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        1054, "a3c95d37b389a8de323ba7c67dda13590bc37819bddedfda3a266c6811882236")


def test_probe_verdicts_are_invariant_under_reduction(law_subjects):
    # every node of each law inhabitant's reduction graph, the subject
    # included, gets the subject's verdict and m, as a realisability
    # reading, closed under reduction, predicts.  Thetas and traces may
    # differ between a subject and its reducts, so they are not compared
    nodes = Counter()
    for formula, probe in LAW_PROBES.items():
        for entry in law_subjects[formula]:
            report = probe(entry.term)
            for term in reduction_graph(entry.term).nodes.values():
                nodes[formula] += 1
                reduct = probe(term)
                assert (reduct.verdict, reduct.m) == \
                    (report.verdict, report.m), print_term(term)
    assert nodes == {"_|_ -> P": 3511, "(~P -> P) -> P": 12,
                     "~P \\/ P": 46, "P \\/ ~P": 46}


def test_corpus_graph_traces():
    # the trace to every node of every graph, each step's redex and
    # both its terms printed: a shortest reduction along first edges
    lines = []
    for entry in enumerate_typed_terms(SIZE).entries:
        graph = reduction_graph(entry.term)
        lines.extend(json.dumps(graph.trace_to(key).to_json_lines())
                     for key in graph.nodes)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        8830, "3eecd029bca1b87700834cee549aad2fb453ec0fc6d99d59782f67f39b6124e6")


@pytest.mark.parametrize("removed", RULE_REMOVAL)
def test_probe_verdicts_without_a_rule(monkeypatch, law_subjects, removed):
    # which rules each behaviour result needs at size 10: every
    # inhabitant of each law probed with one reduction rule dropped
    contract = reduction._contract

    def dropped(t):
        out = contract(t)
        return None if out is not None and out[0] == removed else out

    monkeypatch.setattr(reduction, "_contract", dropped)
    table = []
    for formula, probe in LAW_PROBES.items():
        verdicts, smallest, ms = Counter(), None, Counter()
        for entry in law_subjects[formula]:
            report = probe(entry.term, node_cap=2000)
            verdicts[report.verdict] += 1
            if report.verdict == "confirmed":
                ms[report.m] += 1
            elif report.verdict == "refuted" and smallest is None:
                smallest = print_term(entry.term)
        table.append((verdicts["confirmed"], verdicts["refuted"], smallest,
                      ms))
    assert table == RULE_REMOVAL[removed]


def test_strong_normalization_facts():
    sn = run_suite(enumerate_typed_terms(SIZE))[2]
    paths = sn.longest_paths
    assert (sn.checked, len(sn.failures), len(sn.incomplete)) == (2604, 0, 0)
    assert (sum(paths.values()), sum(n * k for n, k in paths.items())) == \
        (2604, 4786)
    assert paths == {0: 82, 1: 595, 2: 1590, 3: 337}


def test_suite_expands_and_checks_each_key_once(monkeypatch):
    # one expansion per distinct node of the corpus's graphs
    # (test_corpus_graph_facts): a reduct keeps its root's one formula,
    # so the memos of two formulas share no key.  The roots are typed
    # by construction, so only the 485 keys that reduction made and no
    # root holds are type-checked, and those are the only reducts built.
    # No term is walked for its depth, since no key passes MAX_NESTING
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(reduction, "_steps")
    counted(reduction, "shape")
    counted(metatheory, "_type_error")
    rebuild = reduction._rebuild

    def built(t, position, contractum, depth=0):
        calls["_rebuild"] += not depth  # once per reduct, not per level
        return rebuild(t, position, contractum, depth)

    monkeypatch.setattr(reduction, "_rebuild", built)
    run_suite(enumerate_typed_terms(SIZE))
    assert {name: calls[name] for name in
            ("_steps", "_rebuild", "_type_error", "shape")} == {
        "_steps": 3089, "_rebuild": 485, "_type_error": 485, "shape": 0}


def test_searches_walk_only_their_roots(monkeypatch, law_subjects):
    # every search walks its root, and a contractum is walked only when
    # its key passes MAX_NESTING, which no key of these searches does
    walks = 0
    shape = reduction.shape

    def counted(t):
        nonlocal walks
        walks += 1
        return shape(t)

    monkeypatch.setattr(reduction, "shape", counted)
    for formula, probe in LAW_PROBES.items():
        for entry in law_subjects[formula]:
            probe(entry.term)
    assert walks == 1201


def test_spliced_reduct_keys(monkeypatch, law_subjects):
    # every reduct of every node that the size-10 corpus graphs and the
    # size-10 probe searches expand: the key spliced from its parent's
    # is the key of the reduct built and printed afresh.  Probe nodes
    # are open, with free names, and some of their redexes sit in a
    # case bracket's second branch
    expanded = {}
    steps = reduction._steps

    def recorded(t):
        out = steps(t)
        expanded.setdefault(alpha_key(t), (t, out))
        return out

    monkeypatch.setattr(reduction, "_steps", recorded)
    for entry in enumerate_typed_terms(SIZE).entries:
        reduction_graph(entry.term)
    assert len(expanded) == 3089
    corpus = set(expanded)
    for formula, probe in LAW_PROBES.items():
        for entry in law_subjects[formula]:
            probe(entry.term)
    probed = [expanded[k] for k in expanded if k not in corpus]
    assert len(probed) == 3097
    assert any(2 in p for _, out in probed for p, _, _, _ in out)
    for t, out in expanded.values():
        for p, _, key, contractum in out:
            reduct = reduction._rebuild(t, p, contractum)
            assert key == alpha_key(parse_term(print_term(reduct)))


def test_formula_size_5_corpus_facts():
    # the wider universe that holds the classical laws' types: its
    # entries, printed in order, and every oracle's verdict over them
    corpus = enumerate_typed_terms(8, max_formula_size=5)
    lines = [f"{print_term(e.term)} : {print_formula(e.formula)}"
             for e in corpus.entries]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        9248, "9054771a29635b785fea84b870d0eabcdee9fb1191e4b82208e623c937eccd3a")
    assert [(r.property, r.checked, len(r.failures), len(r.incomplete))
            for r in run_suite(corpus)] == [
        (name, 9248, 0, 0) for name in PROPERTIES]


@pytest.mark.parametrize("target, count, digest", [
    ("(~Q -> Q) -> Q", 38,
     "8aa080214c331ad03cb14b1e985f7357b0d4f19a7181795a3e55d6d4a41b0369"),
    ("Q \\/ ~Q", 33,
     "b89470fb742263f42e73b22b7e10242e4e427432c2aab3e7265917c99e56bd93"),
    ("P /\\ Q -> Q /\\ P", 8,
     "44273722699a1e2fe6cf755225484a31ee1d40e7c02b8d16113aa5034cc00f5b"),
    ("(P -> Q) -> ~Q -> ~P", 14,
     "14cf3257525ee5ada1663d253e8e44f88e5c13208efc5f367fa1e3dc35377d93"),
])
def test_second_atom_target_corpus(target, count, digest):
    # each atom of a target brings its own cut shapes, so these size-11
    # inhabitants, printed in order, pin the eliminations over a second
    # atom as well as over P
    corpus = enumerate_typed_terms(11, target=parse_formula(target))
    lines = [f"{print_term(e.term)} : {print_formula(e.formula)}"
             for e in corpus.entries]
    assert (len(lines), hashlib.sha256(
        "\n".join(lines).encode()).hexdigest()) == (count, digest)


def test_capped_suite_output():
    # lambdamu suite at size 9 under a node cap of 3, byte for byte: an
    # entry whose keys, counted through the memo, pass the cap is
    # incomplete in every report
    text = _stdout("suite", "--max-size", "9", "--node-cap", "3", "--json")
    assert [(r["property"], r["checked"], len(r["failures"]),
             len(r["incomplete"]))
            for r in map(json.loads, text.splitlines())] == [
        (name, 641, 0, 328) for name in PROPERTIES]
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "236f276153b6b15f3aab1e21fb9465cfca0916739b0eb73c20d3e7a424cbefd9"


# --------------------------------------------------------------------------
# run_suite, with a memo per run, against one fresh graph per entry
# --------------------------------------------------------------------------

def reference_suite(corpus, node_cap):
    """The three reports from one reduction_graph per entry, no memo:
    every node re-checks (a failure reports the error of the node's
    canonical form, parsed again), and SuccessorFacts over the graph's
    own edges, between printed nodes, decides confluence and
    acyclicity, its witnesses worded here; longest paths are counted
    by their length."""
    reports = [PropertyReport(name) for name in PROPERTIES]
    sr, cf, sn = reports
    for entry in corpus.entries:
        try:
            graph = reduction_graph(entry.term, node_cap)
        except ReductTooDeep:
            graph = None
        for report in reports:
            if graph is None or not graph.complete:
                report.incomplete.append(entry)
            else:
                report.checked += 1
        if graph is None or not graph.complete:
            continue
        text = graph.printed()
        for printed in text.values():
            try:
                check(dict(entry.gamma), dict(entry.delta),
                      parse_term(printed), entry.formula)
            except TypeCheckError as exc:
                sr.failures.append((entry, f"reduct {printed}: {exc}"))
        succ = {printed: [] for printed in text.values()}
        for src, _, _, dst in graph.edges:
            succ[text[src]].append(text[dst])
        facts = SuccessorFacts(succ)
        root = text[graph.root]
        witnesses = facts.confluence_failure(root)
        longest, _ = facts.lookup(root)
        if witnesses is not None and longest is not None:
            cf.failures.append((entry, f"{len(witnesses)} distinct normal "
                                       f"forms: {witnesses}"))
        elif witnesses is not None:
            a, b = witnesses
            cf.failures.append((entry, f"unjoinable pair: {a} vs {b}"))
        if longest is not None:
            paths = sn.longest_paths
            paths[longest] = paths.get(longest, 0) + 1
        else:
            sn.failures.append((entry, "reduction graph has a cycle"))
    return reports


def _entry(term, formula, gamma=None, delta=None):
    """An entry built directly, so that it may be listed at a wrong type."""
    def ctx(c):
        return tuple(sorted((k, parse_formula(v))
                            for k, v in (c or {}).items()))
    return CorpusEntry(parse_term(term), parse_formula(formula),
                       ctx(gamma), ctx(delta))


def _mu_struct_too_deep():
    """Each mu-struct appends w under each of the 61 [a] names, so the
    second reduct nests past the bound."""
    term = "y"
    for i in range(60):
        term = f"mu b{i}:P. [a] {term}"
    return _entry(f"((mu a:P. [a] {term} w) w)", "P", {"y": "P", "w": "P"})


# the same reducts at different formulas and contexts, listed right and
# wrong, so later entries meet reducts that the memo holds and their
# graphs do not walk
SHARED = [
    _entry("(\\x:P -> P. x \\y:P. y)", "P -> P"),
    _entry("(\\x:P -> P. x \\y:P. y)", "P"),
    _entry("\\z:P. z", "P -> P"),
    _entry("\\z:P. z", "Q -> Q"),
    _entry("(\\x:P. z u)", "P", {"z": "P", "u": "P"}),
    _entry("(\\x:P. z u)", "Q", {"z": "Q", "u": "P"}),
    _entry("z", "P", {"z": "Q"}),
    _entry("[a] (\\x:P. x u)", "_|_", {"u": "P"}, {"a": "P"}),
    _entry("[a] (\\x:P. x u)", "_|_", {"u": "P"}, {"a": "Q"}),
    _entry("(mu a:P -> P. [a] \\x:P. x (\\y:P. y v))", "P", {"v": "P"}),
    _entry("(mu a:P -> P. [a] \\x:P. x (\\y:P. y v))", "P", {"v": "Q"}),
    # ill-typed reducts whose evidence names binders beside contexts that
    # bind canonical names: x0 free in the term and x1 in the context
    # only, then x0 in the context only
    _entry("(\\x:P -> P. \\y:P. (x y) x0)", "P -> P", {"x0": "Q", "x1": "P"}),
    _entry("(\\x:Q. \\y:P. (x y) z)", "P -> P", {"x0": "P", "z": "Q"}),
]

# a growing loop that hits the cap of 5; its own reduct, which admits
# the reduct the loop's graph dropped; an entry under the cap; and one
# with a reduct nested too deeply
GROWING = "(\\x:~P. [a] (x x) \\x:~P. [a] (x x))"
CAPPED = [_entry(GROWING, "_|_", {}, {"a": "P"}),
          _entry(f"[a] {GROWING}", "_|_", {}, {"a": "P"}),
          _entry("(\\x:P -> P. x \\y:P. y)", "P -> P"),
          _mu_struct_too_deep()]
# an entry whose four keys fit the cap of 5, then one with three keys
# new to the memo that reaches seven through it: the first entry's root,
# that root's reducts and its own
UV = {"u": "P", "v": "P"}
REACHED = [_entry("(\\x:P. x (<u, v> p1))", "P", UV),
           _entry("(<(\\x:P. x (<u, v> p1)), v> p1)", "P", UV)]
# the looping control, next to a normal entry
LOOPING = [_entry("(\\x:~P. (x x) \\x:~P. (x x))", "P -> P"),
           _entry("\\x:~P. (x x)", "~P -> _|_")]


# the four lists above dealt out in turn, so that each formula and
# contexts recur after others, and the size-8 corpus shuffled: run_suite
# starts afresh at each change, and each verdict reads only the keys its
# root reaches, so the reports stay those of one graph per entry
INTERLEAVED = [e for row in zip_longest(SHARED, CAPPED, REACHED, LOOPING)
               for e in row if e is not None]
SHUFFLED = enumerate_typed_terms(8).entries
random.Random(42).shuffle(SHUFFLED)


@pytest.mark.parametrize("corpus, node_cap", [
    (enumerate_typed_terms(8), DEFAULT_NODE_CAP),
    (Corpus(SHARED), DEFAULT_NODE_CAP),
    (Corpus(CAPPED), 5),
    (Corpus(REACHED), 5),
    (Corpus(LOOPING), 50),
    (Corpus(INTERLEAVED), 5),
    (Corpus(INTERLEAVED), 50),
    (Corpus(SHUFFLED, typed=True), DEFAULT_NODE_CAP),
], ids=["size-8", "shared", "capped", "reached", "looping",
        "interleaved-5", "interleaved-50", "size-8-shuffled"])
def test_run_suite_matches_one_graph_per_entry(corpus, node_cap):
    suite = run_suite(corpus, node_cap)
    reference = reference_suite(corpus, node_cap)
    for got, want in zip(suite, reference, strict=True):
        assert got.property == want.property
        assert got.checked == want.checked
        assert got.failures == want.failures
        assert got.incomplete == want.incomplete
        assert got.longest_paths == want.longest_paths


# --------------------------------------------------------------------------
# Type-error messages
# --------------------------------------------------------------------------

def _ill_typed():
    """(gamma, delta, term): one for each error the checker raises, most
    of them under lambda- and mu-binders, so that the printed subterm
    needs the binders' names."""
    P, Q = parse_formula("P"), parse_formula("Q")
    texts = [
        ({}, {}, "\\x0:P. mu a0:Q. [a0] y"),                # unbound variable
        ({}, {}, "\\x0:P. mu a0:_|_. [b] x0"),              # unbound name
        ({}, {}, "\\x0:P. \\x1. x0"),                       # lambda annotation
        ({}, {}, "\\x0:P. mu a0:P. [a0] in1 x0"),           # in1 annotation
        ({}, {}, "\\x0:P. mu a0:P. [a0] in2 x0"),           # in2 annotation
        ({}, {}, "\\x0:P. mu a0. [a0] x0"),                 # mu annotation
        ({}, {}, "\\x0:P. mu a0:P. x0"),                    # mu body
        ({}, {"b": Q}, "\\x0:P. [b] x0"),                   # named, free name
        ({}, {}, "\\x0:P. mu a0:Q. mu a1:P. [a0] x0"),      # named, bound name
        ({}, {}, "\\x0:P. mu a0:Q. [a0] (x0 x0)"),          # not a function
        ({}, {}, "\\x0:P -> Q. \\x1:Q. (x0 x1)"),           # argument type
        ({}, {}, "\\x0:P. mu a0:P. [a0] (x0 p1)"),          # p1
        ({}, {}, "\\x0:P. mu a0:Q. [a0] (x0 p2)"),          # p2
        ({}, {}, "\\x0:P. (x0 [x1.x1, x2.x2])"),            # scrutinee
        ({}, {}, "\\x0:P \\/ P. (x0 [x1.x1, x2.x2]{Q})"),   # case annotation
        ({}, {}, "\\x0:P \\/ Q. (x0 [x1.x1, x2.x2])"),      # case branches
        ({"y": P, "z": Q}, {}, "(\\x0:P. \\x1:Q. x0 y)"),   # open, typed
    ]
    out = [(gamma, delta, parse_term(text)) for gamma, delta, text in texts]
    # dangling indices, which no text can write
    out.append(({}, {}, Abs("x0", P, Var(1))))
    out.append(({"x": BOT}, {}, Mu("a0", P, Named(1, Var("x")))))
    # a node that is not a term
    out.append(({"f": Arrow(P, P)}, {}, App(Var("f"), "junk")))
    out.append(({"x": P}, {}, Pair(Var("x"), None)))
    # an application whose function and argument are both wrong: the
    # argument is refused before the function is inferred
    out.append(({}, {}, App(Var("f"), "junk")))
    out.append(({}, {}, App(Abs("x0", None, Var(0)), "junk")))
    out.append(({"y": P}, {}, App(App(Var("g"), "junk"), Var("y"))))
    return out


def _error(fn, *args):
    try:
        fn(*args)
    except TypeCheckError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def test_type_error_messages():
    # every size-9 corpus term at its formula and at a wrong one, each
    # with its annotations erased, and the ill-typed variants; the
    # message of every error check and infer raise, in order; and
    # check's formula is infer's wherever the term is typed
    lines = []
    for entry in enumerate_typed_terms(9).entries:
        t, a = entry.term, entry.formula
        wrong = Arrow(a, a)
        assert check({}, {}, t) == infer({}, {}, t).conclusion.formula == a
        lines.append(_error(check, {}, {}, t, a))
        lines.append(_error(check, {}, {}, t, wrong))
        lines.append(_error(check, {}, {}, erase(t), a))
        lines.append(_error(infer, {}, {}, erase(t)))
    for gamma, delta, t in _ill_typed():
        lines.append(_error(infer, gamma, delta, t))
        if lines[-1] == "ok":
            assert check(gamma, delta, t) == \
                infer(gamma, delta, t).conclusion.formula
        lines.append(_error(check, gamma, delta, t, BOT))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        3924, "2f38432526aff2db27fdbd854911f5bb397c909cc45b49fa39a49e693b760489")


# --------------------------------------------------------------------------
# Derivations
# --------------------------------------------------------------------------

def _rules(d, counts):
    counts[d.rule] += 1
    for p in d.premises:
        _rules(p, counts)


def test_corpus_derivations():
    # every size-9 corpus term, as enumerated and with every binder named
    # x, under empty contexts and under contexts whose names the binders'
    # hints collide with: each derivation validates, every rule occurs,
    # and the JSON of all of them, names and all, is pinned
    P = parse_formula("P")
    contexts = [({}, {}), ({"x": P, "x0": P}, {"x1": P})]
    digest, count, rules = hashlib.sha256(), 0, Counter()
    for entry in enumerate_typed_terms(9).entries:
        for t in (entry.term, rename_binders(entry.term, lambda k, h: "x")):
            for gamma, delta in contexts:
                d = infer(gamma, delta, t)
                validate_derivation(d)
                digest.update(json.dumps(derivation_to_json(d)).encode())
                digest.update(b"\n")
                count += 1
                _rules(d, rules)
    assert count == 3876
    assert rules == {
        "ax": 8352, "arrow-i": 6500, "arrow-e": 3180, "and-i": 648,
        "and-e1": 1076, "and-e2": 1076, "or-i1": 132, "or-i2": 132,
        "or-e": 324, "abs-i": 2592, "abs-e": 6068}
    assert digest.hexdigest() == \
        "768c2ce9f7263a78f46b7e436d331b1471a8c78973d9f8d0ca45a73810be9419"


# --------------------------------------------------------------------------
# Graph output
# --------------------------------------------------------------------------

# open inputs whose free names look like the names canonical printing
# gives binders, so every node's printing must skip them; the last one
# hits the node cap
OPEN_GRAPHS = [
    ("(\\x:P. \\y:P. (x0 (x y)) x1)", "x0,x1", []),
    ("(mu a:P. [a] mu b:P. [a0] (x0 [a] a1) w)", "a0,a1,x0,w", []),
    ("(\\x:P. <x, x0> (<a0, x1> p1))", "x0,x1,a0", []),
    ("((s [x.(x0 x), y.y]) x1)", "s,x0,x1", []),
    ("(\\x:~P. [a0] (x x) \\x:~P. [a0] (x x))", "a0", ["--node-cap", "5"]),
]


def _graph_lines(*argv):
    """The exit code and stdout of lambdamu graph, as JSON and as --dot."""
    lines = []
    for fmt in ([], ["--dot"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["graph", *argv, *fmt])
        lines.append(f"{code}\t{out.getvalue()}")
    return lines


def test_graph_output():
    # the JSON and the dot text of every size-9 corpus graph and of the
    # open inputs, byte for byte
    lines = []
    for entry in enumerate_typed_terms(9).entries:
        lines += _graph_lines("--term", print_term(entry.term))
    for text, open_vars, cap in OPEN_GRAPHS:
        lines += _graph_lines("--term", text, "--open", open_vars, *cap)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        1948, "4812e1011556caf4e23ef651fba817277507d27836735d824447a117f14a5443")


# --------------------------------------------------------------------------
# Formula printing
# --------------------------------------------------------------------------

def test_formula_printing():
    # the text of every formula of up to 7 nodes, parentheses and
    # negations and all, which a re-parse alone would not see
    lines = [print_formula(f) for f in formula_pool(7)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        2318, "de0e4996bbc9878baea4e16d5a21edb94119c6ab7df638b379373709e6eaea99")


# --------------------------------------------------------------------------
# Parse errors
# --------------------------------------------------------------------------

# a token of the concrete grammar, found apart from the parser's own lexer
_TOKEN = re.compile(r"_\|_|->|/\\|\\/|[\\.:,~<>()\[\]{}]|[\w']+")

# inputs no token deletion makes: characters outside the grammar,
# shadowing, a name in both roles, nesting past the bound
MALFORMED = [
    "", "  ", "x $", "\u00bd", "x \u00bd", "x\u00bd", "2x", "'x", "x'",
    "P_|_", "_|_x", "\u00e9", "\\x:P. x\t", "\\x:P. \\x:P. x",
    "[x] x", "mu a:P. [a] \\a:P. a", "(x [y.y, y.y])", "in1{P x",
    "\\x:P ->. x", "mu a:P. [a] a", "\\x:P. (x [x.x, y.y])", "(x p3)",
    "(x [a] y)", "<x, y", "~" * 199 + "P", "~" * 200 + "P", "(" * 200 + "x",
    "\\x:" + "~" * 199 + "P. x",
]


def _parse_error(parse, text) -> str:
    try:
        parse(text)
    except ParseError as exc:
        return f"{exc}|{exc.position}|{exc.expected}"
    return "ok"


def test_parse_error_messages():
    # every size-7 corpus text with each of its tokens deleted in turn,
    # and the malformed inputs above, parsed as a term and as a formula:
    # the message, position and expectation of every error, in order
    texts = []
    for entry in enumerate_typed_terms(7).entries:
        text = print_term(entry.term)
        texts += [text[:m.start()] + text[m.end():]
                  for m in _TOKEN.finditer(text)]
    texts += MALFORMED
    lines = [_parse_error(parse, text) for text in texts
             for parse in (parse_term, parse_formula)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(texts), len(lines) - lines.count("ok"), digest) == (
        2773, 5383,
        "2e2aed85a503c59438c0b41664211fbfef93cd7f32d628a42b70524288baba8c")
