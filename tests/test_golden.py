"""Golden whole-corpus facts at term size 10.

These pin the work the reduction engine and the probes do over the
default corpus, so a refactor of the explorer or the oracles cannot
change the graphs, the searches or the verdicts without failing here.
"""

import contextlib
import hashlib
import io
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from lambdamu import (
    BOT, Abs, App, Arrow, Corpus, Mu, Named, Pair, ParseError, PropertyReport,
    ReductTooDeep, TypeCheckError, Var, alpha_key, behavior, check,
    enumerate_typed_terms, erase, infer, parse_formula, parse_term, print_term,
    run_suite,
)
from lambdamu.cli import main
from lambdamu.metatheory import PROPERTIES, CorpusEntry
from lambdamu.reduction import (
    DEFAULT_NODE_CAP, RULE_IDS, SuccessorFacts, reduction_graph,
)
from lambdamu.terms import rename_binders

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


def test_strong_normalization_facts():
    sn = run_suite(enumerate_typed_terms(SIZE))[2]
    paths = sn.longest_paths.values()
    assert (sn.checked, len(sn.failures), len(sn.incomplete)) == (2604, 0, 0)
    assert (len(paths), sum(paths)) == (2604, 4786)
    assert Counter(paths) == {0: 82, 1: 595, 2: 1590, 3: 337}


# --------------------------------------------------------------------------
# run_suite, with its one memo, against one fresh graph per entry
# --------------------------------------------------------------------------

def reference_suite(corpus, node_cap):
    """The three reports from one reduction_graph per entry, no memo:
    every node re-checks (a failure reports the error of the node's
    canonical form, parsed again), and SuccessorFacts over the graph's
    own edges, between printed nodes, decides confluence and
    acyclicity, its witnesses worded here; longest paths are listed by
    the root's key."""
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
        witnesses = facts.confluence_failure(root, succ)
        if witnesses is not None and facts.acyclic(root):
            cf.failures.append((entry, f"{len(witnesses)} distinct normal "
                                       f"forms: {witnesses}"))
        elif witnesses is not None:
            a, b = witnesses
            cf.failures.append((entry, f"unjoinable pair: {a} vs {b}"))
        if facts.acyclic(root):
            sn.longest_paths[graph.root] = facts.longest_path(root)
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
# wrong, so later entries meet reducts served from the memo, with no term
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
# the looping control, next to a normal entry
LOOPING = [_entry("(\\x:~P. (x x) \\x:~P. (x x))", "P -> P"),
           _entry("\\x:~P. (x x)", "~P -> _|_")]


@pytest.mark.parametrize("corpus, node_cap", [
    (enumerate_typed_terms(8), DEFAULT_NODE_CAP),
    (Corpus(SHARED), DEFAULT_NODE_CAP),
    (Corpus(CAPPED), 5),
    (Corpus(LOOPING), 50),
], ids=["size-8", "shared", "capped", "looping"])
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
        3918, "25452f9db26ea6bc12158e8e22567cbda5b2bdd7db06515e580d18050e5aaf16")


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
