"""One-step reduction, normalization, traces, and reduction graphs."""

import pytest

from lambdamu import (
    Abs, App, Arrow, BOT, FuelExhausted, Mu, Named, Pair, PropVar,
    ReductionGraph, ReductionStep, ReductTooDeep, Var, canonical_form,
    canonical_terms, close, enumerate_typed_terms, erase, infer, normalize,
    parse_term, print_term, redexes, reduction_graph,
)
from lambdamu.reduction import (
    InvalidPosition, SuccessorFacts, step_at, term_depth,
)
from lambdamu.syntax import MAX_NESTING
from lambdamu.typecheck import TypeCheckError

P = PropVar("P")
Q = PropVar("Q")

# --------------------------------------------------------------------------
# The five rules, at the root
# --------------------------------------------------------------------------

@pytest.mark.parametrize("src, rule, expected", [
    # beta
    ("(\\x:P. <x, x> y)", "beta", "<y, y>"),
    # proj
    ("(<u, v> p1)", "proj", "u"),
    ("(<u, v> p2)", "proj", "v"),
    # case-inj
    ("(in1{Q} w [x.<x, x>, y.z])", "case-inj", "<w, w>"),
    ("(in2{Q} w [x.z, y.<y, y>])", "case-inj", "<y0, y0>".replace("y0", "w")),
])
def test_simple_rules(src, rule, expected):
    step = step_at(parse_term(src), ())
    assert step.rule == rule
    assert step.after == parse_term(expected)


def test_case_perm():
    step = step_at(parse_term("((s [x.u, y.v]) w)"), ())
    assert step.rule == "case-perm"
    assert step.after == parse_term("(s [x.(u w), y.(v w)])")


def test_mu_struct():
    step = step_at(parse_term("(mu a:P -> Q. [a] f w)"), ())
    assert step.rule == "mu-struct"
    assert step.after == parse_term("mu a:Q. [a] (f w)")


@pytest.mark.parametrize("src, p, expected", [
    # w is bound outside the redex and moves under a case binder ...
    ("\\w:P. ((s [x.x, y.y]) w)", (0,), "\\w:P. (s [x.(x w), y.(y w)])"),
    # ... and [k] w under the mu, a lambda- and a mu-binder
    ("\\w:P. mu k:P. (mu a:P -> P. [a] \\z:P. mu b:P. [a] f [k] w)", (0, 0),
     "\\w:P. mu k:P. mu a:P. [a] (\\z:P. mu b:P. [a] (f [k] w) [k] w)"),
    # a binder of the argument lands under a binder of the body
    ("\\w:P. (\\x:P. \\z:P. <x, z> <w, \\q:P. w>)", (0,),
     "\\w:P. \\z:P. <<w, \\q:P. w>, z>"),
])
def test_contraction_under_binders_shifts(src, p, expected):
    assert step_at(parse_term(src), p).after == parse_term(expected)


def test_mu_struct_consumes_projection_annotation():
    got = step_at(parse_term("(mu a:P /\\ Q. [a] p p2)"), ()).after
    assert isinstance(got, Mu)
    assert got.ann == Q
    assert got == parse_term("mu a:Q. [a] (p p2)")


def test_mu_struct_case_annotation():
    got = step_at(parse_term("(mu a:P \\/ P. [a] w [x.x, y.y]{Q})"), ()).after
    assert got.ann == Q


def test_case_perm_repairs_annotation():
    got = step_at(parse_term("((s [x.f, y.g]{P -> Q}) w)"), ()).after
    assert got.arg.ann == Q


def test_no_rule_at_normal_roots():
    for src in ["x", "\\x:P. x", "<x, y>", "(f x)", "mu a:P. [a] x",
                "(w [x.x, y.y])"]:
        with pytest.raises(InvalidPosition):
            step_at(parse_term(src), ())


# --------------------------------------------------------------------------
# Positions, redexes, successors
# --------------------------------------------------------------------------

def test_redexes_leftmost_outermost_order():
    t = parse_term("<(\\x:P. x u), (<a, b> p1)>")
    rs = redexes(t)
    assert [rule for _, rule in rs] == ["beta", "proj"]
    assert rs[0][0] == (0,)
    assert rs[1][0] == (1,)


def test_nested_redex_positions():
    t = parse_term("(\\x:P. (\\y:Q. y z) u)")
    rs = redexes(t)
    assert rs[0] == ((), "beta")
    assert rs[1] == ((0, 0), "beta")


def test_step_at_rebuilds_around_the_contractum():
    t = parse_term("<(\\x:P. x u), y>")
    assert step_at(t, (0,)).after == Pair(step_at(t.fst, ()).after, Var("y"))


def test_invalid_position():
    with pytest.raises(InvalidPosition):
        step_at(Var("x"), ())
    with pytest.raises(InvalidPosition):
        step_at(parse_term("(\\x:P. x u)"), (0,))
    # a subterm that no printer can print without its binders' names
    body = parse_term("\\x:P. mu a:P. [a] (\\y:P. y x)").body
    with pytest.raises(InvalidPosition, match=r"no redex at position \(5,\)"):
        step_at(body, (5,))


def test_successors_counts_overlapping_redexes():
    # two distinct one-step reducts: beta at root, proj inside
    t = parse_term("(\\x:P. x (<u, v> p1))")
    succ = [step_at(t, p).after for p, _ in redexes(t)]
    assert len(succ) == 2
    forms = {canonical_form(s) for s in succ}
    assert canonical_form(parse_term("(<u, v> p1)")) in forms
    assert canonical_form(parse_term("(\\x:P. x u)")) in forms


def test_step_at_records_rule_and_position():
    t = parse_term("<y, (\\x:P. x u)>")
    step = step_at(t, (1,))
    assert isinstance(step, ReductionStep)
    assert step.rule == "beta"
    assert step.position == (1,)
    assert step.before == t
    assert step.after == parse_term("<y, u>")


def test_is_normal():
    assert not redexes(parse_term("\\x:P. x"))
    assert redexes(parse_term("(\\x:P. x y)"))


# --------------------------------------------------------------------------
# Normalization and traces
# --------------------------------------------------------------------------

def test_normalize_golden_T_applied():
    # ((T t) u) with T = \z:_|_. mu a:P. z reduces in two steps to mu a. t
    T, _ = canonical_terms()["T"]
    t = App(App(T, Var("t")), Var("u"))
    nf, trace = normalize(t)
    assert len(trace.steps) == 2
    assert [s.rule for s in trace.steps] == ["beta", "mu-struct"]
    assert isinstance(nf, Mu)
    assert print_term(erase(nf)) == "mu a. t"


def test_normalize_already_normal():
    t = parse_term("\\x:P. x")
    nf, trace = normalize(t)
    assert nf == t
    assert trace.steps == []
    assert trace.initial is t


@pytest.mark.parametrize("lambdas, redex", [
    (197, "(\\y:P. y x0)"),
    (196, "(mu a:P. [a] x0 x0)"),
])
def test_redex_at_the_nesting_bound(lambdas, redex):
    # finding and contracting the innermost redex of a term nested
    # exactly MAX_NESTING deep stays within the default recursion limit
    t = parse_term("".join(f"\\x{i}:P. " for i in range(lambdas)) + redex)
    assert term_depth(t) == MAX_NESTING
    _, trace = normalize(t)
    assert len(trace.steps) == 1
    assert len(reduction_graph(t).nodes) == 2


def test_trace_json_lines():
    t = parse_term("(\\x:P. x y)")
    _, trace = normalize(t)
    lines = trace.to_json_lines()
    assert lines[0]["rule"] == "beta"
    assert lines[0]["position"] == []
    assert lines[0]["after"] == "y"
    assert lines[0]["index"] == 0


def test_normalize_fuel_exhausted_on_loop():
    t = _looping_term()
    with pytest.raises(FuelExhausted) as ei:
        normalize(t, fuel=50)
    assert len(ei.value.trace.steps) == 50


def _looping_term():
    """(half half) with half = \\x:~P. (x x): beta-reduces to itself.

    Built untypeable on purpose: it is the negative control showing that
    fuel exhaustion and cycle detection fire outside the typed fragment.
    """
    half = close(Abs("x", Arrow(P, BOT), App(Var("x"), Var("x"))))
    return App(half, half)


def test_looping_term_is_untypeable():
    with pytest.raises(TypeCheckError):
        infer({}, {}, _looping_term())


# --------------------------------------------------------------------------
# Reduction graphs
# --------------------------------------------------------------------------

def _successors(g: ReductionGraph) -> dict[str, list[str]]:
    """The keys of each node's one-step reducts, read off g's edges."""
    succ = {k: [] for k in g.nodes}
    for src, _, _, dst in g.edges:
        succ[src].append(dst)
    return succ


def test_graph_of_normal_term():
    g = reduction_graph(parse_term("\\x:P. x"))
    assert g.complete
    assert list(g.nodes) == [g.root]
    succ = _successors(g)
    facts = SuccessorFacts(succ)
    assert [k for k in succ if not succ[k]] == [g.root]
    assert facts.acyclic(g.root)
    assert facts.longest_path(g.root) == 0


def test_graph_diamond_confluence():
    t = parse_term("(\\x:P. <x, x> (<u, v> p1))")
    g = reduction_graph(t)
    assert g.complete
    succ = _successors(g)
    facts = SuccessorFacts(succ)
    assert facts.acyclic(g.root)
    nfs = [canonical_form(g.nodes[k]) for k in succ if not succ[k]]
    assert nfs == [canonical_form(parse_term("<u, u>"))]
    assert facts.confluence_failure(g.root, g.nodes) is None
    assert facts.longest_path(g.root) >= 2


def test_graph_cycle_detected():
    g = reduction_graph(_looping_term(), node_cap=10)
    succ = _successors(g)
    assert not SuccessorFacts(succ).acyclic(g.root)
    assert [k for k in succ if not succ[k]] == []


def _growing_loop():
    """(half half) with half = \\x:~P. [a] (x x): every reduct is new."""
    half = close(Abs("x", Arrow(P, BOT),
                     Named("a", App(Var("x"), Var("x")))))
    return App(half, half)


def test_graph_node_cap():
    # a growing (non-cyclic) loop hits the cap and is flagged incomplete
    g = reduction_graph(_growing_loop(), node_cap=10)
    assert not g.complete


def test_graph_cap_ends_expansion():
    # nodes are expanded in breadth-first order up to the one whose
    # reduct the cap dropped; the nodes after it have no edges
    g = reduction_graph(_growing_loop(), node_cap=10)
    assert len(g.nodes) == 10
    text = g.printed()
    nodes = set(text.values())
    expanding = True
    for key, term in g.nodes.items():
        edges = [text[dst] for src, _, _, dst in g.edges if src == key]
        if expanding:
            reducts = [canonical_form(step_at(term, p).after)
                       for p, _ in redexes(term)]
            assert edges == [dst for dst in reducts if dst in nodes]
            expanding = all(dst in nodes for dst in reducts)
        else:
            assert edges == []
    assert not expanding


def test_graph_cap_still_tests_stop():
    # stop is tested on the nodes queued after the cap, too
    seen = []
    g = reduction_graph(_growing_loop(), node_cap=10,
                        stop=lambda term: seen.append(term))
    assert g.stopped is None
    assert seen == list(g.nodes.values())


def test_graph_stop_and_trace_to():
    t = parse_term("(\\x:P. <x, x> (<u, v> p1))")
    g = reduction_graph(t, stop=lambda term: not redexes(term))
    stopped = canonical_form(g.nodes[g.stopped])
    assert stopped == canonical_form(parse_term("<u, u>"))
    trace = g.trace_to(g.stopped)
    assert trace.initial is t
    assert canonical_form(trace.steps[-1].after) == stopped
    for before, step in zip([t] + [s.after for s in trace.steps], trace.steps):
        assert step.before is before
    assert g.trace_to(g.root).steps == []


def test_graph_stop_at_root_expands_nothing():
    t = parse_term("(\\x:P. x y)")
    g = reduction_graph(t, stop=lambda term: True)
    assert g.stopped == g.root
    assert list(g.nodes) == [g.root]
    assert g.edges == []


# --------------------------------------------------------------------------
# The memo of fully explored keys
# --------------------------------------------------------------------------

def _closed(memo) -> bool:
    return all(dst in memo for dsts in memo.values() for dst in dsts)


def _mu_struct_too_deep():
    """((mu a:P. [a] mu b0:P. [a] ... [a] y) w) w): each mu-struct
    appends w under each of the 61 [a] names, so the root's reduct is
    fine and the second reduct nests past the bound."""
    term = "y"
    for i in range(60):
        term = f"mu b{i}:P. [a] {term}"
    return parse_term(f"((mu a:P. [a] {term} w) w)")


def test_complete_graph_fills_a_closed_memo():
    # every node key is in the memo with its reducts' keys, and every
    # reduct key of a memo key is a memo key
    memo, succ = {}, {}
    for t in (parse_term("(<u, v> p1)"),
              parse_term("(\\x:P. <x, x> (<u, v> p1))"), _looping_term()):
        g = reduction_graph(t, memo=memo)
        assert g.complete
        succ.update(_successors(g))
        assert memo == {k: tuple(v) for k, v in succ.items()}
        assert _closed(memo)
    assert memo[g.root] == (g.root,)


def test_cut_short_graph_leaves_the_memo_unchanged():
    memo = {}
    reduction_graph(parse_term("(\\x:P. <x, x> (<u, v> p1))"), memo=memo)
    before = dict(memo)
    g = reduction_graph(_growing_loop(), node_cap=5, memo=memo)
    assert not g.complete
    assert memo == before
    with pytest.raises(ReductTooDeep, match="after 2 steps"):
        reduction_graph(_mu_struct_too_deep(), memo=memo)
    assert memo == before


def _applied(head, arg, n):
    """head applied to arg n times, one App node on the other."""
    for _ in range(n):
        head = App(head, arg)
    return head


def test_graph_reduct_too_deep_by_applications_alone():
    # ((\x. \y. (x y) w ... w) v ... v) w ... w): the first reduct puts
    # the v chain under the w chain, 174 deep; the second puts the last
    # w chain under both, 212 deep, and holds nothing but App nodes, each
    # one character of a key, so the depth bound is not a key's length
    body = _applied(App(Var("x"), Var("y")), Var("w"), 110)
    t = close(App(App(Abs("x", P, Abs("y", P, body)),
                      _applied(Var("v"), Var("v"), 60)),
                  _applied(Var("w"), Var("w"), 100)))
    assert term_depth(t) == 116
    first = step_at(t, (0,)).after
    assert term_depth(first) == 174
    assert term_depth(step_at(first, ()).after) == 212
    with pytest.raises(ReductTooDeep, match="after 2 steps"):
        reduction_graph(t)
    with pytest.raises(ReductTooDeep, match="after 1 steps"):
        reduction_graph(first)


def test_graph_over_a_filled_memo_matches_a_fresh_one():
    # every size-7 graph, and the looping control, explored again over
    # the memo their first exploration filled, node for node
    terms = [e.term for e in enumerate_typed_terms(7).entries]
    terms.append(_looping_term())
    memo = {}
    for t in terms:
        reduction_graph(t, memo=memo)
    for t in terms:
        fresh, again = reduction_graph(t), reduction_graph(t, memo=memo)
        assert list(again.nodes) == list(fresh.nodes)
        assert [(src, dst) for src, _, _, dst in again.edges] == \
            [(src, dst) for src, _, _, dst in fresh.edges]
        assert again.parents == fresh.parents
        # served from the memo below the root, so nothing is expanded
        assert all(again.nodes[k] is None for k in list(again.nodes)[1:])


def test_graph_refuses_stop_with_a_memo():
    with pytest.raises(ValueError, match="stop needs the term"):
        reduction_graph(parse_term("(\\x:P. x y)"), stop=lambda term: False,
                        memo={})


# --------------------------------------------------------------------------
# Confluence decided on hand-built graphs
# --------------------------------------------------------------------------

def _successor_map(*edges: str) -> dict[str, list[str]]:
    """The successors of each key of a graph rooted at r, from edges
    written "src>dst"; keys are listed as they first occur."""
    succ = {"r": []}
    for edge in edges:
        src, dst = edge.split(">")
        succ.setdefault(src, []).append(dst)
        succ.setdefault(dst, [])
    return succ


@pytest.mark.parametrize("edges, witnesses", [
    (["r>a", "r>b"], ["a", "b"]),
    # two terminal cycles reachable from the root: an unjoinable pair
    (["r>a", "a>b", "b>a", "r>c", "c>d", "d>c"], ["a", "c"]),
    # a cycle with one exit to a single normal form
    (["r>a", "a>r", "a>n"], None),
    (["r>r"], None),
    (["r>a", "r>b", "a>n", "b>n"], None),
    # normal forms come in the order given
    (["r>b", "r>a"], ["b", "a"]),
])
def test_confluence_on_hand_built_graphs(edges, witnesses):
    succ = _successor_map(*edges)
    assert SuccessorFacts(succ).confluence_failure("r", succ) == witnesses


def test_graph_refuses_dangling_indices():
    body = parse_term("\\x:P. mu a:P. [a] x").body
    with pytest.raises(ValueError, match="the term has dangling indices"):
        reduction_graph(body)


def test_graph_serializations():
    t = parse_term("(\\x:P. x y)")
    g = reduction_graph(t)
    j = g.to_json()
    assert j["root"] == canonical_form(t)
    assert j["complete"] is True
    assert len(j["edges"]) == 1
    dot = g.to_dot()
    assert dot.startswith("digraph")
    assert "beta" in dot


# --------------------------------------------------------------------------
# Reduction commutes with erasure (property over the spec examples)
# --------------------------------------------------------------------------

REDEX_SOURCES = [
    "(\\x:P. <x, x> y)",
    "(<u, v> p1)",
    "(in1{Q} w [x.<x, x>, y.z]{P /\\ P})",
    "((s [x.u, y.v]{P -> Q}) w)",
    "(mu a:P -> Q. [a] f w)",
    "(\\x:P. (\\y:Q. y z) u)",
]


@pytest.mark.parametrize("src", REDEX_SOURCES)
def test_erasure_commutes_with_contraction(src):
    t = parse_term(src)
    for p, _ in redexes(t):
        assert erase(step_at(t, p).after) == step_at(erase(t), p).after
