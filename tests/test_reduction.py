"""One-step reduction, normalization, traces, and reduction graphs."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from lambdamu import (
    Abs, App, Arrow, BOT, Case, FuelExhausted, Inj2, Mu, Named, Pair, PropVar,
    ReductionGraph, ReductionStep, ReductTooDeep, Var, alpha_key,
    canonical_form, canonical_terms, close, enumerate_typed_terms, infer,
    normalize, parse_term, print_term, redexes, reduction_graph,
)
from lambdamu import reduction
from lambdamu.reduction import (
    DEFAULT_NODE_CAP, InvalidPosition, SuccessorFacts, _explore_into, step_at,
)
from lambdamu.syntax import MAX_NESTING
from lambdamu.terms import shape
from lambdamu.typecheck import TypeCheckError

from erasure import erase
from test_syntax import terms

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
    # x occurs twice under one lambda-binder and once under none
    ("\\w:P. (\\x:P. <x, \\y:P. <x, x>> w)", (0,),
     "\\w:P. <w, \\y:P. <w, w>>"),
    # [a] occurs twice under one lambda-binder and once under none
    ("\\w:P. (mu a:P -> P. <[a] f, \\z:P. <[a] g, [a] h>> w)", (0,),
     "\\w:P. mu a:P. <[a] (f w), \\z:P. <[a] (g w), [a] (h w)>>"),
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
    assert print_term(nf) == "mu a. t"


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
    assert shape(t)[0] == MAX_NESTING
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


def test_normalize_refuses_a_negative_fuel():
    # refused up front: a fuel below 0 is never used up
    with pytest.raises(ValueError, match="fuel must be >= 0"):
        normalize(parse_term("(\\x:P. x y)"), fuel=-1)


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
    # acyclic, with no step to take, and its own normal form
    assert facts.lookup(g.root) == (0, g.root)


def test_graph_diamond_confluence():
    t = parse_term("(\\x:P. <x, x> (<u, v> p1))")
    g = reduction_graph(t)
    assert g.complete
    succ = _successors(g)
    facts = SuccessorFacts(succ)
    nfs = [k for k in succ if not succ[k]]
    assert [canonical_form(g.nodes[k]) for k in nfs] == \
        [canonical_form(parse_term("<u, u>"))]
    # acyclic with one normal form: beta, then each copy's proj
    assert facts.lookup(g.root) == (3, nfs[0])
    assert facts.confluence_failure(g.root) is None


def test_graph_cycle_detected():
    g = reduction_graph(_looping_term(), node_cap=10)
    succ = _successors(g)
    # a key that reaches a cycle has neither a longest path nor a
    # normal form
    assert SuccessorFacts(succ).lookup(g.root) == (None, None)
    assert [k for k in succ if not succ[k]] == []
    assert SuccessorFacts({"a": ["a"]}).lookup("a") == (None, None)


def _growing_loop():
    """(half half) with half = \\x:~P. [a] (x x): every reduct is new."""
    half = close(Abs("x", Arrow(P, BOT),
                     Named("a", App(Var("x"), Var("x")))))
    return App(half, half)


def test_graph_node_cap():
    # a growing (non-cyclic) loop hits the cap and is flagged incomplete
    g = reduction_graph(_growing_loop(), node_cap=10)
    assert not g.complete
    with pytest.raises(ValueError, match="^node_cap must be >= 1$"):
        reduction_graph(_growing_loop(), node_cap=0)


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


def _explored(memo, t, node_cap=DEFAULT_NODE_CAP, keys=None):
    """_explore_into(memo, keys, t, ...) as a dict, t's key computed
    here, and keys built from memo when not given."""
    if keys is None:
        keys = {k: k for k in memo}
    new = _explore_into(memo, keys, t, alpha_key(t), node_cap)
    return None if new is None else dict(new)


def test_complete_graph_fills_a_closed_memo():
    # every key of a complete exploration is in the memo with its
    # reducts' keys, as the fresh graph's edges list them, and every
    # reduct key of a memo key is a memo key
    memo, succ = {}, {}
    for t in (parse_term("(<u, v> p1)"),
              parse_term("(\\x:P. <x, x> (<u, v> p1))"), _looping_term()):
        g = reduction_graph(t)
        assert g.complete
        assert _explored(memo, t) is not None
        succ.update(_successors(g))
        assert memo == {k: tuple(v) for k, v in succ.items()}
        assert _closed(memo)
    assert memo[g.root] == (g.root,)


def test_cut_short_graph_leaves_the_memo_unchanged():
    # the cap and a too-deep reduct each cut the exploration short: it
    # answers None and the memo and its key table stay as they were
    memo, keys = {}, {}
    assert _explored(memo, parse_term("(\\x:P. <x, x> (<u, v> p1))"),
                     keys=keys)
    before = dict(memo)
    assert keys == {k: k for k in memo}
    assert not reduction_graph(_growing_loop(), node_cap=5).complete
    assert _explored(memo, _growing_loop(), node_cap=5, keys=keys) is None
    assert memo == before
    assert keys == {k: k for k in memo}
    with pytest.raises(ReductTooDeep, match="after 2 steps"):
        reduction_graph(_mu_struct_too_deep())
    assert _explored(memo, _mu_struct_too_deep(), keys=keys) is None
    assert memo == before
    assert keys == {k: k for k in memo}


def _applied(head, arg, n):
    """head applied to arg n times, one App node on the other."""
    for _ in range(n):
        head = App(head, arg)
    return head


def test_graph_reduct_too_deep_by_applications_alone():
    # ((\x. \y. (x y) w ... w) v ... v) w ... w): the first reduct puts
    # the v chain under the w chain, 174 deep; the second puts the last
    # w chain under both, 212 deep, and holds nothing but App nodes.
    # Each contractum's key passes MAX_NESTING, so a walk decides
    body = _applied(App(Var("x"), Var("y")), Var("w"), 110)
    t = close(App(App(Abs("x", P, Abs("y", P, body)),
                      _applied(Var("v"), Var("v"), 60)),
                  _applied(Var("w"), Var("w"), 100)))
    assert shape(t)[0] == 116
    first = step_at(t, (0,)).after
    assert shape(first)[0] == 174
    assert shape(step_at(first, ()).after)[0] == 212
    with pytest.raises(ReductTooDeep, match="after 2 steps"):
        reduction_graph(t)
    with pytest.raises(ReductTooDeep, match="after 1 steps"):
        reduction_graph(first)
    with pytest.raises(ReductTooDeep, match="after 2 steps"):
        normalize(t)
    with pytest.raises(ReductTooDeep, match="after 1 steps"):
        normalize(first)


def _nested_pairs(leaf, name, n):
    """leaf as the first component of n nested pairs, each with the free
    name as its second."""
    for _ in range(n):
        leaf = Pair(leaf, Var(name))
    return leaf


def _under_frames(n, fn, *args):
    """fn(*args) called under n extra stack frames."""
    return fn(*args) if n == 0 else _under_frames(n - 1, fn, *args)


@pytest.mark.parametrize("walk", [reduction_graph, normalize])
def test_a_contractum_twice_the_bound_is_refused(walk):
    # (\x. <<x, v> ... v> <<w, w> ... w>): the redex nests exactly
    # MAX_NESTING deep and its contractum, the argument under 197 pairs,
    # about twice that, so its key is read before any walk of it: a
    # typed error, never a RecursionError, also under a deeper stack
    t = close(App(Abs("x", P, _nested_pairs(Var("x"), "v", 197)),
                  _nested_pairs(Var("w"), "w", 197)))
    assert shape(t)[0] == MAX_NESTING
    assert shape(step_at(t, ()).after)[0] == 395
    for frames in (0, 150):
        with pytest.raises(ReductTooDeep, match="after 1 steps"):
            _under_frames(frames, walk, t)


@given(terms(3, frozenset({"y"}), frozenset({"b"})))
def test_a_key_is_at_least_as_long_as_its_term_is_deep(t):
    # a key has at least one character per node on any path, so its
    # length bounds the depth; dangling indices included
    open_term = close(Abs("y", None, Mu("b", None, t))).body.body
    for s in (t, open_term):
        assert shape(s)[0] <= len(alpha_key(s))


# one node around a term: binders with annotations, a case bracket's
# either branch, a pair's either component, a named term, an injection,
# an application's either side, and a redex whose contractum nests one
# level deeper than it does: (\x. (v (v x)) s) > (v (v s))
_FRAMES = [
    lambda s: Abs("x", P, s),
    lambda s: Mu("a", P, Named(0, s)),
    lambda s: Inj2(s, Q),
    lambda s: Pair(s, Var("v")),
    lambda s: Pair(Var("v"), s),
    lambda s: App(Var("v"), s),
    lambda s: App(s, Var("v")),
    lambda s: App(Var("v"), Case("x", s, "y", Var(0), P)),
    lambda s: App(Var("v"), Case("x", Var(0), "y", s, P)),
    lambda s: App(Abs("x", P, App(Var("v"), App(Var("v"), Var(0)))), s),
]


def _framed(t, frames, slack):
    """t under the frames, repeated in turn, for as long as it nests
    within slack of MAX_NESTING."""
    for i in range(MAX_NESTING):
        framed = _FRAMES[frames[i % len(frames)]](t)
        if shape(framed)[0] + slack > MAX_NESTING:
            break
        t = framed
    return t


def _assert_steps_splice(t):
    """_steps of t, which nests at most MAX_NESTING deep, against its
    reducts built afresh: each key is the reduct's alpha_key, and None
    exactly when some reduct nests deeper than MAX_NESTING."""
    found = reduction._reducts(t)
    reducts = [reduction._rebuild(t, p, c) for p, _, c in found]
    steps = reduction._steps(t)
    if steps is None:
        assert any(shape(r)[0] > MAX_NESTING for r in reducts)
        return
    assert all(shape(r)[0] <= MAX_NESTING for r in reducts)
    assert [(p, rule) for p, rule, _, _ in steps] == \
        [(p, rule) for p, rule, _ in found]
    for (_, _, key, _), r in zip(steps, reducts):
        assert key == alpha_key(r)


@settings(deadline=None)  # a term near the bound has a hundred redexes
@given(terms(4, frozenset({"y"}), frozenset({"b"})),
       st.lists(st.integers(0, len(_FRAMES) - 1), min_size=1, max_size=3),
       st.sampled_from([0, 0, 1, 2, MAX_NESTING]))
def test_steps_splice_every_reduct_key(t, frames, slack):
    # every redex of a generated term, under frames that reach close to
    # the bound or none: case brackets, pairs, named terms, injections
    # and annotated binders around and inside it
    _assert_steps_splice(_framed(t, frames, slack))


def test_steps_splice_every_size_10_graph_node():
    for entry in enumerate_typed_terms(10).entries:
        for t in reduction_graph(entry.term).nodes.values():
            _assert_steps_splice(t)


def test_redexes_and_step_at_refuse_a_too_deep_term():
    # a 3,000-deep application spine and 3,000 nested lambdas: a typed
    # error from each entry point, never a RecursionError
    binders = Var("y")
    for _ in range(3000):
        binders = Abs("x", P, binders)
    for t in (_applied(Var(2), Var("y"), 3000), binders):
        for walk in (redexes, lambda t: step_at(t, ()), normalize):
            with pytest.raises(ReductTooDeep, match="after 0 steps"):
                walk(t)


def test_graph_over_a_filled_memo_matches_a_fresh_one():
    # every size-7 graph, and the looping control, explored into one
    # memo: each exploration's new keys are the fresh graph's nodes new
    # to the memo, its root first, in the same order, with the same
    # terms, and the memo lists their reducts' keys as the fresh graph's
    # edges do; reach over the filled memo lists every node of the fresh
    # graph in its order, and a root the memo holds yields nothing new
    terms = [e.term for e in enumerate_typed_terms(7).entries]
    terms.append(_looping_term())
    fresh = [reduction_graph(t) for t in terms]
    memo = {}
    for t, whole in zip(terms, fresh):
        expected = [k for k in whole.nodes if k not in memo]
        new = _explored(memo, t)
        assert list(new) == expected and expected[0] == whole.root
        assert {k: canonical_form(u) for k, u in new.items()} == \
            {k: whole.printed()[k] for k in expected}
        succ = _successors(whole)
        assert {k: memo[k] for k in new} == \
            {k: tuple(succ[k]) for k in expected}
    facts = SuccessorFacts(memo)
    for t, whole in zip(terms, fresh):
        assert facts.reach(whole.root) == list(whole.nodes)
        assert _explored(memo, t) == {}


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
    # normal forms come in the order reach lists them
    (["r>b", "r>a"], ["b", "a"]),
    # normal forms at different depths, and two reached through one node
    (["r>a", "a>n", "r>m"], ["m", "n"]),
    (["r>a", "r>b", "a>n", "a>m", "b>m"], ["n", "m"]),
    # a root in normal form
    ([], None),
])
def test_confluence_on_hand_built_graphs(edges, witnesses):
    succ = _successor_map(*edges)
    facts = SuccessorFacts(succ)
    assert facts.confluence_failure("r") == witnesses
    # the memoized normal form of an acyclic root is none exactly when
    # there are witnesses, two normal forms or more, and otherwise the
    # one normal form it reaches; a root that reaches a cycle has none
    longest, normal = facts.lookup("r")
    if longest is not None:
        sinks = [k for k in facts.reach("r") if not succ[k]]
        assert normal == (None if witnesses else sinks[0])
    else:
        assert normal is None


def _reachable(succ, key):
    """The keys key reaches, breadth-first, successors in their order."""
    order, queue = [], deque([key])
    while queue:
        k = queue.popleft()
        if k not in order:
            order.append(k)
            queue.extend(succ[k])
    return order


def _longest(succ, key):
    """The longest path from key, by trying every path; key reaches no
    cycle."""
    return max((1 + _longest(succ, s) for s in succ[key]), default=0)


@st.composite
def _successor_maps(draw):
    """Keys 0..n-1 with up to three successors each, repeats allowed:
    self-loops, cycles, shared normal forms and keys with none."""
    n = draw(st.integers(1, 7))
    keys = [f"k{i}" for i in range(n)]
    return {k: [keys[i] for i in draw(st.lists(st.integers(0, n - 1),
                                               max_size=3))]
            for k in keys}


@given(_successor_maps(), st.randoms(use_true_random=False))
def test_successor_facts_match_brute_force(succ, rng):
    # keys are queried in a random order, so that some are settled from
    # settled successors at once and others by the depth-first walk
    facts = SuccessorFacts(succ)
    order = list(succ)
    rng.shuffle(order)
    for key in order:
        reached = _reachable(succ, key)
        cyclic = any(k in _reachable(succ, s) for k in reached
                     for s in succ[k])
        sinks = [k for k in reached if not succ[k]]
        if cyclic:
            assert facts.lookup(key) == (None, None)
        else:
            assert facts.lookup(key) == (
                _longest(succ, key), sinks[0] if len(sinks) == 1 else None)
        assert facts.reach(key) == reached
        joinable = all(set(_reachable(succ, a)) & set(_reachable(succ, b))
                       for a in reached for b in reached)
        witnesses = facts.confluence_failure(key)
        if joinable:
            assert witnesses is None
        elif not cyclic:
            assert witnesses == sinks
        else:
            a, b = witnesses
            assert {a, b} <= set(reached)
            assert not set(_reachable(succ, a)) & set(_reachable(succ, b))


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
