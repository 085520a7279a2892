"""Parser, printer, and binding-structure tests."""

import dataclasses
import inspect
import pickle
import types

import pytest
from hypothesis import given, strategies as st

from lambdamu import (
    Abs, App, Arrow, BOT, Case, Conj, Derivation, Disj, Inj1, Inj2,
    Judgment, Mu, Named, PROJ1, PROJ2, Pair, ParseError, PropVar,
    ReductionStep, TypeCheckError, Var, alpha_key, canonical_form, check,
    close, enumerate_typed_terms, free_variables, infer, mu_substitute,
    normalize, parse_formula, parse_term, print_formula, print_term,
    redexes, substitute,
)
from lambdamu.reduction import reduction_graph, step_at
from lambdamu.syntax import MAX_NESTING, canonical_hints
from lambdamu.terms import (
    Bottom, ETerm, Formula, FreshSupply, Proj1, Proj2, Term, fresh_name,
    is_closed, open_names, rename_binders, shape, shift,
)

P = PropVar("P")
Q = PropVar("Q")


# --------------------------------------------------------------------------
# Formulas
# --------------------------------------------------------------------------

@pytest.mark.parametrize("text, formula", [
    ("P", P),
    ("_|_", BOT),
    ("P -> Q", Arrow(P, Q)),
    ("P -> Q -> P", Arrow(P, Arrow(Q, P))),
    ("(P -> Q) -> P", Arrow(Arrow(P, Q), P)),
    ("P /\\ Q", Conj(P, Q)),
    ("P \\/ Q", Disj(P, Q)),
    ("~P", Arrow(P, BOT)),
    ("~~P", Arrow(Arrow(P, BOT), BOT)),
    ("P /\\ Q -> P", Arrow(Conj(P, Q), P)),
    ("P \\/ Q /\\ P", Disj(P, Conj(Q, P))),
    ("~P \\/ P", Disj(Arrow(P, BOT), P)),
])
def test_parse_formula(text, formula):
    assert parse_formula(text) == formula


def test_formula_precedence_chain():
    # ~ binds tighter than /\ than \/ than ->
    got = parse_formula("~P /\\ Q \\/ P -> _|_")
    assert got == Arrow(Disj(Conj(Arrow(P, BOT), Q), P), BOT)


@pytest.mark.parametrize("formula", [
    P, BOT, Arrow(P, Q), Arrow(Arrow(P, BOT), P), Conj(Disj(P, Q), BOT),
    Disj(Arrow(P, Q), Conj(P, P)), Arrow(P, Arrow(Q, Disj(P, BOT))),
])
def test_formula_round_trip(formula):
    assert parse_formula(print_formula(formula)) == formula


def test_negation_prints_as_sugar():
    assert print_formula(Arrow(P, BOT)) == "~P"
    assert print_formula(Arrow(Arrow(P, BOT), P)) == "~P -> P"


def test_a_node_that_is_not_a_formula_is_refused():
    with pytest.raises(TypeError, match="^not a formula: 'junk'$"):
        print_formula("junk")


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------

@pytest.mark.parametrize("text, term", [
    ("x", Var("x")),
    ("\\x:P. x", close(Abs("x", P, Var("x")))),
    ("mu a:P. x", Mu("a", P, Var("x"))),
    ("[a] x", Named("a", Var("x"))),
    ("<x, y>", Pair(Var("x"), Var("y"))),
    ("in1{Q} x", Inj1(Var("x"), Q)),
    ("in2{Q} x", Inj2(Var("x"), Q)),
    ("(f x)", App(Var("f"), Var("x"))),
    ("(p p1)", App(Var("p"), PROJ1)),
    ("(p p2)", App(Var("p"), PROJ2)),
    ("(w [x.u, y.v])",
     App(Var("w"), Case("x", Var("u"), "y", Var("v")))),
    ("(w [x.u, y.v]{P})",
     App(Var("w"), Case("x", Var("u"), "y", Var("v"), P))),
    ("mu a:P. [a] x", close(Mu("a", P, Named("a", Var("x"))))),
    ("(w [x.u, y.y])",
     close(App(Var("w"), Case("x", Var("u"), "y", Var("y"))))),
    # where the lexer ends a name
    ("x\u00b2", Var("x\u00b2")),     # a superscript two continues a name
    ("x\u00bd'", Var("x\u00bd'")),   # so does a one-half
    ("_x", Var("_x")),                # not "_|_"
    ("\u00e9t\u00e9", Var("\u00e9t\u00e9")),
    ("(x\u00a0y)", App(Var("x"), Var("y"))),   # a no-break space
    ("\t(x\ny)\u2028", App(Var("x"), Var("y"))),
    ("(x p1')", App(Var("x"), Var("p1'"))),    # not the keyword p1
])
def test_parse_term(text, term):
    assert parse_term(text) == term


def test_parse_term_binds_variables():
    t = parse_term("\\x:P. mu a:Q. \\y:P. [a] (x [u.u, v.y])")
    assert t == close(Abs("x", P, Mu("a", Q, Abs("y", P, Named("a", App(
        Var("x"), Case("u", Var("u"), "v", Var("y"))))))))
    assert free_variables(t) == (frozenset(), frozenset())
    assert (t.var, t.body.var, t.body.body.var) == ("x", "a", "y")


def test_unannotated_binders_parse():
    assert parse_term("\\x. x") == close(Abs("x", None, Var("x")))
    assert parse_term("mu a. x") == Mu("a", None, Var("x"))
    assert parse_term("in1 x") == Inj1(Var("x"), None)


@pytest.mark.parametrize("text", [
    "\\x:P. \\x:P. x",          # lambda shadowing
    "mu a:P. mu a:P. [a] x",    # mu shadowing
    "\\a:P. mu a:P. a",         # cross-namespace reuse
    "(w [x.x, x.x])",           # case binder reuse across brackets is fine,
])
def test_shadowing_rejected(text):
    if text == "(w [x.x, x.x])":
        # the two brackets do not nest, so the same name is legal
        parse_term(text)
    else:
        with pytest.raises(ParseError):
            parse_term(text)


@pytest.mark.parametrize("text", [
    "", "(", "\\x:P", "mu a:P.", "[a]", "<x", "in1{P", "(x", "x )",
    "\\x:P x", "(w [x.u; y.v])",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_term(text)


@pytest.mark.parametrize("parse, text, message, position", [
    (parse_term, "x $", "unexpected character '$' at position 2", 2),
    # a numeric character may continue a name but not start one
    (parse_term, "\u00bd", "unexpected character '\u00bd' at position 0", 0),
    (parse_term, "x \u00bd", "unexpected character '\u00bd' at position 2",
     2),
    (parse_term, "2x", "unexpected character '2' at position 0", 0),
    (parse_term, "P_|_", "unexpected character '|' at position 2", 2),
    # "_|_" is one token even when an identifier follows it
    (parse_term, "_|_x",
     "unexpected '_|_' at position 0 (expected a term)", 0),
    (parse_formula, "_|_P", "trailing input 'P' at position 3", 3),
    (parse_formula, "P \u00a0->", "unexpected 'end of input' at position 5 "
     "(expected a formula)", 5),
])
def test_parse_error_text_and_position(parse, text, message, position):
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert str(ei.value) == message
    assert ei.value.position == position


@pytest.mark.parametrize("text", [
    "\\x:~_|_ -> P /\\ Q \\/ R. mu a:P. "
    "[a] (<in1{Q} x, in2{P} y> [u.(u p1), v.(v p2)]{P})",
    # spaces only where two names or keywords would run together
    "\\x:~_|_->P/\\Q\\/R.mu a:P."
    "[a](<in1{Q}x,in2{P}y>[u.(u p1),v.(v p2)]{P})",
])
def test_every_punctuation_mark_and_keyword(text):
    formula = Arrow(Arrow(BOT, BOT), Disj(Conj(P, Q), PropVar("R")))
    pair = Pair(Inj1(Var("x"), Q), Inj2(Var("y"), P))
    case = Case("u", App(Var("u"), PROJ1), "v", App(Var("v"), PROJ2), P)
    assert parse_term(text) == close(
        Abs("x", formula, Mu("a", P, Named("a", App(pair, case)))))


def test_nested_case_disambiguation():
    # "[" opens a case bracket only when followed by "ident ."
    named = parse_term("[a] x")
    assert isinstance(named, Named)
    case = parse_term("(w [a.x, b.y])")
    assert isinstance(case.arg, Case)


# --------------------------------------------------------------------------
# Substitution
# --------------------------------------------------------------------------

def test_substitute_basic():
    t = parse_term("(f x)")
    assert substitute(t, "x", Var("y")) == parse_term("(f y)")


def test_substitute_ignores_bound():
    t = parse_term("\\x:P. x")
    assert substitute(t, "x", Var("y")) == t


def test_substitute_capture_avoiding_lambda():
    # y := x under \\x: the x stays free, and only printing renames
    t = parse_term("\\x:P. y")
    got = substitute(t, "y", Var("x"))
    assert isinstance(got, Abs)
    assert got.body == Var("x")
    assert print_term(got) == "\\x0:P. x"


def test_substitute_capture_avoiding_mu():
    # substituting via a value with a free mu-variable under mu a
    t = parse_term("mu a:P. x")
    got = substitute(t, "x", parse_term("[a] y"))
    assert isinstance(got, Mu)
    assert got.body == Named("a", Var("y"))
    assert print_term(got) == "mu a0:P. [a] y"


def test_substitute_into_case_branches():
    t = parse_term("(w [x.z, y.z])")
    got = substitute(t, "z", Var("q"))
    assert got == parse_term("(w [x.q, y.q])")


def test_substitute_shifts_under_binders():
    # (\\x. \\y. \\z. x) applied to y's binder: the argument, which
    # refers to a binder outside the redex, is moved under two binders
    t = parse_term("\\w:P. (\\x:P. \\y:P. \\z:P. x w)")
    nf, _ = normalize(t)
    assert nf == parse_term("\\w:P. \\y:P. \\z:P. w")


# --------------------------------------------------------------------------
# Structural (mu) substitution, with an independent oracle
# --------------------------------------------------------------------------

def naive_mu_substitute(t, a, w):
    """Independent bottom-up model of t[a := w] for oracle comparison.

    Only valid when w has no bound variables of t's context, which the
    test inputs guarantee by construction.
    """

    def go(t):
        match t:
            case Var(_):
                return t
            case Abs(x, ann, b):
                return Abs(x, ann, go(b))
            case App(f, e):
                return App(go(f), go_e(e))
            case Pair(f, s):
                return Pair(go(f), go(s))
            case Inj1(b, ann):
                return Inj1(go(b), ann)
            case Inj2(b, ann):
                return Inj2(go(b), ann)
            case Mu(m, ann, b):
                return Mu(m, ann, go(b))
            case Named(m, b):
                b = go(b)
                if m == a:
                    return Named(a, App(b, w))
                return Named(m, b)

    def go_e(e):
        match e:
            case Term():
                return go(e)
            case Case(x1, u1, x2, u2, ann):
                return Case(x1, go(u1), x2, go(u2), ann)
            case _:
                return e

    return go(t)


@pytest.mark.parametrize("src, var, args", [
    ("[a] x", "a", ["y"]),
    ("[a] [a] x", "a", ["y"]),                       # nested occurrences
    ("mu b:P. [a] [b] x", "a", ["y"]),
    ("[a] mu b:P. [a] x", "a", ["y"]),
    ("\\x:P. [a] x", "a", ["y"]),
    ("(f [a] x)", "a", ["y"]),
    ("[b] x", "a", ["y"]),                           # no occurrence
    ("mu a:P. [a] x", "a", ["y"]),                   # rebound, untouched
    ("(w [u.[a] u, v.[a] v])", "a", ["y"]),
])
def test_mu_substitute_matches_naive_oracle(src, var, args):
    t = parse_term(src)
    [e] = [Var(x) for x in args]  # the one E-term appended
    assert mu_substitute(t, var, e) == naive_mu_substitute(t, var, e)


def test_mu_substitute_nested_inside_out():
    # each (a v) becomes (a (v e)), including the occurrence inside v
    t = parse_term("[a] [a] x")
    got = mu_substitute(t, "a", Var("y"))
    inner = Named("a", App(Var("x"), Var("y")))
    assert got == Named("a", App(inner, Var("y")))


def test_mu_substitute_avoids_capture():
    # e mentions b free; under the inner mu b it stays free
    t = parse_term("mu b:P. [a] x")
    got = mu_substitute(t, "a", parse_term("[b] y"))
    assert isinstance(got, Mu)
    assert got.body == Named("a", App(Var("x"), Named("b", Var("y"))))
    assert print_term(got) == "mu b0:P. [a] (x [b] y)"


# --------------------------------------------------------------------------
# Alpha equivalence is ==; canonical forms; free variables
# --------------------------------------------------------------------------

@pytest.mark.parametrize("s1, s2, equal", [
    ("\\x:P. x", "\\y:P. y", True),
    ("\\x:P. x", "\\y:Q. y", False),
    ("mu a:P. [a] x", "mu b:P. [b] x", True),
    ("mu a:P. [a] x", "mu b:P. [c] x", False),
    ("(w [x.x, y.y])", "(w [u.u, v.v])", True),
    ("(w [x.x, y.y]{P})", "(w [u.u, v.v]{Q})", False),
    ("\\x:P. y", "\\x:P. z", False),
    ("\\x:P. \\y:P. x", "\\y:P. \\x:P. y", True),
    ("\\x:P. \\y:P. x", "\\x:P. \\y:P. y", False),
    ("x", "x", True),
    ("x", "y", False),
])
def test_alpha_equal(s1, s2, equal):
    t1, t2 = parse_term(s1), parse_term(s2)
    assert (t1 == t2) is equal
    assert (alpha_key(t1) == alpha_key(t2)) is equal
    if equal:
        assert hash(t1) == hash(t2)


def test_alpha_distinguishes_namespaces():
    assert parse_term("\\x:P. x") != parse_term("mu a:P. [a] x")


def test_alpha_key_separates_what_differs():
    # indices, names that look like indices or keys, annotations, and
    # every constructor; a formula's key apart from another's
    P = PropVar("P")
    terms = [Var(0), Var(127), Var(128), Var(1000), Var("0"), Var("x"),
             Var("x1"), Var("$1:x"), Var(""), Named(0, Var("a")),
             Named("a", Var(0)), Abs("x", None, Var(0)),
             Abs("x", P, Var(0)), Abs("x", PropVar("-"), Var(0)),
             Mu("a", P, Named(0, Var(0))), Inj1(Var(0)), Inj2(Var(0)),
             Inj1(Var(0), BOT), Pair(Var(0), Var(1)),
             App(Var(0), Var(1)), App(Var(0), PROJ1),
             App(Var(0), PROJ2), App(Var(0), Case("x", Var(0), "y", Var(1))),
             App(Var(0), Case("x", Var(0), "y", Var(1), P))]
    formulas = [P, PropVar("P -> P"), PropVar("1:P"), BOT, Arrow(P, P),
                Conj(P, P), Disj(P, P), Arrow(P, Arrow(P, P)),
                Arrow(Arrow(P, P), P)]
    for nodes in (terms, formulas):
        assert len({alpha_key(n) for n in nodes}) == len(nodes)


def test_terms_pickle_before_and_after_their_key_is_read():
    t = parse_term("\\x:P. mu a:~P. [a] (x [y.y, z.z])")
    assert pickle.loads(pickle.dumps(t)) == t
    key = alpha_key(t)
    copied = pickle.loads(pickle.dumps(t))
    assert copied == t and alpha_key(copied) == key


def _node_fields(hint):
    """Field values for one node of each class, by keyword; every binder
    in them has the name hint."""
    lam = Abs(hint, P, Var(0))
    judgment = Judgment((("y", P),), lam, Arrow(P, P), ())
    return {
        PropVar: {"name": "P"}, Bottom: {},
        Arrow: {"left": P, "right": BOT}, Conj: {"left": P, "right": Q},
        Disj: {"left": Q, "right": P},
        Var: {"name": 0}, Abs: {"var": hint, "ann": P, "body": Var(0)},
        App: {"fun": lam, "arg": Var("y")},
        Pair: {"fst": lam, "snd": Var("y")},
        Inj1: {"body": lam, "ann": Q}, Inj2: {"body": lam, "ann": None},
        Mu: {"var": hint, "ann": P, "body": Named(0, lam)},
        Named: {"name": "a", "body": lam},
        Proj1: {}, Proj2: {},
        Case: {"left_var": hint, "left": Var(0), "right_var": hint,
               "right": lam, "ann": P},
        Judgment: {"gamma": (("y", P),), "term": lam, "formula": Arrow(P, P),
                   "delta": (), "binders": ()},
        Derivation: {"rule": "abs-i", "conclusion": judgment,
                     "premises": ()},
        ReductionStep: {"before": App(lam, Var("y")), "position": (),
                        "rule": "beta", "after": Var("y")},
    }


NODES = list(_node_fields("x"))


def test_every_frozen_dataclass_of_the_node_modules_is_a_node():
    found = {cls for module in set(map(inspect.getmodule, NODES))
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and dataclasses.is_dataclass(cls)
             and cls.__dataclass_params__.frozen}
    assert found == set(NODES)


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_node_contract(cls):
    values = _node_fields("x")[cls]
    node = cls(**values)
    assert node == cls(*values.values())
    assert {name: getattr(node, name) for name in values} == values
    # the plain frozen, slotted dataclass's signature, repr and hash
    plain = dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type,
         dataclasses.field(default=f.default, compare=f.compare))
        for f in dataclasses.fields(cls)], frozen=True, slots=True)
    assert inspect.signature(cls) == inspect.signature(plain)
    assert repr(node) == repr(plain(**values))
    assert hash(node) == hash(plain(**values))
    # every field a slot, and none writable once built
    assert not hasattr(node, "__dict__")
    for name, value in values.items():
        assert isinstance(vars(cls)[name], types.MemberDescriptorType)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert {name: getattr(node, name) for name in values} == values

    # pickled with the syntax nodes' keys unset, then set
    def keys(n):
        parts = (n, *(getattr(n, name) for name in values))
        return [alpha_key(v) for v in parts
                if isinstance(v, (ETerm, Formula))]

    assert pickle.loads(pickle.dumps(node)) == node
    read = keys(node)
    copied = pickle.loads(pickle.dumps(node))
    assert copied == node and keys(copied) == read
    # binder hints take no part in == and hash
    renamed = cls(**_node_fields("z")[cls])
    assert renamed == node and hash(renamed) == hash(node)


def test_canonicalize_is_stable():
    t = parse_term("\\foo:P. mu bar:Q. (foo [u.u, v.foo])")
    u = parse_term("\\one:P. mu two:Q. (one [p.p, q.one])")
    assert t == u
    assert canonical_form(t) == canonical_form(u) == \
        "\\x0:P. mu a0:Q. (x0 [x1.x1, x2.x0])"


def test_canonicalize_skips_free_names():
    t = parse_term("<\\y:P. x0, mu b:P. [a1] y>")
    assert canonical_form(t) == "<\\x1:P. x0, mu a0:P. [a1] y>"
    assert canonical_form(parse_term("\\y:P. y")) == "\\x0:P. x0"


def test_canonical_hints_print_as_canonical_form():
    # every size-9 graph node; the node under each root binder, that
    # binder's variable now free and named as canonical naming names a
    # binder; and every node with one hint for all its binders
    nodes = [t for entry in enumerate_typed_terms(9).entries
             for t in reduction_graph(entry.term).nodes.values()]
    opened = [substitute(t.body, 0, Var("x0")) if type(t) is Abs
              else open_names(t.body, ("a0",)) for t in nodes
              if type(t) in (Abs, Mu)]
    repeated = [rename_binders(t, lambda kind, hint: "x0") for t in nodes]
    assert {free_variables(t) for t in opened} >= {
        (frozenset({"x0"}), frozenset()), (frozenset(), frozenset({"a0"}))}
    for t in nodes + opened + repeated:
        assert print_term(canonical_hints(t)) == canonical_form(t)


def test_fresh_name_numbers_the_stem_apart():
    assert fresh_name("x", {"y"}) == "x"
    assert fresh_name("x", {"x"}, ["x0"]) == "x1"
    assert fresh_name("a12", {"a12", "a0"}) == "a1"
    assert fresh_name("7", {"7"}) == "70"


def test_free_variables_two_namespaces():
    t = parse_term("\\x:P. mu a:P. ([b] y z)")
    lam, mu = free_variables(t)
    assert lam == frozenset({"y", "z"})
    assert mu == frozenset({"b"})
    assert not is_closed(t)
    assert is_closed(parse_term("\\x:P. x"))


def test_shape_holds_the_free_names_and_every_binder():
    t = parse_term("\\x:P. mu a:P. ([b] (y [u.u, v.x]) <z, in1{P} z>)")
    assert shape(t)[3:] == ({"y", "z"}, {"b"}, {"x", "a", "u", "v"})
    assert set().union(*shape(t)[3:]) == {"x", "a", "b", "y", "u", "v", "z"}


def test_is_closed_refuses_dangling_indices():
    # the body's x is bound by the lambda outside it
    body = parse_term("\\x:P. mu a:P. [a] x").body
    assert free_variables(body) == (frozenset(), frozenset())
    assert not is_closed(body)
    assert not is_closed(parse_term("mu a:P. [a] \\y:P. y").body)
    assert is_closed(parse_term("\\x:P. mu a:P. [a] x"))


def test_shape():
    # depth, and the lambda- and mu-binders above the term that its
    # dangling indices reach; case branches lie under one more lambda
    t = parse_term("\\x:P. mu a:P. [a] (w [u.x, v.v])")
    assert shape(t)[:3] == (5, 0, 0)
    assert shape(t.body)[:3] == (4, 1, 0)
    assert shape(t.body.body)[:3] == (3, 1, 1)
    assert shape(t.body.body.body.arg.left)[:3] == (1, 2, 0)
    assert shape(Named(3, Var(5))) == (2, 6, 4, set(), set(), set())


def test_shape_of_a_deep_application_spine():
    # iterative walks: a spine far deeper than the recursion limit is
    # measured, its indices reached down the function side, and its
    # free names and all its names found
    t = Var(2)
    for _ in range(3000):
        t = App(t, Var("y"))
    assert shape(t) == (3001, 3, 0, {"y"}, set(), set())
    assert free_variables(t) == (frozenset({"y"}), frozenset())
    assert not is_closed(t)
    with pytest.raises(TypeError, match="not a term: 'junk'"):
        shape(App(t, "junk"))


def test_shape_of_deeply_nested_binders():
    # the same walks on 3,000 nested lambdas around a free name
    t = Var("y")
    for _ in range(3000):
        t = Abs("x", P, t)
    assert shape(t) == (3001, 0, 0, {"y"}, set(), {"x"})
    assert free_variables(t) == (frozenset({"y"}), frozenset())
    assert not is_closed(t)


def test_free_variables_eterm_case_binders():
    lam, mu = free_variables(parse_term("(w [x.x, y.z])"))
    assert lam == frozenset({"w", "z"})
    assert mu == frozenset()


def test_fresh_supply_avoids_names():
    supply = FreshSupply({"t0", "t1"})
    assert supply.fresh("t") not in {"t0", "t1"}


@pytest.mark.parametrize("t", [Abs("x", P, "junk"), App(Var("f"), "junk")],
                         ids=["body", "argument"])
def test_a_node_that_is_not_a_term_is_refused(t):
    # every walk refuses it with a typed error; none passes it through
    for walk in (print_term, canonical_form, alpha_key, free_variables,
                 is_closed, shape, close, lambda t: shift(t, 1, 1),
                 redexes, normalize, reduction_graph,
                 lambda t: substitute(t, "f", Var("y")),
                 lambda t: mu_substitute(t, "a", Var("y"))):
        with pytest.raises(TypeError, match="not a term"):
            walk(t)
    # a replacement that is not a term is refused up front, also where
    # no shift would walk it
    with pytest.raises(TypeError, match="not a term"):
        substitute(Var("x"), "x", "junk")
    with pytest.raises(TypeError, match="not a term"):
        mu_substitute(Named("a", Var("x")), "a", "junk")
    gamma = {"f": Arrow(P, P)}
    with pytest.raises(TypeCheckError, match="not a term"):
        check(gamma, {}, t, Arrow(P, P))
    with pytest.raises(TypeCheckError, match="not a term"):
        infer(gamma, {}, t)


# --------------------------------------------------------------------------
# Round trips, including generated terms
# --------------------------------------------------------------------------

formulas = st.recursive(
    st.sampled_from([P, Q, BOT]),
    lambda sub: st.builds(Arrow, sub, sub) | st.builds(Conj, sub, sub)
    | st.builds(Disj, sub, sub),
    max_leaves=4,
)


def terms(depth, lvars=frozenset(), mvars=frozenset()):
    """All-constructor term strategy with well-scoped, non-shadowing names,
    closed over its binders; the lambda-names lvars and the mu-names
    mvars may occur free too."""
    def build(lvars, mvars, d):
        leaves = []
        if lvars:
            leaves.append(st.sampled_from(sorted(lvars)).map(Var))
        leaves.append(st.just(Var("free")))
        if d == 0:
            return st.one_of(leaves)
        sub = build(lvars, mvars, d - 1)
        x = f"x{d}"
        a = f"a{d}"
        options = leaves + [
            st.builds(Abs, st.just(x), formulas,
                      build(lvars | {x}, mvars, d - 1)),
            st.builds(Mu, st.just(a), formulas,
                      build(lvars, mvars | {a}, d - 1)),
            st.builds(Pair, sub, sub),
            st.builds(Inj1, sub, formulas),
            st.builds(Inj2, sub, formulas),
            st.builds(App, sub, sub),
            st.builds(lambda f: App(f, PROJ1), sub),
            st.builds(lambda f, u, v: App(f, Case(x, u, a + "y", v)),
                      sub, build(lvars | {x}, mvars, d - 1),
                      build(lvars | {a + "y"}, mvars, d - 1)),
        ]
        if mvars:
            options.append(st.builds(
                Named, st.sampled_from(sorted(mvars)), sub))
        return st.one_of(options)

    return build(lvars, mvars, depth).map(close)


@given(terms(3))
def test_round_trip_generated(t):
    text = print_term(t)
    assert parse_term(text) == t
    assert print_term(parse_term(text)) == text


@given(terms(3))
def test_canonicalize_idempotent(t):
    c = canonical_form(t)
    assert parse_term(c) == t
    assert canonical_form(parse_term(c)) == c


@pytest.mark.parametrize("src", [
    "\\z:_|_. mu a:P. z",
    "\\z:~P -> P. mu a:P. [a] (z \\y:P. [a] y)",
    "mu b:P \\/ ~P. [b] in1{~P} mu a:P. [b] in2{P} \\y:P. [a] y",
    "(w [x.<x, y>, y.(y p1)]{P})",
    "((\\x:P. x y) z)",
    "<\\y:P. y, y>",  # a binder named like a free name outside it
])
def test_round_trip_fixed(src):
    assert print_term(parse_term(src)) == src


def test_round_trip_corpus_texts():
    for entry in enumerate_typed_terms(9).entries:
        text = print_term(entry.term)
        assert print_term(parse_term(text)) == text


def test_alpha_variants_are_equal_and_hash_equal():
    variants = [parse_term(src) for src in (
        "\\z:~P -> P. mu a:P. [a] (z \\y:P. [a] y)",
        "\\f:~P -> P. mu k:P. [k] (f \\v:P. [k] v)",
        "\\x0:~P -> P. mu a0:P. [a0] (x0 \\x1:P. [a0] x1)")]
    assert len(set(variants)) == 1
    assert len({hash(t) for t in variants}) == 1


# --------------------------------------------------------------------------
# Printing renames a hint only where it must
# --------------------------------------------------------------------------

@pytest.mark.parametrize("src, printed", [
    # beta copies \q into the scope of another \q
    ("(\\z:P -> P -> P. \\q:P. (z q) \\x:P. \\q:P. x)",
     "\\q:P. (\\x:P. \\q0:P. x q)"),
    # a hint equal to a free name that it would capture
    ("(\\x:P. \\y:P. x y)", "\\y0:P. y"),
    # a hint equal to a name the probes issue, fed in as one
    ("(\\x:P. \\t0:P. <x, t0> t0)", "\\t1:P. <t0, t1>"),
])
def test_round_trip_renamed_hints(src, printed):
    reduct = step_at(parse_term(src), ()).after  # beta at the root
    assert print_term(reduct) == printed
    assert parse_term(printed) == reduct
    assert print_term(parse_term(printed)) == printed


def test_print_subterm_needs_the_names_of_its_binders():
    body = parse_term("\\x:P. <x, y>").body
    assert print_term(body, ("x",)) == "<x, y>"
    for printer in (print_term, canonical_form):
        with pytest.raises(ValueError,
                           match="reach 1 lambda- and 0 mu-binders"):
            printer(body)
    inner = parse_term("\\x:P. mu a:P. \\z:P. [a] <x, z>").body.body.body
    with pytest.raises(ValueError, match="reach 2 lambda- and 1 mu-binders"):
        print_term(inner, ("x",))
    assert print_term(inner, ("x", "z"), ("a",)) == "[a] <x, z>"


def test_printed_text_need_not_parse_back():
    # the formula levels of an annotation count towards the nesting bound
    t = Var("x0")
    for i in reversed(range(MAX_NESTING - 1)):
        t = Abs(f"x{i}", Arrow(P, P), t)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_term(print_term(close(t)))
    # and the parser gives each name one role
    with pytest.raises(ParseError, match="both as a lambda-variable"):
        parse_term(print_term(Pair(Var("k"), Named("k", Var("y")))))
