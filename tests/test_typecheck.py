"""Typing rules, erasure, and derivation validation."""

import pytest
from hypothesis import given

from lambdamu import (
    Abs, App, Arrow, BOT, Conj, Derivation, Disj, Judgment, Mu,
    MissingAnnotationError, Mismatch, Named, PropVar, TypeCheckError,
    UnboundVariableError, Var, canonical_terms, check, close,
    derivation_to_json, enumerate_typed_terms, infer, Inj1, parse_formula,
    parse_term, print_term, probe_exfalso, probe_peirce, probe_tertium,
    run_suite, validate_derivation,
)
from lambdamu.terms import rename_binders

from erasure import erase

P = PropVar("P")
Q = PropVar("Q")


def typeof(src, gamma=None, delta=None):
    return infer(gamma or {}, delta or {}, parse_term(src)).conclusion.formula


# --------------------------------------------------------------------------
# Golden types for the canonical classical terms
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name, formula", [
    ("T", "_|_ -> P"),
    ("Tvar", "_|_ -> P"),
    ("C1", "(~P -> P) -> P"),
    ("C2", "(~P -> P) -> P"),
    ("W", "P \\/ ~P"),
    ("Wprime", "~P \\/ P"),
])
def test_canonical_golden_types(name, formula):
    term, ty = canonical_terms()[name]
    assert ty == parse_formula(formula)
    assert check({}, {}, term, ty) == ty
    assert infer({}, {}, term).conclusion.formula == ty


# --------------------------------------------------------------------------
# One positive case per typing rule
# --------------------------------------------------------------------------

@pytest.mark.parametrize("src, gamma, expected", [
    # ax
    ("x", {"x": P}, "P"),
    # arrow-i / arrow-e
    ("\\x:P. x", {}, "P -> P"),
    ("(f x)", {"f": Arrow(P, Q), "x": P}, "Q"),
    # and-i / and-e1 / and-e2
    ("<x, y>", {"x": P, "y": Q}, "P /\\ Q"),
    ("(p p1)", {"p": Conj(P, Q)}, "P"),
    ("(p p2)", {"p": Conj(P, Q)}, "Q"),
    # or-i1 / or-i2 / or-e
    ("in1{Q} x", {"x": P}, "P \\/ Q"),
    ("in2{P} x", {"x": Q}, "P \\/ Q"),
    ("(w [x.x, y.z])", {"w": Disj(P, P), "z": P}, "P"),
    ("(w [x.x, y.z]{P})", {"w": Disj(P, P), "z": P}, "P"),
])
def test_rule_positive(src, gamma, expected):
    assert typeof(src, gamma) == parse_formula(expected)


def test_abs_rules():
    # abs-i: naming yields bottom; abs-e: mu discharges it
    assert typeof("[a] x", {"x": P}, {"a": P}) == BOT
    assert typeof("mu a:P. x", {"x": BOT}) == P
    assert typeof("\\z:_|_. mu a:P. z", {}) == Arrow(BOT, P)


def test_infer_returns_full_derivation():
    d = infer({}, {}, parse_term("\\x:P. x"))
    assert isinstance(d, Derivation)
    assert d.rule == "arrow-i"
    assert d.premises[0].rule == "ax"
    # the binder is kept by index, and named x when the judgment is
    j = d.premises[0].conclusion
    assert (j.gamma, j.binders, j.delta) == ((), ((False, "x", P),), ())
    assert j.named() == ((("x", P),), (), (("x",), ()))


# --------------------------------------------------------------------------
# Rejections
# --------------------------------------------------------------------------

def test_unbound_lambda_variable():
    with pytest.raises(UnboundVariableError):
        infer({}, {}, parse_term("x"))


def test_unbound_mu_variable():
    with pytest.raises(UnboundVariableError):
        infer({"x": P}, {}, parse_term("[a] x"))


def test_missing_annotation():
    with pytest.raises(MissingAnnotationError):
        infer({}, {}, close(Abs("x", None, Var("x"))))
    with pytest.raises(MissingAnnotationError):
        infer({"x": P}, {}, Mu("a", None, Var("x")))


@pytest.mark.parametrize("src, gamma", [
    ("(x y)", {"x": P, "y": P}),                  # non-arrow applied
    ("(f x)", {"f": Arrow(P, Q), "x": Q}),        # wrong argument type
    ("(x p1)", {"x": P}),                         # projection of non-pair
    ("(x [u.u, v.v])", {"x": P}),                 # case on non-disjunction
    ("(w [u.u, v.v])", {"w": Disj(P, Q)}),        # branch types differ
    ("mu a:P. x", {"x": P}),                      # mu body must be _|_
    ("[a] x", {"x": P}),                          # wrong delta type
])
def test_rule_negative(src, gamma):
    delta = {"a": Q} if "[a]" in src else {}
    with pytest.raises(TypeCheckError):
        infer(gamma, delta, parse_term(src))


def test_error_names_the_binders_around_the_subterm():
    with pytest.raises(Mismatch) as error:
        infer({"w": Disj(P, Q)}, {}, parse_term(
            "\\x:P. mu a:Q. [a] (w [u.(x u), v.v])"))
    assert str(error.value) == (
        "applied term is not a function: in (x u): (rule arrow-e): "
        "found P")
    with pytest.raises(Mismatch) as error:
        infer({}, {}, parse_term("\\x:P. mu a:Q. [a] x"))
    assert str(error.value) == (
        "named term disagrees with 'a': in [a] x: (rule abs-i): "
        "expected Q, found P")


def test_case_annotation_mismatch():
    t = parse_term("(w [x.x, y.y]{Q})")
    with pytest.raises(Mismatch, match="annotation"):
        infer({"w": Disj(P, P)}, {}, t)


def test_check_mismatch():
    with pytest.raises(Mismatch):
        check({}, {}, parse_term("\\x:P. x"), parse_formula("P -> Q"))


def test_named_at_bot_requires_bot_in_delta():
    assert typeof("[a] x", {"x": BOT}, {"a": BOT}) == BOT


# --------------------------------------------------------------------------
# Shadowing is lexical
# --------------------------------------------------------------------------

def test_lambda_shadowing_uses_inner_binding():
    t = close(Abs("x", P, Abs("x", Q, Var("x"))))
    assert infer({}, {}, t).conclusion.formula == Arrow(P, Arrow(Q, Q))


def test_mu_shadowing_uses_inner_binding():
    t = close(Mu("a", P, Named("a", Mu("a", P, Named("a", Var("x"))))))
    assert infer({"x": P}, {}, t).conclusion.formula == P
    # the inner [a] checks against the inner binder's type
    with pytest.raises(Mismatch):
        infer({"x": Q}, {}, t)


def test_weakening():
    extra = {"x": P, "unused": Q}
    assert typeof("\\y:Q. x", extra) == Arrow(Q, P)


# --------------------------------------------------------------------------
# Erasure, the tests' own helper (tests/erasure.py), which the golden
# type-error digest reads
# --------------------------------------------------------------------------

def test_erase_drops_annotations():
    t = parse_term("\\x:P. mu a:Q. [a] in1{P} (x [u.u, v.v]{Q})")
    e = erase(t)
    assert e.ann is None
    assert e.body.ann is None
    inj = e.body.body.body
    assert inj.ann is None
    assert inj.body.arg.ann is None


def test_erase_preserves_structure():
    for name, (t, _) in canonical_terms().items():
        assert erase(erase(t)) == erase(t)
    with pytest.raises(TypeError, match="^not a term: 'junk'$"):
        erase("junk")


# --------------------------------------------------------------------------
# Derivation validation and serialization
# --------------------------------------------------------------------------

def test_validate_canonical_derivations():
    for name, (t, ty) in canonical_terms().items():
        d = infer({}, {}, t)
        assert d.conclusion.formula == ty
        validate_derivation(d)


def test_validate_rejects_forged_conclusion():
    d = infer({}, {}, parse_term("\\x:P. x"))
    forged = Derivation(d.rule,
                        d.conclusion.__class__(d.conclusion.gamma,
                                               d.conclusion.term,
                                               Q,
                                               d.conclusion.delta),
                        d.premises)
    with pytest.raises(TypeCheckError):
        validate_derivation(forged)


def test_validate_rejects_wrong_rule_name():
    d = infer({}, {}, parse_term("\\x:P. x"))
    with pytest.raises(TypeCheckError):
        validate_derivation(Derivation("ax", d.conclusion, d.premises))
    with pytest.raises(TypeCheckError) as info:
        validate_derivation(Derivation("cut", d.conclusion, d.premises))
    assert str(info.value) == \
        "invalid cut node (unknown rule):  |- \\x:P. x : P -> P ; "


@pytest.mark.parametrize("src, gamma, delta, message", [
    ("(f y)", {"f": Arrow(P, P), "y": P}, {},
     "invalid arrow-e node (arrow-e shape): f:P -> P, y:P |- (f y) : Q ; "),
    ("<y, y>", {"y": P}, {},
     "invalid and-i node (and-i shape): y:P |- <y, y> : Q ; "),
    ("(z p1)", {"z": Conj(P, P)}, {},
     "invalid and-e1 node (projection shape): z:P /\\ P |- (z p1) : Q ; "),
    ("(z p2)", {"z": Conj(P, P)}, {},
     "invalid and-e2 node (projection shape): z:P /\\ P |- (z p2) : Q ; "),
    ("in1{P} y", {"y": P}, {},
     "invalid or-i1 node (or-i1 shape): y:P |- in1{P} y : Q ; "),
    ("in2{P} y", {"y": P}, {},
     "invalid or-i2 node (or-i2 shape): y:P |- in2{P} y : Q ; "),
    ("(z [u.u, v.v])", {"z": Disj(P, P)}, {},
     "invalid or-e node (or-e shape): z:P \\/ P |- (z [u.u, v.v]) : Q ; "),
    ("[a] y", {"y": P}, {"a": P},
     "invalid abs-i node (abs-i shape): y:P |- [a] y : Q ; a:P"),
    ("mu a:P. [a] y", {"y": P}, {},
     "invalid abs-e node (abs-e shape): y:P |- mu a:P. [a] y : Q ; "),
])
def test_validate_rejects_a_forged_formula(src, gamma, delta, message):
    # each rule's schema refuses its valid node with the conclusion's
    # formula replaced
    d = infer(gamma, delta, parse_term(src))
    forged = Judgment(d.conclusion.gamma, d.conclusion.term, Q,
                      d.conclusion.delta, d.conclusion.binders)
    with pytest.raises(TypeCheckError) as info:
        validate_derivation(Derivation(d.rule, forged, d.premises))
    assert str(info.value) == message


def test_derivation_to_json():
    d = infer({}, {}, parse_term("\\x:P. x"))
    j = derivation_to_json(d)
    assert j["rule"] == "arrow-i"
    assert j["judgment"]["formula"] == "P -> P"
    assert j["premises"][0]["rule"] == "ax"


def _last_path(j):
    """The judgments from the root of a derivation in JSON to its last
    leaf."""
    path = [j["judgment"]]
    while j["premises"]:
        j = j["premises"][-1]
        path.append(j["judgment"])
    return path


@pytest.mark.parametrize("src, gamma, name, judgment", [
    # three lambdas named x0; the last leaf reads the outermost
    ("\\x0:Q. \\x1:P. \\z:P. x0", {}, "x0",
     {"gamma": {"x0": "Q", "x1": "P", "x2": "P"}, "term": "x0",
      "formula": "Q", "delta": {}}),
    # case binders named as the lambda around them
    ("\\x0:P \\/ Q. (x0 [x1.x0, x2.in2{P} x2])", {}, "x0",
     {"gamma": {"x0": "P \\/ Q", "x1": "Q"}, "term": "x1", "formula": "Q",
      "delta": {}}),
    # two mu binders named a0; the last naming is by the outer one
    ("mu a0:P. [a0] (f mu a1:Q. [a0] y)", {"y": P, "f": Arrow(Q, P)}, "a0",
     {"gamma": {"f": "Q -> P", "y": "P"}, "term": "[a0] y",
      "formula": "_|_", "delta": {"a0": "P", "a1": "Q"}}),
    # a binder named as a variable of the given context
    ("\\x0:Q. y", {"y": P}, "y",
     {"gamma": {"y": "P", "y0": "Q"}, "term": "y", "formula": "P",
      "delta": {}}),
    # a mu binder named as the lambda around it
    ("\\x0:P. mu a0:P. [a0] x0", {}, "x",
     {"gamma": {"x": "P"}, "term": "[x0] x", "formula": "_|_",
      "delta": {"x0": "P"}}),
    # a lambda binder named as the mu binder around it
    ("mu a0:P -> P. [a0] \\x0:P. x0", {}, "a",
     {"gamma": {"a0": "P"}, "term": "a0", "formula": "P",
      "delta": {"a": "P -> P"}}),
    # forty lambdas named as the given variable; the last leaf reads the
    # outermost, the first to take a new name
    ("".join(f"\\y{i}:P. " for i in range(40)) + "y0", {"x0": P}, "x0",
     {"gamma": {f"x{i}": "P" for i in range(41)}, "term": "x1",
      "formula": "P", "delta": {}}),
])
def test_repeated_binder_names_give_valid_derivations(src, gamma, name,
                                                      judgment):
    # with every binder renamed to name, each judgment records the binders
    # under the names print_term gives them, so the derivation validates;
    # judgment is on the way to the last leaf
    t = parse_term(src)
    renamed = rename_binders(t, lambda kind, hint: name)
    d = infer(gamma, {}, renamed)
    validate_derivation(d)
    assert d.conclusion.formula == infer(gamma, {}, t).conclusion.formula
    assert judgment in _last_path(derivation_to_json(d))


def _judgments(d):
    yield d.conclusion
    for p in d.premises:
        yield from _judgments(p)


@pytest.mark.parametrize("src", [
    "\\x0:P. mu a0:P. [a0] x0",
    "mu a0:P -> P. [a0] \\x0:P. mu a1:P. [a0] \\x1:P. mu a2:P. [a1] x1",
    "\\x0:P \\/ P. mu a0:P. [a0] (x0 [x1.x1, x2.mu a1:P. [a0] x2])",
])
def test_judgments_never_name_two_namespaces_alike(src):
    # with every binder named alike, each judgment's term prints with
    # names the parser takes back, for no name is both a lambda- and a
    # mu-variable there
    t = parse_term(src)
    renamed = rename_binders(t, lambda kind, hint: "x")
    d = infer({}, {}, renamed)
    validate_derivation(d)
    for j in _judgments(d):
        gamma, delta, names = j.named()
        lam, mu = {x for x, _ in gamma}, {a for a, _ in delta}
        assert len(lam) + len(mu) == len(j.binders)
        assert not lam & mu
        text = print_term(j.term, *names)
        assert print_term(parse_term(text)) == text


@pytest.mark.parametrize("judgment", [
    Judgment((), Var(0), BOT, ()),
    Judgment((("y", P),), Named(0, Var("y")), BOT, ()),
])
def test_validate_rejects_an_index_past_the_names(judgment):
    # a forged node whose term has an index its judgment names no binder
    # for is invalid, not an IndexError
    rule = "ax" if isinstance(judgment.term, Var) else "abs-i"
    with pytest.raises(TypeCheckError, match="an index past the names"):
        validate_derivation(Derivation(rule, judgment, ()))


# a negative index refers to no binder, though read from the end of the
# binders it would find the outermost one
@pytest.mark.parametrize("gamma, term", [
    ({}, Abs("x", P, Abs("y", Q, Var(-1)))),
    ({"z": P}, Mu("a", P, Named(-1, Var("z")))),
])
def test_a_negative_index_is_unbound(gamma, term):
    with pytest.raises(UnboundVariableError):
        check(gamma, {}, term)
    with pytest.raises(UnboundVariableError):
        infer(gamma, {}, term)


# an error whose term has an index no given name reaches, or a negative
# one, leaves the term out rather than fail to print it
@pytest.mark.parametrize("refused, text", [
    (lambda: check({"x": P}, {}, App(Var("x"), Var(1))),
     "applied term is not a function: (rule arrow-e): found P"),
    (lambda: check({}, {}, Inj1(Var(0), None)),
     "in1 needs the other disjunct as annotation: (rule or-i1)"),
    (lambda: check({"x": P}, {}, App(Var("x"), Var(-1))),
     "applied term is not a function: (rule arrow-e): found P"),
    (lambda: probe_exfalso(Abs("z", BOT, Var(3))),
     "probe subject must be closed"),
], ids=["index-past-the-names", "unannotated-injection", "negative-index",
        "open-probe-subject"])
def test_an_error_leaves_out_a_term_it_cannot_print(refused, text):
    with pytest.raises(TypeCheckError) as error:
        refused()
    assert str(error.value) == text


@pytest.mark.parametrize("binders", [(), ((False, "x", P), (True, "a", P))])
def test_validate_rejects_a_negative_index(binders):
    z = (("z", P),)
    ax = Derivation("ax", Judgment((), Var(-1), P, (), binders))
    abs_i = Derivation("abs-i", Judgment(z, Named(-1, Var("z")), BOT, (),
                                         binders),
                       (Derivation("ax", Judgment(z, Var("z"), P, (),
                                                  binders)),))
    for d in (ax, abs_i):
        with pytest.raises(TypeCheckError, match="a negative index"):
            validate_derivation(d)


@pytest.mark.parametrize("src, forge", [
    # a premise that drops, renames or retypes the binder its rule adds
    ("\\x:P. x", lambda j: {"binders": ()}),
    ("\\x:P. x", lambda j: {"binders": ((False, "y", P),)}),
    ("mu a:P. [a] y", lambda j: {"binders": ((False, "a", P),)}),
    ("(w [u.u, v.v])", lambda j: {"binders": ((False, "u", Q),)}),
    # a premise that changes a given context
    ("\\x:P. x", lambda j: {"gamma": (("z", P),)}),
    ("(w [u.u, v.v])", lambda j: {"delta": (("a", P),)}),
])
def test_validate_rejects_a_premise_with_other_contexts(src, forge):
    gamma = {"y": P, "w": Disj(P, P)}
    d = infer(gamma, {}, parse_term(src))
    validate_derivation(d)
    p = d.premises[-1]
    j = p.conclusion
    fields = {"gamma": j.gamma, "term": j.term, "formula": j.formula,
              "delta": j.delta, "binders": j.binders, **forge(j)}
    forged = Derivation(d.rule, d.conclusion, d.premises[:-1] + (
        Derivation(p.rule, Judgment(**fields), p.premises),))
    with pytest.raises(TypeCheckError, match="contexts"):
        validate_derivation(forged)


def test_oracles_and_probes_build_no_derivation(monkeypatch):
    # enumeration, the three oracles and the probes read formulas only;
    # derivations are built for infer's callers alone
    built = []
    init = Derivation.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["rule"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Derivation, "__init__", counted)
    corpus = enumerate_typed_terms(8)
    reports = run_suite(corpus)
    terms = canonical_terms()
    verdicts = [probe_exfalso(terms["T"][0]).verdict,
                probe_peirce(terms["C1"][0]).verdict,
                probe_tertium(terms["W"][0]).verdict]
    assert [(r.checked, len(r.failures)) for r in reports] == \
        [(len(corpus), 0)] * 3
    assert verdicts == ["confirmed"] * 3
    assert built == []
    infer({}, {}, terms["T"][0])
    assert built == ["ax", "abs-e", "arrow-i"]


def test_infer_deterministic():
    t = parse_term("\\z:~P -> P. mu a:P. [a] (z \\y:P. [a] y)")
    assert infer({}, {}, t) == infer({}, {}, t)


# --------------------------------------------------------------------------
# Typing is invariant under alpha-renaming (property)
# --------------------------------------------------------------------------

from test_syntax import terms  # noqa: E402


@given(terms(3))
def test_infer_total_or_typed_error(t):
    # the checker either returns a derivation or raises a TypeCheckError;
    # it never crashes with anything else
    try:
        d = infer({"free": P}, {}, t)
    except TypeCheckError:
        return
    validate_derivation(d)
