"""shift, substitute and mu_substitute against the textbook de Bruijn
definitions of tests/debruijn.py, on generated open terms and on every
contraction of the size-10 corpus graphs."""

import pytest
from hypothesis import given, strategies as st

from lambdamu import (
    Abs, App, Case, Inj1, Inj2, Mu, Named, PROJ1, PROJ2, Pair, Proj1, Proj2,
    Term, Var, close, enumerate_typed_terms, mu_substitute, reduction,
    substitute,
)
from lambdamu.reduction import reduction_graph
from lambdamu.terms import shift

import debruijn
from test_syntax import terms


def _dangling(t):
    """t, whose lambda-names y and z and mu-name b may be free, with y, z
    and b turned into dangling indices 0, 1 and 0; its lambda-name free
    and mu-name c stay free names."""
    return close(Abs("z", None, Abs("y", None, Mu("b", None, t)))) \
        .body.body.body


open_terms = terms(3, frozenset({"y", "z"}), frozenset({"b", "c"})) \
    .map(_dangling)
open_eterms = open_terms | st.sampled_from([PROJ1, PROJ2]) \
    | st.builds(lambda u, v: Case("x", u, "w", v), open_terms, open_terms)


@given(open_eterms, st.integers(0, 2), st.integers(0, 2))
def test_shift_is_the_textbook_shift(e, dl, dm):
    assert shift(e, dl, dm) == debruijn.shift(e, dl, dm)


@given(open_terms, st.sampled_from([0, 1, 2, "free", "y"]), open_terms)
def test_substitute_is_the_textbook_substitution(t, x, v):
    assert substitute(t, x, v) == debruijn.substitute(t, x, v)


@given(open_terms, st.sampled_from([0, 1, "c"]),
       st.lists(st.sampled_from([Abs, Mu, Case]), max_size=3), open_terms,
       st.lists(open_eterms, min_size=1, max_size=2))
def test_mu_substitute_is_parigots_structural_substitution(t, a, kinds, u,
                                                           es):
    # t as generated, and an occurrence (a u) under the binders kinds,
    # outermost first, a Case being both branches of one: generated terms
    # seldom hold one below a binder
    placed = Named(a + kinds.count(Mu) if type(a) is int else a, u)
    for kind in reversed(kinds):
        placed = App(Var("free"), Case("k", placed, "w", placed)) \
            if kind is Case else kind("k", None, placed)
    for s in (t, placed):
        assert mu_substitute(s, a, es) == debruijn.mu_substitute(s, a, es)


def _subterm(t, position):
    """The subterm of t at position, as reduction numbers children."""
    for i in position:
        if type(t) is App:
            if i == 0:
                t = t.fun
            elif type(t.arg) is Case:
                t = t.arg.left if i == 1 else t.arg.right
            else:
                t = t.arg
        elif type(t) is Pair:
            t = t.snd if i else t.fst
        else:
            t = t.body
    return t


def _textbook_contraction(t):
    """The rule and contractum of the redex t, through tests/debruijn.py;
    annotations come from the package's own rule for them."""
    ann = reduction._result_ann
    match t:
        case App(Abs(body=body), Term() as e):
            return "beta", debruijn.substitute(body, 0, e)
        case App(Pair(fst, _), Proj1()):
            return "proj", fst
        case App(Pair(_, snd), Proj2()):
            return "proj", snd
        case App(Inj1(body), Case(left=u)) | App(Inj2(body), Case(right=u)):
            return "case-inj", debruijn.substitute(u, 0, body)
        case App(App(f, Case(x1, u1, x2, u2, c)), e):
            under = debruijn.shift(e, 1, 0)
            return "case-perm", App(f, Case(x1, App(u1, under),
                                            x2, App(u2, under), ann(c, e)))
        case App(Mu(a, m, body), e):
            return "mu-struct", Mu(a, ann(m, e), debruijn.mu_substitute(
                body, 0, [debruijn.shift(e, 0, 1)]))


@pytest.fixture(scope="module")
def corpus_nodes():
    nodes = {}
    for entry in enumerate_typed_terms(10).entries:
        nodes.update(reduction_graph(entry.term).nodes)
    return list(nodes.values())


def _disagreements(nodes):
    """The redexes of nodes whose rule or contractum differs from the
    textbook contraction, and the number of redexes."""
    out, redexes = [], 0
    for t in nodes:
        for p, rule, contractum in reduction._reducts(t):
            redexes += 1
            redex = _subterm(t, p)
            if (rule, contractum) != _textbook_contraction(redex):
                out.append(redex)
    return out, redexes


def test_every_corpus_contraction_is_the_textbook_one(corpus_nodes):
    assert len(corpus_nodes) == 3089
    assert _disagreements(corpus_nodes) == ([], 4963)


def test_an_unshifted_mu_struct_argument_disagrees(monkeypatch,
                                                    corpus_nodes):
    # mu-struct moves its argument under the mu-binder: left unshifted, a
    # dangling mu-index in it is captured, which the comparison sees
    def unshifted(e, dl, dm):
        return e if (dl, dm) == (0, 1) else shift(e, dl, dm)

    monkeypatch.setattr(reduction, "shift", unshifted)
    wrong, _ = _disagreements(corpus_nodes)
    assert len(wrong) == 8
    assert {type(t.fun) for t in wrong} == {Mu}
