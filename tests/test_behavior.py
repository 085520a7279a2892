"""Behavioral probes for the three classical laws."""

import dataclasses

import pytest

from lambdamu import (
    Abs, App, AppliedTo, Arrow, BOT, ExactLeaf, HeadApplied, Mu, Named,
    Pair, PropVar, Var, canonical_terms, close, parse_formula, parse_term,
    print_term, probe_exfalso, probe_peirce, probe_tertium,
    search_spine_reduct,
)
from lambdamu.typecheck import TypeCheckError

P = PropVar("P")


# --------------------------------------------------------------------------
# Spines and leaf patterns
# --------------------------------------------------------------------------

def _spine_search(src, leaf):
    return search_spine_reduct(parse_term(src), [("leaf", ExactLeaf(leaf))],
                               100)


def test_is_mu_spine_positive():
    res = _spine_search("mu a:P. [a] mu b:Q. x", Var("x"))
    assert (res.status, res.label, res.explored) == ("found", "leaf", 1)
    assert res.trace.steps == []


def test_is_mu_spine_trivial():
    assert _spine_search("x", Var("x")).status == "found"


def test_is_mu_spine_negative():
    assert _spine_search("mu a:P. [a] y", Var("x")).status == "not-found"
    assert _spine_search("\\y:P. x", Var("x")).status == "not-found"


def test_is_mu_spine_alpha():
    res = _spine_search("mu a:P. \\y:Q. y", parse_term("\\z:Q. z"))
    assert res.status == "found"


def test_spine_slot_names_the_wrappers_mu_variables():
    res = search_spine_reduct(parse_term("mu a:P. mu b:P. (c <[a] s, [b] s>)"),
                              [("c", HeadApplied("c", ()))], 100)
    assert print_term(res.bindings["slot"]) == "<[a] s, [b] s>"


def test_spine_slot_names_avoid_free_names():
    # a wrapper whose hint is a free name of the term, and a second
    # wrapper with the same hint: each gets a name of its own
    body = App(Var("c"), Pair(Named("b", Var("s")),
                              Pair(Named("a", Var("s")),
                                   Named("c2", Var("s")))))
    t = close(Mu("b", P, Mu("c2", P, body)))
    t = dataclasses.replace(t, var="a",
                            body=dataclasses.replace(t.body, var="a"))
    assert print_term(t) == "mu a0:P. mu a1:P. (c <[a0] s, <[a] s, [a1] s>>)"
    res = search_spine_reduct(t, [("c", HeadApplied("c", ()))], 100)
    assert print_term(res.bindings["slot"]) == \
        "<[a0] s, <[a] s, [a1] s>>"


@pytest.mark.parametrize("pattern, src, slot", [
    (ExactLeaf(Var("t")), "t", "t"),
    (HeadApplied("c", ()), "(c s)", "s"),
    (HeadApplied("u", (Var("w"),)), "((u s) w)", "s"),
    (AppliedTo((Var("w"),)), "(s w)", "s"),
])
def test_leaf_patterns_match(pattern, src, slot):
    got = pattern.match(parse_term(src))
    assert got is not None
    if slot != "t":
        assert print_term(got["slot"]) == slot


def test_leaf_patterns_reject():
    assert HeadApplied("c", ()).match(parse_term("(d s)")) is None
    assert HeadApplied("u", (Var("w"),)).match(parse_term("(u s)")) is None
    assert AppliedTo((Var("w"),),
                     frozenset({"v"})).match(parse_term("(s w)")) is None
    assert AppliedTo((Var("w"),),
                     frozenset({"v"})).match(parse_term("(v w)")) == \
        {"slot": Var("v")}


def test_search_spine_reduct_finds_via_reduction():
    T, _ = canonical_terms()["T"]
    probe = App(App(T, Var("t")), Var("u"))
    res = search_spine_reduct(probe, [("leaf", ExactLeaf(Var("t")))], 1000)
    assert res.status == "found"
    assert res.label == "leaf"
    assert res.trace.initial == probe
    assert res.explored >= 1


def test_search_spine_reduct_not_found():
    res = search_spine_reduct(parse_term("\\x:P. x"),
                              [("leaf", ExactLeaf(Var("t")))], 100)
    assert res.status == "not-found"


def test_search_cap_exceeded():
    half = close(Abs("x", Arrow(P, BOT),
                     Named("a", App(Var("x"), Var("x")))))
    loop = App(half, half)
    res = search_spine_reduct(loop, [("leaf", ExactLeaf(Var("t")))], 5)
    assert res.status == "cap-exceeded"


# --------------------------------------------------------------------------
# Canonical terms
# --------------------------------------------------------------------------

def test_canonical_terms_all_closed_and_typed():
    lib = canonical_terms()
    assert set(lib) == {"T", "Tvar", "C1", "C2", "W", "Wprime"}
    for name, (t, ty) in lib.items():
        assert ty is not None


# --------------------------------------------------------------------------
# probe_exfalso
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["T", "Tvar"])
def test_exfalso_confirms_canonical(name):
    t, _ = canonical_terms()[name]
    report = probe_exfalso(t)
    assert report.verdict == "confirmed"
    assert report.law == "exfalso"
    assert report.m == 0
    assert report.traces


def test_exfalso_multiple_args():
    t, _ = canonical_terms()["T"]
    for n in range(4):
        assert probe_exfalso(t, n_args=n).verdict == "confirmed"


def test_exfalso_rejects_wrong_type():
    with pytest.raises(TypeCheckError):
        probe_exfalso(parse_term("\\x:P. x"))


def test_exfalso_rejects_open_subject():
    with pytest.raises(TypeCheckError):
        probe_exfalso(parse_term("\\z:_|_. mu a:P. y"))


def test_exfalso_seed_determinism():
    t, _ = canonical_terms()["T"]
    r1 = probe_exfalso(t, seed=7)
    r2 = probe_exfalso(t, seed=7)
    assert r1.to_json() == r2.to_json()
    r3 = probe_exfalso(t, seed=8)
    assert r3.verdict == "confirmed"  # verdict independent of seed


def test_exfalso_json():
    t, _ = canonical_terms()["T"]
    j = probe_exfalso(t).to_json()
    assert j["law"] == "exfalso"
    assert j["verdict"] == "confirmed"


# --------------------------------------------------------------------------
# probe_peirce
# --------------------------------------------------------------------------

def test_peirce_c1():
    t, _ = canonical_terms()["C1"]
    report = probe_peirce(t)
    assert report.verdict == "confirmed"
    assert report.m == 1
    assert len(report.thetas) == 1
    # the continuation theta feeds [a] back through the argument slot
    theta = report.thetas[0]
    assert isinstance(theta, Abs)


def test_peirce_c2():
    t, _ = canonical_terms()["C2"]
    report = probe_peirce(t)
    assert report.verdict == "confirmed"
    assert report.m == 2
    assert len(report.thetas) == 2


def test_peirce_rejects_wrong_type():
    with pytest.raises(TypeCheckError):
        probe_peirce(canonical_terms()["T"][0])


def test_peirce_seed_determinism():
    t, _ = canonical_terms()["C2"]
    assert probe_peirce(t, seed=3).to_json() == probe_peirce(t, seed=3).to_json()


def test_negative_seed_is_refused():
    # a negative seed would issue names such as t-2, which do not parse
    with pytest.raises(ValueError):
        probe_peirce(canonical_terms()["C1"][0], seed=-1)


def test_peirce_extra_args():
    t, _ = canonical_terms()["C1"]
    assert probe_peirce(t, n_args=2).verdict == "confirmed"


# --------------------------------------------------------------------------
# probe_tertium
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["W", "Wprime"])
def test_tertium_canonical(name):
    t, _ = canonical_terms()[name]
    report = probe_tertium(t)
    assert report.verdict == "confirmed"
    assert report.m == 2
    assert len(report.thetas) == 2
    # the first theta continues the P branch and is fed a fresh tail,
    # the second continues the ~P branch and is fed a fresh v
    fed = [trace.initial for trace in report.traces[1:]]
    assert [t.fun for t in fed] == report.thetas
    assert [t.arg.name[0] for t in fed] == ["t", "v"]
    assert report.detail.startswith("terminal (v")


def test_tertium_rejects_wrong_type():
    with pytest.raises(TypeCheckError):
        probe_tertium(canonical_terms()["T"][0])


def test_tertium_seq_len():
    t, _ = canonical_terms()["W"]
    assert probe_tertium(t, seq_len=2).verdict == "confirmed"


def test_tertium_seed_determinism():
    t, _ = canonical_terms()["W"]
    assert probe_tertium(t, seed=5).to_json() == \
        probe_tertium(t, seed=5).to_json()


# --------------------------------------------------------------------------
# Probe robustness: enumerated inhabitants at small size all confirm
# --------------------------------------------------------------------------

def test_exfalso_small_enumerated():
    from lambdamu import enumerate_typed_terms
    corpus = enumerate_typed_terms(6, target=parse_formula("_|_ -> P"))
    assert len(corpus) > 0
    for e in corpus.entries:
        assert probe_exfalso(e.term).verdict == "confirmed", print_term(e.term)
