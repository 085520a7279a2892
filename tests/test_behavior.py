"""Behavioral probes for the three classical laws."""

import pytest

from lambdamu import (
    Abs, App, AppliedTo, Arg, Arrow, BOT, ExactLeaf, HeadApplied, Named,
    PropVar, SpineWitness, Var, alpha_equal, canonical_terms, is_mu_spine,
    parse_formula, parse_term, print_term, probe_exfalso, probe_peirce,
    probe_tertium, search_spine_reduct,
)
from lambdamu.typecheck import TypeCheckError

P = PropVar("P")


# --------------------------------------------------------------------------
# Spines and leaf patterns
# --------------------------------------------------------------------------

def test_is_mu_spine_positive():
    s = parse_term("mu a:P. [a] mu b:Q. x")
    w = is_mu_spine(s, Var("x"))
    assert isinstance(w, SpineWitness)
    assert [wr.kind for wr in w.wrappers] == ["mu", "name", "mu"]
    assert w.leaf == Var("x")
    assert alpha_equal(w.rebuild(), s)


def test_is_mu_spine_trivial():
    w = is_mu_spine(Var("x"), Var("x"))
    assert w is not None and w.wrappers == ()


def test_is_mu_spine_negative():
    assert is_mu_spine(parse_term("mu a:P. [a] y"), Var("x")) is None
    assert is_mu_spine(parse_term("\\y:P. x"), Var("x")) is None


def test_is_mu_spine_alpha():
    s = parse_term("mu a:P. \\y:Q. y")
    assert is_mu_spine(s, parse_term("\\z:Q. z")) is not None


@pytest.mark.parametrize("pattern, src, slot", [
    (ExactLeaf(Var("t")), "t", "t"),
    (HeadApplied("c", ()), "(c s)", "s"),
    (HeadApplied("u", (Arg(Var("w")),)), "((u s) w)", "s"),
    (AppliedTo((Arg(Var("w")),)), "(s w)", "s"),
])
def test_leaf_patterns_match(pattern, src, slot):
    got = pattern.match(parse_term(src))
    assert got is not None
    if slot != "t":
        assert print_term(got["slot"]) == slot


def test_leaf_patterns_reject():
    assert HeadApplied("c", ()).match(parse_term("(d s)")) is None
    assert HeadApplied("u", (Arg(Var("w")),)).match(parse_term("(u s)")) is None
    assert AppliedTo((Arg(Var("w")),),
                     frozenset({"v"})).match(parse_term("(s w)")) is None
    assert AppliedTo((Arg(Var("w")),),
                     frozenset({"v"})).match(parse_term("(v w)")) == \
        {"slot": Var("v")}


def test_search_spine_reduct_finds_via_reduction():
    T, _ = canonical_terms()["T"]
    probe = App(App(T, Arg(Var("t"))), Arg(Var("u")))
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
    half = Abs("x", Arrow(P, BOT),
               Named("a", App(Var("x"), Arg(Var("x")))))
    loop = App(half, Arg(half))
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
    assert report.confirmed
    assert report.law == "exfalso"
    assert report.m == 0
    assert report.traces


def test_exfalso_multiple_args():
    t, _ = canonical_terms()["T"]
    for n in range(4):
        assert probe_exfalso(t, n_args=n).confirmed


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
    assert r3.confirmed  # verdict independent of seed


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
    assert report.confirmed
    assert report.m == 1
    assert len(report.thetas) == 1
    # the continuation theta feeds [a] back through the argument slot
    theta = report.thetas[0]
    assert isinstance(theta, Abs)


def test_peirce_c2():
    t, _ = canonical_terms()["C2"]
    report = probe_peirce(t)
    assert report.confirmed
    assert report.m == 2
    assert len(report.thetas) == 2


def test_peirce_rejects_wrong_type():
    with pytest.raises(TypeCheckError):
        probe_peirce(canonical_terms()["T"][0])


def test_peirce_seed_determinism():
    t, _ = canonical_terms()["C2"]
    assert probe_peirce(t, seed=3).to_json() == probe_peirce(t, seed=3).to_json()


def test_peirce_extra_args():
    t, _ = canonical_terms()["C1"]
    assert probe_peirce(t, n_args=2).confirmed


# --------------------------------------------------------------------------
# probe_tertium
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["W", "Wprime"])
def test_tertium_canonical(name):
    t, _ = canonical_terms()[name]
    report = probe_tertium(t)
    assert report.confirmed
    assert report.m == 2
    assert len(report.thetas) == 2
    kinds = [s["kind"] for s in report.stages if "kind" in s]
    assert kinds == ["pos", "neg"]


def test_tertium_rejects_wrong_type():
    with pytest.raises(TypeCheckError):
        probe_tertium(canonical_terms()["T"][0])


def test_tertium_seq_len():
    t, _ = canonical_terms()["W"]
    assert probe_tertium(t, seq_len=2).confirmed


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
        assert probe_exfalso(e.term).confirmed, print_term(e.term)
