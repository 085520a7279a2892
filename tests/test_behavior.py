"""Behavioral probes for the three classical laws."""

import dataclasses

import pytest

from lambdamu import (
    Abs, App, Arrow, BOT, Leaf, Mu, Named, Pair, PropVar, ReductTooDeep, Var,
    canonical_terms, close, parse_formula, parse_term, print_term,
    probe_exfalso, probe_peirce, probe_tertium, search_spine_reduct,
)
from lambdamu.syntax import MAX_NESTING
from lambdamu.typecheck import TypeCheckError

P = PropVar("P")


# --------------------------------------------------------------------------
# Spines and leaf patterns
# --------------------------------------------------------------------------

def _spine_search(src, head, tail=()):
    return search_spine_reduct(parse_term(src),
                               [("leaf", Leaf(frozenset({head}), tail))], 100)


def test_is_mu_spine_positive():
    res = _spine_search("mu a:P. [a] mu b:Q. x", "x")
    assert (res.status, res.label, res.explored) == ("found", "leaf", 1)
    assert res.trace.steps == []


def test_is_mu_spine_trivial():
    assert _spine_search("x", "x").status == "found"


def test_is_mu_spine_negative():
    assert _spine_search("mu a:P. [a] y", "x").status == "not-found"
    assert _spine_search("\\y:P. x", "x").status == "not-found"


def test_is_mu_spine_alpha():
    # the tail is matched up to alpha: its abstraction's binder may be
    # named otherwise, but not typed otherwise
    tail = (parse_term("\\z:Q. z"),)
    res = _spine_search("mu a:P. (x \\y:Q. y)", "x", tail)
    assert res.status == "found"
    assert _spine_search("mu a:P. (x \\y:P. y)", "x", tail).status == \
        "not-found"


def test_spine_slot_names_the_wrappers_mu_variables():
    res = search_spine_reduct(parse_term("mu a:P. mu b:P. (c <[a] s, [b] s>)"),
                              [("c", Leaf(frozenset({"c"}), (), True))], 100)
    assert print_term(res.slot) == "<[a] s, [b] s>"


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
    res = search_spine_reduct(t, [("c", Leaf(frozenset({"c"}), (), True))],
                              100)
    assert print_term(res.slot) == \
        "<[a0] s, <[a] s, [a1] s>>"


@pytest.mark.parametrize("pattern, src, slot", [
    (Leaf(frozenset({"t"})), "t", "t"),
    (Leaf(frozenset({"c"}), (), True), "(c s)", "s"),
    (Leaf(frozenset({"u"}), (Var("w"),), True), "((u s) w)", "s"),
    (Leaf(frozenset({"s", "v"}), (Var("w"),)), "(s w)", "s"),
])
def test_leaf_patterns_match(pattern, src, slot):
    assert print_term(pattern.match(parse_term(src))) == slot


def test_leaf_patterns_reject():
    assert Leaf(frozenset({"c"}), (), True).match(parse_term("(d s)")) is None
    assert Leaf(frozenset({"c"}), (), True).match(parse_term("c")) is None
    assert Leaf(frozenset({"c"}), (), True).match(parse_term("(c p1)")) is None
    assert Leaf(frozenset({"c"})).match(parse_term("(c s)")) is None
    assert Leaf(frozenset({"u"}), (Var("w"),), True).match(
        parse_term("(u s)")) is None
    assert Leaf(frozenset({"v"}), (Var("w"),)).match(
        parse_term("(s w)")) is None
    assert Leaf(frozenset({"v"}), (Var("w"),)).match(
        parse_term("(v s)")) is None


def test_search_spine_reduct_finds_via_reduction():
    T, _ = canonical_terms()["T"]
    probe = App(App(T, Var("t")), Var("u"))
    res = search_spine_reduct(probe, [("leaf", Leaf(frozenset({"t"})))], 1000)
    assert res.status == "found"
    assert res.label == "leaf"
    assert res.trace.initial == probe
    assert res.explored >= 1


def test_search_spine_reduct_not_found():
    res = search_spine_reduct(parse_term("\\x:P. x"),
                              [("leaf", Leaf(frozenset({"t"})))], 100)
    assert res.status == "not-found"


def test_search_cap_exceeded():
    half = close(Abs("x", Arrow(P, BOT),
                     Named("a", App(Var("x"), Var("x")))))
    loop = App(half, half)
    res = search_spine_reduct(loop, [("leaf", Leaf(frozenset({"t"})))], 5)
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
    # nor may a count be negative, on any probe
    library = canonical_terms()
    for probe, name, counts in [(probe_exfalso, "T", ("n_args",)),
                                (probe_peirce, "C1", ("n_args", "max_m")),
                                (probe_tertium, "W", ("seq_len", "max_m"))]:
        subject = library[name][0]
        with pytest.raises(ValueError):
            probe(subject, seed=-1)
        for count in counts:
            with pytest.raises(ValueError, match=f"^{count} must be >= 0$"):
                probe(subject, **{count: -1})


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
# Refusals shared by the three probes
# --------------------------------------------------------------------------

@pytest.mark.parametrize("probe, expected", [
    (probe_exfalso, "_|_ -> A"),
    (probe_peirce, "(~P -> P) -> P"),
    (probe_tertium, "~P \\/ P or P \\/ ~P"),
])
def test_probe_refusal_texts(probe, expected):
    with pytest.raises(TypeCheckError) as refused:
        probe(parse_term("\\x:P. x"))
    assert str(refused.value) == \
        f"subject must have type {expected}: in \\x:P. x: found P -> P"
    with pytest.raises(TypeCheckError) as refused:
        probe(Var("x"))
    assert str(refused.value) == "probe subject must be closed: in x"


def _nested(body, levels):
    for _ in range(levels):
        body = Abs("x", P, body)
    return body


@pytest.mark.parametrize("probe", [probe_exfalso, probe_peirce,
                                   probe_tertium])
def test_probe_refuses_a_too_deep_subject(probe):
    # closed subjects built in code, deeper than the parser admits
    for levels in (MAX_NESTING, 3000):
        with pytest.raises(ReductTooDeep, match="after 0 steps"):
            probe(_nested(Var(0), levels))
    # exactly at the bound the subject is checked, and its type refused
    with pytest.raises(TypeCheckError, match="^subject must have type"):
        probe(_nested(Var(0), MAX_NESTING - 1))
    # closedness is tested first
    with pytest.raises(TypeCheckError, match="^probe subject must be closed"):
        probe(_nested(Var("y"), MAX_NESTING))


# --------------------------------------------------------------------------
# Probe robustness: enumerated inhabitants at small size all confirm
# --------------------------------------------------------------------------

def test_exfalso_small_enumerated():
    from lambdamu import enumerate_typed_terms
    corpus = enumerate_typed_terms(6, target=parse_formula("_|_ -> P"))
    assert len(corpus) > 0
    for e in corpus.entries:
        assert probe_exfalso(e.term).verdict == "confirmed", print_term(e.term)
