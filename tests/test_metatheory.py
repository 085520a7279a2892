"""Enumeration of typed terms and the three metatheory oracles."""

import pytest

from lambdamu import (
    Abs, App, Arrow, BOT, Case, Conj, Corpus, Disj, Inj1, Inj2, Mu,
    Named, PROJ1, PROJ2, Pair, PropVar, Term, Var, canonical_form,
    check_confluence, check_strong_normalization, check_subject_reduction,
    check, close, curated_corpus, enumerate_typed_terms, infer, is_closed,
    parse_formula, parse_term, run_suite,
)
from lambdamu import metatheory, reduction
from lambdamu.metatheory import (
    CorpusEntry, DEFAULT_MAX_FORMULA_SIZE, Enumerator, MAX_LAMBDA_DEPTH,
    MAX_MU_DEPTH, cut_pool, formula_pool, subformulas,
)
from lambdamu.typecheck import TypeCheckError

P = PropVar("P")


# --------------------------------------------------------------------------
# Formula pool and helpers
# --------------------------------------------------------------------------

def test_formula_pool_sizes():
    assert formula_pool(1) == [P, BOT]
    assert formula_pool(2) == [P, BOT]        # connectives need 3 nodes
    assert len(formula_pool(3)) == 2 + 3 * 4  # atoms + ctor x (2 x 2)


def test_formula_pool_deterministic_order():
    assert formula_pool(3) == formula_pool(3)
    assert formula_pool(3)[:2] == [P, BOT]


def test_default_cut_pool():
    assert cut_pool() == [P, BOT, Arrow(P, BOT), Conj(P, P), Disj(P, P)]


def test_cut_pool_covers_the_target_atoms():
    q, r = PropVar("Q"), PropVar("R")
    assert cut_pool(parse_formula("~P \\/ P")) == cut_pool()
    assert cut_pool(parse_formula("R -> Q /\\ P")) == cut_pool() + [
        q, Arrow(q, BOT), Conj(q, q), Disj(q, q),
        r, Arrow(r, BOT), Conj(r, r), Disj(r, r)]


def test_subformulas():
    f = parse_formula("(P -> _|_) \\/ P")
    assert subformulas(f) == frozenset({f, Arrow(P, BOT), P, BOT})


# --------------------------------------------------------------------------
# Enumeration basics
# --------------------------------------------------------------------------

def test_enumerate_identity():
    corpus = enumerate_typed_terms(2, target=Arrow(P, P))
    forms = {canonical_form(e.term) for e in corpus.entries}
    assert canonical_form(parse_term("\\x:P. x")) in forms


def test_enumerate_efq_inhabitant():
    corpus = enumerate_typed_terms(3, target=parse_formula("_|_ -> P"))
    forms = {canonical_form(e.term) for e in corpus.entries}
    assert canonical_form(parse_term("\\z:_|_. mu a:P. z")) in forms


def test_enumerate_target_over_another_atom():
    # the Q twin of a P target has the same inhabitants, renamed
    def forms(target):
        corpus = enumerate_typed_terms(6, target=parse_formula(target))
        return sorted(canonical_form(e.term) for e in corpus.entries)

    over_q = forms("(Q -> Q) -> Q -> Q")
    assert "\\x0:Q -> Q. \\x1:Q. (x0 x1)" in over_q
    assert sorted(f.replace("Q", "P") for f in over_q) == \
        forms("(P -> P) -> P -> P")


def test_enumerate_atom_uninhabited():
    assert len(enumerate_typed_terms(6, target=P)) == 0


def test_enumerate_rejects_bad_size():
    with pytest.raises(ValueError):
        enumerate_typed_terms(0)


def test_enumerate_rejects_a_target_that_is_not_a_formula():
    with pytest.raises(TypeError, match="^not a formula: 'junk'$"):
        enumerate_typed_terms(3, target="junk")


def test_enumerator_interns_exactly_its_universe():
    # the universe (formula pool, cut pool and the target's subformulas)
    # is interned when the enumerator is built, and listing its targets
    # at every size interns nothing more
    q_law = parse_formula("(~Q -> Q) -> Q")
    for max_formula_size, target, max_size, universe in (
            (3, None, 10, 14), (5, None, 7, 158), (3, q_law, 10, 20)):
        enum = Enumerator(max_formula_size, target)
        assert len(enum._ty_of_id) == universe
        targets = [target] if target else formula_pool(max_formula_size)
        for ty in targets:
            for n in range(1, max_size + 1):
                enum.terms_of(ty, n)
        assert len(enum._ty_of_id) == universe
    enum = Enumerator(3)
    assert enum.terms_of(parse_formula("(P -> P) -> P -> P"), 5) == ()
    with pytest.raises(TypeError, match="^not a formula: 'junk'$"):
        enum.terms_of("junk", 3)


def test_enumerator_asks_only_for_universe_types(monkeypatch):
    # each type's eliminations are listed when the enumerator is built,
    # so no state the enumeration asks for has a type outside the
    # universe, and the size-11 corpus takes 20,117 calls where asking
    # for each missing conjunction took 44,207
    calls, outside = [], []
    terms = Enumerator._terms

    def counted(self, tyid, *rest):
        calls.append(tyid)
        if not (isinstance(tyid, int) and 0 <= tyid < len(self._ty_of_id)):
            outside.append(tyid)
        return terms(self, tyid, *rest)

    monkeypatch.setattr(Enumerator, "_terms", counted)
    assert len(enumerate_typed_terms(11)) == 8317
    assert (len(calls), outside) == (20117, [])
    calls.clear()
    enumerate_typed_terms(9, target=parse_formula("P /\\ Q -> Q /\\ P"))
    assert calls and outside == []


def test_enumerate_entries_are_closed_and_well_typed():
    # enumeration builds by typed construction and checks nothing; every
    # entry of these corpora is closed and has its formula under both
    # check and infer.  The corpus is typed, so run_suite checks only
    # its reducts: an enumerator bug that built an ill-typed root would
    # show here only
    corpora = [(enumerate_typed_terms(10), 2604),
               (enumerate_typed_terms(7, max_formula_size=5), 2448)]
    corpora += [(enumerate_typed_terms(10, target=parse_formula(law)), count)
                for law, count in (("_|_ -> P", 981), ("(~P -> P) -> P", 11),
                                   ("~P \\/ P", 31))]
    for corpus, count in corpora:
        assert (len(corpus), corpus.typed) == (count, True)
        for e in corpus.entries:
            assert e.gamma == () and e.delta == ()
            assert is_closed(e.term)
            assert check({}, {}, e.term, e.formula) == e.formula
            assert infer({}, {}, e.term).conclusion.formula == e.formula


def test_enumerate_deterministic():
    c1 = enumerate_typed_terms(5)
    c2 = enumerate_typed_terms(5)
    assert [(e.term, e.formula) for e in c1.entries] == \
        [(e.term, e.formula) for e in c2.entries]


def test_enumerate_excludes_mu_at_bot():
    corpus = enumerate_typed_terms(6)

    def has_mu_at_bot(t):
        match t:
            case Mu(_, ann, b):
                return ann == BOT or has_mu_at_bot(b)
            case Abs(_, _, b) | Inj1(b, _) | Inj2(b, _) | Named(_, b):
                return has_mu_at_bot(b)
            case App(f, e):
                sub = [f]
                match e:
                    case Term():
                        sub.append(e)
                    case Case(_, u1, _, u2, _):
                        sub.extend([u1, u2])
                return any(has_mu_at_bot(s) for s in sub)
            case Pair(f, s):
                return has_mu_at_bot(f) or has_mu_at_bot(s)
        return False

    assert not any(has_mu_at_bot(e.term) for e in corpus.entries)


# --------------------------------------------------------------------------
# Cross-check against an independent naive enumerator
# --------------------------------------------------------------------------
#
# The naive enumerator generates every raw closed term skeleton up to the
# size bound, with annotations ranging over the whole formula pool, then
# keeps a term only if the type checker accepts it and the result satisfies
# the same declared bounds the production enumerator works under:
#   - every formula appearing in the derivation lies in the formula pool
#   - argument cuts, projection cuts, and case scrutinees use the cut pool
#   - no mu binder at _|_, lambda depth <= 3, mu depth <= 2
# It shares no code with the production enumerator beyond the checker.

POOL = formula_pool(DEFAULT_MAX_FORMULA_SIZE)
CUTS = set(cut_pool())
DISJ_CUTS = {f for f in CUTS if isinstance(f, Disj)}


def naive_terms(size, lvars=(), mvars=()):
    """All raw term skeletons of exactly `size` constructor nodes."""
    if size < 1:
        return
    if size == 1:
        for x, _ in lvars:
            yield Var(x)
    if size == 1 or len(lvars) + len(mvars) > 6:
        return
    x = f"v{len(lvars)}"
    m = f"m{len(mvars)}"
    for ann in POOL:
        if len(lvars) < MAX_LAMBDA_DEPTH:
            for body in naive_terms(size - 1, lvars + ((x, ann),), mvars):
                yield Abs(x, ann, body)
        if ann != BOT and len(mvars) < MAX_MU_DEPTH:
            for body in naive_terms(size - 1, lvars, mvars + ((m, ann),)):
                yield Mu(m, ann, body)
        for body in naive_terms(size - 1, lvars, mvars):
            yield Inj1(body, ann)
            yield Inj2(body, ann)
    for a, _ in mvars:
        for body in naive_terms(size - 1, lvars, mvars):
            yield Named(a, body)
    for i in range(1, size - 1):
        for left in naive_terms(i, lvars, mvars):
            for right in naive_terms(size - 1 - i, lvars, mvars):
                yield Pair(left, right)
                yield App(left, right)
    for fun in naive_terms(size - 2, lvars, mvars):
        yield App(fun, PROJ1)
        yield App(fun, PROJ2)
    if size >= 5 and len(lvars) < MAX_LAMBDA_DEPTH:
        for i in range(1, size - 3):
            for scrut in naive_terms(i, lvars, mvars):
                rest = size - 2 - i
                for j in range(1, rest):
                    for u1 in naive_terms(j, lvars + ((x, None),), mvars):
                        for u2 in naive_terms(rest - j,
                                              lvars + ((x, None),), mvars):
                            for ann in POOL:
                                yield App(scrut, Case(x, u1, x, u2, ann))


def derivation_formulas(d):
    yield d.conclusion.formula
    for _, a in d.conclusion.gamma:
        yield a
    for _, a in d.conclusion.delta:
        yield a
    for _, _, a in d.conclusion.binders:
        yield a
    for p in d.premises:
        yield from derivation_formulas(p)


def cut_discipline(d):
    """Eliminations only cut through formulas in the declared cut pool."""
    t = d.conclusion.term
    if isinstance(t, App):
        fun_ty = d.premises[0].conclusion.formula
        match t.arg:
            case Term():
                if fun_ty.left not in CUTS:
                    return False
            case _ if isinstance(fun_ty, Conj):
                if isinstance(t.arg, Case):
                    if fun_ty not in DISJ_CUTS:
                        return False
                elif (fun_ty.right if t.arg == PROJ1 else
                      fun_ty.left) not in CUTS:
                    return False
            case Case(_, _, _, _, _):
                if fun_ty not in DISJ_CUTS:
                    return False
    return all(cut_discipline(p) for p in d.premises)


def naive_corpus(max_size):
    found = set()
    pool = set(POOL)
    for n in range(1, max_size + 1):
        for t in map(close, naive_terms(n)):
            try:
                d = infer({}, {}, t)
            except TypeCheckError:
                continue
            if d.conclusion.formula not in pool:
                continue
            if any(f not in pool for f in derivation_formulas(d)):
                continue
            if not cut_discipline(d):
                continue
            found.add((canonical_form(t), d.conclusion.formula))
    return found


def test_cross_check_against_naive_enumeration():
    max_size = 4
    produced = {(canonical_form(e.term), e.formula)
                for e in enumerate_typed_terms(max_size).entries}
    expected = naive_corpus(max_size)
    assert produced == expected
    assert len(produced) > 0


# --------------------------------------------------------------------------
# Curated corpora
# --------------------------------------------------------------------------

def test_curated_corpus_checks_entries():
    t = parse_term("\\x:P. x")
    corpus = curated_corpus([(t, Arrow(P, P), {}, {})])
    assert (len(corpus), corpus.typed) == (1, True)
    with pytest.raises(TypeCheckError):
        curated_corpus([(t, P, {}, {})])
    # a corpus built directly may hold ill-typed roots: run_suite checks them
    assert not Corpus([CorpusEntry(t, P)]).typed


def test_curated_corpus_open_terms():
    t = parse_term("[a] x")
    corpus = curated_corpus([(t, BOT, {"x": P}, {"a": P})])
    assert corpus.entries[0].gamma == (("x", P),)


# --------------------------------------------------------------------------
# Oracles on a small enumerated corpus
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_corpus():
    return enumerate_typed_terms(6)


def test_subject_reduction_small(small_corpus):
    report = check_subject_reduction(small_corpus)
    assert report.ok
    assert report.checked == len(small_corpus)
    assert report.incomplete == []


def test_confluence_small(small_corpus):
    report = check_confluence(small_corpus)
    assert report.ok
    assert report.checked == len(small_corpus)


def test_strong_normalization_small(small_corpus):
    report = check_strong_normalization(small_corpus)
    assert report.ok
    assert report.checked == len(small_corpus)
    assert max(report.longest_paths) >= 1


def test_property_report_json(small_corpus):
    report = check_subject_reduction(small_corpus)
    j = report.to_json()
    assert j["property"] == "subject-reduction"
    assert j["failures"] == []
    assert j["checked"] == report.checked


# --------------------------------------------------------------------------
# Negative control: the oracles flag a looping term
# --------------------------------------------------------------------------

def _looping_entry():
    # (x x) with x:~P self-applies; curated with an unsound context so the
    # corpus machinery itself is exercised on a non-normalizing term
    half = close(Abs("x", Arrow(P, BOT), App(Var("x"), Var("x"))))
    loop = App(half, half)
    return loop


def test_negative_control_cycle_flagged():
    # bypass typechecking: the loop is untypeable by design, so the
    # entry is built directly rather than through curated_corpus
    corpus = Corpus([CorpusEntry(_looping_entry(), Arrow(P, P))])
    report = check_strong_normalization(corpus, node_cap=50)
    assert not report.ok
    assert "cycle" in report.failures[0][1]


def test_subject_reduction_flags_each_ill_typed_reduct():
    # (\x:P -> P. x \y:P. y) has two nodes; listed at the wrong type P,
    # every node fails to re-check while the other oracles still pass
    t = parse_term("(\\x:P -> P. x \\y:P. y)")
    wrong = Corpus([CorpusEntry(t, P)])
    sr, cf, sn = run_suite(wrong)
    reducts = [t, parse_term("\\y:P. y")]
    assert len(sr.failures) == len(reducts)
    for (entry, why), reduct in zip(sr.failures, reducts):
        assert entry.term is t
        assert why.startswith(f"reduct {canonical_form(reduct)}: ")
    assert cf.ok and sn.ok
    assert sr.checked == cf.checked == sn.checked == 1


def _graph_built(*args):
    raise AssertionError("a ReductionGraph was built")


def test_confluence_evidence_prints_the_normal_forms(monkeypatch):
    # a beta that turns the argument u into w leaves two normal forms
    # of (\x:P. x (<u, v> p1)), u and w; the evidence prints them by
    # canonical form, also for the second entry, whose root the memo
    # holds, so that its graph is the root alone.  No graph is built
    contract = reduction._contract

    def skewed(t):
        out = contract(t)
        if out is not None and out[0] == "beta" and t.arg == Var("u"):
            return "beta", Var("w")
        return out

    monkeypatch.setattr(reduction, "_contract", skewed)
    monkeypatch.setattr(reduction, "ReductionGraph", _graph_built)
    entry = CorpusEntry(parse_term("(\\x:P. x (<u, v> p1))"), P,
                        (("u", P), ("v", P), ("w", P)))
    sr, cf, sn = run_suite(Corpus([entry, entry]))
    assert cf.failures == [(entry, "2 distinct normal forms: ['u', 'w']")] * 2
    assert sr.ok and sn.ok


def test_confluence_evidence_prints_an_unjoinable_pair(monkeypatch):
    # a beta that leaves (\x:P. x u) as it is loops there, while the
    # other order reaches u through (<u, v> p1), which cannot reach the
    # loop; both are printed by canonical form, also when the memo holds
    # the root.  No graph is built
    contract = reduction._contract

    def looping(t):
        out = contract(t)
        if out is not None and out[0] == "beta" and t.arg == Var("u"):
            return "beta", t
        return out

    monkeypatch.setattr(reduction, "_contract", looping)
    monkeypatch.setattr(reduction, "ReductionGraph", _graph_built)
    entry = CorpusEntry(parse_term("(\\x:P. x (<u, v> p1))"), P,
                        (("u", P), ("v", P)))
    sr, cf, sn = run_suite(Corpus([entry, entry]))
    assert cf.failures == [
        (entry, "unjoinable pair: (\\x0:P. x0 u) vs (<u, v> p1)")] * 2
    assert sn.failures == [(entry, "reduction graph has a cycle")] * 2


def test_entry_with_a_too_deep_reduct_is_incomplete():
    # each mu-struct appends w under each of the 61 [a] names, so the
    # second reduct nests past the bound; the entry beside it is checked
    term = Var("y")
    for i in range(60):
        term = Mu(f"b{i}", P, Named("a", term))
    deep = close(App(App(Mu("a", P, Named("a", term)), Var("w")), Var("w")))
    entries = [CorpusEntry(deep, P, (("w", P), ("y", P))),
               CorpusEntry(parse_term("\\x:P. x"), Arrow(P, P))]
    for report in run_suite(Corpus(entries)):
        assert report.ok
        assert report.checked == 1
        assert report.incomplete == entries[:1]


def test_suite_gates_a_root_by_its_depth():
    # 200 nested lambdas around x nest 201 deep, with a key of 801
    # characters: incomplete in every report, never a RecursionError.
    # One lambda whose annotation holds sixty arrows nests 2 deep, with
    # a key of 245 characters: checked and complete
    deep, deep_ty = Var("x"), P
    for _ in range(200):
        deep, deep_ty = Abs("x", P, deep), Arrow(P, deep_ty)
    deep = close(deep)
    wide_ty = P
    for _ in range(60):
        wide_ty = Arrow(P, wide_ty)
    wide = Abs("x", wide_ty, Var(0))
    for t, ty, checked in ((deep, deep_ty, 0),
                           (wide, Arrow(wide_ty, wide_ty), 1)):
        for report in run_suite(curated_corpus([(t, ty, {}, {})])):
            assert report.ok
            assert (report.checked, len(report.incomplete)) == \
                (checked, 1 - checked)


def test_suite_walks_a_root_that_is_not_typed_before_keying_it():
    # 3,000 nested lambdas in a corpus built directly: incomplete in
    # every report, never a RecursionError from keying the root
    deep = Var("y")
    for _ in range(3000):
        deep = Abs("x", P, deep)
    for report in run_suite(Corpus([CorpusEntry(deep, P)])):
        assert (report.checked, len(report.incomplete)) == (0, 1)


def _arrows(n):
    """P -> ... -> P with n arrows, n + 1 nodes deep."""
    a = P
    for _ in range(n):
        a = Arrow(P, a)
    return a


@pytest.mark.parametrize("typed", [True, False])
def test_suite_gates_an_entry_by_its_formulas_depth(typed):
    # an entry whose formula, or a formula of its contexts, nests past
    # MAX_NESTING is incomplete in every report, never a RecursionError
    # from keying or hashing it, in a typed corpus and in one built
    # directly; at MAX_NESTING it is checked, as is the entry beside it
    y, ok = Var("y"), CorpusEntry(parse_term("\\x:P. x"), Arrow(P, P))
    for arrows, checked in ((199, 2), (200, 1), (3000, 1)):
        a = _arrows(arrows)
        for entry in (CorpusEntry(y, a, (("y", a),)),
                      CorpusEntry(y, P, (("y", P), ("z", a))),
                      CorpusEntry(y, P, (("y", P),), (("b", a),))):
            for report in run_suite(Corpus([entry, ok], typed)):
                assert report.ok
                assert report.checked == checked
                assert [e is entry for e in report.incomplete] == \
                    [True] * (2 - checked)


def test_suite_memos_hold_one_string_per_key(monkeypatch):
    # every successor in a memo of the size-10 suite is the very string
    # the memo holds as that key, not an equal copy; entries keep no
    # __dict__; and the depth gate walks each target formula once, not
    # each entry
    memos, walked = [], []

    class Recorded(reduction.SuccessorFacts):
        def __init__(self, succ):
            super().__init__(succ)
            memos.append(succ)

    gate = metatheory._formulas_too_deep
    monkeypatch.setattr(metatheory, "SuccessorFacts", Recorded)
    monkeypatch.setattr(metatheory, "_formulas_too_deep",
                        lambda entry: walked.append(entry) or gate(entry))
    corpus = enumerate_typed_terms(10)
    assert all(r.ok for r in run_suite(corpus))
    successors = [s for memo in memos for succ in memo.values() for s in succ]
    assert len(successors) > len(corpus)
    for memo in memos:
        own = {k: k for k in memo}
        assert all(own[s] is s for succ in memo.values() for s in succ)
    assert not hasattr(corpus.entries[0], "__dict__")
    assert len({id(e.formula) for e in walked}) == len(walked) \
        <= len(formula_pool())


def test_suite_settles_each_root_once(monkeypatch):
    # confluence, strong normalization and the longest path are one
    # lookup at each root: at most one _settle per entry
    settled = []
    settle = reduction.SuccessorFacts._settle
    monkeypatch.setattr(reduction.SuccessorFacts, "_settle",
                        lambda self, key: settled.append(key)
                        or settle(self, key))
    corpus = enumerate_typed_terms(10)
    assert all(r.ok for r in run_suite(corpus))
    assert 0 < len(settled) <= len(corpus)


def test_suite_refuses_a_root_with_dangling_indices():
    # a corpus built directly is not typed, so its roots are walked
    with pytest.raises(ValueError, match="the term has dangling indices"):
        run_suite(Corpus([CorpusEntry(Var(0), P)]))
