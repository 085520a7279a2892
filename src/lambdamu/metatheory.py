"""Corpus enumeration and executable oracles for the metatheorems.

The three checks (subject reduction, confluence, strong normalization)
run over a corpus of typed terms.  Corpora are either enumerated, by
typed construction so only well-typed terms are produced, or curated
(hand-picked entries, possibly with nonempty contexts, plus negative
controls for the detectors).

Term size counts term and E-term constructor nodes (projections and
case brackets count one each; an argument counts as its term).  Binder
annotations are not counted but are drawn from a bounded formula pool
over the alphabet {P, _|_}, plus the subformulas of a target, which may
bring atoms of its own; elimination cut formulas come from five fixed
shapes over P and over each atom of the target.  With the binder depth
constants this keeps the enumeration finite and complete relative to
its two bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .reduction import (
    DEFAULT_NODE_CAP, SuccessorFacts, _explore_into, _root_too_deep,
)
from .syntax import (
    MAX_NESTING, alpha_key, canonical_form, canonical_hints, print_term,
)
from .terms import (
    Abs, App, Arrow, BOT, Bottom, Case, Conj, Disj, ETerm, Formula, Inj1,
    Inj2, Mu, Named, PROJ1, PROJ2, Pair, PropVar, Term, Var, node,
)
from .typecheck import Context, TypeCheckError, check

DEFAULT_MAX_FORMULA_SIZE = 3
MAX_LAMBDA_DEPTH = 3
MAX_MU_DEPTH = 2

P = PropVar("P")


@node
class CorpusEntry:
    term: Term
    formula: Formula
    gamma: tuple[tuple[str, Formula], ...] = ()
    delta: tuple[tuple[str, Formula], ...] = ()


@dataclass
class Corpus:
    """Entries for the oracles.  ``typed`` holds when every entry is
    known to check at its formula and contexts, as the two builders,
    enumerate_typed_terms (or its stream, typed_entries) and
    curated_corpus, make sure; run_suite then type-checks only the
    reducts.  A corpus built directly may hold ill-typed roots, and
    run_suite checks them too.  ``entries`` may be any iterable, which
    run_suite reads once, in order; len() needs a sequence."""

    entries: Iterable[CorpusEntry]
    typed: bool = False

    def __len__(self):
        return len(self.entries)


@dataclass
class PropertyReport:
    property: str
    checked: int = 0
    failures: list[tuple[CorpusEntry, str]] = field(default_factory=list)
    incomplete: list[CorpusEntry] = field(default_factory=list)
    # how many entries have each longest reduction path, by its length
    longest_paths: dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "checked": self.checked,
            "failures": [
                {"term": print_term(e.term), "evidence": why}
                for e, why in self.failures
            ],
            "incomplete": [print_term(e.term) for e in self.incomplete],
        }


# --------------------------------------------------------------------------
# Formula pool
# --------------------------------------------------------------------------

def formula_pool(max_size: int = DEFAULT_MAX_FORMULA_SIZE) -> list[Formula]:
    """All formulas over P and _|_ up to max_size nodes, smallest first,
    in a fixed deterministic order."""
    by_size: dict[int, list[Formula]] = {1: [P, BOT]}
    for n in range(2, max_size + 1):
        row: list[Formula] = []
        for ctor in (Arrow, Conj, Disj):
            for i in range(1, n - 1):
                j = n - 1 - i
                for left in by_size.get(i, ()):
                    for right in by_size.get(j, ()):
                        row.append(ctor(left, right))
        by_size[n] = row
    return [f for n in range(1, max_size + 1) for f in by_size[n]]


# --------------------------------------------------------------------------
# Typed-construction enumeration
# --------------------------------------------------------------------------

def _cut_shapes(atom: Formula) -> list[Formula]:
    return [atom, BOT, Arrow(atom, BOT), Conj(atom, atom), Disj(atom, atom)]


def cut_pool(target: Optional[Formula] = None) -> list[Formula]:
    """Cut formulas for eliminations: P and _|_ plus one representative
    per connective, enough to exercise every elimination rule; then the
    same shapes over each other atom of target, by name, so that a target
    over other atoms has the eliminations a target over P has."""
    pool = _cut_shapes(P)
    if target is not None:
        for name in sorted({f.name for f in subformulas(target)
                            if isinstance(f, PropVar)}):
            pool += [f for f in _cut_shapes(PropVar(name)) if f not in pool]
    return pool


def subformulas(ty: Formula) -> frozenset[Formula]:
    """The set of subformulas of ty, including ty itself."""
    match ty:
        case Arrow(l, r) | Conj(l, r) | Disj(l, r):
            return subformulas(l) | subformulas(r) | {ty}
    return frozenset({ty})


class Enumerator:
    """Enumerates exactly the well-typed terms of a given type and size.

    Variables are emitted as indices, so a state is its contexts' formula
    ids, and binder names are hints by depth (x0, x1, ... for lambda,
    a0, a1, ... for mu), so that no printed name shadows another.
    Memo keys are tuples of formula ids, never formula trees.

    Every subterm of an enumerated term has a type inside the universe:
    the formula pool, the cut pool and the subformulas of the target.
    The enumerator interns exactly the universe, once, when it is built,
    so the ids are the universe: a formula outside it has no id.
    Together with the bounded cut pool this keeps the search space
    finite; the enumeration is complete relative to those bounds.  Each
    type's eliminations inside the universe are listed once, too, so
    the loop asks only for states whose type has an id.
    """

    def __init__(self, max_formula_size: int,
                 target: Optional[Formula] = None):
        self._ty_of_id: list[Formula] = []
        # each universe formula, and its key (kind, part ids), to its id;
        # only __init__ interns, so a formula outside the universe never
        # gets an id, and the enumeration loop hashes no formula tree
        self._id: dict = {}
        self._parts: list[tuple] = []
        # truth table over the two valuations of P as a 2-bit mask; a
        # state (gamma |- A ; delta) can only be inhabited when gamma
        # entails A or some delta formula classically, so unprovable
        # states are pruned without enumeration.  Any other atom (one a
        # target brings) is false in both valuations: fewer valuations
        # find fewer counter-models, so the pruning stays sound.
        self._mask: list[int] = []
        self._full = 0b11
        self._bot = self._intern(BOT)
        self.cut_pool = [self._intern(f) for f in cut_pool(target)]
        self.disj_pool = [i for i in self.cut_pool
                          if self._parts[i][0] == "disj"]
        for f in formula_pool(max_formula_size):
            self._intern(f)
        if target is not None:
            self._intern(target)
        # each type's eliminations inside the universe, in cut pool
        # order: (cut, function type) per application, and (conjunction,
        # projection) per projection to it
        self._apps: list[tuple[tuple[int, int], ...]] = []
        self._projs: list[tuple[tuple[int, ETerm], ...]] = []
        for tyid in range(len(self._ty_of_id)):
            self._apps.append(tuple(
                (cut, self._id[("arrow", cut, tyid)]) for cut in self.cut_pool
                if ("arrow", cut, tyid) in self._id))
            self._projs.append(tuple(
                (self._id[pair], proj) for cut in self.cut_pool
                for pair, proj in ((("conj", tyid, cut), PROJ1),
                                   (("conj", cut, tyid), PROJ2))
                if pair in self._id))
        self._memo: dict = {}

    def _intern(self, ty: Formula) -> int:
        """The id of ty; on first use, ty and its parts get ids."""
        i = self._id.get(ty)
        if i is not None:
            return i
        kind = type(ty)
        if kind is PropVar:
            key, m = ("var", ty.name), 0b10 if ty.name == "P" else 0
        elif kind is Bottom:
            key, m = ("bot",), 0
        elif kind is Arrow or kind is Conj or kind is Disj:
            left, right = self._intern(ty.left), self._intern(ty.right)
            ml, mr = self._mask[left], self._mask[right]
            if kind is Arrow:
                key, m = ("arrow", left, right), (~ml | mr) & self._full
            elif kind is Conj:
                key, m = ("conj", left, right), ml & mr
            else:
                key, m = ("disj", left, right), ml | mr
        else:
            raise TypeError(f"not a formula: {ty!r}")
        i = self._id[ty] = self._id[key] = len(self._ty_of_id)
        self._ty_of_id.append(ty)
        self._parts.append(key)
        self._mask.append(m)
        return i

    def terms_of(self, ty: Formula, size: int) -> tuple[Term, ...]:
        """The closed terms of type ty with exactly size nodes; none when
        ty lies outside the universe."""
        if not isinstance(ty, Formula):
            raise TypeError(f"not a formula: {ty!r}")
        tyid = self._id.get(ty)
        return () if tyid is None else self._terms(tyid, size, (), ())

    def _terms(self, tyid: int, size: int, gamma,
               delta) -> tuple[Term, ...]:
        key = (tyid, size, gamma, delta)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        gmask = self._full
        for a in gamma:
            gmask &= self._mask[a]
        goal = self._mask[tyid]
        for b in delta:
            goal |= self._mask[b]
        if gmask & ~goal & self._full:
            self._memo[key] = ()
            return ()
        ty = self._ty_of_id[tyid]
        parts = self._parts[tyid]
        out: list[Term] = []
        if size == 1:
            out.extend(Var(len(gamma) - 1 - i)
                       for i, a in enumerate(gamma) if a == tyid)
        elif size > 1:
            n = size
            kind = parts[0]
            # introductions
            if kind == "arrow" and len(gamma) < MAX_LAMBDA_DEPTH:
                x = f"x{len(gamma)}"
                left_ty = self._ty_of_id[parts[1]]
                for body in self._terms(parts[2], n - 1,
                                        gamma + (parts[1],), delta):
                    out.append(Abs(x, left_ty, body))
            if kind == "conj":
                for i in range(1, n - 1):
                    for fst in self._terms(parts[1], i, gamma, delta):
                        for snd in self._terms(parts[2], n - 1 - i,
                                               gamma, delta):
                            out.append(Pair(fst, snd))
            if kind == "disj":
                left_ty = self._ty_of_id[parts[1]]
                right_ty = self._ty_of_id[parts[2]]
                for body in self._terms(parts[1], n - 1, gamma, delta):
                    out.append(Inj1(body, right_ty))
                for body in self._terms(parts[2], n - 1, gamma, delta):
                    out.append(Inj2(body, left_ty))
            # mu at _|_ is excluded: classical reasoning at _|_ is
            # already covered by the naming rule, and admitting it
            # floods the corpus with vacuous mu chains
            if tyid != self._bot and len(delta) < MAX_MU_DEPTH:
                a = f"a{len(delta)}"
                for body in self._terms(self._bot, n - 1, gamma,
                                        delta + (tyid,)):
                    out.append(Mu(a, ty, body))
            if tyid == self._bot:
                for i, btid in enumerate(delta):
                    for body in self._terms(btid, n - 1, gamma, delta):
                        out.append(Named(len(delta) - 1 - i, body))
            # eliminations; cut formulas range over the (bounded) cut pool
            for cut, fun_tid in self._apps[tyid]:
                for i in range(1, n - 1):
                    funs = self._terms(fun_tid, i, gamma, delta)
                    if not funs:
                        continue
                    for arg in self._terms(cut, n - 1 - i, gamma, delta):
                        for fun in funs:
                            out.append(App(fun, arg))
            if n >= 3:
                for conj, proj in self._projs[tyid]:
                    for fun in self._terms(conj, n - 2, gamma, delta):
                        out.append(App(fun, proj))
            if n >= 5 and len(gamma) < MAX_LAMBDA_DEPTH:
                x = f"x{len(gamma)}"
                for did in self.disj_pool:
                    g1 = gamma + (self._parts[did][1],)
                    g2 = gamma + (self._parts[did][2],)
                    for i in range(1, n - 3):
                        scruts = self._terms(did, i, gamma, delta)
                        if not scruts:
                            continue
                        rest = n - 2 - i
                        for j in range(1, rest):
                            for u1 in self._terms(tyid, j, g1, delta):
                                for u2 in self._terms(tyid, rest - j, g2, delta):
                                    for s in scruts:
                                        out.append(
                                            App(s, Case(x, u1, x, u2, ty)))
        result = tuple(out)
        self._memo[key] = result
        return result


def typed_entries(max_size: int,
                  target: Optional[Formula] = None,
                  max_formula_size: int = DEFAULT_MAX_FORMULA_SIZE
                  ) -> Iterator[CorpusEntry]:
    """enumerate_typed_terms' entries, in its order, one target at a time.

    One Enumerator interns the universe once.  After each target its
    memo, the only holder of its terms, is emptied, and the target's
    entries are dropped before the next target is listed, so run_suite
    over ``Corpus(typed_entries(...), typed=True)`` holds one target's
    roots at a time.  The memo caches a deterministic recursion, so the
    terms and their order are those of one memo.  Arguments are checked
    at the call, not when iteration starts.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    enum = Enumerator(max_formula_size, target)
    targets = [target] if target is not None else formula_pool(max_formula_size)

    def entries_by_target():
        for ty in targets:
            entries = [CorpusEntry(t, ty) for n in range(1, max_size + 1)
                       for t in enum.terms_of(ty, n)]
            enum._memo.clear()
            yield from entries
            del entries

    return entries_by_target()


def enumerate_typed_terms(max_size: int,
                          target: Optional[Formula] = None,
                          max_formula_size: int = DEFAULT_MAX_FORMULA_SIZE
                          ) -> Corpus:
    """All closed well-typed terms up to max_size nodes, deterministically.

    With a target formula, only closed inhabitants of that formula;
    otherwise all closed terms whose type lies in the formula pool, each
    formula's entries together, smallest first.
    Cut formulas for eliminations range over the smaller cut pool, which
    covers the target's atoms.
    Entries are well typed by construction and are checked neither
    here nor by run_suite, which checks only their reducts: the corpus
    is ``typed``.  The entries are typed_entries' stream, listed.
    """
    return Corpus(list(typed_entries(max_size, target, max_formula_size)),
                  typed=True)


def curated_corpus(entries: list[tuple[Term, Formula, Context, Context]]) -> Corpus:
    """Build a ``typed`` corpus from hand-picked (term, type, gamma,
    delta) tuples, each checked by the type checker first."""
    out = []
    for t, ty, gamma, delta in entries:
        check(gamma, delta, t, ty)
        out.append(CorpusEntry(t, ty, tuple(sorted(gamma.items())),
                               tuple(sorted(delta.items()))))
    return Corpus(out, typed=True)


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

def _type_error(gamma: Context, delta: Context, reduct: Term,
                formula: Formula) -> Optional[str]:
    """None when reduct checks at formula under gamma and delta, else the
    evidence: its canonical form and the type error.

    The error names binders as canonical_form does, so that the evidence
    does not depend on which names the reduct reached first.
    """
    try:
        check(gamma, delta, reduct, formula)
        return None
    except TypeCheckError as exc:
        error = exc
    hinted = canonical_hints(reduct)
    try:
        check(gamma, delta, hinted, formula)
    except TypeCheckError as exc:
        error = exc
    return f"reduct {print_term(hinted)}: {error}"


PROPERTIES = ("subject-reduction", "confluence", "strong-normalization")


def _formulas_too_deep(entry: CorpusEntry) -> bool:
    """Whether the formula of entry or a formula of its contexts nests
    deeper than MAX_NESTING.  One walk, level by level, so that no
    formula is too deep for it; a subformula shared within a level is
    visited once."""
    level = [entry.formula, *(a for _, a in entry.gamma + entry.delta)]
    for _ in range(MAX_NESTING):
        level = {id(s): s for a in level if isinstance(a, (Arrow, Conj, Disj))
                 for s in (a.left, a.right)}.values()
        if not level:
            return False
    return True


def run_suite(corpus: Corpus,
              node_cap: int = DEFAULT_NODE_CAP) -> list[PropertyReport]:
    """Subject reduction, confluence and strong normalization, in that order.

    The corpus's entries are read once, in order, and only the entries
    that fail or are incomplete are kept, so over typed_entries' stream
    the suite holds one target's roots at a time.  A run
    of consecutive entries with the same formula and contexts
    shares one memo, from each alpha-key to the keys of its reducts,
    which each entry closes from its root (reduction._explore_into)
    without building a graph, so each distinct reduct is built, expanded
    and type-checked once per run; the next run starts afresh.  An
    enumerated corpus lists each formula's entries together, so its runs
    are its formulas.  The roots of a ``typed`` corpus count as checked,
    so only the keys that reduction made are type-checked, and a root is
    walked for its depth only when its key is longer than MAX_NESTING.
    A corpus built directly has each root walked before it is keyed, so
    a root too deep is incomplete and one with dangling indices raises
    ValueError, and has its roots checked too.  Confluence, strong
    normalization and the longest path, counted in the strong
    normalization report's histogram, are one lookup at an entry's root
    in SuccessorFacts over that memo.  Only an entry that fails, or
    whose run has an ill-typed key, walks the keys it reaches, in the
    order SuccessorFacts.reach lists them, for its evidence.  Evidence
    prints reducts by canonical_form, so a confluence failure explores
    its entry again, into an empty memo, for the witnesses' terms; no
    entry builds a graph.  An entry is incomplete in every report when
    its keys, counted through the memo, exceed the cap, or when it, a
    reduct, its formula or a formula of its contexts nests too deeply;
    an exploration the cap or a too-deep reduct cut short adds nothing
    to the memo.

    Raises ValueError when node_cap is below 1.
    """
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    reports = [PropertyReport(name) for name in PROPERTIES]
    sr, cf, sn = reports
    incomplete: list[CorpusEntry] = []  # entries no report checked
    checked = 0  # entries every report checked
    run = None  # the current run's formula key and contexts
    for entry in corpus.entries:
        # alpha_key and hash recurse through formulas, so an entry with
        # one nested too deeply is refused before either reads it; a
        # formula whose cached key is no longer than MAX_NESTING nests
        # no deeper, so an enumerated corpus, whose entries share their
        # formula and have no contexts, walks each formula once
        formula_key = getattr(entry.formula, "_key", None)
        if (formula_key is None or len(formula_key) > MAX_NESTING
                or entry.gamma or entry.delta) and _formulas_too_deep(entry):
            incomplete.append(entry)
            continue
        group = (formula_key or alpha_key(entry.formula), entry.gamma,
                 entry.delta)
        if group != run:
            # a new run: the contexts as check reads them, the evidence
            # of each ill-typed key, the memo, its key table
            # (reduction._explore_into) and its facts
            run, gamma, delta = group, dict(entry.gamma), dict(entry.delta)
            errors, memo, keys = {}, {}, {}
            facts = SuccessorFacts(memo)
        # a root that is not typed is walked before it is keyed, so a
        # deep one is refused before alpha_key recurses through it
        if corpus.typed or not _root_too_deep(entry.term):
            root = alpha_key(entry.term)
            new = _explore_into(memo, keys, entry.term, root, node_cap)
        else:
            new = None
        if new is None:
            incomplete.append(entry)
            continue
        # every reduct re-checks at the entry's type: the memo's keys
        # did already, and the root of a typed corpus counts as checked
        unchecked = iter(new)
        if corpus.typed:
            next(unchecked, None)
        for key, reduct in unchecked:
            error = _type_error(gamma, delta, reduct, entry.formula)
            if error is not None:
                errors[key] = error
        # the keys the root reaches, once they could pass the cap
        if len(memo) > node_cap and len(facts.reach(root)) > node_cap:
            incomplete.append(entry)
            continue
        checked += 1
        if errors:
            sr.failures.extend((entry, errors[k]) for k in facts.reach(root)
                               if k in errors)
        # some reduct is a descendant of every reduct
        longest, normal = facts.lookup(root)
        if normal is None:
            witnesses = facts.confluence_failure(root)
            if witnesses is not None:
                # the entry closed under the cap, so this cannot be None
                nodes = dict(_explore_into({}, {}, entry.term, root,
                                           node_cap))
                shown = [canonical_form(nodes[k]) for k in witnesses]
                cf.failures.append((entry, (
                    f"{len(shown)} distinct normal forms: {shown}"
                    if longest is not None
                    else f"unjoinable pair: {shown[0]} vs {shown[1]}")))
        # the reduction graph is acyclic; count its longest path
        if longest is None:
            sn.failures.append((entry, "reduction graph has a cycle"))
        else:
            sn.longest_paths[longest] = sn.longest_paths.get(longest, 0) + 1
    for report in reports:
        report.checked = checked
        report.incomplete = incomplete.copy()
    return reports


def check_subject_reduction(corpus: Corpus,
                            node_cap: int = DEFAULT_NODE_CAP) -> PropertyReport:
    """Every reduct of every entry re-checks at the entry's type."""
    return run_suite(corpus, node_cap)[0]


def check_confluence(corpus: Corpus,
                     node_cap: int = DEFAULT_NODE_CAP) -> PropertyReport:
    """Some reduct of every entry is a descendant of all its reducts."""
    return run_suite(corpus, node_cap)[1]


def check_strong_normalization(corpus: Corpus,
                               node_cap: int = DEFAULT_NODE_CAP) -> PropertyReport:
    """Complete, acyclic reduction graph for every entry."""
    return run_suite(corpus, node_cap)[2]
