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
from typing import Optional

from .reduction import (
    DEFAULT_NODE_CAP, ReductTooDeep, SuccessorFacts, reduction_graph,
)
from .syntax import canonical_form, canonical_hints, print_term
from .terms import (
    Abs, App, Arrow, BOT, Bottom, Case, Conj, Disj, Formula, Inj1, Inj2,
    Mu, Named, PROJ1, PROJ2, Pair, PropVar, Term, Var,
)
from .typecheck import Context, TypeCheckError, check

DEFAULT_MAX_FORMULA_SIZE = 3
MAX_LAMBDA_DEPTH = 3
MAX_MU_DEPTH = 2

P = PropVar("P")


@dataclass(frozen=True)
class CorpusEntry:
    term: Term
    formula: Formula
    gamma: tuple[tuple[str, Formula], ...] = ()
    delta: tuple[tuple[str, Formula], ...] = ()


@dataclass
class Corpus:
    entries: list[CorpusEntry]

    def __len__(self):
        return len(self.entries)


@dataclass
class PropertyReport:
    property: str
    checked: int = 0
    failures: list[tuple[CorpusEntry, str]] = field(default_factory=list)
    incomplete: list[CorpusEntry] = field(default_factory=list)
    longest_paths: dict[str, int] = field(default_factory=dict)

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
    Formulas are interned to integer ids internally; memo keys are
    tuples of ids, never formula trees.

    Every subterm of an enumerated term has a type inside the universe,
    the subformula closure of the formula pool plus any requested
    targets.  Together with the bounded cut pool this keeps the search
    space finite; the enumeration is complete relative to those bounds.
    """

    def __init__(self, max_formula_size: int, cuts: list[Formula]):
        self._ty_of_id: list[Formula] = []
        # hash-consing table keyed by (kind, left id, right id); formula
        # trees themselves are never hashed in the enumeration loop
        self._node: dict[tuple, int] = {}
        self._parts: list[tuple] = []
        # truth table over the two valuations of P as a 2-bit mask; a
        # state (gamma |- A ; delta) can only be inhabited when gamma
        # entails A or some delta formula classically, so unprovable
        # states are pruned without enumeration.  Any other atom (one a
        # target brings) is false in both valuations: fewer valuations
        # find fewer counter-models, so the pruning stays sound.
        self._mask: list[int] = []
        self._full = 0b11
        self._bot = self._tid(BOT)
        self.cut_pool = [self._tid(f) for f in cuts]
        self.disj_pool = [i for i in self.cut_pool
                          if self._parts[i][0] == "disj"]
        self._allowed = {self._tid(f) for f in formula_pool(max_formula_size)}
        self._allowed.update(self.cut_pool)
        self._memo: dict = {}

    def _mk(self, key: tuple) -> int:
        """The id of the formula of key, its kind and its parts' ids; the
        formula is built on the key's first use."""
        i = self._node.get(key)
        if i is None:
            i = len(self._ty_of_id)
            ty_of, mask = self._ty_of_id, self._mask
            match key:
                case ("var", name):
                    ty, m = PropVar(name), 0b10 if name == "P" else 0
                case ("bot",):
                    ty, m = BOT, 0
                case ("arrow", l, r):
                    ty = Arrow(ty_of[l], ty_of[r])
                    m = (~mask[l] | mask[r]) & self._full
                case ("conj", l, r):
                    ty, m = Conj(ty_of[l], ty_of[r]), mask[l] & mask[r]
                case ("disj", l, r):
                    ty, m = Disj(ty_of[l], ty_of[r]), mask[l] | mask[r]
            ty_of.append(ty)
            self._parts.append(key)
            mask.append(m)
            self._node[key] = i
        return i

    def _tid(self, ty: Formula) -> int:
        match ty:
            case PropVar(name):
                return self._mk(("var", name))
            case Bottom():
                return self._mk(("bot",))
            case Arrow(left, right):
                return self._mk(("arrow", self._tid(left), self._tid(right)))
            case Conj(left, right):
                return self._mk(("conj", self._tid(left), self._tid(right)))
            case Disj(left, right):
                return self._mk(("disj", self._tid(left), self._tid(right)))
        raise TypeError(f"not a formula: {ty!r}")

    def _admit(self, ty: Formula) -> None:
        """Extend the type universe with ty and its subformulas.

        Growing the universe can change already-memoized answers, so
        the memo is dropped when a genuinely new formula arrives.
        """
        fresh = [f for f in subformulas(ty)
                 if self._tid(f) not in self._allowed]
        if fresh:
            self._allowed.update(self._tid(f) for f in fresh)
            self._memo.clear()

    def terms_of(self, ty: Formula, size: int) -> tuple[Term, ...]:
        """The closed terms of type ty with exactly size nodes."""
        self._admit(ty)
        return self._terms(self._tid(ty), size, (), ())

    def _terms(self, tyid: int, size: int, gamma, delta) -> tuple[Term, ...]:
        key = (tyid, size, gamma, delta)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if tyid not in self._allowed:
            self._memo[key] = ()
            return ()
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
            for cut in self.cut_pool:
                fun_tid = self._mk(("arrow", cut, tyid))
                for i in range(1, n - 1):
                    funs = self._terms(fun_tid, i, gamma, delta)
                    if not funs:
                        continue
                    for arg in self._terms(cut, n - 1 - i, gamma, delta):
                        for fun in funs:
                            out.append(App(fun, arg))
            if n >= 3:
                for cut in self.cut_pool:
                    for fun in self._terms(self._mk(("conj", tyid, cut)),
                                           n - 2, gamma, delta):
                        out.append(App(fun, PROJ1))
                    for fun in self._terms(self._mk(("conj", cut, tyid)),
                                           n - 2, gamma, delta):
                        out.append(App(fun, PROJ2))
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


def enumerate_typed_terms(max_size: int,
                          target: Optional[Formula] = None,
                          max_formula_size: int = DEFAULT_MAX_FORMULA_SIZE
                          ) -> Corpus:
    """All closed well-typed terms up to max_size nodes, deterministically.

    With a target formula, only closed inhabitants of that formula;
    otherwise all closed terms whose type lies in the formula pool.
    Cut formulas for eliminations range over the smaller cut pool, which
    covers the target's atoms.
    Every entry is re-checked by the type checker before inclusion.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    enum = Enumerator(max_formula_size, cut_pool(target))
    targets = [target] if target is not None else formula_pool(max_formula_size)
    entries: list[CorpusEntry] = []
    for ty in targets:
        for n in range(1, max_size + 1):
            for t in enum.terms_of(ty, n):
                check({}, {}, t, ty)
                entries.append(CorpusEntry(t, ty))
    return Corpus(entries)


def curated_corpus(entries: list[tuple[Term, Formula, Context, Context]]) -> Corpus:
    """Build a corpus from hand-picked (term, type, gamma, delta) tuples,
    each checked by the type checker first."""
    out = []
    for t, ty, gamma, delta in entries:
        check(gamma, delta, t, ty)
        out.append(CorpusEntry(t, ty, tuple(sorted(gamma.items())),
                               tuple(sorted(delta.items()))))
    return Corpus(out)


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

def _type_error(entry: CorpusEntry, reduct: Term) -> Optional[str]:
    """None when reduct checks at the entry's type, else the evidence:
    its canonical form and the type error.

    The error names binders as canonical_form does, so that the evidence
    does not depend on which names the reduct reached first.
    """
    gamma, delta = dict(entry.gamma), dict(entry.delta)
    try:
        check(gamma, delta, reduct, entry.formula)
        return None
    except TypeCheckError as exc:
        error = exc
    try:
        check(gamma, delta, canonical_hints(reduct), entry.formula)
    except TypeCheckError as exc:
        error = exc
    return f"reduct {canonical_form(reduct)}: {error}"


PROPERTIES = ("subject-reduction", "confluence", "strong-normalization")


def run_suite(corpus: Corpus,
              node_cap: int = DEFAULT_NODE_CAP) -> list[PropertyReport]:
    """Subject reduction, confluence and strong normalization, in that order.

    All entries share one reduction_graph memo, from each alpha-key to
    the keys of its reducts, so each distinct reduct is expanded once,
    and each distinct (reduct, formula, contexts) is type-checked once.
    Confluence and strong normalization are lookups at an entry's root
    in SuccessorFacts over the memo; longest paths are listed by the
    root's key.  Evidence prints reducts by canonical_form.  A graph the
    cap or a too-deep reduct cut short adds nothing to the memo, and its
    entry is incomplete in every report.
    """
    memo: dict[str, tuple[str, ...]] = {}
    facts = SuccessorFacts(memo)
    reports = [PropertyReport(name) for name in PROPERTIES]
    sr, cf, sn = reports
    errors: dict[tuple, dict[str, Optional[str]]] = {}
    for entry in corpus.entries:
        try:
            graph = reduction_graph(entry.term, node_cap, memo=memo)
        except ReductTooDeep:
            graph = None
        if graph is None or not graph.complete:
            for report in reports:
                report.incomplete.append(entry)
            continue
        for report in reports:
            report.checked += 1
        # every reduct re-checks at the entry's type
        known = errors.setdefault(
            (entry.formula, entry.gamma, entry.delta), {})
        rebuilt = None
        for key, reduct in graph.nodes.items():
            if key not in known:
                if reduct is None:  # served from the memo: explore afresh
                    if rebuilt is None:
                        rebuilt = reduction_graph(entry.term, node_cap)
                    reduct = rebuilt.nodes[key]
                known[key] = _type_error(entry, reduct)
            if known[key] is not None:
                sr.failures.append((entry, known[key]))
        # some reduct is a descendant of every reduct
        acyclic = facts.acyclic(graph.root)
        witnesses = facts.confluence_failure(graph.root, graph.nodes)
        if witnesses is not None:
            if rebuilt is None:
                rebuilt = reduction_graph(entry.term, node_cap)
            shown = [canonical_form(rebuilt.nodes[k]) for k in witnesses]
            cf.failures.append((entry, (
                f"{len(shown)} distinct normal forms: {shown}" if acyclic
                else f"unjoinable pair: {shown[0]} vs {shown[1]}")))
        # the reduction graph is acyclic; record its longest path
        if acyclic:
            sn.longest_paths[graph.root] = facts.longest_path(graph.root)
        else:
            sn.failures.append((entry, "reduction graph has a cycle"))
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
