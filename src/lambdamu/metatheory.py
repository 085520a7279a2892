"""Corpus enumeration and executable oracles for the metatheorems.

The three checks (subject reduction, confluence, strong normalization)
run over a corpus of typed terms.  Corpora are either enumerated, by
typed construction so only well-typed terms are produced, or curated
(hand-picked entries, possibly with nonempty contexts, plus negative
controls for the detectors).

Term size counts term and E-term constructor nodes (projections and
case brackets count one each; the argument wrapper is free).  Binder
annotations are not counted but are drawn from a bounded formula pool
over the alphabet {P, _|_}, plus the subformulas of a target, which may
bring atoms of its own; elimination cut formulas come from a fixed
subset of the pool.  With the binder depth constants this keeps the
enumeration finite and complete relative to its two bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .reduction import DEFAULT_NODE_CAP, ReductionGraph, reduction_graph
from .syntax import print_term
from .terms import (
    Abs, App, Arg, Arrow, BOT, Bottom, Case, Conj, Disj, Formula, Inj1, Inj2,
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

def default_cut_pool() -> list[Formula]:
    """Cut formulas for eliminations: P and _|_ plus one representative
    per connective, enough to exercise every elimination rule."""
    return [P, BOT, Arrow(P, BOT), Conj(P, P), Disj(P, P)]


def subformulas(ty: Formula) -> frozenset[Formula]:
    """The set of subformulas of ty, including ty itself."""
    match ty:
        case Arrow(l, r) | Conj(l, r) | Disj(l, r):
            return subformulas(l) | subformulas(r) | {ty}
    return frozenset({ty})


class Enumerator:
    """Enumerates exactly the well-typed terms of a given type and size.

    Binder names are canonical (x0, x1, ... by lambda depth; a0, a1, ...
    by mu depth), so no shadowing occurs and memoization keys collide
    for alpha-equivalent states.  Formulas are interned to integer ids
    internally; memo keys are tuples of ids, never formula trees.

    Every subterm of an enumerated term has a type inside the universe,
    the subformula closure of the formula pool plus any requested
    targets.  Together with the bounded cut pool this keeps the search
    space finite; the enumeration is complete relative to those bounds.
    """

    def __init__(self, max_formula_size: int):
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
        self.cut_pool = [self._tid(f) for f in default_cut_pool()]
        self.disj_pool = [i for i in self.cut_pool
                          if self._parts[i][0] == "disj"]
        self._allowed = {self._tid(f) for f in formula_pool(max_formula_size)}
        self._allowed.update(self.cut_pool)
        self._memo: dict = {}

    def _mk(self, key: tuple, ty: Formula) -> int:
        i = self._node.get(key)
        if i is None:
            i = len(self._ty_of_id)
            self._ty_of_id.append(ty)
            self._parts.append(key)
            match key:
                case ("var", name):
                    mask = 0b10 if name == "P" else 0
                case ("bot",):
                    mask = 0
                case ("arrow", l, r):
                    mask = (~self._mask[l] | self._mask[r]) & self._full
                case ("conj", l, r):
                    mask = self._mask[l] & self._mask[r]
                case ("disj", l, r):
                    mask = self._mask[l] | self._mask[r]
            self._mask.append(mask)
            self._node[key] = i
        return i

    def _tid(self, ty: Formula) -> int:
        match ty:
            case PropVar(name):
                return self._mk(("var", name), ty)
            case Bottom():
                return self._mk(("bot",), ty)
            case Arrow(left, right):
                return self._mk(("arrow", self._tid(left), self._tid(right)), ty)
            case Conj(left, right):
                return self._mk(("conj", self._tid(left), self._tid(right)), ty)
            case Disj(left, right):
                return self._mk(("disj", self._tid(left), self._tid(right)), ty)
        raise TypeError(f"not a formula: {ty!r}")

    def _arrow_id(self, left: int, right: int) -> int:
        key = ("arrow", left, right)
        i = self._node.get(key)
        if i is None:
            i = self._mk(key, Arrow(self._ty_of_id[left], self._ty_of_id[right]))
        return i

    def _conj_id(self, left: int, right: int) -> int:
        key = ("conj", left, right)
        i = self._node.get(key)
        if i is None:
            i = self._mk(key, Conj(self._ty_of_id[left], self._ty_of_id[right]))
        return i

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
        for _, a in gamma:
            gmask &= self._mask[a]
        goal = self._mask[tyid]
        for _, b in delta:
            goal |= self._mask[b]
        if gmask & ~goal & self._full:
            self._memo[key] = ()
            return ()
        ty = self._ty_of_id[tyid]
        parts = self._parts[tyid]
        out: list[Term] = []
        if size == 1:
            out.extend(Var(x) for x, a in gamma if a == tyid)
        elif size > 1:
            n = size
            kind = parts[0]
            # introductions
            if kind == "arrow" and len(gamma) < MAX_LAMBDA_DEPTH:
                x = f"x{len(gamma)}"
                left_ty = self._ty_of_id[parts[1]]
                for body in self._terms(parts[2], n - 1,
                                        gamma + ((x, parts[1]),), delta):
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
                                        delta + ((a, tyid),)):
                    out.append(Mu(a, ty, body))
            if tyid == self._bot:
                for name, btid in delta:
                    for body in self._terms(btid, n - 1, gamma, delta):
                        out.append(Named(name, body))
            # eliminations; cut formulas range over the (bounded) cut pool
            for cut in self.cut_pool:
                fun_tid = self._arrow_id(cut, tyid)
                for i in range(1, n - 1):
                    funs = self._terms(fun_tid, i, gamma, delta)
                    if not funs:
                        continue
                    for arg in self._terms(cut, n - 1 - i, gamma, delta):
                        for fun in funs:
                            out.append(App(fun, Arg(arg)))
            if n >= 3:
                for cut in self.cut_pool:
                    for fun in self._terms(self._conj_id(tyid, cut),
                                           n - 2, gamma, delta):
                        out.append(App(fun, PROJ1))
                    for fun in self._terms(self._conj_id(cut, tyid),
                                           n - 2, gamma, delta):
                        out.append(App(fun, PROJ2))
            if n >= 5 and len(gamma) < MAX_LAMBDA_DEPTH:
                x = f"x{len(gamma)}"
                for did in self.disj_pool:
                    g1 = gamma + ((x, self._parts[did][1]),)
                    g2 = gamma + ((x, self._parts[did][2]),)
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
    Cut formulas for eliminations range over the smaller cut pool.
    Every entry is re-checked by the type checker before inclusion.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    enum = Enumerator(max_formula_size)
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

def _subject_reduction(report: PropertyReport, entry: CorpusEntry,
                       graph: ReductionGraph) -> None:
    """Every reduct re-checks at the entry's type."""
    gamma = dict(entry.gamma)
    delta = dict(entry.delta)
    for key, reduct in graph.nodes.items():
        try:
            check(gamma, delta, reduct, entry.formula)
        except TypeCheckError as exc:
            report.failures.append((entry, f"reduct {key}: {exc}"))


def _confluence(report: PropertyReport, entry: CorpusEntry,
                graph: ReductionGraph) -> None:
    """Some reduct is a descendant of every reduct."""
    why = graph.confluence_failure()
    if why is not None:
        report.failures.append((entry, why))


def _strong_normalization(report: PropertyReport, entry: CorpusEntry,
                          graph: ReductionGraph) -> None:
    """The reduction graph is acyclic; records its longest path."""
    if graph.is_acyclic():
        report.longest_paths[graph.root] = graph.longest_path_length()
    else:
        report.failures.append((entry, "reduction graph has a cycle"))


_VERDICTS = {
    "subject-reduction": _subject_reduction,
    "confluence": _confluence,
    "strong-normalization": _strong_normalization,
}


def _run_oracles(corpus: Corpus, node_cap: int,
                 properties: tuple[str, ...]) -> list[PropertyReport]:
    """Build each entry's reduction graph once and apply every verdict;
    an entry whose graph hits the node cap is incomplete in every report."""
    reports = [PropertyReport(name) for name in properties]
    for entry in corpus.entries:
        graph = reduction_graph(entry.term, node_cap)
        for report in reports:
            if graph.complete:
                report.checked += 1
                _VERDICTS[report.property](report, entry, graph)
            else:
                report.incomplete.append(entry)
    return reports


def run_suite(corpus: Corpus,
              node_cap: int = DEFAULT_NODE_CAP) -> list[PropertyReport]:
    """Subject reduction, confluence and strong normalization, in that
    order, from one reduction graph per entry."""
    return _run_oracles(corpus, node_cap, tuple(_VERDICTS))


def check_subject_reduction(corpus: Corpus,
                            node_cap: int = DEFAULT_NODE_CAP) -> PropertyReport:
    """Every reduct of every entry re-checks at the entry's type."""
    return _run_oracles(corpus, node_cap, ("subject-reduction",))[0]


def check_confluence(corpus: Corpus,
                     node_cap: int = DEFAULT_NODE_CAP) -> PropertyReport:
    """Some reduct of every entry is a descendant of all its reducts."""
    return _run_oracles(corpus, node_cap, ("confluence",))[0]


def check_strong_normalization(corpus: Corpus,
                               node_cap: int = DEFAULT_NODE_CAP) -> PropertyReport:
    """Complete, acyclic reduction graph for every entry."""
    return _run_oracles(corpus, node_cap, ("strong-normalization",))[0]
