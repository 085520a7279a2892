"""Mu-spine matching and the three operational behavior probes.

A mu-spine over a leaf t is any term built from t by repeatedly
prefixing ``mu a.`` or ``(a .)``.  The probes feed a closed subject of
one of the three classical types fresh, inert arguments and search its
reduction graph (breadth-first, cap-bounded) for a spine whose leaf has
the shape the corresponding behavior law predicts, in one staged search:

* ex falso, type ``_|_ -> P``: ((T t*) u*...) reduces to a spine over t*
  at stage 0, with no continuation and t* the one head issued;
* Peirce, type ``(~P -> P) -> P``: ((T u*) t*...) yields a chain of
  continuations theta_1, ..., theta_m, each extracted from a leaf
  ((u* theta) t*...), ending when some theta applied to a fresh v*
  reaches a spine over (v*_i0 t*...);
* excluded middle, type ``~P \\/ P`` (either disjunct order): the
  subject is scrutinized with probe branches (c*_i x_i) so each staged
  continuation is extractable from a leaf (c*_i theta); a theta from
  the P branch is fed a fresh E-sequence, one from the ~P branch a
  fresh term, until a spine over (v*_p t*_q...) appears.

Every leaf shape is one pattern, Leaf: a fresh head applied to a known
tail, (h t*...), or to a slot and then the tail, ((h s) t*...).  The
probe terms are open and usually untypable as a whole, so every
search is cap-bounded and a cap hit yields an inconclusive verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .reduction import DEFAULT_NODE_CAP, ReductTooDeep, Trace, reduction_graph
from .syntax import MAX_NESTING, parse_term, print_term
from .terms import (
    App, Arrow, BOT, Bottom, Case, Disj, ETerm, Formula, FreshSupply,
    Mu, Named, PropVar, Term, Var, apply_sequence, free_variables,
    fresh_name, open_names, shape, term_names,
)
from .typecheck import TypeCheckError, check


# --------------------------------------------------------------------------
# Leaf patterns
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Leaf:
    """Matches (h tail...) for a head variable h in heads, giving the
    slot h; or, applied, ((h s) tail...), giving the slot s.

    A leaf lies under the spine's mu-binders, so a slot may have dangling
    mu-indices; _match_spine names them."""

    heads: frozenset[str]
    tail: tuple[ETerm, ...] = ()
    applied: bool = False

    def match(self, t: Term) -> Optional[Term]:
        for e in reversed(self.tail):
            if type(t) is not App or t.arg != e:
                return None
            t = t.fun
        slot = t
        if self.applied:
            if type(t) is not App or not isinstance(t.arg, Term):
                return None
            slot, t = t.arg, t.fun
        if type(t) is Var and t.name in self.heads:
            return slot
        return None


# --------------------------------------------------------------------------
# Spine search over the reduction graph
# --------------------------------------------------------------------------

@dataclass
class SpineSearch:
    status: str  # "found" | "not-found" | "cap-exceeded"
    slot: Optional[Term] = None
    trace: Optional[Trace] = None
    label: Optional[str] = None   # which pattern matched
    explored: int = 0


def _match_spine(t: Term, patterns: list[tuple[str, Leaf]]):
    """First (label, slot) whose pattern matches a spine leaf of t.

    The mu-variables that the spine's binders bind are free in a slot:
    each is named by its binder's hint, numbered apart from the free
    names of t and from the names of the binders outside it."""
    hints: list[str] = []  # of the mu-binders crossed, innermost last
    current = t
    while True:
        for label, pattern in patterns:
            slot = pattern.match(current)
            if slot is not None:
                if hints:
                    free, names = free_variables(t), []
                    for hint in hints:
                        names.append(fresh_name(hint, *free, names))
                    slot = open_names(slot, tuple(names))
                return label, slot
        kind = type(current)
        if kind is Mu:
            hints.append(current.var)
        elif kind is not Named:
            return None
        current = current.body


def search_spine_reduct(t: Term, patterns: list[tuple[str, Leaf]],
                        node_cap: int = DEFAULT_NODE_CAP) -> SpineSearch:
    """Breadth-first search of the reducts of t for a matching spine."""
    hit = None

    def matches(term: Term) -> bool:
        nonlocal hit
        hit = _match_spine(term, patterns)
        return hit is not None

    graph = reduction_graph(t, node_cap, stop=matches)
    if graph.stopped is None:
        status = "not-found" if graph.complete else "cap-exceeded"
        return SpineSearch(status, explored=len(graph.nodes))
    label, slot = hit
    return SpineSearch("found", slot, graph.trace_to(graph.stopped),
                       label, len(graph.nodes))


# --------------------------------------------------------------------------
# Behavior reports and probes
# --------------------------------------------------------------------------

@dataclass
class BehaviorReport:
    law: str                     # "exfalso" | "peirce" | "tertium"
    subject: Term
    verdict: str                 # "confirmed" | "refuted" | "inconclusive"
    m: int = 0
    thetas: list[Term] = field(default_factory=list)
    traces: list[Trace] = field(default_factory=list)
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "subject": print_term(self.subject),
            "verdict": self.verdict,
            "m": self.m,
            "thetas": [print_term(t) for t in self.thetas],
            "traces": [t.to_json_lines() for t in self.traces],
            "detail": self.detail,
        }


def _fresh_args(supply: FreshSupply, prefix: str, n: int) -> tuple[ETerm, ...]:
    return tuple(Var(supply.fresh(prefix)) for _ in range(n))


def _admit(subject: Term, expected: str, read, seed: int, **counts: int):
    """The law's reading of a probe subject's type, by read, and a supply
    of names fresh for the subject: a closed one's only names are its
    binders' hints.  Refuses a negative count, then an open subject, one
    deeper than MAX_NESTING, one that does not check, and one whose type
    read gives None for, which must have type expected."""
    for name, n in counts.items():
        if n < 0:
            raise ValueError(f"{name} must be >= 0")
    lam, mu, hints = term_names(subject)
    depth, reach_lam, reach_mu = shape(subject)
    if lam or mu or reach_lam or reach_mu:
        # a subject too deep to print is not shown
        raise TypeCheckError("probe subject must be closed",
                             term=subject if depth <= MAX_NESTING else None)
    if depth > MAX_NESTING:
        raise ReductTooDeep(0)
    ty = check({}, {}, subject)
    if (reading := read(ty)) is None:
        raise TypeCheckError(f"subject must have type {expected}",
                             term=subject, found=ty)
    return reading, FreshSupply(hints, start=seed)


def probe_exfalso(subject: Term, n_args: int = 1,
                  node_cap: int = DEFAULT_NODE_CAP,
                  seed: int = 0) -> BehaviorReport:
    """Check that ((subject t*) u*...) reduces to a mu-spine over t*.

    The subject must be closed and of type _|_ -> A; the extra
    arguments u* are fresh term variables.
    """
    _, supply = _admit(subject, "_|_ -> A", _exfalso_arrow, seed,
                       n_args=n_args)
    t_star = supply.fresh("t")
    args = _fresh_args(supply, "u", n_args)
    return _run_stages(BehaviorReport("exfalso", subject, "inconclusive"),
                       apply_sequence(App(subject, Var(t_star)), args),
                       [], [t_star], [()], supply, 0, node_cap, 0)


def probe_peirce(subject: Term, n_args: int = 1,
                 node_cap: int = DEFAULT_NODE_CAP, max_m: int = 8,
                 seed: int = 0) -> BehaviorReport:
    """Stage through the continuation chain of a Peirce-typed subject."""
    _, supply = _admit(subject, "(~P -> P) -> P", _peirce_propvar, seed,
                       n_args=n_args, max_m=max_m)
    u_star = supply.fresh("u")
    tail = _fresh_args(supply, "t", n_args)
    return _run_stages(BehaviorReport("peirce", subject, "inconclusive"),
                       apply_sequence(App(subject, Var(u_star)), tail),
                       [("neg", Leaf(frozenset({u_star}), tail, True))],
                       [], [tail], supply, n_args, node_cap, max_m)


def probe_tertium(subject: Term, seq_len: int = 1,
                  node_cap: int = DEFAULT_NODE_CAP, max_m: int = 8,
                  seed: int = 0) -> BehaviorReport:
    """Stage through the case-branch continuations of an excluded-middle
    subject (type ~P \\/ P or P \\/ ~P)."""
    kinds, supply = _admit(subject, "~P \\/ P or P \\/ ~P",
                           _tertium_branch_kinds, seed,
                           seq_len=seq_len, max_m=max_m)
    c1, c2 = supply.fresh("c"), supply.fresh("c")
    x1, x2 = supply.fresh("x"), supply.fresh("x")
    return _run_stages(BehaviorReport("tertium", subject, "inconclusive"),
                       App(subject, Case(x1, App(Var(c1), Var(0)),
                                         x2, App(Var(c2), Var(0)))),
                       [(kinds[0], Leaf(frozenset({c1}), (), True)),
                        (kinds[1], Leaf(frozenset({c2}), (), True))],
                       [], [], supply, seq_len, node_cap, max_m)


def _run_stages(report: BehaviorReport, current: Term,
                continuations: list[tuple[str, Leaf]], heads: list[str],
                tails: list[tuple[ETerm, ...]], supply: FreshSupply,
                seq_len: int, node_cap: int, max_m: int) -> BehaviorReport:
    """Search stage after stage for a continuation or a terminal leaf.

    Each continuation pattern binds a theta and is labelled by its kind:
    a "neg" theta (a ~P continuation) is fed a fresh v, a "pos" one (a P
    continuation) a fresh tail of seq_len arguments.  A terminal leaf
    is (v tail...) for a head v and a tail issued so far; heads and
    tails start with those issued before stage 0.
    """
    for stage in range(max_m + 1):
        terminals = [("terminal", Leaf(frozenset(heads), tail))
                     for tail in tails if heads]
        result = search_spine_reduct(current, continuations + terminals,
                                     node_cap)
        if result.status == "cap-exceeded":
            report.detail = f"node cap {node_cap} exhausted at stage {stage}"
            return report
        if result.status == "not-found":
            report.verdict = "refuted"
            report.detail = f"no continuation or terminal leaf at stage {stage}"
            return report
        report.traces.append(result.trace)
        if result.label == "terminal":
            report.verdict = "confirmed"
            report.m = stage
            report.detail = f"terminal ({print_term(result.slot)} ...)"
            return report
        theta = result.slot
        report.thetas.append(theta)
        if stage == max_m:
            break
        if result.label == "pos":
            tail = _fresh_args(supply, "t", seq_len)
            tails.append(tail)
            current = apply_sequence(theta, tail)
        else:
            v = supply.fresh("v")
            heads.append(v)
            current = App(theta, Var(v))
    report.detail = f"no terminal leaf within max_m={max_m} stages"
    return report


def _exfalso_arrow(ty: Formula) -> Optional[Arrow]:
    return ty if isinstance(ty, Arrow) and ty.left == BOT else None


def _peirce_propvar(ty: Formula) -> Optional[str]:
    match ty:
        case Arrow(Arrow(Arrow(PropVar(p1), Bottom()), PropVar(p2)), PropVar(p3)) \
                if p1 == p2 == p3:
            return p1
    return None


def _tertium_branch_kinds(ty: Formula) -> Optional[tuple[str, str]]:
    """("pos"|"neg") per disjunct when ty is ~P \\/ P or P \\/ ~P."""
    match ty:
        case Disj(Arrow(PropVar(p1), Bottom()), PropVar(p2)) if p1 == p2:
            return ("neg", "pos")
        case Disj(PropVar(p1), Arrow(PropVar(p2), Bottom())) if p1 == p2:
            return ("pos", "neg")
    return None


# --------------------------------------------------------------------------
# Canonical term library
# --------------------------------------------------------------------------

_CANONICAL_SOURCES = {
    "T": "\\z:_|_. mu a:P. z",
    "C1": "\\z:~P -> P. mu a:P. [a] (z \\y:P. [a] y)",
    "C2": "\\z:~P -> P. mu a:P. [a] (z \\x:P. [a] (z \\y:P. [a] x))",
    "W": "mu b:P \\/ ~P. [b] in1{~P} mu a:P. [b] in2{P} \\y:P. [a] y",
    "Wprime": "mu b:~P \\/ P. [b] in2{~P} mu a:P. [b] in1{P} \\y:P. [a] y",
    "Tvar": "\\z:_|_. mu a:P. mu b:_|_. z",
}


def canonical_terms() -> dict[str, tuple[Term, Formula]]:
    """The named library: each term with its checker-verified type.

    Note the injection order: W checks at P \\/ ~P, and its
    injection-swapped twin Wprime at ~P \\/ P.
    """
    out = {}
    for name, src in _CANONICAL_SOURCES.items():
        t = parse_term(src)
        out[name] = (t, check({}, {}, t))
    return out
