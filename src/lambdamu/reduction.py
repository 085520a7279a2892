"""Redexes, single-step contraction, normalization, and reduction graphs.

The five contraction rules::

    beta       (\\x.u v)                  > u[x:=v]
    proj       (<t1,t2> pi)               > ti
    case-inj   (ini t [x1.u1,x2.u2])      > ui[xi:=t]
    case-perm  ((t [x1.u1,x2.u2]) e)      > (t [x1.(u1 e), x2.(u2 e)])
    mu-struct  (mu a.t e)                 > mu a.t[a:=*e]

Reduction is closed under all term and E-term contexts: under binders,
inside pairs, injections, case branches, and named terms.  Positions
are paths of child indices from the root; for an application the
function is child 0 and the E-term payload occupies children 1 (and 2
for the second case branch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .syntax import MAX_NESTING, canonical_form, print_term
from .terms import (
    Abs, App, Arg, Arrow, Case, Conj, ETerm, Formula, Inj1, Inj2, Mu, Named,
    Pair, Proj1, Proj2, Term, Var, mu_substitute, shift_eterm, substitute,
)

RULE_IDS = ("beta", "proj", "case-inj", "case-perm", "mu-struct")

DEFAULT_FUEL = 10_000
DEFAULT_NODE_CAP = 100_000

Position = tuple[int, ...]


class InvalidPosition(Exception):
    pass


class FuelExhausted(Exception):
    """Raised by normalize when the step budget runs out; carries the trace."""

    def __init__(self, trace: "Trace"):
        self.trace = trace
        super().__init__(f"fuel exhausted after {len(trace.steps)} steps")


class ReductTooDeep(Exception):
    """Raised by normalize and reduction_graph when a reduct nests deeper
    than MAX_NESTING, the depth up to which redexes, contraction and the
    printers stay within Python's default recursion limit; steps is the
    reduct's distance from the input."""

    def __init__(self, steps: int):
        super().__init__(f"reduct nested deeper than {MAX_NESTING} levels "
                         f"after {steps} steps")


@dataclass(frozen=True)
class ReductionStep:
    before: Term
    position: Position
    rule: str
    after: Term


@dataclass
class Trace:
    initial: Term
    steps: list[ReductionStep] = field(default_factory=list)

    def to_json_lines(self) -> list[dict]:
        return [
            {
                "index": i,
                "rule": s.rule,
                "position": list(s.position),
                "before": canonical_form(s.before),
                "after": canonical_form(s.after),
            }
            for i, s in enumerate(self.steps)
        ]


# --------------------------------------------------------------------------
# Positions
# --------------------------------------------------------------------------

def term_children(t: Term) -> list[tuple[int, Term]]:
    match t:
        case Var(_):
            return []
        case Abs(_, _, b) | Mu(_, _, b) | Named(_, b) | Inj1(b, _) | Inj2(b, _):
            return [(0, b)]
        case Pair(f, s):
            return [(0, f), (1, s)]
        case App(f, e):
            out = [(0, f)]
            match e:
                case Arg(u):
                    out.append((1, u))
                case Case(_, u1, _, u2):
                    out.append((1, u1))
                    out.append((2, u2))
            return out
    raise TypeError(f"not a term: {t!r}")


def term_depth(t: Term) -> int:
    """The number of term nodes on the longest path from t to a leaf.

    The children of term_children, found by type rather than by pattern,
    since every explored reduct is measured.
    """
    depth, level = 0, [t]
    while level:
        depth += 1
        below = []
        for s in level:
            kind = type(s)
            if kind is App:
                below.append(s.fun)
                e = s.arg
                if type(e) is Arg:
                    below.append(e.term)
                elif type(e) is Case:
                    below += (e.left, e.right)
            elif kind is Pair:
                below += (s.fst, s.snd)
            elif kind is not Var:
                below.append(s.body)
        level = below
    return depth


def subterm_at(t: Term, p: Position) -> Term:
    for k, i in enumerate(p):
        for j, child in term_children(t):
            if j == i:
                t = child
                break
        else:
            raise InvalidPosition(f"no child {i} at position {p[:k]}")
    return t


def replace_at(t: Term, p: Position, new: Term) -> Term:
    if not p:
        return new
    i, rest = p[0], p[1:]
    match t, i:
        case Abs(x, ann, b), 0:
            return Abs(x, ann, replace_at(b, rest, new))
        case Mu(a, ann, b), 0:
            return Mu(a, ann, replace_at(b, rest, new))
        case Named(a, b), 0:
            return Named(a, replace_at(b, rest, new))
        case Inj1(b, ann), 0:
            return Inj1(replace_at(b, rest, new), ann)
        case Inj2(b, ann), 0:
            return Inj2(replace_at(b, rest, new), ann)
        case Pair(f, s), 0:
            return Pair(replace_at(f, rest, new), s)
        case Pair(f, s), 1:
            return Pair(f, replace_at(s, rest, new))
        case App(f, e), 0:
            return App(replace_at(f, rest, new), e)
        case App(f, Arg(u)), 1:
            return App(f, Arg(replace_at(u, rest, new)))
        case App(f, Case(x1, u1, x2, u2, ann)), 1:
            return App(f, Case(x1, replace_at(u1, rest, new), x2, u2, ann))
        case App(f, Case(x1, u1, x2, u2, ann)), 2:
            return App(f, Case(x1, u1, x2, replace_at(u2, rest, new), ann))
    raise InvalidPosition(f"no child {i} of a {type(t).__name__}")


# --------------------------------------------------------------------------
# Redexes and contraction
# --------------------------------------------------------------------------

def rule_at(t: Term) -> Optional[str]:
    """The rule whose left-hand side matches at the root of t, if any."""
    match t:
        case App(Abs(), Arg()):
            return "beta"
        case App(Pair(), Proj1() | Proj2()):
            return "proj"
        case App(Inj1() | Inj2(), Case()):
            return "case-inj"
        case App(App(_, Case()), _):
            return "case-perm"
        case App(Mu(), _):
            return "mu-struct"
    return None


def redexes(t: Term) -> list[tuple[Position, str]]:
    """All redex positions, in leftmost-outermost (pre-)order."""
    out: list[tuple[Position, str]] = []

    def walk(t, path):
        r = rule_at(t)
        if r is not None:
            out.append((path, r))
        for i, child in term_children(t):
            walk(child, path + (i,))

    walk(t, ())
    return out


def _result_ann(ann: Optional[Formula], e: ETerm) -> Optional[Formula]:
    """The type annotation left after applying a term of type ann to e.

    Arguments and projections decompose the annotation; a case bracket
    supplies its own result annotation.  None when underivable, which
    only happens on unannotated or untypable inputs.
    """
    match e:
        case Arg(_):
            return ann.right if isinstance(ann, Arrow) else None
        case Proj1():
            return ann.left if isinstance(ann, Conj) else None
        case Proj2():
            return ann.right if isinstance(ann, Conj) else None
        case Case(_, _, _, _, c):
            return c
    return None


def contract_root(t: Term) -> Term:
    """The contractum of the redex t.  A subterm moved under binders has
    its dangling indices shifted past them, so nothing is captured and
    nothing renamed."""
    match rule_at(t), t:
        case "beta", App(Abs(_, _, body), Arg(v)):
            return substitute(body, 0, v)
        case "proj", App(Pair(f, s), proj):
            return f if isinstance(proj, Proj1) else s
        case "case-inj", App(Inj1(v, _), Case(_, u1, _, _)):
            return substitute(u1, 0, v)
        case "case-inj", App(Inj2(v, _), Case(_, _, _, u2)):
            return substitute(u2, 0, v)
        case "case-perm", App(App(s, Case(x1, u1, x2, u2, ann)), e):
            under = shift_eterm(e, 1, 0)  # into each branch
            return App(s, Case(x1, App(u1, under), x2, App(u2, under),
                               _result_ann(ann, e)))
        case "mu-struct", App(Mu(a, ann, body), e):
            return Mu(a, _result_ann(ann, e),
                      mu_substitute(body, 0, (shift_eterm(e, 0, 1),)))
    raise InvalidPosition(f"no redex at the root of a {type(t).__name__}")


def step_at(t: Term, p: Position) -> ReductionStep:
    sub = subterm_at(t, p)
    rule = rule_at(sub)
    if rule is None:
        raise InvalidPosition(f"no redex at {p} in {print_term(t)}")
    return ReductionStep(t, p, rule, replace_at(t, p, contract_root(sub)))


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, Trace]:
    """Reduce the leftmost-outermost redex until normal or out of fuel.

    Raises FuelExhausted after fuel steps, and ReductTooDeep when a term
    nests too deeply to reduce further.
    """
    trace = Trace(t)
    current = t
    while True:
        if term_depth(current) > MAX_NESTING:
            raise ReductTooDeep(len(trace.steps))
        rs = redexes(current)
        if not rs:
            return current, trace
        if len(trace.steps) == fuel:
            raise FuelExhausted(trace)
        step = step_at(current, rs[0][0])
        trace.steps.append(step)
        current = step.after


# --------------------------------------------------------------------------
# Reduction graphs
# --------------------------------------------------------------------------

class SuccessorFacts:
    """Acyclicity, longest reduction path and normal forms of the keys of
    a successor mapping, memoized per key.

    A key's facts depend only on the keys it reaches, so one instance
    serves a mapping that only grows, as a ReductionTable's does, once
    every key a queried key reaches has been expanded.
    """

    def __init__(self, succ: Mapping[str, Iterable[str]]):
        self.succ = succ
        self._longest: dict[str, int] = {}          # acyclic keys only
        self._normal: dict[str, frozenset[str]] = {}
        self._cyclic: set[str] = set()              # keys that reach a cycle

    def _settle(self, start: str) -> None:
        """Memoize the facts of start and of the keys it reaches, children
        before parents; on meeting a cycle, mark every key on the path to
        it as cyclic and stop."""
        succ, longest, normal = self.succ, self._longest, self._normal
        if start in longest or start in self._cyclic:
            return
        path = {start}
        stack = [(start, iter(succ[start]))]
        while stack:
            key, children = stack[-1]
            for s in children:
                if s in longest:
                    continue
                if s in path or s in self._cyclic:
                    self._cyclic.update(k for k, _ in stack)
                    return
                path.add(s)
                stack.append((s, iter(succ[s])))
                break
            else:
                stack.pop()
                path.discard(key)
                longest[key] = max((longest[s] + 1 for s in succ[key]),
                                   default=0)
                nfs = [normal[s] for s in succ[key]]
                if not nfs:
                    normal[key] = frozenset((key,))
                elif all(n == nfs[0] for n in nfs):
                    normal[key] = nfs[0]  # shared, not copied
                else:
                    normal[key] = frozenset().union(*nfs)

    def acyclic(self, key: str) -> bool:
        self._settle(key)
        return key in self._longest

    def longest_path(self, key: str) -> int:
        """Length of the longest reduction sequence from key."""
        if not self.acyclic(key):
            raise ValueError(f"{key} reaches a cycle")
        return self._longest[key]

    def confluence_failure(self, key: str,
                           order: Iterable[str]) -> Optional[str]:
        """Evidence that the keys reachable from key are not confluent,
        listed in ``order`` (all of those keys), else None.

        On a finite graph pairwise joinability means some node descends
        from every node.  When acyclic, that is a unique normal form.
        Otherwise the node with the fewest descendants lies in a terminal
        cycle, and a node that cannot reach it shares no descendant with it.
        """
        if self.acyclic(key):
            nfs = self._normal[key]
            if len(nfs) < 2:
                return None
            listed = [k for k in order if k in nfs]
            return f"{len(listed)} distinct normal forms: {listed}"
        succ = self.succ

        def reach(start: str) -> set[str]:
            seen, todo = set(), [start]
            while todo:
                if (k := todo.pop()) not in seen:
                    seen.add(k)
                    todo.extend(succ[k])
            return seen

        below = {k: reach(k) for k in order}
        low = min(below, key=lambda k: len(below[k]))
        stray = next((k for k in below if low not in below[k]), None)
        return None if stray is None else f"unjoinable pair: {low} vs {stray}"


@dataclass
class ReductionGraph:
    """Breadth-first closure of a term under one-step reduction.

    Nodes are keyed by their alpha-canonical printed form.  ``edges``
    has one entry per redex of each expanded node; ``parents`` maps every
    node but the root to the index of its first incoming edge, the one
    that admitted it, so ``trace_to`` rebuilds a shortest reduction.
    ``complete`` is False when the node cap dropped a reduct, after which
    no node was expanded, so its edges are incomplete too; ``stopped``
    is the node at which ``reduction_graph``'s ``stop`` predicate held.
    A graph explored with a ReductionTable has no steps on its edges and
    no term at a node whose term the table no longer holds.
    """

    root: str
    nodes: dict[str, Optional[Term]]
    edges: list[tuple[str, Optional[ReductionStep], str]]
    complete: bool
    parents: dict[str, int] = field(default_factory=dict)
    stopped: Optional[str] = None

    def trace_to(self, key: str) -> Trace:
        """The reduction from the root to key along first incoming edges."""
        steps = []
        while key != self.root:
            key, step, _ = self.edges[self.parents[key]]
            steps.append(step)
        steps.reverse()
        return Trace(self.nodes[self.root], steps)

    def to_dot(self) -> str:
        ids = {k: f"n{i}" for i, k in enumerate(self.nodes)}
        lines = ["digraph reduction {"]
        for k, i in ids.items():
            label = k.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {i} [label="{label}"];')
        for src, step, dst in self.edges:
            lines.append(f'  {ids[src]} -> {ids[dst]} [label="{step.rule}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "complete": self.complete,
            "nodes": list(self.nodes),
            "edges": [
                {"from": src, "to": dst, "rule": step.rule,
                 "position": list(step.position)}
                for src, step, dst in self.edges
            ],
        }


def _steps(t: Term, key: str
           ) -> Optional[list[tuple[ReductionStep, str, Term]]]:
    """(step, key, term) per redex of the node t, keyed key, in redex
    order; None when a reduct nests deeper than MAX_NESTING.

    t itself nests at most that deep, so a reduct can only be deeper
    along the contracted position p: by len(p) plus the contractum's
    depth.  A contractum nests less than three times as deep as its
    redex (mu-struct, the worst rule, adds a node and a copy of the
    argument under each name), so the contractum is walked only when
    len(p) + 3 * (depth of t - len(p)) passes the bound.  The key prints
    at least three characters of its own for every node but a leaf,
    which bounds the depth of t without walking it.
    """
    bound = (len(key) + 2) // 3
    out = []
    for p, _ in redexes(t):
        step = step_at(t, p)
        if 3 * bound - 2 * len(p) > MAX_NESTING and \
                len(p) + term_depth(subterm_at(step.after, p)) > MAX_NESTING:
            return None
        out.append((step, canonical_form(step.after), step.after))
    return out


class ReductionTable:
    """The one-step reducts of every key expanded so far, shared by the
    reduction_graph calls it is passed to.

    ``succ`` maps each expanded key to the keys of its reducts, one per
    redex in redex order, or to None when a reduct nests deeper than
    MAX_NESTING.  The table keeps keys, not steps: a reduct's term stays
    in ``pending`` only until its own key is expanded.  ``facts``
    memoizes acyclicity, longest path and normal forms per key.
    """

    def __init__(self):
        self.succ: dict[str, Optional[tuple[str, ...]]] = {}
        self.pending: dict[str, Term] = {}
        self.facts = SuccessorFacts(self.succ)

    def successors(self, key: str, t: Optional[Term]
                   ) -> Optional[list[tuple[None, str, Optional[Term]]]]:
        """(None, key, term) per reduct of the node key, whose term t is
        needed only when key is not yet expanded; a reduct's term is None
        once the table has dropped it.  None when a reduct is too deep."""
        if key in self.succ:
            dsts = self.succ[key]
            return None if dsts is None else \
                [(None, dst, self.pending.get(dst)) for dst in dsts]
        steps = _steps(t, key)
        self.pending.pop(key, None)
        if steps is None:
            self.succ[key] = None
            return None
        self.succ[key] = tuple(dst for _, dst, _ in steps)
        for _, dst, after in steps:
            if dst not in self.succ:
                self.pending.setdefault(dst, after)
        return [(None, dst, after) for _, dst, after in steps]


def reduction_graph(t: Term, node_cap: int = DEFAULT_NODE_CAP,
                    stop: Optional[Callable[[Term], bool]] = None,
                    table: Optional[ReductionTable] = None
                    ) -> ReductionGraph:
    """Explore the reducts of t breadth-first, deduplicating alpha-equal nodes.

    The package's one search over reducts.  The cap bounds the node
    count, and with it the work: a reduct past it is dropped with its
    edge, and the nodes still queued after that are dequeued but not
    expanded.  ``stop`` is tested on each node as it is dequeued; the
    first it holds for ends the search unexpanded and is recorded as
    ``stopped``.  A ``table`` supplies
    the reducts of the keys it has expanded and records those of the
    keys expanded here (``stop`` is then not supported, since a node
    served from the table may have no term).  Raises ReductTooDeep when
    t or a reduct nests deeper than MAX_NESTING.
    """
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    if term_depth(t) > MAX_NESTING:
        raise ReductTooDeep(0)
    root = canonical_form(t)
    nodes: dict[str, Optional[Term]] = {root: t}
    edges: list[tuple[str, Optional[ReductionStep], str]] = []
    parents: dict[str, int] = {}
    complete = True
    queue = [root]
    for key in queue:
        current = nodes[key]
        if stop is not None and stop(current):
            return ReductionGraph(root, nodes, edges, complete, parents, key)
        if not complete:
            continue
        reducts = _steps(current, key) if table is None else \
            table.successors(key, current)
        if reducts is None:
            distance = 1
            while key != root:
                key = edges[parents[key]][0]
                distance += 1
            raise ReductTooDeep(distance)
        for step, dst, after in reducts:
            if dst not in nodes:
                if len(nodes) >= node_cap:
                    complete = False
                    continue
                nodes[dst] = after
                parents[dst] = len(edges)
                queue.append(dst)
            edges.append((key, step, dst))
    return ReductionGraph(root, nodes, edges, complete, parents)
