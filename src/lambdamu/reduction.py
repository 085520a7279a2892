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
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .syntax import MAX_NESTING, alpha_key, canonical_form
from .terms import (
    Abs, App, Arrow, Case, Conj, ETerm, Formula, Inj1, Inj2, Mu, Named,
    Pair, Proj1, Proj2, Term, Var, dangling, mu_substitute, node, shift,
    substitute,
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


@node
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
# Nesting depth
# --------------------------------------------------------------------------

_ONE_CHILD = frozenset((Abs, Mu, Named, Inj1, Inj2))


def term_depth(t: Term) -> int:
    """The number of term nodes on the longest path from t to a leaf.

    Children are found by type rather than by pattern, since the
    explorer measures every root and many contracta.
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
                ke = type(e)
                if ke is Case:
                    below += (e.left, e.right)
                elif ke is not Proj1 and ke is not Proj2:
                    below.append(e)
            elif kind is Pair:
                below += (s.fst, s.snd)
            elif kind in _ONE_CHILD:
                below.append(s.body)
            elif kind is not Var:
                raise TypeError(f"not a term: {s!r}")
        level = below
    return depth


# --------------------------------------------------------------------------
# Redexes and contraction
# --------------------------------------------------------------------------

def _result_ann(ann: Optional[Formula], e: ETerm) -> Optional[Formula]:
    """The type annotation left after applying a term of type ann to e.

    Term arguments and projections decompose the annotation; a case
    bracket supplies its own result annotation.  None when underivable,
    which only happens on unannotated or untypable inputs.
    """
    match e:
        case Term():
            return ann.right if isinstance(ann, Arrow) else None
        case Proj1():
            return ann.left if isinstance(ann, Conj) else None
        case Proj2():
            return ann.right if isinstance(ann, Conj) else None
        case Case(_, _, _, _, c):
            return c
    return None


def _contract(t: App) -> Optional[tuple[str, Term]]:
    """The rule whose left-hand side matches at the root of the
    application t and its contractum, or None.  A subterm moved under
    binders has its dangling indices shifted past them, so nothing is
    captured and nothing renamed."""
    f, e = t.fun, t.arg
    kf, ke = type(f), type(e)
    if kf is Abs:
        if isinstance(e, Term):
            return "beta", substitute(f.body, 0, e)
    elif kf is Pair:
        if ke is Proj1:
            return "proj", f.fst
        if ke is Proj2:
            return "proj", f.snd
    elif kf is Inj1 or kf is Inj2:
        if ke is Case:
            u = e.left if kf is Inj1 else e.right
            return "case-inj", substitute(u, 0, f.body)
    elif kf is App:
        c = f.arg
        if type(c) is Case:
            under = shift(e, 1, 0)  # into each branch
            return "case-perm", App(f.fun, Case(
                c.left_var, App(c.left, under), c.right_var,
                App(c.right, under), _result_ann(c.ann, e)))
    elif kf is Mu:
        return "mu-struct", Mu(f.var, _result_ann(f.ann, e), mu_substitute(
            f.body, 0, (shift(e, 0, 1),)))
    return None


def _reducts(t: Term, path: Position = ()
             ) -> Iterator[tuple[Position, str, Term, Term]]:
    """(position, rule, reduct, contractum) for each redex of t, in
    leftmost-outermost (pre-)order, with positions below path.

    One walk finds and contracts every redex: each is contracted once,
    when it is reached, and the nodes above it are rebuilt around the
    contractum as the walk returns through them.  Lazy, so a caller
    that stops early contracts no redex after the last it takes.
    """
    kind = type(t)
    if kind is App:
        f, e = t.fun, t.arg
        root = _contract(t)
        if root is not None:
            rule, c = root
            yield path, rule, c, c
        for p, rule, new, c in _reducts(f, path + (0,)):
            yield p, rule, App(new, e), c
        ke = type(e)
        if ke is Case:
            x1, u1, x2, u2 = e.left_var, e.left, e.right_var, e.right
            ann = e.ann
            for p, rule, new, c in _reducts(u1, path + (1,)):
                yield p, rule, App(f, Case(x1, new, x2, u2, ann)), c
            for p, rule, new, c in _reducts(u2, path + (2,)):
                yield p, rule, App(f, Case(x1, u1, x2, new, ann)), c
        elif ke is not Proj1 and ke is not Proj2:
            for p, rule, new, c in _reducts(e, path + (1,)):
                yield p, rule, App(f, new), c
    elif kind is Pair:
        f, s = t.fst, t.snd
        for p, rule, new, c in _reducts(f, path + (0,)):
            yield p, rule, Pair(new, s), c
        for p, rule, new, c in _reducts(s, path + (1,)):
            yield p, rule, Pair(f, new), c
    elif kind is Abs or kind is Mu:
        for p, rule, new, c in _reducts(t.body, path + (0,)):
            yield p, rule, kind(t.var, t.ann, new), c
    elif kind is Named:
        for p, rule, new, c in _reducts(t.body, path + (0,)):
            yield p, rule, Named(t.name, new), c
    elif kind is Inj1 or kind is Inj2:
        for p, rule, new, c in _reducts(t.body, path + (0,)):
            yield p, rule, kind(new, t.ann), c
    elif kind is not Var:
        raise TypeError(f"not a term: {t!r}")


def redexes(t: Term) -> list[tuple[Position, str]]:
    """All redex positions and their rules, in leftmost-outermost
    (pre-)order.  A view over the walk, so every redex is contracted."""
    return [(p, rule) for p, rule, _, _ in _reducts(t)]


def step_at(t: Term, p: Position) -> ReductionStep:
    """The contraction of the redex at position p of t."""
    for q, rule, after, _ in _reducts(t):
        if q == p:
            return ReductionStep(t, p, rule, after)
    raise InvalidPosition(f"no redex at position {p}")


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
        first = next(_reducts(current), None)
        if first is None:
            return current, trace
        if len(trace.steps) == fuel:
            raise FuelExhausted(trace)
        p, rule, after, _ = first
        trace.steps.append(ReductionStep(current, p, rule, after))
        current = after


# --------------------------------------------------------------------------
# Reduction graphs
# --------------------------------------------------------------------------

class SuccessorFacts:
    """Acyclicity, longest reduction path and normal forms of the keys of
    a successor mapping, memoized per key.

    A key's facts depend only on the keys it reaches, so one instance
    serves a mapping that only grows, such as a reduction_graph memo,
    as long as every key it reaches is in the mapping: a memo holds only
    closed sets, so any key in it can be queried.
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
                           order: Iterable[str]) -> Optional[list[str]]:
        """The witnesses that the keys reachable from key, listed in
        ``order`` (all of those keys), are not confluent, else None: when
        key is acyclic, its normal forms in that order; otherwise an
        unjoinable pair.

        On a finite graph pairwise joinability means some node descends
        from every node.  When acyclic, that is a unique normal form.
        Otherwise the node with the fewest descendants lies in a terminal
        cycle, and a node that cannot reach it shares no descendant with it.
        """
        if self.acyclic(key):
            nfs = self._normal[key]
            return None if len(nfs) < 2 else [k for k in order if k in nfs]
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
        return None if stray is None else [low, stray]


@dataclass
class ReductionGraph:
    """Breadth-first closure of a term under one-step reduction.

    Nodes are keyed by their alpha_key, one per alpha-equivalence class;
    to_json and to_dot print them by canonical_form.  ``edges`` has one
    entry (source, position, rule, destination) per redex of each
    expanded node; ``parents`` maps every node but the root to the index
    of its first incoming edge, the one that admitted it, so
    ``trace_to`` rebuilds a shortest reduction.  ``complete`` is False
    when the node cap dropped a reduct, after which no node was
    expanded, so its edges are incomplete too; ``stopped`` is the node
    at which ``reduction_graph``'s ``stop`` predicate held.  A node
    served from ``reduction_graph``'s memo has no term, and its edges
    have no position and no rule, so such a graph cannot be printed.
    """

    root: str
    nodes: dict[str, Optional[Term]]
    edges: list[tuple[str, Optional[Position], Optional[str], str]]
    complete: bool
    parents: dict[str, int] = field(default_factory=dict)
    stopped: Optional[str] = None

    def trace_to(self, key: str) -> Trace:
        """The reduction from the root to key along first incoming edges."""
        nodes, steps = self.nodes, []
        while key != self.root:
            src, position, rule, _ = self.edges[self.parents[key]]
            steps.append(ReductionStep(nodes[src], position, rule, nodes[key]))
            key = src
        steps.reverse()
        return Trace(nodes[self.root], steps)

    def printed(self) -> dict[str, str]:
        """The canonical form of each node, by key."""
        return {k: canonical_form(t) for k, t in self.nodes.items()}

    def to_dot(self) -> str:
        text = self.printed()
        ids = {k: f"n{i}" for i, k in enumerate(self.nodes)}
        lines = ["digraph reduction {"]
        for k, i in ids.items():
            label = text[k].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {i} [label="{label}"];')
        for src, _, rule, dst in self.edges:
            lines.append(f'  {ids[src]} -> {ids[dst]} [label="{rule}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        text = self.printed()
        return {
            "root": text[self.root],
            "complete": self.complete,
            "nodes": list(text.values()),
            "edges": [
                {"from": text[src], "to": text[dst], "rule": rule,
                 "position": list(position)}
                for src, position, rule, dst in self.edges
            ],
        }


def _steps(t: Term, depth: int
           ) -> Optional[list[tuple[Position, str, str, Term, int]]]:
    """(position, rule, key, term, depth bound) per redex of t, in redex
    order, given a bound on t's depth (see term_depth) no greater than
    MAX_NESTING; None when a reduct nests deeper than that.

    A reduct differs from t only along the contracted position p, so it
    nests at most max(depth, len(p) + the contractum's depth) deep.  A
    contractum nests less than three times as deep as its redex
    (mu-struct, the worst rule, adds a node and a copy of the argument
    under each name), so len(p) + 3 * (depth - len(p)) bounds that too,
    and the contractum is walked only when this passes MAX_NESTING.
    """
    out = []
    for p, rule, after, contractum in _reducts(t):
        bound = max(depth, len(p) + 3 * (depth - len(p)))
        if bound > MAX_NESTING:
            bound = max(depth, len(p) + term_depth(contractum))
            if bound > MAX_NESTING:
                return None
        out.append((p, rule, alpha_key(after), after, bound))
    return out


def reduction_graph(t: Term, node_cap: int = DEFAULT_NODE_CAP,
                    stop: Optional[Callable[[Term], bool]] = None,
                    memo: Optional[dict[str, tuple[str, ...]]] = None
                    ) -> ReductionGraph:
    """Explore the reducts of t breadth-first, deduplicating alpha-equal nodes.

    The package's one search over reducts.  The cap bounds the node
    count, and with it the work: a reduct past it is dropped with its
    edge, and the nodes still queued after that are dequeued but not
    expanded.  ``stop`` is tested on each node as it is dequeued; the
    first it holds for ends the search unexpanded and is recorded as
    ``stopped``.

    ``memo`` maps keys to the keys of their reducts, one per redex in
    redex order, and holds only closed sets: every reduct key of a key
    in it is in it too.  A node whose key it holds is served from it,
    with no term and no steps on its edges, and so are all the nodes
    below it.  The keys expanded here are added to it only when the
    graph completes, which keeps it closed; a graph that the cap or a
    too-deep reduct cut short leaves it as it was.  ``stop`` needs the
    term of every node, so it is refused together with ``memo``.

    Raises ValueError when t has dangling indices, which canonical_form
    cannot print, and ReductTooDeep when t or a reduct nests deeper than
    MAX_NESTING.
    """
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    if stop is not None and memo is not None:
        raise ValueError("stop needs the term of every node, and a node "
                         "served from memo has none")
    depth = term_depth(t)
    if depth > MAX_NESTING:
        raise ReductTooDeep(0)
    if dangling(t) != (0, 0):
        raise ValueError("the term has dangling indices: it is a subterm "
                         "whose bound variables refer to binders above it")
    root = alpha_key(t)
    nodes: dict[str, Optional[Term]] = {root: t}
    edges: list[tuple[str, Optional[Position], Optional[str], str]] = []
    parents: dict[str, int] = {}
    expanded: dict[str, tuple[str, ...]] = {}
    complete = True
    queue = [(root, depth)]  # with a bound on each node's depth
    for key, depth in queue:
        current = nodes[key]
        if stop is not None and stop(current):
            return ReductionGraph(root, nodes, edges, complete, parents, key)
        if not complete:
            continue
        if memo is not None and key in memo:
            reducts = [(None, None, dst, None, None) for dst in memo[key]]
        else:
            reducts = _steps(current, depth)
            if reducts is None:
                distance = 1
                while key != root:
                    key = edges[parents[key]][0]
                    distance += 1
                raise ReductTooDeep(distance)
            if memo is not None:
                expanded[key] = tuple(dst for _, _, dst, _, _ in reducts)
        for position, rule, dst, after, bound in reducts:
            if dst not in nodes:
                if len(nodes) >= node_cap:
                    complete = False
                    continue
                nodes[dst] = after
                parents[dst] = len(edges)
                queue.append((dst, bound))
            edges.append((key, position, rule, dst))
    if memo is not None and complete:
        memo.update(expanded)
    return ReductionGraph(root, nodes, edges, complete, parents)
