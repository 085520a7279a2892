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
from typing import Callable, Mapping, Optional, Sequence

from .syntax import MAX_NESTING, alpha_key, canonical_form, splice_key
from .terms import (
    Abs, App, Arrow, Case, Conj, ETerm, Formula, Inj1, Inj2, Mu, Named,
    Pair, Proj1, Proj2, Term, Var, mu_substitute, node, shape, shift,
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
    """Raised by redexes, step_at, normalize, reduction_graph and the
    three probes (probe_exfalso, probe_peirce, probe_tertium) when a
    term or a reduct nests deeper than MAX_NESTING, the depth up to which
    redexes, contraction and the printers stay within Python's default
    recursion limit; steps is the reduct's distance from the input."""

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
# Redexes and contraction
# --------------------------------------------------------------------------

def _result_ann(ann: Optional[Formula], e: ETerm) -> Optional[Formula]:
    """The type annotation left after applying a term of type ann to e.

    Term arguments and projections decompose the annotation; a case
    bracket supplies its own result annotation.  None when underivable,
    which only happens on unannotated or untypable inputs.
    """
    kind = type(e)
    if kind is Proj1:
        return ann.left if type(ann) is Conj else None
    if kind is Proj2:
        return ann.right if type(ann) is Conj else None
    if kind is Case:
        return e.ann
    if isinstance(e, Term):
        return ann.right if type(ann) is Arrow else None
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
            f.body, 0, shift(e, 0, 1)))
    return None


def _reducts(t: Term, path: Position = (),
             out: Optional[list[tuple[Position, str, Term]]] = None
             ) -> list[tuple[Position, str, Term]]:
    """(position, rule, contractum) for each redex of t, in
    leftmost-outermost (pre-)order, with positions below path, appended
    to out.

    One walk finds and contracts every redex, each once, when it is
    reached; it builds no reduct, which _rebuild makes from t, the
    position and the contractum.  Eager, so a caller that takes only
    the first redex has contracted them all.
    """
    if out is None:
        out = []
    kind = type(t)
    if kind is App:
        f, e = t.fun, t.arg
        root = _contract(t)
        if root is not None:
            out.append((path, root[0], root[1]))
        _reducts(f, path + (0,), out)
        ke = type(e)
        if ke is Case:
            _reducts(e.left, path + (1,), out)
            _reducts(e.right, path + (2,), out)
        elif ke is not Proj1 and ke is not Proj2:
            _reducts(e, path + (1,), out)
    elif kind is Pair:
        _reducts(t.fst, path + (0,), out)
        _reducts(t.snd, path + (1,), out)
    elif kind is Abs or kind is Mu or kind is Named or kind is Inj1 \
            or kind is Inj2:
        _reducts(t.body, path + (0,), out)
    elif kind is not Var:
        raise TypeError(f"not a term: {t!r}")
    return out


def _rebuild(t: Term, position: Position, contractum: Term,
             depth: int = 0) -> Term:
    """The reduct of t that contracts its redex at position[depth:] to
    contractum: the nodes along that position are built anew around it,
    and every other node of t is shared."""
    if depth == len(position):
        return contractum
    i = position[depth]
    depth += 1
    kind = type(t)
    if kind is App:
        e = t.arg
        if not i:
            return App(_rebuild(t.fun, position, contractum, depth), e)
        if type(e) is not Case:
            return App(t.fun, _rebuild(e, position, contractum, depth))
        if i == 1:
            return App(t.fun, Case(
                e.left_var, _rebuild(e.left, position, contractum, depth),
                e.right_var, e.right, e.ann))
        return App(t.fun, Case(
            e.left_var, e.left, e.right_var,
            _rebuild(e.right, position, contractum, depth), e.ann))
    if kind is Pair:
        if i:
            return Pair(t.fst, _rebuild(t.snd, position, contractum, depth))
        return Pair(_rebuild(t.fst, position, contractum, depth), t.snd)
    body = _rebuild(t.body, position, contractum, depth)
    if kind is Abs or kind is Mu:
        return kind(t.var, t.ann, body)
    if kind is Named:
        return Named(t.name, body)
    return kind(body, t.ann)  # Inj1, Inj2


def redexes(t: Term) -> list[tuple[Position, str]]:
    """All redex positions and their rules, in leftmost-outermost
    (pre-)order.  A view over the walk, so every redex is contracted.
    Raises ReductTooDeep when t nests deeper than MAX_NESTING."""
    if shape(t)[0] > MAX_NESTING:
        raise ReductTooDeep(0)
    return [(p, rule) for p, rule, _ in _reducts(t)]


def step_at(t: Term, p: Position) -> ReductionStep:
    """The contraction of the redex at position p of t.  A view over
    the walk, so every redex of t is contracted.  Raises ReductTooDeep
    when t nests deeper than MAX_NESTING."""
    if shape(t)[0] > MAX_NESTING:
        raise ReductTooDeep(0)
    for q, rule, contractum in _reducts(t):
        if q == p:
            return ReductionStep(t, p, rule, _rebuild(t, p, contractum))
    raise InvalidPosition(f"no redex at position {p}")


def _too_deep(p: Position, contractum: Term) -> bool:
    """Whether the reduct that contracts a redex at position p to
    contractum nests deeper than MAX_NESTING, given that the term
    reduced does not: only the path through p changes, and it nests
    len(p) + the contractum's depth deep.  A key has at least one
    character per node on any path, so the contractum is walked only
    when its key's length passes the bound."""
    return (len(p) + len(alpha_key(contractum)) > MAX_NESTING
            and len(p) + shape(contractum)[0] > MAX_NESTING)


def normalize(t: Term, fuel: int = DEFAULT_FUEL) -> tuple[Term, Trace]:
    """Reduce the leftmost-outermost redex until normal or out of fuel.
    Each step reads the walk, which contracts every redex of the term,
    and rebuilds only the first reduct.

    Raises ValueError when fuel is negative, FuelExhausted after fuel
    steps, and ReductTooDeep when a term nests too deeply to reduce
    further.
    """
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    if shape(t)[0] > MAX_NESTING:
        raise ReductTooDeep(0)
    trace = Trace(t)
    current = t
    while True:
        found = _reducts(current)
        if not found:
            return current, trace
        if len(trace.steps) == fuel:
            raise FuelExhausted(trace)
        p, rule, contractum = found[0]
        if _too_deep(p, contractum):
            raise ReductTooDeep(len(trace.steps) + 1)
        after = _rebuild(current, p, contractum)
        trace.steps.append(ReductionStep(current, p, rule, after))
        current = after


# --------------------------------------------------------------------------
# Reduction graphs
# --------------------------------------------------------------------------

class SuccessorFacts:
    """Acyclicity, longest reduction path and unique normal form of the
    keys of a successor mapping, memoized per key and read together
    (lookup), and the keys each key reaches.

    A key's facts depend only on the keys it reaches, so one instance
    serves a mapping that only grows, such as run_suite's memo, which
    _explore_into fills, as long as every key it reaches is in the
    mapping: a memo holds only closed sets, so any key in it can be
    queried.
    """

    def __init__(self, succ: Mapping[str, Sequence[str]]):
        self.succ = succ
        self._longest: dict[str, int] = {}          # acyclic keys only
        # acyclic keys with a successor: the one normal form they reach,
        # or None; a key with no successor is its own
        self._normal: dict[str, Optional[str]] = {}
        self._cyclic: set[str] = set()              # keys that reach a cycle

    def _settle(self, start: str) -> None:
        """Memoize the facts of start and of the keys it reaches, children
        before parents; on meeting a cycle, mark every key on the path to
        it as cyclic and stop.  A key's normal form is the one its
        children share, if they share one."""
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
                below = succ[key]
                if not below:
                    longest[key] = 0
                    continue
                most, shared = 0, normal.get(below[0], below[0])
                for s in below:
                    if longest[s] > most:
                        most = longest[s]
                    if shared is not None and normal.get(s, s) != shared:
                        shared = None
                longest[key] = most + 1
                normal[key] = shared

    def lookup(self, key: str) -> tuple[Optional[int], Optional[str]]:
        """The length of the longest reduction sequence from key, and
        the one normal form that key reaches: both None when key
        reaches a cycle, and the normal form None when key reaches two
        or more."""
        self._settle(key)
        longest = self._longest.get(key)
        if longest is None:
            return None, None
        return longest, self._normal.get(key, key)

    def reach(self, key: str) -> list[str]:
        """The keys that key reaches, key first, breadth-first with each
        key's successors in the order the mapping lists them: the order
        in which reduction_graph and _explore_into admit them."""
        succ, order, seen = self.succ, [key], {key}
        for k in order:
            for s in succ[k]:
                if s not in seen:
                    seen.add(s)
                    order.append(s)
        return order

    def confluence_failure(self, key: str) -> Optional[list[str]]:
        """The witnesses that the keys key reaches are not confluent,
        else None: when key is acyclic, its normal forms (the keys it
        reaches with no successor) in the order reach lists them;
        otherwise an unjoinable pair.

        On a finite graph pairwise joinability means some node descends
        from every node.  When acyclic, that is a unique normal form.
        Otherwise the node with the fewest descendants lies in a terminal
        cycle, and a node that cannot reach it shares no descendant with it.
        """
        succ = self.succ
        longest, normal = self.lookup(key)
        if longest is not None:
            if normal is not None:
                return None
            return [k for k in self.reach(key) if not succ[k]]
        below = {k: set(self.reach(k)) for k in self.reach(key)}
        low = min(below, key=lambda k: len(below[k]))
        stray = next((k for k in below if low not in below[k]), None)
        return None if stray is None else [low, stray]


@dataclass
class ReductionGraph:
    """Breadth-first closure of a term under one-step reduction.

    Nodes are keyed by their alpha_key, one per alpha-equivalence class;
    to_json and to_dot print them by canonical_form.  ``edges`` has one
    entry (source, position, rule, destination) per redex of each
    expanded node; the first edge into each node but the root is the
    one that admitted it, so ``trace_to`` rebuilds a shortest reduction
    along first edges.  ``complete`` is False when the node cap dropped
    a reduct, after which no node was expanded, so its edges are
    incomplete too; ``stopped`` is the node at which
    ``reduction_graph``'s ``stop`` predicate held.
    """

    root: str
    nodes: dict[str, Term]
    edges: list[tuple[str, Position, str, str]]
    complete: bool
    stopped: Optional[str] = None

    def trace_to(self, key: str) -> Trace:
        """The reduction from the root to key along first incoming edges."""
        # the first edge into a node is the one that admitted it
        first: dict[str, tuple[str, Position, str, str]] = {}
        for edge in self.edges:
            first.setdefault(edge[3], edge)
        nodes, steps = self.nodes, []
        while key != self.root:
            src, position, rule, _ = first[key]
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


def _steps(t: Term) -> Optional[list[tuple[Position, str, str, Term]]]:
    """(position, rule, key, contractum) per redex of t, in redex order,
    for a t that nests no deeper than MAX_NESTING; None when a reduct
    nests deeper (see _too_deep).  Each key is the reduct's alpha_key,
    spliced from t's (syntax.splice_key), so that no reduct is built
    here."""
    out = []
    for p, rule, contractum in _reducts(t):
        if _too_deep(p, contractum):
            return None
        out.append((p, rule, splice_key(t, p, contractum), contractum))
    return out


def _root_too_deep(t: Term) -> bool:
    """Whether t nests deeper than MAX_NESTING, after one shape walk.

    Raises ValueError when it does not but has dangling indices, which
    canonical_form cannot print.
    """
    depth, lam, mu = shape(t)[:3]
    if depth > MAX_NESTING:
        return True
    if lam or mu:
        raise ValueError("the term has dangling indices: it is a subterm "
                         "whose bound variables refer to binders above it")
    return False


def reduction_graph(t: Term, node_cap: int = DEFAULT_NODE_CAP,
                    stop: Optional[Callable[[Term], bool]] = None
                    ) -> ReductionGraph:
    """Explore the reducts of t breadth-first, deduplicating alpha-equal nodes.

    The cap bounds the node count, and with it the work: a reduct past
    it is dropped with its edge, and the nodes still queued after that
    are dequeued but not expanded.  ``stop`` is tested on each node as
    it is dequeued; the first it holds for ends the search unexpanded
    and is recorded as ``stopped``.  Every node's reduct is built once,
    when its key first enters the graph, and the edge that admits it is
    the first edge into it.

    Raises ValueError when t has dangling indices, which canonical_form
    cannot print, and ReductTooDeep when t or a reduct nests deeper than
    MAX_NESTING.
    """
    if node_cap < 1:
        raise ValueError("node_cap must be >= 1")
    if _root_too_deep(t):
        raise ReductTooDeep(0)
    root = alpha_key(t)
    nodes: dict[str, Term] = {root: t}
    edges: list[tuple[str, Position, str, str]] = []
    complete = True
    queue = [root]  # every key admitted nests at most MAX_NESTING deep
    for key in queue:
        current = nodes[key]
        if stop is not None and stop(current):
            return ReductionGraph(root, nodes, edges, complete, key)
        if not complete:
            continue
        reducts = _steps(current)
        if reducts is None:
            graph = ReductionGraph(root, nodes, edges, complete)
            raise ReductTooDeep(len(graph.trace_to(key).steps) + 1)
        for position, rule, dst, contractum in reducts:
            if dst not in nodes:
                if len(nodes) >= node_cap:
                    complete = False
                    continue
                after = _rebuild(current, position, contractum)
                object.__setattr__(after, "_key", dst)
                nodes[dst] = after
                queue.append(dst)
            edges.append((key, position, rule, dst))
    return ReductionGraph(root, nodes, edges, complete)


def _explore_into(memo: dict[str, tuple[str, ...]], keys: dict[str, str],
                  t: Term, key: str, node_cap: int
                  ) -> Optional[list[tuple[str, Term]]]:
    """Close memo under reduction from t, whose alpha_key is key, and
    return the keys new to it, each paired with its term, in the order
    reduction_graph admits them: t first, and none when memo holds t.

    memo maps keys to the keys of their reducts, one per redex in redex
    order, and holds only closed sets: every reduct key of a key in it
    is in it too.  keys maps each key of memo to itself and grows with
    it, so that every reduct key in memo is the string memo holds as
    that key, not a spliced copy.  A reduct whose key memo holds is not
    explored again, and no edge is kept.  None when more than node_cap
    keys would be new, or when t or a reduct nests deeper than
    MAX_NESTING; memo and keys are then left as they were.  t is gated
    as a contractum at the root (_too_deep), walked only when its key is
    longer than MAX_NESTING, so t must have no dangling indices.
    """
    if key in keys:
        return []
    if _too_deep((), t):
        return None
    keys[key] = key  # as each key new to memo is, while this runs
    new = [(key, t)]
    expanded = []
    for key, current in new:
        reducts = _steps(current)
        if reducts is None:
            break
        successors = []
        for position, _, dst, contractum in reducts:
            known = keys.get(dst)
            if known is None:
                after = _rebuild(current, position, contractum)
                object.__setattr__(after, "_key", dst)
                keys[dst] = known = dst
                new.append((dst, after))
            successors.append(known)
        if len(new) > node_cap:
            break
        expanded.append((key, tuple(successors)))
    else:
        memo.update(expanded)
        return new
    for key, _ in new:  # cut short: keys forgets what memo will not hold
        del keys[key]
    return None
