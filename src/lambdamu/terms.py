"""Abstract syntax and binding operations for the proof-term language.

Terms extend the lambda-calculus with mu-abstraction and named terms,
plus pairs and injections.  An application's argument is an E-term: a
term itself, a projection or a case bracket, all under the ``ETerm``
base.  Lambda-variables and mu-variables are drawn from disjoint
namespaces.  All values are immutable; every operation here is
a pure function.

Terms are locally nameless (Chargueraud, "The Locally Nameless
Representation", 2012): a bound variable is a de Bruijn index, the
number of binders of its own namespace (Abs and case branches for
lambda-variables, Mu for mu-variables) between it and its binder; a
free variable is a name.  A binder keeps the name it was written with
only as a hint for printing, which takes no part in ``==`` and
``hash``: alpha-equal terms are equal.  Reduction works under binders
without opening them, so a subterm may have dangling indices, which
refer to binders above it; every operation here respects them.

The operations that reduction contracts through, ``shift``,
``substitute`` and ``mu_substitute``, each have a walk of their own
(``_shifted``, ``_substituted``, ``_mu_substituted``): it counts the
binders it crosses as two integers, picks a node's case by its type and
keeps every unchanged subterm, so that a reduct shares its nodes and
their keys.  The cold ones, ``close``, ``open_names`` and
``rename_binders``, share ``_walk``, which calls back at each leaf and
keeps the names of the binders it crosses.  One more walk, ``shape``,
reports what a term is rather than rebuilding it: its depth, how far its
dangling indices reach, its free names and its binders' hints, which
``free_variables``, ``is_closed`` and every depth gate read.

Every node class is a ``node``: a frozen, slotted dataclass whose
``__init__`` fills the slots through their descriptors.  Terms, E-terms
and formulas have one more slot, ``_key``, left unset until
``syntax.alpha_key`` reads the node, or an explorer of ``reduction``
(``reduction_graph`` or ``_explore_into``) builds a reduct whose key it
spliced: a string that two nodes share exactly when they are ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Union

Name = Union[str, int]  # a free name, or the de Bruijn index of a binder


def node(cls):
    """cls as a frozen, slotted dataclass whose ``__init__``, of the same
    signature, stores each field through its slot's member descriptor:
    a third cheaper per node than the ``object.__setattr__`` a frozen
    dataclass calls.  Assigning or deleting a field still raises
    ``FrozenInstanceError``; ``==``, hash, repr and pickling are the
    dataclass's.  A field may have a plain default; default_factory,
    init=False, kw_only and __post_init__ are not carried over."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    body = "".join(f"        set_{name}(self, {name})\n" for name in names)
    scope: dict = {}
    exec(f"def make({', '.join(f'set_{name}' for name in names)}):\n"
         f"    def __init__(self, {', '.join(names)}):\n"
         f"{body or '        pass'}\n"
         f"    return __init__\n", scope)
    init = scope["make"](*(cls.__dict__[name].__set__ for name in names))
    plain = cls.__init__
    init.__qualname__ = plain.__qualname__
    init.__defaults__, init.__annotations__ = \
        plain.__defaults__, plain.__annotations__
    cls.__init__ = init
    return cls


# --------------------------------------------------------------------------
# Formulas
# --------------------------------------------------------------------------

class Formula:
    __slots__ = ("_key",)  # syntax.alpha_key's cache, unset until read


@node
class PropVar(Formula):
    name: str


@node
class Bottom(Formula):
    pass


@node
class Arrow(Formula):
    left: Formula
    right: Formula


@node
class Conj(Formula):
    left: Formula
    right: Formula


@node
class Disj(Formula):
    left: Formula
    right: Formula


BOT = Bottom()


# --------------------------------------------------------------------------
# Terms and E-terms
# --------------------------------------------------------------------------

class ETerm:
    __slots__ = ("_key",)  # syntax.alpha_key's cache, unset until read


class Term(ETerm):
    __slots__ = ()


@node
class Var(Term):
    """A lambda-variable: a free name or a bound index."""

    name: Name


@node
class Abs(Term):
    var: str = field(compare=False)  # the binder's name, a printing hint
    ann: Optional[Formula]
    body: Term


@node
class App(Term):
    fun: Term
    arg: ETerm


@node
class Pair(Term):
    fst: Term
    snd: Term


@node
class Inj1(Term):
    body: Term
    ann: Optional[Formula] = None  # the right disjunct of the result


@node
class Inj2(Term):
    body: Term
    ann: Optional[Formula] = None  # the left disjunct of the result


@node
class Mu(Term):
    var: str = field(compare=False)  # the binder's name, a printing hint
    ann: Optional[Formula]
    body: Term


@node
class Named(Term):
    """A named term (a t), with a a mu-variable: a free name or a bound
    index."""

    name: Name
    body: Term


@node
class Proj1(ETerm):
    pass


@node
class Proj2(ETerm):
    pass


@node
class Case(ETerm):
    """A case bracket [x.u, y.v]; x is bound in u only, y in v only.

    The optional annotation records the common result type of the two
    branches.  It makes annotation repair under reduction syntactic:
    when a mu-abstraction consumes a case bracket, the new binder type
    is exactly this formula.
    """

    left_var: str = field(compare=False)  # printing hints, like Abs.var
    left: Term
    right_var: str = field(compare=False)
    right: Term
    ann: Optional[Formula] = None


PROJ1 = Proj1()
PROJ2 = Proj2()


def apply_sequence(t: Term, es: Iterable[ETerm]) -> Term:
    """(t w1 ... wn), left to right; the empty sequence is the identity."""
    for e in es:
        t = App(t, e)
    return t


# --------------------------------------------------------------------------
# Binding: from names to indices and back
# --------------------------------------------------------------------------

def _walk(t: Term, var, named, lam=(), mu=(), rename=None) -> Term:
    """t with var(v, lam, mu) for each lambda-variable leaf v and
    named(n, body, lam, mu) for each named term n, whose body has been
    walked already; lam and mu are the names of the lambda- and
    mu-binders crossed, innermost last.  rename, if given, names each
    binder afresh, in preorder.  An unchanged subterm is kept, not
    copied.  It serves close, open_names and rename_binders, which are
    cold; shift, substitute and mu_substitute have walks of their own."""
    kind = type(t)
    if kind is Var:
        return var(t, lam, mu)
    if kind is App:
        f = _walk(t.fun, var, named, lam, mu, rename)
        e = _walk_e(t.arg, var, named, lam, mu, rename)
        return t if f is t.fun and e is t.arg else App(f, e)
    if kind is Named:
        return named(t, _walk(t.body, var, named, lam, mu, rename), lam, mu)
    if kind is Abs or kind is Mu:
        x = t.var if rename is None else rename(kind, t.var)
        if kind is Abs:
            b = _walk(t.body, var, named, lam + (x,), mu, rename)
        else:
            b = _walk(t.body, var, named, lam, mu + (x,), rename)
        return t if b is t.body and x is t.var else kind(x, t.ann, b)
    if kind is Pair:
        f = _walk(t.fst, var, named, lam, mu, rename)
        s = _walk(t.snd, var, named, lam, mu, rename)
        return t if f is t.fst and s is t.snd else Pair(f, s)
    if kind is Inj1 or kind is Inj2:
        b = _walk(t.body, var, named, lam, mu, rename)
        return t if b is t.body else kind(b, t.ann)
    raise TypeError(f"not a term: {t!r}")


def _walk_e(e: ETerm, var, named, lam=(), mu=(), rename=None) -> ETerm:
    kind = type(e)
    if kind is Proj1 or kind is Proj2:
        return e
    if kind is not Case:
        return _walk(e, var, named, lam, mu, rename)
    x1 = e.left_var if rename is None else rename(Case, e.left_var)
    u1 = _walk(e.left, var, named, lam + (x1,), mu, rename)
    x2 = e.right_var if rename is None else rename(Case, e.right_var)
    u2 = _walk(e.right, var, named, lam + (x2,), mu, rename)
    if u1 is e.left and u2 is e.right and x1 is e.left_var \
            and x2 is e.right_var:
        return e
    return Case(x1, u1, x2, u2, e.ann)


def _same_var(v, lam, mu):
    return v


def _same_named(n, body, lam, mu):
    return n if body is n.body else Named(n.name, body)


def close(t: Term) -> Term:
    """t with each free variable that a binder above it is named after
    replaced by that binder's index, the innermost such binder winning.

    The one way to build a term with binders from names:
    ``close(Abs("x", P, Var("x")))`` is the identity on P.
    """
    def index(names, x):
        for i, name in enumerate(reversed(names)):
            if name == x:
                return i
        return x

    return _walk(t, lambda v, lam, mu: Var(index(lam, v.name)),
                 lambda n, body, lam, mu: Named(index(mu, n.name), body))


def open_names(t: Term, mu_names: tuple[str, ...]) -> Term:
    """t with each dangling mu-index replaced by the free name of its
    binder, listed innermost last."""
    def named(n, body, lam, mu):
        a = n.name
        if type(a) is int and a >= len(mu):
            return Named(mu_names[len(mu) - 1 - a], body)
        return _same_named(n, body, lam, mu)

    return _walk(t, _same_var, named)


def shape(t: Term) -> tuple[int, int, int, set[str], set[str], set[str]]:
    """t's facts, from one walk: its depth, the number of term nodes on
    its longest path to a leaf; how many lambda- and how many mu-binders
    above t its dangling indices reach; and its free lambda-names, its
    free mu-names and its binders' hints, in that order.  Terms are
    locally nameless, so free names and dangling indices sit on the same
    leaves.  The walk goes level by level, so that no term is too deep
    for it; children are found by type rather than by pattern, since the
    explorer measures every root."""
    depth = reach_lam = reach_mu = 0
    lam_names: set[str] = set()
    mu_names: set[str] = set()
    hints: set[str] = set()
    level = [(t, 0, 0)]  # each node with the lambda- and mu-binders above
    while level:
        depth += 1
        below = []
        for s, lam, mu in level:
            kind = type(s)
            if kind is Var:
                x = s.name
                if type(x) is str:
                    lam_names.add(x)
                elif x - lam >= reach_lam:
                    reach_lam = x + 1 - lam
            elif kind is App:
                below.append((s.fun, lam, mu))
                e = s.arg
                ke = type(e)
                if ke is Case:
                    hints.add(e.left_var)
                    hints.add(e.right_var)
                    below += ((e.left, lam + 1, mu), (e.right, lam + 1, mu))
                elif ke is not Proj1 and ke is not Proj2:
                    below.append((e, lam, mu))
            elif kind is Abs:
                hints.add(s.var)
                below.append((s.body, lam + 1, mu))
            elif kind is Mu:
                hints.add(s.var)
                below.append((s.body, lam, mu + 1))
            elif kind is Named:
                a = s.name
                if type(a) is str:
                    mu_names.add(a)
                elif a - mu >= reach_mu:
                    reach_mu = a + 1 - mu
                below.append((s.body, lam, mu))
            elif kind is Pair:
                below += ((s.fst, lam, mu), (s.snd, lam, mu))
            elif kind is Inj1 or kind is Inj2:
                below.append((s.body, lam, mu))
            else:
                raise TypeError(f"not a term: {s!r}")
        level = below
    return depth, reach_lam, reach_mu, lam_names, mu_names, hints


def rename_binders(t: Term, rename) -> Term:
    """t with each binder named rename(kind, name), in preorder, kind
    being Abs, Mu or Case."""
    return _walk(t, _same_var, _same_named, rename=rename)


def shift(e: ETerm, dl: int, dm: int) -> ETerm:
    """e, a term or an E-term, moved under dl more lambda- and dm more
    mu-binders: its dangling indices grow by as much."""
    kind = type(e)
    if not dl and not dm or kind is Proj1 or kind is Proj2:
        return e
    if kind is not Case:
        return _shifted(e, dl, dm, 0, 0)
    u1 = _shifted(e.left, dl, dm, 1, 0)
    u2 = _shifted(e.right, dl, dm, 1, 0)
    if u1 is e.left and u2 is e.right:
        return e
    return Case(e.left_var, u1, e.right_var, u2, e.ann)


def _shifted(t: Term, dl: int, dm: int, lam: int, mu: int) -> Term:
    """shift's walk: t, below lam lambda- and mu mu-binders of the term
    being shifted, with each index that reaches past them grown by dl or
    dm.  An unchanged subterm is kept, not copied."""
    kind = type(t)
    if kind is Var:
        x = t.name
        return Var(x + dl) if dl and type(x) is int and x >= lam else t
    if kind is App:
        f = _shifted(t.fun, dl, dm, lam, mu)
        e = t.arg
        ke = type(e)
        if ke is Case:
            u1 = _shifted(e.left, dl, dm, lam + 1, mu)
            u2 = _shifted(e.right, dl, dm, lam + 1, mu)
            if u1 is not e.left or u2 is not e.right:
                e = Case(e.left_var, u1, e.right_var, u2, e.ann)
        elif ke is not Proj1 and ke is not Proj2:
            e = _shifted(e, dl, dm, lam, mu)
        return t if f is t.fun and e is t.arg else App(f, e)
    if kind is Abs:
        b = _shifted(t.body, dl, dm, lam + 1, mu)
        return t if b is t.body else Abs(t.var, t.ann, b)
    if kind is Mu:
        b = _shifted(t.body, dl, dm, lam, mu + 1)
        return t if b is t.body else Mu(t.var, t.ann, b)
    if kind is Named:
        a = t.name
        b = _shifted(t.body, dl, dm, lam, mu)
        if dm and type(a) is int and a >= mu:
            return Named(a + dm, b)
        return t if b is t.body else Named(a, b)
    if kind is Pair:
        f = _shifted(t.fst, dl, dm, lam, mu)
        s = _shifted(t.snd, dl, dm, lam, mu)
        return t if f is t.fst and s is t.snd else Pair(f, s)
    if kind is Inj1 or kind is Inj2:
        b = _shifted(t.body, dl, dm, lam, mu)
        return t if b is t.body else kind(b, t.ann)
    raise TypeError(f"not a term: {t!r}")


# --------------------------------------------------------------------------
# Free variables and fresh names
# --------------------------------------------------------------------------

def free_variables(t: Term) -> tuple[frozenset[str], frozenset[str]]:
    """Free lambda-variables and free mu-variables of t, in that order."""
    _, _, _, lam, mu, _ = shape(t)
    return frozenset(lam), frozenset(mu)


def is_closed(t: Term) -> bool:
    """No free names and no dangling indices."""
    _, reach_lam, reach_mu, lam, mu, _ = shape(t)
    return not (reach_lam or reach_mu or lam or mu)


def fresh_name(hint: str, *taken) -> str:
    """The name a binder of name hint takes beside the names in taken, a
    few containers: hint if none holds it, else hint's stem (hint less
    its trailing digits) and the first number none holds."""
    name, stem, i = hint, hint.rstrip("0123456789") or hint, 0
    while any(name in names for names in taken):
        name, i = f"{stem}{i}", i + 1
    return name


class FreshSupply:
    """Deterministic fresh-name generator avoiding a given set of names.

    The start offset is the only seedable knob in the library: different
    offsets give different concrete names but identical structure.  It
    may not be negative, since a name such as ``t-2`` does not parse.
    """

    def __init__(self, avoid: Iterable[str] = (), start: int = 0):
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        self.avoid = set(avoid)
        self.counter = start

    def fresh(self, base: str) -> str:
        stem = base.rstrip("0123456789") or base
        while True:
            candidate = f"{stem}{self.counter}"
            self.counter += 1
            if candidate not in self.avoid:
                self.avoid.add(candidate)
                return candidate


# --------------------------------------------------------------------------
# Substitution
# --------------------------------------------------------------------------

def substitute(t: Term, x: Name, v: Term) -> Term:
    """t with v for the lambda-variable x, a free name or a dangling index.

    An index x is that of a binder being removed, so the dangling
    indices above it drop by one.  v is a term of t's context: under a
    binder of t its dangling indices grow, so nothing is captured.
    """
    if not isinstance(v, Term):
        raise TypeError(f"not a term: {v!r}")
    return _substituted(t, x, v, 0, 0)


def _substituted(t: Term, x: Name, v: Term, lam: int, mu: int) -> Term:
    """substitute's walk over t, below lam lambda- and mu mu-binders of
    the term substituted into."""
    kind = type(t)
    if kind is Var:
        y = t.name
        if type(y) is int and type(x) is int:
            if y > x + lam:
                return Var(y - 1)
            if y < x + lam:
                return t
        elif y != x:
            return t
        return _shifted(v, lam, mu, 0, 0) if lam or mu else v
    if kind is App:
        f = _substituted(t.fun, x, v, lam, mu)
        e = t.arg
        ke = type(e)
        if ke is Case:
            u1 = _substituted(e.left, x, v, lam + 1, mu)
            u2 = _substituted(e.right, x, v, lam + 1, mu)
            if u1 is not e.left or u2 is not e.right:
                e = Case(e.left_var, u1, e.right_var, u2, e.ann)
        elif ke is not Proj1 and ke is not Proj2:
            e = _substituted(e, x, v, lam, mu)
        return t if f is t.fun and e is t.arg else App(f, e)
    if kind is Abs:
        b = _substituted(t.body, x, v, lam + 1, mu)
        return t if b is t.body else Abs(t.var, t.ann, b)
    if kind is Mu:
        b = _substituted(t.body, x, v, lam, mu + 1)
        return t if b is t.body else Mu(t.var, t.ann, b)
    if kind is Named:
        b = _substituted(t.body, x, v, lam, mu)
        return t if b is t.body else Named(t.name, b)
    if kind is Pair:
        f = _substituted(t.fst, x, v, lam, mu)
        s = _substituted(t.snd, x, v, lam, mu)
        return t if f is t.fst and s is t.snd else Pair(f, s)
    if kind is Inj1 or kind is Inj2:
        b = _substituted(t.body, x, v, lam, mu)
        return t if b is t.body else kind(b, t.ann)
    raise TypeError(f"not a term: {t!r}")


def mu_substitute(t: Term, a: Name, e: ETerm) -> Term:
    """Structural substitution t[a := e], for a a free name or a
    dangling index.

    Replaces, inductively, each subterm (a v) by (a (v e)); the
    replacement also applies inside the v of a replaced occurrence.
    e is an E-term of t's context.
    """
    if not isinstance(e, ETerm):
        raise TypeError(f"not a term: {e!r}")
    return _mu_substituted(t, a, e, 0, 0)


def _mu_substituted(t: Term, a: Name, w: ETerm, lam: int, mu: int) -> Term:
    """mu_substitute's walk over t, below lam lambda- and mu mu-binders
    of the term substituted into, with w the E-term appended."""
    kind = type(t)
    if kind is Var:
        return t
    if kind is App:
        f = _mu_substituted(t.fun, a, w, lam, mu)
        e = t.arg
        ke = type(e)
        if ke is Case:
            u1 = _mu_substituted(e.left, a, w, lam + 1, mu)
            u2 = _mu_substituted(e.right, a, w, lam + 1, mu)
            if u1 is not e.left or u2 is not e.right:
                e = Case(e.left_var, u1, e.right_var, u2, e.ann)
        elif ke is not Proj1 and ke is not Proj2:
            e = _mu_substituted(e, a, w, lam, mu)
        return t if f is t.fun and e is t.arg else App(f, e)
    if kind is Abs:
        b = _mu_substituted(t.body, a, w, lam + 1, mu)
        return t if b is t.body else Abs(t.var, t.ann, b)
    if kind is Mu:
        b = _mu_substituted(t.body, a, w, lam, mu + 1)
        return t if b is t.body else Mu(t.var, t.ann, b)
    if kind is Named:
        n = t.name
        b = _mu_substituted(t.body, a, w, lam, mu)
        if n == (a + mu if type(a) is int else a):  # never equal across types
            return Named(n, App(b, shift(w, lam, mu)))
        return t if b is t.body else Named(n, b)
    if kind is Pair:
        f = _mu_substituted(t.fst, a, w, lam, mu)
        s = _mu_substituted(t.snd, a, w, lam, mu)
        return t if f is t.fst and s is t.snd else Pair(f, s)
    if kind is Inj1 or kind is Inj2:
        b = _mu_substituted(t.body, a, w, lam, mu)
        return t if b is t.body else kind(b, t.ann)
    raise TypeError(f"not a term: {t!r}")
