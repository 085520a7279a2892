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

Every node class is a ``node``: a frozen, slotted dataclass whose
``__init__`` fills the slots through their descriptors.  Terms, E-terms
and formulas have one more slot, ``_key``, left unset until
``syntax.alpha_key`` reads the node: a string that two nodes share
exactly when they are ``==``.
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


def is_neg(a: Formula) -> bool:
    return isinstance(a, Arrow) and a.right == BOT


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
    copied."""
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


def dangling(t: Term) -> tuple[int, int]:
    """How many lambda- and how many mu-binders above t its dangling
    indices reach."""
    reach = [0, 0]
    _reach(t, 0, 0, reach)
    return reach[0], reach[1]


def _reach(t: Term, lam: int, mu: int, reach: list[int]) -> None:
    """Raise reach to the lambda- and mu-binders above t that the indices
    of t reach, t lying under lam lambda- and mu mu-binders; one call
    per branch, a loop down each node's last child."""
    while True:
        kind = type(t)
        if kind is Var:
            x = t.name
            if type(x) is int and x - lam >= reach[0]:
                reach[0] = x + 1 - lam
            return
        if kind is App:
            _reach(t.fun, lam, mu, reach)
            e = t.arg
            ke = type(e)
            if ke is Case:
                _reach(e.left, lam + 1, mu, reach)
                t, lam = e.right, lam + 1
            elif ke is Proj1 or ke is Proj2:
                return
            else:
                t = e
        elif kind is Abs:
            t, lam = t.body, lam + 1
        elif kind is Mu:
            t, mu = t.body, mu + 1
        elif kind is Named:
            a = t.name
            if type(a) is int and a - mu >= reach[1]:
                reach[1] = a + 1 - mu
            t = t.body
        elif kind is Pair:
            _reach(t.fst, lam, mu, reach)
            t = t.snd
        elif kind is Inj1 or kind is Inj2:
            t = t.body
        else:
            raise TypeError(f"not a term: {t!r}")


def rename_binders(t: Term, rename) -> Term:
    """t with each binder named rename(kind, name), in preorder, kind
    being Abs, Mu or Case."""
    return _walk(t, _same_var, _same_named, rename=rename)


def _shifter(dl: int, dm: int):
    """The var and named callbacks of _walk that move t dl lambda- and
    dm mu-binders deeper."""
    def var(v, lam, mu):
        x = v.name
        return Var(x + dl) if dl and type(x) is int and x >= len(lam) else v

    def named(n, body, lam, mu):
        a = n.name
        if dm and type(a) is int and a >= len(mu):
            return Named(a + dm, body)
        return _same_named(n, body, lam, mu)

    return var, named


def shift(e: ETerm, dl: int, dm: int) -> ETerm:
    """e, a term or an E-term, moved under dl more lambda- and dm more
    mu-binders: its dangling indices grow by as much."""
    return _walk_e(e, *_shifter(dl, dm)) if dl or dm else e


# --------------------------------------------------------------------------
# Free variables and name collection
# --------------------------------------------------------------------------

def free_variables(t: Term) -> tuple[frozenset[str], frozenset[str]]:
    """Free lambda-variables and free mu-variables of t, in that order."""
    names: tuple[set[str], set[str]] = (set(), set())

    def var(v, lam, mu):
        if type(v.name) is str:
            names[0].add(v.name)
        return v

    def named(n, body, lam, mu):
        if type(n.name) is str:
            names[1].add(n.name)
        return n

    _walk(t, var, named)
    return frozenset(names[0]), frozenset(names[1])


def is_closed(t: Term) -> bool:
    """No free names and no dangling indices."""
    lam, mu = free_variables(t)
    return not lam and not mu and dangling(t) == (0, 0)


def all_names(t: Term) -> set[str]:
    """Every name in t: its free names and its binders' names (each
    binder's body has a variable leaf)."""
    out: set[str] = set()

    def var(v, lam, mu):
        out.update(lam, mu)
        return v

    _walk(t, var, _same_named)
    return out.union(*free_variables(t))


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
    bound = type(x) is int
    copies: dict[tuple[int, int], Term] = {}

    def var(u, lam, mu):
        y, depth = u.name, len(lam)
        if bound and type(y) is int:
            if y > depth + x:
                return Var(y - 1)
            if y < depth + x:
                return u
        elif y != x:
            return u
        w = copies.get((depth, len(mu)))
        if w is None:
            w = copies[depth, len(mu)] = shift(v, depth, len(mu))
        return w

    return _walk(t, var, _same_named)


def mu_substitute(t: Term, a: Name, es: Iterable[ETerm]) -> Term:
    """Structural substitution t[a := *es], for a a free name or a
    dangling index.

    Replaces, inductively, each subterm (a v) by (a (v es)); the
    replacement also applies inside the v of a replaced occurrence.
    The es are E-terms of t's context, and the empty sequence is the
    identity.
    """
    es = tuple(es)
    if not es:
        return t
    bound = type(a) is int
    copies: dict[tuple[int, int], tuple[ETerm, ...]] = {}

    def named(n, body, lam, mu):
        depth = len(mu)
        if n.name != (a + depth if bound else a):  # never equal across types
            return _same_named(n, body, lam, mu)
        moved = copies.get((len(lam), depth))
        if moved is None:
            moved = copies[len(lam), depth] = \
                tuple(shift(e, len(lam), depth) for e in es)
        return Named(n.name, apply_sequence(body, moved))

    return _walk(t, _same_var, named)
