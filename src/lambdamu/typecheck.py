"""Typing judgments, the checker for the eleven rules, and derivations.

A judgment has the shape ``gamma |- t : A ; delta`` where gamma binds
lambda-variables and delta binds mu-variables (names).  The binders
around a subterm enter gamma and delta under their name hints, and a
judgment keeps those names, innermost last, to print its term, whose
bound variables are indices.  Checking is
syntax-directed: every Abs, Mu, Inj1 and Inj2 node must carry its
annotation (Abs: argument type, Mu: result type, Inj: the other
disjunct).  Case branches need no annotation; the branch binder types
come from the scrutinee's disjunction and the result type comes from
the first branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .syntax import print_formula, print_term
from .terms import (
    Abs, App, Arg, Arrow, BOT, Case, Conj, Disj, Formula, Inj1, Inj2, Mu,
    Named, Pair, Proj1, Proj2, Term, Var,
)

Context = Mapping[str, Formula]

Names = tuple[tuple[str, ...], tuple[str, ...]]  # lambda, mu; innermost last


class TypeCheckError(Exception):
    """A term does not check; carries the offending subterm and rule, and
    the names of the binders around the subterm."""

    def __init__(self, message: str, term: Optional[Term] = None,
                 rule: Optional[str] = None,
                 expected: Optional[Formula] = None,
                 found: Optional[Formula] = None,
                 names: Names = ((), ())):
        self.term = term
        self.rule = rule
        self.expected = expected
        self.found = found
        parts = [message]
        if term is not None:
            parts.append(f"in {print_term(term, *names)}")
        if rule is not None:
            parts.append(f"(rule {rule})")
        if expected is not None and found is not None:
            parts.append(f"expected {print_formula(expected)}, "
                         f"found {print_formula(found)}")
        super().__init__(": ".join(parts))


class UnboundVariableError(TypeCheckError):
    pass


class MissingAnnotationError(TypeCheckError):
    pass


class Mismatch(TypeCheckError):
    pass


@dataclass(frozen=True)
class Judgment:
    gamma: tuple[tuple[str, Formula], ...]
    term: Term
    formula: Formula
    delta: tuple[tuple[str, Formula], ...]
    names: Names = ((), ())  # of the binders term's indices refer to

    def printed_term(self) -> str:
        return print_term(self.term, *self.names)

    def __str__(self):
        g = ", ".join(f"{x}:{print_formula(a)}" for x, a in self.gamma)
        d = ", ".join(f"{a}:{print_formula(b)}" for a, b in self.delta)
        return f"{g} |- {self.printed_term()} : {print_formula(self.formula)} ; {d}"


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()


class _Scope:
    """The contexts of a subterm.  gamma and delta are the given ones, by
    name; lam and mu the formulas of the binders around it, by index
    (innermost last).  ``shown`` is what its judgments record: gamma and
    delta with the binders added under their names, sorted, and the
    binders' names."""

    __slots__ = ("gamma", "delta", "lam", "mu", "shown")

    def __init__(self, gamma: Context, delta: Context, lam=(), mu=(),
                 shown=None):
        self.gamma, self.delta, self.lam, self.mu = gamma, delta, lam, mu
        self.shown = shown or (_freeze(gamma), _freeze(delta), ((), ()))

    def bind(self, x: str, a: Formula) -> "_Scope":
        g, d, (lam, mu) = self.shown
        return _Scope(self.gamma, self.delta, self.lam + (a,), self.mu,
                      (_with(g, x, a), d, (lam + (x,), mu)))

    def bind_mu(self, x: str, a: Formula) -> "_Scope":
        g, d, (lam, mu) = self.shown
        return _Scope(self.gamma, self.delta, self.lam, self.mu + (a,),
                      (g, _with(d, x, a), (lam, mu + (x,))))

    def lookup(self, x, role: str, t: Term) -> Formula:
        """The formula of a variable of t: a name in the given context, an
        index in the binders."""
        if role == "variable":
            by_index, by_name = self.lam, self.gamma
        else:
            by_index, by_name = self.mu, self.delta
        if type(x) is int and x < len(by_index):
            return by_index[-1 - x]
        if type(x) is str and x in by_name:
            return by_name[x]
        # a dangling index has no name to print the term with
        raise self.error(UnboundVariableError, f"unbound {role} {x!r}",
                         t if type(x) is str else None)

    def error(self, kind, message: str, t: Optional[Term],
              rule: Optional[str] = None, expected: Optional[Formula] = None,
              found: Optional[Formula] = None) -> TypeCheckError:
        """A kind of TypeCheckError at t, which is printed with the names
        of the binders around it."""
        return kind(message, t, rule, expected, found, self.shown[2])


def _freeze(ctx: Context) -> tuple[tuple[str, Formula], ...]:
    return tuple(sorted(ctx.items()))


def _with(ctx, x: str, a: Formula):
    """The frozen context ctx with x bound to a."""
    if not ctx or ctx[-1][0] < x:  # binders named in order: x0, x1, ...
        return ctx + ((x, a),)
    return _freeze({**dict(ctx), x: a})


def infer(gamma: Context, delta: Context, t: Term) -> Derivation:
    """Infer the unique type of t and return the full derivation tree."""
    return _infer(_Scope(dict(gamma), dict(delta)), t)


def check(gamma: Context, delta: Context, t: Term, a: Formula) -> Derivation:
    """Like infer, but the result must be structurally equal to a."""
    d = infer(gamma, delta, t)
    if d.conclusion.formula != a:
        raise Mismatch("type mismatch", term=t,
                       expected=a, found=d.conclusion.formula)
    return d


def _node(rule, scope, t, a, premises=()):
    gamma, delta, names = scope.shown
    return Derivation(rule, Judgment(gamma, t, a, delta, names),
                      tuple(premises))


def _infer(scope: _Scope, t: Term) -> Derivation:
    match t:
        case Var(x):
            return _node("ax", scope, t, scope.lookup(x, "variable", t))

        case Abs(x, ann, body):
            if ann is None:
                raise scope.error(MissingAnnotationError, "lambda binder "
                                  "needs a type annotation", t, "arrow-i")
            d = _infer(scope.bind(x, ann), body)
            return _node("arrow-i", scope, t,
                         Arrow(ann, d.conclusion.formula), [d])

        case Pair(fst, snd):
            d1 = _infer(scope, fst)
            d2 = _infer(scope, snd)
            return _node("and-i", scope, t,
                         Conj(d1.conclusion.formula, d2.conclusion.formula),
                         [d1, d2])

        case Inj1(body, ann):
            if ann is None:
                raise scope.error(MissingAnnotationError, "in1 needs the "
                                  "other disjunct as annotation", t, "or-i1")
            d = _infer(scope, body)
            return _node("or-i1", scope, t,
                         Disj(d.conclusion.formula, ann), [d])

        case Inj2(body, ann):
            if ann is None:
                raise scope.error(MissingAnnotationError, "in2 needs the "
                                  "other disjunct as annotation", t, "or-i2")
            d = _infer(scope, body)
            return _node("or-i2", scope, t,
                         Disj(ann, d.conclusion.formula), [d])

        case Mu(a, ann, body):
            if ann is None:
                raise scope.error(MissingAnnotationError, "mu binder needs "
                                  "a type annotation", t, "abs-e")
            d = _infer(scope.bind_mu(a, ann), body)
            if d.conclusion.formula != BOT:
                raise scope.error(Mismatch, "mu body must prove _|_", t,
                                  "abs-e", BOT, d.conclusion.formula)
            return _node("abs-e", scope, t, ann, [d])

        case Named(a, body):
            target = scope.lookup(a, "name", t)
            d = _infer(scope, body)
            if d.conclusion.formula != target:
                shown = a if type(a) is str else scope.shown[2][1][-1 - a]
                raise scope.error(Mismatch, f"named term disagrees with "
                                  f"{shown!r}", t, "abs-i", target,
                                  d.conclusion.formula)
            return _node("abs-i", scope, t, BOT, [d])

        case App(fun, Arg(arg)):
            d1 = _infer(scope, fun)
            fty = d1.conclusion.formula
            if not isinstance(fty, Arrow):
                raise scope.error(Mismatch, "applied term is not a function",
                                  t, "arrow-e", Arrow(BOT, BOT), fty)
            d2 = _infer(scope, arg)
            if d2.conclusion.formula != fty.left:
                raise scope.error(Mismatch, "argument type mismatch", t,
                                  "arrow-e", fty.left, d2.conclusion.formula)
            return _node("arrow-e", scope, t, fty.right, [d1, d2])

        case App(fun, Proj1() | Proj2() as proj):
            d1 = _infer(scope, fun)
            fty = d1.conclusion.formula
            first = isinstance(proj, Proj1)
            if not isinstance(fty, Conj):
                raise scope.error(Mismatch, f"p{1 if first else 2} needs a "
                                  f"conjunction", t,
                                  "and-e1" if first else "and-e2",
                                  Conj(BOT, BOT), fty)
            return _node("and-e1" if first else "and-e2", scope, t,
                         fty.left if first else fty.right, [d1])

        case App(fun, Case(x1, u1, x2, u2, ann)):
            d1 = _infer(scope, fun)
            fty = d1.conclusion.formula
            if not isinstance(fty, Disj):
                raise scope.error(Mismatch, "case scrutinee is not a "
                                  "disjunction", t, "or-e", Disj(BOT, BOT),
                                  fty)
            d2 = _infer(scope.bind(x1, fty.left), u1)
            result = d2.conclusion.formula
            if ann is not None and ann != result:
                raise scope.error(Mismatch, "case annotation disagrees with "
                                  "first branch", t, "or-e", ann, result)
            d3 = _infer(scope.bind(x2, fty.right), u2)
            if d3.conclusion.formula != result:
                raise scope.error(Mismatch, "case branches disagree", t,
                                  "or-e", result, d3.conclusion.formula)
            return _node("or-e", scope, t, result, [d1, d2, d3])

    raise TypeCheckError(f"not a term: {t!r}")


def erase(t: Term) -> Term:
    """Strip all binder annotations; idempotent."""
    match t:
        case Var(_):
            return t
        case Abs(x, _, b):
            return Abs(x, None, erase(b))
        case App(f, e):
            return App(erase(f), _erase_e(e))
        case Pair(f, s):
            return Pair(erase(f), erase(s))
        case Inj1(b, _):
            return Inj1(erase(b), None)
        case Inj2(b, _):
            return Inj2(erase(b), None)
        case Mu(a, _, b):
            return Mu(a, None, erase(b))
        case Named(a, b):
            return Named(a, erase(b))
    raise TypeCheckError(f"not a term: {t!r}")


def _erase_e(e):
    match e:
        case Arg(t):
            return Arg(erase(t))
        case Proj1() | Proj2():
            return e
        case Case(x1, u1, x2, u2, _):
            return Case(x1, erase(u1), x2, erase(u2), None)


# --------------------------------------------------------------------------
# Derivation validation and export
# --------------------------------------------------------------------------

def validate_derivation(d: Derivation) -> None:
    """Re-check every node locally against its rule schema.

    Independent of the checker: only looks at the recorded judgments.
    Raises ValueError on the first malformed node.
    """
    g = dict(d.conclusion.gamma)
    dl = dict(d.conclusion.delta)
    t = d.conclusion.term
    a = d.conclusion.formula
    ps = d.premises
    lam_names, mu_names = d.conclusion.names

    def pj(i):
        return ps[i].conclusion

    def name(x, names):
        return x if type(x) is str else names[-1 - x]

    def fail(why):
        raise TypeCheckError(f"invalid {d.rule} node ({why}): {d.conclusion}")

    match d.rule:
        case "ax":
            if ps or not isinstance(t, Var) or \
                    g.get(name(t.name, lam_names)) != a:
                fail("axiom shape")
        case "arrow-i":
            if (len(ps) != 1 or not isinstance(t, Abs)
                    or a != Arrow(t.ann, pj(0).formula)
                    or pj(0).term != t.body
                    or dict(pj(0).gamma) != {**g, t.var: t.ann}
                    or pj(0).names != (lam_names + (t.var,), mu_names)
                    or pj(0).delta != d.conclusion.delta):
                fail("arrow-i shape")
        case "arrow-e":
            if (len(ps) != 2 or not isinstance(t, App)
                    or not isinstance(t.arg, Arg)
                    or pj(0).formula != Arrow(pj(1).formula, a)
                    or pj(0).term != t.fun or pj(1).term != t.arg.term
                    or any(p.gamma != d.conclusion.gamma
                           or p.delta != d.conclusion.delta for p in pj_all(ps))):
                fail("arrow-e shape")
        case "and-i":
            if (len(ps) != 2 or not isinstance(t, Pair)
                    or a != Conj(pj(0).formula, pj(1).formula)
                    or pj(0).term != t.fst or pj(1).term != t.snd
                    or any(p.gamma != d.conclusion.gamma
                           or p.delta != d.conclusion.delta for p in pj_all(ps))):
                fail("and-i shape")
        case "and-e1" | "and-e2":
            ok = (len(ps) == 1 and isinstance(t, App)
                  and isinstance(t.arg, Proj1 if d.rule == "and-e1" else Proj2)
                  and isinstance(pj(0).formula, Conj)
                  and pj(0).term == t.fun
                  and pj(0).gamma == d.conclusion.gamma
                  and pj(0).delta == d.conclusion.delta)
            if ok:
                conj = pj(0).formula
                ok = a == (conj.left if d.rule == "and-e1" else conj.right)
            if not ok:
                fail("projection shape")
        case "or-i1":
            if (len(ps) != 1 or not isinstance(t, Inj1)
                    or a != Disj(pj(0).formula, t.ann)
                    or pj(0).term != t.body
                    or pj(0).gamma != d.conclusion.gamma
                    or pj(0).delta != d.conclusion.delta):
                fail("or-i1 shape")
        case "or-i2":
            if (len(ps) != 1 or not isinstance(t, Inj2)
                    or a != Disj(t.ann, pj(0).formula)
                    or pj(0).term != t.body
                    or pj(0).gamma != d.conclusion.gamma
                    or pj(0).delta != d.conclusion.delta):
                fail("or-i2 shape")
        case "or-e":
            ok = (len(ps) == 3 and isinstance(t, App)
                  and isinstance(t.arg, Case)
                  and isinstance(pj(0).formula, Disj)
                  and pj(0).term == t.fun
                  and pj(1).term == t.arg.left
                  and pj(2).term == t.arg.right
                  and pj(1).formula == a and pj(2).formula == a)
            if ok:
                disj = pj(0).formula
                ok = (dict(pj(1).gamma) == {**g, t.arg.left_var: disj.left}
                      and dict(pj(2).gamma) == {**g, t.arg.right_var: disj.right}
                      and pj(1).names == (lam_names + (t.arg.left_var,), mu_names)
                      and pj(2).names == (lam_names + (t.arg.right_var,), mu_names)
                      and pj(0).names == d.conclusion.names
                      and pj(0).gamma == d.conclusion.gamma
                      and all(p.delta == d.conclusion.delta for p in pj_all(ps)))
            if not ok:
                fail("or-e shape")
        case "abs-i":
            if (len(ps) != 1 or not isinstance(t, Named)
                    or a != BOT
                    or pj(0).term != t.body
                    or dl.get(name(t.name, mu_names)) != pj(0).formula
                    or pj(0).gamma != d.conclusion.gamma
                    or pj(0).delta != d.conclusion.delta):
                fail("abs-i shape")
        case "abs-e":
            if (len(ps) != 1 or not isinstance(t, Mu)
                    or a != t.ann
                    or pj(0).formula != BOT
                    or pj(0).term != t.body
                    or dict(pj(0).delta) != {**dl, t.var: t.ann}
                    or pj(0).names != (lam_names, mu_names + (t.var,))
                    or pj(0).gamma != d.conclusion.gamma):
                fail("abs-e shape")
        case _:
            fail("unknown rule")
    if d.rule not in ("arrow-i", "or-e", "abs-e") and \
            any(p.names != d.conclusion.names for p in pj_all(ps)):
        fail("binder names")

    for p in d.premises:
        validate_derivation(p)


def pj_all(premises):
    return [p.conclusion for p in premises]


def derivation_to_json(d: Derivation) -> dict:
    """Derivation as a JSON-serializable tree in the concrete syntax."""
    j = d.conclusion
    return {
        "rule": d.rule,
        "judgment": {
            "gamma": {x: print_formula(a) for x, a in j.gamma},
            "term": j.printed_term(),
            "formula": print_formula(j.formula),
            "delta": {a: print_formula(b) for a, b in j.delta},
        },
        "premises": [derivation_to_json(p) for p in d.premises],
    }
