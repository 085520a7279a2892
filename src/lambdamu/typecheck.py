"""Typing judgments, the checker for the eleven rules, and derivations.

A judgment has the shape ``gamma |- t : A ; delta`` where gamma binds
lambda-variables and delta binds mu-variables (names).  The binders
around a subterm enter gamma and delta under their name hints, or, when
either context binds a hint already, under the name ``fresh_name`` gives
it beside both contexts, the rule print_term names binders by; a
judgment keeps those names, innermost last, to print its term, whose
bound variables are indices.  Checking is
syntax-directed: every Abs, Mu, Inj1 and Inj2 node must carry its
annotation (Abs: argument type, Mu: result type, Inj: the other
disjunct).  Case branches need no annotation; the branch binder types
come from the scrutinee's disjunction and the result type comes from
the first branch.

One walk applies the rules.  ``check`` returns a term's formula and
builds nothing else; ``infer`` returns its derivation tree, and is the
only producer of derivations.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .syntax import print_formula, print_term
from .terms import (
    Abs, App, Arg, Arrow, BOT, Case, Conj, Disj, Formula, Inj1, Inj2, Mu,
    Named, Pair, Proj1, Proj2, Term, Var, dangling, fresh_name, node,
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


@node
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


@node
class Derivation:
    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()


class _Scope:
    """The contexts of a subterm.  gamma and delta are the given ones, by
    name; lam and mu the formulas of the binders around it, by index
    (innermost last); outer is the scope that the innermost binder, of
    hint name, extends.  ``shown()`` is what its judgments and errors
    record, built on first read from outer's: gamma and delta with the
    binders added under their names, sorted, and the binders' names."""

    __slots__ = ("gamma", "delta", "lam", "mu", "outer", "name", "_shown")

    def __init__(self, gamma: Context, delta: Context, lam=(), mu=(),
                 outer=None, name=None):
        self.gamma, self.delta, self.lam, self.mu = gamma, delta, lam, mu
        self.outer, self.name = outer, name
        self._shown = None

    def bind(self, x: str, a: Formula) -> "_Scope":
        return _Scope(self.gamma, self.delta, self.lam + (a,), self.mu,
                      self, x)

    def bind_mu(self, x: str, a: Formula) -> "_Scope":
        return _Scope(self.gamma, self.delta, self.lam, self.mu + (a,),
                      self, x)

    def shown(self):
        if self._shown is None:
            pending, scope = [], self
            while scope.outer is not None and scope._shown is None:
                pending.append(scope)
                scope = scope.outer
            if scope._shown is None:
                scope._shown = (_freeze(scope.gamma), _freeze(scope.delta),
                                ((), ()))
            for scope in reversed(pending):
                g, d, (lam, mu) = scope.outer._shown
                if len(scope.lam) > len(lam):  # a lambda binder
                    g, x = _with(g, d, scope.name, scope.lam[-1])
                    scope._shown = (g, d, (lam + (x,), mu))
                else:
                    d, x = _with(d, g, scope.name, scope.mu[-1])
                    scope._shown = (g, d, (lam, mu + (x,)))
        return self._shown

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
        return kind(message, t, rule, expected, found, self.shown()[2])


def _freeze(ctx: Context) -> tuple[tuple[str, Formula], ...]:
    return tuple(sorted(ctx.items()))


def _with(ctx, other, x: str, a: Formula):
    """The frozen context ctx with a binder x bound to a, and the name it
    is bound under: fresh_name of x beside the names ctx and the other
    frozen context bind, since no name is a lambda- and a mu-variable at
    once."""
    for y, _ in other:
        if y == x:
            break
    else:
        if not ctx or ctx[-1][0] < x:  # binders named in order: x0, x1, ...
            return ctx + ((x, a),), x
    bound = dict(ctx)
    x = fresh_name(x, bound, dict(other))
    bound[x] = a
    return _freeze(bound), x


def infer(gamma: Context, delta: Context, t: Term) -> Derivation:
    """Infer the unique type of t and return the full derivation tree."""
    out = []
    _infer(_Scope(dict(gamma), dict(delta)), t, out)
    return out[0]


def check(gamma: Context, delta: Context, t: Term,
          a: Optional[Formula] = None) -> Formula:
    """The unique type of t, which must be structurally equal to a when a
    is given; the same walk and errors as infer, with no derivation."""
    found = _infer(_Scope(dict(gamma), dict(delta)), t)
    if a is not None and found != a:
        raise Mismatch("type mismatch", term=t, expected=a, found=found)
    return found


def _infer(scope: _Scope, t: Term, out: Optional[list] = None) -> Formula:
    """The formula of t by the one rule that fits it.  Given a list out,
    also append t's derivation to it, its premises collected alike."""
    if type(t) is Var:  # ax, the one rule without premises
        a = scope.lookup(t.name, "variable", t)
        if out is not None:
            gamma, delta, names = scope.shown()
            out.append(Derivation("ax", Judgment(gamma, t, a, delta, names)))
        return a
    ps = None if out is None else []
    match t:
        case Abs(x, ann, body):
            if ann is None:
                raise scope.error(MissingAnnotationError, "lambda binder "
                                  "needs a type annotation", t, "arrow-i")
            rule, a = "arrow-i", Arrow(ann, _infer(scope.bind(x, ann), body,
                                                   ps))

        case Pair(fst, snd):
            rule = "and-i"
            a = Conj(_infer(scope, fst, ps), _infer(scope, snd, ps))

        case Inj1(body, ann):
            if ann is None:
                raise scope.error(MissingAnnotationError, "in1 needs the "
                                  "other disjunct as annotation", t, "or-i1")
            rule, a = "or-i1", Disj(_infer(scope, body, ps), ann)

        case Inj2(body, ann):
            if ann is None:
                raise scope.error(MissingAnnotationError, "in2 needs the "
                                  "other disjunct as annotation", t, "or-i2")
            rule, a = "or-i2", Disj(ann, _infer(scope, body, ps))

        case Mu(x, ann, body):
            if ann is None:
                raise scope.error(MissingAnnotationError, "mu binder needs "
                                  "a type annotation", t, "abs-e")
            found = _infer(scope.bind_mu(x, ann), body, ps)
            if found != BOT:
                raise scope.error(Mismatch, "mu body must prove _|_", t,
                                  "abs-e", BOT, found)
            rule, a = "abs-e", ann

        case Named(x, body):
            target = scope.lookup(x, "name", t)
            found = _infer(scope, body, ps)
            if found != target:
                shown = x if type(x) is str else scope.shown()[2][1][-1 - x]
                raise scope.error(Mismatch, f"named term disagrees with "
                                  f"{shown!r}", t, "abs-i", target, found)
            rule, a = "abs-i", BOT

        case App(fun, Arg(arg)):
            fty = _infer(scope, fun, ps)
            if not isinstance(fty, Arrow):
                raise scope.error(Mismatch, "applied term is not a function",
                                  t, "arrow-e", Arrow(BOT, BOT), fty)
            found = _infer(scope, arg, ps)
            if found != fty.left:
                raise scope.error(Mismatch, "argument type mismatch", t,
                                  "arrow-e", fty.left, found)
            rule, a = "arrow-e", fty.right

        case App(fun, Proj1() | Proj2() as proj):
            fty = _infer(scope, fun, ps)
            first = isinstance(proj, Proj1)
            rule = "and-e1" if first else "and-e2"
            if not isinstance(fty, Conj):
                raise scope.error(Mismatch, f"p{1 if first else 2} needs a "
                                  f"conjunction", t, rule, Conj(BOT, BOT), fty)
            a = fty.left if first else fty.right

        case App(fun, Case(x1, u1, x2, u2, ann)):
            fty = _infer(scope, fun, ps)
            if not isinstance(fty, Disj):
                raise scope.error(Mismatch, "case scrutinee is not a "
                                  "disjunction", t, "or-e", Disj(BOT, BOT),
                                  fty)
            a = _infer(scope.bind(x1, fty.left), u1, ps)
            if ann is not None and ann != a:
                raise scope.error(Mismatch, "case annotation disagrees with "
                                  "first branch", t, "or-e", ann, a)
            found = _infer(scope.bind(x2, fty.right), u2, ps)
            if found != a:
                raise scope.error(Mismatch, "case branches disagree", t,
                                  "or-e", a, found)
            rule = "or-e"

        case _:
            raise TypeCheckError(f"not a term: {t!r}")

    if out is not None:
        gamma, delta, names = scope.shown()
        out.append(Derivation(rule, Judgment(gamma, t, a, delta, names),
                              tuple(ps)))
    return a


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
    Raises a TypeCheckError on the first malformed node.
    """
    j = d.conclusion
    g, dl = dict(j.gamma), dict(j.delta)
    t, a, ps = j.term, j.formula, d.premises
    lam_names, mu_names = j.names
    lam, mu = dangling(t)
    if lam > len(lam_names) or mu > len(mu_names):
        # no name to print the judgment with
        raise TypeCheckError(f"invalid {d.rule} node (an index past the "
                             f"names of its judgment)")

    def pj(i):
        return ps[i].conclusion

    def name(x, names):
        return x if type(x) is str else names[-1 - x]

    def fail(why):
        raise TypeCheckError(f"invalid {d.rule} node ({why}): {j}")

    match d.rule:
        case "ax":
            if ps or not isinstance(t, Var) or \
                    g.get(name(t.name, lam_names)) != a:
                fail("axiom shape")
        case "arrow-i":
            if (len(ps) != 1 or not isinstance(t, Abs)
                    or a != Arrow(t.ann, pj(0).formula)
                    or pj(0).term != t.body
                    or not _extends(g, dl, lam_names, pj(0).gamma,
                                    pj(0).names[0], t.var, t.ann)
                    or pj(0).names[1] != mu_names
                    or pj(0).delta != j.delta):
                fail("arrow-i shape")
        case "arrow-e":
            if (len(ps) != 2 or not isinstance(t, App)
                    or not isinstance(t.arg, Arg)
                    or pj(0).formula != Arrow(pj(1).formula, a)
                    or pj(0).term != t.fun or pj(1).term != t.arg.term):
                fail("arrow-e shape")
        case "and-i":
            if (len(ps) != 2 or not isinstance(t, Pair)
                    or a != Conj(pj(0).formula, pj(1).formula)
                    or pj(0).term != t.fst or pj(1).term != t.snd):
                fail("and-i shape")
        case "and-e1" | "and-e2":
            ok = (len(ps) == 1 and isinstance(t, App)
                  and isinstance(t.arg, Proj1 if d.rule == "and-e1" else Proj2)
                  and isinstance(pj(0).formula, Conj)
                  and pj(0).term == t.fun)
            if ok:
                conj = pj(0).formula
                ok = a == (conj.left if d.rule == "and-e1" else conj.right)
            if not ok:
                fail("projection shape")
        case "or-i1":
            if (len(ps) != 1 or not isinstance(t, Inj1)
                    or a != Disj(pj(0).formula, t.ann)
                    or pj(0).term != t.body):
                fail("or-i1 shape")
        case "or-i2":
            if (len(ps) != 1 or not isinstance(t, Inj2)
                    or a != Disj(t.ann, pj(0).formula)
                    or pj(0).term != t.body):
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
                ok = (_extends(g, dl, lam_names, pj(1).gamma,
                               pj(1).names[0], t.arg.left_var, disj.left)
                      and _extends(g, dl, lam_names, pj(2).gamma,
                                   pj(2).names[0], t.arg.right_var,
                                   disj.right)
                      and pj(1).names[1] == pj(2).names[1] == mu_names
                      and pj(0).names == j.names and pj(0).gamma == j.gamma
                      and all(p.delta == j.delta for p in pj_all(ps)))
            if not ok:
                fail("or-e shape")
        case "abs-i":
            if (len(ps) != 1 or not isinstance(t, Named)
                    or a != BOT
                    or pj(0).term != t.body
                    or dl.get(name(t.name, mu_names)) != pj(0).formula):
                fail("abs-i shape")
        case "abs-e":
            if (len(ps) != 1 or not isinstance(t, Mu)
                    or a != t.ann
                    or pj(0).formula != BOT
                    or pj(0).term != t.body
                    or not _extends(dl, g, mu_names, pj(0).delta,
                                    pj(0).names[1], t.var, t.ann)
                    or pj(0).names[0] != lam_names
                    or pj(0).gamma != j.gamma):
                fail("abs-e shape")
        case _:
            fail("unknown rule")
    # a rule that binds nothing keeps its conclusion's contexts and names
    if d.rule not in ("arrow-i", "or-e", "abs-e") and any(
            (p.gamma, p.delta, p.names) != (j.gamma, j.delta, j.names)
            for p in pj_all(ps)):
        fail("contexts")

    for p in d.premises:
        validate_derivation(p)


def _extends(ctx, other, names, inner_ctx, inner_names, x, a) -> bool:
    """Whether the frozen inner_ctx and inner_names add to ctx and names
    one binder x of formula a: under the name x, or under a name that
    neither ctx nor the other context binds when one of them binds x."""
    if not inner_names or inner_names[:-1] != names:
        return False
    y = inner_names[-1]
    return (y not in ctx and y not in other
            and (y == x or x in ctx or x in other)
            and dict(inner_ctx) == {**ctx, y: a})


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
