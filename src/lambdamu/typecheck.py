"""Typing judgments, the checker for the eleven rules, and derivations.

A judgment has the shape ``gamma |- t : A ; delta`` where gamma binds
lambda-variables and delta binds mu-variables (names).  Like terms,
judgments are locally nameless: gamma and delta are the contexts given
to the checker, the same in every judgment of a derivation, and a
judgment keeps the binders around its term by index, each with its
name hint and formula.  Names are chosen only when a judgment or an
error is printed, in one pass over the binders, outermost first: each
enters gamma or delta under its hint, or, when either context binds
the hint already, under the name ``fresh_name`` gives it beside both
contexts so far, the rule print_term names binders by.  Checking is
syntax-directed: every Abs, Mu, Inj1 and Inj2 node must carry its
annotation (Abs: argument type, Mu: result type, Inj: the other
disjunct).  Case branches need no annotation; the branch binder types
come from the scrutinee's disjunction and the result type comes from
the first branch.

One walk applies the rules, choosing each by the node's type (an
application's by its argument's) rather than by pattern, since it is
the checker's hot path.  ``check`` returns a term's formula and builds
nothing else; ``infer`` returns its derivation tree, and is the only
producer of derivations.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .syntax import print_formula, print_term
from .terms import (
    Abs, App, Arrow, BOT, Case, Conj, Disj, Formula, Inj1, Inj2, Mu,
    Named, Pair, Proj1, Proj2, Term, Var, fresh_name, node, shape,
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
            try:
                parts.append(f"in {print_term(term, *names)}")
            except ValueError:  # an index no given name holds: left out
                pass
        if rule is not None:
            parts.append(f"(rule {rule})")
        if found is not None:
            parts.append(f"found {print_formula(found)}" if expected is None
                         else f"expected {print_formula(expected)}, "
                         f"found {print_formula(found)}")
        super().__init__(": ".join(parts))


class UnboundVariableError(TypeCheckError):
    pass


class MissingAnnotationError(TypeCheckError):
    pass


class Mismatch(TypeCheckError):
    pass


Binder = tuple[bool, str, Formula]  # is_mu, name hint, formula


@node
class Judgment:
    """gamma |- term : formula ; delta, with the binders around term,
    outermost first, that its indices refer to."""

    gamma: tuple[tuple[str, Formula], ...]
    term: Term
    formula: Formula
    delta: tuple[tuple[str, Formula], ...]
    binders: tuple[Binder, ...] = ()

    def named(self):
        """gamma and delta with the binders added under their names, and
        those names (lambda, mu; innermost last)."""
        return _named(self.gamma, self.delta, self.binders)

    def __str__(self):
        gamma, delta, names = self.named()
        g = ", ".join(f"{x}:{print_formula(a)}" for x, a in gamma)
        d = ", ".join(f"{a}:{print_formula(b)}" for a, b in delta)
        return (f"{g} |- {print_term(self.term, *names)} : "
                f"{print_formula(self.formula)} ; {d}")


@node
class Derivation:
    rule: str
    conclusion: Judgment
    premises: tuple["Derivation", ...] = ()


def _named(gamma, delta, binders):
    """The frozen gamma and delta with binders added, outermost first,
    and the binders' names.  Each binder takes fresh_name of its hint
    beside both contexts so far, since no name is a lambda- and a
    mu-variable at once."""
    ctx, names = (dict(gamma), dict(delta)), ([], [])
    for is_mu, x, a in binders:
        x = fresh_name(x, *ctx)
        ctx[is_mu][x] = a
        names[is_mu].append(x)
    return _freeze(ctx[0]), _freeze(ctx[1]), tuple(map(tuple, names))


class _Scope:
    """The contexts given to a walk: gamma and delta, by name, and, under
    infer, frozen as its judgments record them."""

    __slots__ = ("gamma", "delta", "frozen")

    def __init__(self, gamma: Context, delta: Context, frozen=None):
        self.gamma, self.delta, self.frozen = gamma, delta, frozen

    def lookup(self, x, by_index, role: str, t: Term, binders) -> Formula:
        """The formula of a variable of t: a name in the given context, an
        index in by_index, the formulas of its namespace's binders."""
        by_name = self.gamma if role == "variable" else self.delta
        if type(x) is int and 0 <= x < len(by_index):
            return by_index[-1 - x]
        if type(x) is str and x in by_name:
            return by_name[x]
        # a dangling index has no name to print the term with
        raise self.error(binders, UnboundVariableError, f"unbound {role} "
                         f"{x!r}", t if type(x) is str else None)

    def names(self, binders) -> Names:
        """The names of the binders around a subterm."""
        return _named(self.gamma, self.delta, binders)[2]

    def error(self, binders, kind, message: str, t: Optional[Term],
              rule: Optional[str] = None, expected: Optional[Formula] = None,
              found: Optional[Formula] = None) -> TypeCheckError:
        """A kind of TypeCheckError at t, which is printed with the names
        of the binders around it."""
        return kind(message, t, rule, expected, found, self.names(binders))


def _freeze(ctx: Context) -> tuple[tuple[str, Formula], ...]:
    return tuple(sorted(ctx.items()))


def infer(gamma: Context, delta: Context, t: Term) -> Derivation:
    """Infer the unique type of t and return the full derivation tree."""
    out = []
    _infer(_Scope(gamma, delta, frozen=(_freeze(gamma), _freeze(delta))),
           (), (), (), t, out)
    return out[0]


def check(gamma: Context, delta: Context, t: Term,
          a: Optional[Formula] = None) -> Formula:
    """The unique type of t, which must be structurally equal to a when a
    is given; the same walk and errors as infer, with no derivation."""
    found = _infer(_Scope(gamma, delta), (), (), (), t)
    if a is not None and found != a:
        raise Mismatch("type mismatch", term=t, expected=a, found=found)
    return found


def _infer(scope: _Scope, lam, mu, binders: tuple[Binder, ...], t: Term,
           out: Optional[list] = None) -> Formula:
    """The formula of t by the one rule that fits it, under binders, whose
    formulas lam and mu list by namespace, innermost last.  Given a list
    out, also append t's derivation to it, its premises collected
    alike."""
    ps = None if out is None else []
    kind = type(t)
    if kind is App:
        fun, arg = t.fun, t.arg
        ka = type(arg)
        if ka is Case:
            fty = _infer(scope, lam, mu, binders, fun, ps)
            if type(fty) is not Disj:
                raise scope.error(binders, Mismatch, "case scrutinee is not "
                                  "a disjunction", t, "or-e", None, fty)
            a = _infer(scope, lam + (fty.left,), mu,
                       binders + ((False, arg.left_var, fty.left),),
                       arg.left, ps)
            if arg.ann is not None and arg.ann != a:
                raise scope.error(binders, Mismatch, "case annotation "
                                  "disagrees with first branch", t, "or-e",
                                  arg.ann, a)
            found = _infer(scope, lam + (fty.right,), mu,
                           binders + ((False, arg.right_var, fty.right),),
                           arg.right, ps)
            if found != a:
                raise scope.error(binders, Mismatch, "case branches "
                                  "disagree", t, "or-e", a, found)
            rule = "or-e"
        elif ka is Proj1 or ka is Proj2:
            fty = _infer(scope, lam, mu, binders, fun, ps)
            first = ka is Proj1
            rule = "and-e1" if first else "and-e2"
            if type(fty) is not Conj:
                raise scope.error(binders, Mismatch, f"p{1 if first else 2} "
                                  f"needs a conjunction", t, rule, None, fty)
            a = fty.left if first else fty.right
        elif isinstance(arg, Term):
            fty = _infer(scope, lam, mu, binders, fun, ps)
            if type(fty) is not Arrow:
                raise scope.error(binders, Mismatch, "applied term is not a "
                                  "function", t, "arrow-e", None, fty)
            found = _infer(scope, lam, mu, binders, arg, ps)
            if found != fty.left:
                raise scope.error(binders, Mismatch, "argument type "
                                  "mismatch", t, "arrow-e", fty.left, found)
            rule, a = "arrow-e", fty.right
        else:
            raise TypeCheckError(f"not a term: {t!r}")

    elif kind is Var:  # ax, the one rule without premises
        rule, a = "ax", scope.lookup(t.name, lam, "variable", t, binders)

    elif kind is Abs:
        ann = t.ann
        if ann is None:
            raise scope.error(binders, MissingAnnotationError, "lambda "
                              "binder needs a type annotation", t, "arrow-i")
        rule = "arrow-i"
        a = Arrow(ann, _infer(scope, lam + (ann,), mu,
                              binders + ((False, t.var, ann),), t.body, ps))

    elif kind is Mu:
        ann = t.ann
        if ann is None:
            raise scope.error(binders, MissingAnnotationError, "mu binder "
                              "needs a type annotation", t, "abs-e")
        found = _infer(scope, lam, mu + (ann,),
                       binders + ((True, t.var, ann),), t.body, ps)
        if found != BOT:
            raise scope.error(binders, Mismatch, "mu body must prove _|_", t,
                              "abs-e", BOT, found)
        rule, a = "abs-e", ann

    elif kind is Named:
        x = t.name
        target = scope.lookup(x, mu, "name", t, binders)
        found = _infer(scope, lam, mu, binders, t.body, ps)
        if found != target:
            shown = x if type(x) is str else scope.names(binders)[1][-1 - x]
            raise scope.error(binders, Mismatch, f"named term disagrees with "
                              f"{shown!r}", t, "abs-i", target, found)
        rule, a = "abs-i", BOT

    elif kind is Pair:
        rule = "and-i"
        a = Conj(_infer(scope, lam, mu, binders, t.fst, ps),
                 _infer(scope, lam, mu, binders, t.snd, ps))

    elif kind is Inj1 or kind is Inj2:
        ann = t.ann
        first = kind is Inj1
        rule = "or-i1" if first else "or-i2"
        if ann is None:
            raise scope.error(binders, MissingAnnotationError, f"in"
                              f"{1 if first else 2} needs the other "
                              f"disjunct as annotation", t, rule)
        found = _infer(scope, lam, mu, binders, t.body, ps)
        a = Disj(found, ann) if first else Disj(ann, found)

    else:
        raise TypeCheckError(f"not a term: {t!r}")

    if out is not None:
        gamma, delta = scope.frozen
        out.append(Derivation(rule, Judgment(gamma, t, a, delta, binders),
                              tuple(ps)))
    return a


# --------------------------------------------------------------------------
# Derivation validation and export
# --------------------------------------------------------------------------

def validate_derivation(d: Derivation) -> None:
    """Re-check every node locally against its rule schema.

    Independent of the checker: only looks at the recorded judgments.
    Raises a TypeCheckError on the first malformed node.
    """
    j = d.conclusion
    t, a, ps, binders = j.term, j.formula, d.premises, j.binders
    lam = [b[2] for b in binders if not b[0]]  # formulas, innermost last
    mu = [b[2] for b in binders if b[0]]
    _, reach_lam, reach_mu = shape(t)[:3]
    if reach_lam > len(lam) or reach_mu > len(mu):
        # no name to print the judgment with
        raise TypeCheckError(f"invalid {d.rule} node (a negative index, "
                             f"or an index past the names of its judgment)")

    def pj(i):
        return ps[i].conclusion

    def lookup(x, ctx, by_index):
        if type(x) is str:
            return dict(ctx).get(x)
        if x < 0:  # refused before fail, which could not print it
            raise TypeCheckError(f"invalid {d.rule} node (a negative index)")
        return by_index[-1 - x]

    def fail(why):
        raise TypeCheckError(f"invalid {d.rule} node ({why}): {j}")

    # only arrow-i, or-e and abs-e bind: each premise keeps the
    # conclusion's binders, plus the one such a rule adds to it
    inner = [binders] * len(ps)
    match d.rule:
        case "ax":
            if ps or not isinstance(t, Var) or \
                    lookup(t.name, j.gamma, lam) != a:
                fail("axiom shape")
        case "arrow-i":
            if (len(ps) != 1 or not isinstance(t, Abs)
                    or a != Arrow(t.ann, pj(0).formula)
                    or pj(0).term != t.body):
                fail("arrow-i shape")
            inner = [binders + ((False, t.var, t.ann),)]
        case "arrow-e":
            if (len(ps) != 2 or not isinstance(t, App)
                    or pj(0).formula != Arrow(pj(1).formula, a)
                    or pj(0).term != t.fun or pj(1).term != t.arg):
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
            if not (len(ps) == 3 and isinstance(t, App)
                    and isinstance(t.arg, Case)
                    and isinstance(pj(0).formula, Disj)
                    and pj(0).term == t.fun
                    and pj(1).term == t.arg.left
                    and pj(2).term == t.arg.right
                    and pj(1).formula == a and pj(2).formula == a):
                fail("or-e shape")
            disj = pj(0).formula
            inner = [binders, binders + ((False, t.arg.left_var, disj.left),),
                     binders + ((False, t.arg.right_var, disj.right),)]
        case "abs-i":
            if (len(ps) != 1 or not isinstance(t, Named)
                    or a != BOT
                    or pj(0).term != t.body
                    or lookup(t.name, j.delta, mu) != pj(0).formula):
                fail("abs-i shape")
        case "abs-e":
            if (len(ps) != 1 or not isinstance(t, Mu)
                    or a != t.ann
                    or pj(0).formula != BOT
                    or pj(0).term != t.body):
                fail("abs-e shape")
            inner = [binders + ((True, t.var, t.ann),)]
        case _:
            fail("unknown rule")
    if any((p.conclusion.gamma, p.conclusion.delta, p.conclusion.binders)
           != (j.gamma, j.delta, b) for p, b in zip(ps, inner)):
        fail("contexts")

    for p in d.premises:
        validate_derivation(p)


def derivation_to_json(d: Derivation) -> dict:
    """Derivation as a JSON-serializable tree in the concrete syntax."""
    j = d.conclusion
    gamma, delta, names = j.named()
    return {
        "rule": d.rule,
        "judgment": {
            "gamma": {x: print_formula(a) for x, a in gamma},
            "term": print_term(j.term, *names),
            "formula": print_formula(j.formula),
            "delta": {a: print_formula(b) for a, b in delta},
        },
        "premises": [derivation_to_json(p) for p in d.premises],
    }
