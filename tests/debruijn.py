"""Textbook de Bruijn shifting and substitution, for the tests that check
the package's own.

Each operation is written from its definition, one equation per
constructor, in the style of Pierce, *Types and Programming Languages*
(2002), chapter 6, widened to two namespaces: Abs and each case branch
bind a lambda-index, Mu binds a mu-index.  Substitution for an index
shifts the replacement up under every binder it crosses and then lowers
the indices past the removed binder, as the textbook does; structural
substitution is Parigot's, "lambda-mu-calculus: an algorithmic
interpretation of classical natural deduction" (LPAR 1992).  Nothing
here calls the package's walks; it reads only the node classes.  It
recurses and copies every node, so it is for the small terms of the
tests.
"""

from lambdamu import (
    Abs, App, Case, Inj1, Inj2, Mu, Named, Pair, Proj1, Proj2, Var,
)


def shift(e, dl, dm, lam=0, mu=0):
    """e, a term or an E-term, with each lambda-index of at least lam
    grown by dl and each mu-index of at least mu by dm; dl and dm may be
    negative."""
    match e:
        case Var(int(x)) if x >= lam:
            return Var(x + dl)
        case Var() | Proj1() | Proj2():
            return e
        case Abs(x, ann, body):
            return Abs(x, ann, shift(body, dl, dm, lam + 1, mu))
        case Mu(a, ann, body):
            return Mu(a, ann, shift(body, dl, dm, lam, mu + 1))
        case Named(int(a), body) if a >= mu:
            return Named(a + dm, shift(body, dl, dm, lam, mu))
        case Named(a, body):
            return Named(a, shift(body, dl, dm, lam, mu))
        case App(f, arg):
            return App(shift(f, dl, dm, lam, mu), shift(arg, dl, dm, lam, mu))
        case Pair(f, s):
            return Pair(shift(f, dl, dm, lam, mu), shift(s, dl, dm, lam, mu))
        case Inj1(body, ann):
            return Inj1(shift(body, dl, dm, lam, mu), ann)
        case Inj2(body, ann):
            return Inj2(shift(body, dl, dm, lam, mu), ann)
        case Case(x, u, y, v, ann):
            return Case(x, shift(u, dl, dm, lam + 1, mu),
                        y, shift(v, dl, dm, lam + 1, mu), ann)
    raise TypeError(f"not a term: {e!r}")


def _replace(t, x, s):
    """t with s for each occurrence of the lambda-variable x, a name or
    an index; under a binder x's index grows, and s is shifted past it."""
    match t:
        case Var(y) if type(y) is type(x) and y == x:
            return s
        case Var() | Proj1() | Proj2():
            return t
        case Abs(y, ann, body):
            return Abs(y, ann, _replace(body, _up(x), shift(s, 1, 0)))
        case Mu(a, ann, body):
            return Mu(a, ann, _replace(body, x, shift(s, 0, 1)))
        case Named(a, body):
            return Named(a, _replace(body, x, s))
        case App(f, arg):
            return App(_replace(f, x, s), _replace(arg, x, s))
        case Pair(f, g):
            return Pair(_replace(f, x, s), _replace(g, x, s))
        case Inj1(body, ann):
            return Inj1(_replace(body, x, s), ann)
        case Inj2(body, ann):
            return Inj2(_replace(body, x, s), ann)
        case Case(y, u, z, v, ann):
            under = shift(s, 1, 0)
            return Case(y, _replace(u, _up(x), under),
                        z, _replace(v, _up(x), under), ann)
    raise TypeError(f"not a term: {t!r}")


def _up(x):
    return x + 1 if type(x) is int else x


def substitute(t, x, v):
    """t[x := v], v being a term of the context t has once the binder of
    an index x is removed: for an index, v is shifted up past that
    binder, put in, and every index past it lowered by one."""
    if type(x) is not int:
        return _replace(t, x, v)
    return shift(_replace(t, x, shift(v, 1, 0, x)), -1, 0, x)


def mu_substitute(t, a, es):
    """Structural substitution t[a := *es]: each (a u) becomes
    (a (u[a := *es] es)); under a binder a's index grows and the es are
    shifted past it."""
    match t:
        case Named(b, body) if type(b) is type(a) and b == a:
            out = mu_substitute(body, a, es)
            for e in es:
                out = App(out, e)
            return Named(b, out)
        case Var() | Proj1() | Proj2():
            return t
        case Abs(x, ann, body):
            return Abs(x, ann, mu_substitute(
                body, a, [shift(e, 1, 0) for e in es]))
        case Mu(b, ann, body):
            return Mu(b, ann, mu_substitute(
                body, _up(a), [shift(e, 0, 1) for e in es]))
        case Named(b, body):
            return Named(b, mu_substitute(body, a, es))
        case App(f, arg):
            return App(mu_substitute(f, a, es), mu_substitute(arg, a, es))
        case Pair(f, g):
            return Pair(mu_substitute(f, a, es), mu_substitute(g, a, es))
        case Inj1(body, ann):
            return Inj1(mu_substitute(body, a, es), ann)
        case Inj2(body, ann):
            return Inj2(mu_substitute(body, a, es), ann)
        case Case(x, u, y, v, ann):
            under = [shift(e, 1, 0) for e in es]
            return Case(x, mu_substitute(u, a, under),
                        y, mu_substitute(v, a, under), ann)
    raise TypeError(f"not a term: {t!r}")
