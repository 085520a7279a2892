"""Annotation erasure, for the tests that need unannotated terms.

The package has no use for it: every term it builds carries its
annotations.  It recurses, so it is for the small terms of the tests.
"""

from lambdamu import (
    Abs, App, Case, Inj1, Inj2, Mu, Named, Pair, Proj1, Proj2, Var,
)


def erase(t):
    """t, a term or an E-term, with every binder annotation dropped;
    idempotent."""
    kind = type(t)
    if kind is Var or kind is Proj1 or kind is Proj2:
        return t
    if kind is Abs:
        return Abs(t.var, None, erase(t.body))
    if kind is App:
        return App(erase(t.fun), erase(t.arg))
    if kind is Pair:
        return Pair(erase(t.fst), erase(t.snd))
    if kind is Inj1:
        return Inj1(erase(t.body), None)
    if kind is Inj2:
        return Inj2(erase(t.body), None)
    if kind is Mu:
        return Mu(t.var, None, erase(t.body))
    if kind is Named:
        return Named(t.name, erase(t.body))
    if kind is Case:
        return Case(t.left_var, erase(t.left), t.right_var, erase(t.right),
                    None)
    raise TypeError(f"not a term: {t!r}")
