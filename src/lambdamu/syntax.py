"""Concrete syntax: a lexer, recursive-descent parser, and printer.

Grammar (ASCII only)::

    term    := var
             | "\\" var [":" formula] "." term
             | "mu" mvar [":" formula] "." term
             | "[" mvar "]" term
             | "<" term "," term ">"
             | "in1" ["{" formula "}"] term
             | "in2" ["{" formula "}"] term
             | "(" term eterm ")"
    eterm   := term | "p1" | "p2" | "[" var "." term "," var "." term "]"
    formula := pvar | "_|_" | formula "->" formula | formula "/\\" formula
             | formula "\\/" formula | "~" formula | "(" formula ")"

Precedence: ``~`` > ``/\\`` > ``\\/`` > ``->``; ``->`` is
right-associative (so are ``/\\`` and ``\\/``).  ``~A`` is sugar for
``A -> _|_``.

Shadowing a bound variable, and using one identifier both as a
lambda-variable and as a mu-variable, are parse errors.  So is nesting
deeper than MAX_NESTING levels: every term node opens a level, as does a
formula and, inside it, every ``~``, bracketed subformula and right
operand of a connective.

The parser gives bound variables their indices and keeps binder names
as hints (see ``terms``); the printer chooses the names again.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Optional

from .terms import (
    Abs, App, Arrow, BOT, Bottom, Case, Conj, Disj, ETerm, Formula, Inj1,
    Inj2, Mu, Named, PROJ1, PROJ2, Pair, PropVar, Proj1, Proj2, Term, Var,
    free_variables, fresh_name, rename_binders, shape,
)

KEYWORDS = {"mu", "in1", "in2", "p1", "p2"}

# Deeper input is refused: at this depth the parser, the checker and the
# printers all stay within Python's default recursion limit of 1000
# frames (they need at most about 610 there).
MAX_NESTING = 200

# infix connectives: precedence and constructor; all right-associative
_INFIX = {"->": (0, Arrow), "\\/": (1, Disj), "/\\": (2, Conj)}
_PREFIX = 3  # ~ binds tighter than every infix connective
_ATOM = {"~", "_|_", "("}  # the marks that start a formula, besides a name

# One token per match, with no group, so that findall returns the
# tokens' text: a punctuation mark, a word, any other character but
# whitespace, or "" at the end of the input.  No alternative matches
# whitespace, so the search skips it.  Punctuation is tried first, so
# "_|_x" is two tokens and "_x" one.  \s and \w accept what
# str.isspace() and str.isalnum() (or "_") accept; a word starts with a
# letter or "_", so tokenize refuses the numeric characters that [^\W\d]
# lets through ("½", "²") at a word's start, as it refuses any other
# character that is no punctuation mark.
_TOKEN = re.compile(r"_\|_|->|/\\|\\/|[\\.:,~<>()\[\]{}]|[^\W\d][\w']*|\S|\Z")

# the tokens that are not names: punctuation, keywords and the end
_RESERVED = frozenset(("_|_", "->", "/\\", "\\/", "\\", ".", ":", ",", "~",
                       "<", ">", "(", ")", "[", "]", "{", "}", "",
                       *KEYWORDS))


class ParseError(Exception):
    """Malformed input, with character position and what was expected."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


def tokenize(text: str) -> list[str]:
    """The tokens of text, then "" for its end.  A token outside
    _RESERVED is a name, which starts with a letter or "_"; the first
    that does not is refused, at the position found by scanning text
    again, as positions are found only for errors."""
    toks = _TOKEN.findall(text)
    bad = [tok for tok in set(toks).difference(_RESERVED)
           if not (tok[0].isalpha() or tok[0] == "_")]
    if bad:
        i = min(map(toks.index, bad))
        raise ParseError(f"unexpected character {toks[i][0]!r}",
                         _position(text, i))
    return toks


def _position(text: str, i: int) -> int:
    """The character position of text's i-th token, counted from 0."""
    return next(islice(_TOKEN.finditer(text), i, None)).start()


class _Parser:
    """One parse of a text.  A rule parsing a term or a formula takes
    depth, the number of term and formula levels open with its own."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0  # the next token; it stays on the final ""
        # global role map: identifier -> "lam" | "mu"
        self.roles: dict[str, str] = {}
        # bound identifier -> the number of binders of its namespace
        # outside it; as nothing is shadowed, that is one per name
        self.lam: dict[str, int] = {}
        self.mu: dict[str, int] = {}

    def error(self, message: str, i: int, expected: str | None = None
              ) -> ParseError:
        return ParseError(message, _position(self.text, i), expected)

    def unexpected(self, expected: str) -> ParseError:
        """An error at the next token, which is not what was expected."""
        tok = self.toks[self.i] or "end of input"
        return self.error(f"unexpected {tok!r}", self.i, expected)

    def too_deep(self) -> ParseError:
        return self.error(f"input nested deeper than {MAX_NESTING} levels",
                          self.i)

    # -- token plumbing ---------------------------------------------------

    def expect(self, tok: str) -> None:
        if self.toks[self.i] != tok:
            raise self.unexpected(repr(tok))
        self.i += 1

    def name(self, role: str) -> str:
        """The next token, a name, which keeps its first role."""
        name = self.toks[self.i]
        if name in _RESERVED:
            raise self.unexpected("'ident'")
        if self.roles.setdefault(name, role) != role:
            raise self.error(
                f"{name!r} used both as a lambda-variable and a mu-variable",
                self.i)
        self.i += 1
        return name

    def ident(self, role: str) -> str:
        """A binder's identifier, which nothing around it binds."""
        name = self.toks[self.i]
        if name in self.lam or name in self.mu:
            raise self.error(f"shadowed variable {name!r}", self.i)
        return self.name(role)

    def use(self, role: str):
        """A variable: its index when bound, else its name."""
        name = self.name(role)
        bound = self.lam if role == "lam" else self.mu
        level = bound.get(name)
        return name if level is None else len(bound) - 1 - level

    def bound_term(self, bound: dict[str, int], name: str, depth: int
                   ) -> Term:
        """A term in the scope of a binder of name."""
        bound[name] = len(bound)
        t = self.term(depth)
        del bound[name]
        return t

    def braced(self, depth: int) -> Optional[Formula]:
        """The annotation "{" formula "}", if one follows."""
        if self.toks[self.i] != "{":
            return None
        self.i += 1
        ann = self.formula(depth)
        self.expect("}")
        return ann

    # -- terms ------------------------------------------------------------

    def term(self, depth: int) -> Term:
        if depth > MAX_NESTING:
            raise self.too_deep()
        tok = self.toks[self.i]
        if tok not in _RESERVED:
            return Var(self.use("lam"))
        depth += 1  # that of the children
        if tok == "(":
            self.i += 1
            fun = self.term(depth)
            arg = self.eterm(depth)
            self.expect(")")
            return App(fun, arg)
        if tok == "\\" or tok == "mu":
            self.i += 1
            lam = tok == "\\"
            x = self.ident("lam" if lam else "mu")
            ann = None
            if self.toks[self.i] == ":":
                self.i += 1
                ann = self.formula(depth)
            self.expect(".")
            body = self.bound_term(self.lam if lam else self.mu, x, depth)
            return Abs(x, ann, body) if lam else Mu(x, ann, body)
        if tok == "[":
            self.i += 1
            a = self.use("mu")
            self.expect("]")
            return Named(a, self.term(depth))
        if tok == "<":
            self.i += 1
            fst = self.term(depth)
            self.expect(",")
            snd = self.term(depth)
            self.expect(">")
            return Pair(fst, snd)
        if tok == "in1" or tok == "in2":
            self.i += 1
            ann = self.braced(depth)
            body = self.term(depth)
            return Inj1(body, ann) if tok == "in1" else Inj2(body, ann)
        raise self.unexpected("a term")

    def eterm(self, depth: int) -> ETerm:
        """An E-term, which opens no level of its own: its terms and its
        annotation are at depth."""
        toks, i = self.toks, self.i
        tok = toks[i]
        if tok == "p1" or tok == "p2":
            self.i += 1
            return PROJ1 if tok == "p1" else PROJ2
        # "[" starts a case bracket iff the identifier is followed by "."
        if tok == "[" and toks[i + 1] not in _RESERVED and toks[i + 2] == ".":
            self.i += 1
            x1 = self.ident("lam")
            self.expect(".")
            u1 = self.bound_term(self.lam, x1, depth)
            self.expect(",")
            x2 = self.ident("lam")
            self.expect(".")
            u2 = self.bound_term(self.lam, x2, depth)
            self.expect("]")
            return Case(x1, u1, x2, u2, self.braced(depth))
        return self.term(depth)

    # -- formulas (precedence climbing) ------------------------------------

    def formula(self, depth: int, level: int = 0) -> Formula:
        """A formula whose infix connectives bind at least as tightly as
        level; the right operand of a connective is parsed at its own
        level, which makes every connective right-associative."""
        if depth > MAX_NESTING:
            raise self.too_deep()
        toks = self.toks
        tok = toks[self.i]
        if tok in _RESERVED and tok not in _ATOM:
            raise self.unexpected("a formula")
        self.i += 1
        if tok not in _RESERVED:
            left = PropVar(tok)
        elif tok == "~":
            left = Arrow(self.formula(depth + 1, _PREFIX), BOT)
        elif tok == "_|_":
            left = BOT
        else:
            left = self.formula(depth + 1)
            self.expect(")")
        while True:
            infix = _INFIX.get(toks[self.i])
            if infix is None or infix[0] < level:
                return left
            self.i += 1
            left = infix[1](left, self.formula(depth + 1, infix[0]))


def _parse(text: str, rule):
    """rule run on a parser of text at depth 1; it must consume the text
    entirely."""
    p = _Parser(text)
    out = rule(p, 1)
    if p.toks[p.i]:
        raise p.error(f"trailing input {p.toks[p.i]!r}", p.i)
    return out


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term)


def parse_formula(text: str) -> Formula:
    return _parse(text, _Parser.formula)


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

# precedence levels for formula printing
_ARROW, _DISJ, _CONJ, _NEG = 0, 1, 2, 3


def print_formula(a: Formula) -> str:
    return _pf(a, _ARROW)


def _pf(a: Formula, level: int) -> str:
    kind = type(a)
    if kind is PropVar:
        return a.name
    if kind is Bottom:
        return "_|_"
    if kind is Arrow:
        if type(a.right) is Bottom:
            return f"~{_pf(a.left, _NEG)}"
        s = f"{_pf(a.left, _DISJ)} -> {_pf(a.right, _ARROW)}"
        return f"({s})" if level > _ARROW else s
    if kind is Disj:
        s = f"{_pf(a.left, _CONJ)} \\/ {_pf(a.right, _DISJ)}"
        return f"({s})" if level > _DISJ else s
    if kind is Conj:
        s = f"{_pf(a.left, _NEG)} /\\ {_pf(a.right, _CONJ)}"
        return f"({s})" if level > _CONJ else s
    raise TypeError(f"not a formula: {a!r}")


def print_term(t: Term, lam_names: tuple[str, ...] = (),
               mu_names: tuple[str, ...] = ()) -> str:
    """Print t in the concrete grammar; re-parses to an equal term,
    except that the parser refuses a term nested too deeply once its
    annotations count (MAX_NESTING levels, formulas included) and a name
    free both as a lambda- and as a mu-variable.

    A binder is printed with its name hint, unless that name is bound
    around it or would capture a free variable below it; then with the
    hint's stem and the first number that is neither.  lam_names and
    mu_names name the binders that t's dangling indices refer to,
    innermost last; a ValueError says how many names are missing.
    """
    return _Printer(False, lam_names, mu_names).text(t)


def canonical_form(t: Term) -> str:
    """t printed with its binders named x0, x1, ... (lambda) and a0, a1,
    ... (mu) in preorder, skipping every name free in t: one string per
    alpha-equivalence class.  A case bracket's first binder is named
    before its first branch, its second binder after that branch."""
    return _Printer(True, (), ()).text(t)


def canonical_hints(t: Term) -> Term:
    """t with the names canonical_form gives its binders as their hints,
    so that print_term prints it as canonical_form does."""
    printer = _Printer(True, (), ())
    printer.taken = set().union(*free_variables(t))
    return rename_binders(t, lambda kind, hint: printer.name(
        hint, "a" if kind is Mu else "x"))


def alpha_key(t) -> str:
    """A string equal for two terms exactly when they are ``==``, that
    is alpha-equal: one per alpha-equivalence class, for keying and
    hashing only; canonical_form prints a term.  Likewise for two
    E-terms and for two formulas.

    Built from the children's keys, in prefix order with one tag per
    node: binder hints are left out, indices and free names written as
    they are.  A node keeps its key in its ``_key`` slot from the first
    read on, so a reduct pays only for the nodes it does not share.
    """
    key = getattr(t, "_key", None)  # cheaper than catching an unset slot
    if key is not None:
        return key
    kind = type(t)
    if kind is App:
        key = f"@{alpha_key(t.fun)}{alpha_key(t.arg)}"
    elif kind is Var:
        key = _ref(t.name)
    elif kind is Abs or kind is Mu:
        key = f"{'L' if kind is Abs else 'M'}{_ann(t.ann)}{alpha_key(t.body)}"
    elif kind is Named:
        key = f"N{_ref(t.name)}{alpha_key(t.body)}"
    elif kind is Pair:
        key = f"<{alpha_key(t.fst)}{alpha_key(t.snd)}"
    elif kind is Inj1 or kind is Inj2:
        key = f"{'I' if kind is Inj1 else 'J'}{_ann(t.ann)}{alpha_key(t.body)}"
    elif kind is Case:
        key = f"C{alpha_key(t.left)}{alpha_key(t.right)}{_ann(t.ann)}"
    elif kind is Proj1 or kind is Proj2:
        key = "F" if kind is Proj1 else "S"
    elif kind is PropVar:
        key = f"{len(t.name)}:{t.name}"
    elif kind is Bottom:
        key = "B"
    elif kind is Arrow or kind is Conj or kind is Disj:
        key = f"{_CONNECTIVE[kind]}{alpha_key(t.left)}{alpha_key(t.right)}"
    else:
        raise TypeError(f"not a term: {t!r}")
    object.__setattr__(t, "_key", key)
    return key


def splice_key(t: Term, position: tuple[int, ...], new: Term) -> str:
    """alpha_key of t with its subterm at position replaced by new, read
    off the keys of t and new without building that term.

    A position is a path of child indices, as reduction numbers them.
    Keys are locally nameless, so a subterm's key does not depend on
    where it sits: the new key is t's with the old subterm's slice
    replaced by new's key.  The slice starts after the tags and the
    left siblings' keys along position.
    """
    key, start = alpha_key(t), 0
    for i in position:
        kind = type(t)
        if kind is App:
            start += 1
            if i:
                start += len(alpha_key(t.fun))
                t = t.arg
                if type(t) is Case:
                    start += 1
                    if i == 2:
                        start += len(alpha_key(t.left))
                        t = t.right
                    else:
                        t = t.left
            else:
                t = t.fun
        elif kind is Pair:
            start += 1
            if i:
                start += len(alpha_key(t.fst))
                t = t.snd
            else:
                t = t.fst
        elif kind is Named:
            start += 1 + len(_ref(t.name))
            t = t.body
        else:  # Abs, Mu, Inj1, Inj2: a tag, an annotation, the body
            start += 1 + len(_ann(t.ann))
            t = t.body
    return f"{key[:start]}{alpha_key(new)}{key[start + len(alpha_key(t)):]}"


# A key reads back one way only, since each kind of node starts with a
# tag no other kind in its place starts with: a term is a variable's
# reference or starts with one of "@LMN<IJ"; an E-term is a term or
# starts with one of "FSC"; an annotation is "-" or a formula, which
# starts with a digit (its name's length) or one of "B>&|".  A
# reference is one character from U+0080 for a small index, else "#" or
# "$" and a number, so keys stay one byte a character.
_CONNECTIVE = {Arrow: ">", Conj: "&", Disj: "|"}
_SMALL_INDEX = [chr(0x80 + i) for i in range(0x80)]


def _ref(x) -> str:
    """The key of a variable's reference: its index or its free name."""
    if type(x) is int:
        return _SMALL_INDEX[x] if 0 <= x < 0x80 else f"#{x};"
    return f"${len(x)}:{x}"


def _ann(a: Optional[Formula]) -> str:
    return "-" if a is None else alpha_key(a)


class _Printer:
    """One printing of a term, with the names of the binders around the
    current node, innermost last, and the free names met so far.  It
    allocates little, since a front end may print every term it reads."""

    __slots__ = ("canonical", "lam", "mu", "taken", "free", "x", "a",
                 "clash")

    def __init__(self, canonical: bool, lam_names, mu_names):
        self.canonical = canonical
        self.lam, self.mu = list(lam_names), list(mu_names)
        self.taken = ()     # names no binder may take
        self.free = None    # the free names met, once there is one
        self.x = self.a = 0  # canonical names issued
        self.clash = False  # a free name met a binder name that hides it

    def text(self, t: Term) -> str:
        """t printed; again, with binders avoiding every free name of t,
        if a free name clashed with a binder name on the first try (in
        canonical mode, with any name the scheme issued)."""
        try:
            text = self.term(t)
        except IndexError:  # a dangling index beyond the names given
            _, lam, mu = shape(t)[:3]
            raise ValueError(
                f"the term's dangling indices reach {lam} lambda- and {mu} "
                f"mu-binders: pass all their names as lam_names and "
                f"mu_names, innermost last") from None
        if self.canonical and self.free:
            self.clash = any(f"{stem}{i}" in self.free
                             for stem, n in (("x", self.x), ("a", self.a))
                             for i in range(n))
        if self.clash:
            self.taken, self.x, self.a = frozenset(self.free), 0, 0
            text = self.term(t)
        return text

    def name(self, hint: str, stem: str) -> str:
        """The name of a binder: its hint if that is free to use."""
        taken = self.taken
        if self.canonical:
            while True:
                if stem == "x":
                    chosen, self.x = f"x{self.x}", self.x + 1
                else:
                    chosen, self.a = f"a{self.a}", self.a + 1
                if chosen not in taken:
                    return chosen
        lam, mu = self.lam, self.mu
        if hint not in lam and hint not in mu and hint not in taken:
            return hint
        return fresh_name(hint, lam, mu, taken)

    def use(self, x: str) -> str:
        """A free name."""
        if self.free is None:
            self.free = set()
        self.free.add(x)
        if x in self.lam or x in self.mu:
            self.clash = True
        return x

    def term(self, t: Term) -> str:
        kind = type(t)
        if kind is Var:
            x = t.name
            return self.lam[-1 - x] if type(x) is int else self.use(x)
        if kind is App:
            return f"({self.term(t.fun)} {self.eterm(t.arg)})"
        if kind is Abs or kind is Mu:
            names = self.lam if kind is Abs else self.mu
            x = self.name(t.var, "x" if kind is Abs else "a")
            a = f":{print_formula(t.ann)}" if t.ann is not None else ""
            names.append(x)
            body = self.term(t.body)
            names.pop()
            return f"\\{x}{a}. {body}" if kind is Abs else f"mu {x}{a}. {body}"
        if kind is Named:
            a = t.name
            a = self.mu[-1 - a] if type(a) is int else self.use(a)
            return f"[{a}] {self.term(t.body)}"
        if kind is Pair:
            return f"<{self.term(t.fst)}, {self.term(t.snd)}>"
        if kind is Inj1 or kind is Inj2:
            a = f"{{{print_formula(t.ann)}}}" if t.ann is not None else ""
            return f"in{1 if kind is Inj1 else 2}{a} {self.term(t.body)}"
        raise TypeError(f"not a term: {t!r}")

    def eterm(self, e: ETerm) -> str:
        kind = type(e)
        if kind is Proj1 or kind is Proj2:
            return "p1" if kind is Proj1 else "p2"
        if kind is not Case:
            return self.term(e)
        lam = self.lam
        lam.append(self.name(e.left_var, "x"))
        u1 = self.term(e.left)
        x1 = lam.pop()
        lam.append(self.name(e.right_var, "x"))
        u2 = self.term(e.right)
        x2 = lam.pop()
        a = f"{{{print_formula(e.ann)}}}" if e.ann is not None else ""
        return f"[{x1}.{u1}, {x2}.{u2}]{a}"
