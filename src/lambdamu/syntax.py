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
from typing import Optional

from .terms import (
    Abs, App, Arg, Arrow, BOT, Bottom, Case, Conj, Disj, ETerm, Formula, Inj1,
    Inj2, Mu, Named, PROJ1, PROJ2, Pair, PropVar, Proj1, Proj2, Term, Var,
    dangling, free_variables, fresh_name, is_neg, rename_binders,
)

KEYWORDS = {"mu", "in1", "in2", "p1", "p2"}

# Deeper input is refused: at this depth the parser, the checker and the
# printers all stay within Python's default recursion limit of 1000
# frames (they need at most about 610 there).
MAX_NESTING = 200

# infix connectives: precedence and constructor; all right-associative
_INFIX = {"->": (0, Arrow), "\\/": (1, Disj), "/\\": (2, Conj)}
_PREFIX = 3  # ~ binds tighter than every infix connective

# One token per match, after whitespace: a punctuation mark, a word, or
# any other character, which is an error; or the end of the input.
# Punctuation is tried first, so "_|_x" is two tokens and "_x" one.  \s
# and \w accept what str.isspace() and str.isalnum() (or "_") accept; a
# word starts with a letter or "_", so tokenize refuses the numeric
# characters that [^\W\d] lets through ("½", "²") at a word's start.
_TOKEN = re.compile(r"\s*(?:(_\|_|->|/\\|\\/|[\\.:,~<>()\[\]{}])"
                    r"|([^\W\d][\w']*)|(\S)|\Z)")


class ParseError(Exception):
    """Malformed input, with character position and what was expected."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then ("eof", "", len(text)).  The
    kind of a name is "ident"; that of a keyword or a punctuation mark is
    its text."""
    toks = []
    for m in _TOKEN.finditer(text):
        punct, word, other = m.groups()
        if punct is not None:
            toks.append((punct, punct, m.start(1)))
        elif word is not None and (word[0].isalpha() or word[0] == "_"):
            toks.append((word if word in KEYWORDS else "ident", word,
                         m.start(2)))
        elif word is None and other is None:
            break
        else:
            at = m.start(m.lastindex)
            raise ParseError(f"unexpected character {text[at]!r}", at)
    toks.append(("eof", "", len(text)))
    return toks


def _unexpected(tok: tuple[str, str, int], expected: str) -> ParseError:
    return ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2],
                      expected=expected)


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        # global role map: identifier -> "lam" | "mu"
        self.roles: dict[str, str] = {}
        self.depth = 0  # open term and formula levels
        # bound identifier -> the number of binders of its namespace
        # outside it; as nothing is shadowed, that is one per name
        self.lam: dict[str, int] = {}
        self.mu: dict[str, int] = {}

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"input nested deeper than {MAX_NESTING} levels",
                             self.peek()[2])

    # -- token plumbing ---------------------------------------------------

    def peek(self, k: int = 0) -> tuple[str, str, int]:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def kind(self) -> str:
        return self.toks[self.i][0]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise _unexpected(tok, repr(kind))
        return tok

    def claim(self, tok: tuple[str, str, int], role: str) -> str:
        """The name of an identifier token, which keeps its first role."""
        name = tok[1]
        if self.roles.setdefault(name, role) != role:
            raise ParseError(
                f"{name!r} used both as a lambda-variable and a mu-variable",
                tok[2])
        return name

    def ident(self, role: str) -> str:
        """A binder's identifier, which nothing around it binds."""
        tok = self.expect("ident")
        if tok[1] in self.lam or tok[1] in self.mu:
            raise ParseError(f"shadowed variable {tok[1]!r}", tok[2])
        return self.claim(tok, role)

    def use(self, role: str):
        """A variable: its index when bound, else its name."""
        name = self.claim(self.expect("ident"), role)
        bound = self.lam if role == "lam" else self.mu
        level = bound.get(name)
        return name if level is None else len(bound) - 1 - level

    def bound_term(self, bound: dict[str, int], name: str) -> Term:
        """A term in the scope of a binder of name."""
        bound[name] = len(bound)
        t = self.term()
        del bound[name]
        return t

    def braced(self) -> Optional[Formula]:
        """The annotation "{" formula "}", if one follows."""
        if self.kind() != "{":
            return None
        self.next()
        ann = self.formula()
        self.expect("}")
        return ann

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        self.descend()
        t = self._term()
        self.depth -= 1
        return t

    def _term(self) -> Term:
        kind = self.kind()
        if kind == "\\" or kind == "mu":
            self.next()
            lam = kind == "\\"
            x = self.ident("lam" if lam else "mu")
            ann = None
            if self.kind() == ":":
                self.next()
                ann = self.formula()
            self.expect(".")
            body = self.bound_term(self.lam if lam else self.mu, x)
            return Abs(x, ann, body) if lam else Mu(x, ann, body)
        if kind == "[":
            self.next()
            a = self.use("mu")
            self.expect("]")
            return Named(a, self.term())
        if kind == "<":
            self.next()
            fst = self.term()
            self.expect(",")
            snd = self.term()
            self.expect(">")
            return Pair(fst, snd)
        if kind == "in1" or kind == "in2":
            self.next()
            ann = self.braced()
            body = self.term()
            return Inj1(body, ann) if kind == "in1" else Inj2(body, ann)
        if kind == "(":
            self.next()
            fun = self.term()
            arg = self.eterm()
            self.expect(")")
            return App(fun, arg)
        if kind == "ident":
            return Var(self.use("lam"))
        raise _unexpected(self.peek(), "a term")

    def eterm(self) -> ETerm:
        kind = self.kind()
        if kind == "p1" or kind == "p2":
            self.next()
            return PROJ1 if kind == "p1" else PROJ2
        # "[" starts a case bracket iff the identifier is followed by "."
        if kind == "[" and self.peek(1)[0] == "ident" \
                and self.peek(2)[0] == ".":
            self.next()
            x1 = self.ident("lam")
            self.expect(".")
            u1 = self.bound_term(self.lam, x1)
            self.expect(",")
            x2 = self.ident("lam")
            self.expect(".")
            u2 = self.bound_term(self.lam, x2)
            self.expect("]")
            return Case(x1, u1, x2, u2, self.braced())
        return Arg(self.term())

    # -- formulas (precedence climbing) ------------------------------------

    def formula(self, level: int = 0) -> Formula:
        """A formula whose infix connectives bind at least as tightly as
        level; the right operand of a connective is parsed at its own
        level, which makes every connective right-associative."""
        self.descend()
        left = self._atom()
        while True:
            infix = _INFIX.get(self.kind())
            if infix is None or infix[0] < level:
                break
            self.next()
            left = infix[1](left, self.formula(infix[0]))
        self.depth -= 1
        return left

    def _atom(self) -> Formula:
        tok = self.next()
        kind = tok[0]
        if kind == "~":
            return Arrow(self.formula(_PREFIX), BOT)
        if kind == "_|_":
            return BOT
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if kind == "ident":
            return PropVar(tok[1])
        raise _unexpected(tok, "a formula")


def _parse(text: str, rule):
    """rule run on a parser of text, which it must consume entirely."""
    p = _Parser(text)
    out = rule(p)
    kind, rest, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {rest!r}", pos)
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
    match a:
        case PropVar(name):
            return name
        case Bottom():
            return "_|_"
        case Arrow(l, r) if is_neg(a):
            return f"~{_pf(l, _NEG)}"
        case Arrow(l, r):
            s = f"{_pf(l, _DISJ)} -> {_pf(r, _ARROW)}"
            return f"({s})" if level > _ARROW else s
        case Disj(l, r):
            s = f"{_pf(l, _CONJ)} \\/ {_pf(r, _DISJ)}"
            return f"({s})" if level > _DISJ else s
        case Conj(l, r):
            s = f"{_pf(l, _NEG)} /\\ {_pf(r, _CONJ)}"
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
    elif kind is Arg:
        key = alpha_key(t.term)
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
            lam, mu = dangling(t)
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
        if kind is Arg:
            return self.term(e.term)
        if kind is Proj1 or kind is Proj2:
            return "p1" if kind is Proj1 else "p2"
        if kind is Case:
            lam = self.lam
            lam.append(self.name(e.left_var, "x"))
            u1 = self.term(e.left)
            x1 = lam.pop()
            lam.append(self.name(e.right_var, "x"))
            u2 = self.term(e.right)
            x2 = lam.pop()
            a = f"{{{print_formula(e.ann)}}}" if e.ann is not None else ""
            return f"[{x1}.{u1}, {x2}.{u2}]{a}"
        raise TypeError(f"not an E-term: {e!r}")
