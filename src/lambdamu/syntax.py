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
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Abs, App, Arg, Arrow, BOT, Bottom, Case, Conj, Disj, ETerm, Formula, Inj1,
    Inj2, Mu, Named, PROJ1, PROJ2, Pair, PropVar, Proj1, Proj2, Term, Var,
    canonicalize, is_neg,
)

KEYWORDS = {"mu", "in1", "in2", "p1", "p2"}

# Deeper input is refused: at this depth the parser, the checker, the
# printers and canonicalize all stay within Python's default recursion
# limit of 1000 frames (they need at most about 610 there).
MAX_NESTING = 200

# infix connectives: precedence and constructor; all right-associative
_INFIX = {"->": (0, Arrow), "\\/": (1, Disj), "/\\": (2, Conj)}
_PREFIX = 3  # ~ binds tighter than every infix connective

_PUNCT = ["_|_", "->", "/\\", "\\/", "\\", ".", ":", ",", "~",
          "<", ">", "(", ")", "[", "]", "{", "}"]


class ParseError(Exception):
    """Malformed input, with character position and what was expected."""

    def __init__(self, message: str, position: int, expected: str | None = None):
        self.position = position
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at position {position}{suffix}")


@dataclass(frozen=True)
class Token:
    kind: str   # "ident", "keyword", or the punctuation itself
    text: str
    pos: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                # "_|_" wins over identifier lexing; "_x" stays an identifier
                toks.append(Token(p, p, i))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_char(text[j]):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            toks.append(Token(kind, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(Token("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0
        # global role map: identifier -> "lam" | "mu"
        self.roles: dict[str, str] = {}
        self.depth = 0  # open term and formula levels

    def descend(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"input nested deeper than {MAX_NESTING} levels",
                             self.peek().pos)

    # -- token plumbing ---------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.pos, expected=repr(kind))
        return self.next()

    def ident(self, role: str, bound: frozenset[str]) -> str:
        tok = self.expect("ident")
        name = tok.text
        if name in bound:
            raise ParseError(f"shadowed variable {name!r}", tok.pos)
        prior = self.roles.get(name)
        if prior is not None and prior != role:
            raise ParseError(
                f"{name!r} used both as a lambda-variable and a mu-variable",
                tok.pos)
        self.roles[name] = role
        return name

    def use(self, role: str) -> str:
        tok = self.expect("ident")
        name = tok.text
        prior = self.roles.get(name)
        if prior is not None and prior != role:
            raise ParseError(
                f"{name!r} used both as a lambda-variable and a mu-variable",
                tok.pos)
        self.roles[name] = role
        return name

    # -- terms ------------------------------------------------------------

    def term(self, lbound: frozenset[str], mbound: frozenset[str]) -> Term:
        self.descend()
        t = self._term(lbound, mbound)
        self.depth -= 1
        return t

    def _term(self, lbound: frozenset[str], mbound: frozenset[str]) -> Term:
        tok = self.peek()
        if tok.kind == "\\":
            self.next()
            x = self.ident("lam", lbound | mbound)
            ann = None
            if self.peek().kind == ":":
                self.next()
                ann = self.formula()
            self.expect(".")
            return Abs(x, ann, self.term(lbound | {x}, mbound))
        if tok.kind == "keyword" and tok.text == "mu":
            self.next()
            a = self.ident("mu", lbound | mbound)
            ann = None
            if self.peek().kind == ":":
                self.next()
                ann = self.formula()
            self.expect(".")
            return Mu(a, ann, self.term(lbound, mbound | {a}))
        if tok.kind == "[":
            self.next()
            a = self.use("mu")
            self.expect("]")
            return Named(a, self.term(lbound, mbound))
        if tok.kind == "<":
            self.next()
            fst = self.term(lbound, mbound)
            self.expect(",")
            snd = self.term(lbound, mbound)
            self.expect(">")
            return Pair(fst, snd)
        if tok.kind == "keyword" and tok.text in ("in1", "in2"):
            self.next()
            ann = None
            if self.peek().kind == "{":
                self.next()
                ann = self.formula()
                self.expect("}")
            body = self.term(lbound, mbound)
            return Inj1(body, ann) if tok.text == "in1" else Inj2(body, ann)
        if tok.kind == "(":
            self.next()
            fun = self.term(lbound, mbound)
            arg = self.eterm(lbound, mbound)
            self.expect(")")
            return App(fun, arg)
        if tok.kind == "ident":
            return Var(self.use("lam"))
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.pos, expected="a term")

    def eterm(self, lbound: frozenset[str], mbound: frozenset[str]) -> ETerm:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "p1":
            self.next()
            return PROJ1
        if tok.kind == "keyword" and tok.text == "p2":
            self.next()
            return PROJ2
        # "[" starts a case bracket iff the identifier is followed by "."
        if tok.kind == "[" and self.peek(1).kind == "ident" \
                and self.peek(2).kind == ".":
            self.next()
            x1 = self.ident("lam", lbound | mbound)
            self.expect(".")
            u1 = self.term(lbound | {x1}, mbound)
            self.expect(",")
            x2 = self.ident("lam", lbound | mbound)
            self.expect(".")
            u2 = self.term(lbound | {x2}, mbound)
            self.expect("]")
            ann = None
            if self.peek().kind == "{":
                self.next()
                ann = self.formula()
                self.expect("}")
            return Case(x1, u1, x2, u2, ann)
        return Arg(self.term(lbound, mbound))

    # -- formulas (precedence climbing) ------------------------------------

    def formula(self, level: int = 0) -> Formula:
        """A formula whose infix connectives bind at least as tightly as
        level; the right operand of a connective is parsed at its own
        level, which makes every connective right-associative."""
        self.descend()
        left = self._atom()
        while True:
            infix = _INFIX.get(self.peek().kind)
            if infix is None or infix[0] < level:
                break
            self.next()
            left = infix[1](left, self.formula(infix[0]))
        self.depth -= 1
        return left

    def _atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "~":
            return Arrow(self.formula(_PREFIX), BOT)
        if tok.kind == "_|_":
            return BOT
        if tok.kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind == "ident":
            return PropVar(tok.text)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.pos, expected="a formula")


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term(frozenset(), frozenset())
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return t


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.formula()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return f


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
            s = f"~{_pf(l, _NEG)}"
            return s
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


def print_term(t: Term) -> str:
    """Print t in the concrete grammar; re-parses to an alpha-equal term."""
    match t:
        case Var(x):
            return x
        case Abs(x, ann, b):
            a = f":{print_formula(ann)}" if ann is not None else ""
            return f"\\{x}{a}. {print_term(b)}"
        case Mu(m, ann, b):
            a = f":{print_formula(ann)}" if ann is not None else ""
            return f"mu {m}{a}. {print_term(b)}"
        case Named(m, b):
            return f"[{m}] {print_term(b)}"
        case Pair(f, s):
            return f"<{print_term(f)}, {print_term(s)}>"
        case Inj1(b, ann):
            a = f"{{{print_formula(ann)}}}" if ann is not None else ""
            return f"in1{a} {print_term(b)}"
        case Inj2(b, ann):
            a = f"{{{print_formula(ann)}}}" if ann is not None else ""
            return f"in2{a} {print_term(b)}"
        case App(f, e):
            return f"({print_term(f)} {print_eterm(e)})"
    raise TypeError(f"not a term: {t!r}")


def print_eterm(e) -> str:
    match e:
        case Arg(t):
            return print_term(t)
        case Proj1():
            return "p1"
        case Proj2():
            return "p2"
        case Case(x1, u1, x2, u2, ann):
            a = f"{{{print_formula(ann)}}}" if ann is not None else ""
            return f"[{x1}.{print_term(u1)}, {x2}.{print_term(u2)}]{a}"
    raise TypeError(f"not an E-term: {e!r}")


def canonical_form(t: Term) -> str:
    """Canonical printed form: identical for alpha-equal terms."""
    return print_term(canonicalize(t))
