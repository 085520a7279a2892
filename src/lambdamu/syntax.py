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

from dataclasses import dataclass

from .terms import (
    Abs, App, Arg, Arrow, BOT, Bottom, Case, Conj, Disj, ETerm, Formula, Inj1,
    Inj2, Mu, Named, PROJ1, PROJ2, Pair, PropVar, Proj1, Proj2, Term, Var,
    is_neg,
)

KEYWORDS = {"mu", "in1", "in2", "p1", "p2"}

# Deeper input is refused: at this depth the parser, the checker and the
# printers all stay within Python's default recursion limit of 1000
# frames (they need at most about 610 there).
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
        # bound identifier -> the number of binders of its namespace
        # outside it; as nothing is shadowed, that is one per name
        self.lam: dict[str, int] = {}
        self.mu: dict[str, int] = {}

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

    def ident(self, role: str) -> str:
        """A binder's identifier, which nothing around it binds."""
        tok = self.expect("ident")
        name = tok.text
        if name in self.lam or name in self.mu:
            raise ParseError(f"shadowed variable {name!r}", tok.pos)
        prior = self.roles.get(name)
        if prior is not None and prior != role:
            raise ParseError(
                f"{name!r} used both as a lambda-variable and a mu-variable",
                tok.pos)
        self.roles[name] = role
        return name

    def use(self, role: str):
        """A variable: its index when bound, else its name."""
        tok = self.expect("ident")
        name = tok.text
        prior = self.roles.get(name)
        if prior is not None and prior != role:
            raise ParseError(
                f"{name!r} used both as a lambda-variable and a mu-variable",
                tok.pos)
        self.roles[name] = role
        bound = self.lam if role == "lam" else self.mu
        level = bound.get(name)
        return name if level is None else len(bound) - 1 - level

    def bound_term(self, bound: dict[str, int], name: str) -> Term:
        """A term in the scope of a binder of name."""
        bound[name] = len(bound)
        t = self.term()
        del bound[name]
        return t

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        self.descend()
        t = self._term()
        self.depth -= 1
        return t

    def _term(self) -> Term:
        tok = self.peek()
        if tok.kind == "\\" or (tok.kind == "keyword" and tok.text == "mu"):
            self.next()
            lam = tok.kind == "\\"
            x = self.ident("lam" if lam else "mu")
            ann = None
            if self.peek().kind == ":":
                self.next()
                ann = self.formula()
            self.expect(".")
            body = self.bound_term(self.lam if lam else self.mu, x)
            return Abs(x, ann, body) if lam else Mu(x, ann, body)
        if tok.kind == "[":
            self.next()
            a = self.use("mu")
            self.expect("]")
            return Named(a, self.term())
        if tok.kind == "<":
            self.next()
            fst = self.term()
            self.expect(",")
            snd = self.term()
            self.expect(">")
            return Pair(fst, snd)
        if tok.kind == "keyword" and tok.text in ("in1", "in2"):
            self.next()
            ann = None
            if self.peek().kind == "{":
                self.next()
                ann = self.formula()
                self.expect("}")
            body = self.term()
            return Inj1(body, ann) if tok.text == "in1" else Inj2(body, ann)
        if tok.kind == "(":
            self.next()
            fun = self.term()
            arg = self.eterm()
            self.expect(")")
            return App(fun, arg)
        if tok.kind == "ident":
            return Var(self.use("lam"))
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}",
                         tok.pos, expected="a term")

    def eterm(self) -> ETerm:
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
            x1 = self.ident("lam")
            self.expect(".")
            u1 = self.bound_term(self.lam, x1)
            self.expect(",")
            x2 = self.ident("lam")
            self.expect(".")
            u2 = self.bound_term(self.lam, x2)
            self.expect("]")
            ann = None
            if self.peek().kind == "{":
                self.next()
                ann = self.formula()
                self.expect("}")
            return Case(x1, u1, x2, u2, ann)
        return Arg(self.term())

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
    t = p.term()
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


def print_term(t: Term, lam_names: tuple[str, ...] = (),
               mu_names: tuple[str, ...] = ()) -> str:
    """Print t in the concrete grammar; re-parses to an equal term.

    A binder is printed with its name hint, unless that name is bound
    around it or would capture a free variable below it; then with the
    hint's stem and the first number that is neither.  lam_names and
    mu_names name the binders that t's dangling indices refer to,
    innermost last.
    """
    return _Printer(False, lam_names, mu_names).text(t)


def canonical_form(t: Term) -> str:
    """t printed with its binders named x0, x1, ... (lambda) and a0, a1,
    ... (mu) in preorder, skipping every name free in t: one string per
    alpha-equivalence class.  A case bracket's first binder is named
    before its first branch, its second binder after that branch."""
    return _Printer(True, (), ()).text(t)


class _Printer:
    """One printing of a term, with the names of the binders around the
    current node, innermost last, and the free names met so far.  It
    allocates little, since every explored reduct is printed."""

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
        text = self.term(t)
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
        stem = hint.rstrip("0123456789") or hint
        i = 0
        while (chosen := f"{stem}{i}") in lam or chosen in mu \
                or chosen in taken:
            i += 1
        return chosen

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
