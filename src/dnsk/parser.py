"""Tokenizer and recursive-descent parser for the concrete grammar.

Categories: sorts, terms, formulas, proof terms, and ``.dnsk`` source files.
Unknown predicate symbols are accepted here and rejected later by checking.

Tokens are plain strings: ``tokenize`` is one regular expression run by
``findall``, and the parser compares texts.  No token keeps its position.
Syntax errors still carry line/column positions: a parser's first error
scans the source once more for the start of every token.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    And, App, Arrow, Ascribe, BOT, Case, Dest, Efq, Eq0, ExPair, Exists,
    Forall, Formula, Fst, Hyp, Imp, Inl, Inr, KernelError, Lam, NAT, Or,
    Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2, Prod, Rec,
    Reset, Shift, SimpleType, Snd, STAR, Succ, Term, TApp, TLam, UNIT,
    Var, ZERO, neg,
)


class ParseError(KernelError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


KEYWORDS = {
    "nat", "unit", "fun", "star", "rec", "S",
    "forall", "exists", "bot",
    "tfun", "shift", "reset", "case", "of", "dest", "as", "in",
    "fst", "snd", "inl", "inr", "efq",
}

# longest first where one is a prefix of another
PUNCT = [
    "=>", "->", "/\\", "\\/", ":=", ".1", ".2",
    "(", ")", "[", "]", ",", ";", ":", "*", "~", "=", "@", "|", ".",
]

PREFIX_OPS = {"fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr, "efq": Efq, "reset": Reset}

# Token classes by text.  Every text that is not punctuation or the end
# marker "" is a name, a keyword or "0".  An application spine of terms
# or of proofs goes on while the next text can start an argument.
_NOT_NAME = frozenset(PUNCT) | KEYWORDS | {"0", ""}
_NOT_TERM_ARG = (frozenset(PUNCT) - {"("}) | (KEYWORDS - {"star", "rec", "S"}) | {""}
_NOT_PROOF_ARG = (frozenset(PUNCT) - {"(", "["}) | (KEYWORDS - PREFIX_OPS.keys()) | {""}

# Whitespace and comments; a comment runs to the end of its line.
_SPACE = re.compile(r"\s*(?:#[^\n]*\s*)*")
# A name starts with a letter or "_" (a word character that is no decimal
# digit; `tokenize` rejects the numerals among those, like '²' and 'Ⅳ') and
# goes on with word characters and "'".
_TEXT = r"[^\W\d][\w']*|0|" + "|".join(map(re.escape, PUNCT))
# One token and the space after it.  At a character no token starts with,
# the rest of the input is taken as one text, so only the last text of a
# scan can be malformed.
_TOKEN = re.compile(rf"({_TEXT}|(?s:.+)){_SPACE.pattern}")
_ONE_TOKEN = re.compile(_TEXT)


def tokenize(src: str) -> list:
    """The token texts of ``src``, then ``""`` as the end marker."""
    toks = _TOKEN.findall(src, _SPACE.match(src).end())
    bad = len(toks) - 1 if toks and not _ONE_TOKEN.fullmatch(toks[-1]) else None
    if not src.isascii():
        bad = next((i for i, t in enumerate(toks) if not (t[0] < "\x80" or t[0].isalpha())), bad)
    if bad is not None:
        raise ParseError(f"unexpected character {toks[bad][0]!r}", *_locator(src)(bad))
    toks.append("")
    return toks


def _locator(src: str):
    """The (line, col) of token ``i`` of ``tokenize(src)``, the end marker
    included, as a function of ``i``: a second scan, made only for an error."""
    starts, end = [], 0
    for m in _TOKEN.finditer(src, _SPACE.match(src).end()):
        starts.append(m.start(1))
        end = m.end(1)
    # a comment with no newline after it holds the end marker at its '#'
    hash_at = src.find("#", max(end, src.rfind("\n") + 1))
    starts.append(hash_at if hash_at >= 0 else len(src))
    newlines = [m.start() for m in re.finditer("\n", src)]

    def where(i: int) -> tuple:
        line = bisect_left(newlines, starts[i])
        return line + 1, starts[i] - (newlines[line - 1] if line else -1)

    return where


class Parser:
    __slots__ = ("src", "toks", "pos", "_where")

    def __init__(self, src: str, toks: list):
        self.src = src
        self.toks = toks  # tokenize(src)
        self.pos = 0
        self._where = None

    # -- token plumbing -----------------------------------------------------

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at token ``at``, by default the current one.  The
        speculative parse in ``formula_atom`` raises on valid input, so the
        scan for positions is kept."""
        if self._where is None:
            self._where = _locator(self.src)
        return ParseError(message, *self._where(self.pos if at is None else at))

    def peek(self) -> str:
        return self.toks[self.pos]

    def next(self) -> str:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> None:
        t = self.toks[self.pos]
        if t != text:
            raise self.error(f"expected {text!r}, found {t or 'end of input'!r}")
        self.pos += 1

    def ident(self) -> str:
        t = self.toks[self.pos]
        if t in _NOT_NAME:
            raise self.error(f"expected identifier, found {t or 'end of input'!r}")
        self.pos += 1
        return t

    # -- sorts --------------------------------------------------------------

    def type_(self) -> SimpleType:
        left = self.type_prod()
        if self.toks[self.pos] == "->":
            self.pos += 1
            return Arrow(left, self.type_())
        return left

    def type_prod(self) -> SimpleType:
        left = self.type_atom()
        if self.toks[self.pos] == "*":
            self.pos += 1
            return Prod(left, self.type_prod())
        return left

    def type_atom(self) -> SimpleType:
        t = self.next()
        if t == "nat":
            return NAT
        if t == "unit":
            return UNIT
        if t == "(":
            out = self.type_()
            self.expect(")")
            return out
        raise self.error(f"expected a sort, found {t!r}", self.pos - 1)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        if self.toks[self.pos] == "fun":
            self.pos += 1
            self.expect("(")
            x = self.ident()
            self.expect(":")
            s = self.type_()
            self.expect(")")
            self.expect("=>")
            return Lam(x, s, self.term())
        return self.term_app()

    def term_app(self) -> Term:
        out = self.term_item()
        while self.toks[self.pos] not in _NOT_TERM_ARG:
            out = App(out, self.term_item())
        return out

    def term_item(self) -> Term:
        if self.toks[self.pos] == "S":
            self.pos += 1
            return Succ(self.term_item())
        return self.term_postfix()

    def term_postfix(self) -> Term:
        out = self.term_atom()
        while True:
            t = self.toks[self.pos]
            if t == ".1":
                out = Proj1(out)
            elif t == ".2":
                out = Proj2(out)
            else:
                return out
            self.pos += 1

    def term_atom(self) -> Term:
        t = self.next()
        if t not in _NOT_NAME:
            return Var(t)
        if t == "star":
            return STAR
        if t == "0":
            return ZERO
        if t == "rec":
            self.expect("[")
            s = self.type_()
            self.expect("]")
            self.expect("(")
            scrut = self.term()
            self.expect(";")
            base = self.term()
            self.expect(";")
            step = self.term()
            self.expect(")")
            return Rec(s, scrut, base, step)
        if t == "(":
            first = self.term()
            if self.toks[self.pos] == ",":
                self.pos += 1
                second = self.term()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        raise self.error(f"expected a term, found {t or 'end of input'!r}", self.pos - 1)

    # -- formulas -----------------------------------------------------------

    def formula(self) -> Formula:
        return self.formula_imp()

    def formula_imp(self) -> Formula:
        left = self.formula_or()
        if self.toks[self.pos] == "->":
            self.pos += 1
            return Imp(left, self.formula_imp())
        return left

    def formula_or(self) -> Formula:
        left = self.formula_and()
        if self.toks[self.pos] == "\\/":
            self.pos += 1
            return Or(left, self.formula_or())
        return left

    def formula_and(self) -> Formula:
        left = self.formula_unary()
        if self.toks[self.pos] == "/\\":
            self.pos += 1
            return And(left, self.formula_and())
        return left

    def formula_unary(self) -> Formula:
        if self.toks[self.pos] == "~":
            self.pos += 1
            return neg(self.formula_unary())
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        t = self.toks[self.pos]
        if t == "bot":
            self.pos += 1
            return BOT
        if t in ("forall", "exists"):
            self.pos += 1
            x = self.ident()
            self.expect(":")
            s = self.type_()
            self.expect(".")
            body = self.formula()
            return Forall(x, s, body) if t == "forall" else Exists(x, s, body)
        if t not in _NOT_NAME and self.toks[self.pos + 1] == "(":
            # predicate application; an equation with an application on the
            # left must parenthesize it, e.g. (f x) = 0
            self.pos += 2
            args = [self.term()]
            while self.toks[self.pos] == ",":
                self.pos += 1
                args.append(self.term())
            self.expect(")")
            return PredApp(t, tuple(args))
        if t == "(":
            # parenthesized formula, or parenthesized term starting an equation
            saved = self.pos
            try:
                self.pos += 1
                inner = self.formula()
                self.expect(")")
                if self.toks[self.pos] not in ("=", ".1", ".2"):
                    return inner
            except ParseError:
                pass
            self.pos = saved
        return self._equation()

    def _equation(self) -> Formula:
        start = self.pos
        lhs = self.term()
        if self.toks[self.pos] == "=":
            self.pos += 1
            return Eq0(lhs, self.term())
        if isinstance(lhs, Var):
            return PredApp(lhs.name, ())
        raise self.error("expected '=' after term in formula", start)

    # -- proof terms ----------------------------------------------------------

    def proof(self) -> ProofTerm:
        t = self.toks[self.pos]
        if t == "fun":
            self.pos += 1
            a = self.ident()
            self.expect("=>")
            return PLam(a, self.proof())
        if t == "tfun":
            self.pos += 1
            x = self.ident()
            self.expect("=>")
            return TLam(x, self.proof())
        if t == "shift":
            self.pos += 1
            k = self.ident()
            self.expect("=>")
            return Shift(k, self.proof())
        if t == "case":
            self.pos += 1
            scrut = self.proof_app()
            self.expect("of")
            a1 = self.ident()
            self.expect("=>")
            b1 = self.proof()
            self.expect("|")
            a2 = self.ident()
            self.expect("=>")
            b2 = self.proof()
            return Case(scrut, a1, b1, a2, b2)
        if t == "dest":
            self.pos += 1
            scrut = self.proof_app()
            self.expect("as")
            self.expect("[")
            x = self.ident()
            self.expect(",")
            a = self.ident()
            self.expect("]")
            self.expect("in")
            return Dest(scrut, x, a, self.proof())
        return self.proof_app()

    def proof_app(self) -> ProofTerm:
        out = self.proof_prefix()
        while True:
            t = self.toks[self.pos]
            if t == "@":
                self.pos += 1
                out = TApp(out, self.term_postfix())
            elif t not in _NOT_PROOF_ARG:
                out = PApp(out, self.proof_prefix())
            else:
                return out

    def proof_prefix(self) -> ProofTerm:
        ctor = PREFIX_OPS.get(self.toks[self.pos])
        if ctor is not None:
            self.pos += 1
            return ctor(self.proof_prefix())
        return self.proof_atom()

    def proof_atom(self) -> ProofTerm:
        t = self.next()
        if t not in _NOT_NAME:
            return Hyp(t)
        if t == "(":
            first = self.proof()
            if self.toks[self.pos] == ",":
                self.pos += 1
                second = self.proof()
                self.expect(")")
                return PPair(first, second)
            if self.toks[self.pos] == ":":
                self.pos += 1
                f = self.formula()
                self.expect(")")
                return Ascribe(first, f)
            self.expect(")")
            return first
        if t == "[":
            w = self.term()
            self.expect(",")
            body = self.proof()
            self.expect("]")
            return ExPair(w, body)
        raise self.error(f"expected a proof term, found {t or 'end of input'!r}", self.pos - 1)


def _run(src: str, method: str):
    p = Parser(src, tokenize(src))
    out = getattr(p, method)()
    tail = p.peek()
    if tail:
        raise p.error(f"trailing input {tail!r}")
    return out


def parse_type(src: str) -> SimpleType:
    return _run(src, "type_")


def parse_term(src: str) -> Term:
    return _run(src, "term")


def parse_formula(src: str) -> Formula:
    return _run(src, "formula")


def parse_proof(src: str) -> ProofTerm:
    return _run(src, "proof")


def parse(src: str, what: str):
    """Parse one of the four categories: 'type', 'term', 'formula', 'proof'."""
    methods = {"type": "type_", "term": "term", "formula": "formula", "proof": "proof"}
    if what not in methods:
        raise ValueError(f"unknown category {what!r}")
    return _run(src, methods[what])


# ---------------------------------------------------------------------------
# Source files (.dnsk)


@dataclass
class PredDecl:
    name: str
    sorts: tuple


@dataclass
class FormulaDecl:
    name: str
    formula: Formula


@dataclass
class AxiomDecl:
    name: str
    formula: Formula
    realizer: Optional[Term] = None


@dataclass
class ProofDecl:
    name: str
    annotation: str  # 'plain' or 'bot'
    goal: Formula
    proof: ProofTerm


@dataclass
class TermDecl:
    name: str
    sort: SimpleType
    term: Term


@dataclass
class Directive:
    kind: str  # 'check' | 'translate' | 'extract' | 'eval'
    name: str
    mode: Optional[str] = None


@dataclass
class SourceFile:
    decls: list = field(default_factory=list)

    def of_type(self, cls):
        return [d for d in self.decls if isinstance(d, cls)]


DIRECTIVE_KINDS = ("check", "translate", "extract", "eval")


def parse_source(src: str) -> SourceFile:
    """Parse a .dnsk file: period-terminated declarations and directives."""
    p = Parser(src, tokenize(src))
    out = SourceFile()
    names = set()

    def declare() -> str:
        at = p.pos
        name = p.ident()
        if name in names:
            raise p.error(f"duplicate name {name!r}", at)
        names.add(name)
        return name

    while p.peek():
        t = p.next()
        if t == "pred":
            name = declare()
            sorts = []
            if p.peek() == "(":
                p.pos += 1
                sorts.append(p.type_())
                while p.peek() == ",":
                    p.pos += 1
                    sorts.append(p.type_())
                p.expect(")")
            out.decls.append(PredDecl(name, tuple(sorts)))
        elif t == "formula":
            name = declare()
            p.expect(":=")
            out.decls.append(FormulaDecl(name, p.formula()))
        elif t == "axiom":
            name = declare()
            p.expect(":")
            f = p.formula()
            realizer = None
            if p.peek() == ":=":
                p.pos += 1
                realizer = p.term()
            out.decls.append(AxiomDecl(name, f, realizer))
        elif t == "proof":
            ann = "plain"
            if p.peek() == "[":
                p.pos += 1
                p.expect("bot")
                p.expect("]")
                ann = "bot"
            name = declare()
            p.expect(":")
            goal = p.formula()
            p.expect(":=")
            out.decls.append(ProofDecl(name, ann, goal, p.proof()))
        elif t == "term":
            name = declare()
            p.expect(":")
            s = p.type_()
            p.expect(":=")
            out.decls.append(TermDecl(name, s, p.term()))
        elif t in DIRECTIVE_KINDS:
            mode = p.ident() if t == "translate" else None
            at = p.pos
            name = p.ident()
            if name not in names:
                raise p.error(f"forward or unknown reference {name!r}", at)
            out.decls.append(Directive(t, name, mode))
        else:
            raise p.error(f"expected a declaration, found {t!r}", p.pos - 1)
        p.expect(".")
    return out
