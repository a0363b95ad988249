"""The tokenizer and parser that ``dnsk.parser`` had before its regex
lexer: a per-character scanner building a ``Token`` with line and column
for every token, and a parser over those tokens.  A differential oracle
for ``tests/test_parser_diff.py``; the code below is copied unchanged.
The declaration classes and ``ParseError`` are the kernel's own, so the
two parsers' results and errors compare with ``==``."""

from __future__ import annotations

from dataclasses import dataclass

from dnsk.parser import (
    AxiomDecl, Directive, FormulaDecl, ParseError, PredDecl, ProofDecl,
    SourceFile, TermDecl,
)
from dnsk.syntax import (
    And, App, Arrow, Ascribe, BOT, Case, Dest, Efq, Eq0, ExPair, Exists,
    Forall, Formula, Fst, Hyp, Imp, Inl, Inr, Lam, NAT, Or,
    Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2, Prod, Rec,
    Reset, Shift, SimpleType, Snd, STAR, Succ, Term, TApp, TLam, UNIT,
    Var, ZERO, neg,
)


KEYWORDS = {
    "nat", "unit", "fun", "star", "rec", "S",
    "forall", "exists", "bot",
    "tfun", "shift", "reset", "case", "of", "dest", "as", "in",
    "fst", "snd", "inl", "inr", "efq",
}

PUNCT = [
    "=>", "->", "/\\", "\\/", ":=", ".1", ".2",
    "(", ")", "[", "]", ",", ";", ":", "*", "~", "=", "@", "|", ".",
]


@dataclass
class Token:
    kind: str  # 'ident', 'punct', 'eof'
    text: str
    line: int
    col: int


def tokenize(src: str) -> list:
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(Token("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "0":
            toks.append(Token("ident", "0", line, col))
            i += 1
            col += 1
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                # ".1"/".2" only when not part of a longer number
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


@dataclass
class Parser:
    tokens: list
    pos: int = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind != "eof"

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS or t.text == "0":
            raise ParseError(f"expected identifier, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next().text

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    # -- sorts --------------------------------------------------------------

    def type_(self) -> SimpleType:
        left = self.type_prod()
        if self.at("->"):
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_prod(self) -> SimpleType:
        left = self.type_atom()
        if self.at("*"):
            self.next()
            return Prod(left, self.type_prod())
        return left

    def type_atom(self) -> SimpleType:
        t = self.peek()
        if t.text == "nat":
            self.next()
            return NAT
        if t.text == "unit":
            self.next()
            return UNIT
        if t.text == "(":
            self.next()
            out = self.type_()
            self.expect(")")
            return out
        self.fail(f"expected a sort, found {t.text!r}")

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        if self.at("fun"):
            self.next()
            self.expect("(")
            x = self.ident()
            self.expect(":")
            s = self.type_()
            self.expect(")")
            self.expect("=>")
            return Lam(x, s, self.term())
        return self.term_app()

    def _starts_term_item(self) -> bool:
        t = self.peek()
        if t.kind == "ident":
            return t.text not in KEYWORDS or t.text in ("star", "rec", "S", "fun") or t.text == "0"
        return t.text == "("

    def term_app(self) -> Term:
        out = self.term_item()
        while self._starts_term_item() and not self.at("fun"):
            out = App(out, self.term_item())
        return out

    def term_item(self) -> Term:
        if self.at("S"):
            self.next()
            return Succ(self.term_item())
        return self.term_postfix()

    def term_postfix(self) -> Term:
        out = self.term_atom()
        while True:
            if self.at(".1"):
                self.next()
                out = Proj1(out)
            elif self.at(".2"):
                self.next()
                out = Proj2(out)
            else:
                return out

    def term_atom(self) -> Term:
        t = self.peek()
        if t.text == "star":
            self.next()
            return STAR
        if t.text == "0":
            self.next()
            return ZERO
        if t.text == "rec":
            self.next()
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
        if t.text == "(":
            self.next()
            first = self.term()
            if self.at(","):
                self.next()
                second = self.term()
                self.expect(")")
                return Pair(first, second)
            self.expect(")")
            return first
        if t.kind == "ident" and t.text not in KEYWORDS:
            return Var(self.next().text)
        self.fail(f"expected a term, found {t.text or 'end of input'!r}")

    # -- formulas -----------------------------------------------------------

    def formula(self) -> Formula:
        return self.formula_imp()

    def formula_imp(self) -> Formula:
        left = self.formula_or()
        if self.at("->"):
            self.next()
            return Imp(left, self.formula_imp())
        return left

    def formula_or(self) -> Formula:
        left = self.formula_and()
        if self.at("\\/"):
            self.next()
            return Or(left, self.formula_or())
        return left

    def formula_and(self) -> Formula:
        left = self.formula_unary()
        if self.at("/\\"):
            self.next()
            return And(left, self.formula_and())
        return left

    def formula_unary(self) -> Formula:
        if self.at("~"):
            self.next()
            return neg(self.formula_unary())
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        t = self.peek()
        if t.text == "bot":
            self.next()
            return BOT
        if t.text in ("forall", "exists"):
            kind = self.next().text
            x = self.ident()
            self.expect(":")
            s = self.type_()
            self.expect(".")
            body = self.formula()
            return Forall(x, s, body) if kind == "forall" else Exists(x, s, body)
        if t.kind == "ident" and t.text not in KEYWORDS and t.text != "0" and self.peek(1).text == "(":
            # predicate application; an equation with an application on the
            # left must parenthesize it, e.g. (f x) = 0
            name = self.ident()
            self.expect("(")
            args = [self.term()]
            while self.at(","):
                self.next()
                args.append(self.term())
            self.expect(")")
            return PredApp(name, tuple(args))
        if t.text == "(":
            # parenthesized formula, or parenthesized term starting an equation
            saved = self.pos
            try:
                self.next()
                inner = self.formula()
                self.expect(")")
                if not self.at("=") and not self.at(".1") and not self.at(".2"):
                    return inner
            except ParseError:
                pass
            self.pos = saved
            return self._equation()
        return self._equation()

    def _equation(self) -> Formula:
        t = self.peek()
        lhs = self.term()
        if self.at("="):
            self.next()
            return Eq0(lhs, self.term())
        if isinstance(lhs, Var):
            return PredApp(lhs.name, ())
        raise ParseError("expected '=' after term in formula", t.line, t.col)

    # -- proof terms ----------------------------------------------------------

    def proof(self) -> ProofTerm:
        t = self.peek()
        if t.text == "fun":
            self.next()
            a = self.ident()
            self.expect("=>")
            return PLam(a, self.proof())
        if t.text == "tfun":
            self.next()
            x = self.ident()
            self.expect("=>")
            return TLam(x, self.proof())
        if t.text == "shift":
            self.next()
            k = self.ident()
            self.expect("=>")
            return Shift(k, self.proof())
        if t.text == "case":
            self.next()
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
        if t.text == "dest":
            self.next()
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

    PREFIX_OPS = {"fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr, "efq": Efq, "reset": Reset}

    def _starts_proof_item(self) -> bool:
        t = self.peek()
        if t.kind == "ident":
            return t.text in self.PREFIX_OPS or t.text not in KEYWORDS
        return t.text in ("(", "[")

    def proof_app(self) -> ProofTerm:
        out = self.proof_prefix()
        while True:
            if self.at("@"):
                self.next()
                out = TApp(out, self.term_postfix())
            elif self._starts_proof_item():
                out = PApp(out, self.proof_prefix())
            else:
                return out

    def proof_prefix(self) -> ProofTerm:
        t = self.peek()
        ctor = self.PREFIX_OPS.get(t.text)
        if ctor is not None:
            self.next()
            return ctor(self.proof_prefix())
        return self.proof_atom()

    def proof_atom(self) -> ProofTerm:
        t = self.peek()
        if t.text == "(":
            self.next()
            first = self.proof()
            if self.at(","):
                self.next()
                second = self.proof()
                self.expect(")")
                return PPair(first, second)
            if self.at(":"):
                self.next()
                f = self.formula()
                self.expect(")")
                return Ascribe(first, f)
            self.expect(")")
            return first
        if t.text == "[":
            self.next()
            w = self.term()
            self.expect(",")
            body = self.proof()
            self.expect("]")
            return ExPair(w, body)
        if t.kind == "ident" and t.text not in KEYWORDS and t.text != "0":
            return Hyp(self.next().text)
        self.fail(f"expected a proof term, found {t.text or 'end of input'!r}")


def _run(src: str, method: str):
    p = Parser(tokenize(src))
    out = getattr(p, method)()
    tail = p.peek()
    if tail.kind != "eof":
        raise ParseError(f"trailing input {tail.text!r}", tail.line, tail.col)
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


DIRECTIVE_KINDS = ("check", "translate", "extract", "eval")


def parse_source(src: str) -> SourceFile:
    """Parse a .dnsk file: period-terminated declarations and directives."""
    p = Parser(tokenize(src))
    out = SourceFile()
    names = set()

    def declare(name: str, tok: Token):
        if name in names:
            raise ParseError(f"duplicate name {name!r}", tok.line, tok.col)
        names.add(name)

    def require(name: str, tok: Token):
        if name not in names:
            raise ParseError(f"forward or unknown reference {name!r}", tok.line, tok.col)

    while p.peek().kind != "eof":
        t = p.peek()
        if t.text == "pred":
            p.next()
            tok = p.peek()
            name = p.ident()
            declare(name, tok)
            sorts = []
            if p.at("("):
                p.next()
                sorts.append(p.type_())
                while p.at(","):
                    p.next()
                    sorts.append(p.type_())
                p.expect(")")
            out.decls.append(PredDecl(name, tuple(sorts)))
        elif t.text == "formula":
            p.next()
            tok = p.peek()
            name = p.ident()
            declare(name, tok)
            p.expect(":=")
            out.decls.append(FormulaDecl(name, p.formula()))
        elif t.text == "axiom":
            p.next()
            tok = p.peek()
            name = p.ident()
            declare(name, tok)
            p.expect(":")
            f = p.formula()
            realizer = None
            if p.at(":="):
                p.next()
                realizer = p.term()
            out.decls.append(AxiomDecl(name, f, realizer))
        elif t.text == "proof":
            p.next()
            ann = "plain"
            if p.at("["):
                p.next()
                p.expect("bot")
                p.expect("]")
                ann = "bot"
            tok = p.peek()
            name = p.ident()
            declare(name, tok)
            p.expect(":")
            goal = p.formula()
            p.expect(":=")
            out.decls.append(ProofDecl(name, ann, goal, p.proof()))
        elif t.text == "term":
            p.next()
            tok = p.peek()
            name = p.ident()
            declare(name, tok)
            p.expect(":")
            s = p.type_()
            p.expect(":=")
            out.decls.append(TermDecl(name, s, p.term()))
        elif t.text in DIRECTIVE_KINDS:
            kind = p.next().text
            mode = None
            if kind == "translate":
                mode = p.ident()
            tok = p.peek()
            name = p.ident()
            require(name, tok)
            out.decls.append(Directive(kind, name, mode))
        else:
            raise ParseError(f"expected a declaration, found {t.text or 'end of input'!r}", t.line, t.col)
        p.expect(".")
    return out
