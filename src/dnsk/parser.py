"""Tokenizer and parser for the concrete grammar.

Categories: sorts, terms, formulas, proof terms, and ``.dnsk`` source files.
Unknown predicate symbols are accepted here and rejected later by checking.

The parser reads chains in loops and recurses only where the text nests.
The infix operators of sorts and formulas, one table that the printer reads
too, are folded by precedence climbing on an explicit stack (Pratt, "Top
down operator precedence", 1973), which also holds the pending ``~`` and
quantifier prefixes.  A term reads its ``fun`` binders, ``S`` prefixes,
atoms, projections and application spine in one loop, and a proof term its
binders, prefix operators and spine; so a Python frame is spent only per
parenthesis, bracket or ``rec`` (one per level in terms and proof terms,
three in sorts and formulas) and per left branch of ``case``.

Tokens are plain strings: ``tokenize`` is one regular expression run by
``findall``, and the parser compares texts.  No token keeps its position.
Syntax errors still carry line/column positions: a parser's first error
scans the source once more for the start of every token.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Optional

from .syntax import (
    And, App, Arrow, Ascribe, BOT, Case, Dest, Efq, Eq0, ExPair, Exists,
    Forall, Formula, Fst, Hyp, Imp, Inl, Inr, KernelError, Lam, NAT, Or,
    Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2, Prod, Rec,
    Record, Reset, Shift, SimpleType, Snd, STAR, Succ, Term, TApp, TLam, UNIT,
    Var, ZERO, neg,
)


class ParseError(KernelError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# longest first where one is a prefix of another
PUNCT = [
    "=>", "->", "/\\", "\\/", ":=", ".1", ".2",
    "(", ")", "[", "]", ",", ";", ":", "*", "~", "=", "@", "|", ".",
]

# The infix operators of sorts and of formulas: text -> (precedence level,
# constructor).  Each associates to the right and binds tighter than those
# of lower levels; the printer reads the same table.  In formulas a
# quantifier stands at level 0, below them, and `~` at level 4, above them.
SORT_OPS = {"->": (0, Arrow), "*": (1, Prod)}
FORMULA_OPS = {"->": (1, Imp), "\\/": (2, Or), "/\\": (3, And)}

# Proof prefix operators, proof binders and quantifiers by text; the printer
# reads these tables too.
PREFIX_OPS = {"fst": Fst, "snd": Snd, "inl": Inl, "inr": Inr, "efq": Efq, "reset": Reset}
BINDERS = {"fun": PLam, "tfun": TLam, "shift": Shift}
QUANTIFIERS = {"forall": Forall, "exists": Exists}
KEYWORDS = {"nat", "unit", "star", "rec", "S", "bot", "case", "of", "dest", "as", "in",
            *PREFIX_OPS, *BINDERS, *QUANTIFIERS}

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
        speculative parse in ``_formula_operand`` raises on valid input, so the
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

    # -- sorts and formulas: precedence climbing ------------------------------

    def _climb(self, ops: dict, operand) -> Record:
        """``operand (op operand)*`` over the infix operators ``ops`` of one
        category, folded by precedence climbing on an explicit stack of
        pending (level, constructor, leading fields).  ``operand(stack)``
        reads one operand and pushes the prefixes it reads before it; an
        entry folds the text to its right when an operator of a lower level,
        or the end of the chain, meets it."""
        toks = self.toks
        stack = []
        out = operand(stack)
        op = ops.get(toks[self.pos])
        while op is not None or stack:
            level = -1 if op is None else op[0]
            while stack and stack[-1][0] > level:
                _, ctor, fields = stack.pop()
                out = ctor(*fields, out)
            if op is None:
                break
            self.pos += 1
            stack.append((level, op[1], (out,)))
            out = operand(stack)
            op = ops.get(toks[self.pos])
        return out

    def type_(self) -> SimpleType:
        return self._climb(SORT_OPS, self._sort_operand)

    def _sort_operand(self, stack: list) -> SimpleType:
        t = self.toks[self.pos]
        self.pos += 1
        if t == "nat":
            return NAT
        if t == "unit":
            return UNIT
        if t == "(":
            out = self.type_()
            self.expect(")")
            return out
        raise self.error(f"expected a sort, found {t!r}", self.pos - 1)

    def formula(self) -> Formula:
        return self._climb(FORMULA_OPS, self._formula_operand)

    def _formula_operand(self, stack: list) -> Formula:
        # `~` binds tighter than every infix operator, and a quantifier's
        # body reaches to the end of the chain
        toks = self.toks
        t = toks[self.pos]
        while t == "~" or t in QUANTIFIERS:
            self.pos += 1
            if t == "~":
                stack.append((4, neg, ()))
            else:
                x = self.ident()
                self.expect(":")
                s = self.type_()
                self.expect(".")
                stack.append((0, QUANTIFIERS[t], (x, s)))
            t = toks[self.pos]
        if t == "bot":
            self.pos += 1
            return BOT
        if t not in _NOT_NAME and toks[self.pos + 1] == "(":
            # predicate application; an equation with an application on the
            # left must parenthesize it, e.g. (f x) = 0
            self.pos += 2
            args = [self.term()]
            while toks[self.pos] == ",":
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
                if toks[self.pos] not in ("=", ".1", ".2"):
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

    # -- terms and proof terms ------------------------------------------------

    def term(self, item: bool = False) -> Term:
        """A term, or with ``item`` only an atom and its projections (the
        argument of ``@``).  Binders, ``S`` prefixes, projections and the
        application spine are read in loops: a term recurses only into a
        parenthesis or ``rec``, one frame per level."""
        toks = self.toks
        binders = []
        while toks[self.pos] == "fun" and not item:
            self.pos += 1
            self.expect("(")
            x = self.ident()
            self.expect(":")
            s = self.type_()
            self.expect(")")
            self.expect("=>")
            binders.append((x, s))
        out = None
        while True:
            succs = 0
            while toks[self.pos] == "S" and not item:
                self.pos += 1
                succs += 1
            t = toks[self.pos]
            self.pos += 1
            if t not in _NOT_NAME:
                arg = Var(t)
            elif t == "0":
                arg = ZERO
            elif t == "star":
                arg = STAR
            elif t == "(":
                arg = self.term()
                if toks[self.pos] == ",":
                    self.pos += 1
                    arg = Pair(arg, self.term())
                self.expect(")")
            elif t == "rec":
                self.expect("[")
                s = self.type_()
                self.expect("]")
                self.expect("(")
                scrut = self.term()
                self.expect(";")
                base = self.term()
                self.expect(";")
                arg = Rec(s, scrut, base, self.term())
                self.expect(")")
            else:
                raise self.error(f"expected a term, found {t or 'end of input'!r}", self.pos - 1)
            while (t := toks[self.pos]) == ".1" or t == ".2":
                self.pos += 1
                arg = Proj1(arg) if t == ".1" else Proj2(arg)
            while succs:
                arg = Succ(arg)
                succs -= 1
            out = arg if out is None else App(out, arg)
            if item or t in _NOT_TERM_ARG:
                break
        while binders:
            x, s = binders.pop()
            out = Lam(x, s, out)
        return out

    def proof(self, spine: bool = False) -> ProofTerm:
        """A proof term, or with ``spine`` only an application spine (the
        scrutinee of ``case`` and ``dest``).  Binders, ``dest`` and the
        right branch of ``case``, prefix operators and the spine are read in
        loops: a proof recurses only into a parenthesis, a bracket or the
        left branch of ``case``."""
        toks = self.toks
        outer = []  # (constructor, fields but the body) of each binder read
        t = toks[self.pos]
        while not spine:
            if t in BINDERS:
                self.pos += 1
                a = self.ident()
                self.expect("=>")
                outer.append((BINDERS[t], (a,)))
            elif t == "case":
                self.pos += 1
                scrut = self.proof(spine=True)
                self.expect("of")
                a1 = self.ident()
                self.expect("=>")
                b1 = self.proof()
                self.expect("|")
                a2 = self.ident()
                self.expect("=>")
                outer.append((Case, (scrut, a1, b1, a2)))
            elif t == "dest":
                self.pos += 1
                scrut = self.proof(spine=True)
                self.expect("as")
                self.expect("[")
                x = self.ident()
                self.expect(",")
                a = self.ident()
                self.expect("]")
                self.expect("in")
                outer.append((Dest, (scrut, x, a)))
            else:
                break
            t = toks[self.pos]
        out = None
        while True:
            prefixes = []
            while (ctor := PREFIX_OPS.get(t)) is not None:
                self.pos += 1
                prefixes.append(ctor)
                t = toks[self.pos]
            self.pos += 1
            if t not in _NOT_NAME:
                arg = Hyp(t)
            elif t == "(":
                arg = self.proof()
                t = toks[self.pos]
                if t == ",":
                    self.pos += 1
                    arg = PPair(arg, self.proof())
                elif t == ":":
                    self.pos += 1
                    arg = Ascribe(arg, self.formula())
                self.expect(")")
            elif t == "[":
                w = self.term()
                self.expect(",")
                arg = ExPair(w, self.proof())
                self.expect("]")
            else:
                raise self.error(f"expected a proof term, found {t or 'end of input'!r}", self.pos - 1)
            while prefixes:
                arg = prefixes.pop()(arg)
            out = arg if out is None else PApp(out, arg)
            while (t := toks[self.pos]) == "@":
                self.pos += 1
                out = TApp(out, self.term(item=True))
            if t in _NOT_PROOF_ARG:
                break
        while outer:
            ctor, fields = outer.pop()
            out = ctor(*fields, out)
        return out


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


# ---------------------------------------------------------------------------
# Source files (.dnsk)


class _Decl(Record):
    """A parsed declaration: a record whose fields can be assigned, and
    which is therefore not hashable."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class PredDecl(_Decl):
    __slots__ = ("name", "sorts")


class FormulaDecl(_Decl):
    __slots__ = ("name", "formula")


class AxiomDecl(_Decl, realizer=None):
    __slots__ = ("name", "formula", "realizer")


class ProofDecl(_Decl):
    __slots__ = ("name", "annotation", "goal", "proof")  # annotation: 'plain' or 'bot'


class TermDecl(_Decl):
    __slots__ = ("name", "sort", "term")


class Directive(_Decl, mode=None):
    __slots__ = ("kind", "name", "mode")  # kind: one of DIRECTIVE_KINDS


class SourceFile(_Decl):
    __slots__ = ("decls",)

    def __init__(self, decls: Optional[list] = None):
        self.decls = [] if decls is None else decls

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
