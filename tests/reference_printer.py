"""The printer that type-keyed walkers with a per-call sharing memo in
``dnsk.printer`` replaced: four recursive ``match`` functions, which render
a shared subtree once per occurrence and recurse once per link of a
``Succ`` chain, a prefix chain or an application spine.  Kept verbatim, but
for its imports, as the oracle of ``test_printer_diff.py``.

Deterministic text rendering of sorts, terms, formulas, and proof terms.

The output uses exactly the concrete grammar accepted by the parser, and
``parse(print(v))`` is alpha-equal to ``v`` for all four categories.
"""

from __future__ import annotations

from dnsk.syntax import (
    And, App, Arrow, Ascribe, Bot, Case, Dest, Efq, Eq0, ExPair, Exists,
    Forall, Formula, Fst, Hyp, Imp, Inl, Inr, Lam, Nat, Or, Pair, PApp,
    PLam, PPair, PredApp, ProofTerm, Proj1, Proj2, Prod, Rec, Reset, Shift,
    SimpleType, Snd, Star, Succ, Term, TApp, TLam, Unit, Var, Zero,
)


def print_type(t: SimpleType, prec: int = 0) -> str:
    # precedence: 0 arrow, 1 product, 2 atom
    match t:
        case Nat():
            return "nat"
        case Unit():
            return "unit"
        case Arrow(d, c):
            s = f"{print_type(d, 1)} -> {print_type(c, 0)}"
            return f"({s})" if prec > 0 else s
        case Prod(l, r):
            s = f"{print_type(l, 2)} * {print_type(r, 1)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not a sort: {t!r}")


def print_term(t: Term, prec: int = 0) -> str:
    # precedence: 0 fun, 1 application, 2 postfix/atom
    match t:
        case Var(x):
            return x
        case Star():
            return "star"
        case Zero():
            return "0"
        case Lam(x, s, b):
            out = f"fun ({x}:{print_type(s)}) => {print_term(b, 0)}"
            return f"({out})" if prec > 0 else out
        case App(f, a):
            out = f"{print_term(f, 1)} {print_term(a, 2)}"
            return f"({out})" if prec > 1 else out
        case Succ(a):
            out = f"S {print_term(a, 2)}"
            return f"({out})" if prec > 1 else out
        case Proj1(a):
            return f"{print_term(a, 2)}.1"
        case Proj2(a):
            return f"{print_term(a, 2)}.2"
        case Pair(a, b):
            return f"({print_term(a, 0)}, {print_term(b, 0)})"
        case Rec(s, n, b, st):
            return (
                f"rec[{print_type(s)}]({print_term(n, 0)}; "
                f"{print_term(b, 0)}; {print_term(st, 0)})"
            )
    raise TypeError(f"not a term: {t!r}")


def print_formula(a: Formula, prec: int = 0) -> str:
    # precedence: 0 quantifiers, 1 ->, 2 \/, 3 /\, 4 ~, 5 atom
    match a:
        case Bot():
            return "bot"
        case Eq0(l, r):
            # an application on the left of '=' would read as a predicate
            # application, so it is parenthesized
            lhs = print_term(l, 2) if isinstance(l, App) else print_term(l, 1)
            return f"{lhs} = {print_term(r, 1)}"
        case PredApp(p, args):
            if not args:
                return p
            return f"{p}({', '.join(print_term(t, 0) for t in args)})"
        case Imp(l, Bot()):
            out = f"~{print_formula(l, 4)}"
            return f"({out})" if prec > 4 else out
        case Imp(l, r):
            out = f"{print_formula(l, 2)} -> {print_formula(r, 1)}"
            return f"({out})" if prec > 1 else out
        case Or(l, r):
            out = f"{print_formula(l, 3)} \\/ {print_formula(r, 2)}"
            return f"({out})" if prec > 2 else out
        case And(l, r):
            out = f"{print_formula(l, 4)} /\\ {print_formula(r, 3)}"
            return f"({out})" if prec > 3 else out
        case Forall(x, s, b):
            out = f"forall {x}:{print_type(s)}. {print_formula(b, 0)}"
            return f"({out})" if prec > 0 else out
        case Exists(x, s, b):
            out = f"exists {x}:{print_type(s)}. {print_formula(b, 0)}"
            return f"({out})" if prec > 0 else out
    raise TypeError(f"not a formula: {a!r}")


def print_proof(p: ProofTerm, prec: int = 0) -> str:
    # precedence: 0 binders, 1 application, 2 prefix, 3 atom
    match p:
        case Hyp(a):
            return a
        case PLam(a, b):
            out = f"fun {a} => {print_proof(b, 0)}"
            return f"({out})" if prec > 0 else out
        case TLam(x, b):
            out = f"tfun {x} => {print_proof(b, 0)}"
            return f"({out})" if prec > 0 else out
        case Shift(k, b):
            out = f"shift {k} => {print_proof(b, 0)}"
            return f"({out})" if prec > 0 else out
        case Case(sc, a1, b1, a2, b2):
            out = (
                f"case {print_proof(sc, 1)} of {a1} => {print_proof(b1, 0)}"
                f" | {a2} => {print_proof(b2, 0)}"
            )
            return f"({out})" if prec > 0 else out
        case Dest(sc, x, a, b):
            out = f"dest {print_proof(sc, 1)} as [{x}, {a}] in {print_proof(b, 0)}"
            return f"({out})" if prec > 0 else out
        case PApp(f, a):
            out = f"{print_proof(f, 1)} {print_proof(a, 2)}"
            return f"({out})" if prec > 1 else out
        case TApp(f, t):
            out = f"{print_proof(f, 1)} @ {print_term(t, 2)}"
            return f"({out})" if prec > 1 else out
        case Fst(b):
            out = f"fst {print_proof(b, 2)}"
            return f"({out})" if prec > 2 else out
        case Snd(b):
            out = f"snd {print_proof(b, 2)}"
            return f"({out})" if prec > 2 else out
        case Inl(b):
            out = f"inl {print_proof(b, 2)}"
            return f"({out})" if prec > 2 else out
        case Inr(b):
            out = f"inr {print_proof(b, 2)}"
            return f"({out})" if prec > 2 else out
        case Efq(b):
            out = f"efq {print_proof(b, 2)}"
            return f"({out})" if prec > 2 else out
        case Reset(b):
            out = f"reset {print_proof(b, 2)}"
            return f"({out})" if prec > 2 else out
        case PPair(f, s):
            return f"({print_proof(f, 0)}, {print_proof(s, 0)})"
        case ExPair(t, b):
            return f"[{print_term(t, 0)}, {print_proof(b, 0)}]"
        case Ascribe(b, f):
            return f"({print_proof(b, 0)} : {print_formula(f, 0)})"
    raise TypeError(f"not a proof term: {p!r}")
