"""Deterministic text rendering of sorts, terms, formulas, and proof terms.

The output uses exactly the concrete grammar accepted by the parser, and
``parse(print(v))`` is alpha-equal to ``v`` for all four categories.

Each category has one walker, ``_type``, ``_term``, ``_formula`` and
``_proof``, that dispatches on ``type(node)`` and returns the node's text
without outer parentheses together with the precedence level that text can
stand at; the caller parenthesizes it where it stands at a higher precedence.
One call of a ``print_*`` function keeps ``memos``, one dict per category in
the order sort, term, formula, that maps id(node) -> (text, level) for the
compound nodes it renders, so a subtree shared in the node graph (one
witness sort in two places of a ``dia_types`` sort, one flag term in both
halves of a disjunction clause) is rendered once.  The translations build
such sharing, and their sorts and formulas take up to 1.8 times as long to
print without these memos.  Proof terms keep none: on reduction traces and
on parsed proofs, filling that memo cost more than the sharing it found
saved.
The memos are apart so that a node met in the wrong category raises
``TypeError`` even after it was rendered in its own.  The root holds every
node for the length of the call, so no id is reused.
The texts of operators, binders and quantifiers come from the parser's
tables: ``SORT_OPS`` and ``FORMULA_OPS`` for the infix operators, of which
one routine renders a right-nested chain, and ``PREFIX_OPS``, ``BINDERS``
and ``QUANTIFIERS``.  Those chains, ``~`` chains, ``Succ``
chains, ``.1``/``.2`` chains, chains of proof prefix operators and the left
spines of applications are rendered in loops, so their length does not meet
the recursion limit.
"""

from __future__ import annotations

import sys

from .parser import BINDERS, FORMULA_OPS, PREFIX_OPS, QUANTIFIERS, SORT_OPS
from .syntax import (
    And, App, Arrow, Ascribe, Bot, Case, Dest, Eq0, ExPair, Exists, Forall,
    Formula, Hyp, Imp, Lam, Nat, Or, Pair, PApp, PLam, PPair, PredApp,
    ProofTerm, Proj1, Proj2, Prod, Rec, Reset, Shift, SimpleType, Star,
    Succ, Term, TApp, TLam, Unit, Var, Zero,
)

# the level of text that stands unparenthesized at any precedence
_ATOM = sys.maxsize
_NAT = ("nat", _ATOM)
_UNIT = ("unit", _ATOM)
_ZERO = ("0", _ATOM)
_STAR = ("star", _ATOM)
_BOT = ("bot", _ATOM)
# the texts of the parser's proof prefix operators (which take their
# argument at their own level), proof binders and quantifiers, by constructor
_PREFIX = {ctor: f"{text} " for text, ctor in PREFIX_OPS.items()}
_WORD = {ctor: text for table in (BINDERS, QUANTIFIERS) for text, ctor in table.items()}
# the parser's infix operators by constructor: (" text ", level)
_INFIX = {ctor: (f" {text} ", level)
          for ops in (SORT_OPS, FORMULA_OPS) for text, (level, ctor) in ops.items()}


def print_type(t: SimpleType, prec: int = 0) -> str:
    text, level = _type(t, ({}, {}, {}))
    return text if level >= prec else f"({text})"


def print_term(t: Term, prec: int = 0) -> str:
    text, level = _term(t, ({}, {}, {}))
    return text if level >= prec else f"({text})"


def print_formula(a: Formula, prec: int = 0) -> str:
    text, level = _formula(a, ({}, {}, {}))
    return text if level >= prec else f"({text})"


def print_proof(p: ProofTerm, prec: int = 0) -> str:
    text, level = _proof(p, ({}, {}, {}))
    return text if level >= prec else f"({text})"


def _type(t: SimpleType, memos: tuple) -> tuple:
    # levels: 0 arrow, 1 product, _ATOM atom
    cls = type(t)
    if cls is Unit:
        return _UNIT
    if cls is Nat:
        return _NAT
    memo = memos[0]
    key = id(t)
    out = memo.get(key)
    if out is not None:
        return out
    if cls is not Arrow and cls is not Prod:
        raise TypeError(f"not a sort: {t!r}")
    memo[key] = out = _infix(t, _type, memos, memo)
    return out


def _infix(x, walk, memos: tuple, memo: dict) -> tuple:
    """The right-nested chain of one infix operator from ``x`` down, read in
    a loop: each left operand stands above the operator's level, the last
    right one at it.  A ``~`` or a node already rendered ends the chain."""
    cls = type(x)
    text, level = _INFIX[cls]
    parts = []
    while True:
        # by name, not through Record._values, which is slower
        l, x = (x.dom, x.cod) if cls is Arrow else (x.left, x.right)
        l, at = walk(l, memos)
        parts.append(l if at > level else f"({l})")
        if type(x) is not cls or id(x) in memo or cls is Imp and type(x.right) is Bot:
            break
    r, at = walk(x, memos)
    parts.append(r if at >= level else f"({r})")
    return text.join(parts), level


def _term(t: Term, memos: tuple) -> tuple:
    # levels: 0 fun, 1 application and S, _ATOM postfix and atom
    cls = type(t)
    if cls is Var:
        return t.name, _ATOM
    if cls is Zero:
        return _ZERO
    if cls is Star:
        return _STAR
    memo = memos[1]
    key = id(t)
    out = memo.get(key)
    if out is not None:
        return out
    if cls is Proj2 or cls is Proj1:
        # the projections are met outermost first: their text is collected
        # reversed and turned round once
        tail, a = "", t
        while (k := type(a)) is Proj1 or k is Proj2:
            tail += "1." if k is Proj1 else "2."
            a = a.arg
        a, level = _term(a, memos)
        out = ((a if level >= 2 else f"({a})") + tail[::-1], _ATOM)
    elif cls is Succ:
        n, a = 1, t.arg
        while type(a) is Succ:
            n, a = n + 1, a.arg
        a, level = _term(a, memos)
        if level < 2:
            a = f"({a})"
        out = ("S (" * (n - 1) + "S " + a + ")" * (n - 1), 1)
    elif cls is App:
        args, f = [], t
        while type(f) is App:
            args.append(f.arg)
            f = f.fn
        f, level = _term(f, memos)
        parts = [f if level >= 1 else f"({f})"]
        for a in reversed(args):
            a, level = _term(a, memos)
            parts.append(a if level >= 2 else f"({a})")
        out = (" ".join(parts), 1)
    elif cls is Lam:
        out = (f"fun ({t.var}:{_type(t.sort, memos)[0]}) => {_term(t.body, memos)[0]}", 0)
    elif cls is Pair:
        out = (f"({_term(t.fst, memos)[0]}, {_term(t.snd, memos)[0]})", _ATOM)
    elif cls is Rec:
        out = (
            f"rec[{_type(t.sort, memos)[0]}]({_term(t.scrut, memos)[0]}; "
            f"{_term(t.base, memos)[0]}; {_term(t.step, memos)[0]})",
            _ATOM,
        )
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[key] = out
    return out


def _formula(a: Formula, memos: tuple) -> tuple:
    # levels: 0 quantifiers, 1 ->, 2 \/, 3 /\, 4 ~, _ATOM atom
    cls = type(a)
    if cls is Bot:
        return _BOT
    memo = memos[2]
    key = id(a)
    out = memo.get(key)
    if out is not None:
        return out
    if cls is Imp and type(a.right) is Bot:
        n, a = 1, a.left
        while type(a) is Imp and type(a.right) is Bot:
            n, a = n + 1, a.left
        l, level = _formula(a, memos)
        out = ("~" * n + (l if level >= 4 else f"({l})"), 4)
    elif cls is Imp or cls is And or cls is Or:
        out = _infix(a, _formula, memos, memo)
    elif cls is PredApp:
        if a.args:
            out = (f"{a.sym}({', '.join([_term(t, memos)[0] for t in a.args])})", _ATOM)
        else:
            out = (a.sym, _ATOM)
    elif cls is Eq0:
        l, level = _term(a.lhs, memos)
        # an application on the left of '=' would read as a predicate
        # application, so it is parenthesized
        if level < 1 or type(a.lhs) is App:
            l = f"({l})"
        r, level = _term(a.rhs, memos)
        if level < 1:
            r = f"({r})"
        out = (f"{l} = {r}", _ATOM)
    elif cls is Forall or cls is Exists:
        out = (f"{_WORD[cls]} {a.var}:{_type(a.sort, memos)[0]}. {_formula(a.body, memos)[0]}", 0)
    else:
        raise TypeError(f"not a formula: {a!r}")
    memo[key] = out
    return out


def _proof(p: ProofTerm, memos: tuple) -> tuple:
    # levels: 0 binders, 1 application, 2 prefix, _ATOM atom
    cls = type(p)
    if cls is Hyp:
        return p.name, _ATOM
    if cls is PLam or cls is TLam or cls is Shift:
        return f"{_WORD[cls]} {p.var if cls is TLam else p.hyp} => {_proof(p.body, memos)[0]}", 0
    if cls is PApp or cls is TApp:
        spine, f = [], p
        while type(f) is PApp or type(f) is TApp:
            spine.append(f)
            f = f.fn
        f, level = _proof(f, memos)
        parts = [f if level >= 1 else f"({f})"]
        for node in reversed(spine):
            if type(node) is PApp:
                a, level = _proof(node.arg, memos)
                parts.append(f" {a}" if level >= 2 else f" ({a})")
            else:
                a, level = _term(node.arg, memos)
                parts.append(f" @ {a}" if level >= 2 else f" @ ({a})")
        return "".join(parts), 1
    if cls is ExPair:
        return f"[{_term(p.witness, memos)[0]}, {_proof(p.body, memos)[0]}]", _ATOM
    if cls is Ascribe:
        return f"({_proof(p.body, memos)[0]} : {_formula(p.formula, memos)[0]})", _ATOM
    if cls is PPair:
        return f"({_proof(p.fst, memos)[0]}, {_proof(p.snd, memos)[0]})", _ATOM
    if cls in _PREFIX:
        words, b = [], p
        while (word := _PREFIX.get(type(b))) is not None:
            words.append(word)
            b = b.body if type(b) is Reset else b.arg
        b, level = _proof(b, memos)
        return "".join(words) + (b if level >= 2 else f"({b})"), 2
    if cls is Dest or cls is Case:
        sc, level = _proof(p.scrut, memos)
        if level < 1:
            sc = f"({sc})"
        if cls is Dest:
            return f"dest {sc} as [{p.var}, {p.hyp}] in {_proof(p.body, memos)[0]}", 0
        return (f"case {sc} of {p.left_name} => {_proof(p.left, memos)[0]}"
                f" | {p.right_name} => {_proof(p.right, memos)[0]}", 0)
    raise TypeError(f"not a proof term: {p!r}")
