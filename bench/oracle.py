"""Computations made apart from the program, used to check its answers.

Nothing here calls into ``dnsk``: terms and formulas are read through their
dataclass fields only.  Terms are evaluated over Python integers, tuples and
closures in an environment, so the bounded evaluator shares no code (and no
substitution) with ``dnsk.evaluate``.
"""

from __future__ import annotations

from dnsk.syntax import (
    And, App, Arrow, Bot, Eq0, Exists, Forall, Imp, Lam, Nat, Or, Pair,
    PredApp, Prod, Proj1, Proj2, Rec, Star, Succ, Unit, Var, Zero,
)


def numeral_int(t):
    """The integer a literal numeral denotes, or None."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


def term_value(t, env: dict):
    """The value of a closed-under-``env`` System T term."""
    match t:
        case Var(x):
            return env[x]
        case Zero():
            return 0
        case Star():
            return ()
        case Succ(a):
            return term_value(a, env) + 1
        case Lam(x, _, b):
            return lambda v: term_value(b, {**env, x: v})
        case App(f, a):
            return term_value(f, env)(term_value(a, env))
        case Pair(a, b):
            return (term_value(a, env), term_value(b, env))
        case Proj1(a):
            return term_value(a, env)[0]
        case Proj2(a):
            return term_value(a, env)[1]
        case Rec(_, n, b, st):
            count, acc, step = term_value(n, env), term_value(b, env), term_value(st, env)
            for i in range(count):
                acc = step(i)(acc)
            return acc
    raise TypeError(f"not a term: {t!r}")


def formula_holds(a, bound: int, tables: dict, env: dict | None = None) -> bool:
    """Classical truth over {0..bound-1}; a prime formula with a nat term
    outside the domain is false."""
    env = env or {}

    def val(t):
        v = term_value(t, env)
        return v if 0 <= v < bound else None

    match a:
        case Bot():
            return False
        case Eq0(l, r):
            lv, rv = val(l), val(r)
            return lv is not None and lv == rv
        case PredApp(p, args):
            vals = tuple(val(t) for t in args)
            return None not in vals and vals in tables[p]
        case And(l, r):
            return formula_holds(l, bound, tables, env) and formula_holds(r, bound, tables, env)
        case Or(l, r):
            return formula_holds(l, bound, tables, env) or formula_holds(r, bound, tables, env)
        case Imp(l, r):
            return (not formula_holds(l, bound, tables, env)) or formula_holds(r, bound, tables, env)
        case Forall(x, _, b):
            return all(formula_holds(b, bound, tables, {**env, x: k}) for k in range(bound))
        case Exists(x, _, b):
            return any(formula_holds(b, bound, tables, {**env, x: k}) for k in range(bound))
    raise TypeError(f"not a formula: {a!r}")


def realizer_sort(a):
    """The sort of a realizer of ``a``: unit for primes, pairs for /\\ and
    exists (realizer first, witness second), a flagged pair of pairs for \\/,
    arrows for -> and forall."""
    match a:
        case And(l, r):
            return Prod(realizer_sort(l), realizer_sort(r))
        case Or(l, r):
            return Prod(Prod(realizer_sort(l), realizer_sort(r)), Nat())
        case Imp(l, r):
            return Arrow(realizer_sort(l), realizer_sort(r))
        case Exists(_, s, b):
            return Prod(realizer_sort(b), s)
        case Forall(_, s, b):
            return Arrow(s, realizer_sort(b))
        case _:
            return Unit()


def witness_challenge_sorts(a):
    """(witness sort, challenge sort) of the witness/challenge translation."""
    match a:
        case And(l, r):
            (wl, cl), (wr, cr) = witness_challenge_sorts(l), witness_challenge_sorts(r)
            return Prod(wl, wr), Prod(cl, cr)
        case Or(l, r):
            (wl, cl), (wr, cr) = witness_challenge_sorts(l), witness_challenge_sorts(r)
            return Prod(Prod(wl, wr), Nat()), Prod(cl, cr)
        case Imp(l, r):
            (wl, cl), (wr, cr) = witness_challenge_sorts(l), witness_challenge_sorts(r)
            return Prod(Arrow(wl, wr), Arrow(wl, Arrow(cr, cl))), Prod(wl, cr)
        case Exists(_, s, b):
            w, c = witness_challenge_sorts(b)
            return Prod(w, s), c
        case Forall(_, s, b):
            w, c = witness_challenge_sorts(b)
            return Arrow(s, w), Prod(c, s)
        case _:
            return Unit(), Unit()


def derivation_nodes(d) -> int:
    """Number of rule applications in a derivation tree."""
    n, stack = 0, [d]
    while stack:
        e = stack.pop()
        n += 1
        stack.extend(e.children)
    return n
