"""Two evaluators that ``dnsk.evaluate`` replaced, kept verbatim as oracles.

The proof-term reducer the refocused machine replaced: one CBV step at a
time from the root, with a shift reaching its reset as a re-raised
exception.  It is the oracle of ``test_proof_machine.py``; its fuel admits
one step fewer than the machine's.

The term normalizer normalization by evaluation replaced, ``_nf``: it
normalizes both sides of an application and substitutes, renormalizing the
result.  It is the oracle of ``test_nbe.py``; its substitution is the old
one from ``reference_syntax``."""

from __future__ import annotations

from typing import Callable

from dnsk.evaluate import FuelExhausted, Stuck, subst_proof_hyp, subst_proof_term
from dnsk.syntax import (
    App, Ascribe, Case, Dest, Efq, ExPair, Forall, Fst, Hyp, Imp, Inl, Inr,
    Lam, PApp, Pair, PLam, PPair, ProofTerm, Proj1, Proj2, Rec, Reset, Shift,
    Snd, Star, Succ, TApp, Term, TLam, Var, Zero, contains_shift, fresh_name,
    fv_proof_hyps, subst_formula,
)
from reference_syntax import subst_term


def _nf(t: Term) -> Term:
    match t:
        case Var(_) | Zero() | Star():
            return t
        case Succ(a):
            return Succ(_nf(a))
        case Lam(x, s, b):
            return Lam(x, s, _nf(b))
        case App(f, a):
            f = _nf(f)
            a = _nf(a)
            if isinstance(f, Lam):
                return _nf(subst_term(f.body, f.var, a))
            return App(f, a)
        case Pair(a, b):
            return Pair(_nf(a), _nf(b))
        case Proj1(a):
            a = _nf(a)
            return a.fst if isinstance(a, Pair) else Proj1(a)
        case Proj2(a):
            a = _nf(a)
            return a.snd if isinstance(a, Pair) else Proj2(a)
        case Rec(s, n, b, st):
            n = _nf(n)
            b = _nf(b)
            st = _nf(st)
            if isinstance(n, Zero):
                return b
            if isinstance(n, Succ):
                return _nf(App(App(st, n.arg), Rec(s, n.arg, b, st)))
            return Rec(s, n, b, st)
    raise TypeError(f"not a term: {t!r}")


def _unwrap(p: ProofTerm) -> ProofTerm:
    while isinstance(p, Ascribe):
        p = p.body
    return p


class _ShiftCapture(Exception):
    def __init__(self, hyp: str, body: ProofTerm, context: Callable):
        self.hyp = hyp
        self.body = body
        self.context = context


def _step(p: ProofTerm):
    """One CBV step, or None when p is a normal form.

    Raises _ShiftCapture when a shift is in evaluation position; the nearest
    enclosing reset handles it, and the top level turns it into Stuck."""

    def sub(q: ProofTerm, rebuild: Callable):
        try:
            r = _step(q)
        except _ShiftCapture as sc:
            inner = sc.context
            raise _ShiftCapture(sc.hyp, sc.body, lambda h: rebuild(inner(h)))
        return None if r is None else rebuild(r)

    match p:
        case Hyp(_) | PLam(_, _) | TLam(_, _):
            return None
        case Shift(k, body):
            raise _ShiftCapture(k, body, lambda h: h)
        case PPair(f, s):
            r = sub(f, lambda f2: PPair(f2, s))
            if r is not None:
                return r
            return sub(s, lambda s2: PPair(f, s2))
        case Inl(q):
            return sub(q, Inl)
        case Inr(q):
            return sub(q, Inr)
        case ExPair(t, q):
            return sub(q, lambda q2: ExPair(t, q2))
        case Ascribe(q, f):
            return sub(q, lambda q2: Ascribe(q2, f))
        case Fst(q):
            r = sub(q, Fst)
            if r is not None:
                return r
            inner = _unwrap(q)
            if isinstance(inner, PPair):
                return inner.fst
            return None
        case Snd(q):
            r = sub(q, Snd)
            if r is not None:
                return r
            inner = _unwrap(q)
            if isinstance(inner, PPair):
                return inner.snd
            return None
        case Efq(q):
            return sub(q, Efq)
        case PApp(f, a):
            r = sub(f, lambda f2: PApp(f2, a))
            if r is not None:
                return r
            r = sub(a, lambda a2: PApp(f, a2))
            if r is not None:
                return r
            fn = _unwrap(f)
            if isinstance(fn, PLam):
                reduct = subst_proof_hyp(fn.body, fn.hyp, a)
                # keep the ascription on the reduct so that a redex in
                # synthesis position stays synthesizable after the step
                if isinstance(f, Ascribe) and isinstance(f.formula, Imp):
                    return Ascribe(reduct, f.formula.right)
                return reduct
            return None
        case TApp(f, t):
            r = sub(f, lambda f2: TApp(f2, t))
            if r is not None:
                return r
            fn = _unwrap(f)
            if isinstance(fn, TLam):
                reduct = subst_proof_term(fn.body, fn.var, t)
                if isinstance(f, Ascribe) and isinstance(f.formula, Forall):
                    return Ascribe(
                        reduct, subst_formula(f.formula.body, f.formula.var, t))
                return reduct
            return None
        case Case(sc, a1, b1, a2, b2):
            r = sub(sc, lambda s2: Case(s2, a1, b1, a2, b2))
            if r is not None:
                return r
            inner = _unwrap(sc)
            if isinstance(inner, Inl):
                return subst_proof_hyp(b1, a1, inner.arg)
            if isinstance(inner, Inr):
                return subst_proof_hyp(b2, a2, inner.arg)
            return None
        case Dest(sc, x, a, body):
            r = sub(sc, lambda s2: Dest(s2, x, a, body))
            if r is not None:
                return r
            inner = _unwrap(sc)
            if isinstance(inner, ExPair):
                return subst_proof_hyp(subst_proof_term(body, x, inner.witness), a, inner.body)
            return None
        case Reset(body):
            try:
                r = _step(body)
            except _ShiftCapture as sc:
                # reify the captured delimiter-free context as a function
                # hypothesis, keeping the delimiter on both sides
                a = fresh_name("a", fv_proof_hyps(body) | {sc.hyp})
                cont = PLam(a, Reset(sc.context(Hyp(a))))
                return Reset(subst_proof_hyp(sc.body, sc.hyp, cont))
            if r is not None:
                return Reset(r)
            if not contains_shift(body):
                return body
            return None
    raise TypeError(f"not a proof term: {p!r}")


def normalize_proof(p: ProofTerm, fuel: int = 10000, trace: bool = False):
    """Reduce to a normal form within ``fuel`` steps.

    Returns the normal form, or (normal form, trace list) when trace=True.
    The trace includes the initial and every subsequent configuration."""
    steps = [p]
    for _ in range(fuel):
        try:
            nxt = _step(p)
        except _ShiftCapture:
            raise Stuck("shift with no enclosing reset")
        if nxt is None:
            return (p, steps) if trace else p
        p = nxt
        steps.append(p)
    raise FuelExhausted(f"no normal form within {fuel} steps")
