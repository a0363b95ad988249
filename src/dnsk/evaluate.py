"""Evaluation: term normalization, proof-term reduction with shift/reset,
and a bounded-domain classical formula evaluator used as a brute-force
oracle.

Proof reduction is call-by-value, left to right, and never reduces under
binders.  A ``reset`` whose body is fully evaluated disappears only when the
body contains no latent ``shift``; otherwise the configuration is a normal
form (the delimiter must stay so the judgment remains derivable).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from .syntax import (
    App, Ascribe, Case, Dest, Efq, Eq0, Exists, Forall, Formula, Fst, Hyp,
    Imp, Inl, Inr, KernelError, Lam, NAT, numeral, numeral_value, Or, And,
    Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2, Rec, Reset,
    Bot, Shift, Signature, Snd, Star, Succ, Term, TApp, TLam, ExPair, Var,
    Zero, contains_shift, fresh_name, fv_proof_hyps, subst_formula,
    subst_proof_hyp, subst_proof_term, subst_term,
)
from .typecheck import SortError, infer_term_type


class EvalError(KernelError):
    pass


class IllSorted(EvalError):
    pass


class Stuck(EvalError):
    pass


class FuelExhausted(EvalError):
    pass


# ---------------------------------------------------------------------------
# Term normalization (full normal form; terminates on well-sorted terms)


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


def normalize_term(term_vars: Mapping, t: Term) -> Term:
    """Full beta/projection/recursor normal form of a well-sorted term."""
    try:
        infer_term_type(term_vars, t)
    except SortError as e:
        raise IllSorted(str(e)) from e
    return _nf(t)


# ---------------------------------------------------------------------------
# Proof-term reduction


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


# ---------------------------------------------------------------------------
# Bounded classical evaluation of formulas


class HigherSortQuantifier(EvalError):
    pass


class MissingPredTable(EvalError):
    pass


def eval_formula_bounded(sig: Signature, a: Formula, domain_bound: int,
                         pred_tables: Mapping) -> bool:
    """Classical truth over the finite domain {0..n-1}.

    Every quantifier must range over nat.  pred_tables maps each predicate
    symbol to the set of argument tuples where it holds.  A nat-sorted term
    falling outside the domain makes the enclosing prime formula false."""
    n = domain_bound

    def term_value(t: Term) -> Optional[int]:
        v = numeral_value(_nf(t))
        if v is None:
            raise IllSorted(f"term does not normalize to a numeral: {t!r}")
        return v if 0 <= v < n else None

    def ev(a: Formula) -> bool:
        match a:
            case Bot():
                return False
            case Eq0(l, r):
                lv, rv = term_value(l), term_value(r)
                if lv is None or rv is None:
                    return False
                return lv == rv
            case PredApp(p, args):
                table = pred_tables.get(p)
                if table is None:
                    raise MissingPredTable(f"no table for predicate {p!r}")
                vals = []
                for t in args:
                    v = term_value(t)
                    if v is None:
                        return False
                    vals.append(v)
                return tuple(vals) in table
            case And(l, r):
                return ev(l) and ev(r)
            case Or(l, r):
                return ev(l) or ev(r)
            case Imp(l, r):
                return (not ev(l)) or ev(r)
            case Forall(x, s, b):
                if s != NAT:
                    raise HigherSortQuantifier("bounded evaluation needs nat quantifiers")
                return all(ev(subst_formula(b, x, numeral(k))) for k in range(n))
            case Exists(x, s, b):
                if s != NAT:
                    raise HigherSortQuantifier("bounded evaluation needs nat quantifiers")
                return any(ev(subst_formula(b, x, numeral(k))) for k in range(n))
        raise TypeError(f"not a formula: {a!r}")

    return ev(a)
