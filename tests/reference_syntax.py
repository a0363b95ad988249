"""The hand-written proof traversals the slot table in ``dnsk.syntax``
replaced, kept verbatim as the oracle of ``test_proof_traversals.py``; the
term and formula substitutions that recomputed the replacement's free
variables at every binder, kept verbatim as the oracle of ``test_nbe.py``;
and the free-variable, alpha-equivalence and realizer-sort walkers that
dispatched on class patterns with ``match``, kept verbatim as the oracle of
``test_walkers_diff.py``.  The substitutions and proof traversals here call
these copies."""

from __future__ import annotations

from typing import Optional

from dnsk.syntax import (
    NAT, UNIT, And, App, Arrow, Ascribe, Bot, Case, Dest, Efq, Eq0, Exists, ExPair, Forall,
    Formula, Fst, Hyp, Imp, Inl, Inr, Lam, Or, PApp, Pair, PLam, PPair, PredApp, Prod,
    ProofTerm, Proj1, Proj2, Rec, Reset, Shift, SimpleType, Snd, Star, Succ, TApp, TLam,
    Term, Var, Zero, _NO_NAMES, _aeq_var, fresh_name, is_prime,
)


def fv_term(t: Term, memo: Optional[dict] = None) -> frozenset:
    """Free variables of a term.  ``memo``, kept by a caller for the length
    of one call, maps id(node) to (node, free variables) for every node
    walked (the node is held so that its id is not reused), so a subterm
    shared by many terms is walked once."""
    if memo is not None:
        entry = memo.get(id(t))
        if entry is not None:
            return entry[1]
    match t:
        case Var(x):
            out = frozenset((x,))
        case Lam(x, _, b):
            out = fv_term(b, memo) - {x}
        case App(f, a):
            out = fv_term(f, memo) | fv_term(a, memo)
        case Pair(a, b):
            out = fv_term(a, memo) | fv_term(b, memo)
        case Proj1(a) | Proj2(a):
            out = fv_term(a, memo)
        case Succ(a):
            while a.__class__ is Succ:
                a = a.arg
            out = fv_term(a, memo)
        case Rec(_, n, b, s):
            out = fv_term(n, memo) | fv_term(b, memo) | fv_term(s, memo)
        case _:
            return _NO_NAMES
    if memo is not None:
        memo[id(t)] = (t, out)
    return out


def _aeq_term(a: Term, b: Term, ea, eb, n: int) -> bool:
    match a, b:
        case (Var(x), Var(y)):
            return _aeq_var(x, y, ea, eb)
        case (Lam(x, s, p), Lam(y, t, q)):
            return s == t and _aeq_term(p, q, {**ea, x: n}, {**eb, y: n}, n + 1)
        case (App(f, u), App(g, v)):
            return _aeq_term(f, g, ea, eb, n) and _aeq_term(u, v, ea, eb, n)
        case (Pair(u, v), Pair(u2, v2)):
            return _aeq_term(u, u2, ea, eb, n) and _aeq_term(v, v2, ea, eb, n)
        case (Proj1(u), Proj1(v)) | (Proj2(u), Proj2(v)) | (Succ(u), Succ(v)):
            return _aeq_term(u, v, ea, eb, n)
        case (Star(), Star()) | (Zero(), Zero()):
            return True
        case (Rec(s, n1, b1, s1), Rec(t, n2, b2, s2)):
            return (
                s == t
                and _aeq_term(n1, n2, ea, eb, n)
                and _aeq_term(b1, b2, ea, eb, n)
                and _aeq_term(s1, s2, ea, eb, n)
            )
        case _:
            return False


def fv_formula(a: Formula, memo: Optional[dict] = None) -> frozenset:
    """Free variables of a formula; ``memo`` as in fv_term, shared by both."""
    if memo is not None:
        entry = memo.get(id(a))
        if entry is not None:
            return entry[1]
    match a:
        case Eq0(l, r):
            out = fv_term(l, memo) | fv_term(r, memo)
        case PredApp(_, args):
            out = _NO_NAMES
            for t in args:
                out = out | fv_term(t, memo)
        case And(l, r) | Or(l, r) | Imp(l, r):
            out = fv_formula(l, memo) | fv_formula(r, memo)
        case Forall(x, _, b) | Exists(x, _, b):
            out = fv_formula(b, memo) - {x}
        case _:
            return _NO_NAMES
    if memo is not None:
        memo[id(a)] = (a, out)
    return out


def _aeq_formula(a: Formula, b: Formula, ea, eb, n: int) -> bool:
    match a, b:
        case (Bot(), Bot()):
            return True
        case (Eq0(l1, r1), Eq0(l2, r2)):
            return _aeq_term(l1, l2, ea, eb, n) and _aeq_term(r1, r2, ea, eb, n)
        case (PredApp(p, xs), PredApp(q, ys)):
            return (
                p == q
                and len(xs) == len(ys)
                and all(_aeq_term(u, v, ea, eb, n) for u, v in zip(xs, ys))
            )
        case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)) | (Imp(l1, r1), Imp(l2, r2)):
            return _aeq_formula(l1, l2, ea, eb, n) and _aeq_formula(r1, r2, ea, eb, n)
        case (Forall(x, s, p), Forall(y, t, q)) | (Exists(x, s, p), Exists(y, t, q)):
            if type(a) is not type(b):
                return False
            return s == t and _aeq_formula(p, q, {**ea, x: n}, {**eb, y: n}, n + 1)
        case _:
            return False


def mr_type(a: Formula, memo: Optional[dict] = None) -> SimpleType:
    """Realizer sort; depends only on the logical skeleton of the formula.
    ``memo``, kept by a caller for the length of one call, maps id(node) to
    (node, sort) for every subformula whose sort was computed (the node is
    held so that its id is not reused), as in syntax.fv_term."""
    if memo is not None:
        entry = memo.get(id(a))
        if entry is not None:
            return entry[1]
    match a:
        case _ if is_prime(a):
            return UNIT
        case And(l, r):
            out = Prod(mr_type(l, memo), mr_type(r, memo))
        case Or(l, r):
            out = Prod(Prod(mr_type(l, memo), mr_type(r, memo)), NAT)
        case Imp(l, r):
            out = Arrow(mr_type(l, memo), mr_type(r, memo))
        case Exists(_, s, b):
            out = Prod(mr_type(b, memo), s)
        case Forall(_, s, b):
            out = Arrow(s, mr_type(b, memo))
        case _:
            raise TypeError(f"not a formula: {a!r}")
    if memo is not None:
        memo[id(a)] = (a, out)
    return out



def subst_term(t: Term, x: str, r: Term) -> Term:
    """Capture-avoiding substitution t[x := r]."""
    match t:
        case Var(y):
            return r if y == x else t
        case Lam(y, s, b):
            if y == x:
                return t
            if y in fv_term(r) and x in fv_term(b):
                y2 = fresh_name(y, fv_term(r) | fv_term(b) | {x})
                b = subst_term(b, y, Var(y2))
                y = y2
            return Lam(y, s, subst_term(b, x, r))
        case App(f, a):
            return App(subst_term(f, x, r), subst_term(a, x, r))
        case Pair(a, b):
            return Pair(subst_term(a, x, r), subst_term(b, x, r))
        case Proj1(a):
            return Proj1(subst_term(a, x, r))
        case Proj2(a):
            return Proj2(subst_term(a, x, r))
        case Succ(a):
            return Succ(subst_term(a, x, r))
        case Rec(s, n, b, st):
            return Rec(s, subst_term(n, x, r), subst_term(b, x, r), subst_term(st, x, r))
        case _:
            return t


def subst_formula(a: Formula, x: str, r: Term) -> Formula:
    """Capture-avoiding substitution A[x := r] over both quantifier binders."""
    match a:
        case Eq0(l, rr):
            return Eq0(subst_term(l, x, r), subst_term(rr, x, r))
        case PredApp(p, args):
            return PredApp(p, tuple(subst_term(t, x, r) for t in args))
        case And(l, rr) | Or(l, rr) | Imp(l, rr):
            return type(a)(subst_formula(l, x, r), subst_formula(rr, x, r))
        case Forall(y, s, b) | Exists(y, s, b):
            if y == x:
                return a
            if y in fv_term(r) and x in fv_formula(b):
                y2 = fresh_name(y, fv_term(r) | fv_formula(b) | {x})
                b = subst_formula(b, y, Var(y2))
                y = y2
            return type(a)(y, s, subst_formula(b, x, r))
        case _:
            return a


def fv_proof_hyps(p: ProofTerm) -> frozenset:
    """Free hypothesis names of a proof term."""
    match p:
        case Hyp(a):
            return frozenset((a,))
        case PPair(f, s):
            return fv_proof_hyps(f) | fv_proof_hyps(s)
        case Fst(q) | Snd(q) | Inl(q) | Inr(q) | Efq(q) | Reset(q):
            return fv_proof_hyps(q)
        case Case(sc, a1, b1, a2, b2):
            return fv_proof_hyps(sc) | (fv_proof_hyps(b1) - {a1}) | (fv_proof_hyps(b2) - {a2})
        case PLam(a, b) | Shift(a, b):
            return fv_proof_hyps(b) - {a}
        case PApp(f, a):
            return fv_proof_hyps(f) | fv_proof_hyps(a)
        case TLam(_, b):
            return fv_proof_hyps(b)
        case TApp(f, _):
            return fv_proof_hyps(f)
        case ExPair(_, b):
            return fv_proof_hyps(b)
        case Dest(sc, _, a, b):
            return fv_proof_hyps(sc) | (fv_proof_hyps(b) - {a})
        case Ascribe(b, _):
            return fv_proof_hyps(b)
        case _:
            return frozenset()


def fv_proof_termvars(p: ProofTerm) -> frozenset:
    """Free individual-variable names occurring in a proof term."""
    match p:
        case Hyp(_):
            return frozenset()
        case PPair(f, s) | PApp(f, s):
            return fv_proof_termvars(f) | fv_proof_termvars(s)
        case Fst(q) | Snd(q) | Inl(q) | Inr(q) | Efq(q) | Reset(q):
            return fv_proof_termvars(q)
        case Case(sc, _, b1, _, b2):
            return fv_proof_termvars(sc) | fv_proof_termvars(b1) | fv_proof_termvars(b2)
        case PLam(_, b) | Shift(_, b):
            return fv_proof_termvars(b)
        case TLam(x, b):
            return fv_proof_termvars(b) - {x}
        case TApp(f, t):
            return fv_proof_termvars(f) | fv_term(t)
        case ExPair(t, b):
            return fv_term(t) | fv_proof_termvars(b)
        case Dest(sc, x, _, b):
            return fv_proof_termvars(sc) | (fv_proof_termvars(b) - {x})
        case Ascribe(b, f):
            return fv_proof_termvars(b) | fv_formula(f)
        case _:
            return frozenset()


def _rebind_hyp(name: str, body: ProofTerm, avoid) -> tuple:
    name2 = fresh_name(name, avoid)
    if name2 != name:
        body = subst_proof_hyp(body, name, Hyp(name2))
    return name2, body


def subst_proof_hyp(p: ProofTerm, a: str, q: ProofTerm) -> ProofTerm:
    """Capture-avoiding substitution of a proof term for a hypothesis name."""
    qh = fv_proof_hyps(q)
    qt = fv_proof_termvars(q)

    def go(p: ProofTerm) -> ProofTerm:
        match p:
            case Hyp(b):
                return q if b == a else p
            case PPair(f, s):
                return PPair(go(f), go(s))
            case Fst(b):
                return Fst(go(b))
            case Snd(b):
                return Snd(go(b))
            case Inl(b):
                return Inl(go(b))
            case Inr(b):
                return Inr(go(b))
            case Efq(b):
                return Efq(go(b))
            case Reset(b):
                return Reset(go(b))
            case PApp(f, s):
                return PApp(go(f), go(s))
            case TApp(f, t):
                return TApp(go(f), t)
            case ExPair(t, b):
                return ExPair(t, go(b))
            case Ascribe(b, f):
                return Ascribe(go(b), f)
            case PLam(b, body):
                if b == a:
                    return p
                if b in qh:
                    b, body = _rebind_hyp(b, body, qh | fv_proof_hyps(body) | {a})
                return PLam(b, go(body))
            case Shift(b, body):
                if b == a:
                    return p
                if b in qh:
                    b, body = _rebind_hyp(b, body, qh | fv_proof_hyps(body) | {a})
                return Shift(b, go(body))
            case TLam(x, body):
                if x in qt:
                    x2 = fresh_name(x, qt | fv_proof_termvars(body))
                    body = subst_proof_term(body, x, Var(x2))
                    x = x2
                return TLam(x, go(body))
            case Case(sc, a1, b1, a2, b2):
                sc = go(sc)
                if a1 != a:
                    if a1 in qh:
                        a1, b1 = _rebind_hyp(a1, b1, qh | fv_proof_hyps(b1) | {a})
                    b1 = go(b1)
                if a2 != a:
                    if a2 in qh:
                        a2, b2 = _rebind_hyp(a2, b2, qh | fv_proof_hyps(b2) | {a})
                    b2 = go(b2)
                return Case(sc, a1, b1, a2, b2)
            case Dest(sc, x, b, body):
                sc = go(sc)
                if b == a:
                    return Dest(sc, x, b, body)
                if x in qt:
                    x2 = fresh_name(x, qt | fv_proof_termvars(body))
                    body = subst_proof_term(body, x, Var(x2))
                    x = x2
                if b in qh:
                    b, body = _rebind_hyp(b, body, qh | fv_proof_hyps(body) | {a})
                return Dest(sc, x, b, go(body))
            case _:
                return p

    return go(p)


def subst_proof_term(p: ProofTerm, x: str, t: Term) -> ProofTerm:
    """Substitute an individual term for a term variable inside a proof."""
    ft = fv_term(t)

    def go(p: ProofTerm) -> ProofTerm:
        match p:
            case Hyp(_):
                return p
            case PPair(f, s):
                return PPair(go(f), go(s))
            case Fst(b):
                return Fst(go(b))
            case Snd(b):
                return Snd(go(b))
            case Inl(b):
                return Inl(go(b))
            case Inr(b):
                return Inr(go(b))
            case Efq(b):
                return Efq(go(b))
            case Reset(b):
                return Reset(go(b))
            case PApp(f, s):
                return PApp(go(f), go(s))
            case PLam(a, b):
                return PLam(a, go(b))
            case Shift(a, b):
                return Shift(a, go(b))
            case TApp(f, u):
                return TApp(go(f), subst_term(u, x, t))
            case ExPair(u, b):
                return ExPair(subst_term(u, x, t), go(b))
            case Ascribe(b, f):
                return Ascribe(go(b), subst_formula(f, x, t))
            case TLam(y, b):
                if y == x:
                    return p
                if y in ft:
                    y2 = fresh_name(y, ft | fv_proof_termvars(b) | {x})
                    b = subst_proof_term(b, y, Var(y2))
                    y = y2
                return TLam(y, go(b))
            case Case(sc, a1, b1, a2, b2):
                return Case(go(sc), a1, go(b1), a2, go(b2))
            case Dest(sc, y, a, b):
                sc = go(sc)
                if y == x:
                    return Dest(sc, y, a, b)
                if y in ft:
                    y2 = fresh_name(y, ft | fv_proof_termvars(b) | {x})
                    b = subst_proof_term(b, y, Var(y2))
                    y = y2
                return Dest(sc, y, a, go(b))
            case _:
                return p

    return go(p)


def _aeq_proof(a: ProofTerm, b: ProofTerm, ha, hb, ta, tb, n: int) -> bool:
    match a, b:
        case (Hyp(x), Hyp(y)):
            return _aeq_var(x, y, ha, hb)
        case (PPair(f1, s1), PPair(f2, s2)) | (PApp(f1, s1), PApp(f2, s2)):
            if type(a) is not type(b):
                return False
            return _aeq_proof(f1, f2, ha, hb, ta, tb, n) and _aeq_proof(s1, s2, ha, hb, ta, tb, n)
        case (Fst(p), Fst(q)) | (Snd(p), Snd(q)) | (Inl(p), Inl(q)) | (Inr(p), Inr(q)) | (
            Efq(p),
            Efq(q),
        ) | (Reset(p), Reset(q)):
            if type(a) is not type(b):
                return False
            return _aeq_proof(p, q, ha, hb, ta, tb, n)
        case (PLam(x, p), PLam(y, q)) | (Shift(x, p), Shift(y, q)):
            if type(a) is not type(b):
                return False
            return _aeq_proof(p, q, {**ha, x: n}, {**hb, y: n}, ta, tb, n + 1)
        case (TLam(x, p), TLam(y, q)):
            return _aeq_proof(p, q, ha, hb, {**ta, x: n}, {**tb, y: n}, n + 1)
        case (TApp(p, t), TApp(q, u)):
            return _aeq_proof(p, q, ha, hb, ta, tb, n) and _aeq_term(t, u, ta, tb, n)
        case (ExPair(t, p), ExPair(u, q)):
            return _aeq_term(t, u, ta, tb, n) and _aeq_proof(p, q, ha, hb, ta, tb, n)
        case (Case(s1, x1, p1, y1, q1), Case(s2, x2, p2, y2, q2)):
            return (
                _aeq_proof(s1, s2, ha, hb, ta, tb, n)
                and _aeq_proof(p1, p2, {**ha, x1: n}, {**hb, x2: n}, ta, tb, n + 1)
                and _aeq_proof(q1, q2, {**ha, y1: n}, {**hb, y2: n}, ta, tb, n + 1)
            )
        case (Dest(s1, x1, a1, p1), Dest(s2, x2, a2, p2)):
            return _aeq_proof(s1, s2, ha, hb, ta, tb, n) and _aeq_proof(
                p1, p2, {**ha, a1: n}, {**hb, a2: n}, {**ta, x1: n + 1}, {**tb, x2: n + 1}, n + 2
            )
        case (Ascribe(p, f), Ascribe(q, g)):
            return _aeq_proof(p, q, ha, hb, ta, tb, n) and _aeq_formula(f, g, ta, tb, n)
        case _:
            return False


def alpha_eq_proof(a: ProofTerm, b: ProofTerm) -> bool:
    return _aeq_proof(a, b, {}, {}, {}, {}, 0)


def contains_control(p: ProofTerm) -> bool:
    """True if any Shift or Reset node occurs anywhere in the proof."""
    match p:
        case Shift(_, _) | Reset(_):
            return True
        case PPair(f, s) | PApp(f, s):
            return contains_control(f) or contains_control(s)
        case Fst(q) | Snd(q) | Inl(q) | Inr(q) | Efq(q):
            return contains_control(q)
        case Case(sc, _, b1, _, b2):
            return contains_control(sc) or contains_control(b1) or contains_control(b2)
        case PLam(_, b) | TLam(_, b) | ExPair(_, b) | Ascribe(b, _):
            return contains_control(b)
        case TApp(f, _):
            return contains_control(f)
        case Dest(sc, _, _, b):
            return contains_control(sc) or contains_control(b)
        case _:
            return False


def contains_shift(p: ProofTerm) -> bool:
    match p:
        case Shift(_, _):
            return True
        case PPair(f, s) | PApp(f, s):
            return contains_shift(f) or contains_shift(s)
        case Fst(q) | Snd(q) | Inl(q) | Inr(q) | Efq(q) | Reset(q):
            return contains_shift(q)
        case Case(sc, _, b1, _, b2):
            return contains_shift(sc) or contains_shift(b1) or contains_shift(b2)
        case PLam(_, b) | TLam(_, b) | ExPair(_, b) | Ascribe(b, _):
            return contains_shift(b)
        case TApp(f, _):
            return contains_shift(f)
        case Dest(sc, _, _, b):
            return contains_shift(sc) or contains_shift(b)
        case _:
            return False
