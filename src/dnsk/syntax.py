"""Abstract syntax: sorts, individual terms, formulas, proof terms.

All nodes are immutable (frozen dataclasses), so structural equality and
hashing come for free; only Succ defines its own, which walk a numeral's
chain in a loop.  Alpha-equivalence and capture-avoiding substitution
are provided as functions over the named representation.

Terms and formulas are traversed by hand.  A substitution returns a node
itself when nothing in it changed, so untouched subtrees stay shared.
fv_term and fv_formula take an optional memo of free variables by node
identity, which check_proof and extract_mr keep for one call; given it, a
substitution does not enter a subtree in which its variable is not free.

Proof terms have two name spaces, hypotheses and individual variables, and
are traversed through one table, PROOF_SLOTS: it gives each constructor but
Hyp the kind of every field in field order, a proof child, a term, a
formula or a binder of either name space, and a binder scopes over the next
proof child.  Free names, substitution, alpha-equivalence and the occurs
checks read it.  The occurs checks, and the free-name walk that the proof
machine uses to pick a fresh name, keep an explicit stack and can share a
memo across calls (see _memo_walk), so their depth is not bounded by the
Python stack.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter, is_
from typing import Mapping, Optional, Union


class KernelError(Exception):
    """Base class for every error raised by the kernel."""


# ---------------------------------------------------------------------------
# Sorts


@dataclass(frozen=True)
class Nat:
    def __repr__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class Unit:
    def __repr__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class Arrow:
    dom: "SimpleType"
    cod: "SimpleType"


@dataclass(frozen=True)
class Prod:
    left: "SimpleType"
    right: "SimpleType"


SimpleType = Union[Nat, Unit, Arrow, Prod]

NAT = Nat()
UNIT = Unit()


# ---------------------------------------------------------------------------
# Terms (individuals of the quantification domain)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    var: str
    sort: SimpleType
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(frozen=True)
class Proj1:
    arg: "Term"


@dataclass(frozen=True)
class Proj2:
    arg: "Term"


@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Succ:
    arg: "Term"

    # a numeral nests one Succ per unit, deeper than the Python stack allows
    # the generated recursive __eq__ and __hash__, so these walk the chain
    def __eq__(self, other):
        if other.__class__ is not Succ:
            return NotImplemented
        a, b = self, other
        while a.__class__ is Succ and b.__class__ is Succ:
            if a is b:
                return True
            a, b = a.arg, b.arg
        return a == b

    def __hash__(self):
        k, t = 0, self
        while t.__class__ is Succ:
            k += 1
            t = t.arg
        return hash((k, t))


@dataclass(frozen=True)
class Rec:
    sort: SimpleType
    scrut: "Term"
    base: "Term"
    step: "Term"


Term = Union[Var, Lam, App, Pair, Proj1, Proj2, Star, Zero, Succ, Rec]

STAR = Star()
ZERO = Zero()


def numeral(n: int) -> Term:
    t: Term = ZERO
    for _ in range(n):
        t = Succ(t)
    return t


def numeral_value(t: Term) -> Optional[int]:
    """The natural number a term denotes literally, or None."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


def fresh_name(base: str, avoid) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


_NO_NAMES: frozenset = frozenset()


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


def subst_term(t: Term, x: str, r: Term, memo: Optional[dict] = None) -> Term:
    """Capture-avoiding substitution t[x := r].  A subterm in which nothing
    changes is returned itself.  Given a ``memo`` of free variables (see
    fv_term), the walk does not enter a subterm in which x is not free."""
    return _subst_term(t, x, r, [None], memo)


def _subst_term(t: Term, x: str, r: Term, rfv: list, memo: Optional[dict] = None) -> Term:
    # rfv[0] caches fv_term(r); it is computed at the first binder met, so a
    # substitution into a term without binders never reads r
    if memo is not None and x not in fv_term(t, memo):
        return t
    match t:
        case Var(y):
            return r if y == x else t
        case Lam(y, s, b):
            if y == x:
                return t
            if rfv[0] is None:
                rfv[0] = fv_term(r)
            if y in rfv[0] and x in (fvb := fv_term(b, memo)):
                y2 = fresh_name(y, rfv[0] | fvb | {x})
                b = _subst_term(b, y, Var(y2), [None], memo)
                return Lam(y2, s, _subst_term(b, x, r, rfv, memo))
            b2 = _subst_term(b, x, r, rfv, memo)
            return t if b2 is b else Lam(y, s, b2)
        case App(f, a):
            f2, a2 = _subst_term(f, x, r, rfv, memo), _subst_term(a, x, r, rfv, memo)
            return t if f2 is f and a2 is a else App(f2, a2)
        case Pair(a, b):
            a2, b2 = _subst_term(a, x, r, rfv, memo), _subst_term(b, x, r, rfv, memo)
            return t if a2 is a and b2 is b else Pair(a2, b2)
        case Proj1(a) | Proj2(a) | Succ(a):
            a2 = _subst_term(a, x, r, rfv, memo)
            return t if a2 is a else type(t)(a2)
        case Rec(s, n, b, st):
            n2, b2, st2 = (_subst_term(n, x, r, rfv, memo), _subst_term(b, x, r, rfv, memo),
                           _subst_term(st, x, r, rfv, memo))
            return t if n2 is n and b2 is b and st2 is st else Rec(s, n2, b2, st2)
        case _:
            return t


def _aeq_var(x: str, y: str, ea: Mapping[str, int], eb: Mapping[str, int]) -> bool:
    ka, kb = ea.get(x), eb.get(y)
    if ka is None and kb is None:
        return x == y
    return ka == kb


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


def alpha_eq_term(a: Term, b: Term) -> bool:
    return _aeq_term(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Eq0:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class PredApp:
    sym: str
    args: tuple


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    sort: SimpleType
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    sort: SimpleType
    body: "Formula"


Formula = Union[Bot, Eq0, PredApp, And, Or, Imp, Forall, Exists]

BOT = Bot()


def neg(a: Formula) -> Formula:
    """Negation is notation: ~A is A -> bot, never a separate node."""
    return Imp(a, BOT)


def is_prime(a: Formula) -> bool:
    return isinstance(a, (Bot, Eq0, PredApp))


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


def subst_formula(a: Formula, x: str, r: Term, memo: Optional[dict] = None) -> Formula:
    """Capture-avoiding substitution A[x := r] over both quantifier binders;
    an unchanged subformula is returned itself, and ``memo`` is as in
    subst_term."""
    return _subst_formula(a, x, r, [None], memo)


def _subst_formula(a: Formula, x: str, r: Term, rfv: list,
                   memo: Optional[dict] = None) -> Formula:
    # rfv as in _subst_term
    if memo is not None and x not in fv_formula(a, memo):
        return a
    match a:
        case Eq0(l, rr):
            l2, r2 = _subst_term(l, x, r, rfv, memo), _subst_term(rr, x, r, rfv, memo)
            return a if l2 is l and r2 is rr else Eq0(l2, r2)
        case PredApp(p, args):
            args2 = tuple([_subst_term(t, x, r, rfv, memo) for t in args])
            return a if all(map(is_, args2, args)) else PredApp(p, args2)
        case And(l, rr) | Or(l, rr) | Imp(l, rr):
            l2, r2 = _subst_formula(l, x, r, rfv, memo), _subst_formula(rr, x, r, rfv, memo)
            return a if l2 is l and r2 is rr else type(a)(l2, r2)
        case Forall(y, s, b) | Exists(y, s, b):
            if y == x:
                return a
            if rfv[0] is None:
                rfv[0] = fv_term(r)
            if y in rfv[0] and x in (fvb := fv_formula(b, memo)):
                y2 = fresh_name(y, rfv[0] | fvb | {x})
                b = _subst_formula(b, y, Var(y2), [None], memo)
                return type(a)(y2, s, _subst_formula(b, x, r, rfv, memo))
            b2 = _subst_formula(b, x, r, rfv, memo)
            return a if b2 is b else type(a)(y, s, b2)
        case _:
            return a


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


def alpha_eq_formula(a: Formula, b: Formula) -> bool:
    # one object is alpha-equal to itself; below the root the two sides may
    # sit under binders of different names, so the test is made here only
    return a is b or _aeq_formula(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Proof terms


@dataclass(frozen=True)
class Hyp:
    name: str


@dataclass(frozen=True)
class PPair:
    fst: "ProofTerm"
    snd: "ProofTerm"


@dataclass(frozen=True)
class Fst:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Snd:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Inl:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Inr:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Case:
    scrut: "ProofTerm"
    left_name: str
    left: "ProofTerm"
    right_name: str
    right: "ProofTerm"


@dataclass(frozen=True)
class PLam:
    hyp: str
    body: "ProofTerm"


@dataclass(frozen=True)
class PApp:
    fn: "ProofTerm"
    arg: "ProofTerm"

    # normal forms such as f (g (... a)) nest one PApp per application in
    # the argument, deeper than the Python stack allows the generated
    # recursive __eq__ and __hash__, so these walk the arg chain as Succ does
    def __eq__(self, other):
        if other.__class__ is not PApp:
            return NotImplemented
        a, b = self, other
        while a.__class__ is PApp and b.__class__ is PApp:
            if a is b:
                return True
            if a.fn != b.fn:
                return False
            a, b = a.arg, b.arg
        return a == b

    def __hash__(self):
        fns, t = [], self
        while t.__class__ is PApp:
            fns.append(t.fn)
            t = t.arg
        return hash((tuple(fns), t))


@dataclass(frozen=True)
class TLam:
    var: str
    body: "ProofTerm"


@dataclass(frozen=True)
class TApp:
    fn: "ProofTerm"
    arg: Term


@dataclass(frozen=True)
class ExPair:
    witness: Term
    body: "ProofTerm"


@dataclass(frozen=True)
class Dest:
    scrut: "ProofTerm"
    var: str
    hyp: str
    body: "ProofTerm"


@dataclass(frozen=True)
class Efq:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Reset:
    body: "ProofTerm"


@dataclass(frozen=True)
class Shift:
    hyp: str
    body: "ProofTerm"


@dataclass(frozen=True)
class Ascribe:
    body: "ProofTerm"
    formula: Formula


ProofTerm = Union[
    Hyp, PPair, Fst, Snd, Inl, Inr, Case, PLam, PApp, TLam, TApp,
    ExPair, Dest, Efq, Reset, Shift, Ascribe,
]


# slot kinds; the binder kinds HYP and VAR also name the two name spaces
PROOF, TERM, FORMULA, HYP, VAR = "proof", "term", "formula", "hyp", "var"

PROOF_SLOTS = {
    PPair: (PROOF, PROOF),
    Fst: (PROOF,),
    Snd: (PROOF,),
    Inl: (PROOF,),
    Inr: (PROOF,),
    Case: (PROOF, HYP, PROOF, HYP, PROOF),
    PLam: (HYP, PROOF),
    PApp: (PROOF, PROOF),
    TLam: (VAR, PROOF),
    TApp: (PROOF, TERM),
    ExPair: (TERM, PROOF),
    Dest: (PROOF, VAR, HYP, PROOF),
    Efq: (PROOF,),
    Reset: (PROOF,),
    Shift: (HYP, PROOF),
    Ascribe: (PROOF, FORMULA),
}

# free variables, substitution (given a cache of the replacement's free
# variables) and alpha-equivalence of a term or formula slot
_LEAF_OPS = {TERM: (fv_term, _subst_term, _aeq_term),
             FORMULA: (fv_formula, _subst_formula, _aeq_formula)}


def _plan(cls, slots) -> tuple:
    """What a traversal reads of one constructor: a getter of all its fields,
    each proof slot's index with the (index, kind) of the binders scoping
    over it, and each term or formula slot's index with its _LEAF_OPS."""
    names = [f.name for f in fields(cls)]
    get = attrgetter(*names) if len(names) > 1 else (lambda p, n=names[0]: (getattr(p, n),))
    children, leaves, binders = [], [], []
    for i, kind in enumerate(slots):
        if kind == PROOF:
            children.append((i, tuple(binders)))
            binders = []
        elif kind in _LEAF_OPS:
            leaves.append((i, *_LEAF_OPS[kind]))
        else:
            binders.append((i, kind))
    return get, tuple(children), tuple(leaves)


_PLANS = {cls: _plan(cls, slots) for cls, slots in PROOF_SLOTS.items()}


def _free_names(p: ProofTerm, ns: str) -> frozenset:
    """Free names of a proof term in name space ``ns`` (HYP or VAR)."""
    if type(p) is Hyp:
        return frozenset((p.name,)) if ns == HYP else _NO_NAMES
    get, children, leaves = _PLANS[type(p)]
    vals = get(p)
    out = _NO_NAMES
    for i, binders in children:
        fv = _free_names(vals[i], ns)
        for j, kind in binders:
            if kind == ns:
                fv = fv - {vals[j]}
        out = out | fv
    if ns == VAR:
        for i, leaf_fv, _, _ in leaves:
            out = out | leaf_fv(vals[i])
    return out


def _subst(p: ProofTerm, ns: str, x: str, r, rfv: Mapping) -> ProofTerm:
    """p[x := r] in name space ``ns``, where ``rfv`` maps each name space to
    a one-element list caching the free names of ``r``, or None until the
    first binder of that name space is met.  A child under a binder of x
    stays as it is, binders included.  Under other binders, each one free in
    r is renamed first, in field order, whether or not x occurs in the
    child.  A node none of whose fields changed is returned itself, so
    untouched subtrees stay shared."""
    cls = type(p)
    if cls is Hyp:
        return r if ns == HYP and p.name == x else p
    get, children, leaves = _PLANS[cls]
    old = get(p)
    vals = list(old)
    for i, binders in children:
        child = vals[i]
        if binders:
            if any(kind == ns and vals[j] == x for j, kind in binders):
                continue
            for j, kind in binders:
                b = vals[j]
                names = rfv[kind]
                if names[0] is None:
                    names[0] = _free_names(r, kind) if ns == HYP else fv_term(r)
                if b in names[0]:
                    avoid = names[0] | _free_names(child, kind)
                    b2 = fresh_name(b, avoid | {x} if kind == ns else avoid)
                    if kind == HYP:
                        child = subst_proof_hyp(child, b, Hyp(b2))
                    else:
                        child = subst_proof_term(child, b, Var(b2))
                    vals[j] = b2
        vals[i] = _subst(child, ns, x, r, rfv)
    if ns == VAR:
        for i, _, subst, _ in leaves:
            vals[i] = subst(vals[i], x, r, rfv[VAR])
    if all(map(is_, vals, old)):
        return p
    return cls(*vals)


def _aeq_proof(a: ProofTerm, b: ProofTerm, ha, hb, ta, tb, n: int) -> bool:
    # one level counter for both name spaces, advanced past a child's binders
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Hyp:
        return _aeq_var(a.name, b.name, ha, hb)
    get, children, leaves = _PLANS[cls]
    va, vb = get(a), get(b)
    for i, _, _, aeq in leaves:
        if not aeq(va[i], vb[i], ta, tb, n):
            return False
    for i, binders in children:
        ha2, hb2, ta2, tb2, m = ha, hb, ta, tb, n
        for j, kind in binders:
            if kind == HYP:
                ha2, hb2 = {**ha2, va[j]: m}, {**hb2, vb[j]: m}
            else:
                ta2, tb2 = {**ta2, va[j]: m}, {**tb2, vb[j]: m}
            m += 1
        if not _aeq_proof(va[i], vb[i], ha2, hb2, ta2, tb2, m):
            return False
    return True


def _memo_walk(p: ProofTerm, memo: dict, leaves: Mapping, at_node):
    """The result of p in a post-order walk with an explicit stack.  A node
    of a class in ``leaves`` gets ``leaves[cls](node)``; any other gets
    ``at_node(vals, children, memo)`` from its field values and proof
    children (as in _PLANS), whose results are in ``memo``.  ``memo`` maps
    id(node) to (node, result): holding the node keeps its id from being
    reused while the memo lives, so one memo can serve many calls on
    proofs that share nodes."""
    entry = memo.get(id(p))
    if entry is not None:
        return entry[1]
    stack = [p]
    while stack:
        q = stack[-1]
        if id(q) in memo:
            stack.pop()
            continue
        cls = type(q)
        leaf = leaves.get(cls)
        if leaf is not None:
            memo[id(q)] = (q, leaf(q))
            stack.pop()
            continue
        get, children, _ = _PLANS[cls]
        vals = get(q)
        todo = [vals[i] for i, _ in children if id(vals[i]) not in memo]
        if todo:
            stack.extend(todo)
            continue
        memo[id(q)] = (q, at_node(vals, children, memo))
        stack.pop()
    return memo[id(p)][1]


def _any_child(vals, children, memo) -> bool:
    return any(memo[id(vals[i])][1] for i, _ in children)


_no, _yes = (lambda p: False), (lambda p: True)
_SHIFT_LEAVES = {Hyp: _no, Shift: _yes}
_CONTROL_LEAVES = {Hyp: _no, Shift: _yes, Reset: _yes}


def fv_proof_hyps(p: ProofTerm) -> frozenset:
    """Free hypothesis names of a proof term."""
    return _free_names(p, HYP)


def free_candidates(p: ProofTerm, base: str, memo: Optional[dict] = None) -> frozenset:
    """The free hypothesis names of p that fresh_name(base, ...) could
    return, so that fresh_name(base, free_candidates(p, base) | extra) is
    fresh_name(base, fv_proof_hyps(p) | extra).  Leaving the other names
    out keeps each node's set small, so a walk that meets new nodes costs
    time in their number, not in the names below them.  ``memo``, kept
    across calls with this one base, holds the names of every node walked
    (see _memo_walk)."""
    def at_node(vals, children, memo):
        out = _NO_NAMES
        for i, binders in children:
            fv = memo[id(vals[i])][1]
            if fv:
                for j, kind in binders:
                    if kind == HYP:
                        fv = fv - {vals[j]}
                out = out | fv if out else fv
        return out

    def leaf(q):
        # fresh_name(base, ...) returns base or base followed by digits
        rest = q.name[len(base):]
        if q.name.startswith(base) and (not rest or rest.isdigit()):
            return frozenset((q.name,))
        return _NO_NAMES
    return _memo_walk(p, {} if memo is None else memo, {Hyp: leaf}, at_node)


def fv_proof_termvars(p: ProofTerm) -> frozenset:
    """Free individual-variable names occurring in a proof term."""
    return _free_names(p, VAR)


def node_termvars(p: ProofTerm, memo: dict) -> frozenset:
    """Individual-variable names in the node p itself, not in its proof
    children: the free variables of its term and formula slots (read
    through ``memo``, as in fv_term) and its variable binders."""
    if type(p) is Hyp:
        return _NO_NAMES
    get, children, leaves = _PLANS[type(p)]
    vals = get(p)
    out = _NO_NAMES
    for i, leaf_fv, _, _ in leaves:
        out = out | leaf_fv(vals[i], memo)
    for _, binders in children:
        out = out | {vals[j] for j, kind in binders if kind == VAR}
    return out


def subst_proof_hyp(p: ProofTerm, a: str, q: ProofTerm) -> ProofTerm:
    """Capture-avoiding substitution of a proof term for a hypothesis name."""
    return _subst(p, HYP, a, q, {HYP: [None], VAR: [None]})


def subst_proof_term(p: ProofTerm, x: str, t: Term) -> ProofTerm:
    """Substitute an individual term for a term variable inside a proof."""
    return _subst(p, VAR, x, t, {HYP: [_NO_NAMES], VAR: [None]})


def alpha_eq_proof(a: ProofTerm, b: ProofTerm) -> bool:
    return _aeq_proof(a, b, {}, {}, {}, {}, 0)


def contains_control(p: ProofTerm) -> bool:
    """True if any Shift or Reset node occurs anywhere in the proof."""
    return _memo_walk(p, {}, _CONTROL_LEAVES, _any_child)


def contains_shift(p: ProofTerm, memo: Optional[dict] = None) -> bool:
    """True if a Shift node occurs anywhere in the proof.  ``memo``, kept
    across calls, holds the answer for every node walked (see _memo_walk)."""
    return _memo_walk(p, {} if memo is None else memo, _SHIFT_LEAVES, _any_child)


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Signature:
    """Declared predicate symbols and their argument sorts."""

    predicates: Mapping[str, tuple]

    def arity(self, sym: str):
        return self.predicates.get(sym)
