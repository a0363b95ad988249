"""Abstract syntax: sorts, individual terms, formulas, proof terms.

All nodes are immutable records (see Record): two nodes are equal when
they are of one class and their fields are equal, and a node hashes its
fields.  Succ and PApp define their own equality and hash, which walk a
numeral's chain or an application's argument chain in a loop.
Alpha-equivalence and capture-avoiding substitution are provided as
functions over the named representation.

Terms and formulas are traversed by hand.  Each walker reads a node's class
once, ``cls = type(node)``, and tests it with ``cls is X`` in the order the
classes are met most often, instead of a ``match`` on class patterns, which
runs an isinstance test and reads ``__match_args__`` per pattern tried; no
node class has a subclass, so the two select the same branch.  A
substitution returns a node itself when nothing in it changed, so untouched
subtrees stay shared.
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

from operator import attrgetter, is_
from typing import Mapping, Optional, Union


class KernelError(Exception):
    """Base class for every error raised by the kernel."""


# ---------------------------------------------------------------------------
# Records


class Record:
    """Base of the kernel's immutable records: the syntax nodes, and the data
    of the checker, translations, extractor and library (the parser's
    declarations subclass it too, but stay assignable).

    A subclass names its fields, in order, in ``__slots__`` and fills them
    in its own ``__init__`` through the slots' descriptors (slot_setters),
    the cheapest way to fill a slot that ``__setattr__`` refuses.  From the
    names the base derives what a frozen dataclass would have: positional
    ``__match_args__``, the same ``repr`` text, equality between records of
    one class, a hash over the fields, and pickling and copying through the
    constructor.  No code is generated per class, so defining one costs
    next to nothing at import.  ``__dataclass_fields__`` maps the same
    names, in order, for code that walks any node by its fields;
    ``dataclasses.fields``, ``replace`` and ``asdict`` do not apply."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        cls.__match_args__ = names
        cls.__dataclass_fields__ = dict.fromkeys(names)
        # the field values of a record as a tuple
        if len(names) > 1:
            values = attrgetter(*names)
        elif names:
            values = lambda r, get=attrgetter(names[0]): (get(r),)
        else:
            values = lambda r: ()
        cls._values = staticmethod(values)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values(self))])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


def slot_setters(cls) -> list:
    """The ``__set__`` of each of cls's slot descriptors, in field order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


# ---------------------------------------------------------------------------
# Sorts


class Nat(Record):
    __slots__ = ()

    def __repr__(self) -> str:
        return "nat"


class Unit(Record):
    __slots__ = ()

    def __repr__(self) -> str:
        return "unit"


class Arrow(Record):
    __slots__ = ("dom", "cod")

    def __init__(self, dom: SimpleType, cod: SimpleType):
        _Arrow_dom(self, dom)
        _Arrow_cod(self, cod)


_Arrow_dom, _Arrow_cod = slot_setters(Arrow)


class Prod(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: SimpleType, right: SimpleType):
        _Prod_left(self, left)
        _Prod_right(self, right)


_Prod_left, _Prod_right = slot_setters(Prod)


SimpleType = Union[Nat, Unit, Arrow, Prod]

NAT = Nat()
UNIT = Unit()


# ---------------------------------------------------------------------------
# Terms (individuals of the quantification domain)


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _Var_name(self, name)


[_Var_name] = slot_setters(Var)


class Lam(Record):
    __slots__ = ("var", "sort", "body")

    def __init__(self, var: str, sort: SimpleType, body: Term):
        _Lam_var(self, var)
        _Lam_sort(self, sort)
        _Lam_body(self, body)


_Lam_var, _Lam_sort, _Lam_body = slot_setters(Lam)


class App(Record):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        _App_fn(self, fn)
        _App_arg(self, arg)


_App_fn, _App_arg = slot_setters(App)


class Pair(Record):
    __slots__ = ("fst", "snd")

    def __init__(self, fst: Term, snd: Term):
        _Pair_fst(self, fst)
        _Pair_snd(self, snd)


_Pair_fst, _Pair_snd = slot_setters(Pair)


class Proj1(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _Proj1_arg(self, arg)


[_Proj1_arg] = slot_setters(Proj1)


class Proj2(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _Proj2_arg(self, arg)


[_Proj2_arg] = slot_setters(Proj2)


class Star(Record):
    __slots__ = ()


class Zero(Record):
    __slots__ = ()


class Succ(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: Term):
        _Succ_arg(self, arg)

    # a numeral nests one Succ per unit, deeper than the Python stack allows
    # Record's recursive __eq__ and __hash__, so these walk the chain
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


[_Succ_arg] = slot_setters(Succ)


class Rec(Record):
    __slots__ = ("sort", "scrut", "base", "step")

    def __init__(self, sort: SimpleType, scrut: Term, base: Term, step: Term):
        _Rec_sort(self, sort)
        _Rec_scrut(self, scrut)
        _Rec_base(self, base)
        _Rec_step(self, step)


_Rec_sort, _Rec_scrut, _Rec_base, _Rec_step = slot_setters(Rec)


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
    cls = type(t)
    if cls is Zero:
        return _NO_NAMES
    if memo is not None:
        entry = memo.get(id(t))
        if entry is not None:
            return entry[1]
    if cls is Succ:
        a = t.arg
        while a.__class__ is Succ:
            a = a.arg
        out = fv_term(a, memo)
    elif cls is Var:
        out = frozenset((t.name,))
    elif cls is Pair:
        out = fv_term(t.fst, memo) | fv_term(t.snd, memo)
    elif cls is Proj1 or cls is Proj2:
        out = fv_term(t.arg, memo)
    elif cls is Lam:
        out = fv_term(t.body, memo) - {t.var}
    elif cls is App:
        out = fv_term(t.fn, memo) | fv_term(t.arg, memo)
    elif cls is Rec:
        out = fv_term(t.scrut, memo) | fv_term(t.base, memo) | fv_term(t.step, memo)
    else:
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
    cls = type(t)
    if cls is Var:
        return r if t.name == x else t
    if cls is Proj1 or cls is Proj2 or cls is Succ:
        a = t.arg
        a2 = _subst_term(a, x, r, rfv, memo)
        return t if a2 is a else cls(a2)
    if cls is App:
        f, a = t.fn, t.arg
        f2, a2 = _subst_term(f, x, r, rfv, memo), _subst_term(a, x, r, rfv, memo)
        return t if f2 is f and a2 is a else App(f2, a2)
    if cls is Pair:
        a, b = t.fst, t.snd
        a2, b2 = _subst_term(a, x, r, rfv, memo), _subst_term(b, x, r, rfv, memo)
        return t if a2 is a and b2 is b else Pair(a2, b2)
    if cls is Lam:
        y, b = t.var, t.body
        if y == x:
            return t
        if rfv[0] is None:
            rfv[0] = fv_term(r)
        if y in rfv[0] and x in (fvb := fv_term(b, memo)):
            y2 = fresh_name(y, rfv[0] | fvb | {x})
            b = _subst_term(b, y, Var(y2), [None], memo)
            return Lam(y2, t.sort, _subst_term(b, x, r, rfv, memo))
        b2 = _subst_term(b, x, r, rfv, memo)
        return t if b2 is b else Lam(y, t.sort, b2)
    if cls is Rec:
        n, b, st = t.scrut, t.base, t.step
        n2, b2, st2 = (_subst_term(n, x, r, rfv, memo), _subst_term(b, x, r, rfv, memo),
                       _subst_term(st, x, r, rfv, memo))
        return t if n2 is n and b2 is b and st2 is st else Rec(t.sort, n2, b2, st2)
    return t


def _aeq_var(x: str, y: str, ea: Mapping[str, int], eb: Mapping[str, int]) -> bool:
    ka, kb = ea.get(x), eb.get(y)
    if ka is None and kb is None:
        return x == y
    return ka == kb


def _aeq_term(a: Term, b: Term, ea, eb, n: int) -> bool:
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is Zero or cls is Star:
        return True
    if cls is Succ or cls is Proj1 or cls is Proj2:
        return _aeq_term(a.arg, b.arg, ea, eb, n)
    if cls is Var:
        return _aeq_var(a.name, b.name, ea, eb)
    if cls is App:
        return _aeq_term(a.fn, b.fn, ea, eb, n) and _aeq_term(a.arg, b.arg, ea, eb, n)
    if cls is Pair:
        return _aeq_term(a.fst, b.fst, ea, eb, n) and _aeq_term(a.snd, b.snd, ea, eb, n)
    if cls is Lam:
        return a.sort == b.sort and _aeq_term(a.body, b.body, {**ea, a.var: n},
                                              {**eb, b.var: n}, n + 1)
    if cls is Rec:
        return (
            a.sort == b.sort
            and _aeq_term(a.scrut, b.scrut, ea, eb, n)
            and _aeq_term(a.base, b.base, ea, eb, n)
            and _aeq_term(a.step, b.step, ea, eb, n)
        )
    return False


def alpha_eq_term(a: Term, b: Term) -> bool:
    return _aeq_term(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Formulas


class Bot(Record):
    __slots__ = ()


class Eq0(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        _Eq0_lhs(self, lhs)
        _Eq0_rhs(self, rhs)


_Eq0_lhs, _Eq0_rhs = slot_setters(Eq0)


class PredApp(Record):
    __slots__ = ("sym", "args")

    def __init__(self, sym: str, args: tuple):
        _PredApp_sym(self, sym)
        _PredApp_args(self, args)


_PredApp_sym, _PredApp_args = slot_setters(PredApp)


class And(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _And_left(self, left)
        _And_right(self, right)


_And_left, _And_right = slot_setters(And)


class Or(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _Or_left(self, left)
        _Or_right(self, right)


_Or_left, _Or_right = slot_setters(Or)


class Imp(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _Imp_left(self, left)
        _Imp_right(self, right)


_Imp_left, _Imp_right = slot_setters(Imp)


class Forall(Record):
    __slots__ = ("var", "sort", "body")

    def __init__(self, var: str, sort: SimpleType, body: Formula):
        _Forall_var(self, var)
        _Forall_sort(self, sort)
        _Forall_body(self, body)


_Forall_var, _Forall_sort, _Forall_body = slot_setters(Forall)


class Exists(Record):
    __slots__ = ("var", "sort", "body")

    def __init__(self, var: str, sort: SimpleType, body: Formula):
        _Exists_var(self, var)
        _Exists_sort(self, sort)
        _Exists_body(self, body)


_Exists_var, _Exists_sort, _Exists_body = slot_setters(Exists)


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
    cls = type(a)
    if cls is PredApp:
        out = _NO_NAMES
        for t in a.args:
            out = out | fv_term(t, memo)
    elif cls is Imp or cls is And or cls is Or:
        out = fv_formula(a.left, memo) | fv_formula(a.right, memo)
    elif cls is Forall or cls is Exists:
        out = fv_formula(a.body, memo) - {a.var}
    elif cls is Eq0:
        out = fv_term(a.lhs, memo) | fv_term(a.rhs, memo)
    else:
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
    cls = type(a)
    if cls is PredApp:
        args = a.args
        args2 = tuple([_subst_term(t, x, r, rfv, memo) for t in args])
        return a if all(map(is_, args2, args)) else PredApp(a.sym, args2)
    if cls is Imp or cls is And or cls is Or:
        l, rr = a.left, a.right
        l2, r2 = _subst_formula(l, x, r, rfv, memo), _subst_formula(rr, x, r, rfv, memo)
        return a if l2 is l and r2 is rr else cls(l2, r2)
    if cls is Forall or cls is Exists:
        y, b = a.var, a.body
        if y == x:
            return a
        if rfv[0] is None:
            rfv[0] = fv_term(r)
        if y in rfv[0] and x in (fvb := fv_formula(b, memo)):
            y2 = fresh_name(y, rfv[0] | fvb | {x})
            b = _subst_formula(b, y, Var(y2), [None], memo)
            return cls(y2, a.sort, _subst_formula(b, x, r, rfv, memo))
        b2 = _subst_formula(b, x, r, rfv, memo)
        return a if b2 is b else cls(y, a.sort, b2)
    if cls is Eq0:
        l, rr = a.lhs, a.rhs
        l2, r2 = _subst_term(l, x, r, rfv, memo), _subst_term(rr, x, r, rfv, memo)
        return a if l2 is l and r2 is rr else Eq0(l2, r2)
    return a


def _aeq_formula(a: Formula, b: Formula, ea, eb, n: int) -> bool:
    cls = type(a)
    if cls is not type(b):
        return False
    if cls is PredApp:
        xs, ys = a.args, b.args
        if a.sym != b.sym or len(xs) != len(ys):
            return False
        for u, v in zip(xs, ys):
            if not _aeq_term(u, v, ea, eb, n):
                return False
        return True
    if cls is Imp or cls is And or cls is Or:
        return (_aeq_formula(a.left, b.left, ea, eb, n)
                and _aeq_formula(a.right, b.right, ea, eb, n))
    if cls is Forall or cls is Exists:
        return a.sort == b.sort and _aeq_formula(a.body, b.body, {**ea, a.var: n},
                                                 {**eb, b.var: n}, n + 1)
    if cls is Eq0:
        return _aeq_term(a.lhs, b.lhs, ea, eb, n) and _aeq_term(a.rhs, b.rhs, ea, eb, n)
    return cls is Bot


def alpha_eq_formula(a: Formula, b: Formula) -> bool:
    # one object is alpha-equal to itself; below the root the two sides may
    # sit under binders of different names, so the test is made here only
    return a is b or _aeq_formula(a, b, {}, {}, 0)


# ---------------------------------------------------------------------------
# Proof terms


class Hyp(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _Hyp_name(self, name)


[_Hyp_name] = slot_setters(Hyp)


class PPair(Record):
    __slots__ = ("fst", "snd")

    def __init__(self, fst: ProofTerm, snd: ProofTerm):
        _PPair_fst(self, fst)
        _PPair_snd(self, snd)


_PPair_fst, _PPair_snd = slot_setters(PPair)


class Fst(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: ProofTerm):
        _Fst_arg(self, arg)


[_Fst_arg] = slot_setters(Fst)


class Snd(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: ProofTerm):
        _Snd_arg(self, arg)


[_Snd_arg] = slot_setters(Snd)


class Inl(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: ProofTerm):
        _Inl_arg(self, arg)


[_Inl_arg] = slot_setters(Inl)


class Inr(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: ProofTerm):
        _Inr_arg(self, arg)


[_Inr_arg] = slot_setters(Inr)


class Case(Record):
    __slots__ = ("scrut", "left_name", "left", "right_name", "right")

    def __init__(self, scrut: ProofTerm, left_name: str, left: ProofTerm, right_name: str,
                 right: ProofTerm):
        _Case_scrut(self, scrut)
        _Case_left_name(self, left_name)
        _Case_left(self, left)
        _Case_right_name(self, right_name)
        _Case_right(self, right)


_Case_scrut, _Case_left_name, _Case_left, _Case_right_name, _Case_right = slot_setters(Case)


class PLam(Record):
    __slots__ = ("hyp", "body")

    def __init__(self, hyp: str, body: ProofTerm):
        _PLam_hyp(self, hyp)
        _PLam_body(self, body)


_PLam_hyp, _PLam_body = slot_setters(PLam)


class PApp(Record):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: ProofTerm, arg: ProofTerm):
        _PApp_fn(self, fn)
        _PApp_arg(self, arg)

    # normal forms such as f (g (... a)) nest one PApp per application in
    # the argument, deeper than the Python stack allows Record's recursive
    # __eq__ and __hash__, so these walk the arg chain as Succ does
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


_PApp_fn, _PApp_arg = slot_setters(PApp)


class TLam(Record):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: ProofTerm):
        _TLam_var(self, var)
        _TLam_body(self, body)


_TLam_var, _TLam_body = slot_setters(TLam)


class TApp(Record):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: ProofTerm, arg: Term):
        _TApp_fn(self, fn)
        _TApp_arg(self, arg)


_TApp_fn, _TApp_arg = slot_setters(TApp)


class ExPair(Record):
    __slots__ = ("witness", "body")

    def __init__(self, witness: Term, body: ProofTerm):
        _ExPair_witness(self, witness)
        _ExPair_body(self, body)


_ExPair_witness, _ExPair_body = slot_setters(ExPair)


class Dest(Record):
    __slots__ = ("scrut", "var", "hyp", "body")

    def __init__(self, scrut: ProofTerm, var: str, hyp: str, body: ProofTerm):
        _Dest_scrut(self, scrut)
        _Dest_var(self, var)
        _Dest_hyp(self, hyp)
        _Dest_body(self, body)


_Dest_scrut, _Dest_var, _Dest_hyp, _Dest_body = slot_setters(Dest)


class Efq(Record):
    __slots__ = ("arg",)

    def __init__(self, arg: ProofTerm):
        _Efq_arg(self, arg)


[_Efq_arg] = slot_setters(Efq)


class Reset(Record):
    __slots__ = ("body",)

    def __init__(self, body: ProofTerm):
        _Reset_body(self, body)


[_Reset_body] = slot_setters(Reset)


class Shift(Record):
    __slots__ = ("hyp", "body")

    def __init__(self, hyp: str, body: ProofTerm):
        _Shift_hyp(self, hyp)
        _Shift_body(self, body)


_Shift_hyp, _Shift_body = slot_setters(Shift)


class Ascribe(Record):
    __slots__ = ("body", "formula")

    def __init__(self, body: ProofTerm, formula: Formula):
        _Ascribe_body(self, body)
        _Ascribe_formula(self, formula)


_Ascribe_body, _Ascribe_formula = slot_setters(Ascribe)


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
    children, leaves, binders = [], [], []
    for i, kind in enumerate(slots):
        if kind == PROOF:
            children.append((i, tuple(binders)))
            binders = []
        elif kind in _LEAF_OPS:
            leaves.append((i, *_LEAF_OPS[kind]))
        else:
            binders.append((i, kind))
    return cls._values, tuple(children), tuple(leaves)


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


class Signature(Record):
    """Declared predicate symbols and their argument sorts."""

    __slots__ = ("predicates",)

    def __init__(self, predicates: Mapping[str, tuple]):
        _Signature_predicates(self, predicates)

    def arity(self, sym: str):
        return self.predicates.get(sym)


[_Signature_predicates] = slot_setters(Signature)
