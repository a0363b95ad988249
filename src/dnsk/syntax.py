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

Proof terms have two name spaces, hypotheses and individual variables.
The table PROOF_SLOTS gives each constructor but Hyp the kind of every
field in field order, a proof child, a term, a formula or a binder of either
name space, and a binder scopes over the next proof child.  The cold proof
walks read it: the free names of either name space (a post-order walk) and
alpha-equivalence (node pairs from a stack).  The occurs checks of Shift and
Reset, which the proof machine runs, read each node's proof children by
name (_kids), as the machine's substitution and capture walks in evaluate
do.  Every proof walk here keeps an explicit stack, so its depth is not
bounded by the Python stack.
"""

from __future__ import annotations

from operator import attrgetter, is_
from types import FunctionType, SimpleNamespace
from typing import Mapping, Optional, Union


class KernelError(Exception):
    """Base class for every error raised by the kernel."""


class KindedError(KernelError):
    """A kernel error that names what went wrong in ``kind``
    (``RealizerTypeMismatch`` and so on) besides its message, for the
    ``ERROR <kind>`` lines of the command line."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# ---------------------------------------------------------------------------
# Records


class Record:
    """Base of the kernel's immutable records: the syntax nodes, and the data
    of the checker, translations, extractor and library (the parser's
    declarations subclass it too, but stay assignable).

    A subclass names its fields, in order, in ``__slots__``, and trailing
    defaults as class keywords, ``class Derivation(Record, children=())``.
    From the names the base derives what a frozen dataclass would have: a
    constructor with one parameter per field, positional
    ``__match_args__``, the same ``repr`` text, equality between records of
    one class, a hash over the fields, and pickling and copying through the
    constructor.  The constructor is a copy of one of the templates _INITS,
    one per field count, with its parameters renamed to the field names;
    it fills the slots through their descriptors' setters, the cheapest way
    to fill a slot that ``__setattr__`` refuses.  A record whose
    constructor does more defines its own.  No source is compiled per class, so defining one
    costs a few microseconds at import.  ``__dataclass_fields__`` maps the
    same names, in order, for code that walks any node by its fields;
    ``dataclasses.fields``, ``replace`` and ``asdict`` do not apply, and
    ``__dataclass_params__`` says the ``repr`` is not a dataclass's, so
    ``pprint`` prints a record by its ``repr``."""

    __slots__ = ()
    __dataclass_params__ = SimpleNamespace(repr=False)

    def __init_subclass__(cls, **defaults):
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
        if names and "__init__" not in cls.__dict__:
            cls.__init__ = _derived_init(cls, names, defaults)
        elif defaults:
            raise TypeError(f"{cls.__name__}: defaults need a derived constructor")

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


# Constructor templates, one per field count.  s0, s1, ... are not names of
# this module: each derived copy runs with its own globals, which bind them
# to the setters of its class's slot descriptors (_derived_init).


def _init1(self, a):
    s0(self, a)


def _init2(self, a, b):
    s0(self, a)
    s1(self, b)


def _init3(self, a, b, c):
    s0(self, a)
    s1(self, b)
    s2(self, c)


def _init4(self, a, b, c, d):
    s0(self, a)
    s1(self, b)
    s2(self, c)
    s3(self, d)


def _init5(self, a, b, c, d, e):
    s0(self, a)
    s1(self, b)
    s2(self, c)
    s3(self, d)
    s4(self, e)


_INITS = {1: _init1, 2: _init2, 3: _init3, 4: _init4, 5: _init5}


def _derived_init(cls, names: tuple, defaults: dict):
    """cls's constructor: the template for len(names) fields with its
    parameters named after them and its last len(defaults) parameters
    defaulting to the given values."""
    if len(names) not in _INITS:
        raise TypeError(f"{cls.__name__}: {len(names)} fields need an __init__")
    tail = names[len(names) - len(defaults):]
    if set(defaults) != set(tail):
        raise TypeError(f"{cls.__name__}: defaults {sorted(defaults)} are not trailing fields")
    code = _INITS[len(names)].__code__.replace(co_varnames=("self", *names))
    setters = {f"s{i}": getattr(cls, n).__set__ for i, n in enumerate(names)}
    init = FunctionType(code, setters, "__init__", tuple(defaults[n] for n in tail) or None)
    # argument errors name the function by __qualname__; the code's own
    # co_qualname exists only from Python 3.11
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


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


class Prod(Record):
    __slots__ = ("left", "right")


SimpleType = Union[Nat, Unit, Arrow, Prod]

NAT = Nat()
UNIT = Unit()


# ---------------------------------------------------------------------------
# Terms (individuals of the quantification domain)


class Var(Record):
    __slots__ = ("name",)


class Lam(Record):
    __slots__ = ("var", "sort", "body")


class App(Record):
    __slots__ = ("fn", "arg")


class Pair(Record):
    __slots__ = ("fst", "snd")


class Proj1(Record):
    __slots__ = ("arg",)


class Proj2(Record):
    __slots__ = ("arg",)


class Star(Record):
    __slots__ = ()


class Zero(Record):
    __slots__ = ()


class Succ(Record):
    __slots__ = ("arg",)

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


class Rec(Record):
    __slots__ = ("sort", "scrut", "base", "step")


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


class NameSupply:
    """Fresh names drawn one after another: each pick is
    ``fresh_name(base, avoid)``, which then joins ``avoid``.  The search
    resumes after the base's last pick: avoid only grows, so every earlier
    candidate is still taken, and the picks of one base test each name once."""

    __slots__ = ("avoid", "_next")

    def __init__(self, avoid):
        self.avoid = set(avoid)
        self._next: dict = {}  # base -> the index after its last pick (0 is the base itself)

    def fresh(self, base: str) -> str:
        i = self._next.get(base, 0)
        name = f"{base}{i}" if i else base
        while name in self.avoid:
            i += 1
            name = f"{base}{i}"
        self._next[base] = i + 1
        self.avoid.add(name)
        return name


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


class PredApp(Record):
    __slots__ = ("sym", "args")


class And(Record):
    __slots__ = ("left", "right")


class Or(Record):
    __slots__ = ("left", "right")


class Imp(Record):
    __slots__ = ("left", "right")


class Forall(Record):
    __slots__ = ("var", "sort", "body")


class Exists(Record):
    __slots__ = ("var", "sort", "body")


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


class PPair(Record):
    __slots__ = ("fst", "snd")


class Fst(Record):
    __slots__ = ("arg",)


class Snd(Record):
    __slots__ = ("arg",)


class Inl(Record):
    __slots__ = ("arg",)


class Inr(Record):
    __slots__ = ("arg",)


class Case(Record):
    __slots__ = ("scrut", "left_name", "left", "right_name", "right")


class PLam(Record):
    __slots__ = ("hyp", "body")


class PApp(Record):
    __slots__ = ("fn", "arg")

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


class TLam(Record):
    __slots__ = ("var", "body")


class TApp(Record):
    __slots__ = ("fn", "arg")


class ExPair(Record):
    __slots__ = ("witness", "body")


class Dest(Record):
    __slots__ = ("scrut", "var", "hyp", "body")


class Efq(Record):
    __slots__ = ("arg",)


class Reset(Record):
    __slots__ = ("body",)


class Shift(Record):
    __slots__ = ("hyp", "body")


class Ascribe(Record):
    __slots__ = ("body", "formula")


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

# free variables and alpha-equivalence of a term or formula slot
_LEAF_OPS = {TERM: (fv_term, _aeq_term), FORMULA: (fv_formula, _aeq_formula)}


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
    """Free names of a proof term in name space ``ns`` (HYP or VAR), in a
    post-order walk with an explicit stack (see _contains) that reads the
    plans: those of each proof child less the binders of ns over it, and
    for VAR also the free variables of the term and formula slots, read
    through the walk's memo (as in fv_term)."""
    memo: dict = {}
    stack = [p]
    pop, push = stack.pop, stack.append
    while stack:
        q = pop()
        if q is None:
            q = pop()
            get, children, slots = _PLANS[type(q)]
            vals = get(q)
            out = _NO_NAMES
            for i, binders in children:
                fv = memo[id(vals[i])][1]
                if fv:
                    for j, kind in binders:
                        if kind == ns:
                            fv = fv - {vals[j]}
                    out = out | fv if out else fv
            if ns == VAR:
                for i, leaf_fv, _ in slots:
                    out = out | leaf_fv(vals[i], memo)
            memo[id(q)] = (q, out)
        elif id(q) not in memo:
            if type(q) is Hyp:
                memo[id(q)] = (q, frozenset((q.name,)) if ns == HYP else _NO_NAMES)
            else:
                push(q)
                push(None)
                stack.extend(_kids(q, type(q)))
    return memo[id(p)][1]


def fv_proof_hyps(p: ProofTerm) -> frozenset:
    """Free hypothesis names of a proof term."""
    return _free_names(p, HYP)


def fv_proof_termvars(p: ProofTerm) -> frozenset:
    """Free individual-variable names occurring in a proof term."""
    return _free_names(p, VAR)


def node_termvars(p: ProofTerm, memo: dict) -> frozenset:
    """Individual-variable names in the node p itself, not in its proof
    children: the free variables of its term and formula slots (read
    through ``memo``, as in fv_term) and its variable binders.  A hypothesis
    has none; nor has a subject that is no proof form, which the extractor
    then rejects as an unknown rule."""
    plan = _PLANS.get(type(p))
    if plan is None:
        return _NO_NAMES
    get, children, leaves = plan
    vals = get(p)
    out = _NO_NAMES
    for i, leaf_fv, _ in leaves:
        out = out | leaf_fv(vals[i], memo)
    for _, binders in children:
        out = out | {vals[j] for j, kind in binders if kind == VAR}
    return out


def alpha_eq_proof(a: ProofTerm, b: ProofTerm) -> bool:
    """Alpha-equivalence of proof terms, comparing node pairs from an
    explicit stack.  Each pair carries the levels of the binders over it on
    either side, hypotheses and variables apart; one level counter serves
    both name spaces and advances past each binder."""
    stack = [(a, b, {}, {}, {}, {}, 0)]
    while stack:
        a, b, ha, hb, ta, tb, n = stack.pop()
        cls = type(a)
        if cls is not type(b):
            return False
        if cls is Hyp:
            if not _aeq_var(a.name, b.name, ha, hb):
                return False
            continue
        get, children, leaves = _PLANS[cls]
        va, vb = get(a), get(b)
        for i, _, aeq in leaves:
            if not aeq(va[i], vb[i], ta, tb, n):
                return False
        # pushed last first, so that the children are compared left to right
        for i, binders in reversed(children):
            ha2, hb2, ta2, tb2, m = ha, hb, ta, tb, n
            for j, kind in binders:
                if kind == HYP:
                    ha2, hb2 = {**ha2, va[j]: m}, {**hb2, vb[j]: m}
                else:
                    ta2, tb2 = {**ta2, va[j]: m}, {**tb2, vb[j]: m}
                m += 1
            stack.append((va[i], vb[i], ha2, hb2, ta2, tb2, m))
    return True


def _kids(q: ProofTerm, cls) -> tuple:
    """The proof children of q, a node of class cls other than Hyp."""
    if cls is PApp:
        return q.fn, q.arg
    if (cls is Reset or cls is Shift or cls is PLam or cls is Ascribe or cls is TLam
            or cls is ExPair):
        return (q.body,)
    if cls is PPair:
        return q.fst, q.snd
    if cls is TApp:
        return (q.fn,)
    if cls is Case:
        return q.scrut, q.left, q.right
    if cls is Dest:
        return q.scrut, q.body
    return (q.arg,)


def _contains(p: ProofTerm, memo: dict, marks: tuple) -> bool:
    """True if a node of a class in ``marks`` occurs in p: a post-order walk
    with an explicit stack, in which a node waits under a None mark until
    its children are done.  ``memo`` maps id(node) to (node, answer) for
    every node walked; holding the node keeps its id from being reused, so
    one memo can serve many calls on proofs that share nodes."""
    entry = memo.get(id(p))
    if entry is not None:
        return entry[1]
    stack = [p]
    pop, push = stack.pop, stack.append
    while stack:
        q = pop()
        if q is None:
            q = pop()
            for c in _kids(q, type(q)):
                if memo[id(c)][1]:
                    memo[id(q)] = (q, True)
                    break
            else:
                memo[id(q)] = (q, False)
        elif id(q) not in memo:
            cls = type(q)
            if cls is Hyp or cls in marks:
                memo[id(q)] = (q, cls is not Hyp)
            else:
                push(q)
                push(None)
                stack.extend(_kids(q, cls))
    return memo[id(p)][1]


def contains_control(p: ProofTerm) -> bool:
    """True if any Shift or Reset node occurs anywhere in the proof."""
    return _contains(p, {}, (Shift, Reset))


def contains_shift(p: ProofTerm, memo: Optional[dict] = None) -> bool:
    """True if a Shift node occurs anywhere in the proof.  ``memo``, kept
    across calls, holds the answer for every node walked (see _contains)."""
    return _contains(p, {} if memo is None else memo, (Shift,))


# ---------------------------------------------------------------------------
# Signatures


class Signature(Record):
    """Declared predicate symbols and their argument sorts."""

    __slots__ = ("predicates",)

    def arity(self, sym: str):
        return self.predicates.get(sym)


