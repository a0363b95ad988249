"""Evaluation: term normalization, proof-term reduction with shift/reset,
and a bounded-domain classical formula evaluator used as a brute-force
oracle.

``normalize_term`` is normalization by evaluation (Berger and
Schwichtenberg, "An inverse of the evaluation functional for typed
lambda-calculus", LICS 1991; Berger, Eberl and Schwichtenberg, "Term
rewriting for normalization by evaluation", 2003).  A well-sorted term is
evaluated over an environment into a value: a Python ``int`` for a closed
numeral, ``STAR``, a Python pair, a closure for a ``Lam``, ``S^k`` of a
neutral value, or a neutral value for a stuck term (a variable, and an
application, projection or ``rec`` whose principal argument is neutral).
``rec`` on a numeral runs as a loop; on ``S^k ne`` it unfolds k times down
to a neutral ``rec ne``, like the rewrite rule ``rec (S n) b s -> s n (rec n
b s)``.  Read-back turns a value into a term, applying each closure to a
fresh variable: the binder keeps its name unless the sort context or an
enclosing read-back binder already uses it.  There is no eta-expansion, so
the result is the beta/projection/recursor normal form.  Fuel counts
closure applications and recursor unfoldings.  The bounded formula
evaluator uses the same evaluation with its quantified variables bound to
integers.

Proof reduction is call-by-value, left to right, and never reduces under
binders.  A ``reset`` whose body is fully evaluated disappears only when the
body contains no latent ``shift``; otherwise the configuration is a normal
form (the delimiter must stay so the judgment remains derivable).

``normalize_proof`` is a refocused abstract machine (Danvy and Nielsen,
"Refocusing in reduction semantics", 2004).  It holds a focus and the
evaluation context around it as an explicit stack of frames, one per
constructor with an evaluation hole, its first proof slot in
``syntax.PROOF_SLOTS`` with no binder before it: the left and then the right
part of a pair or application, the argument of an injection, projection or
``efq``, the proof of a type application, the scrutinee of ``case`` and
``dest``, and the body of an existential pair, an ascription and a
``reset``.  It descends into the leftmost hole until it meets a value or a
``shift``, and ascends with a normal proof, rebuilding only the nodes whose
hole changed, until a frame makes a redex.  After a contraction it goes on
from the reduct in the same context (refocusing), never from the root, so
finding a redex costs amortized constant time.

A ``shift k => M`` in focus captures the frames above the nearest ``reset``
frame, the delimited context F (Biernacka, Biernacki and Danvy, "An
operational foundation for delimited continuations in the CPS hierarchy",
2005).  Those frames are plugged twice: with the shift itself, to choose
the fresh name ``a`` against the free hypotheses of the whole reset body,
and with ``a``, to reify F as ``fun a => reset F[a]``.  The reset and
its segment are replaced by ``reset M[k := fun a => reset F[a]]``.  A shift
with no reset frame below it is ``Stuck``.

A capture, a beta step and a reset drop each cost time in the size of the
frames and redex they touch, not of the whole reset body, so a ladder of
nested shifts reduces in time linear in its steps (Biernacka and Danvy, "A
concrete framework for environment machines", 2007).  One call keeps three
memos keyed by node identity, each made at first use and each entry
holding its node, so that no identity is reused while the call lasts:

- the free hypothesis names that ``fresh_name("a", ...)`` could pick, for
  every node the capture has walked (``syntax.free_candidates``);
- the has-shift flag of every node a reset drop has walked
  (``syntax.contains_shift``);
- the arguments of beta steps.  Such an argument reached the step as a
  normal proof, and normality does not depend on the context: no redex and
  no shift sits in an evaluation position of it.  Wherever the substitution
  put it, the machine treats it as normal when it next descends to it,
  instead of walking it down again.

Plugging a frame reuses the nodes below its hole, so after the first
capture the walks stop at nodes already in the memos.  ``subst_proof_hyp``
computes the free names of the substituted proof only at the first binder
it meets, so a beta step into ``reset (f a)`` never reads its argument.

Each contraction costs one unit of fuel.  Only a traced run plugs the whole
stack into a configuration at every step.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .syntax import (
    App, Ascribe, Case, Dest, Eq0, Exists, Forall, Formula, Fst, Hyp,
    Imp, Inl, Inr, KernelError, Lam, NAT, numeral, Or, And,
    Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2, Rec, Reset,
    Bot, Shift, Signature, Snd, Star, Succ, Term, TApp, TLam, ExPair, Var,
    Zero, HYP, PROOF, PROOF_SLOTS, VAR, contains_shift, free_candidates, fresh_name,
    subst_formula, subst_proof_hyp, subst_proof_term,
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
# Term normalization by evaluation

TERM_FUEL = 1_000_000


class _Clo:
    """The value of a ``Lam`` node in an environment."""

    __slots__ = ("lam", "env")

    def __init__(self, lam: Lam, env: dict):
        self.lam = lam
        self.env = env


class _SuccNe:
    """``S^k ne`` for k >= 1 and a neutral value ne of sort nat."""

    __slots__ = ("k", "ne")

    def __init__(self, k: int, ne):
        self.k = k
        self.ne = ne


class _Ne:
    """A neutral value: the term constructor ``cls`` (Var, App, Proj1, Proj2
    or Rec) over ``args``, each a value, a sort or a variable name; every
    constructor but Var has a neutral principal argument."""

    __slots__ = ("cls", "args")

    def __init__(self, cls, *args):
        self.cls = cls
        self.args = args


def _succ(v, k: int):
    """The value of ``S^k`` applied to the nat value v."""
    if k == 0:
        return v
    cls = type(v)
    if cls is int:
        return v + k
    if cls is _SuccNe:
        return _SuccNe(v.k + k, v.ne)
    return _SuccNe(k, v)


class _NbE:
    """Evaluation of well-sorted terms into values and read-back of values
    into normal terms, sharing one fuel budget.

    A value is an ``int`` (a closed numeral), ``STAR``, a Python pair of
    values, a closure, ``S^k`` of a neutral value, or a neutral value.
    ``avoid`` holds the names free in the read-back term: those of the
    sort context and of the enclosing read-back binders."""

    __slots__ = ("fuel", "budget", "avoid")

    def __init__(self, fuel: int, avoid=()):
        self.fuel = self.budget = fuel
        self.avoid = set(avoid)

    def tick(self) -> None:
        if self.fuel <= 0:
            raise FuelExhausted(
                f"no normal form within {self.budget} applications and unfoldings")
        self.fuel -= 1

    def eval(self, t: Term, env: dict):
        cls = type(t)
        if cls is Var:
            return env[t.name]
        if cls is App:
            return self.apply(self.eval(t.fn, env), self.eval(t.arg, env))
        if cls is Lam:
            return _Clo(t, env)
        if cls is Succ:
            k = 0
            while type(t) is Succ:
                k += 1
                t = t.arg
            return _succ(self.eval(t, env), k)
        if cls is Zero:
            return 0
        if cls is Pair:
            return (self.eval(t.fst, env), self.eval(t.snd, env))
        if cls is Proj1:
            v = self.eval(t.arg, env)
            return v[0] if type(v) is tuple else _Ne(Proj1, v)
        if cls is Proj2:
            v = self.eval(t.arg, env)
            return v[1] if type(v) is tuple else _Ne(Proj2, v)
        if cls is Rec:
            return self.rec(t.sort, self.eval(t.scrut, env), self.eval(t.base, env),
                            self.eval(t.step, env))
        if cls is Star:
            return t
        raise TypeError(f"not a term: {t!r}")

    def apply(self, f, a):
        if type(f) is not _Clo:
            return _Ne(App, f, a)
        self.tick()
        lam = f.lam
        return self.eval(lam.body, {**f.env, lam.var: a})

    def rec(self, sort, n, base, step):
        """``rec n base step``: a loop on a numeral, k unfoldings on
        ``S^k ne`` down to a neutral ``rec ne``."""
        if type(n) is int:
            acc = base
            for i in range(n):
                self.tick()
                acc = self.apply(self.apply(step, i), acc)
            return acc
        k, ne = (n.k, n.ne) if type(n) is _SuccNe else (0, n)
        acc = _Ne(Rec, sort, ne, base, step)
        for i in range(k):
            self.tick()
            acc = self.apply(self.apply(step, _succ(ne, i)), acc)
        return acc

    def read(self, v) -> Term:
        cls = type(v)
        if cls is int:
            return numeral(v)
        if cls is _Clo:
            lam = v.lam
            x = lam.var
            avoid = self.avoid
            if x in avoid:
                x = fresh_name(x, avoid)
            avoid.add(x)
            body = self.read(self.apply(v, _Ne(Var, x)))
            avoid.discard(x)
            return Lam(x, lam.sort, body)
        if cls is tuple:
            return Pair(self.read(v[0]), self.read(v[1]))
        if cls is _Ne:
            return v.cls(*[self.read(a) for a in v.args])
        if cls is _SuccNe:
            t = self.read(v.ne)
            for _ in range(v.k):
                t = Succ(t)
            return t
        return v  # STAR, or a sort or a name in a neutral value


def normalize_term(term_vars: Mapping, t: Term) -> Term:
    """Full beta/projection/recursor normal form of a well-sorted term.

    ``TERM_FUEL`` bounds the closure applications and recursor unfoldings,
    those of read-back included; past it ``FuelExhausted`` is raised."""
    try:
        infer_term_type(term_vars, t)
    except SortError as e:
        raise IllSorted(str(e)) from e
    nbe = _NbE(TERM_FUEL, term_vars)
    return nbe.read(nbe.eval(t, {x: _Ne(Var, x) for x in term_vars}))


# ---------------------------------------------------------------------------
# Proof-term reduction


def _unwrap(p: ProofTerm) -> ProofTerm:
    while isinstance(p, Ascribe):
        p = p.body
    return p


# The evaluation hole of each constructor that has one, by index and by field
# name: its first proof slot, unless a binder comes before it (so PLam, TLam
# and Shift have none).  A pair or application has a second hole, its right
# part, once its left part is normal.
_HOLE_AT = {cls: slots.index(PROOF) for cls, slots in PROOF_SLOTS.items()
            if not {HYP, VAR} & set(slots[:slots.index(PROOF)])}
_HOLE = {cls: cls.__match_args__[i] for cls, i in _HOLE_AT.items()}


def _plug1(node: ProofTerm, left, q: ProofTerm) -> ProofTerm:
    """``node`` with q in its evaluation hole; ``left`` is None, or the normal
    left part of a pair or application whose right part is the hole."""
    cls = type(node)
    vals = list(cls._values(node))
    i = _HOLE_AT[cls]
    if left is not None:
        vals[i] = left
        i += 1
    vals[i] = q
    return cls(*vals)


def _plug(frames, q: ProofTerm) -> ProofTerm:
    """The context ``frames`` (outermost first) with q in its hole."""
    for node, left, _ in reversed(frames):
        q = _plug1(node, left, q)
    return q


def _contract(node: ProofTerm, left, v: ProofTerm):
    """The reduct of ``node``, other than a reset, with the normal proof v
    in its evaluation hole (``left`` as in _plug1), or None when that proof
    is normal."""
    cls = type(node)
    if cls is PApp:
        fn = _unwrap(left)
        if type(fn) is not PLam:
            return None
        reduct = subst_proof_hyp(fn.body, fn.hyp, v)
        # keep the ascription on the reduct so that a redex in synthesis
        # position stays synthesizable after the step
        if type(left) is Ascribe and type(left.formula) is Imp:
            return Ascribe(reduct, left.formula.right)
        return reduct
    inner = _unwrap(v)
    ty = type(inner)
    if cls is Fst or cls is Snd:
        if ty is PPair:
            return inner.fst if cls is Fst else inner.snd
    elif cls is TApp:
        if ty is TLam:
            reduct = subst_proof_term(inner.body, inner.var, node.arg)
            if type(v) is Ascribe and type(v.formula) is Forall:
                f = v.formula
                return Ascribe(reduct, subst_formula(f.body, f.var, node.arg))
            return reduct
    elif cls is Case:
        if ty is Inl:
            return subst_proof_hyp(node.left, node.left_name, inner.arg)
        if ty is Inr:
            return subst_proof_hyp(node.right, node.right_name, inner.arg)
    elif cls is Dest and ty is ExPair:
        return subst_proof_hyp(subst_proof_term(node.body, node.var, inner.witness),
                               node.hyp, inner.body)
    return None


def normalize_proof(p: ProofTerm, fuel: int = 10000, trace: bool = False):
    """Reduce to a normal form in at most ``fuel`` steps.

    Returns the normal form, or (normal form, trace list) when trace=True.
    The trace includes the initial and every subsequent configuration."""
    if fuel < 0:
        raise FuelExhausted(f"no normal form within {fuel} steps")
    steps = [p] if trace else None
    taken = 0
    # the evaluation context as frames (node, left, hole), outermost first:
    # node is the proof whose evaluation hole held ``hole`` when the frame
    # was pushed, and left is as in _plug1
    stack = []
    focus, normal = p, False
    # the per-call memos of the module docstring, made at first use: free
    # candidate names, has-shift flags and the known-normal beta arguments
    fv_memo = shift_memo = known = None
    while True:
        if normal:
            # ascend with the normal proof v until a frame makes a redex
            v = focus
            while stack:
                node, left, hole = stack.pop()
                cls = type(node)
                if left is None and (cls is PPair or cls is PApp):
                    focus = node.snd if cls is PPair else node.arg
                    stack.append((node, v, focus))
                    normal, reduct = False, None
                    break
                if cls is Reset:
                    if shift_memo is None:
                        shift_memo = {}
                    reduct = None if contains_shift(v, shift_memo) else v
                else:
                    reduct = _contract(node, left, v)
                    # a beta argument is normal wherever it is substituted
                    if cls is PApp and reduct is not None and type(v) in _HOLE:
                        if known is None:
                            known = {}
                        known[id(v)] = v
                if reduct is not None:
                    # a part of a normal pair, and the body of a dropped
                    # reset, are normal
                    normal = cls is Fst or cls is Snd or cls is Reset
                    break
                # rebuild the node only if its hole (or the left part of a
                # pair or application, its _HOLE field) has changed
                if v is not hole or (left is not None and left is not getattr(node, _HOLE[cls])):
                    node = _plug1(node, left, v)
                v = node
            else:
                return (v, steps) if trace else v
            if reduct is None:
                continue
        else:
            # descend to the leftmost position not yet known to be normal
            cls = type(focus)
            field = _HOLE.get(cls)
            while field is not None and (known is None or id(focus) not in known):
                child = getattr(focus, field)
                stack.append((focus, None, child))
                focus = child
                cls = type(focus)
                field = _HOLE.get(cls)
            if field is not None or cls is Hyp or cls is PLam or cls is TLam:
                normal = True
                continue
            if cls is not Shift:
                raise TypeError(f"not a proof term: {focus!r}")
            # the frames above the nearest reset are the captured context F;
            # reify it as a function hypothesis, keeping the delimiter on
            # both sides
            i = len(stack) - 1
            while i >= 0 and type(stack[i][0]) is not Reset:
                i -= 1
            if i < 0:
                raise Stuck("shift with no enclosing reset")
            frames = stack[i + 1:]
            del stack[i:]
            k = focus.hyp
            if fv_memo is None:
                fv_memo = {}
            a = fresh_name("a", free_candidates(_plug(frames, focus), "a", fv_memo) | {k})
            cont = PLam(a, Reset(_plug(frames, Hyp(a))))
            reduct = Reset(subst_proof_hyp(focus.body, k, cont))
        # contract: the reduct replaces the redex, and refocusing starts at it
        if taken == fuel:
            raise FuelExhausted(f"no normal form within {fuel} steps")
        taken += 1
        if trace:
            steps.append(_plug(stack, reduct))
        focus = reduct


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

    def term_value(t: Term, env: dict) -> Optional[int]:
        # NbE is defined on well-sorted terms only; the bound variables in
        # env stand for numerals
        try:
            sort = infer_term_type(dict.fromkeys(env, NAT), t)
        except SortError as e:
            raise IllSorted(str(e)) from e
        if sort != NAT:
            raise IllSorted(f"term does not normalize to a numeral: {t!r}")
        v = _NbE(TERM_FUEL).eval(t, env)
        return v if v < n else None

    def ev(a: Formula, env: dict) -> bool:
        match a:
            case Bot():
                return False
            case Eq0(l, r):
                lv, rv = term_value(l, env), term_value(r, env)
                if lv is None or rv is None:
                    return False
                return lv == rv
            case PredApp(p, args):
                table = pred_tables.get(p)
                if table is None:
                    raise MissingPredTable(f"no table for predicate {p!r}")
                vals = []
                for t in args:
                    v = term_value(t, env)
                    if v is None:
                        return False
                    vals.append(v)
                return tuple(vals) in table
            case And(l, r):
                return ev(l, env) and ev(r, env)
            case Or(l, r):
                return ev(l, env) or ev(r, env)
            case Imp(l, r):
                return (not ev(l, env)) or ev(r, env)
            case Forall(x, s, b):
                if s != NAT:
                    raise HigherSortQuantifier("bounded evaluation needs nat quantifiers")
                return all(ev(b, {**env, x: k}) for k in range(n))
            case Exists(x, s, b):
                if s != NAT:
                    raise HigherSortQuantifier("bounded evaluation needs nat quantifiers")
                return any(ev(b, {**env, x: k}) for k in range(n))
        raise TypeError(f"not a formula: {a!r}")

    return ev(a, {})
