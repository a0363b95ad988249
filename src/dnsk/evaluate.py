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
hole changed, until a frame makes a redex.  Only a ``reset`` and the
elimination forms (application, projection, type application, ``case`` and
``dest``) can; any other frame is passed without a contraction attempt.
After a contraction it goes on from the reduct in the same context
(refocusing), never from the root, so finding a redex costs amortized
constant time.

A ``shift k => M`` in focus captures the frames above the nearest ``reset``
frame, the delimited context F (Biernacka, Biernacki and Danvy, "An
operational foundation for delimited continuations in the CPS hierarchy",
2005).  F is reified as ``fun a => reset F[a]``, and the reset and its
segment are replaced by ``reset M[k := fun a => reset F[a]]``.  The name
``a`` is the first of ``a``, ``a1``, ... that is neither k nor free in
F[shift].  No reduction step adds a free name and no frame binds one, so
every name free at a capture is free in the input.  At the first capture
one scan of the input, blind to binders, looks for a hypothesis named
``a``, ``a1``, ... (``mentions_candidate``); if there is none, every capture
of the call takes the first name other than k without a walk.  Otherwise
F[shift] is walked for its free candidate names (``free_candidates``):
plugging the shift back into the frames it was taken from returns the
original nodes, so the walk meets nodes it has seen before.  A shift with no
reset frame below it is ``Stuck``.

A capture, a beta step and a reset drop each cost time in the size of the
frames and redex they touch, not of the whole reset body, so a ladder of
nested shifts reduces in time linear in its steps (Biernacka and Danvy, "A
concrete framework for environment machines", 2007).  One call keeps three
memos keyed by node identity, each made at first use and each entry
holding its node, so that no identity is reused while the call lasts: the
free candidate names of every node a capture has walked, the has-shift flag
(``syntax.contains_shift``) of every node a reset drop has walked, and the
arguments of beta steps.  Such an argument reached the step as a normal
proof, and normality does not depend on the context, so wherever the
substitution put it, the machine does not walk down into it again.  A frame
whose hole and left part are unchanged is its own node, so after the first
capture the walks stop at nodes already in the memos.  ``subst_proof_hyp``
computes the free names of the substituted proof only at the first binder
it meets, so a beta step into ``reset (f a)`` never reads its argument.

These helpers, substitution in both name spaces, the capture's scan and
walk, the has-shift walk and plugging (``_plug1``), are most of the
machine's own time, so they are type-keyed: each reads a node's class once,
tests it with ``is``, the commonest class first, and reads fields by name,
where the cold proof walks in ``syntax`` read ``PROOF_SLOTS``.  That takes
about a fifth off a pass over the benchmark's ``control`` proofs.  The walks
keep explicit stacks; substitution loops down chains of ``fst``, ``snd``,
``inl``, ``inr``, ``efq`` and ``reset`` and recurses once per other node.

Each contraction costs one unit of fuel.  Only a traced run plugs the whole
stack into a configuration at every step.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .syntax import (
    App, Ascribe, Case, Dest, Efq, Eq0, Exists, Forall, Formula, Fst, Hyp,
    Imp, Inl, Inr, KernelError, Lam, NAT, numeral, Or, And,
    Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2, Rec, Reset,
    Bot, Shift, Signature, Snd, Star, Succ, Term, TApp, TLam, ExPair, Var,
    Zero, HYP, PROOF, PROOF_SLOTS, VAR, contains_shift, fresh_name, fv_proof_hyps,
    fv_proof_termvars, fv_term, subst_formula, _NO_NAMES, _kids, _subst_formula, _subst_term,
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
# normalize_proof's default step budget, and dnsk eval's
PROOF_FUEL = 10_000


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

    It sort-checks the term under ``term_vars`` first and raises ``IllSorted``
    if the term is ill-sorted, because NbE assumes well-sorted input.
    ``TERM_FUEL`` bounds the closure applications and recursor unfoldings,
    those of read-back included; past it ``FuelExhausted`` is raised."""
    try:
        infer_term_type(term_vars, t)
    except SortError as e:
        raise IllSorted(str(e)) from e
    nbe = _NbE(TERM_FUEL, term_vars)
    return nbe.read(nbe.eval(t, {x: _Ne(Var, x) for x in term_vars}))


# ---------------------------------------------------------------------------
# Proof-term substitution and the machine's walks, type-keyed

# the single-child nodes whose chains substitution walks in a loop
_PREFIX = frozenset((Fst, Snd, Inl, Inr, Efq, Reset))


def subst_proof_hyp(p: ProofTerm, a: str, q: ProofTerm) -> ProofTerm:
    """Capture-avoiding substitution of a proof term for a hypothesis name."""
    return _subst(p, HYP, a, q, {HYP: [None], VAR: [None]})


def subst_proof_term(p: ProofTerm, x: str, t: Term) -> ProofTerm:
    """Substitute an individual term for a term variable inside a proof."""
    return _subst(p, VAR, x, t, {HYP: [_NO_NAMES], VAR: [None]})


def _subst(p: ProofTerm, ns: str, x: str, r, rfv: dict) -> ProofTerm:
    """p[x := r] in name space ``ns`` (HYP or VAR); ``rfv`` maps each name
    space to a one-element list caching the free names of ``r``, None until
    the first binder of that name space.  A child under a binder of x stays
    as it is, binders included; under other binders, see _rebind.  A node
    none of whose fields changed is returned itself."""
    cls = type(p)
    if cls is Hyp:
        return r if ns is HYP and p.name == x else p
    if cls is PApp or cls is PPair:
        f, a = (p.fn, p.arg) if cls is PApp else (p.fst, p.snd)
        f2, a2 = _subst(f, ns, x, r, rfv), _subst(a, ns, x, r, rfv)
        return p if f2 is f and a2 is a else cls(f2, a2)
    if cls in _PREFIX:
        a = p.body if cls is Reset else p.arg
        if type(a) not in _PREFIX:
            q = _subst(a, ns, x, r, rfv)
            return p if q is a else cls(q)
        # a chain of two or more is walked down in a loop and rebuilt
        # bottom up, each node with the old child a that q replaces
        chain = [p]
        while type(a) in _PREFIX:
            chain.append(a)
            a = a.body if type(a) is Reset else a.arg
        q = _subst(a, ns, x, r, rfv)
        for node in reversed(chain):
            q, a = node if q is a else type(node)(q), node
        return q
    if cls is Shift or cls is PLam or cls is TLam:
        kind, b0 = (VAR, p.var) if cls is TLam else (HYP, p.hyp)
        if kind is ns and b0 == x:
            return p
        b, body = _rebind(kind, b0, p.body, ns, x, r, rfv)
        body = _subst(body, ns, x, r, rfv)
        return p if b is b0 and body is p.body else cls(b, body)
    if cls is Ascribe:
        body, a = _subst(p.body, ns, x, r, rfv), p.formula
        if ns is VAR:
            a = _subst_formula(a, x, r, rfv[VAR])
        return p if body is p.body and a is p.formula else Ascribe(body, a)
    if cls is TApp or cls is ExPair:
        body, t = (p.fn, p.arg) if cls is TApp else (p.body, p.witness)
        body2 = _subst(body, ns, x, r, rfv)
        t2 = _subst_term(t, x, r, rfv[VAR]) if ns is VAR else t
        if body2 is body and t2 is t:
            return p
        return TApp(body2, t2) if cls is TApp else ExPair(t2, body2)
    if cls is Case:
        sc = _subst(p.scrut, ns, x, r, rfv)
        h1, b1, h2, b2 = p.left_name, p.left, p.right_name, p.right
        if ns is VAR or h1 != x:
            h1, b1 = _rebind(HYP, h1, b1, ns, x, r, rfv)
            b1 = _subst(b1, ns, x, r, rfv)
        if ns is VAR or h2 != x:
            h2, b2 = _rebind(HYP, h2, b2, ns, x, r, rfv)
            b2 = _subst(b2, ns, x, r, rfv)
        same = sc is p.scrut and b1 is p.left and b2 is p.right
        return p if same and h1 is p.left_name and h2 is p.right_name else Case(sc, h1, b1, h2, b2)
    # a Dest, the one form left
    sc, v, h, body = _subst(p.scrut, ns, x, r, rfv), p.var, p.hyp, p.body
    if (v if ns is VAR else h) != x:
        v, body = _rebind(VAR, v, body, ns, x, r, rfv)
        h, body = _rebind(HYP, h, body, ns, x, r, rfv)
        body = _subst(body, ns, x, r, rfv)
    if sc is p.scrut and v is p.var and h is p.hyp and body is p.body:
        return p
    return Dest(sc, v, h, body)


def _rebind(kind: str, b: str, child: ProofTerm, ns: str, x: str, r, rfv: dict):
    """The binder b of name space ``kind`` and the ``child`` it scopes over,
    as they are unless b is free in r; else b renamed, in the child too,
    away from the free names of r and the child (and x, in its name space)."""
    names = rfv[kind]
    if names[0] is None:
        names[0] = (fv_term(r) if ns is VAR else
                    fv_proof_hyps(r) if kind is HYP else fv_proof_termvars(r))
    if b not in names[0]:
        return b, child
    avoid = names[0] | (fv_proof_hyps if kind is HYP else fv_proof_termvars)(child)
    b2 = fresh_name(b, avoid | {x} if kind is ns else avoid)
    if kind is HYP:
        return b2, subst_proof_hyp(child, b, Hyp(b2))
    return b2, subst_proof_term(child, b, Var(b2))


def _is_candidate(name: str, base: str) -> bool:
    # fresh_name(base, ...) returns base or base followed by digits
    rest = name[len(base):]
    return name.startswith(base) and (not rest or rest.isdigit())


def free_candidates(p: ProofTerm, base: str, memo: Optional[dict] = None) -> frozenset:
    """The free hypothesis names of p that fresh_name(base, ...) could
    return, so that fresh_name(base, free_candidates(p, base) | extra) is
    fresh_name(base, fv_proof_hyps(p) | extra).  Leaving the other names
    out keeps each node's set small, so a walk that meets new nodes costs
    time in their number, not in the names below them.  A post-order walk
    as in syntax._contains, whose ``memo``, kept across calls with this one
    base, holds the names of every node walked."""
    if memo is None:
        memo = {}
    entry = memo.get(id(p))
    if entry is not None:
        return entry[1]
    stack = [p]
    pop, push = stack.pop, stack.append
    while stack:
        q = pop()
        if q is None:
            q = pop()
            cls = type(q)
            if cls is PApp:
                out = memo[id(q.fn)][1] | memo[id(q.arg)][1]
            elif cls is Shift or cls is PLam:
                out, h = memo[id(q.body)][1], q.hyp
                if h in out:
                    out = out - {h}
            elif cls is Case:
                l, h1, rt, h2 = memo[id(q.left)][1], q.left_name, memo[id(q.right)][1], q.right_name
                out = (memo[id(q.scrut)][1] | (l - {h1} if h1 in l else l)
                       | (rt - {h2} if h2 in rt else rt))
            elif cls is Dest:
                out, h = memo[id(q.body)][1], q.hyp
                out = memo[id(q.scrut)][1] | (out - {h} if h in out else out)
            else:
                out = _NO_NAMES
                for c in _kids(q, cls):
                    out = out | memo[id(c)][1]
            memo[id(q)] = (q, out)
        elif id(q) not in memo:
            cls = type(q)
            if cls is Hyp:
                name = q.name
                memo[id(q)] = (q, frozenset((name,)) if _is_candidate(name, base) else _NO_NAMES)
            else:
                push(q)
                push(None)
                stack.extend(_kids(q, cls))
    return memo[id(p)][1]


def mentions_candidate(p: ProofTerm, base: str) -> bool:
    """True if a hypothesis of p, free or bound, has a name that
    fresh_name(base, ...) could return.  The scan ignores binders, so a
    False answer means free_candidates(p, base) is empty; it stops at the
    first such name and enters a shared node once."""
    seen = set()
    stack = [p]
    pop = stack.pop
    while stack:
        q = pop()
        cls = type(q)
        if cls is Hyp:
            if _is_candidate(q.name, base):
                return True
        elif id(q) not in seen:
            seen.add(id(q))
            stack.extend(_kids(q, cls))
    return False


# ---------------------------------------------------------------------------
# Proof-term reduction


def _unwrap(p: ProofTerm) -> ProofTerm:
    while isinstance(p, Ascribe):
        p = p.body
    return p


# The evaluation hole of each constructor that has one, by field name: its
# first proof slot, unless a binder comes before it (so PLam, TLam and Shift
# have none).  A pair or application has a second hole, its right part, once
# its left part is normal.
_HOLE = {cls: cls.__match_args__[slots.index(PROOF)] for cls, slots in PROOF_SLOTS.items()
         if not {HYP, VAR} & set(slots[:slots.index(PROOF)])}

# the frames at which a redex can form, other than a reset: an elimination
# form with an introduction form in its hole (a function on the left for
# PApp); at any other frame _contract returns None
_ELIMINATIONS = frozenset((PApp, Fst, Snd, TApp, Case, Dest))


def _plug1(node: ProofTerm, left, q: ProofTerm) -> ProofTerm:
    """``node`` with q in its evaluation hole; ``left`` is None, or the normal
    left part of a pair or application whose right part is the hole."""
    cls = type(node)
    if cls is PPair:
        return PPair(q, node.snd) if left is None else PPair(left, q)
    if cls is PApp:
        return PApp(q, node.arg) if left is None else PApp(left, q)
    if cls is Reset or cls is Fst or cls is Snd or cls is Inl or cls is Inr or cls is Efq:
        return cls(q)
    if cls is TApp:
        return TApp(q, node.arg)
    if cls is Ascribe:
        return Ascribe(q, node.formula)
    if cls is ExPair:
        return ExPair(node.witness, q)
    if cls is Case:
        return Case(q, node.left_name, node.left, node.right_name, node.right)
    return Dest(q, node.var, node.hyp, node.body)


def _plug(frames, q: ProofTerm) -> ProofTerm:
    """The context ``frames`` (outermost first) with q in its hole.  A frame
    whose hole gets back the proof it held, with its left part unchanged,
    is its own node (the ascent's test), so plugging a context with the
    proof it was taken from returns the original nodes."""
    for node, left, hole in reversed(frames):
        if q is not hole or (left is not None and left is not getattr(node, _HOLE[type(node)])):
            node = _plug1(node, left, q)
        q = node
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


def normalize_proof(p: ProofTerm, fuel: int = PROOF_FUEL, trace: bool = False):
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
    # candidate names, has-shift flags and the known-normal beta arguments;
    # fv_memo is False once the scan of p has found no candidate name
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
                elif cls in _ELIMINATIONS:
                    reduct = _contract(node, left, v)
                    # a beta argument is normal wherever it is substituted
                    if cls is PApp and reduct is not None and type(v) in _HOLE:
                        if known is None:
                            known = {}
                        known[id(v)] = v
                else:
                    reduct = None
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
                fv_memo = {} if mentions_candidate(p, "a") else False
            avoid = {k}
            if fv_memo is not False:
                avoid |= free_candidates(_plug(frames, focus), "a", fv_memo)
            a = fresh_name("a", avoid)
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
