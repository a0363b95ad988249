"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` built from the run's seed, so the
same seed gives the same inputs.  Each generated item carries what the
benchmark needs to check the program's answer on it: the expected normal
form and step count of a control proof, the expected rejection kind of a
mutant, the Python integer an arithmetic program must reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dnsk.syntax import (
    And, App, Arrow, Ascribe, BOT, Case, Dest, Efq, Eq0, ExPair, Exists,
    Forall, Formula, Fst, Hyp, Imp, Inl, Inr, Lam, NAT, Nat, Or, PApp, PLam,
    PPair, Pair, PredApp, Prod, ProofTerm, Rec, Reset, STAR, Shift, Snd,
    Succ, TApp, TLam, Term, Var, ZERO, numeral,
)

# Predicates of generated formulas with their arities, and the declarations
# of those and of the library's predicates.
GEN_PREDS = {"P": 1, "Q": 2, "R": 0}
TABLE_PREDS = {**GEN_PREDS, "A": 2}
PRED_DECLS = (
    "pred P(nat).\npred Q(nat, nat).\npred R.\n"
    "pred A(nat, nat).\npred M(nat, nat).\npred T(nat, nat, nat).\npred P0.\n"
)


# ---------------------------------------------------------------------------
# Formulas


def nat_term(rng: random.Random, bound: int, scope: list, rec_terms: bool = False) -> Term:
    """A nat-sorted term: a scoped variable, a small numeral, a successor,
    or (with ``rec_terms``) an addition or multiplication through ``rec``."""
    roll = rng.random()
    if scope and roll < 0.4:
        return Var(rng.choice(scope))
    if scope and roll < 0.55:
        return Succ(Var(rng.choice(scope)))
    if rec_terms and scope and roll < 0.8:
        u = Var(rng.choice(scope))
        v = Var(rng.choice(scope)) if rng.random() < 0.6 else numeral(rng.randrange(bound))
        return add_term(u, v) if rng.random() < 0.6 else mul_term(u, v)
    return numeral(rng.randrange(bound))


def prime(rng: random.Random, bound: int, scope: list, rec_terms: bool = False) -> Formula:
    roll = rng.randrange(4)
    if roll == 0:
        return PredApp("P", (nat_term(rng, bound, scope, rec_terms),))
    if roll == 1:
        return PredApp("Q", (nat_term(rng, bound, scope, rec_terms),
                             nat_term(rng, bound, scope, rec_terms)))
    if roll == 2:
        return PredApp("R", ())
    return Eq0(nat_term(rng, bound, scope, rec_terms), nat_term(rng, bound, scope, rec_terms))


def formula(rng: random.Random, depth: int, bound: int = 3, scope: list | None = None,
            quantifiers: bool = True, rec_terms: bool = False) -> Formula:
    """A random closed arithmetical formula; every quantifier binds nat."""
    scope = scope if scope is not None else []
    if depth <= 0:
        return prime(rng, bound, scope, rec_terms)
    top = rng.randrange(6 if quantifiers else 4)
    if top == 3:
        return prime(rng, bound, scope, rec_terms)
    if top < 3:
        ctor = (And, Or, Imp)[top]
        return ctor(formula(rng, depth - 1, bound, scope, quantifiers, rec_terms),
                    formula(rng, depth - 1, bound, scope, quantifiers, rec_terms))
    x = f"v{len(scope)}"
    body = formula(rng, depth - 1, bound, scope + [x], quantifiers, rec_terms)
    return Forall(x, NAT, body) if top == 4 else Exists(x, NAT, body)


def pred_tables(rng: random.Random, bound: int) -> dict:
    """A random interpretation over {0..bound-1} of every predicate a
    generated or sample formula uses."""
    tables = {}
    for name, arity in TABLE_PREDS.items():
        cells = [()]
        for _ in range(arity):
            cells = [c + (k,) for c in cells for k in range(bound)]
        tables[name] = frozenset(c for c in cells if rng.random() < 0.5)
    return tables


# ---------------------------------------------------------------------------
# System T arithmetic through the recursor


def _succ_step() -> Term:
    return Lam("n", NAT, Lam("r", NAT, Succ(Var("r"))))


def add_term(u: Term, v: Term) -> Term:
    """u + v by recursion on u."""
    return Rec(NAT, u, v, _succ_step())


def mul_term(u: Term, v: Term) -> Term:
    """u * v by recursion on u, adding v at every step."""
    return Rec(NAT, u, ZERO, Lam("n", NAT, Lam("r", NAT, add_term(Var("r"), v))))


ADD_FN = Lam("x", NAT, Lam("y", NAT, add_term(Var("x"), Var("y"))))
MUL_FN = Lam("x", NAT, Lam("y", NAT, mul_term(Var("x"), Var("y"))))


@dataclass
class Arith:
    label: str  # add_<m> or mul_<m>
    term: Term
    value: int


def arith(rng: random.Random, op: str, m: int) -> Arith:
    """``op m y`` applied through a lambda, with ``y`` one of m-1, m, m+1."""
    y = max(1, m + rng.randint(-1, 1))
    fn = ADD_FN if op == "add" else MUL_FN
    term = App(App(fn, numeral(m)), numeral(y))
    return Arith(f"{op}_{m}", term, m + y if op == "add" else m * y)


# ---------------------------------------------------------------------------
# Control-free derivations, bounded by a node budget


_PROOF_TYPES = (Hyp, PPair, Fst, Snd, Inl, Inr, Case, PLam, PApp, TLam, TApp, ExPair, Dest,
                Efq, Reset, Shift, Ascribe)


@dataclass
class GenDerivation:
    hyps: dict          # hypothesis name -> formula
    proof: ProofTerm
    goal: Formula


class DerivationGen:
    """Grows a well-typed, control-free proof from a hypothesis pool until
    the next growth step would pass the node budget.

    Every result is accepted by the checker at the plain annotation.  The
    conjunction detour doubles the proof, so it is taken only while the
    doubled proof still fits the budget."""

    KINDS = 9

    def __init__(self, rng: random.Random, prefix: str = ""):
        self.rng = rng
        self.prefix = prefix
        self.hyps = {f"{prefix}h{i}": formula(rng, rng.randrange(3)) for i in range(3)}
        self.hyps[f"{prefix}habs"] = BOT
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def leaf(self):
        name = self.rng.choice(sorted(self.hyps))
        return Hyp(name), self.hyps[name]

    def grow(self, kind: int, p, a):
        """One growth step of the given kind: (proof, goal)."""
        rng = self.rng
        if kind == 0:
            q, b = self.leaf()
            return PPair(p, q), And(a, b)
        if kind == 1:
            b = formula(rng, 1)
            return (Inl(p), Or(a, b)) if rng.random() < 0.5 else (Inr(p), Or(b, a))
        if kind == 2:
            return PLam(self.fresh("u"), p), Imp(formula(rng, 1), a)
        if kind == 3:
            return ExPair(numeral(rng.randrange(3)), p), Exists(self.fresh("w"), NAT, a)
        if kind == 4:
            x = self.fresh("w")
            return TLam(x, p), Forall(x, NAT, a)
        if kind == 5:  # conjunction detour: the proof appears twice
            pair = Ascribe(PPair(p, p), And(a, a))
            return (Fst(pair) if rng.random() < 0.5 else Snd(pair)), a
        if kind == 6:  # disjunction detour
            c1, c2 = self.fresh("c"), self.fresh("c")
            scrut = Ascribe(Inl(p) if rng.random() < 0.5 else Inr(p), Or(a, a))
            return Case(scrut, c1, Hyp(c1), c2, Hyp(c2)), a
        if kind == 7:  # application detour through an identity
            h = self.fresh("u")
            return PApp(Ascribe(PLam(h, Hyp(h)), Imp(a, a)), p), a
        x, h = self.fresh("w"), self.fresh("u")  # existential detour
        scrut = Ascribe(ExPair(ZERO, p), Exists(x, NAT, a))
        return Dest(scrut, x, h, Hyp(h)), a

    # Growth of the extracted realizer per step kind, as (factor, added
    # nodes): the conjunction detour copies the realizer twice and the
    # disjunction detour three times (into both branches and the flag).
    REALIZER_GROWTH = {0: (1, 2), 1: (1, 5), 2: (1, 1), 3: (1, 3), 4: (1, 1),
                       5: (2, 2), 6: (3, 20), 7: (1, 3), 8: (1, 4)}

    def build(self, budget: int) -> GenDerivation:
        """Grow until the proof, counted in syntax nodes with the formulas
        and terms inside it, would pass ``budget``, or its realizer would
        pass an estimated ``budget`` nodes.  A step that does not fit is
        redrawn; growth stops after three misfits in a row."""
        rng = self.rng
        if rng.random() < 0.15:
            p, a = Efq(Hyp(f"{self.prefix}habs")), formula(rng, 1)
            rsize = 4
        else:
            (p, a), rsize = self.leaf(), 1
        size, misfits = syntax_nodes(p), 0
        while misfits < 3:
            kind = rng.randrange(self.KINDS)
            factor, added = self.REALIZER_GROWTH[kind]
            q, b = self.grow(kind, p, a)
            q_size = syntax_nodes(q, {id(p): size})
            if rsize * factor + added > budget or q_size > budget:
                misfits += 1
                continue
            p, a, size, rsize, misfits = q, b, q_size, rsize * factor + added, 0
        return GenDerivation(dict(self.hyps), p, a)


def syntax_nodes(x, known: dict | None = None) -> int:
    """Nodes of a syntax tree: proof, term, formula and sort nodes alike.
    ``known`` maps the id of a subtree already counted to its count."""
    n, stack = 0, [x]
    while stack:
        y = stack.pop()
        if known and id(y) in known:
            n += known[id(y)]
        elif isinstance(y, tuple):
            stack.extend(y)
        elif hasattr(y, "__dataclass_fields__"):
            n += 1
            stack.extend(getattr(y, f) for f in y.__dataclass_fields__)
    return n


# ---------------------------------------------------------------------------
# Mutants: a change to a generated proof, with the rejection kind it implies


def _map_children(q, go):
    """``q`` rebuilt with ``go`` applied to each of its proof children."""
    fields = {f: getattr(q, f) for f in q.__dataclass_fields__}
    return type(q)(**{f: go(c) if isinstance(c, _PROOF_TYPES) else c for f, c in fields.items()})


def _count_hyps(p) -> int:
    if isinstance(p, Hyp):
        return 1
    return sum(_count_hyps(c) for c in (getattr(p, f) for f in p.__dataclass_fields__)
               if isinstance(c, _PROOF_TYPES))


def _rename_hyp(p, target: int, new: str):
    """Replace the ``target``-th hypothesis occurrence, in pre-order, by ``new``."""
    seen = [0]

    def go(q):
        if isinstance(q, Hyp):
            seen[0] += 1
            return Hyp(new) if seen[0] - 1 == target else q
        return _map_children(q, go)

    return go(p)


def mutate(rng: random.Random, d: GenDerivation, tag: str):
    """(proof, goal, expected kind) for a mutant of ``d``."""
    roll = rng.randrange(4)
    if roll == 0:
        target = rng.randrange(_count_hyps(d.proof))
        return _rename_hyp(d.proof, target, f"missing_{tag}"), d.goal, "UnboundHypothesis"
    if roll == 1 or d.goal == BOT:
        return Shift("k", PApp(Hyp("k"), d.proof)), d.goal, "AnnotationViolation"
    if roll == 2:
        return Reset(d.proof), d.goal, "ResetGoalNotBot"
    return PApp(PLam("u", Hyp("u")), d.proof), d.goal, "NotSynthesizable"


def drop_first_reset(p):
    """The proof with its first reset, in pre-order, deleted."""
    done = [False]

    def go(q):
        if done[0]:
            return q
        if isinstance(q, Reset):
            done[0] = True
            return q.body
        return _map_children(q, go)

    return go(p)


# ---------------------------------------------------------------------------
# Control proofs whose normal form and step count are known by construction


@dataclass
class ControlProof:
    label: str           # nest_<d>, redex_<n>, lib_<name> or random
    hyps: dict           # context hypotheses
    proof: ProofTerm
    goal: Formula
    normal: ProofTerm    # the normal form, up to alpha
    steps: int           # the number of reduction steps to reach it


P0_ATOM = PredApp("P", (ZERO,))


def nested_shifts(d: int, prefix: str = "") -> ControlProof:
    """reset (f_{d-1} (shift k => k (... reset (f_0 (shift k => k a)) ...))).

    Each level captures its context, resumes it with the level below, and
    the two delimiters then drop: four steps per level, ending in
    f_{d-1} (... (f_0 a))."""
    a = f"{prefix}a"
    hyps = {a: P0_ATOM, f"{prefix}f0": Imp(P0_ATOM, BOT)}
    proof: ProofTerm = Hyp(a)
    normal: ProofTerm = Hyp(a)
    for i in range(d):
        f = f"{prefix}f{i}"
        if i:
            hyps[f] = Imp(BOT, BOT)
        proof = Reset(PApp(Hyp(f), Shift("k", PApp(Hyp("k"), proof))))
        normal = PApp(Hyp(f), normal)
    return ControlProof(f"nest_{d}", hyps, proof, BOT, normal, 4 * d)


def redex_list(rng: random.Random, n: int, prefix: str = "") -> ControlProof:
    """A right-nested tuple of n independent one-step redexes (beta through
    an ascribed lambda, a projection of an ascribed pair, a case on an
    ascribed injection), reduced left to right."""
    b, c = Hyp(f"{prefix}b"), Hyp(f"{prefix}c")
    hyps = {b.name: P0_ATOM, c.name: PredApp("R", ())}
    items, normals, goals = [], [], []
    for i in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            lam = Ascribe(PLam(f"x{i}", Hyp(f"x{i}")), Imp(P0_ATOM, P0_ATOM))
            items.append(PApp(lam, b))
            normals.append(Ascribe(b, P0_ATOM))
            goals.append(P0_ATOM)
        elif kind == 1:
            pair = Ascribe(PPair(b, c), And(P0_ATOM, PredApp("R", ())))
            first = rng.random() < 0.5
            items.append(Fst(pair) if first else Snd(pair))
            normals.append(b if first else c)
            goals.append(P0_ATOM if first else PredApp("R", ()))
        else:
            inj = Ascribe(Inl(b), Or(P0_ATOM, P0_ATOM))
            items.append(Case(inj, f"l{i}", Hyp(f"l{i}"), f"r{i}", Hyp(f"r{i}")))
            normals.append(b)
            goals.append(P0_ATOM)
    proof, normal, goal = items[-1], normals[-1], goals[-1]
    for item, nf, g in zip(reversed(items[:-1]), reversed(normals[:-1]), reversed(goals[:-1])):
        proof, normal, goal = PPair(item, proof), PPair(nf, normal), And(g, goal)
    return ControlProof(f"redex_{n}", hyps, proof, goal, normal, n)


def library_applied(entry) -> ControlProof:
    """A library entry applied to one inert hypothesis per leading
    implication, each named like the binder it meets: the leading redexes
    fire one step each and leave the ascribed body, already normal because
    its head is a hypothesis."""
    hyps = dict(entry.context.hyps)
    proof: ProofTerm = Ascribe(entry.proof, entry.goal)
    body, goal, steps = entry.proof, entry.goal, 0
    while isinstance(goal, Imp):
        assert isinstance(body, PLam), entry.name
        hyps[body.hyp] = goal.left
        proof = PApp(proof, Hyp(body.hyp))
        body, goal, steps = body.body, goal.right, steps + 1
    return ControlProof(f"lib_{entry.name}", hyps, proof, goal, Ascribe(body, goal), steps)


@dataclass
class _Seg:
    proof: ProofTerm
    normal: ProofTerm
    steps: int
    size: int = 1


def random_control(rng: random.Random, budget: int, prefix: str = "") -> ControlProof:
    """A random bot-typed proof built from segments with shifts under resets.

    Segments (each of type bot; ``z`` is a bot hypothesis, ``f_i`` and ``g``
    functions into bot) with their step counts:
      z                                        0 steps
      reset (f (shift k => k Y))              Y + 4   ~> f Y'
      reset (f (shift k => Y))                Y + 2   ~> Y'
      reset (f (shift k => g (k Y1) (k Y2)))  Y1 + Y2 + 6 ~> g (f Y1') (f Y2')
      g Y1 Y2                                 Y1 + Y2 ~> g Y1' Y2'
      reset Y                                 Y + 1   ~> Y'
      ((fun u => g u u) : bot -> bot) Y       Y + 1   ~> (g Y' Y' : bot)
    where Y' is the normal form of Y."""
    fs = [f"{prefix}f{i}" for i in range(3)]
    z, g = Hyp(f"{prefix}z"), Hyp(f"{prefix}g")
    hyps = {z.name: BOT, g.name: Imp(BOT, Imp(BOT, BOT))}
    for f in fs:
        hyps[f] = Imp(BOT, BOT)

    def seg(room: int) -> _Seg:
        if room <= 1:
            return _Seg(z, z, 0)
        kind = rng.randrange(6)
        f = Hyp(rng.choice(fs))
        if kind in (2, 3):  # two sub-segments
            left = seg(room // 2)
            right = seg(room - left.size - 1)
            size = left.size + right.size + 1
            if kind == 2:
                body = PApp(PApp(g, PApp(Hyp("k"), left.proof)), PApp(Hyp("k"), right.proof))
                return _Seg(Reset(PApp(f, Shift("k", body))),
                            PApp(PApp(g, PApp(f, left.normal)), PApp(f, right.normal)),
                            left.steps + right.steps + 6, size)
            return _Seg(PApp(PApp(g, left.proof), right.proof),
                        PApp(PApp(g, left.normal), right.normal),
                        left.steps + right.steps, size)
        inner = seg(room - 1)
        size = inner.size + 1
        if kind == 0:
            return _Seg(Reset(PApp(f, Shift("k", PApp(Hyp("k"), inner.proof)))),
                        PApp(f, inner.normal), inner.steps + 4, size)
        if kind == 1:
            return _Seg(Reset(PApp(f, Shift("k", inner.proof))), inner.normal,
                        inner.steps + 2, size)
        if kind == 4:
            return _Seg(Reset(inner.proof), inner.normal, inner.steps + 1, size)
        lam = Ascribe(PLam("u", PApp(PApp(g, Hyp("u")), Hyp("u"))), Imp(BOT, BOT))
        return _Seg(PApp(lam, inner.proof),
                    Ascribe(PApp(PApp(g, inner.normal), inner.normal), BOT),
                    inner.steps + 1, size)

    s = seg(budget)
    return ControlProof("random", hyps, s.proof, BOT, s.normal, s.steps)



def canonical(sort) -> Term:
    """A closed inhabitant of a sort, used as an axiom's realizer."""
    match sort:
        case Prod(l, r):
            return Pair(canonical(l), canonical(r))
        case Arrow(d, c):
            return Lam("x", d, canonical(c))
        case Nat():
            return ZERO
        case _:
            return STAR
