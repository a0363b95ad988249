"""The proof traversals, derived from the slot table or type-keyed, against
the hand-written ones they replaced (``reference_syntax``), on random proofs
over all 17 constructors and on one node of each proof form.  The name
pools are tiny and share ``x`` and ``x1`` between hypotheses and individual
variables, so capture and shadowing happen often, and a fresh name for
``x`` can clash with a free ``x1``.  The check also runs without pytest, on
the standard library alone, with ``scale`` times the random proofs of the
tier-1 run:

    PYTHONPATH=src python tests/test_proof_traversals.py [scale]
"""

import random
import sys
from typing import get_args

import reference_syntax as ref
from dnsk import evaluate, syntax
from dnsk.syntax import (
    App, BOT, Eq0, Exists, Forall, Hyp, Imp, Lam, NAT, Pair, PredApp, Proj1,
    STAR, Succ, Var, ZERO,
)

HYPS = ("a", "x", "x1")
VARS = ("x", "x1", "y")
CASES = 5000
CONSTRUCTORS = (Hyp, *syntax.PROOF_SLOTS)


def gen_term(rng, d):
    k = rng.randrange(7 if d > 0 else 3)
    if k == 0:
        return Var(rng.choice(VARS))
    if k == 1:
        return ZERO
    if k == 2:
        return STAR
    if k == 3:
        return Succ(gen_term(rng, d - 1))
    if k == 4:
        return Lam(rng.choice(VARS), NAT, gen_term(rng, d - 1))
    if k == 5:
        return App(gen_term(rng, d - 1), gen_term(rng, d - 1))
    return Proj1(Pair(gen_term(rng, d - 1), gen_term(rng, d - 1)))


def gen_formula(rng, d):
    k = rng.randrange(5 if d > 0 else 2)
    if k == 0:
        return BOT if rng.random() < 0.3 else PredApp("P", (gen_term(rng, 1),))
    if k == 1:
        return Eq0(gen_term(rng, 1), gen_term(rng, 1))
    if k == 2:
        return Imp(gen_formula(rng, d - 1), gen_formula(rng, d - 1))
    quant = Forall if k == 3 else Exists
    return quant(rng.choice(VARS), NAT, gen_formula(rng, d - 1))


def gen_proof(rng, d):
    """A random proof of depth at most d.  It fills each constructor's fields
    by their kinds in the slot table; the oracle never reads the table."""
    cls = rng.choice(CONSTRUCTORS)
    if d <= 0 or cls is Hyp:
        return Hyp(rng.choice(HYPS))
    fill = {
        syntax.PROOF: lambda: gen_proof(rng, d - 1),
        syntax.TERM: lambda: gen_term(rng, 2),
        syntax.FORMULA: lambda: gen_formula(rng, 2),
        syntax.HYP: lambda: rng.choice(HYPS),
        syntax.VAR: lambda: rng.choice(VARS),
    }
    return cls(*(fill[kind]() for kind in syntax.PROOF_SLOTS[cls]))


def rebind(rng, p):
    """p with some binder names changed at random, their scopes left as is."""
    if type(p) is Hyp:
        return p
    vals = [getattr(p, f) for f in type(p).__match_args__]
    for i, kind in enumerate(syntax.PROOF_SLOTS[type(p)]):
        if kind == syntax.PROOF:
            vals[i] = rebind(rng, vals[i])
        elif kind in (syntax.HYP, syntax.VAR) and rng.random() < 0.3:
            vals[i] = rng.choice(HYPS if kind == syntax.HYP else VARS)
    return type(p)(*vals)


def test_generator_covers_every_constructor():
    rng = random.Random(0)
    seen = set()

    def walk(p):
        seen.add(type(p))
        for v in (getattr(p, f) for f in type(p).__match_args__):
            if type(v) in syntax.PROOF_SLOTS or type(v) is Hyp:
                walk(v)

    for _ in range(200):
        walk(gen_proof(rng, 4))
    assert seen == set(get_args(syntax.ProofTerm))
    assert len(seen) == 17


def test_derived_traversals_match_hand_written():
    derived_traversals_agree(CASES)


def derived_traversals_agree(cases):
    rng = random.Random(20260)
    for _ in range(cases):
        p = gen_proof(rng, rng.randrange(1, 5))
        q = gen_proof(rng, rng.randrange(0, 3))
        t = gen_term(rng, 2)
        a, x = rng.choice(HYPS + ("z",)), rng.choice(VARS + ("z",))
        assert syntax.fv_proof_hyps(p) == ref.fv_proof_hyps(p)
        assert syntax.fv_proof_termvars(p) == ref.fv_proof_termvars(p)
        assert syntax.contains_control(p) == ref.contains_control(p)
        assert syntax.contains_shift(p) == ref.contains_shift(p)
        sh = evaluate.subst_proof_hyp(p, a, q)
        assert sh == ref.subst_proof_hyp(p, a, q)
        st = evaluate.subst_proof_term(p, x, t)
        assert st == ref.subst_proof_term(p, x, t)
        # a substitution that finds nothing to replace or rename returns p
        assert evaluate.subst_proof_hyp(p, "zz", Hyp("zz1")) is p
        # renamed variants: substituting for an absent name renames every
        # binder the replacement mentions, so these are alpha-equal to p;
        # the others rename a free name or rebind a body and mostly are not
        renamed = [
            evaluate.subst_proof_hyp(p, "z", Hyp(rng.choice(HYPS))),
            evaluate.subst_proof_term(p, "z", Var(rng.choice(VARS))),
        ]
        others = [
            evaluate.subst_proof_hyp(p, rng.choice(HYPS), Hyp(rng.choice(HYPS))),
            rebind(rng, p),
            q,
        ]
        for v in renamed:
            assert syntax.alpha_eq_proof(p, v) and ref.alpha_eq_proof(p, v)
        for v in others:
            assert syntax.alpha_eq_proof(p, v) == ref.alpha_eq_proof(p, v)


def one_node(cls, i, special, hyp_binder, var_binder):
    """A node of class cls with ``special`` in its i-th field, which is a
    proof slot, the hypothesis b in every other proof slot, the binder
    names given, x in its term slot and P(x) in its formula slot."""
    fill = {
        syntax.PROOF: Hyp("b"),
        syntax.TERM: Var("x"),
        syntax.FORMULA: PredApp("P", (Var("x"),)),
        syntax.HYP: hyp_binder,
        syntax.VAR: var_binder,
    }
    vals = [fill[kind] for kind in syntax.PROOF_SLOTS[cls]]
    vals[i] = special
    return cls(*vals)


def test_typed_walks_cover_every_proof_form():
    # each proof slot of each form in turn holds a1, which the walks must
    # reach: as a hypothesis, under a term application, under a shift and
    # at the foot of a prefix chain; the binders shadow a1 or x, are free in
    # the replacement, take a name of the other name space, or none of these
    specials = [Hyp("a1"), syntax.TApp(Hyp("a1"), Var("x")), syntax.Shift("k", Hyp("a1")),
                syntax.Efq(syntax.Reset(Hyp("a1")))]
    for cls, slots in syntax.PROOF_SLOTS.items():
        for i in [i for i, kind in enumerate(slots) if kind == syntax.PROOF]:
            for special in specials:
                for h, v in (("h", "v"), ("a1", "x"), ("c", "z"), ("x", "a1")):
                    p = one_node(cls, i, special, h, v)
                    for a, q in (("a1", Hyp("c")), ("a1", Hyp("h")), ("b", Hyp("a1"))):
                        assert evaluate.subst_proof_hyp(p, a, q) == ref.subst_proof_hyp(p, a, q), p
                    for x, t in (("x", Var("z")), ("x", Var("v")), ("y", ZERO)):
                        assert evaluate.subst_proof_term(p, x, t) == ref.subst_proof_term(p, x, t), p
                    fv = ref.fv_proof_hyps(p)
                    for base in ("a", "b", "c"):
                        names = {n for n in fv if n in (base, base + "1")}
                        assert evaluate.free_candidates(p, base) == names, p
                        mentioned = bool(hyp_names(p) & {base, base + "1"})
                        assert evaluate.mentions_candidate(p, base) == mentioned, p
                    assert syntax.contains_shift(p) == ref.contains_shift(p), p
                    assert syntax.contains_control(p) == ref.contains_control(p), p


def test_memoized_walks_match_hand_written():
    memoized_walks_agree(2000)


def hyp_names(p):
    """The names of every hypothesis of p, free or bound."""
    if type(p) is Hyp:
        return {p.name}
    out = set()
    for f in type(p).__match_args__:
        v = getattr(p, f)
        if type(v) in CONSTRUCTORS:
            out |= hyp_names(v)
    return out


def memoized_walks_agree(n):
    """The explicit-stack walks, each with one memo across every call and
    with subproofs shared between calls, against the hand-written ones."""
    rng = random.Random(20261)
    memos = {"a": {}, "x": {}, "shift": {}}
    proofs = []
    for _ in range(n):
        p = gen_proof(rng, rng.randrange(1, 5))
        if proofs and rng.random() < 0.5:
            p = syntax.PPair(p, rng.choice(proofs))
        proofs.append(p)
        fv = ref.fv_proof_hyps(p)
        for base in ("a", "x"):
            names = evaluate.free_candidates(p, base, memos[base])
            assert names == {n for n in fv if n in (base, base + "1")}
            k = rng.choice(HYPS)
            assert syntax.fresh_name(base, names | {k}) == syntax.fresh_name(base, fv | {k})
            mentioned = evaluate.mentions_candidate(p, base)
            assert mentioned == bool(hyp_names(p) & {base, base + "1"})
            assert mentioned or not names
        assert syntax.contains_shift(p, memos["shift"]) == ref.contains_shift(p)


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    test_generator_covers_every_constructor()
    test_typed_walks_cover_every_proof_form()
    derived_traversals_agree(CASES * scale)
    memoized_walks_agree(2000 * scale)
    print(f"python {sys.version.split()[0]}: {CASES * scale} random proofs through every "
          f"proof walk and {2000 * scale} through the memoized walks agree")
