"""The proof traversals derived from the slot table against the hand-written
ones they replaced (``reference_syntax``), on random proofs over all 17
constructors.  The name pools are tiny and share ``x`` and ``x1`` between
hypotheses and individual variables, so capture and shadowing happen often,
and a fresh name for ``x`` can clash with a free ``x1``.  The check also
runs without pytest, on the standard library alone, with ``scale`` times the
random proofs of the tier-1 run:

    PYTHONPATH=src python tests/test_proof_traversals.py [scale]
"""

import random
import sys
from typing import get_args

import reference_syntax as ref
from dnsk import syntax
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
        sh = syntax.subst_proof_hyp(p, a, q)
        assert sh == ref.subst_proof_hyp(p, a, q)
        st = syntax.subst_proof_term(p, x, t)
        assert st == ref.subst_proof_term(p, x, t)
        # a substitution that finds nothing to replace or rename returns p
        assert syntax.subst_proof_hyp(p, "zz", Hyp("zz1")) is p
        # renamed variants: substituting for an absent name renames every
        # binder the replacement mentions, so these are alpha-equal to p;
        # the others rename a free name or rebind a body and mostly are not
        renamed = [
            syntax.subst_proof_hyp(p, "z", Hyp(rng.choice(HYPS))),
            syntax.subst_proof_term(p, "z", Var(rng.choice(VARS))),
        ]
        others = [
            syntax.subst_proof_hyp(p, rng.choice(HYPS), Hyp(rng.choice(HYPS))),
            rebind(rng, p),
            q,
        ]
        for v in renamed:
            assert syntax.alpha_eq_proof(p, v) and ref.alpha_eq_proof(p, v)
        for v in others:
            assert syntax.alpha_eq_proof(p, v) == ref.alpha_eq_proof(p, v)


def test_memoized_walks_match_hand_written():
    memoized_walks_agree(2000)


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
            names = syntax.free_candidates(p, base, memos[base])
            assert names == {n for n in fv if n in (base, base + "1")}
            k = rng.choice(HYPS)
            assert syntax.fresh_name(base, names | {k}) == syntax.fresh_name(base, fv | {k})
        assert syntax.contains_shift(p, memos["shift"]) == ref.contains_shift(p)


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    test_generator_covers_every_constructor()
    derived_traversals_agree(CASES * scale)
    memoized_walks_agree(2000 * scale)
    print(f"python {sys.version.split()[0]}: {CASES * scale} random proofs through every "
          f"proof walk and {2000 * scale} through the memoized walks agree")
