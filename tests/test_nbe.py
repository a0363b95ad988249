"""Normalization by evaluation, linear extraction and the substitutions that
compute the replacement's free variables once, against the code they
replaced (``reference_evaluate``, ``reference_extract``,
``reference_syntax``).

The terms are well-sorted and open: their free variables have nat, arrow
and product sorts, binders reuse the free variables' names, and recursor
scrutinees are often ``S^k`` of a variable, so reads of closures under
clashing binders, projections of neutrals and ``rec`` on ``S x`` all
occur."""

import itertools
import random

import reference_evaluate as ref_eval
import reference_extract as ref_extract
import reference_syntax as ref_syntax
from conftest import TEST_SIGNATURE, DerivationBuilder, random_formula
from dnsk.evaluate import normalize_term
from dnsk.extract import ExtractionEnv, extract_mr
from dnsk.parser import parse_term
from dnsk.syntax import (
    App, Arrow, BOT, Eq0, Exists, ExPair, Forall, Imp, Lam, NAT, Pair, PredApp, Prod,
    Proj1, Proj2, Rec, STAR, Succ, UNIT, Var, ZERO, alpha_eq_term,
    contains_control, fv_formula, fv_term, subst_formula, subst_term,
)
from dnsk.theorems import LIBRARY_SIGNATURE, build_library
from dnsk.typecheck import Annotation, Context, check_proof, infer_term_type

NN = Arrow(NAT, NAT)
PNN = Prod(NAT, NAT)
SORTS = (NAT, NAT, UNIT, NN, PNN, Arrow(PNN, NAT), Prod(NN, NAT), Arrow(NAT, NN),
         Arrow(NN, NAT))
FREE = {"x": NAT, "f": NN, "p": PNN, "g": Arrow(NAT, PNN), "h": Arrow(NN, NAT)}
BINDERS = ("x", "y", "f", "p", "n")


def gen_term(rng, sort, ctx, d):
    """A term of ``sort`` under ``ctx``, of elimination depth at most d."""
    names = [x for x, s in ctx.items() if s == sort]
    if names and (d <= 0 or rng.random() < 0.2):
        return Var(rng.choice(names))
    roll = rng.randrange(5) if d > 0 else 0
    if roll == 1:
        dom = rng.choice(SORTS)
        return App(gen_term(rng, Arrow(dom, sort), ctx, d - 1), gen_term(rng, dom, ctx, d - 1))
    if roll == 2:
        other = rng.choice(SORTS)
        if rng.random() < 0.5:
            return Proj1(gen_term(rng, Prod(sort, other), ctx, d - 1))
        return Proj2(gen_term(rng, Prod(other, sort), ctx, d - 1))
    if roll == 3:
        nats = [x for x, s in ctx.items() if s == NAT]
        if nats and rng.random() < 0.5:
            scrut = Var(rng.choice(nats))
            for _ in range(rng.randrange(1, 3)):
                scrut = Succ(scrut)
        else:
            scrut = gen_term(rng, NAT, ctx, d - 1)
        step = gen_term(rng, Arrow(NAT, Arrow(sort, sort)), ctx, d - 1)
        return Rec(sort, scrut, gen_term(rng, sort, ctx, d - 1), step)
    # an introduction form
    if sort == NAT:
        if d > 0 and rng.random() < 0.4:
            return Succ(gen_term(rng, NAT, ctx, d - 1))
        return rng.choice((ZERO, Succ(ZERO), Succ(Succ(ZERO))))
    if sort == UNIT:
        return STAR
    if isinstance(sort, Prod):
        return Pair(gen_term(rng, sort.left, ctx, d - 1), gen_term(rng, sort.right, ctx, d - 1))
    x = rng.choice(BINDERS)
    return Lam(x, sort.dom, gen_term(rng, sort.cod, {**ctx, x: sort.dom}, d - 1))


# read-backs where a binder meets a free variable of the same name
CLASHES = (
    "fun (x:nat) => (fun (y:nat) => fun (x:nat) => y) x",
    "(fun (y:nat) => fun (x:nat) => y) x",
    "fun (x:nat) => fun (x:nat) => x",
    "(fun (g:nat -> nat) => fun (x:nat) => g x) (fun (y:nat) => x)",
    "fun (y:nat) => (fun (f:nat -> nat -> nat) => f y) (fun (x:nat) => fun (y:nat) => x)",
    "fun (p:nat * nat) => (fun (q:nat * nat) => fun (p:nat) => q.1) p",
)


def test_normalize_term_is_alpha_equal_to_the_old_normalizer():
    for src in CLASHES:
        t = parse_term(src)
        assert alpha_eq_term(normalize_term(FREE, t), ref_eval._nf(t)), src
    rng = random.Random(71)
    for i in range(3000):
        t = gen_term(rng, rng.choice(SORTS), FREE, 2 + i % 3)
        assert infer_term_type(FREE, t) is not None
        new, old = normalize_term(FREE, t), ref_eval._nf(t)
        assert alpha_eq_term(new, old), (t, new, old)


def gen_raw_term(rng, d):
    """An unsorted term over a tiny name pool, for the substitutions."""
    k = rng.randrange(9 if d > 0 else 3)
    if k == 0:
        return Var(rng.choice(("x", "x1", "y")))
    if k == 1:
        return ZERO
    if k == 2:
        return STAR
    if k == 3:
        return Succ(gen_raw_term(rng, d - 1))
    if k == 4:
        return Lam(rng.choice(("x", "x1", "y")), NAT, gen_raw_term(rng, d - 1))
    if k == 5:
        return App(gen_raw_term(rng, d - 1), gen_raw_term(rng, d - 1))
    if k == 6:
        return Pair(gen_raw_term(rng, d - 1), gen_raw_term(rng, d - 1))
    if k == 7:
        return (Proj1 if rng.random() < 0.5 else Proj2)(gen_raw_term(rng, d - 1))
    return Rec(NAT, gen_raw_term(rng, d - 1), gen_raw_term(rng, d - 1), gen_raw_term(rng, d - 1))


def gen_raw_formula(rng, d):
    k = rng.randrange(5 if d > 0 else 2)
    if k == 0:
        return BOT if rng.random() < 0.3 else PredApp("P", (gen_raw_term(rng, 2),))
    if k == 1:
        return Eq0(gen_raw_term(rng, 2), gen_raw_term(rng, 2))
    if k == 2:
        return Imp(gen_raw_formula(rng, d - 1), gen_raw_formula(rng, d - 1))
    quant = Forall if k == 3 else Exists
    return quant(rng.choice(("x", "x1", "y")), NAT, gen_raw_formula(rng, d - 1))


def test_substitutions_match_the_old_ones():
    rng = random.Random(73)
    for _ in range(4000):
        x = rng.choice(("x", "x1", "y"))
        r = gen_raw_term(rng, 2)
        t = gen_raw_term(rng, 4)
        assert subst_term(t, x, r) == ref_syntax.subst_term(t, x, r)
        a = gen_raw_formula(rng, 3)
        assert subst_formula(a, x, r) == ref_syntax.subst_formula(a, x, r)


def test_substitutions_through_a_shared_memo_match():
    # one free-variable memo across many calls, as check_proof and
    # extract_mr keep one: results are substituted into again, so renamed
    # bodies and results are read from the memo too
    rng = random.Random(83)
    memo: dict = {}
    terms = [gen_raw_term(rng, 4) for _ in range(200)]
    formulas = [gen_raw_formula(rng, 3) for _ in range(200)]
    for _ in range(2000):
        x = rng.choice(("x", "x1", "y"))
        r = gen_raw_term(rng, 2)
        t, a = rng.choice(terms), rng.choice(formulas)
        new_t, new_a = subst_term(t, x, r, memo), subst_formula(a, x, r, memo)
        assert new_t == ref_syntax.subst_term(t, x, r)
        assert new_a == ref_syntax.subst_formula(a, x, r)
        assert fv_term(new_t, memo) == fv_term(new_t)
        assert fv_formula(new_a, memo) == fv_formula(new_a)
        assert (new_t is t) == (x not in fv_term(t))
        assert (new_a is a) == (x not in fv_formula(a))
        terms.append(new_t)
        formulas.append(new_a)


def _renamed_builder(rng):
    """Derivations whose names meet the extractor's fresh names: hypotheses
    mention the free variable r, and every name the builder makes up,
    variable binders included, is r2, r3 and so on."""
    b = DerivationBuilder(rng)
    b.hyps = {f"h{i}": random_formula(rng, rng.randrange(3), scope=["r"])
              for i in range(3)}
    b.hyps["habs"] = BOT
    counter = itertools.count(2)
    b.fresh = lambda base: f"r{next(counter)}"
    return b


def test_extract_mr_equals_the_old_extraction():
    rng = random.Random(79)
    cases = []
    for i in range(240):
        b = DerivationBuilder(rng) if i % 3 == 0 else _renamed_builder(rng)
        hyps, proof, goal = b.build(rng.randrange(1, 10))
        if i % 3 == 1:
            # r1 occurs only in a witness
            proof, goal = ExPair(Succ(Var("r1")), proof), Exists("y", NAT, goal)
        ctx = Context({"r": NAT, "r1": NAT}, hyps)
        env = ExtractionEnv({h: f"x_{h}" for h in hyps}, {}, frozenset())
        cases.append((TEST_SIGNATURE, ctx, proof, goal, env))
    for e in build_library():
        if contains_control(e.proof) or e.annotation is not Annotation.PLAIN:
            continue
        env = ExtractionEnv({h: f"x_{h}" for h in e.context.hyps if h not in e.axiom_realizers},
                            dict(e.axiom_realizers), frozenset())
        cases.append((LIBRARY_SIGNATURE, e.context, e.proof, e.goal, env))
    assert len(cases) > 240
    for sig, ctx, proof, goal, env in cases:
        report = check_proof(sig, ctx, Annotation.PLAIN, proof, goal)
        assert report.ok, report.error
        d = report.derivation
        assert extract_mr(d, env) == ref_extract.extract_mr(d, env)
