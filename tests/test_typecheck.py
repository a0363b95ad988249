"""The annotated natural-deduction checker."""

import random

import pytest

from dnsk import typecheck
from dnsk.parser import parse_formula, parse_proof, parse_term, parse_type
from dnsk.syntax import BOT, NAT, Forall, Hyp, Imp, PLam, PredApp, Signature, TLam, Var
from dnsk.typecheck import (
    Annotation, Context, SortError, check_proof, infer_term_type, wf_formula,
)
from conftest import TEST_SIGNATURE, random_derivation

SIG = TEST_SIGNATURE


def check(src_proof, src_goal, ann=Annotation.PLAIN, **hyps):
    ctx = Context({}, {k: parse_formula(v) for k, v in hyps.items()})
    return check_proof(SIG, ctx, ann, parse_proof(src_proof), parse_formula(src_goal))


# -- term sorts ---------------------------------------------------------------


def test_infer_term_type():
    t = parse_term("fun (x:nat) => rec[nat](x; 0; fun (n:nat) => fun (r:nat) => S r)")
    assert infer_term_type({}, t) == parse_type("nat -> nat")


def test_infer_rejects_ill_sorted():
    with pytest.raises(SortError):
        infer_term_type({}, parse_term("S star"))
    with pytest.raises(SortError):
        infer_term_type({}, parse_term("x"))


def test_wf_formula_checks_arity():
    wf_formula(SIG, {}, parse_formula("forall x:nat. Q(x, 0)"))
    with pytest.raises(SortError):
        wf_formula(SIG, {}, parse_formula("Q(0)"))
    with pytest.raises(SortError):
        wf_formula(SIG, {}, parse_formula("P(star)"))


# -- acceptance ---------------------------------------------------------------


def test_hypothesis_and_intro_rules():
    assert check("a", "P(0)", a="P(0)").ok
    assert check("(a, b)", "P(0) /\\ R", a="P(0)", b="R").ok
    assert check("inl a", "P(0) \\/ R", a="P(0)").ok
    assert check("fun a => a", "R -> R").ok
    assert check("tfun x => fun a => a", "forall x:nat. P(x) -> P(x)").ok
    assert check("[0, a]", "exists x:nat. P(x)", a="P(0)").ok


def test_elimination_rules():
    assert check("fst a", "P(0)", a="P(0) /\\ R").ok
    assert check("case a of l => l | r => r", "R", a="R \\/ R").ok
    assert check("b (a @ 0)", "R", a="forall x:nat. P(x)", b="P(0) -> R").ok
    assert check("dest a as [x, u] in [x, u]", "exists y:nat. P(y)",
                 a="exists x:nat. P(x)").ok
    assert check("efq a", "Q(0, 0)", a="bot").ok


def test_ascription_lets_eliminations_synthesize():
    assert check("((fun a => a) : R -> R) b", "R", b="R").ok
    assert not check("(fun a => a) b", "R", b="R").ok


def test_shift_requires_bot_annotation():
    r = check("shift k => k a", "P(0)", a="P(0)")
    assert r.error.kind == "AnnotationViolation"
    assert check("shift k => k a", "P(0)", ann=Annotation.BOT, a="P(0)").ok


def test_reset_concludes_bot():
    assert check("reset (k a)", "bot", a="P(0)", k="~P(0)").ok
    r = check("reset (k a)", "P(0)", a="P(0)", k="~P(0)")
    assert r.error.kind == "ResetGoalNotBot"


def test_shift_continuation_formula():
    # inside reset, proving C, the continuation refutes C
    assert check("reset (k (shift k2 => k2 a))", "bot",
                 a="P(0)", k="~P(0)").ok


def test_freshness_side_conditions():
    ctx = Context({"x": NAT}, {"a": parse_formula("P(x)")})
    r = check_proof(SIG, ctx, Annotation.PLAIN,
                    parse_proof("tfun x => a"),
                    parse_formula("forall x:nat. P(x)"))
    assert not r.ok
    assert r.error.kind == "FreshnessViolation"


def test_dest_variable_must_not_escape():
    r = check("dest a as [x, u] in u", "P(x)", a="exists x:nat. P(x)")
    assert not r.ok


def test_unbound_hypothesis():
    r = check("ghost", "R")
    assert r.error.kind == "UnboundHypothesis"


def test_goal_must_be_well_formed():
    r = check("a", "P(star)", a="R")
    assert not r.ok


def test_weakening():
    base = check("fun a => a", "R -> R")
    extended = check("fun a => a", "R -> R", extra="P(0) /\\ R")
    assert base.ok and extended.ok


def test_determinism():
    r1 = check("fun a => a", "R -> R")
    r2 = check("fun a => a", "R -> R")
    assert r1 == r2


def test_generated_derivations_check(seed=11, n=60):
    rng = random.Random(seed)
    for _ in range(n):
        hyps, proof, goal = random_derivation(rng, steps=rng.randrange(1, 6))
        ctx = Context({}, hyps)
        report = check_proof(SIG, ctx, Annotation.PLAIN, proof, goal)
        assert report.ok, report.error


def test_binder_ladder_does_not_rewalk_the_context(monkeypatch):
    # tfun x0 => fun h0 => tfun x1 => ... against
    # forall x0. P(x0) -> forall x1. P(x1) -> ... -> bot: the context grows
    # by one hypothesis per level, and each tfun's freshness test must walk
    # the hypothesis its binder adds, not the whole context
    def ladder(n):
        goal, proof = BOT, Hyp("b")
        for i in reversed(range(n)):
            goal = Forall(f"x{i}", NAT, Imp(PredApp("P", (Var(f"x{i}"),)), goal))
            proof = TLam(f"x{i}", PLam(f"h{i}", proof))
        return goal, proof

    real, walks = typecheck.fv_formula, [0]

    def spy(*args):
        walks[0] += 1
        return real(*args)

    monkeypatch.setattr(typecheck, "fv_formula", spy)
    ctx = Context({}, {"b": BOT})
    counts = {}
    for n in (60, 120, 240):
        goal, proof = ladder(n)
        walks[0] = 0
        report = check_proof(SIG, ctx, Annotation.PLAIN, proof, goal)
        assert report.ok, report.error
        counts[n] = walks[0]
    # the first tfun walks the one hypothesis b, then each fun the
    # hypothesis it adds
    assert counts == {60: 61, 120: 121, 240: 241}
