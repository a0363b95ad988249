"""Realizer extraction from control-free derivations."""

import random

import pytest

from dnsk.evaluate import normalize_term
from dnsk.extract import (
    ExtractionEnv, ExtractionError, _Extractor, ac_realizer, dummy, extract_mr,
    realizer_context,
)
from dnsk.parser import parse_formula, parse_proof, parse_type
from dnsk.printer import print_term
from dnsk.syntax import (
    BOT, NAT, Forall, Hyp, Imp, NameSupply, PLam, PredApp, TLam, Var, fresh_name,
    numeral_value,
)
from dnsk.translate import mr_formula, mr_type
from dnsk.typecheck import Annotation, Context, Derivation, check_proof, infer_term_type
from conftest import TEST_SIGNATURE, random_derivation

SIG = TEST_SIGNATURE


def derive(src_proof, src_goal, **hyps):
    ctx = Context({}, {k: parse_formula(v) for k, v in hyps.items()})
    report = check_proof(SIG, ctx, Annotation.PLAIN,
                         parse_proof(src_proof), parse_formula(src_goal))
    assert report.ok, report.error
    return ctx, report.derivation


def env_for(ctx):
    return ExtractionEnv({name: f"x_{name}" for name in ctx.hyps}, {}, frozenset())


def extract(src_proof, src_goal, **hyps):
    ctx, d = derive(src_proof, src_goal, **hyps)
    env = env_for(ctx)
    term = extract_mr(d, env)
    vars_ = realizer_context({}, ctx.hyps, env)
    return term, infer_term_type(vars_, term), vars_


def test_hypothesis_maps_to_its_variable():
    term, sort, _ = extract("a", "P(0)", a="P(0)")
    assert sort == mr_type(parse_formula("P(0)"))


def test_existential_realizer_pairs_witness():
    term, sort, vars_ = extract("[0, a]", "exists x:nat. P(x)", a="P(0)")
    assert sort == parse_type("unit * nat")
    assert numeral_value(normalize_term(vars_, term).snd) == 0


def test_disjunction_flags():
    left, _, lv = extract("inl a", "P(0) \\/ R", a="P(0)")
    right, _, rv = extract("inr a", "R \\/ P(0)", a="P(0)")
    assert numeral_value(normalize_term(lv, left).snd) == 0
    assert numeral_value(normalize_term(rv, right).snd) == 1


def test_case_builds_conditional():
    term, sort, vars_ = extract(
        "case a of l => (l, l) | r => (r, r)", "R /\\ R", a="R \\/ R")
    assert sort == mr_type(parse_formula("R /\\ R"))


def test_case_conditional_does_not_capture_branch_variables():
    # the conditional binds _n and _r around the right branch, whose
    # realizer here mentions the term variable _r
    ctx = Context({"_r": NAT}, {"h": parse_formula("P(0) \\/ R"),
                                "g": parse_formula("P(_r)")})
    goal = parse_formula("exists z:nat. P(z)")
    report = check_proof(SIG, ctx, Annotation.PLAIN,
                         parse_proof("case h of a => [0, a] | b => [_r, g]"), goal)
    assert report.ok, report.error
    env = env_for(ctx)
    term = extract_mr(report.derivation, env)
    assert infer_term_type(realizer_context(ctx.term_vars, ctx.hyps, env), term) == \
        mr_type(goal) == parse_type("unit * nat")
    assert print_term(term.step) == "fun (_n:nat) => fun (_r1:unit * nat) => (x_g, _r)"


def test_binders_restore_the_realizer_they_shadow():
    # an inner binder of the same name, then the outer binding again, both
    # for a bound hypothesis and for one of the environment
    term, _, _ = extract("fun h => (fun h => h, h)", "P(0) -> (R -> R) /\\ P(0)")
    assert print_term(term) == "fun (r:unit) => (fun (r1:unit) => r1, r)"
    term, _, _ = extract("((fun h => h, h), case c of h => h | g => h)",
                         "((P(0) -> P(0)) /\\ R) /\\ R", h="R", c="R \\/ R")
    assert print_term(term) == ("((fun (r:unit) => r, x_h), rec[unit](x_c.2; x_c.1.1; "
                                "fun (_n:nat) => fun (_r:unit) => x_h))")


def test_fresh_realizer_names_resume_after_the_last_pick():
    # the extractor's realizer variables come from the shared name supply
    bases = ("r", "r", "s", "r", "s")
    avoid = {"r", "r2", "s"}
    supply = NameSupply(avoid)
    names = [supply.fresh(base) for base in bases]
    expected = []
    for base in bases:
        expected.append(fresh_name(base, avoid))
        avoid.add(expected[-1])
    assert names == expected == ["r1", "r3", "s1", "r4", "s2"]
    # the extractor's supply also avoids the axiom realizers' free variables
    ex = _Extractor(ExtractionEnv({}, {"ax": Var("s2")}, frozenset()), {"r", "r2", "s"}, {})
    assert [ex.names.fresh(base) for base in bases] == ["r1", "r3", "s1", "r4", "s3"]


def test_binder_ladder_extracts_in_linear_time(monkeypatch):
    # tfun x0 => fun h0 => tfun x1 => ... : each fun takes a fresh realizer
    # variable, and the name supply's probes of its avoid set, counted
    # exactly, must not grow with the number of binders above it
    def ladder(n):
        goal, proof = BOT, Hyp("b")
        for i in reversed(range(n)):
            goal = Forall(f"x{i}", NAT, Imp(PredApp("P", (Var(f"x{i}"),)), goal))
            proof = TLam(f"x{i}", PLam(f"h{i}", proof))
        report = check_proof(SIG, Context({}, {"b": BOT}), Annotation.PLAIN, proof, goal)
        assert report.ok, report.error
        return report.derivation

    probes = [0]

    class Counted(set):
        def __contains__(self, name):
            probes[0] += 1
            return set.__contains__(self, name)

    class CountedSupply(NameSupply):
        __slots__ = ()

        def __init__(self, avoid):
            super().__init__(avoid)
            self.avoid = Counted(self.avoid)

    monkeypatch.setattr("dnsk.extract.NameSupply", CountedSupply)
    env = ExtractionEnv({"b": "x_b"}, {}, frozenset())
    counts = {}
    for n in (100, 200, 400):
        probes[0] = 0
        extract_mr(ladder(n), env)
        counts[n] = probes[0]
    # r, r1, r2, ...: one probe per binder, none of them taken
    assert counts == {100: 100, 200: 200, 400: 400}


def test_bot_elim_gives_dummy():
    term, sort, _ = extract("efq a", "exists x:nat. P(x)", a="bot")
    assert sort == parse_type("unit * nat")


def test_control_nodes_are_rejected():
    ctx, d = derive("reset (k a)", "bot", a="P(0)", k="~P(0)")
    with pytest.raises(ExtractionError) as exc:
        extract_mr(d, env_for(ctx))
    assert exc.value.kind == "ControlNodePresent"


def test_unmapped_hypothesis_is_rejected():
    ctx, d = derive("a", "P(0)", a="P(0)")
    with pytest.raises(ExtractionError) as exc:
        extract_mr(d, ExtractionEnv({}, {}, frozenset()))
    assert exc.value.kind == "UnmappedHypothesis"


def test_unrealizable_axiom_is_rejected():
    ctx, d = derive("a", "P(0)", a="P(0)")
    with pytest.raises(ExtractionError) as exc:
        extract_mr(d, ExtractionEnv({}, {}, frozenset({"a"})))
    assert exc.value.kind == "UnrealizableAxiom"


def test_subject_that_is_no_proof_form_is_an_unknown_rule():
    # the extractor selects a rule by its subject's class; extract_mr's name
    # walk reads the subjects first and passes over this one
    d = Derivation("ax", Annotation.PLAIN, Var("a"), parse_formula("P(0)"))
    with pytest.raises(ExtractionError) as exc:
        extract_mr(d, ExtractionEnv())
    assert exc.value.kind == "UnknownRule"
    assert str(exc.value) == "unhandled rule 'ax'"


def test_axiom_realizer_substituted():
    ctx, d = derive("[0, a]", "exists x:nat. P(x)", a="P(0)")
    from dnsk.syntax import STAR
    term = extract_mr(d, ExtractionEnv({}, {"a": STAR}, frozenset()))
    assert infer_term_type({}, term) == parse_type("unit * nat")


def test_extracted_realizer_statement_is_well_formed():
    # the "term realizes goal" formula must be well-sorted in the realizer
    # typing context
    from dnsk.typecheck import wf_formula
    term, sort, vars_ = extract(
        "fun a => [0, a]", "P(0) -> exists x:nat. P(x)")
    goal = parse_formula("P(0) -> exists x:nat. P(x)")
    wf_formula(SIG, vars_, mr_formula(SIG, vars_, term, goal))


def test_type_soundness_on_generated_derivations(seed=43, n=120):
    rng = random.Random(seed)
    for _ in range(n):
        hyps, proof, goal = random_derivation(rng, steps=rng.randrange(1, 6))
        ctx = Context({}, hyps)
        report = check_proof(SIG, ctx, Annotation.PLAIN, proof, goal)
        assert report.ok, report.error
        env = ExtractionEnv({name: f"x_{name}" for name in hyps}, {}, frozenset())
        term = extract_mr(report.derivation, env)
        vars_ = realizer_context({}, hyps, env)
        assert infer_term_type(vars_, term) == mr_type(goal)


def test_ac_realizer_sort():
    a = parse_formula("Q(x, y)")
    t = ac_realizer(NAT, NAT, a)
    assert infer_term_type({}, t) == parse_type(
        "(nat -> unit * nat) -> (nat -> unit) * (nat -> nat)")


def test_dummy_inhabits_every_sort():
    for src in ("nat", "unit", "nat * (nat -> unit)", "(nat -> nat) -> unit"):
        sort = parse_type(src)
        assert infer_term_type({}, dummy(sort)) == sort
