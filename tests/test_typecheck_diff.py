"""``dnsk.typecheck.check_proof`` against the checker it replaced
(``reference_typecheck``), which recomputed the free variables of the whole
context at every ``tfun`` and ``dest``, substituted into whole formulas and
checked every ascription again.  Both must give equal reports: the same
derivation, rule by rule, or the same failure kind, path, message,
expected and got.

The inputs are generated derivations, checked at their own goal and at
another one, derivations whose binders meet the free variables of their
context, the library entries, and hand-made rejections of every kind,
among them the cases the per-call memos could get wrong: a hypothesis
shadowing one that mentions a variable before ``tfun`` of that variable,
and one ascribed formula object under and outside a binder of its free
variable.  The check also runs without pytest, on the standard library
alone:

    PYTHONPATH=src python tests/test_typecheck_diff.py [scale]
"""

import itertools
import random
import sys

import reference_typecheck as ref
from conftest import TEST_SIGNATURE, DerivationBuilder, random_derivation, random_formula
from dnsk.parser import parse_formula, parse_proof
from dnsk.syntax import (
    BOT, NAT, And, Arrow, Ascribe, Efq, Forall, Hyp, Imp, PApp, PLam, PPair, PredApp,
    TLam, Var,
)
from dnsk.theorems import LIBRARY_SIGNATURE, build_library
from dnsk.typecheck import Annotation, Context, check_proof

SIG = TEST_SIGNATURE
P_X = PredApp("P", (Var("x"),))
R = PredApp("R", ())


def _derivation(d) -> tuple:
    return (d.rule, d.annotation.value, d.subject, d.goal,
            tuple(_derivation(c) for c in d.children))


def _plain(report) -> tuple:
    if report.ok:
        return ("ok", _derivation(report.derivation))
    e = report.error
    return ("error", e.kind, e.path, e.message, e.expected, e.got)


def outcomes(sig, term_vars, hyps, ann, proof, goal) -> tuple:
    """The plain reports of the two checkers, new first."""
    new = check_proof(sig, Context(term_vars, hyps), ann, proof, goal)
    old = ref.check_proof(sig, ref.Context(term_vars, hyps), ref.Annotation(ann.value),
                          proof, goal)
    return _plain(new), _plain(old)


def assert_agree(cases) -> list:
    """Check every (sig, term_vars, hyps, ann, proof, goal) case; return the
    new checker's plain reports."""
    out = []
    for case in cases:
        new, old = outcomes(*case)
        assert new == old, (case, new, old)
        out.append(new)
    return out


def _parsed(ann, proof, goal, term_vars=None, **hyps):
    return (SIG, term_vars or {}, {k: parse_formula(v) for k, v in hyps.items()}, ann,
            parse_proof(proof), parse_formula(goal))


PLAIN = Annotation.PLAIN
HAND_REJECTIONS = [
    # (kind, case)
    ("FormulaMismatch", _parsed(PLAIN, "(a, a)", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "inl a", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "inr a", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "fun a => a", "R")),
    ("FormulaMismatch", _parsed(PLAIN, "tfun x => a", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "[0, a]", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "fst a", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "snd a", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "a a", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "a @ 0", "R", a="R")),
    ("FormulaMismatch", _parsed(PLAIN, "a", "R", a="P(0)")),
    ("FormulaMismatch", _parsed(PLAIN, "tfun y => a @ y", "forall x:nat. P(x)",
                                a="forall x:nat. P(S x)")),
    ("FreshnessViolation", _parsed(PLAIN, "tfun x => r", "forall x:nat. R", {"x": NAT}, r="R")),
    ("FreshnessViolation", _parsed(PLAIN, "tfun x => r", "forall x:nat. R", a="P(x)", r="R")),
    ("FreshnessViolation", _parsed(PLAIN, "tfun y => tfun y => r", "forall x:nat. forall z:nat. R",
                                   r="R")),
    ("FreshnessViolation", _parsed(PLAIN, "dest e as [x, u] in r", "R",
                                   e="exists y:nat. P(y)", a="P(x)", r="R")),
    ("FreshnessViolation", _parsed(PLAIN, "tfun x => dest e as [x, u] in r", "forall y:nat. R",
                                   e="exists y:nat. P(y)", r="R")),
    ("ScrutineeNotSum", _parsed(PLAIN, "case a of l => l | r => r", "R", a="R")),
    ("ScrutineeNotExists", _parsed(PLAIN, "dest a as [x, u] in a", "R", a="R")),
    ("ResetGoalNotBot", _parsed(PLAIN, "reset (k a)", "P(0)", a="P(0)", k="~P(0)")),
    ("AnnotationViolation", _parsed(PLAIN, "shift k => k a", "P(0)", a="P(0)")),
    ("AnnotationViolation", _parsed(PLAIN, "fun a => shift k => k a", "P(0) -> P(0)")),
    ("UnboundHypothesis", _parsed(PLAIN, "ghost", "R")),
    ("UnboundHypothesis", _parsed(PLAIN, "fun a => b", "R -> R")),
    ("NotSynthesizable", _parsed(PLAIN, "(fun a => a) b", "R", b="R")),
    ("NotSynthesizable", _parsed(PLAIN, "fst (a, a)", "R", a="R")),
    ("UnboundVar", _parsed(PLAIN, "[y, a]", "exists x:nat. P(x)", a="P(0)")),
    ("UnboundVar", _parsed(PLAIN, "a @ y", "P(0)", a="forall x:nat. P(x)")),
    ("UnboundVar", _parsed(PLAIN, "(a : P(y))", "P(0)", a="P(0)")),
    ("UnboundVar", _parsed(PLAIN, "a", "P(y)", a="P(0)")),
    ("SortMismatch", _parsed(PLAIN, "[star, a]", "exists x:nat. P(x)", a="P(0)")),
    ("SortMismatch", _parsed(PLAIN, "a @ star", "P(0)", a="forall x:nat. P(x)")),
    ("SortMismatch", _parsed(PLAIN, "[0, a]", "exists x:nat -> nat. R", a="R")),
    ("SortMismatch", _parsed(PLAIN, "(a : P(star))", "P(0)", a="P(0)")),
    ("SortMismatch", _parsed(PLAIN, "a", "Q(0)", a="P(0)")),
    ("UnknownPredicate", _parsed(PLAIN, "(a : Z(0))", "P(0)", a="P(0)")),
    ("UnknownPredicate", _parsed(PLAIN, "a", "Z", a="P(0)")),
]

# a hypothesis that shadows one mentioning x: the free set was computed at
# tfun y, so the shadowing must recompute it (x becomes fresh) or extend it
SHADOWING = [
    ("ok", _parsed(PLAIN, "tfun y => fun a => tfun x => r",
                   "forall y:nat. R -> forall x:nat. R", a="P(x)", r="R")),
    ("ok", _parsed(PLAIN, "fun a => tfun x => r", "R -> forall x:nat. R", a="P(x)", r="R")),
    ("ok", _parsed(PLAIN, "tfun y => case c of a => tfun x => r | a => tfun x => r",
                   "forall y:nat. forall x:nat. R", a="P(x)", c="R \\/ R", r="R")),
    ("FreshnessViolation", _parsed(PLAIN, "tfun y => case c of a => tfun x => r | b => r",
                                   "forall y:nat. forall x:nat. R", a="R", c="P(x) \\/ R",
                                   r="R")),
    ("FreshnessViolation", _parsed(PLAIN, "tfun y => fun a => tfun x => r",
                                   "forall y:nat. P(y) -> forall x:nat. R",
                                   a="R", r="R", b="Q(x, 0)")),
    ("ok", _parsed(PLAIN, "tfun y => dest e as [x, a] in tfun z => r",
                   "forall y:nat. forall z:nat. R", a="P(z)", e="exists w:nat. R", r="R")),
    # once f is shadowed, x is free only in the goal f gave, and then in the
    # hypothesis a takes from it
    ("FreshnessViolation", _parsed(PLAIN, "tfun y => f (fun f => tfun w => fun a => tfun x => r)",
                                   "forall y:nat. R", r="R",
                                   f="(R -> forall w:nat. P(x) -> forall z:nat. R) -> R")),
    ("ok", _parsed(PLAIN, "tfun y => f (fun f => tfun w => fun a => tfun v => r)",
                   "forall y:nat. R", r="R",
                   f="(R -> forall w:nat. P(x) -> forall z:nat. R) -> R")),
    ("FreshnessViolation", _parsed(PLAIN, "f (fun f => dest e as [x, u] in efq b)", "R",
                                   f="(R -> P(x)) -> R", e="exists w:nat. R", b="bot")),
]


def shared_ascriptions() -> list:
    """One ascribed formula object, P(x) -> R, under and outside a tfun x
    binder.  Outside it x is unbound, whatever was checked inside."""
    f = Imp(P_X, R)
    inner = PApp(Ascribe(PLam("u", Hyp("r")), f), Efq(Hyp("b")))
    hyps = {"r": R, "b": BOT}
    under = Forall("x", NAT, R)
    other_sort = Forall("x", Arrow(NAT, NAT), R)
    return [
        ("UnboundVar", (SIG, {}, hyps, PLAIN, PPair(TLam("x", inner), inner), And(under, R))),
        ("UnboundVar", (SIG, {}, hyps, PLAIN, PPair(inner, TLam("x", inner)), And(R, under))),
        ("SortMismatch", (SIG, {}, hyps, PLAIN, PPair(TLam("x", inner), TLam("x", inner)),
                          And(under, other_sort))),
        ("ok", (SIG, {}, hyps, PLAIN, PPair(TLam("x", inner), TLam("x", inner)),
                And(under, under))),
        ("ok", (SIG, {"x": NAT}, hyps, PLAIN, PPair(inner, inner), And(R, R))),
    ]


def _kinds(reports) -> list:
    return ["ok" if r[0] == "ok" else r[1] for r in reports]


def test_hand_rejections_agree():
    kinds = [k for k, _ in HAND_REJECTIONS]
    assert _kinds(assert_agree(c for _, c in HAND_REJECTIONS)) == kinds


def test_shadowing_and_shared_ascriptions_agree():
    cases = SHADOWING + shared_ascriptions()
    assert _kinds(assert_agree(c for _, c in cases)) == [k for k, _ in cases]


def test_library_agrees():
    cases = [(LIBRARY_SIGNATURE, e.context.term_vars, e.context.hyps, e.annotation, e.proof,
              e.goal) for e in build_library()]
    assert len(cases) == 10
    assert _kinds(assert_agree(cases)) == ["ok"] * 10


def _clashing_builder(rng):
    """Derivations whose hypotheses mention w1, w2 and w3 free, the names
    the builder gives its own tfun and dest binders."""
    b = DerivationBuilder(rng)
    b.hyps = {f"h{i}": random_formula(rng, rng.randrange(3), scope=["w1", "w2", "w3"])
              for i in range(3)}
    b.hyps["habs"] = BOT
    return b


def test_generated_derivations_agree(n=200):
    rng = random.Random(97)
    built = [random_derivation(rng, rng.randrange(1, 9)) for _ in range(n)]
    built += [_clashing_builder(rng).build(rng.randrange(1, 7)) for _ in range(n // 2)]
    cases = [(SIG, {}, hyps, PLAIN, proof, goal) for hyps, proof, goal in built]
    # each proof also against the next one's goal: in the next one's
    # context, and in its own with w1 declared at the bot annotation
    for (hyps, proof, _), (hyps2, _, goal2) in itertools.pairwise(built):
        cases.append((SIG, {}, hyps2, PLAIN, proof, goal2))
        cases.append((SIG, {"w1": NAT}, hyps, Annotation.BOT, proof, goal2))
    kinds = _kinds(assert_agree(cases))
    assert kinds[:n].count("ok") == n
    assert "FreshnessViolation" in kinds and "FormulaMismatch" in kinds


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    test_hand_rejections_agree()
    test_shadowing_and_shared_ascriptions_agree()
    test_library_agrees()
    test_generated_derivations_agree(200 * scale)
    print(f"python {sys.version.split()[0]}: {len(HAND_REJECTIONS)} hand rejections, "
          f"{len(SHADOWING) + len(shared_ascriptions())} shadowing and sharing cases, "
          f"10 library entries and {300 * scale} generated derivations agree")
