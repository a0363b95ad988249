"""The three formula translations and their type assignments."""

import random

import pytest

from dnsk.extract import ExtractionError
from dnsk.parser import parse_formula, parse_type
from dnsk.printer import print_formula
from dnsk.syntax import NAT, UNIT, KernelError, KindedError, Var, fv_formula, neg
from dnsk.translate import (
    TranslationError, dia_formula, dia_nn_simplify, dia_types, kuroda,
    kuroda_inner, mr_formula, mr_type, mrt_formula, spector_target,
)
from dnsk.typecheck import SortError, infer_term_type, wf_formula
from conftest import TEST_SIGNATURE, canonical, random_formula

SIG = TEST_SIGNATURE


def tr(src):
    return parse_formula(src)


# -- Kuroda -------------------------------------------------------------------


def test_kuroda_clauses():
    assert print_formula(kuroda_inner(tr("P(0)"))) == "P(0)"
    assert print_formula(kuroda_inner(tr("forall x:nat. P(x)"))) == \
        "forall x:nat. ~~P(x)"
    assert print_formula(kuroda_inner(tr("P(0) -> P(0)"))) == "P(0) -> ~~P(0)"
    assert print_formula(kuroda_inner(tr("exists x:nat. P(x) /\\ R"))) == \
        "exists x:nat. P(x) /\\ R"
    assert print_formula(kuroda(tr("P(0)"))) == "~~P(0)"


def test_kuroda_fixes_primes_and_preserves_free_variables():
    rng = random.Random(5)
    for _ in range(100):
        a = random_formula(rng, 3)
        assert fv_formula(kuroda(a)) == fv_formula(a)


# -- modified realizability ---------------------------------------------------


def test_mr_type_clauses():
    assert mr_type(tr("P(0)")) == UNIT
    assert mr_type(tr("P(0) /\\ R")) == parse_type("unit * unit")
    assert mr_type(tr("P(0) \\/ R")) == parse_type("(unit * unit) * nat")
    assert mr_type(tr("P(0) -> R")) == parse_type("unit -> unit")
    assert mr_type(tr("exists x:nat. P(x)")) == parse_type("unit * nat")
    assert mr_type(tr("forall x:nat. P(x)")) == parse_type("nat -> unit")


def test_mr_formula_prime_drops_realizer():
    a = tr("P(0)")
    assert mr_formula(SIG, {"t": UNIT}, Var("t"), a) == a


def test_mr_well_sorted_iff_realizer_at_mr_type():
    rng = random.Random(17)
    for _ in range(80):
        a = random_formula(rng, 3)
        tau = mr_type(a)
        body = mr_formula(SIG, {"t": tau}, Var("t"), a)
        wf_formula(SIG, {"t": tau}, body)
        with pytest.raises(TranslationError):
            mr_formula(SIG, {"t": parse_type("nat -> nat -> nat")}, Var("t"), a)


def test_mrt_conjoins_untranslated_implication():
    a = tr("P(0) -> R")
    body = mrt_formula(SIG, {"t": mr_type(a)}, Var("t"), a)
    s = print_formula(body)
    assert s.endswith("/\\ (P(0) -> R)")
    plain = print_formula(mr_formula(SIG, {"t": mr_type(a)}, Var("t"), a))
    assert "/\\" not in plain


# -- Dialectica ---------------------------------------------------------------


def test_dia_types_clauses():
    d = dia_types(tr("P(0)"))
    assert (d.witness, d.challenge) == (UNIT, UNIT)
    d = dia_types(tr("forall x:nat. P(x)"))
    assert d.witness == parse_type("nat -> unit")
    assert d.challenge == parse_type("unit * nat")
    d = dia_types(tr("exists x:nat. P(x)"))
    assert d.witness == parse_type("unit * nat")
    assert d.challenge == UNIT


def test_dia_formula_well_sorted_at_assigned_types():
    rng = random.Random(23)
    for _ in range(80):
        a = random_formula(rng, 3)
        d = dia_types(a)
        vars_ = {"w": d.witness, "c": d.challenge}
        body = dia_formula(SIG, vars_, Var("w"), Var("c"), a)
        wf_formula(SIG, vars_, body)


def test_dia_formula_rejects_wrong_sorts():
    a = tr("P(0) -> R")
    translations = (
        (dia_types(a), lambda env, t, s: dia_formula(SIG, env, t, s, a)),
        (dia_types(neg(neg(a))), lambda env, t, s: dia_nn_simplify(SIG, env, a, t, s)),
    )
    for d, translate in translations:
        w, c = canonical(d.witness), canonical(d.challenge)
        for env, t, s, kind in (
            ({"w": NAT}, Var("w"), c, "WitnessTypeMismatch"),
            ({}, Var("w"), c, "WitnessTypeMismatch"),
            ({"c": NAT}, w, Var("c"), "ChallengeTypeMismatch"),
            ({}, w, Var("c"), "ChallengeTypeMismatch"),
        ):
            with pytest.raises(TranslationError) as e:
                translate(env, t, s)
            assert e.value.kind == kind


def test_nn_simplification_is_quantifier_free_on_qf_input():
    rng = random.Random(29)
    for _ in range(40):
        a = random_formula(rng, 2, quantifiers=False)
        d = dia_types(neg(neg(a)))
        t, s = canonical(d.witness), canonical(d.challenge)
        body = dia_nn_simplify(SIG, {}, a, t, s)
        wf_formula(SIG, {}, body)
        assert "forall" not in print_formula(body)
        assert "exists" not in print_formula(body)


def test_spector_target_shape():
    a = tr("forall x:nat. P(x) \\/ ~P(x)")
    out = spector_target(SIG, a, "t")
    d = dia_types(neg(neg(a)))
    wf_formula(SIG, {"t": d.witness}, out)
    assert print_formula(out).startswith("forall ")
    with pytest.raises(TranslationError):
        spector_target(SIG, tr("P(x)"), "t")


def test_kinded_errors_share_one_base():
    for cls in (SortError, TranslationError, ExtractionError):
        e = cls("RealizerTypeMismatch", "realizer has sort nat")
        assert isinstance(e, KindedError) and isinstance(e, KernelError)
        assert e.kind == "RealizerTypeMismatch"
        assert str(e) == "realizer has sort nat" and e.args == ("realizer has sort nat",)
    assert not issubclass(TranslationError, SortError)
