"""The checked theorem library and the axiom-instance generators."""

import pytest

from dnsk import theorems
from dnsk.parser import parse_formula
from dnsk.printer import print_formula
from dnsk.syntax import NAT, Arrow, PredApp, Var, alpha_eq_formula, numeral
from dnsk.theorems import (
    LIBRARY_SIGNATURE, ac_instance, axiom_instance, build_library,
    dns_instance, get_entry, induction_instance, refl_instance,
    verify_library,
)
from dnsk.typecheck import wf_formula


def test_library_has_required_entries():
    names = {e.name for e in build_library()}
    assert {"dns_arrow", "dns_contra", "dns_lem", "dns_conj", "ac_bot",
            "mr_dns_core", "nn_hp", "refute_via_hp"} <= names
    assert len(names) >= 8


def test_all_entries_check():
    for name, report in verify_library():
        assert report.ok, (name, report.error)


def test_get_entry_parses_the_library_once(monkeypatch):
    for e in build_library():
        assert get_entry(e.name) == e

    def no_parse(*_):
        raise AssertionError("get_entry parsed the library again")

    monkeypatch.setattr(theorems, "parse_proof", no_parse)
    monkeypatch.setattr(theorems, "parse_formula", no_parse)
    assert get_entry("nn_hp") is get_entry("nn_hp")
    assert get_entry("dns_lem").name == "dns_lem"


def test_get_entry():
    assert get_entry("dns_lem").name == "dns_lem"
    with pytest.raises(KeyError):
        get_entry("missing")


def test_dns_instance_matches_library_goal():
    a = PredApp("P", (Var("x"),))
    assert alpha_eq_formula(
        dns_instance(NAT, "x", a),
        parse_formula("(forall x:nat. ~~P(x)) -> ~~forall x:nat. P(x)"))


def test_dns_instance_at_higher_sort():
    # the schema is polymorphic in the quantified sort
    a = parse_formula("(f 0) = 0")
    inst = dns_instance(Arrow(NAT, NAT), "f", a)
    wf_formula(LIBRARY_SIGNATURE, {}, inst)


def test_ac_instance_shape():
    a = PredApp("A", (Var("x"), Var("y")))
    inst = ac_instance(NAT, NAT, "x", "y", a)
    assert alpha_eq_formula(inst, parse_formula(
        "(forall x:nat. exists y:nat. A(x, y))"
        " -> exists f:nat -> nat. forall x:nat. A(x, f x)"))


def test_induction_instance_shape():
    a = PredApp("P", (Var("n"),))
    inst = induction_instance("n", a)
    assert alpha_eq_formula(inst, parse_formula(
        "P(0) /\\ (forall n:nat. P(n) -> P(S n)) -> forall n:nat. P(n)"))


def test_refl_and_dispatch():
    assert print_formula(refl_instance(numeral(2))) == "S (S 0) = S (S 0)"
    inst = axiom_instance("SYM")
    wf_formula(LIBRARY_SIGNATURE, {}, inst)
    inst = axiom_instance("ZERO_SUCC")
    wf_formula(LIBRARY_SIGNATURE, {}, inst)


def test_entries_with_shifts_are_marked_for_extraction():
    from dnsk.syntax import contains_control
    for e in build_library():
        if e.name in ("ep_witness", "dp_flag"):
            assert not contains_control(e.proof)
            assert e.axiom_realizers
