"""Binding, substitution, and alpha-equivalence."""

import random

import pytest

from dnsk.syntax import (
    And, App, Ascribe, Efq, Eq0, Exists, Forall, Fst, Hyp, Imp, Inl, Lam, NAT, Pair, PLam,
    PredApp, Reset, Shift, Snd, Succ, TLam, Var, ZERO, alpha_eq_formula, alpha_eq_proof,
    alpha_eq_term, contains_control, contains_shift, free_candidates, fresh_name,
    fv_formula, fv_proof_hyps, fv_proof_termvars, fv_term, neg, numeral, numeral_value,
    subst_formula, subst_proof_term, subst_term,
)
from dnsk.theorems import build_library
from conftest import random_formula


def test_fresh_name_avoids_everything():
    avoid = {"x", "x1", "x2"}
    assert fresh_name("x", avoid) not in avoid
    assert fresh_name("y", avoid) == "y"


def test_fv_term_under_binder():
    t = Lam("x", NAT, App(Var("x"), Var("y")))
    assert fv_term(t) == {"y"}


def test_subst_term_capture_avoiding():
    # (fun (x:nat) => y)[y := x] must rename the binder, not capture
    t = Lam("x", NAT, Var("y"))
    s = subst_term(t, "y", Var("x"))
    assert isinstance(s, Lam)
    assert s.var != "x"
    assert s.body == Var("x")


def test_subst_formula_capture_avoiding():
    a = Forall("x", NAT, Eq0(Var("x"), Var("y")))
    b = subst_formula(a, "y", Var("x"))
    assert isinstance(b, Forall)
    assert b.var != "x"
    assert fv_formula(b) == {"x"}


def test_alpha_eq_formula():
    a = Forall("x", NAT, PredApp("P", (Var("x"),)))
    b = Forall("z", NAT, PredApp("P", (Var("z"),)))
    assert alpha_eq_formula(a, b)
    assert not alpha_eq_formula(a, Forall("x", NAT, PredApp("P", (Var("y"),))))


def test_alpha_eq_formula_identity_is_not_taken_below_binders():
    # the same P(x) object under binders of different names: equal objects,
    # but x is bound on one side and free on the other
    body = PredApp("P", (Var("x"),))
    for quant in (Forall, Exists):
        assert not alpha_eq_formula(quant("x", NAT, body), quant("y", NAT, body))
        assert not alpha_eq_formula(quant("y", NAT, body), quant("x", NAT, body))
        assert alpha_eq_formula(quant("x", NAT, body), quant("x", NAT, body))
        a = quant("x", NAT, Imp(body, body))
        assert alpha_eq_formula(a, a)


def test_substitutions_return_what_they_do_not_change():
    p = Ascribe(Hyp("a"), PredApp("P", (Var("x"),)))
    assert subst_proof_term(p, "zz", Var("b")) is p
    for e in build_library():
        assert subst_proof_term(e.proof, "zz", Var("b")) is e.proof, e.name
    t = Lam("y", NAT, App(Var("y"), Pair(Succ(Var("x")), ZERO)))
    a = Forall("y", NAT, Imp(Eq0(Var("y"), Var("x")), PredApp("P", (Var("x"), ZERO))))
    for memo in (None, {}):
        for x in ("zz", "y"):  # not occurring, and only bound
            assert subst_term(t, x, Var("b"), memo) is t
            assert subst_formula(a, x, Var("b"), memo) is a
        # a changed node keeps its unchanged children
        c = And(PredApp("P", (Var("y"),)), a)
        out = subst_formula(c, "y", Var("b"), memo)
        assert out == And(PredApp("P", (Var("b"),)), a) and out.right is a
        out = subst_term(App(Var("y"), t), "y", Var("b"), memo)
        assert out == App(Var("b"), t) and out.arg is t


def test_alpha_eq_proof():
    p = PLam("a", Hyp("a"))
    q = PLam("b", Hyp("b"))
    assert alpha_eq_proof(p, q)
    assert not alpha_eq_proof(p, PLam("a", Hyp("c")))


def test_neg_shape():
    a = PredApp("R", ())
    n = neg(a)
    assert isinstance(n, Imp)
    assert fv_formula(n) == set()


def test_numerals_roundtrip():
    for k in range(7):
        assert numeral_value(numeral(k)) == k


def test_deep_numerals_compare_and_hash():
    a, b, c = numeral(3000), numeral(3000), numeral(2999)
    assert a == b and not a != b
    assert a != c and c != a and not a == c
    assert hash(a) == hash(b)
    assert a in {b} and c not in {b} and len({a, b, c}) == 2
    # other nodes compare and hash their Succ fields through the same loop
    pa, pb = Pair(a, Var("x")), Pair(b, Var("x"))
    assert pa == pb and hash(pa) == hash(pb) and pa != Pair(c, Var("x"))
    assert {Eq0(a, ZERO): 1}[Eq0(b, ZERO)] == 1
    # a chain over a non-numeral base compares the bases
    assert Succ(Succ(Var("x"))) == Succ(Succ(Var("x")))
    assert hash(Succ(Var("x"))) == hash(Succ(Var("x")))
    assert Succ(Var("x")) != Succ(Var("y")) and Succ(ZERO) != Succ(Succ(ZERO))
    assert Succ(ZERO) != ZERO and ZERO != Succ(ZERO) and Succ(ZERO) != Var("x")
    assert a == a and Succ(a) != a


def test_proof_free_variables():
    p = TLam("x", PLam("a", App_proof := Hyp("b")))
    assert fv_proof_hyps(p) == {"b"}
    q = Shift("k", Hyp("k"))
    assert fv_proof_hyps(q) == set()
    assert fv_proof_termvars(TLam("x", Hyp("a"))) == set()


def test_control_detection():
    assert contains_shift(PLam("a", Shift("k", Hyp("k"))))
    assert not contains_control(PLam("a", Hyp("a")))


DEPTH = 2000
# a formula that mentions the variable each ladder level binds, and one free
LADDER_FORMULA = Imp(PredApp("P", (Var("x"),)), PredApp("P", (Var("y"),)))


def prefix_chain(leaf):
    """fst, snd, inl, reset and efq in turn, DEPTH deep, over the hypothesis
    leaf."""
    p = Hyp(leaf)
    for i in range(DEPTH):
        p = (Fst, Snd, Inl, Reset, Efq)[i % 5](p)
    return p


def binder_ladder(leaf):
    """DEPTH levels, ``fun h => ...`` and ``tfun x => (... : P(x) -> P(y))``
    in turn, over the hypothesis leaf."""
    p = Hyp(leaf)
    for i in range(DEPTH):
        p = TLam("x", Ascribe(p, LADDER_FORMULA)) if i % 2 else PLam("h", p)
    return p


# Each walk on each shape over the leaf h (the chain) or a (the ladder), and
# its result there.  alpha_eq_proof compares two distinct copies, then a
# copy over another leaf.  Substitution (subst_proof_hyp, subst_proof_term)
# still recurses once per node, so it is not in the table: ROADMAP item W
# keeps it open.
DEPTH_TABLE = [
    ("fv_proof_hyps", lambda build, leaf: fv_proof_hyps(build(leaf)), {"h"}, {"a"}),
    ("fv_proof_termvars", lambda build, leaf: fv_proof_termvars(build(leaf)), set(), {"y"}),
    ("alpha_eq_proof", lambda build, leaf: alpha_eq_proof(build(leaf), build(leaf)), True, True),
    ("alpha_eq_proof_other_leaf",
     lambda build, leaf: alpha_eq_proof(build(leaf), build(leaf + "1")), False, False),
    ("contains_shift", lambda build, leaf: contains_shift(build(leaf)), False, False),
    ("contains_control", lambda build, leaf: contains_control(build(leaf)), True, False),
    ("free_candidates", lambda build, leaf: free_candidates(build(leaf), leaf), {"h"}, {"a"}),
]


@pytest.mark.parametrize("shape", ["prefix_chain", "binder_ladder"])
@pytest.mark.parametrize("run, on_chain, on_ladder", [row[1:] for row in DEPTH_TABLE],
                         ids=[row[0] for row in DEPTH_TABLE])
def test_proof_walks_at_depth(run, on_chain, on_ladder, shape):
    if shape == "prefix_chain":
        assert run(prefix_chain, "h") == on_chain
    else:
        assert run(binder_ladder, "a") == on_ladder


def test_random_formulas_closed():
    rng = random.Random(7)
    for _ in range(50):
        assert fv_formula(random_formula(rng, 3)) == set()
