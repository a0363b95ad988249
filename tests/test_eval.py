"""Term normalization, proof-term reduction, and the bounded oracle."""

import itertools
import random
import tracemalloc

import pytest

import dnsk.evaluate as evaluate
from dnsk.evaluate import (
    FuelExhausted, IllSorted, Stuck, eval_formula_bounded, normalize_proof,
    normalize_term,
)
from dnsk.parser import parse_formula, parse_proof, parse_term
from dnsk.printer import print_proof, print_term
from dnsk.syntax import App, Lam, NAT, PPair, Var, ZERO, numeral, numeral_value
from dnsk.typecheck import infer_term_type
from conftest import TEST_SIGNATURE, random_formula, random_pred_tables

SIG = TEST_SIGNATURE


# -- System T -----------------------------------------------------------------


def test_recursor_addition():
    t = parse_term("rec[nat](S (S 0); S (S 0); fun (n:nat) => fun (r:nat) => S r)")
    assert numeral_value(normalize_term({}, t)) == 4


def test_beta_and_projections():
    assert normalize_term({}, parse_term("(fun (x:nat) => x) 0")) == numeral(0)
    assert print_term(normalize_term({}, parse_term("(0, star).2"))) == "star"


def test_normalize_refuses_ill_sorted():
    with pytest.raises(IllSorted):
        normalize_term({}, parse_term("S star"))


ADD = ("fun (x:nat) => fun (y:nat) => "
       "rec[nat](x; y; fun (n:nat) => fun (r:nat) => S r)")
MUL = ("fun (x:nat) => fun (y:nat) => "
       "rec[nat](x; 0; fun (n:nat) => fun (r:nat) => (%s) r y)" % ADD)


def test_deep_numerals():
    t = App(App(parse_term(ADD), numeral(5000)), numeral(5000))
    assert numeral_value(normalize_term({}, t)) == 10000
    assert normalize_term({}, t) == numeral(10000)
    assert infer_term_type({}, numeral(1200)) == NAT


def test_term_fuel_counts_applications_and_unfoldings(monkeypatch):
    # mul 8 8: 2 applications of mul; 8 outer unfoldings, each applying its
    # step twice and add twice; 8i inner unfoldings for i < 8 (224 in all),
    # each applying its step twice
    t = App(App(parse_term(MUL), numeral(8)), numeral(8))
    assert numeral_value(normalize_term({}, t)) == 64
    need = 2 + 8 * 3 + 8 * 2 + 224 * 3
    monkeypatch.setattr(evaluate, "TERM_FUEL", need)
    assert numeral_value(normalize_term({}, t)) == 64
    for fuel in (need - 1, 50, 0, -1):
        monkeypatch.setattr(evaluate, "TERM_FUEL", fuel)
        with pytest.raises(FuelExhausted):
            normalize_term({}, t)
    monkeypatch.setattr(evaluate, "TERM_FUEL", 0)
    assert normalize_term({}, ZERO) == ZERO


def _term_redexes(t):
    """All positions where a single rule applies, as (reduct) alternatives."""
    from dnsk.syntax import (
        App, Lam, Pair, Proj1, Proj2, Rec, Succ, Zero, subst_term,
    )
    out = []

    def rebuilders(node):
        match node:
            case App(Lam(x, _, b), a):
                out.append((node, subst_term(b, x, a)))
            case Proj1(Pair(f, _)):
                out.append((node, f))
            case Proj2(Pair(_, s)):
                out.append((node, s))
            case Rec(s, Zero(), b, _):
                out.append((node, b))
            case Rec(s, Succ(n), b, f):
                out.append((node, App(App(f, n), Rec(s, n, b, f))))

    def walk(node):
        rebuilders(node)
        for fld in getattr(node, "__dataclass_fields__", {}):
            v = getattr(node, fld)
            if hasattr(v, "__dataclass_fields__"):
                walk(v)

    walk(t)
    return out


def _replace(t, old, new):
    if t == old:
        return new
    if not hasattr(t, "__dataclass_fields__"):
        return t
    return type(t)(**{f: _replace(getattr(t, f), old, new)
                      for f in t.__dataclass_fields__})


def test_term_confluence_at_desk_scale():
    # random reduction orders agree with the deterministic normalizer
    rng = random.Random(31)
    sources = [
        "rec[nat](S 0; 0; fun (n:nat) => fun (r:nat) => S (S r))",
        "(fun (p:nat * nat) => p.1) ((fun (x:nat) => x) 0, S 0)",
        "(fun (f:nat -> nat) => f (f 0)) (fun (x:nat) => S x)",
    ]
    for src in sources:
        t0 = parse_term(src)
        expected = normalize_term({}, t0)
        for _ in range(10):
            t = t0
            for _ in range(100):
                redexes = _term_redexes(t)
                if not redexes:
                    break
                old, new = rng.choice(redexes)
                t = _replace(t, old, new)
            assert t == expected


# -- proof-term reduction -----------------------------------------------------


def trace_of(src, fuel=100):
    final, steps = normalize_proof(parse_proof(src), fuel=fuel, trace=True)
    return final, len(steps) - 1


def test_beta_for_proofs():
    final, n = trace_of("(fun a => a) q")
    assert print_proof(final) == "q" and n == 1


def test_case_and_dest():
    final, _ = trace_of("case (inl p : R \\/ R) of a => a | b => b")
    assert print_proof(final) == "p"
    final, _ = trace_of("dest ([0, p] : exists x:nat. P(x)) as [x, a] in (a, a)")
    assert print_proof(final) == "(p, p)"


def test_capture_example():
    final, n = trace_of("reset (f (shift k => k a))")
    assert print_proof(final) == "f a"
    assert n == 4


def test_discard_continuation_example():
    final, n = trace_of("reset (shift k => a)")
    assert print_proof(final) == "a"
    assert n == 2


def test_reset_of_value_example():
    final, n = trace_of("reset (fun a => a)")
    assert print_proof(final) == "fun a => a"
    assert n == 1


def test_applied_shift_monad_halts_under_binders():
    # applying the double-negation-shift proof to inert arguments reduces to
    # a reset whose body is blocked under binders
    src = ("(fun h => fun k => reset (k (tfun x => shift k' => (h @ x) k'))) h0 k0")
    final, n = trace_of(src)
    assert print_proof(final) == "reset (k0 (tfun x => shift k' => h0 @ x k'))"
    assert n == 2


def test_shift_without_reset_is_stuck():
    with pytest.raises(Stuck):
        normalize_proof(parse_proof("shift k => k a"))


def test_fuel_exhaustion():
    looping = parse_proof("(fun a => a a) (fun a => a a)")
    with pytest.raises(FuelExhausted):
        normalize_proof(looping, fuel=20)


def test_fuel_counts_steps_taken():
    capture = parse_proof("reset (f (shift k => k a))")
    final, steps = normalize_proof(capture, fuel=4, trace=True)
    assert print_proof(final) == "f a" and len(steps) == 5
    assert normalize_proof(capture, 4) == final
    with pytest.raises(FuelExhausted):
        normalize_proof(capture, fuel=3)
    with pytest.raises(FuelExhausted):
        normalize_proof(capture, fuel=3, trace=True)
    normal = parse_proof("fun a => a")
    assert normalize_proof(normal, fuel=0) == normal
    assert normalize_proof(normal, fuel=0, trace=True) == (normal, [normal])
    with pytest.raises(FuelExhausted):
        normalize_proof(normal, fuel=-1)


def test_untraced_reduction_keeps_no_configurations():
    # 300 independent redexes: the trace holds 301 configurations of about
    # 300 nodes each, an untraced run only the current one
    p = redex = parse_proof("(fun a => a) h")
    for _ in range(299):
        p = PPair(redex, p)

    def peak(trace):
        tracemalloc.start()
        try:
            normalize_proof(p, trace=trace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(False) * 10 < peak(True)


def test_step_proof_none_on_normal_forms():
    p = parse_proof("fun a => a")
    assert normalize_proof(p, trace=True) == (p, [p])


# -- bounded classical evaluation ---------------------------------------------


def tables(**kw):
    base = {"P": set(), "Q": set(), "R": set()}
    base.update(kw)
    return base


def test_reflexivity_over_domain():
    a = parse_formula("forall x:nat. x = x")
    assert eval_formula_bounded(SIG, a, 2, tables())


def test_existential_with_table():
    a = parse_formula("exists x:nat. P(x)")
    assert eval_formula_bounded(SIG, a, 3, tables(P={(1,)}))
    assert not eval_formula_bounded(SIG, a, 3, tables())


def test_lpo_shape():
    # with f identically zero the right disjunct holds
    a = parse_formula("(exists n:nat. S 0 = 0) \\/ forall n:nat. 0 = 0")
    assert eval_formula_bounded(SIG, a, 3, tables())


def test_out_of_range_clamp():
    a = parse_formula("exists x:nat. x = S (S (S 0))")
    assert not eval_formula_bounded(SIG, a, 3, tables())
    assert eval_formula_bounded(SIG, a, 4, tables())


def test_higher_sort_quantifier_rejected():
    a = parse_formula("forall f:nat -> nat. (f 0) = 0")
    with pytest.raises(Exception) as exc:
        eval_formula_bounded(SIG, a, 2, tables())
    assert "HigherSortQuantifier" in type(exc.value).__name__


def test_bounded_evaluation_refuses_ill_sorted_terms():
    for src in ("rec[nat](star; 0; fun (n:nat) => fun (r:nat) => r) = 0",
                "(0 0) = 0", "S star = 0", "forall x:nat. x x = 0", "P(y)",
                "star = 0", "P(fun (x:nat) => x)"):
        with pytest.raises(IllSorted):
            eval_formula_bounded(SIG, parse_formula(src), 2, tables())


def test_missing_pred_table():
    a = parse_formula("P(0)")
    with pytest.raises(Exception) as exc:
        eval_formula_bounded(SIG, a, 2, {})
    assert "MissingPredTable" in type(exc.value).__name__


def test_classical_semantics_exhaustive_cross_check():
    # independent brute-force evaluator over the same domain
    def brute(a, n, tabs, env):
        from dnsk.syntax import (
            And, Bot, Eq0, Exists, Forall, Imp, Or, PredApp, subst_term,
        )
        from dnsk.evaluate import normalize_term as nt

        def val(t):
            t2 = t
            for k, v in env.items():
                t2 = subst_term(t2, k, numeral(v))
            v = numeral_value(normalize_term({}, t2))
            return v if v is not None and v < n else None

        match a:
            case Bot():
                return False
            case Eq0(l, r):
                lv, rv = val(l), val(r)
                return lv is not None and rv is not None and lv == rv
            case PredApp(p, args):
                vs = tuple(val(t) for t in args)
                return all(v is not None for v in vs) and vs in tabs[p]
            case And(l, r):
                return brute(l, n, tabs, env) and brute(r, n, tabs, env)
            case Or(l, r):
                return brute(l, n, tabs, env) or brute(r, n, tabs, env)
            case Imp(l, r):
                return (not brute(l, n, tabs, env)) or brute(r, n, tabs, env)
            case Forall(x, _, b):
                return all(brute(b, n, tabs, {**env, x: k}) for k in range(n))
            case Exists(x, _, b):
                return any(brute(b, n, tabs, {**env, x: k}) for k in range(n))

    rng = random.Random(37)
    for _ in range(60):
        a = random_formula(rng, 3)
        tabs = random_pred_tables(rng, 2)
        assert eval_formula_bounded(SIG, a, 2, tabs) == brute(a, 2, tabs, {})
