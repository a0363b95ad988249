"""The term and formula walkers that dispatch on ``type(node)`` against the
``match`` versions they replaced: ``fv_term``, ``fv_formula``, alpha-
equivalence, the substitutions and ``mr_type`` against ``reference_syntax``,
``infer_term_type`` and ``wf_formula`` against ``reference_typecheck``.
Each case must give an equal result, or an exception of the same type with
the same ``kind`` and message.

The inputs are seeded random terms and formulas, well-sorted and not,
among them mutants of well-sorted terms with one subterm replaced, whose
binders reuse a tiny pool of names, so shadowing and capture are common,
and whose subterms are shared objects, met under different binders.  Hand
cases reach every ``SortError`` the two sort walkers raise; the run checks
that every one was raised.  ``infer_term_type`` and ``wf_formula`` must also
leave the caller's mapping as it was, a ``dict`` or a read-only
``types.MappingProxyType``, when a binder shadows one of its names and when
a ``SortError`` is raised under that binder.  The check also runs without
pytest, on the standard library alone:

    PYTHONPATH=src python tests/test_walkers_diff.py [scale]
"""

import random
import sys
import types

import reference_syntax as ref
import reference_typecheck as ref_tc
from conftest import TEST_SIGNATURE
from dnsk.syntax import (
    BOT, NAT, STAR, UNIT, ZERO, And, App, Arrow, Ascribe, Eq0, Exists, Forall, Hyp, Imp, Lam,
    Or, Pair, PPair, PredApp, Prod, Proj1, Proj2, Rec, Star, Succ, Var, Zero, _aeq_formula,
    alpha_eq_formula, alpha_eq_term, fv_formula, fv_term, subst_formula, subst_term,
)
from dnsk.translate import mr_type
from dnsk.typecheck import Annotation, Context, SortError, check_proof, infer_term_type, wf_formula

SIG = TEST_SIGNATURE
NN = Arrow(NAT, NAT)
SORTS = (NAT, NAT, UNIT, NN, Prod(NAT, UNIT), Arrow(NAT, NN), Prod(NN, NAT))
NAMES = ("x", "y", "z")
TERMS = (Var, Lam, App, Pair, Proj1, Proj2, Star, Zero, Succ, Rec)
FREE = {"x": NAT, "f": NN, "p": Prod(NAT, UNIT)}


def outcome(fn, *args):
    """A call's result, or its exception's type, kind and message."""
    try:
        return ("ok", fn(*args))
    except (SortError, ref_tc.SortError, TypeError) as e:
        return ("raised", type(e).__name__, getattr(e, "kind", None), str(e))


# ---------------------------------------------------------------------------
# generators


class Gen:
    """Seeded terms and formulas.  ``pool`` keeps terms already made, and
    a new term is at times one of them, the same object, so one subterm
    sits under different binders of one formula."""

    def __init__(self, rng):
        self.rng = rng
        self.pool = []

    def share(self, t):
        if len(self.pool) < 64:
            self.pool.append(t)
        else:
            self.pool[self.rng.randrange(64)] = t
        return t

    def sorted_term(self, sort, ctx, d):
        """A term of ``sort`` under ``ctx``."""
        rng = self.rng
        names = [x for x, s in ctx.items() if s == sort]
        if names and (d <= 0 or rng.random() < 0.25):
            return Var(rng.choice(names))
        roll = rng.randrange(5) if d > 0 else 0
        if roll == 1:
            dom = rng.choice(SORTS)
            return App(self.sorted_term(Arrow(dom, sort), ctx, d - 1),
                       self.sorted_term(dom, ctx, d - 1))
        if roll == 2:
            other = rng.choice(SORTS)
            if rng.random() < 0.5:
                return Proj1(self.sorted_term(Prod(sort, other), ctx, d - 1))
            return Proj2(self.sorted_term(Prod(other, sort), ctx, d - 1))
        if roll == 3:
            step = self.sorted_term(Arrow(NAT, Arrow(sort, sort)), ctx, d - 1)
            return Rec(sort, self.sorted_term(NAT, ctx, d - 1),
                       self.sorted_term(sort, ctx, d - 1), step)
        if sort == NAT:
            if d > 0 and rng.random() < 0.4:
                return Succ(self.sorted_term(NAT, ctx, d - 1))
            return rng.choice((ZERO, Succ(ZERO), Succ(Succ(ZERO))))
        if sort == UNIT:
            return STAR
        if isinstance(sort, Prod):
            return Pair(self.sorted_term(sort.left, ctx, d - 1),
                        self.sorted_term(sort.right, ctx, d - 1))
        x = rng.choice(NAMES)
        return Lam(x, sort.dom, self.sorted_term(sort.cod, {**ctx, x: sort.dom}, d - 1))

    def raw_term(self, d):
        """A term of any shape, most often ill-sorted."""
        rng = self.rng
        if self.pool and rng.random() < 0.15:
            return rng.choice(self.pool)
        k = rng.randrange(10 if d > 0 else 3)
        if k == 0:
            t = Var(rng.choice(NAMES + ("f", "p")))
        elif k == 1:
            t = ZERO
        elif k == 2:
            t = STAR
        elif k == 3:
            t = Succ(self.raw_term(d - 1))
        elif k == 4:
            t = Lam(rng.choice(NAMES), rng.choice(SORTS), self.raw_term(d - 1))
        elif k == 5:
            t = App(self.raw_term(d - 1), self.raw_term(d - 1))
        elif k == 6:
            t = Pair(self.raw_term(d - 1), self.raw_term(d - 1))
        elif k == 7:
            t = (Proj1 if rng.random() < 0.5 else Proj2)(self.raw_term(d - 1))
        elif k == 8:
            t = Rec(rng.choice(SORTS), self.raw_term(d - 1), self.raw_term(d - 1),
                    self.raw_term(d - 1))
        else:
            t = self.sorted_term(rng.choice(SORTS), FREE, d - 1)
        return self.share(t)

    def term(self, d, ctx=FREE):
        if self.rng.random() < 0.4:
            return self.share(self.sorted_term(self.rng.choice(SORTS), ctx, d))
        return self.raw_term(d)

    def formula(self, d, ctx=FREE):
        """A formula over TEST_SIGNATURE, sometimes with an unknown
        predicate, a wrong arity or an argument of the wrong sort."""
        rng = self.rng
        k = rng.randrange(8 if d > 0 else 3)
        if k == 0:
            return BOT
        if k == 1:
            lhs = self.sorted_term(NAT, ctx, 2) if rng.random() < 0.8 else self.term(2, ctx)
            return Eq0(lhs, self.sorted_term(NAT, ctx, 2))
        if k == 2:
            sym = rng.choice(("P", "Q", "R", "P", "Q", "Z"))
            n = len(SIG.predicates.get(sym, ()))
            if rng.random() < 0.1:
                n += rng.choice((-1, 1)) if n else 1
            args = tuple(self.sorted_term(NAT, ctx, 2) if rng.random() < 0.85
                         else self.term(2, ctx) for _ in range(n))
            return PredApp(sym, args)
        if k in (3, 4, 5):
            return (And, Or, Imp)[k - 3](self.formula(d - 1, ctx), self.formula(d - 1, ctx))
        x, s = rng.choice(NAMES), rng.choice(SORTS)
        return (Forall, Exists)[k - 6](x, s, self.formula(d - 1, {**ctx, x: s}))


def mutant(gen, t):
    """t with one of its subterms, chosen at random, replaced by a raw
    term, everywhere that subterm object occurs: mostly ill-sorted."""
    nodes = []

    def collect(u):
        nodes.append(u)
        for v in (getattr(u, f) for f in type(u).__match_args__):
            if isinstance(v, TERMS):
                collect(v)

    def rebuild(u):
        if u is target:
            return gen.raw_term(1)
        vals = [getattr(u, f) for f in type(u).__match_args__]
        new = [rebuild(v) if isinstance(v, TERMS) else v for v in vals]
        return u if new == vals else type(u)(*new)

    collect(t)
    target = gen.rng.choice(nodes)
    return rebuild(t)


def rename_bound(a):
    """An alpha-variant of a formula: the bound names of its quantifiers
    renamed, where the new name is not free in the body."""
    if isinstance(a, (And, Or, Imp)):
        return type(a)(rename_bound(a.left), rename_bound(a.right))
    if isinstance(a, (Forall, Exists)):
        body = rename_bound(a.body)
        y = a.var + "'"
        if y in ref.fv_formula(body):
            return type(a)(a.var, a.sort, body)
        return type(a)(y, a.sort, ref.subst_formula(body, a.var, Var(y)))
    return a


# ---------------------------------------------------------------------------
# hand cases: every SortError of infer_term_type and wf_formula

ILL_SORTED_TERMS = [
    Var("w"),
    Succ(STAR),
    Succ(Succ(Var("p"))),
    App(ZERO, ZERO),
    App(Var("f"), STAR),
    Proj1(ZERO),
    Proj2(Var("f")),
    Rec(NAT, STAR, ZERO, Lam("n", NAT, Lam("r", NAT, Var("r")))),
    Rec(NAT, ZERO, STAR, Lam("n", NAT, Lam("r", NAT, Var("r")))),
    Rec(NAT, ZERO, ZERO, Lam("n", NAT, Var("n"))),
    BOT,
    # the same errors under a binder that shadows a name of FREE
    Lam("x", UNIT, Succ(Var("x"))),
    Lam("f", NAT, App(Var("f"), ZERO)),
    Lam("p", NN, Proj1(Var("p"))),
    Pair(Lam("x", UNIT, Var("x")), Succ(Var("x"))),
]

ILL_SORTED_FORMULAS = [
    Eq0(STAR, ZERO),
    Eq0(ZERO, Var("f")),
    PredApp("Z", (ZERO,)),
    PredApp("P", (ZERO, ZERO)),
    PredApp("Q", (ZERO, STAR)),
    PredApp("P", (Var("w"),)),
    STAR,
    Forall("x", UNIT, PredApp("P", (Var("x"),))),
    Exists("f", NAT, Eq0(App(Var("f"), ZERO), ZERO)),
    Forall("y", NAT, Imp(PredApp("P", (Var("y"),)), Eq0(Proj1(Var("y")), ZERO))),
    # a term binder inside a quantifier: x is nat again after the lambda,
    # and y unbound again after its quantifier
    Forall("y", NAT, Eq0(App(Lam("x", UNIT, Var("y")), STAR), Var("x"))),
    And(Forall("y", NAT, PredApp("P", (Var("y"),))), PredApp("P", (Var("y"),))),
    # the same below an outer binder, whose copy of the sorts the inner
    # binder shares and must restore
    Forall("z", NAT, And(Forall("y", NAT, PredApp("P", (Var("y"),))), PredApp("P", (Var("y"),)))),
    Forall("z", NAT, And(Exists("x", UNIT, BOT), PredApp("P", (Var("x"),)))),
    Imp(Eq0(App(Lam("z", NAT, Var("z")), ZERO), ZERO), PredApp("P", (Var("z"),))),
]

# the first words of each SortError message the two walkers raise
SORT_ERRORS = {
    "unbound variable", "S expects", "applied a non-function", "argument sort",
    ".1 applied", ".2 applied", "rec scrutinee", "rec base", "rec step", "not a term",
    "=_0 compares", "undeclared predicate", "predicate ", "argument of",
    "not a formula",
}


def _prefix(message):
    return next((p for p in SORT_ERRORS if message.startswith(p)), message)


# ---------------------------------------------------------------------------
# the differential checks


def check_term(t, s, x, r):
    """Every term walker on t, against the old ones; t[x := r] too.
    Returns the sort walk's outcome."""
    memo, ref_memo = {}, {}
    assert fv_term(t) == ref.fv_term(t), t
    assert fv_term(t, memo) == ref.fv_term(t, ref_memo) == fv_term(t, memo), t
    assert subst_term(t, x, r) == ref.subst_term(t, x, r), (t, x, r)
    assert subst_term(t, x, r, memo) == ref.subst_term(t, x, r), (t, x, r)
    assert alpha_eq_term(t, s) == ref._aeq_term(t, s, {}, {}, 0), (t, s)
    assert alpha_eq_term(t, t) == ref._aeq_term(t, t, {}, {}, 0), t
    new, old = outcome(infer_term_type, FREE, t), outcome(ref_tc.infer_term_type, FREE, t)
    assert new == old, (t, new, old)
    return new


def check_formula(a, b, x, r):
    """Every formula walker on a, against the old ones; a[x := r] too, and
    the alpha-equivalence of a and b.  Returns the sort walk's outcome."""
    memo, ref_memo = {}, {}
    assert fv_formula(a) == ref.fv_formula(a), a
    assert fv_formula(a, memo) == ref.fv_formula(a, ref_memo) == fv_formula(a, memo), a
    assert subst_formula(a, x, r) == ref.subst_formula(a, x, r), (a, x, r)
    assert subst_formula(a, x, r, memo) == ref.subst_formula(a, x, r), (a, x, r)
    same = ref._aeq_formula(a, b, {}, {}, 0)
    assert _aeq_formula(a, b, {}, {}, 0) == same, (a, b)
    # alpha_eq_formula holds of one object at the root, a non-formula too
    assert alpha_eq_formula(a, b) == (a is b or same), (a, b)
    assert _aeq_formula(a, a, {}, {}, 0) == ref._aeq_formula(a, a, {}, {}, 0), a
    sort_memo = {}
    new = outcome(mr_type, a, sort_memo)
    assert new == outcome(ref.mr_type, a) == outcome(mr_type, a, sort_memo), a
    new = outcome(wf_formula, SIG, FREE, a)
    old = outcome(ref_tc.wf_formula, SIG, FREE, a)
    assert new == old, (a, new, old)
    return new


def terms_agree(n):
    """The outcomes of n random terms and the hand cases, all checked."""
    rng = random.Random(61)
    gen = Gen(rng)
    outcomes = []
    terms = [gen.term(rng.randrange(1, 5)) for _ in range(n)]
    # every fourth term: a well-sorted one with one subterm replaced
    terms[3::4] = [mutant(gen, gen.sorted_term(rng.choice(SORTS), FREE, 4)) for _ in terms[3::4]]
    for t, s in zip(terms, terms[1:] + terms[:1]):
        r = gen.term(2)
        outcomes.append(check_term(t, s, rng.choice(NAMES + ("f",)), r))
    for t in ILL_SORTED_TERMS:
        outcomes.append(check_term(t, t, "x", Var("y")))
    ok = sum(o[0] == "ok" for o in outcomes)
    assert len(outcomes) // 5 < ok < len(outcomes) - len(outcomes) // 5, ok
    return outcomes


def formulas_agree(n):
    """The outcomes of n random formulas and the hand cases, all checked."""
    rng = random.Random(67)
    gen = Gen(rng)
    outcomes = []
    for i in range(n):
        a = gen.formula(rng.randrange(1, 5))
        b = (rename_bound(a), gen.formula(2), a)[i % 3]
        r = gen.term(2)
        outcomes.append(check_formula(a, b, rng.choice(NAMES + ("f",)), r))
    for a in ILL_SORTED_FORMULAS:
        outcomes.append(check_formula(a, a, "x", Var("y")))
    ok = sum(o[0] == "ok" for o in outcomes)
    assert len(outcomes) // 5 < ok < len(outcomes) - len(outcomes) // 5, ok
    return outcomes


def test_terms_agree():
    terms_agree(1500)


def test_formulas_agree():
    formulas_agree(1000)


def test_every_sort_error_is_reached():
    seen = {_prefix(o[3]) for o in terms_agree(200) + formulas_agree(200)
            if o[0] == "raised" and o[1] == "SortError"}
    assert seen == SORT_ERRORS, SORT_ERRORS - seen


def test_shared_subterm_under_different_binders():
    # one P(x) object: bound by the first quantifier, free in the second
    px = PredApp("P", (Var("x"),))
    cases = [
        (Forall("x", NAT, px), Forall("y", NAT, px), False),
        (Forall("x", NAT, px), Forall("x", NAT, px), True),
        (Forall("x", NAT, px), Exists("x", NAT, px), False),
        (Forall("x", NAT, px), Forall("x", UNIT, px), False),
        (And(px, Forall("x", NAT, px)), And(px, Forall("y", NAT, px)), False),
        (Forall("y", NAT, Forall("x", NAT, px)), Forall("x", NAT, Forall("y", NAT, px)), False),
        (Forall("x", NAT, Forall("x", NAT, px)), Forall("y", NAT, Forall("x", NAT, px)), True),
        (Forall("x", NAT, Forall("x", NAT, px)), Forall("x", NAT, Forall("y", NAT, px)), False),
    ]
    for a, b, want in cases:
        assert alpha_eq_formula(a, b) is want is ref._aeq_formula(a, b, {}, {}, 0), (a, b)
        assert alpha_eq_formula(b, a) is want, (b, a)
    x = Var("x")
    term_cases = [
        (Lam("x", NAT, x), Lam("y", NAT, x), False),
        (Lam("x", NAT, x), Lam("y", NAT, Var("y")), True),
        (Pair(x, Lam("x", NAT, x)), Pair(x, Lam("y", NAT, x)), False),
        (Lam("y", NAT, Lam("x", NAT, x)), Lam("x", NAT, Lam("y", NAT, x)), False),
    ]
    for a, b, want in term_cases:
        assert alpha_eq_term(a, b) is want is ref._aeq_term(a, b, {}, {}, 0), (a, b)


# ---------------------------------------------------------------------------
# the caller's mapping


def test_sort_walks_leave_the_callers_mapping_unchanged():
    term_cases = [
        # a binder shadowing x, then x at its outer sort
        (Pair(Lam("x", NN, App(Var("x"), ZERO)), Succ(Var("x"))), True),
        (App(Lam("x", UNIT, Var("x")), STAR), True),
        # a binder of a name the caller does not have, then that name
        (Pair(Lam("y", NAT, Var("y")), Var("y")), False),
        # the same below an outer binder, which the inner one shares
        (Lam("z", NAT, Pair(Lam("x", UNIT, Var("x")), Succ(Var("x")))), True),
        (Lam("z", NAT, Pair(Lam("y", NAT, Var("y")), Var("y"))), False),
        # a SortError under the shadowing binder, and under a nested one
        (Lam("x", UNIT, Succ(Var("x"))), False),
        (Lam("x", NN, Lam("f", NAT, App(Var("f"), Var("x")))), False),
    ]
    formula_cases = [
        (And(Forall("x", NN, Eq0(App(Var("x"), ZERO), ZERO)), PredApp("P", (Var("x"),))), True),
        (Exists("x", UNIT, Eq0(App(Lam("x", NAT, Var("x")), ZERO), ZERO)), True),
        (Forall("z", NAT, And(Exists("x", UNIT, BOT), PredApp("P", (Var("x"),)))), True),
        (Forall("z", NAT, And(Forall("y", NAT, BOT), PredApp("P", (Var("y"),)))), False),
        (Forall("x", UNIT, PredApp("P", (Var("x"),))), False),
        (Forall("x", NN, Exists("y", NAT, Eq0(Var("x"), Var("y")))), False),
        (Imp(Forall("z", NAT, BOT), PredApp("P", (Var("z"),))), False),
    ]
    for make in (dict, types.MappingProxyType):
        base = {"x": NAT, "f": NN}
        sorts = make(base)
        for t, ok in term_cases:
            new = outcome(infer_term_type, sorts, t)
            assert new == outcome(ref_tc.infer_term_type, base, t), t
            assert (new[0] == "ok") is ok, (t, new)
            assert base == {"x": NAT, "f": NN} and dict(sorts) == base, t
        for a, ok in formula_cases:
            new = outcome(wf_formula, SIG, sorts, a)
            assert new == outcome(ref_tc.wf_formula, SIG, base, a), a
            assert (new[0] == "ok") is ok, (a, new)
            assert base == {"x": NAT, "f": NN} and dict(sorts) == base, a
        assert infer_term_type(sorts, Var("x")) is NAT


def test_shadowing_ascriptions_agree_with_the_old_checker():
    # an ascription whose quantifier shadows x at another sort, then x at
    # its own sort: in one formula, in a second ascription, and failing
    px = PredApp("P", (Var("x"),))
    shadow = Forall("x", NN, Eq0(App(Var("x"), ZERO), ZERO))
    bad = Forall("x", UNIT, px)
    hyps = {"a": shadow, "b": px, "c": And(shadow, px), "d": bad}
    cases = [
        (PPair(Ascribe(Hyp("a"), shadow), Ascribe(Hyp("b"), px)), And(shadow, px)),
        (Ascribe(Hyp("c"), And(shadow, px)), And(shadow, px)),
        (PPair(Ascribe(Hyp("b"), px), Ascribe(Hyp("d"), bad)), And(px, px)),
        (PPair(Ascribe(Hyp("b"), px), Ascribe(Hyp("a"), shadow)), And(px, shadow)),
    ]
    kinds = []
    for proof, goal in cases:
        for term_vars in ({"x": NAT}, types.MappingProxyType({"x": NAT})):
            new = check_proof(SIG, Context(term_vars, hyps), Annotation.PLAIN, proof, goal)
            old = ref_tc.check_proof(SIG, ref_tc.Context(dict(term_vars), hyps),
                                     ref_tc.Annotation.PLAIN, proof, goal)
            assert new.ok == old.ok, (proof, new, old)
            if not new.ok:
                e, f = new.error, old.error
                assert (e.kind, e.path, e.message) == (f.kind, f.path, f.message), (e, f)
            assert dict(term_vars) == {"x": NAT}
            kinds.append("ok" if new.ok else new.error.kind)
    assert kinds == ["ok", "ok", "ok", "ok", "SortMismatch", "SortMismatch", "ok", "ok"], kinds


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    terms_agree(1500 * scale)
    formulas_agree(1000 * scale)
    test_every_sort_error_is_reached()
    test_shared_subterm_under_different_binders()
    test_sort_walks_leave_the_callers_mapping_unchanged()
    test_shadowing_ascriptions_agree_with_the_old_checker()
    print(f"python {sys.version.split()[0]}: {1500 * scale} terms, {1000 * scale} formulas, "
          f"{len(ILL_SORTED_TERMS) + len(ILL_SORTED_FORMULAS)} ill-sorted hand cases and "
          f"every SortError agree")
