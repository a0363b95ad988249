"""The printer and the translations that dispatch on ``type(node)`` against
the ``match`` versions they replaced (``tests/reference_printer.py`` and
``tests/reference_translate.py``).  Each case must give the same string, or
an exception of the same type with the same ``kind`` and message.

The printer inputs are seeded random sorts, terms, formulas and proofs,
printed at every precedence.  Their subtrees are shared objects, met again
at other precedences of the same tree, and now and then a child is not a
node of its category: a number, ``None``, or a node of another category
that the same tree also holds in its own place.  Hand cases build graphs in
which one node stands at two precedences.  The translations run on seeded
formulas, closed and open, with realizers, witnesses and challenges of the
right sort and of a wrong one; their results must be equal nodes and print
the same, and every ``TranslationError`` kind must be raised.  The check also
runs without pytest, on the standard library alone:

    PYTHONPATH=src python tests/test_printer_diff.py [scale]
"""

import random
import sys

import reference_printer as ref
import reference_translate as ref_tr
from conftest import TEST_SIGNATURE
from dnsk.printer import print_formula, print_proof, print_term, print_type
from dnsk.syntax import (
    BOT, NAT, STAR, UNIT, ZERO, And, App, Arrow, Ascribe, Case, Dest, Efq, Eq0, ExPair,
    Exists, Forall, Fst, Hyp, Imp, Inl, Inr, Lam, Or, Pair, PApp, PLam, PPair, PredApp, Prod,
    Proj1, Proj2, Rec, Reset, Shift, Snd, Succ, TApp, TLam, Var, fresh_name, fv_formula, neg,
)
from dnsk.translate import (
    TranslationError, dia_formula, dia_nn_simplify, dia_types, kuroda, kuroda_inner,
    mr_formula, mr_type, mrt_formula, spector_target,
)

SIG = TEST_SIGNATURE
NAMES = ("x", "y", "z")
PRINTERS = {
    # category -> new printer, old printer, the precedences it is printed at
    "sort": (print_type, ref.print_type, range(4)),
    "term": (print_term, ref.print_term, range(4)),
    "formula": (print_formula, ref.print_formula, range(7)),
    "proof": (print_proof, ref.print_proof, range(5)),
}
PREFIX = (Fst, Snd, Inl, Inr, Efq, Reset)
KINDS = {"RealizerTypeMismatch", "WitnessTypeMismatch", "ChallengeTypeMismatch", "OpenFormula"}


def outcome(fn, *args):
    """A call's result, or its exception's type, kind and message."""
    try:
        return ("ok", fn(*args))
    except (TranslationError, ref_tr.TranslationError, TypeError) as e:
        return ("raised", type(e).__name__, getattr(e, "kind", None), str(e))


# ---------------------------------------------------------------------------
# generators


class Gen:
    """Seeded nodes of the four categories.  ``pools`` keeps nodes already
    made, and a new child is at times one of them, the same object; with
    probability ``bad`` a child is a non-node or a node of another category."""

    def __init__(self, rng, bad=0.0):
        self.rng = rng
        self.bad = bad
        self.pools = {"sort": [], "term": [], "formula": [], "proof": []}

    def share(self, cat, x):
        pool = self.pools[cat]
        if len(pool) < 32:
            pool.append(x)
        else:
            pool[self.rng.randrange(32)] = x
        return x

    def reuse(self, cat):
        """A node from a pool, or a wrong child, or None for a new node."""
        rng = self.rng
        if rng.random() < self.bad:
            others = [c for c in self.pools if c != cat and self.pools[c]]
            if others and rng.random() < 0.5:
                return rng.choice(self.pools[rng.choice(others)])
            return rng.choice((5, None, "s", (ZERO,)))
        pool = self.pools[cat]
        if pool and rng.random() < 0.2:
            return rng.choice(pool)
        return None

    def sort(self, d):
        old = self.reuse("sort")
        if old is not None:
            return old
        k = self.rng.randrange(4 if d > 0 else 2)
        if k < 2:
            return (NAT, UNIT)[k]
        return self.share("sort", (Arrow, Prod)[k - 2](self.sort(d - 1), self.sort(d - 1)))

    def term(self, d):
        old = self.reuse("term")
        if old is not None:
            return old
        rng = self.rng
        k = rng.randrange(11 if d > 0 else 3)
        if k == 0:
            return Var(rng.choice(NAMES))
        if k == 1:
            return ZERO
        if k == 2:
            return STAR
        if k == 3:
            t = self.term(d - 1)
            for _ in range(rng.randrange(1, 5)):
                t = Succ(t)
        elif k == 4:
            t = self.term(d - 1)
            for _ in range(rng.randrange(1, 4)):
                t = App(t, self.term(d - 1))
        elif k == 5:
            t = Lam(rng.choice(NAMES), self.sort(2), self.term(d - 1))
        elif k == 6:
            t = Proj1(self.term(d - 1))
        elif k == 7:
            t = Proj2(self.term(d - 1))
        elif k == 8:
            t = Pair(self.term(d - 1), self.term(d - 1))
        elif k == 9:
            t = Rec(self.sort(1), self.term(d - 1), self.term(d - 1), self.term(d - 1))
        else:
            t = Succ(App(self.term(d - 1), self.term(d - 1)))
        return self.share("term", t)

    def formula(self, d, bound=NAMES):
        """A formula whose variables are among ``bound``."""
        old = self.reuse("formula")
        if old is not None:
            return old
        rng = self.rng
        k = rng.randrange(10 if d > 0 else 3)
        if k == 0:
            return BOT
        if k == 1:
            return self.share("formula", Eq0(self.atom(bound), self.atom(bound)))
        if k == 2:
            sym = rng.choice(("P", "Q", "R"))
            n = len(SIG.predicates[sym])
            return self.share("formula", PredApp(sym, tuple(self.atom(bound) for _ in range(n))))
        if k in (3, 4, 5):
            a = (And, Or, Imp)[k - 3](self.formula(d - 1, bound), self.formula(d - 1, bound))
        elif k == 6:
            a = neg(self.formula(d - 1, bound))
        elif k == 7:
            a = neg(neg(self.formula(d - 1, bound)))
        else:
            x = rng.choice(NAMES)
            a = (Forall, Exists)[k - 8](x, self.sort(1), self.formula(d - 1, bound + (x,)))
        return self.share("formula", a)

    def atom(self, bound):
        """A term over the names in ``bound``, or a closed one."""
        rng = self.rng
        if bound and rng.random() < 0.7:
            v = Var(rng.choice(bound))
            return v if rng.random() < 0.7 else Succ(v)
        return rng.choice((ZERO, Succ(ZERO)))

    def proof(self, d):
        old = self.reuse("proof")
        if old is not None:
            return old
        rng = self.rng
        k = rng.randrange(14 if d > 0 else 1)
        name = rng.choice(("h", "k", "a"))
        if k == 0:
            return Hyp(name)
        if k in (1, 2, 3):
            p = (PLam, TLam, Shift)[k - 1](name, self.proof(d - 1))
        elif k == 4:
            p = Case(self.proof(d - 1), "l", self.proof(d - 1), "r", self.proof(d - 1))
        elif k == 5:
            p = Dest(self.proof(d - 1), "x", name, self.proof(d - 1))
        elif k in (6, 7):
            p = self.proof(d - 1)
            for _ in range(rng.randrange(1, 4)):
                p = PApp(p, self.proof(d - 1)) if rng.random() < 0.6 else TApp(p, self.term(1))
        elif k in (8, 9):
            p = self.proof(d - 1)
            for _ in range(rng.randrange(1, 4)):
                p = rng.choice(PREFIX)(p)
        elif k == 10:
            p = PPair(self.proof(d - 1), self.proof(d - 1))
        elif k == 11:
            p = ExPair(self.term(1), self.proof(d - 1))
        elif k == 12:
            p = Ascribe(self.proof(d - 1), self.formula(1))
        else:
            p = Fst(PApp(self.proof(d - 1), self.proof(d - 1)))
        return self.share("proof", p)


# ---------------------------------------------------------------------------
# the printer


def check_print(cat, x):
    """x printed at every precedence by both printers; the outcome at 0."""
    new, old, precs = PRINTERS[cat]
    for prec in precs:
        got, want = outcome(new, x, prec), outcome(old, x, prec)
        assert got == want, (cat, x, prec, got, want)
    return outcome(new, x)


def printers_agree(n):
    """n random nodes of each category, all checked; the outcomes."""
    rng = random.Random(71)
    gen = Gen(rng, bad=0.01)
    outcomes = []
    for i in range(n):
        d = rng.randrange(1, 5)
        outcomes.append(check_print("sort", gen.sort(d)))
        outcomes.append(check_print("term", gen.term(d)))
        outcomes.append(check_print("formula", gen.formula(d)))
        outcomes.append(check_print("proof", gen.proof(d)))
    raised = sum(o[0] == "raised" for o in outcomes)
    assert 0 < raised < len(outcomes) // 5, raised
    return outcomes


def test_printers_agree():
    printers_agree(300)


def test_shared_nodes_at_different_precedences():
    p = Prod(NAT, UNIT)
    ar = Arrow(NAT, p)
    sorts = [
        Arrow(p, Prod(NAT, p)), Prod(p, p), Arrow(ar, ar), Prod(ar, Prod(ar, p)),
        Arrow(Prod(p, ar), Arrow(p, ar)),
    ]
    app = App(Var("f"), Var("x"))
    lam = Lam("x", p, app)
    s = Succ(app)
    terms = [
        App(app, app), Succ(app), App(s, s), Succ(s), Proj1(app), Pair(app, Proj2(s)),
        App(lam, lam), Rec(ar, s, lam, App(app, lam)), Proj1(Proj2(lam)), Succ(Succ(lam)),
    ]
    px, q = PredApp("P", (app,)), PredApp("Q", (s, app))
    n, o, imp = neg(px), Or(px, q), Imp(px, q)
    fa = Forall("x", ar, n)
    formulas = [
        And(n, Imp(n, n)), neg(n), neg(o), And(o, o), Or(o, o), Imp(o, imp), Imp(imp, imp),
        And(imp, fa), Or(fa, And(fa, fa)), neg(fa), Imp(fa, fa), Eq0(app, s), Eq0(s, app),
        Eq0(lam, lam), Exists("y", p, Eq0(Proj1(app), app)),
    ]
    h = PApp(Hyp("f"), Hyp("a"))
    t = TApp(h, app)
    pre = Fst(Inl(h))
    lp = PLam("a", h)
    proofs = [
        PApp(h, h), PApp(t, t), Fst(h), Fst(pre), PApp(pre, pre), Case(h, "l", h, "r", pre),
        Dest(lp, "x", "b", lp), PApp(lp, lp), Reset(lp), Snd(Reset(pre)), TApp(pre, s),
        Ascribe(h, And(n, n)), ExPair(app, PPair(lp, t)), Efq(Case(pre, "l", lp, "r", lp)),
    ]
    for cat, xs in (("sort", sorts), ("term", terms), ("formula", formulas), ("proof", proofs)):
        for x in xs:
            assert check_print(cat, x)[0] == "ok", x


def test_non_nodes_raise_the_same_errors():
    app = App(Var("f"), Var("x"))
    px = PredApp("P", (app,))
    cases = [
        ("sort", 5), ("sort", Var("x")), ("sort", Arrow(NAT, None)), ("sort", Prod("s", NAT)),
        ("term", NAT), ("term", Succ(Succ(5))), ("term", App(App(Var("f"), 5), None)),
        ("term", Lam("x", ZERO, Var("x"))), ("term", Pair(Var("x"), px)),
        ("formula", app), ("formula", And(px, 5)), ("formula", neg(None)),
        ("formula", PredApp("P", (NAT,))), ("formula", Eq0(px, ZERO)),
        ("formula", Forall("x", ZERO, px)),
        ("proof", px), ("proof", Fst(Snd(5))), ("proof", PApp(TApp(Hyp("f"), NAT), 5)),
        ("proof", Ascribe(Hyp("h"), Hyp("h"))), ("proof", ExPair(Hyp("h"), Hyp("h"))),
        # one node rendered in its own category, then met in another
        ("formula", And(Eq0(app, ZERO), app)),
        ("proof", PApp(TApp(Hyp("f"), app), Ascribe(Hyp("h"), app))),
        ("sort", Arrow(Prod(NAT, NAT), Var("x"))),
    ]
    shared = Prod(NAT, NAT)
    cases.append(("term", Rec(shared, ZERO, ZERO, shared)))
    for cat, x in cases:
        got = check_print(cat, x)
        assert got[0] == "raised" and got[1] == "TypeError", (x, got)


def test_deep_chains_print_in_loops():
    n = 10_000
    t = ZERO
    for _ in range(n):
        t = Succ(t)
    assert print_term(t) == "S (" * (n - 1) + "S 0" + ")" * (n - 1)
    n = 2000
    p = Hyp("h")
    for _ in range(n):
        p = Fst(p)
    assert print_proof(p) == "fst " * n + "h"
    p = Hyp("h")
    for i in range(n):
        p = PREFIX[i % len(PREFIX)](p)
    words = ("fst ", "snd ", "inl ", "inr ", "efq ", "reset ")
    assert print_proof(p, 3) == "(" + "".join(words[i % 6] for i in reversed(range(n))) + "h)"
    f, pf = Var("f"), Hyp("f")
    for i in range(n):
        f = App(f, Var("x"))
        pf = PApp(pf, Hyp("x")) if i % 2 else TApp(pf, Succ(ZERO))
    assert print_term(f) == "f" + " x" * n
    assert print_term(Succ(f)) == "S (f" + " x" * n + ")"
    assert print_proof(pf) == "f" + " @ (S 0) x" * (n // 2)
    assert print_formula(Eq0(f, ZERO)) == "(f" + " x" * n + ") = 0"


# ---------------------------------------------------------------------------
# the translations


def same(new, old, printer):
    """The outcomes of one translation agree, and their results print the same."""
    assert new[0] == old[0], (new, old)
    if new[0] == "raised":
        assert new == old, (new, old)
        return new[2]
    assert new[1] == old[1], (new[1], old[1])
    assert printer[0](new[1]) == printer[1](old[1]), new[1]
    return "ok"


def translate_one(rng, a):
    """The seven translations of a, new against old; the kinds raised."""
    fp, sp = PRINTERS["formula"], PRINTERS["sort"]
    kinds = [same(outcome(kuroda, a), outcome(ref_tr.kuroda, a), fp),
             same(outcome(kuroda_inner, a), outcome(ref_tr.kuroda_inner, a), fp)]
    free = fv_formula(a)
    t = fresh_name("t", free)
    sort = mr_type(a)
    # a realizer of the wrong sort now and then
    ctx = {t: sort if rng.random() < 0.8 else rng.choice((NAT, Arrow(NAT, sort)))}
    for new, old in ((mr_formula, ref_tr.mr_formula), (mrt_formula, ref_tr.mrt_formula)):
        kinds.append(same(outcome(new, SIG, ctx, Var(t), a),
                          outcome(old, SIG, ctx, Var(t), a), fp))
    w = fresh_name("w", free)
    c = fresh_name("c", free | {w})
    for nn in (False, True):
        b = neg(neg(a)) if nn else a
        d, old_d = dia_types(b), ref_tr.dia_types(b)
        # two DiaTypes classes: compare their fields
        assert (d.witness, d.challenge) == (old_d.witness, old_d.challenge), b
        for prec in sp[2]:
            assert sp[0](d.witness, prec) == sp[1](old_d.witness, prec), b
            assert sp[0](d.challenge, prec) == sp[1](old_d.challenge, prec), b
        roll = rng.random()
        ctx = {w: d.witness if roll > 0.1 else NAT, c: d.challenge if roll < 0.9 else NAT}
        if nn:
            new = outcome(dia_nn_simplify, SIG, ctx, a, Var(w), Var(c))
            old = outcome(ref_tr.dia_nn_simplify, SIG, ctx, a, Var(w), Var(c))
        else:
            new = outcome(dia_formula, SIG, ctx, Var(w), Var(c), a)
            old = outcome(ref_tr.dia_formula, SIG, ctx, Var(w), Var(c), a)
        kinds.append(same(new, old, fp))
    kinds.append(same(outcome(spector_target, SIG, a, t),
                      outcome(ref_tr.spector_target, SIG, a, t), fp))
    return kinds


def translations_agree(n):
    """n random formulas, closed and open, through all seven translations."""
    rng = random.Random(73)
    gen = Gen(rng)
    kinds = []
    for i in range(n):
        a = gen.formula(rng.randrange(1, 5), () if i % 3 else NAMES)
        kinds += translate_one(rng, a)
    # not formulas: at the root and below a connective
    for a in (5, Var("x"), And(BOT, None), Forall("x", NAT, Or(BOT, ZERO)), neg(Imp(STAR, BOT))):
        for new, old in ((kuroda, ref_tr.kuroda), (kuroda_inner, ref_tr.kuroda_inner),
                         (dia_types, ref_tr.dia_types)):
            got, want = outcome(new, a), outcome(old, a)
            assert got == want and got[1] == "TypeError", (a, got, want)
    return kinds


def test_translations_agree():
    kinds = translations_agree(200)
    assert KINDS <= set(kinds), KINDS - set(kinds)
    assert kinds.count("ok") > len(kinds) // 2, kinds.count("ok")


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    printers_agree(300 * scale)
    test_shared_nodes_at_different_precedences()
    test_non_nodes_raise_the_same_errors()
    test_deep_chains_print_in_loops()
    kinds = translations_agree(200 * scale)
    assert KINDS <= set(kinds), KINDS - set(kinds)
    print(f"python {sys.version.split()[0]}: {4 * 300 * scale} printed nodes at every "
          f"precedence, {200 * scale} formulas through seven translations and every "
          f"TranslationError kind agree")
