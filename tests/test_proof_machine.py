"""The refocused machine of ``dnsk.evaluate.normalize_proof`` against the
reducer it replaced (``reference_evaluate``), which steps from the root and
needs one unit of fuel more for the same number of steps.  Traces are
compared with ``==``, so every configuration, every fresh continuation name
and every kept ascription must agree, and so must the ``Stuck`` and
``FuelExhausted`` outcomes.  The check also runs without pytest, on the
standard library alone, with ``scale`` times the seeded random proofs of the
tier-1 run:

    PYTHONPATH=src python tests/test_proof_machine.py [scale]
"""

import gc
import random
import sys

import reference_evaluate as ref
from dnsk import evaluate
from dnsk.evaluate import FuelExhausted, Stuck, _plug, normalize_proof, subst_proof_hyp
from dnsk.syntax import (
    And, Ascribe, BOT, Case, Dest, Efq, Eq0, ExPair, Exists, Forall, Fst, Hyp,
    Imp, Inl, Inr, NAT, Or, PApp, PLam, PPair, PredApp, Reset, Shift, Snd,
    Succ, TApp, TLam, Var, ZERO,
)
from dnsk.theorems import build_library

P0 = PredApp("P", (ZERO,))
PX = PredApp("P", (Var("x"),))
HYPS = ("a", "a1", "b", "k", "u")


def outcome(reduce, p, fuel):
    try:
        return reduce(p, fuel, trace=True)
    except (Stuck, FuelExhausted) as e:
        return type(e)


def assert_same(p, fuel=400):
    """Same trace, or the same error, at the machine's fuel and at the old
    reducer's fuel one higher, and the same normal form untraced; returns
    the machine's outcome."""
    new = outcome(normalize_proof, p, fuel)
    assert new == outcome(ref.normalize_proof, p, fuel + 1), p
    if isinstance(new, tuple):
        assert normalize_proof(p, fuel) == new[0]
    return new


def assert_fuel_boundary(p):
    """A proof normal after n steps passes at fuel n and fails at n - 1,
    one below the old reducer's boundary."""
    final, steps = normalize_proof(p, trace=True)
    n = len(steps) - 1
    assert normalize_proof(p, n) == final
    assert ref.normalize_proof(p, n + 1) == final
    if n:
        assert outcome(normalize_proof, p, n - 1) is FuelExhausted
        assert outcome(ref.normalize_proof, p, n) is FuelExhausted


def nested(d):
    proof = Hyp("a")
    for i in range(d):
        proof = Reset(PApp(Hyp(f"f{i}"), Shift("k", PApp(Hyp("k"), proof))))
    return proof


def redex_list(rng, n):
    b, c = Hyp("b"), Hyp("c")
    items = []
    for i in range(n):
        kind = rng.randrange(3)
        if kind == 0:
            items.append(PApp(Ascribe(PLam(f"x{i}", Hyp(f"x{i}")), Imp(P0, P0)), b))
        elif kind == 1:
            pair = Ascribe(PPair(b, c), And(P0, PredApp("R", ())))
            items.append(Fst(pair) if rng.random() < 0.5 else Snd(pair))
        else:
            inj = Ascribe(Inl(b), Or(P0, P0))
            items.append(Case(inj, f"l{i}", Hyp(f"l{i}"), f"r{i}", Hyp(f"r{i}")))
    proof = items[-1]
    for item in reversed(items[:-1]):
        proof = PPair(item, proof)
    return proof


def segments(rng, room):
    """Shift/reset segments: captures that resume the continuation once,
    twice or not at all, plain applications, bare resets and ascribed
    beta redexes, nested at random."""
    if room <= 1:
        return Hyp(rng.choice(("z", "a", "a1")))
    f, g = Hyp(rng.choice(("f0", "f1", "a"))), Hyp("g")
    kind = rng.randrange(6)
    if kind in (2, 3):
        left = segments(rng, room // 2)
        right = segments(rng, room - room // 2 - 1)
        if kind == 3:
            return PApp(PApp(g, left), right)
        k = rng.choice(("k", "a"))
        body = PApp(PApp(g, PApp(Hyp(k), left)), PApp(Hyp(k), right))
        return Reset(PApp(f, Shift(k, body)))
    inner = segments(rng, room - 1)
    if kind == 0:
        return Reset(PApp(f, Shift("k", PApp(Hyp("k"), inner))))
    if kind == 1:
        return Reset(PApp(f, Shift("k", inner)))
    if kind == 4:
        return Reset(inner)
    return PApp(Ascribe(PLam("u", PApp(PApp(g, Hyp("u")), Hyp("u"))), Imp(BOT, BOT)), inner)


def library_applied():
    out = []
    for e in build_library():
        proof, goal = Ascribe(e.proof, e.goal), e.goal
        while isinstance(goal, Imp):
            proof = PApp(proof, Hyp(f"h{len(out)}"))
            goal = goal.right
        out.append(proof)
    return out


def rule_redexes():
    """One redex per contraction rule, with and without ascribed heads."""
    tlam = TLam("x", PApp(Hyp("h"), Hyp("b")))
    return [
        TApp(tlam, Succ(ZERO)),
        TApp(Ascribe(tlam, Forall("x", NAT, PX)), Succ(ZERO)),
        TApp(Ascribe(Ascribe(tlam, Forall("x", NAT, PX)), Imp(P0, P0)), ZERO),
        Dest(ExPair(ZERO, Hyp("b")), "x", "d", PPair(Hyp("d"), TApp(Hyp("e"), Var("x")))),
        Dest(Ascribe(ExPair(Succ(ZERO), Hyp("b")), Exists("x", NAT, PX)), "x", "d", Hyp("d")),
        Case(Inl(Hyp("b")), "l", Hyp("l"), "r", Hyp("b")),
        Case(Ascribe(Inr(Hyp("b")), Or(P0, P0)), "l", Hyp("l"), "r", PPair(Hyp("r"), Hyp("r"))),
        PApp(Ascribe(PLam("a", Hyp("a")), Imp(P0, P0)), Hyp("b")),
        PApp(Ascribe(PLam("a", Hyp("a")), Eq0(ZERO, ZERO)), Hyp("b")),
        PApp(Ascribe(Ascribe(PLam("a", Hyp("a")), Imp(P0, P0)), Imp(P0, P0)), Hyp("b")),
        Efq(Fst(PPair(Snd(PPair(Hyp("b"), Hyp("c"))), Hyp("c")))),
        Reset(ExPair(ZERO, Inr(Reset(Hyp("b"))))),
        Reset(PPair(Hyp("b"), Shift("k", Hyp("b")))),
        PPair(Reset(TLam("x", Shift("k", Hyp("k")))), PApp(PLam("a", Hyp("a")), Hyp("b"))),
        Shift("k", Hyp("k")),
        PPair(PApp(PLam("a", Hyp("a")), Hyp("b")), Shift("k", Hyp("k"))),
        PApp(PLam("a", PApp(Hyp("a"), Hyp("a"))), PLam("a", PApp(Hyp("a"), Hyp("a")))),
    ]


def gen_redexy(rng, d):
    """An untyped proof biased towards redexes, shifts and resets, with a
    small name pool so that continuations capture and shadow names."""
    if d <= 0:
        return Hyp(rng.choice(HYPS))
    sub = lambda: gen_redexy(rng, d - 1)
    name = lambda: rng.choice(HYPS)
    k = rng.randrange(15)
    if k == 0:
        return PApp(PLam(name(), sub()), sub())
    if k == 1:
        return PApp(Ascribe(PLam(name(), sub()), Imp(P0, P0)), sub())
    if k == 2:
        return (Fst if rng.random() < 0.5 else Snd)(PPair(sub(), sub()))
    if k == 3:
        return Case((Inl if rng.random() < 0.5 else Inr)(sub()), name(), sub(), name(), sub())
    if k == 4:
        return Dest(ExPair(Succ(ZERO), sub()), "x", name(), sub())
    if k == 5:
        return TApp(Ascribe(TLam("x", sub()), Forall("x", NAT, PX)), ZERO)
    if k in (6, 7):
        return Reset(sub())
    if k == 8:
        return Shift(name(), sub())
    if k == 9:
        return PApp(Hyp(name()), sub())
    if k == 10:
        return PPair(sub(), sub())
    if k == 11:
        return rng.choice((Inl, Inr, Efq))(sub())
    if k == 12:
        return PLam(name(), sub())
    if k == 13:
        return Ascribe(sub(), P0)
    return Hyp(name())


def test_ladders_and_library_traces_equal():
    rng = random.Random(3)
    proofs = [nested(d) for d in (1, 2, 5, 12, 40, 80)]
    proofs += [redex_list(rng, n) for n in (1, 2, 7, 40)]
    proofs += library_applied()
    for p in proofs:
        assert assert_same(p) not in (Stuck, FuelExhausted)
        assert_fuel_boundary(p)
    # the capture example takes 4 steps
    final, steps = normalize_proof(nested(1), 4, trace=True)
    assert final == PApp(Hyp("f0"), Hyp("a")) and len(steps) == 5


def test_rule_redexes_traces_equal():
    outcomes = [assert_same(p, 30) for p in rule_redexes()]
    assert outcomes.count(Stuck) == 2 and outcomes.count(FuelExhausted) == 1
    for p, out in zip(rule_redexes(), outcomes):
        if isinstance(out, tuple):
            assert_fuel_boundary(p)


def segment_proofs_agree(n):
    rng = random.Random(11)
    for _ in range(n):
        p = segments(rng, rng.randrange(2, 16))
        assert isinstance(assert_same(p), tuple)
        assert_fuel_boundary(p)


def test_random_segment_proofs_traces_equal():
    segment_proofs_agree(40)


def redex_rich_proofs_agree(n):
    rng = random.Random(2026)
    seen = set()
    runs = []
    for _ in range(n):
        p = gen_redexy(rng, rng.randrange(1, 6))
        # the smaller fuel cuts some reductions short, at the same step
        for fuel in (40, rng.randrange(0, 6)):
            out = assert_same(p, fuel)
            seen.add(out if out in (Stuck, FuelExhausted) else tuple)
            runs.append((p, fuel, out))
    assert seen == {tuple, Stuck, FuelExhausted}
    # the machine's memos are keyed by node identity; run everything again
    # in the other order, on a heap in another state, and get the same
    gc.collect()
    for p, fuel, out in reversed(runs):
        assert outcome(normalize_proof, p, fuel) == out, p


def test_random_redex_rich_proofs_outcomes_equal():
    redex_rich_proofs_agree(1500)


def test_deep_nested_ladders_reach_their_normal_form():
    # nested(d) is the benchmark's nested_shifts(d); at d = 320 the walks
    # the machine did before memoizing them overflowed the Python stack, and
    # the 640-deep normal form is past what a recursive == could compare
    for d in (320, 640):
        final = normalize_proof(nested(d), 4 * d)
        expected = Hyp("a")
        for i in range(d):
            expected = PApp(Hyp(f"f{i}"), expected)
        assert final == expected and hash(final) == hash(expected)
        assert final != PApp(Hyp("f0"), expected) and expected != final.arg


def test_substitution_keeps_untouched_subtrees():
    # no binder of p is free in the replacement and zz is not free in p, so
    # p comes back itself; the machine's identity memos then see shared nodes
    p = nested(40)
    assert subst_proof_hyp(p, "zz", Hyp("b")) is p
    q = PPair(p, Hyp("zz"))
    out = subst_proof_hyp(q, "zz", Hyp("b"))
    assert out == PPair(p, Hyp("b")) and out.fst is p


def test_shared_nodes_traces_equal():
    """One Python object at two places: a reset body holding a shift, a
    redex, and beta arguments that the machine records as normal."""
    f, b, c = Hyp("f0"), Hyp("b"), Hyp("c")
    cap = Reset(PApp(f, Shift("k", PApp(Hyp("k"), PApp(Hyp("k"), b)))))
    body = PApp(f, Shift("k", PPair(Hyp("k"), Hyp("a"))))
    redex = PApp(PLam("u", PPair(Hyp("u"), Hyp("u"))), PPair(b, c))
    pair = PPair(b, Reset(PApp(f, c)))
    twice = PLam("u", PPair(Hyp("u"), Fst(Hyp("u"))))
    proofs = [
        PPair(cap, cap),
        PPair(Reset(body), Reset(PPair(Reset(body), body))),
        PPair(redex, PPair(redex, Fst(Snd(redex)))),
        PApp(twice, pair),
        PPair(PApp(twice, pair), PPair(Fst(pair), PApp(PLam("a", Reset(Hyp("a"))), pair))),
        PApp(PLam("u", Reset(PApp(f, PApp(Hyp("u"), Hyp("u"))))), PLam("v", Hyp("v"))),
        Reset(PApp(PLam("u", PPair(Hyp("u"), Shift("k", PApp(Hyp("k"), Hyp("u"))))),
                   PPair(cap, cap))),
    ]
    for p in proofs:
        assert isinstance(assert_same(p), tuple), p


def test_discarded_beta_arguments_traces_equal():
    """Beta arguments built during the run and dropped by their step, each
    followed by a substitution that builds fresh nodes: a memo of the
    arguments that did not hold them would meet their identities again."""
    b, c = Hyp("b"), Hyp("c")
    inner = PApp(PLam("w", PPair(Fst(PPair(b, c)), Hyp("w"))), c)
    for arg in (PPair(b, Fst(PPair(c, c))), Inl(Fst(PPair(c, c)))):
        item = PApp(PLam("u", inner), arg)
        p = item
        for _ in range(59):
            p = PPair(item, p)
        assert isinstance(assert_same(p, 1000), tuple)


def test_capture_names_avoid_deep_free_names():
    """The continuation's name skips a and a1 wherever they are free in the
    reset body, however deep, and only there."""
    def deep(p, n):
        for i in range(n):
            p = PPair(Hyp(f"g{i}"), p)
        return p

    bodies = [
        deep(Hyp("a"), 30),
        deep(PPair(Hyp("a1"), Hyp("a")), 30),
        deep(PPair(PLam("a", Hyp("a")), Hyp("a1")), 30),
        deep(Case(Hyp("c"), "a", Hyp("a"), "a1", Hyp("a1")), 30),
        deep(PPair(Hyp("a"), Reset(PApp(Hyp("a2"), Shift("k", PApp(Hyp("k"), Hyp("a1")))))), 30),
    ]
    names = []
    for body in bodies:
        for p in (Reset(PApp(Hyp("f"), Shift("k", PApp(Hyp("k"), body)))),
                  Reset(PPair(body, Shift("a", PApp(Hyp("a"), Hyp("b")))))):
            final, steps = assert_same(p)
            names.append(steps[1].body.fn.hyp if type(steps[1].body) is PApp else None)
    # the second proof of each pair captures with k = a; the last one first
    # reduces the reset inside its body
    assert names == ["a1", "a1", "a2", "a2", "a", "a2", "a", "a1", "a3", None]


def capture(body):
    return Reset(PApp(Hyp("f"), Shift("k", PApp(Hyp("k"), body))))


# proofs whose captures meet the candidate names a, a1, ... of the
# continuation only under binders, a free a2 but no a, and no such name
BOUND_CANDIDATES = [
    capture(PLam("a", Hyp("a"))),
    capture(PPair(PLam("a1", PApp(Hyp("a1"), Hyp("b"))), Hyp("b"))),
    capture(Case(Hyp("c"), "a", Hyp("a"), "a1", Reset(PApp(Hyp("a1"), Hyp("b"))))),
    PApp(PLam("a", capture(Hyp("a"))), Hyp("b")),
    Reset(PPair(PLam("a", Hyp("a")), Shift("a", PApp(Hyp("a"), Hyp("b"))))),
]
FREE_A2 = [
    capture(Hyp("a2")),
    capture(PPair(Hyp("a2"), PLam("a", Hyp("a")))),
    Reset(PPair(Hyp("a2"), Shift("a", PApp(Hyp("a"), Hyp("a2"))))),
    capture(capture(PPair(Hyp("a2"), Hyp("a10")))),
]
NO_CANDIDATE = [
    capture(Hyp("b")),
    capture(PPair(Hyp("ab"), Hyp("b2"))),
    Reset(PPair(Hyp("b"), Shift("k", PApp(Hyp("k"), PApp(Hyp("k"), Hyp("b")))))),
    capture(capture(capture(Hyp("z")))),
    PApp(PLam("u", capture(Hyp("u"))), Hyp("b")),
]


def test_capture_names_with_and_without_candidate_names_traces_equal():
    for p in BOUND_CANDIDATES + FREE_A2 + NO_CANDIDATE:
        assert isinstance(assert_same(p), tuple), p
        assert_fuel_boundary(p)
    # a bound a, and a free a2, leave the name a to the continuation; with
    # k = a it takes a1
    for p, name in ((BOUND_CANDIDATES[0], "a"), (FREE_A2[0], "a"), (FREE_A2[2], "a1")):
        _, steps = normalize_proof(p, trace=True)
        assert steps[1].body.fn.hyp == name


def test_capture_without_candidate_names_skips_the_name_walk(monkeypatch):
    walked = []

    def walk(p, base, memo):
        walked.append(p)
        raise LookupError("the capture walked its context")

    expected = [ref.normalize_proof(p, 401, trace=True) for p in NO_CANDIDATE]
    monkeypatch.setattr(evaluate, "free_candidates", walk)
    for p, out in zip(NO_CANDIDATE, expected):
        assert normalize_proof(p, 400, trace=True) == out
    assert not walked
    # a free a sends the capture to the walk
    try:
        normalize_proof(capture(Hyp("a")))
    except LookupError:
        pass
    assert walked


def frames_to(p, path):
    """The machine's frames from p down the fields of ``path``, each
    (node, normal left part or None, hole), and the proof at their end."""
    frames = []
    for field in path:
        left = None
        if field == "snd" and type(p) is PPair:
            left = p.fst
        elif field == "arg" and type(p) is PApp:
            left = p.fn
        frames.append((p, left, getattr(p, field)))
        p = getattr(p, field)
    return frames, p


def test_plugging_unchanged_frames_returns_the_original_nodes():
    shift = Shift("k", PApp(Hyp("k"), Hyp("b")))
    p = Reset(PApp(Hyp("f"), PPair(Hyp("b"), Fst(Ascribe(Inl(shift), Or(P0, P0))))))
    frames, q = frames_to(p, ("body", "arg", "snd", "arg", "body", "arg"))
    assert q is shift
    assert _plug(frames, shift) is p
    # from the first frame whose hole or left part changed, the nodes are new
    out = _plug(frames, Hyp("b"))
    assert out != p and out.body.fn is p.body.fn
    assert out is not p and out.body is not p.body
    node, left, hole = frames[2]
    frames[2] = (node, Hyp("b"), hole)
    out = _plug(frames, shift)
    assert out == p and out is not p and out.body.arg is not p.body.arg
    assert out.body.arg.snd is p.body.arg.snd


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    segment_proofs_agree(40 * scale)
    redex_rich_proofs_agree(1500 * scale)
    print(f"python {sys.version.split()[0]}: {40 * scale} segment proofs and "
          f"{1500 * scale} redex-rich proofs reduce as the reference does")
