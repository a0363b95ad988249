"""The kernel's record classes (``dnsk.syntax.Record`` and its subclasses)
against the dataclasses they replaced (``reference_nodes``).  For every
class, on two samples that differ in every field: the same ``repr``, the
same ``==`` and ``!=`` (also against a record of another class with the same
fields, and against a non-record), the same hash, positional ``match``,
keyword construction, the same constructor signature, the same answer to
assignment and deletion, the same ``__dataclass_fields__`` names,
``pickle``/``copy`` round trips that give an equal object, and ``pprint``
output equal to the ``repr``.

It needs only the standard library, so it also runs without pytest:

    PYTHONPATH=src python tests/test_nodes.py
"""

import copy
import dataclasses
import inspect
import pickle
import pprint
import sys
import types

import reference_nodes as ref
from dnsk import extract, parser, syntax, theorems, translate, typecheck
from dnsk.syntax import App, Record, numeral
from dnsk.typecheck import Annotation

MODULES = (syntax, parser, typecheck, extract, theorems, translate)


NEW = types.SimpleNamespace(**{
    name: v for m in MODULES for name, v in vars(m).items()
    if isinstance(v, type) and issubclass(v, Record) and v.__module__ == m.__name__
    and v not in (Record, parser._Decl)
})


def samples(N) -> dict:
    """Two field-value tuples per class, built from the classes of ``N``,
    that differ in every field."""
    nat, unit = N.Nat(), N.Unit()
    x, y, zero, star = N.Var("x"), N.Var("y"), N.Zero(), N.Star()
    bot = N.Bot()
    p, q = N.PredApp("P", (x,)), N.Eq0(zero, y)
    ha, hb = N.Hyp("a"), N.Hyp("b")
    ctx1, ctx2 = N.Context({"x": nat}, {"a": p}), N.Context({}, {"b": bot})
    d1 = N.Derivation("ax", Annotation.PLAIN, ha, p, ())
    d2 = N.Derivation("efq", Annotation.BOT, N.Efq(hb), q, (d1,))
    f1 = N.CheckFailure("UnboundHypothesis", (0, 1), "no a", "P(x)", "bot")
    return {
        "Nat": ((), ()),
        "Unit": ((), ()),
        "Arrow": ((nat, unit), (unit, N.Arrow(nat, nat))),
        "Prod": ((nat, unit), (N.Prod(unit, nat), nat)),
        "Var": (("x",), ("y",)),
        "Lam": (("x", nat, x), ("y", unit, star)),
        "App": ((x, y), (y, N.App(x, zero))),
        "Pair": ((x, zero), (star, y)),
        "Proj1": ((x,), (N.Pair(x, y),)),
        "Proj2": ((y,), (N.Proj1(x),)),
        "Star": ((), ()),
        "Zero": ((), ()),
        "Succ": ((zero,), (N.Succ(x),)),
        "Rec": ((nat, zero, x, y), (unit, x, star, N.Lam("n", nat, x))),
        "Bot": ((), ()),
        "Eq0": ((x, zero), (N.Succ(zero), y)),
        "PredApp": (("P", (x,)), ("Q", (zero, y))),
        "And": ((p, q), (bot, p)),
        "Or": ((p, bot), (q, N.Or(p, p))),
        "Imp": ((p, bot), (bot, q)),
        "Forall": (("x", nat, p), ("y", unit, bot)),
        "Exists": (("x", nat, q), ("z", N.Arrow(nat, nat), p)),
        "Hyp": (("a",), ("b",)),
        "PPair": ((ha, hb), (hb, N.Fst(ha))),
        "Fst": ((ha,), (N.PPair(ha, hb),)),
        "Snd": ((hb,), (N.Fst(ha),)),
        "Inl": ((ha,), (N.Inr(hb),)),
        "Inr": ((hb,), (N.Inl(ha),)),
        "Case": ((ha, "l", hb, "r", ha), (hb, "m", ha, "s", hb)),
        "PLam": (("a", hb), ("b", ha)),
        "PApp": ((ha, hb), (hb, N.PApp(ha, ha))),
        "TLam": (("x", ha), ("y", hb)),
        "TApp": ((ha, x), (hb, zero)),
        "ExPair": ((x, ha), (zero, hb)),
        "Dest": ((ha, "x", "h", hb), (hb, "y", "k", ha)),
        "Efq": ((ha,), (hb,)),
        "Reset": ((ha,), (N.Shift("k", hb),)),
        "Shift": (("k", ha), ("j", hb)),
        "Ascribe": ((ha, p), (hb, bot)),
        "Signature": (({"P": (nat,)},), ({"Q": (nat, nat), "R": ()},)),
        "PredDecl": (("P", (nat,)), ("Q", ())),
        "FormulaDecl": (("A", p), ("B", q)),
        "AxiomDecl": (("ax", p, None), ("ay", q, x)),
        "ProofDecl": (("pr", "plain", p, ha), ("ps", "bot", bot, hb)),
        "TermDecl": (("t", nat, zero), ("u", unit, star)),
        "Directive": (("check", "pr", None), ("translate", "ps", "kuroda")),
        "SourceFile": (([N.PredDecl("P", (nat,))],), ([],)),
        "Context": (({"x": nat}, {"a": p}), ({}, {"b": bot})),
        "Derivation": (("ax", Annotation.PLAIN, ha, p, ()),
                       ("efq", Annotation.BOT, N.Efq(hb), q, (d1,))),
        "CheckFailure": (("UnboundHypothesis", (0, 1), "no a", "P(x)", "bot"),
                         ("GoalMismatch", (), "differs", None, None)),
        "CheckReport": (("ok", d1, None), ("error", d2, f1)),
        "ExtractionEnv": (({"a": "x_a"}, {}, frozenset()),
                          ({}, {"ax": zero}, frozenset({"b"}))),
        "TheoremEntry": (("t1", ctx1, Annotation.PLAIN, ha, p, "first", {}, frozenset()),
                         ("t2", ctx2, Annotation.BOT, hb, q, "second", {"ax": zero},
                          frozenset({"b"}))),
        "DiaTypes": ((nat, unit), (unit, N.Prod(nat, nat))),
    }


NEW_SAMPLES, REF_SAMPLES = samples(NEW), samples(ref)
NAMES = list(NEW_SAMPLES)


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as e:  # the exception's class is the outcome compared
        return ("raises", AttributeError if isinstance(e, AttributeError) else type(e))


def both(name):
    """(class, samples) of ``name`` on the new side and the reference side."""
    return (getattr(NEW, name), NEW_SAMPLES[name]), (getattr(ref, name), REF_SAMPLES[name])


def destructure(obj, cls):
    """The values a positional class pattern with every field captures."""
    match len(cls.__match_args__):
        case 0:
            match obj:
                case cls():
                    return ()
        case 1:
            match obj:
                case cls(a):
                    return (a,)
        case 2:
            match obj:
                case cls(a, b):
                    return (a, b)
        case 3:
            match obj:
                case cls(a, b, c):
                    return (a, b, c)
        case 4:
            match obj:
                case cls(a, b, c, d):
                    return (a, b, c, d)
        case 5:
            match obj:
                case cls(a, b, c, d, e):
                    return (a, b, c, d, e)
        case 8:
            match obj:
                case cls(a, b, c, d, e, f, g, h):
                    return (a, b, c, d, e, f, g, h)
    return None


def test_every_record_class_has_a_reference():
    refs = {name for name, v in vars(ref).items()
            if isinstance(v, type) and hasattr(v, "__dataclass_params__")}
    assert len(refs) == 54
    assert set(NAMES) == refs == set(vars(NEW))


def test_field_names_in_order():
    for name in NAMES:
        (cls, _), (rcls, _) = both(name)
        want = list(rcls.__dataclass_fields__)
        assert list(cls.__dataclass_fields__) == want, name
        assert list(cls.__match_args__) == list(rcls.__match_args__) == want, name


def test_repr():
    for name in NAMES:
        (cls, (a, b)), (rcls, (ra, rb)) = both(name)
        assert repr(cls(*a)) == repr(rcls(*ra)), name
        assert repr(cls(*b)) == repr(rcls(*rb)), name


def test_equality():
    for name in NAMES:
        (cls, (a, b)), (rcls, (ra, rb)) = both(name)
        pairs = [(cls(*a), cls(*a)), (cls(*a), cls(*b)), (cls(*b), cls(*a))]
        rpairs = [(rcls(*ra), rcls(*ra)), (rcls(*ra), rcls(*rb)), (rcls(*rb), rcls(*ra))]
        # one field changed at a time
        for i in range(len(a)):
            pairs.append((cls(*a), cls(*a[:i], b[i], *a[i + 1:])))
            rpairs.append((rcls(*ra), rcls(*ra[:i], rb[i], *ra[i + 1:])))
        for (u, v), (ru, rv) in zip(pairs, rpairs):
            assert (u == v) == (ru == rv), (name, u, v)
            assert (u != v) == (ru != rv), (name, u, v)
        assert cls(*a) == cls(*a) and (cls(*a) != cls(*b)) == bool(a), name
        u, ru = cls(*a), rcls(*ra)
        assert u == u and not u != u, name
        for other in (5, None, "x", (), a):
            assert (u == other) == (ru == other) is False, (name, other)
            assert (u != other) == (ru != other) is True, (name, other)
            assert u.__eq__(other) is ru.__eq__(other) is NotImplemented, (name, other)


def test_records_of_different_classes_with_equal_fields_differ():
    for name in NAMES:
        (cls, (a, _)), (rcls, (ra, _)) = both(name)
        for other in NAMES:
            (ocls, _), (rocls, _) = both(other)
            if other == name or len(ocls.__match_args__) != len(a):
                continue
            u, v = cls(*a), ocls(*a)
            ru, rv = rcls(*ra), rocls(*ra)
            assert (u == v) == (ru == rv) is False, (name, other)
            assert (u != v) == (ru != rv) is True, (name, other)


def test_hash():
    for name in NAMES:
        (cls, (a, b)), (rcls, (ra, rb)) = both(name)
        for vals, rvals in ((a, ra), (b, rb)):
            got = outcome(lambda: hash(cls(*vals)))
            assert got == outcome(lambda: hash(rcls(*rvals))), name
            if got[0] == "ok":
                assert hash(cls(*vals)) == hash(cls(*vals)), name
        assert (cls.__hash__ is None) == (rcls.__hash__ is None), name


def test_positional_match():
    for name in NAMES:
        (cls, (a, b)), (rcls, (ra, _)) = both(name)
        for vals in (a, b):
            got = destructure(cls(*vals), cls)
            assert got is not None and len(got) == len(vals), name
            assert all(u is v for u, v in zip(got, vals)), name
        assert destructure(rcls(*ra), rcls) is not None, name
        # a pattern of another class does not match
        for other in NAMES:
            ocls = getattr(NEW, other)
            if other != name:
                assert destructure(cls(*a), ocls) is None, (name, other)


def test_keyword_construction():
    for name in NAMES:
        (cls, (a, b)), (rcls, (ra, _)) = both(name)
        names = cls.__match_args__
        for vals in (a, b):
            u = cls(**dict(zip(names, vals)))
            assert u == cls(*vals) and repr(u) == repr(cls(*vals)), name
        assert repr(cls(**dict(zip(names, a)))) == repr(rcls(**dict(zip(names, ra)))), name
        # fields with defaults take them in both
        n_required = sum(1 for f in dataclasses.fields(rcls)
                         if f.default is f.default_factory is dataclasses.MISSING)
        assert repr(cls(*a[:n_required])) == repr(rcls(*ra[:n_required])), name
        # the same parameters in the same order, with the same plain
        # defaults; a default_factory field defaults to None instead
        params = list(inspect.signature(cls).parameters.values())
        assert [p.name for p in params] == list(inspect.signature(rcls).parameters), name
        for p, f in zip(params, dataclasses.fields(rcls)):
            assert p.kind is p.POSITIONAL_OR_KEYWORD, (name, p)
            if f.default is not dataclasses.MISSING:
                assert (type(p.default), p.default) == (type(f.default), f.default), (name, p)
            elif f.default_factory is not dataclasses.MISSING:
                assert p.default is None, (name, p)
            else:
                assert p.default is p.empty, (name, p)
        # one positional argument too many, or one required one missing
        wrong = [(*a, a[0] if a else 0)] + ([a[:n_required - 1]] if n_required else [])
        for args in wrong:
            assert outcome(lambda: cls(*args)) == ("raises", TypeError), (name, len(args))
            assert outcome(lambda: rcls(*args)) == ("raises", TypeError), (name, len(args))


def test_assignment_and_deletion():
    for name in NAMES:
        (cls, (a, b)), (rcls, (ra, rb)) = both(name)
        field = cls.__match_args__[0] if a else "name"
        u, ru = cls(*a), rcls(*ra)
        new_value, ref_value = (b[0], rb[0]) if a else ("x", "x")
        got = outcome(lambda: setattr(u, field, new_value))
        assert got == outcome(lambda: setattr(ru, field, ref_value)), name
        assert repr(u) == repr(ru), name
        deleted = outcome(lambda: delattr(u, field))[0]
        assert deleted == outcome(lambda: delattr(ru, field))[0], name
    frozen = [name for name in NAMES if getattr(ref, name).__dataclass_params__.frozen]
    assert len(frozen) == 47


def test_pickle_and_copy_round_trips():
    for name in NAMES:
        cls, (a, b) = getattr(NEW, name), NEW_SAMPLES[name]
        for vals in (a, b):
            u = cls(*vals)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                v = pickle.loads(pickle.dumps(u, protocol))
                assert type(v) is cls and v == u and repr(v) == repr(u), (name, protocol)
            for v in (copy.copy(u), copy.deepcopy(u)):
                assert type(v) is cls and v == u and repr(v) == repr(u), name


def test_a_record_definition_the_constructor_cannot_serve_is_refused():
    def define(body, **defaults):
        return outcome(lambda: type("R", (Record,), body, **defaults))
    assert define({"__slots__": ("a", "b")}, a=1) == ("raises", TypeError)
    assert define({"__slots__": ("a",)}, b=1) == ("raises", TypeError)
    assert define({"__slots__": tuple("abcdef")}) == ("raises", TypeError)
    assert define({"__slots__": ("a",), "__init__": lambda self: None}, a=1) == \
        ("raises", TypeError)
    assert define({"__slots__": ("a", "b")}, b=1)[0] == "ok"
    R = define({"__slots__": ("a", "b", "c")}, c=3, b=2)[1]
    assert (R(1).b, R(1).c, R(1, c=4).c) == (2, 3, 4)


def test_pprint_prints_a_record_by_its_repr():
    # a record is a dataclass to dataclasses.is_dataclass, but its repr is its own
    wide = App(numeral(30), numeral(30))
    assert pprint.pformat(wide) == repr(wide)
    for name in NAMES:
        cls, (a, b) = getattr(NEW, name), NEW_SAMPLES[name]
        for vals in (a, b):
            u = cls(*vals)
            assert pprint.pformat(u, width=1) == repr(u), name


TESTS = [v for k, v in sorted(globals().items()) if k.startswith("test_")]

if __name__ == "__main__":
    for t in TESTS:
        t()
    print(f"python {sys.version.split()[0]}: {len(NAMES)} record classes, "
          f"{len(TESTS)} checks, 0 mismatches")
