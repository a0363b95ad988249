"""Formula translations and their type assignments.

Provided here: the double-negation translation of formulas, realizability
with its realizer-sort assignment (plus the "with truth" variant), and the
witness/challenge translation with its sort pair, including the
double-negation simplification and the universally quantified target form.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .printer import print_type
from .syntax import (
    And, App, Arrow, Bot, Eq0, Exists, Forall, Formula, Imp, KindedError, NAT, NameSupply,
    Or, PredApp, Prod, Proj1, Proj2, Record, Signature, SimpleType, Term, UNIT, Var, ZERO,
    fresh_name, fv_formula, fv_term, neg, subst_formula,
)
from .typecheck import SortError, infer_term_type


class TranslationError(KindedError):
    pass


# ---------------------------------------------------------------------------
# Double-negation translation


def kuroda_inner(a: Formula) -> Formula:
    """The inner translation: primes fixed, /\\, \\/, exists homomorphic,
    implication translates its conclusion, forall double-negates its body."""
    cls = type(a)
    if cls is PredApp or cls is Eq0 or cls is Bot:
        return a
    if cls is Or:
        return Or(kuroda_inner(a.left), kuroda_inner(a.right))
    if cls is And:
        return And(kuroda_inner(a.left), kuroda_inner(a.right))
    if cls is Forall:
        return Forall(a.var, a.sort, kuroda(a.body))
    if cls is Exists:
        return Exists(a.var, a.sort, kuroda_inner(a.body))
    if cls is Imp:
        return Imp(kuroda_inner(a.left), kuroda(a.right))
    raise TypeError(f"not a formula: {a!r}")


def kuroda(a: Formula) -> Formula:
    """Double-negation translation: not-not around the inner translation."""
    return neg(neg(kuroda_inner(a)))


# ---------------------------------------------------------------------------
# Realizability: sort assignment and formula translation


def mr_type(a: Formula, memo: Optional[dict] = None) -> SimpleType:
    """Realizer sort; depends only on the logical skeleton of the formula.
    ``memo``, kept by a caller for the length of one call, maps id(node) to
    (node, sort) for every subformula whose sort was computed (the node is
    held so that its id is not reused), as in syntax.fv_term."""
    cls = type(a)
    if cls is PredApp or cls is Eq0 or cls is Bot:
        return UNIT
    if memo is not None:
        entry = memo.get(id(a))
        if entry is not None:
            return entry[1]
    if cls is Imp:
        out = Arrow(mr_type(a.left, memo), mr_type(a.right, memo))
    elif cls is And:
        out = Prod(mr_type(a.left, memo), mr_type(a.right, memo))
    elif cls is Or:
        out = Prod(Prod(mr_type(a.left, memo), mr_type(a.right, memo)), NAT)
    elif cls is Exists:
        out = Prod(mr_type(a.body, memo), a.sort)
    elif cls is Forall:
        out = Arrow(a.sort, mr_type(a.body, memo))
    else:
        raise TypeError(f"not a formula: {a!r}")
    if memo is not None:
        memo[id(a)] = (a, out)
    return out


def _mr(t: Term, a: Formula, names: NameSupply, with_truth: bool) -> Formula:
    cls = type(a)
    if cls is PredApp or cls is Eq0 or cls is Bot:
        return a
    if cls is Or:
        flag = Eq0(Proj2(t), ZERO)
        return And(
            Imp(flag, _mr(Proj1(Proj1(t)), a.left, names, with_truth)),
            Imp(neg(flag), _mr(Proj2(Proj1(t)), a.right, names, with_truth)),
        )
    if cls is And:
        return And(_mr(Proj1(t), a.left, names, with_truth),
                   _mr(Proj2(t), a.right, names, with_truth))
    if cls is Forall:
        y2 = names.fresh(a.var)
        return Forall(y2, a.sort, _mr(App(t, Var(y2)), subst_formula(a.body, a.var, Var(y2)),
                                      names, with_truth))
    if cls is Exists:
        return _mr(Proj1(t), subst_formula(a.body, a.var, Proj2(t)), names, with_truth)
    if cls is Imp:
        x = names.fresh("x")
        core = Forall(x, mr_type(a.left), Imp(_mr(Var(x), a.left, names, with_truth),
                                              _mr(App(t, Var(x)), a.right, names, with_truth)))
        return And(core, a) if with_truth else core
    raise TypeError(f"not a formula: {a!r}")


def _check_sort(ctx_vars: Mapping[str, SimpleType], t: Term, want: SimpleType,
                role: str, infer=infer_term_type) -> None:
    """Raise the role's TranslationError (``RealizerTypeMismatch`` for the
    realizer, and so on) unless ``t`` is well-sorted of sort ``want``, as
    ``infer`` (infer_term_type, or a caller's wrapper of it) finds it."""
    kind = f"{role.capitalize()}TypeMismatch"
    try:
        got = infer(ctx_vars, t)
    except SortError as e:
        raise TranslationError(kind, str(e)) from e
    if got != want:
        raise TranslationError(
            kind, f"{role} has sort {print_type(got)}, formula wants {print_type(want)}")


def mr_formula(sig: Signature, ctx_vars: Mapping[str, SimpleType], t: Term, a: Formula) -> Formula:
    """The formula stating that ``t`` realizes ``a``."""
    _check_sort(ctx_vars, t, mr_type(a), "realizer")
    return _mr(t, a, NameSupply(fv_term(t) | fv_formula(a) | set(ctx_vars)), with_truth=False)


def mrt_formula(sig: Signature, ctx_vars: Mapping[str, SimpleType], t: Term, a: Formula) -> Formula:
    """Realizability with truth: the implication clause keeps the original
    implication as a conjunct."""
    _check_sort(ctx_vars, t, mr_type(a), "realizer")
    return _mr(t, a, NameSupply(fv_term(t) | fv_formula(a) | set(ctx_vars)), with_truth=True)


# ---------------------------------------------------------------------------
# Witness/challenge translation


class DiaTypes(Record):
    __slots__ = ("witness", "challenge")


def dia_types(a: Formula) -> DiaTypes:
    cls = type(a)
    if cls is PredApp or cls is Bot or cls is Eq0:
        return DiaTypes(UNIT, UNIT)
    if cls is Imp:
        dl, dr = dia_types(a.left), dia_types(a.right)
        return DiaTypes(
            Prod(
                Arrow(dl.witness, dr.witness),
                Arrow(dl.witness, Arrow(dr.challenge, dl.challenge)),
            ),
            Prod(dl.witness, dr.challenge),
        )
    if cls is Or:
        dl, dr = dia_types(a.left), dia_types(a.right)
        return DiaTypes(
            Prod(Prod(dl.witness, dr.witness), NAT),
            Prod(dl.challenge, dr.challenge),
        )
    if cls is And:
        dl, dr = dia_types(a.left), dia_types(a.right)
        return DiaTypes(Prod(dl.witness, dr.witness), Prod(dl.challenge, dr.challenge))
    if cls is Forall:
        d = dia_types(a.body)
        return DiaTypes(Arrow(a.sort, d.witness), Prod(d.challenge, a.sort))
    if cls is Exists:
        d = dia_types(a.body)
        return DiaTypes(Prod(d.witness, a.sort), d.challenge)
    raise TypeError(f"not a formula: {a!r}")


def _dia(t: Term, s: Term, a: Formula) -> Formula:
    cls = type(a)
    if cls is PredApp or cls is Eq0 or cls is Bot:
        return a
    if cls is Or:
        flag = Eq0(Proj2(t), ZERO)
        return And(
            Imp(flag, _dia(Proj1(Proj1(t)), Proj1(s), a.left)),
            Imp(neg(flag), _dia(Proj2(Proj1(t)), Proj2(s), a.right)),
        )
    if cls is And:
        return And(_dia(Proj1(t), Proj1(s), a.left), _dia(Proj2(t), Proj2(s), a.right))
    if cls is Forall:
        return _dia(App(t, Proj2(s)), Proj1(s), subst_formula(a.body, a.var, Proj2(s)))
    if cls is Exists:
        return _dia(Proj1(t), s, subst_formula(a.body, a.var, Proj2(t)))
    if cls is Imp:
        return Imp(
            _dia(Proj1(s), App(App(Proj2(t), Proj1(s)), Proj2(s)), a.left),
            _dia(App(Proj1(t), Proj1(s)), Proj2(s), a.right),
        )
    raise TypeError(f"not a formula: {a!r}")


def _check_dia_sorts(ctx_vars: Mapping[str, SimpleType], t: Term, s: Term,
                     a: Formula) -> None:
    """Raise ``WitnessTypeMismatch`` or ``ChallengeTypeMismatch`` unless ``t``
    and ``s`` have the witness and challenge sorts of ``a``."""
    d = dia_types(a)
    _check_sort(ctx_vars, t, d.witness, "witness")
    _check_sort(ctx_vars, s, d.challenge, "challenge")


def dia_formula(sig: Signature, ctx_vars: Mapping[str, SimpleType], t: Term, s: Term,
                a: Formula) -> Formula:
    """The quantifier-free kernel of ``a`` at witness ``t`` and challenge ``s``."""
    _check_dia_sorts(ctx_vars, t, s, a)
    return _dia(t, s, a)


def _nn_indices(t: Term, s: Term):
    """The compound witness/challenge pair used by the double-negation
    simplification: witness (t.2 s.1 s.2).1 and challenge
    s.1.2 (t.2 s.1 s.2).1 (t.2 s.1 s.2).2."""
    u = App(App(Proj2(t), Proj1(s)), Proj2(s))
    w = Proj1(u)
    c = App(App(Proj2(Proj1(s)), Proj1(u)), Proj2(u))
    return w, c


def dia_nn_simplify(sig: Signature, ctx_vars: Mapping[str, SimpleType], a: Formula,
                    t: Term, s: Term) -> Formula:
    """Simplify the translation of a double negation: given a witness and a
    challenge for ``~~a``, produce the direct translation of ``a`` at the
    projected compound indices."""
    _check_dia_sorts(ctx_vars, t, s, neg(neg(a)))
    w, c = _nn_indices(t, s)
    return _dia(w, c, a)


def spector_target(sig: Signature, a: Formula, t: str) -> Formula:
    """The universally quantified target formula over challenges for ``~~a``,
    with ``t`` a free witness variable."""
    if fv_formula(a):
        raise TranslationError("OpenFormula", "target construction expects a closed formula")
    d = dia_types(neg(neg(a)))
    y = fresh_name("y", {t})
    w, c = _nn_indices(Var(t), Var(y))
    return Forall(y, d.challenge, _dia(w, c, a))
