"""The translations whose walkers ``dnsk.translate`` now dispatches on
``type(node)``: ``kuroda_inner``, ``_mr``, ``dia_types`` and ``_dia`` as
``match`` statements, each first testing ``is_prime`` on every node.  Kept
verbatim, but for its imports, as the oracle of ``test_printer_diff.py``.

Formula translations and their type assignments.

Provided here: the double-negation translation of formulas, realizability
with its realizer-sort assignment (plus the "with truth" variant), and the
witness/challenge translation with its sort pair, including the
double-negation simplification and the universally quantified target form.
"""

from __future__ import annotations

from typing import Mapping, Optional

from dnsk.syntax import (
    And, App, Arrow, Bot, Eq0, Exists, Forall, Formula, Imp, KernelError, NAT, Or,
    PredApp, Prod, Proj1, Proj2, Record, Signature, SimpleType, Term, UNIT, Var, ZERO,
    fresh_name, fv_formula, fv_term, is_prime, neg, subst_formula,
)
from dnsk.typecheck import SortError, infer_term_type
from reference_printer import print_type


class TranslationError(KernelError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


# ---------------------------------------------------------------------------
# Double-negation translation


def kuroda_inner(a: Formula) -> Formula:
    """The inner translation: primes fixed, /\\, \\/, exists homomorphic,
    implication translates its conclusion, forall double-negates its body."""
    match a:
        case _ if is_prime(a):
            return a
        case And(l, r):
            return And(kuroda_inner(l), kuroda_inner(r))
        case Or(l, r):
            return Or(kuroda_inner(l), kuroda_inner(r))
        case Imp(l, r):
            return Imp(kuroda_inner(l), kuroda(r))
        case Forall(x, s, b):
            return Forall(x, s, kuroda(b))
        case Exists(x, s, b):
            return Exists(x, s, kuroda_inner(b))
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


class _Names:
    """Deterministic fresh-name supply for clause expansions."""

    def __init__(self, avoid):
        self.avoid = set(avoid)

    def fresh(self, base: str) -> str:
        name = fresh_name(base, self.avoid)
        self.avoid.add(name)
        return name


def _mr(t: Term, a: Formula, names: _Names, with_truth: bool) -> Formula:
    match a:
        case _ if is_prime(a):
            return a
        case And(l, r):
            return And(_mr(Proj1(t), l, names, with_truth), _mr(Proj2(t), r, names, with_truth))
        case Or(l, r):
            flag = Eq0(Proj2(t), ZERO)
            return And(
                Imp(flag, _mr(Proj1(Proj1(t)), l, names, with_truth)),
                Imp(neg(flag), _mr(Proj2(Proj1(t)), r, names, with_truth)),
            )
        case Imp(l, r):
            x = names.fresh("x")
            core = Forall(
                x, mr_type(l),
                Imp(_mr(Var(x), l, names, with_truth), _mr(App(t, Var(x)), r, names, with_truth)),
            )
            return And(core, a) if with_truth else core
        case Exists(y, _, b):
            return _mr(Proj1(t), subst_formula(b, y, Proj2(t)), names, with_truth)
        case Forall(y, s, b):
            y2 = names.fresh(y)
            return Forall(
                y2, s, _mr(App(t, Var(y2)), subst_formula(b, y, Var(y2)), names, with_truth)
            )
    raise TypeError(f"not a formula: {a!r}")


def _check_sort(ctx_vars: Mapping[str, SimpleType], t: Term, want: SimpleType,
                role: str) -> None:
    """Raise the role's TranslationError (``RealizerTypeMismatch`` for the
    realizer, and so on) unless ``t`` is well-sorted of sort ``want``."""
    kind = f"{role.capitalize()}TypeMismatch"
    try:
        got = infer_term_type(ctx_vars, t)
    except SortError as e:
        raise TranslationError(kind, str(e)) from e
    if got != want:
        raise TranslationError(
            kind, f"{role} has sort {print_type(got)}, formula wants {print_type(want)}")


def _clause_names(t: Term, a: Formula, extra=()) -> _Names:
    return _Names(fv_term(t) | fv_formula(a) | set(extra))


def mr_formula(sig: Signature, ctx_vars: Mapping[str, SimpleType], t: Term, a: Formula) -> Formula:
    """The formula stating that ``t`` realizes ``a``."""
    _check_sort(ctx_vars, t, mr_type(a), "realizer")
    return _mr(t, a, _clause_names(t, a, ctx_vars), with_truth=False)


def mrt_formula(sig: Signature, ctx_vars: Mapping[str, SimpleType], t: Term, a: Formula) -> Formula:
    """Realizability with truth: the implication clause keeps the original
    implication as a conjunct."""
    _check_sort(ctx_vars, t, mr_type(a), "realizer")
    return _mr(t, a, _clause_names(t, a, ctx_vars), with_truth=True)


# ---------------------------------------------------------------------------
# Witness/challenge translation


class DiaTypes(Record):
    __slots__ = ("witness", "challenge")


def dia_types(a: Formula) -> DiaTypes:
    match a:
        case _ if is_prime(a):
            return DiaTypes(UNIT, UNIT)
        case And(l, r):
            dl, dr = dia_types(l), dia_types(r)
            return DiaTypes(Prod(dl.witness, dr.witness), Prod(dl.challenge, dr.challenge))
        case Or(l, r):
            dl, dr = dia_types(l), dia_types(r)
            return DiaTypes(
                Prod(Prod(dl.witness, dr.witness), NAT),
                Prod(dl.challenge, dr.challenge),
            )
        case Imp(l, r):
            dl, dr = dia_types(l), dia_types(r)
            return DiaTypes(
                Prod(
                    Arrow(dl.witness, dr.witness),
                    Arrow(dl.witness, Arrow(dr.challenge, dl.challenge)),
                ),
                Prod(dl.witness, dr.challenge),
            )
        case Exists(_, s, b):
            d = dia_types(b)
            return DiaTypes(Prod(d.witness, s), d.challenge)
        case Forall(_, s, b):
            d = dia_types(b)
            return DiaTypes(Arrow(s, d.witness), Prod(d.challenge, s))
    raise TypeError(f"not a formula: {a!r}")


def _dia(t: Term, s: Term, a: Formula) -> Formula:
    match a:
        case _ if is_prime(a):
            return a
        case And(l, r):
            return And(_dia(Proj1(t), Proj1(s), l), _dia(Proj2(t), Proj2(s), r))
        case Or(l, r):
            flag = Eq0(Proj2(t), ZERO)
            return And(
                Imp(flag, _dia(Proj1(Proj1(t)), Proj1(s), l)),
                Imp(neg(flag), _dia(Proj2(Proj1(t)), Proj2(s), r)),
            )
        case Imp(l, r):
            return Imp(
                _dia(Proj1(s), App(App(Proj2(t), Proj1(s)), Proj2(s)), l),
                _dia(App(Proj1(t), Proj1(s)), Proj2(s), r),
            )
        case Exists(x, _, b):
            return _dia(Proj1(t), s, subst_formula(b, x, Proj2(t)))
        case Forall(x, _, b):
            return _dia(App(t, Proj2(s)), Proj1(s), subst_formula(b, x, Proj2(s)))
    raise TypeError(f"not a formula: {a!r}")


def dia_formula(sig: Signature, ctx_vars: Mapping[str, SimpleType], t: Term, s: Term,
                a: Formula) -> Formula:
    """The quantifier-free kernel of ``a`` at witness ``t`` and challenge ``s``."""
    d = dia_types(a)
    _check_sort(ctx_vars, t, d.witness, "witness")
    _check_sort(ctx_vars, s, d.challenge, "challenge")
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
    d = dia_types(neg(neg(a)))
    _check_sort(ctx_vars, t, d.witness, "witness")
    _check_sort(ctx_vars, s, d.challenge, "challenge")
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
