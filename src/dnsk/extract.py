"""Program extraction from accepted control-free derivations.

Each derivation node maps to a term of the realizer sort of its goal; open
hypotheses are mapped to realizer variables (or to closed realizer terms for
axiom hypotheses) through an ExtractionEnv.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .syntax import (
    App, Arrow, Ascribe, Case, Dest, Efq, ExPair, Forall, Formula, Fst, Hyp, Imp, Inl, Inr,
    KindedError, Lam, NAT, Or, PApp, Pair, PLam, PPair, Prod, Proj1, Proj2, Rec, Record, Reset,
    Shift, SimpleType, Snd, STAR, Succ, TApp, Term, TLam, Unit, Var, ZERO, fresh_name,
    fv_formula, fv_term, node_termvars, subst_term,
)
from .translate import mr_type
from .typecheck import Derivation


class ExtractionError(KindedError):
    pass


class ExtractionEnv(Record):
    """Realizers for the open hypotheses of a derivation.

    hyp_realizers maps a hypothesis name to the term variable standing for
    its realizer; axiom_realizers maps an axiom-instance name to a closed
    realizer term; names in unrealizable are rejected outright when used."""

    __slots__ = ("hyp_realizers", "axiom_realizers", "unrealizable")

    def __init__(self, hyp_realizers: Optional[Mapping[str, str]] = None,
                 axiom_realizers: Optional[Mapping[str, Term]] = None,
                 unrealizable: frozenset = frozenset()):
        object.__setattr__(self, "hyp_realizers", {} if hyp_realizers is None else hyp_realizers)
        object.__setattr__(self, "axiom_realizers",
                           {} if axiom_realizers is None else axiom_realizers)
        object.__setattr__(self, "unrealizable", unrealizable)


def dummy(sort: SimpleType) -> Term:
    """A canonical closed inhabitant of any sort."""
    match sort:
        case Unit():
            return STAR
        case Prod(l, r):
            return Pair(dummy(l), dummy(r))
        case Arrow(d, c):
            return Lam("x", d, dummy(c))
        case _:
            return ZERO


def _cond(sort: SimpleType, flag: Term, if_zero: Term, if_nonzero: Term, memo: dict) -> Term:
    """Select by a numeric flag, zero picking the first branch; built from
    the recursor since the term language has no primitive conditional.  The
    step's two binders avoid the free variables of the branch they scope
    over (read through ``memo``, see syntax.fv_term)."""
    free = fv_term(if_nonzero, memo)
    step = Lam(fresh_name("_n", free), NAT, Lam(fresh_name("_r", free), sort, if_nonzero))
    return Rec(sort, flag, if_zero, step)


class _Extractor:
    """One extract_mr call.  ``memo`` holds the free variables of every
    formula and term node read (see syntax.fv_term), so a substitution into
    a realizer enters only the subterms in which its variable occurs.
    ``sorts`` is the memo of realizer sorts by formula identity (see
    translate.mr_type), so goals that share subformulas compute their
    sorts once."""

    def __init__(self, env: ExtractionEnv, avoid, memo: dict):
        self.env = env
        self.memo = memo
        self.sorts: dict = {}
        self.avoid = set(avoid)
        for t in env.axiom_realizers.values():
            self.avoid |= fv_term(t)

    def fresh(self, base: str) -> str:
        name = fresh_name(base, self.avoid)
        self.avoid.add(name)
        return name

    def extract(self, d: Derivation, local: Mapping[str, str]) -> Term:
        # check_proof makes each rule's subject that rule's proof form, so
        # the subject's class selects the rule, tested by identity
        form = type(d.subject)
        goal = d.goal
        kids = d.children
        if form is Hyp:
            name = d.subject.name
            if name in local:
                return Var(local[name])
            if name in self.env.unrealizable:
                raise ExtractionError(
                    "UnrealizableAxiom",
                    f"hypothesis {name!r} has no realizer; supply one explicitly",
                )
            if name in self.env.axiom_realizers:
                return self.env.axiom_realizers[name]
            if name in self.env.hyp_realizers:
                return Var(self.env.hyp_realizers[name])
            raise ExtractionError("UnmappedHypothesis", f"no realizer for hypothesis {name!r}")
        if form is Ascribe:
            return self.extract(kids[0], local)
        if form is ExPair:
            # realizer first, witness second
            return Pair(self.extract(kids[0], local), d.subject.witness)
        if form is PLam:
            assert isinstance(goal, Imp)
            a = d.subject.hyp
            v = self.fresh("r")
            body = self.extract(kids[0], {**local, a: v})
            return Lam(v, mr_type(goal.left, self.sorts), body)
        if form is PPair:
            return Pair(self.extract(kids[0], local), self.extract(kids[1], local))
        if form is TLam:
            assert isinstance(goal, Forall)
            return Lam(d.subject.var, goal.sort, self.extract(kids[0], local))
        if form is Inl:
            assert isinstance(goal, Or)
            return Pair(
                Pair(self.extract(kids[0], local), dummy(mr_type(goal.right, self.sorts))),
                ZERO)
        if form is Inr:
            assert isinstance(goal, Or)
            return Pair(
                Pair(dummy(mr_type(goal.left, self.sorts)), self.extract(kids[0], local)),
                Succ(ZERO))
        if form is Dest:
            s = self.extract(kids[0], local)
            node = d.subject
            v = self.fresh("r")
            body = self.extract(kids[1], {**local, node.hyp: v})
            body = subst_term(body, v, Proj1(s), self.memo)
            body = subst_term(body, node.var, Proj2(s), self.memo)
            return body
        if form is PApp:
            return App(self.extract(kids[0], local), self.extract(kids[1], local))
        if form is Case:
            s = self.extract(kids[0], local)
            case_node = d.subject
            v1 = self.fresh("r")
            v2 = self.fresh("r")
            left = self.extract(kids[1], {**local, case_node.left_name: v1})
            right = self.extract(kids[2], {**local, case_node.right_name: v2})
            left = subst_term(left, v1, Proj1(Proj1(s)), self.memo)
            right = subst_term(right, v2, Proj2(Proj1(s)), self.memo)
            return _cond(mr_type(goal, self.sorts), Proj2(s), left, right, self.memo)
        if form is TApp:
            return App(self.extract(kids[0], local), d.subject.arg)
        if form is Fst:
            return Proj1(self.extract(kids[0], local))
        if form is Snd:
            return Proj2(self.extract(kids[0], local))
        if form is Efq:
            return dummy(mr_type(goal, self.sorts))
        if form is Reset or form is Shift:
            raise ExtractionError(
                "ControlNodePresent",
                "extraction is defined only for control-free derivations",
            )
        raise ExtractionError("UnknownRule", f"unhandled rule {d.rule!r}")


def _names_in(d: Derivation, out: set, memo: dict) -> None:
    """Add every individual-variable name the derivation mentions: the free
    variables of each goal, and the names in each subject node's own slots.
    Every subproof is the subject of one node, so this covers the free
    variables of every subject.  The free variables are read through
    ``memo`` (see syntax.fv_term), so a subformula shared by several goals
    is walked once."""
    stack = [d]
    while stack:
        d = stack.pop()
        out |= fv_formula(d.goal, memo)
        out |= node_termvars(d.subject, memo)
        stack.extend(d.children)


def extract_mr(derivation: Derivation, env: ExtractionEnv) -> Term:
    """Compile a control-free derivation into a realizer of its goal's sort."""
    avoid = set(env.hyp_realizers.values())
    memo: dict = {}
    _names_in(derivation, avoid, memo)
    return _Extractor(env, avoid, memo).extract(derivation, {})


def realizer_context(term_vars: Mapping[str, SimpleType], ctx_hyps: Mapping[str, Formula],
                     env: ExtractionEnv) -> dict:
    """Typing context under which an extracted realizer is sorted: the
    original individual variables plus one variable per mapped hypothesis."""
    out = dict(term_vars)
    for name, var in env.hyp_realizers.items():
        if name in ctx_hyps:
            out[var] = mr_type(ctx_hyps[name])
    return out


def ac_realizer(rho: SimpleType, sigma: SimpleType, a: Formula) -> Term:
    """Realizer for a choice-axiom instance: split a pointwise pair of
    (realizer, witness) into a pair of functions."""
    tau_a = mr_type(a)
    av = Var("a")
    x = Var("x")
    return Lam(
        "a", Arrow(rho, Prod(tau_a, sigma)),
        Pair(
            Lam("x", rho, Proj1(App(av, x))),
            Lam("x", rho, Proj2(App(av, x))),
        ),
    )
