"""The proof checker that per-call identity memos in ``dnsk.typecheck``
replaced: it recomputed the free variables of every hypothesis at each
``tfun`` and ``dest`` binder, substituted into whole formulas, and checked
the well-formedness of every ascription again.  Kept verbatim, but for its
imports, as the oracle of ``test_typecheck_diff.py``.

Sort checking for terms and bidirectional proof checking.

The judgment checked is ``ctx |-_ann p : goal`` where ``ann`` is either the
empty annotation or the bottom annotation.  Intuitionistic rules pass the
annotation through unchanged; ``reset`` switches its premise to the bottom
annotation and concludes bot at either annotation; ``shift`` is accepted only
under the bottom annotation.

Bidirectional discipline: hypotheses, projections, applications, and
ascriptions synthesize their formula; every other form checks against the
goal.  Disjunction and existential eliminations synthesize their scrutinee.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from dnsk.printer import print_formula, print_type
from dnsk.syntax import (
    And, App, Arrow, Ascribe, Bot, BOT, Case, Dest, Efq, Eq0, ExPair,
    Exists, Forall, Formula, Fst, Hyp, Imp, Inl, Inr, KernelError, Lam,
    NAT, Or, Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2,
    Prod, Rec, Reset, Shift, Signature, SimpleType, Snd, Star, Succ, Term,
    TApp, TLam, UNIT, Var, Zero, alpha_eq_formula, fv_formula,
    subst_formula,
)


class Annotation(enum.Enum):
    PLAIN = "plain"
    BOT = "bot"


class SortError(KernelError):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Context:
    """Typing context: individual variables and named hypotheses."""

    term_vars: Mapping[str, SimpleType] = field(default_factory=dict)
    hyps: Mapping[str, Formula] = field(default_factory=dict)

    def with_var(self, name: str, sort: SimpleType) -> "Context":
        return Context({**self.term_vars, name: sort}, self.hyps)

    def with_hyp(self, name: str, formula: Formula) -> "Context":
        return Context(self.term_vars, {**self.hyps, name: formula})

    def free_term_vars(self) -> frozenset:
        out = frozenset(self.term_vars)
        for f in self.hyps.values():
            out |= fv_formula(f)
        return out


def infer_term_type(term_vars: Mapping[str, SimpleType], t: Term) -> SimpleType:
    """Synthesize the unique sort of a term, or raise SortError."""
    match t:
        case Var(x):
            s = term_vars.get(x)
            if s is None:
                raise SortError("UnboundVar", f"unbound variable {x!r}")
            return s
        case Star():
            return UNIT
        case Zero():
            return NAT
        case Succ(a):
            while type(a) is Succ:
                a = a.arg
            s = infer_term_type(term_vars, a)
            if s != NAT:
                raise SortError("SortMismatch", f"S expects a nat argument, got {print_type(s)}")
            return NAT
        case Lam(x, s, b):
            return Arrow(s, infer_term_type({**term_vars, x: s}, b))
        case App(f, a):
            sf = infer_term_type(term_vars, f)
            if not isinstance(sf, Arrow):
                raise SortError("SortMismatch", f"applied a non-function of sort {print_type(sf)}")
            sa = infer_term_type(term_vars, a)
            if sa != sf.dom:
                raise SortError(
                    "SortMismatch",
                    f"argument sort {print_type(sa)} does not match {print_type(sf.dom)}",
                )
            return sf.cod
        case Pair(a, b):
            return Prod(infer_term_type(term_vars, a), infer_term_type(term_vars, b))
        case Proj1(a):
            s = infer_term_type(term_vars, a)
            if not isinstance(s, Prod):
                raise SortError("SortMismatch", f".1 applied to sort {print_type(s)}")
            return s.left
        case Proj2(a):
            s = infer_term_type(term_vars, a)
            if not isinstance(s, Prod):
                raise SortError("SortMismatch", f".2 applied to sort {print_type(s)}")
            return s.right
        case Rec(s, n, b, st):
            sn = infer_term_type(term_vars, n)
            if sn != NAT:
                raise SortError("SortMismatch", f"rec scrutinee has sort {print_type(sn)}")
            sb = infer_term_type(term_vars, b)
            if sb != s:
                raise SortError("SortMismatch", f"rec base has sort {print_type(sb)}, wanted {print_type(s)}")
            sst = infer_term_type(term_vars, st)
            want = Arrow(NAT, Arrow(s, s))
            if sst != want:
                raise SortError(
                    "SortMismatch",
                    f"rec step has sort {print_type(sst)}, wanted {print_type(want)}",
                )
            return s
    raise SortError("SortMismatch", f"not a term: {t!r}")


def wf_formula(sig: Signature, term_vars: Mapping[str, SimpleType], a: Formula) -> None:
    """Check well-sortedness of a formula under a signature."""
    match a:
        case Bot():
            return
        case Eq0(l, r):
            for side in (l, r):
                s = infer_term_type(term_vars, side)
                if s != NAT:
                    raise SortError("SortMismatch", f"=_0 compares sort {print_type(s)}")
        case PredApp(p, args):
            sorts = sig.arity(p)
            if sorts is None:
                raise SortError("UnknownPredicate", f"undeclared predicate {p!r}")
            if len(sorts) != len(args):
                raise SortError("SortMismatch", f"predicate {p!r} expects {len(sorts)} arguments")
            for want, t in zip(sorts, args):
                got = infer_term_type(term_vars, t)
                if got != want:
                    raise SortError(
                        "SortMismatch",
                        f"argument of {p!r} has sort {print_type(got)}, wanted {print_type(want)}",
                    )
        case And(l, r) | Or(l, r) | Imp(l, r):
            wf_formula(sig, term_vars, l)
            wf_formula(sig, term_vars, r)
        case Forall(x, s, b) | Exists(x, s, b):
            wf_formula(sig, {**term_vars, x: s}, b)
        case _:
            raise SortError("SortMismatch", f"not a formula: {a!r}")


# ---------------------------------------------------------------------------
# Proof checking


@dataclass(frozen=True)
class Derivation:
    rule: str
    annotation: Annotation
    subject: ProofTerm
    goal: Formula
    children: tuple = ()


@dataclass(frozen=True)
class CheckFailure:
    kind: str
    path: tuple
    message: str
    expected: Optional[str] = None
    got: Optional[str] = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "path": list(self.path), "message": self.message}
        if self.expected is not None:
            out["expected"] = self.expected
        if self.got is not None:
            out["got"] = self.got
        return out


@dataclass(frozen=True)
class CheckReport:
    status: str  # 'ok' | 'error'
    derivation: Optional[Derivation] = None
    error: Optional[CheckFailure] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.error is not None:
            out["error"] = self.error.to_dict()
        return out


class _Fail(KernelError):
    def __init__(self, failure: CheckFailure):
        super().__init__(failure.message)
        self.failure = failure


def _fail(kind, path, message, expected=None, got=None):
    raise _Fail(CheckFailure(kind, path, message, expected, got))


_SYNTH_FORMS = (Hyp, Fst, Snd, PApp, TApp, Ascribe)


class _Checker:
    def __init__(self, sig: Signature):
        self.sig = sig

    # checking mode ---------------------------------------------------------

    def check(self, ctx: Context, ann: Annotation, p: ProofTerm, goal: Formula, path: tuple) -> Derivation:
        match p:
            case PPair(q, r):
                if not isinstance(goal, And):
                    _fail("FormulaMismatch", path, "pair proof against a non-conjunction",
                          expected="conjunction", got=print_formula(goal))
                d1 = self.check(ctx, ann, q, goal.left, path + ("fst",))
                d2 = self.check(ctx, ann, r, goal.right, path + ("snd",))
                return Derivation("and_i", ann, p, goal, (d1, d2))
            case Inl(q):
                if not isinstance(goal, Or):
                    _fail("FormulaMismatch", path, "inl against a non-disjunction",
                          expected="disjunction", got=print_formula(goal))
                d = self.check(ctx, ann, q, goal.left, path + ("inl",))
                return Derivation("or_i1", ann, p, goal, (d,))
            case Inr(q):
                if not isinstance(goal, Or):
                    _fail("FormulaMismatch", path, "inr against a non-disjunction",
                          expected="disjunction", got=print_formula(goal))
                d = self.check(ctx, ann, q, goal.right, path + ("inr",))
                return Derivation("or_i2", ann, p, goal, (d,))
            case PLam(a, body):
                if not isinstance(goal, Imp):
                    _fail("FormulaMismatch", path, "fun proof against a non-implication",
                          expected="implication", got=print_formula(goal))
                d = self.check(ctx.with_hyp(a, goal.left), ann, body, goal.right, path + ("body",))
                return Derivation("imp_i", ann, p, goal, (d,))
            case TLam(x, body):
                if not isinstance(goal, Forall):
                    _fail("FormulaMismatch", path, "tfun proof against a non-universal",
                          expected="universal", got=print_formula(goal))
                if x in ctx.free_term_vars():
                    _fail("FreshnessViolation", path,
                          f"variable {x!r} is not fresh for the context")
                inst = subst_formula(goal.body, goal.var, Var(x))
                d = self.check(ctx.with_var(x, goal.sort), ann, body, inst, path + ("body",))
                return Derivation("forall_i", ann, p, goal, (d,))
            case ExPair(w, body):
                if not isinstance(goal, Exists):
                    _fail("FormulaMismatch", path, "witness pair against a non-existential",
                          expected="existential", got=print_formula(goal))
                try:
                    sw = infer_term_type(ctx.term_vars, w)
                except SortError as e:
                    _fail(e.kind, path + ("witness",), str(e))
                if sw != goal.sort:
                    _fail("SortMismatch", path + ("witness",), "witness sort mismatch",
                          expected=print_type(goal.sort), got=print_type(sw))
                inst = subst_formula(goal.body, goal.var, w)
                d = self.check(ctx, ann, body, inst, path + ("body",))
                return Derivation("exists_i", ann, p, goal, (d,))
            case Case(scrut, a1, b1, a2, b2):
                ds, sf = self.synth(ctx, ann, scrut, path + ("scrut",))
                if not isinstance(sf, Or):
                    _fail("ScrutineeNotSum", path + ("scrut",), "case scrutinee is not a disjunction",
                          expected="disjunction", got=print_formula(sf))
                d1 = self.check(ctx.with_hyp(a1, sf.left), ann, b1, goal, path + ("left",))
                d2 = self.check(ctx.with_hyp(a2, sf.right), ann, b2, goal, path + ("right",))
                return Derivation("or_e", ann, p, goal, (ds, d1, d2))
            case Dest(scrut, x, a, body):
                ds, sf = self.synth(ctx, ann, scrut, path + ("scrut",))
                if not isinstance(sf, Exists):
                    _fail("ScrutineeNotExists", path + ("scrut",), "dest scrutinee is not an existential",
                          expected="existential", got=print_formula(sf))
                if x in ctx.free_term_vars():
                    _fail("FreshnessViolation", path, f"variable {x!r} is not fresh for the context")
                if x in fv_formula(goal):
                    _fail("FreshnessViolation", path, f"variable {x!r} occurs free in the goal")
                inst = subst_formula(sf.body, sf.var, Var(x))
                d = self.check(ctx.with_var(x, sf.sort).with_hyp(a, inst), ann, body, goal,
                               path + ("body",))
                return Derivation("exists_e", ann, p, goal, (ds, d))
            case Efq(q):
                d = self.check(ctx, ann, q, BOT, path + ("arg",))
                return Derivation("bot_e", ann, p, goal, (d,))
            case Reset(body):
                if not isinstance(goal, Bot):
                    _fail("ResetGoalNotBot", path, "reset concludes bot only",
                          expected="bot", got=print_formula(goal))
                d = self.check(ctx, Annotation.BOT, body, BOT, path + ("body",))
                return Derivation("reset", ann, p, goal, (d,))
            case Shift(k, body):
                if ann is not Annotation.BOT:
                    _fail("AnnotationViolation", path,
                          "shift requires the bot annotation set by an enclosing reset")
                d = self.check(ctx.with_hyp(k, Imp(goal, BOT)), Annotation.BOT, body, BOT,
                               path + ("body",))
                return Derivation("shift", ann, p, goal, (d,))
            case _ if isinstance(p, _SYNTH_FORMS):
                d, got = self.synth(ctx, ann, p, path)
                if not alpha_eq_formula(got, goal):
                    _fail("FormulaMismatch", path, "synthesized formula differs from the goal",
                          expected=print_formula(goal), got=print_formula(got))
                return d
        _fail("FormulaMismatch", path, f"cannot check proof form {type(p).__name__}")

    # synthesis mode --------------------------------------------------------

    def synth(self, ctx: Context, ann: Annotation, p: ProofTerm, path: tuple):
        match p:
            case Hyp(a):
                f = ctx.hyps.get(a)
                if f is None:
                    _fail("UnboundHypothesis", path, f"hypothesis {a!r} not in context")
                return Derivation("ax", ann, p, f), f
            case Fst(q):
                d, f = self.synth(ctx, ann, q, path + ("arg",))
                if not isinstance(f, And):
                    _fail("FormulaMismatch", path, "fst of a non-conjunction",
                          expected="conjunction", got=print_formula(f))
                return Derivation("and_e1", ann, p, f.left, (d,)), f.left
            case Snd(q):
                d, f = self.synth(ctx, ann, q, path + ("arg",))
                if not isinstance(f, And):
                    _fail("FormulaMismatch", path, "snd of a non-conjunction",
                          expected="conjunction", got=print_formula(f))
                return Derivation("and_e2", ann, p, f.right, (d,)), f.right
            case PApp(fn, arg):
                d, f = self.synth(ctx, ann, fn, path + ("fn",))
                if not isinstance(f, Imp):
                    _fail("FormulaMismatch", path, "applied a proof of a non-implication",
                          expected="implication", got=print_formula(f))
                da = self.check(ctx, ann, arg, f.left, path + ("arg",))
                return Derivation("imp_e", ann, p, f.right, (d, da)), f.right
            case TApp(fn, t):
                d, f = self.synth(ctx, ann, fn, path + ("fn",))
                if not isinstance(f, Forall):
                    _fail("FormulaMismatch", path, "instantiated a proof of a non-universal",
                          expected="universal", got=print_formula(f))
                try:
                    st = infer_term_type(ctx.term_vars, t)
                except SortError as e:
                    _fail(e.kind, path + ("arg",), str(e))
                if st != f.sort:
                    _fail("SortMismatch", path + ("arg",), "instantiation sort mismatch",
                          expected=print_type(f.sort), got=print_type(st))
                inst = subst_formula(f.body, f.var, t)
                return Derivation("forall_e", ann, p, inst, (d,)), inst
            case Ascribe(q, f):
                try:
                    wf_formula(self.sig, ctx.term_vars, f)
                except SortError as e:
                    _fail(e.kind, path, str(e))
                d = self.check(ctx, ann, q, f, path + ("arg",))
                return Derivation("ascribe", ann, p, f, (d,)), f
        _fail("NotSynthesizable", path,
              f"{type(p).__name__} proof cannot appear in synthesis position; ascribe it")


def check_proof(sig: Signature, ctx: Context, ann: Annotation, p: ProofTerm,
                goal: Formula) -> CheckReport:
    """Check ``ctx |-_ann p : goal``; pure, deterministic, total."""
    try:
        wf_formula(sig, ctx.term_vars, goal)
    except SortError as e:
        return CheckReport("error", error=CheckFailure(e.kind, ("goal",), str(e)))
    try:
        d = _Checker(sig).check(ctx, ann, p, goal, ())
    except _Fail as e:
        return CheckReport("error", error=e.failure)
    return CheckReport("ok", derivation=d)
