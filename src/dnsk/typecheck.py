"""Sort checking for terms and bidirectional proof checking.

The judgment checked is ``ctx |-_ann p : goal`` where ``ann`` is either the
empty annotation or the bottom annotation.  Intuitionistic rules pass the
annotation through unchanged; ``reset`` switches its premise to the bottom
annotation and concludes bot at either annotation; ``shift`` is accepted only
under the bottom annotation.

Bidirectional discipline: hypotheses, projections, applications, and
ascriptions synthesize their formula; every other form checks against the
goal.  Disjunction and existential eliminations synthesize their scrutinee.

One check_proof call keeps its work in memos keyed by node identity, made
for the call and dropped when it returns; nothing is stored on the caller's
context, proofs or formulas.  The free variables of every formula and term
node read are computed once, so a substitution enters only the subformulas
in which its variable occurs; an ascribed formula is checked for
well-formedness once per variable scope; and the tfun and dest freshness
tests read a set of the context's free variables that each binder extends,
instead of walking every hypothesis again.

infer_term_type, wf_formula and the checker's check and synth read a node's
class once and test it with ``cls is X``, the commonest class first, as the
walkers in syntax do.  infer_term_type and wf_formula do not copy the
variable sorts at each binder: the first binder copies the caller's mapping
once, and every binder below binds its name in that copy, recurses, and
restores the name in a ``finally`` (see _Sorts), so the caller's mapping is
never changed, also when a SortError is raised.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from .printer import print_formula, print_type
from .syntax import (
    And, App, Arrow, Ascribe, Bot, BOT, Case, Dest, Efq, Eq0, ExPair,
    Exists, Forall, Formula, Fst, Hyp, Imp, Inl, Inr, KernelError, KindedError,
    Lam, NAT, Or, Pair, PApp, PLam, PPair, PredApp, ProofTerm, Proj1, Proj2,
    Prod, Rec, Record, Reset, Shift, Signature, SimpleType, Snd, Star, Succ,
    Term, TApp, TLam, UNIT, Var, Zero, alpha_eq_formula, fv_formula,
    subst_formula,
)


class Annotation(enum.Enum):
    PLAIN = "plain"
    BOT = "bot"


class SortError(KindedError):
    pass


class Context(Record):
    """Typing context: individual variables and named hypotheses."""

    __slots__ = ("term_vars", "hyps")

    def __init__(self, term_vars: Optional[Mapping[str, SimpleType]] = None,
                 hyps: Optional[Mapping[str, Formula]] = None):
        object.__setattr__(self, "term_vars", {} if term_vars is None else term_vars)
        object.__setattr__(self, "hyps", {} if hyps is None else hyps)

    def with_var(self, name: str, sort: SimpleType) -> "Context":
        return Context({**self.term_vars, name: sort}, self.hyps)

    def with_hyp(self, name: str, formula: Formula) -> "Context":
        return Context(self.term_vars, {**self.hyps, name: formula})


class _Sorts(dict):
    """The variable sorts of one infer_term_type or wf_formula call once it
    meets a binder: a private copy of the caller's mapping, made at the
    first binder, which each binder extends in place and restores in a
    ``finally`` as it returns or raises.  A name whose binder was left maps
    to None, which reads as unbound, as the missing name did.  The class
    marks the copy as owned, so the walks below the first binder, the
    infer_term_type calls within a wf_formula call too, share it."""

    __slots__ = ()


def infer_term_type(term_vars: Mapping[str, SimpleType], t: Term) -> SimpleType:
    """Synthesize the unique sort of a term, or raise SortError.  The
    caller's mapping is read, never changed (see _Sorts)."""
    cls = type(t)
    if cls is Zero:
        return NAT
    if cls is Pair:
        return Prod(infer_term_type(term_vars, t.fst), infer_term_type(term_vars, t.snd))
    if cls is Succ:
        a = t.arg
        while type(a) is Succ:
            a = a.arg
        s = infer_term_type(term_vars, a)
        if s is not NAT and s != NAT:
            raise SortError("SortMismatch", f"S expects a nat argument, got {print_type(s)}")
        return NAT
    if cls is Var:
        s = term_vars.get(t.name)
        if s is None:
            raise SortError("UnboundVar", f"unbound variable {t.name!r}")
        return s
    if cls is Lam:
        x, s = t.var, t.sort
        scope = term_vars if type(term_vars) is _Sorts else _Sorts(term_vars)
        old = scope.get(x)
        scope[x] = s
        try:
            return Arrow(s, infer_term_type(scope, t.body))
        finally:
            scope[x] = old
    if cls is Star:
        return UNIT
    if cls is Proj1:
        s = infer_term_type(term_vars, t.arg)
        if type(s) is not Prod:
            raise SortError("SortMismatch", f".1 applied to sort {print_type(s)}")
        return s.left
    if cls is Proj2:
        s = infer_term_type(term_vars, t.arg)
        if type(s) is not Prod:
            raise SortError("SortMismatch", f".2 applied to sort {print_type(s)}")
        return s.right
    if cls is App:
        sf = infer_term_type(term_vars, t.fn)
        if type(sf) is not Arrow:
            raise SortError("SortMismatch", f"applied a non-function of sort {print_type(sf)}")
        sa = infer_term_type(term_vars, t.arg)
        if sa is not sf.dom and sa != sf.dom:
            raise SortError(
                "SortMismatch",
                f"argument sort {print_type(sa)} does not match {print_type(sf.dom)}",
            )
        return sf.cod
    if cls is Rec:
        s = t.sort
        sn = infer_term_type(term_vars, t.scrut)
        if sn is not NAT and sn != NAT:
            raise SortError("SortMismatch", f"rec scrutinee has sort {print_type(sn)}")
        sb = infer_term_type(term_vars, t.base)
        if sb is not s and sb != s:
            raise SortError("SortMismatch", f"rec base has sort {print_type(sb)}, wanted {print_type(s)}")
        sst = infer_term_type(term_vars, t.step)
        want = Arrow(NAT, Arrow(s, s))
        if sst != want:
            raise SortError(
                "SortMismatch",
                f"rec step has sort {print_type(sst)}, wanted {print_type(want)}",
            )
        return s
    raise SortError("SortMismatch", f"not a term: {t!r}")


def wf_formula(sig: Signature, term_vars: Mapping[str, SimpleType], a: Formula) -> None:
    """Check well-sortedness of a formula under a signature.  The caller's
    mapping is read, never changed (see _Sorts)."""
    cls = type(a)
    if cls is PredApp:
        p, args = a.sym, a.args
        sorts = sig.arity(p)
        if sorts is None:
            raise SortError("UnknownPredicate", f"undeclared predicate {p!r}")
        if len(sorts) != len(args):
            raise SortError("SortMismatch", f"predicate {p!r} expects {len(sorts)} arguments")
        for want, t in zip(sorts, args):
            got = infer_term_type(term_vars, t)
            if got is not want and got != want:
                raise SortError(
                    "SortMismatch",
                    f"argument of {p!r} has sort {print_type(got)}, wanted {print_type(want)}",
                )
    elif cls is Imp or cls is And or cls is Or:
        wf_formula(sig, term_vars, a.left)
        wf_formula(sig, term_vars, a.right)
    elif cls is Forall or cls is Exists:
        x = a.var
        scope = term_vars if type(term_vars) is _Sorts else _Sorts(term_vars)
        old = scope.get(x)
        scope[x] = a.sort
        try:
            wf_formula(sig, scope, a.body)
        finally:
            scope[x] = old
    elif cls is Eq0:
        for side in (a.lhs, a.rhs):
            s = infer_term_type(term_vars, side)
            if s is not NAT and s != NAT:
                raise SortError("SortMismatch", f"=_0 compares sort {print_type(s)}")
    elif cls is not Bot:
        raise SortError("SortMismatch", f"not a formula: {a!r}")


# ---------------------------------------------------------------------------
# Proof checking


class Derivation(Record, children=()):
    __slots__ = ("rule", "annotation", "subject", "goal", "children")


class CheckFailure(Record, expected=None, got=None):
    __slots__ = ("kind", "path", "message", "expected", "got")

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "path": list(self.path), "message": self.message}
        if self.expected is not None:
            out["expected"] = self.expected
        if self.got is not None:
            out["got"] = self.got
        return out


class CheckReport(Record, derivation=None, error=None):
    __slots__ = ("status", "derivation", "error")  # status: 'ok' | 'error'

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


_SYNTH_FORMS = frozenset((Hyp, Fst, Snd, PApp, TApp, Ascribe))


class _Scope:
    """The context as binders extend it during one check_proof call.  Its
    free individual variables, the names the tfun and dest freshness tests
    refuse, are its variables and the free variables of its hypotheses.
    They are computed at the first test that needs them, then extended as
    binders extend the scope: a new hypothesis adds its own free variables;
    one that shadows another makes them be computed again, as the shadowed
    formula's variables may no longer be free."""

    __slots__ = ("term_vars", "hyps", "_free", "memo")

    def __init__(self, term_vars: Mapping, hyps: Mapping, free: Optional[frozenset],
                 memo: dict):
        self.term_vars, self.hyps, self._free, self.memo = term_vars, hyps, free, memo

    def free(self) -> frozenset:
        if self._free is None:
            # without the memo: a call mostly reads its hypotheses once here,
            # and filling the memo then costs more than it saves
            out = frozenset(self.term_vars)
            for f in self.hyps.values():
                out |= fv_formula(f)
            self._free = out
        return self._free

    def with_var(self, name: str, sort: SimpleType) -> "_Scope":
        return _Scope({**self.term_vars, name: sort}, self.hyps, self.free() | {name}, self.memo)

    def with_hyp(self, name: str, formula: Formula) -> "_Scope":
        free = self._free
        if free is not None:
            if name in self.hyps:
                free = None
            else:
                fv = fv_formula(formula, self.memo)
                if not fv <= free:
                    free = free | fv
        return _Scope(self.term_vars, {**self.hyps, name: formula}, free, self.memo)

    def fresh(self, x: str, path: tuple, goal: Optional[Formula] = None) -> None:
        """The tfun and dest premise: ``x`` is not free in the context, nor
        in ``goal`` if one is given."""
        if x in self.free():
            _fail("FreshnessViolation", path, f"variable {x!r} is not fresh for the context")
        if goal is not None and x in fv_formula(goal, self.memo):
            _fail("FreshnessViolation", path, f"variable {x!r} occurs free in the goal")


class _Checker:
    """One check_proof call.  ``memo`` holds the free variables of every
    formula and term node read (see syntax.fv_term); ``well_formed`` holds
    each ascribed formula found well-formed, by its identity and that of the
    variable sorts it was checked under.  Both entries hold their objects,
    so no id is reused while the call lasts."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.memo: dict = {}
        self.well_formed: dict = {}

    def has_sort(self, ctx: _Scope, t: Term, want: SimpleType, path: tuple, what: str) -> None:
        """The premise that ``t``, the witness of an existential pair or the
        argument of an instantiation, has sort ``want``."""
        try:
            got = infer_term_type(ctx.term_vars, t)
        except SortError as e:
            _fail(e.kind, path, str(e))
        if got != want:
            _fail("SortMismatch", path, f"{what} sort mismatch",
                  expected=print_type(want), got=print_type(got))

    # checking mode ---------------------------------------------------------

    def check(self, ctx: _Scope, ann: Annotation, p: ProofTerm, goal: Formula, path: tuple) -> Derivation:
        cls = type(p)
        if cls in _SYNTH_FORMS:
            d, got = self.synth(ctx, ann, p, path)
            if not alpha_eq_formula(got, goal):
                _fail("FormulaMismatch", path, "synthesized formula differs from the goal",
                      expected=print_formula(goal), got=print_formula(got))
            return d
        if cls is PLam:
            if not isinstance(goal, Imp):
                _fail("FormulaMismatch", path, "fun proof against a non-implication",
                      expected="implication", got=print_formula(goal))
            d = self.check(ctx.with_hyp(p.hyp, goal.left), ann, p.body, goal.right,
                           path + ("body",))
            return Derivation("imp_i", ann, p, goal, (d,))
        if cls is ExPair:
            if not isinstance(goal, Exists):
                _fail("FormulaMismatch", path, "witness pair against a non-existential",
                      expected="existential", got=print_formula(goal))
            self.has_sort(ctx, p.witness, goal.sort, path + ("witness",), "witness")
            inst = subst_formula(goal.body, goal.var, p.witness, self.memo)
            d = self.check(ctx, ann, p.body, inst, path + ("body",))
            return Derivation("exists_i", ann, p, goal, (d,))
        if cls is PPair:
            if not isinstance(goal, And):
                _fail("FormulaMismatch", path, "pair proof against a non-conjunction",
                      expected="conjunction", got=print_formula(goal))
            d1 = self.check(ctx, ann, p.fst, goal.left, path + ("fst",))
            d2 = self.check(ctx, ann, p.snd, goal.right, path + ("snd",))
            return Derivation("and_i", ann, p, goal, (d1, d2))
        if cls is TLam:
            if not isinstance(goal, Forall):
                _fail("FormulaMismatch", path, "tfun proof against a non-universal",
                      expected="universal", got=print_formula(goal))
            x = p.var
            ctx.fresh(x, path)
            inst = subst_formula(goal.body, goal.var, Var(x), self.memo)
            d = self.check(ctx.with_var(x, goal.sort), ann, p.body, inst, path + ("body",))
            return Derivation("forall_i", ann, p, goal, (d,))
        if cls is Inl or cls is Inr:
            word = "inl" if cls is Inl else "inr"
            if not isinstance(goal, Or):
                _fail("FormulaMismatch", path, f"{word} against a non-disjunction",
                      expected="disjunction", got=print_formula(goal))
            d = self.check(ctx, ann, p.arg, goal.left if cls is Inl else goal.right, path + (word,))
            return Derivation("or_i1" if cls is Inl else "or_i2", ann, p, goal, (d,))
        if cls is Dest:
            ds, sf = self.synth(ctx, ann, p.scrut, path + ("scrut",))
            if not isinstance(sf, Exists):
                _fail("ScrutineeNotExists", path + ("scrut",), "dest scrutinee is not an existential",
                      expected="existential", got=print_formula(sf))
            x = p.var
            ctx.fresh(x, path, goal)
            inst = subst_formula(sf.body, sf.var, Var(x), self.memo)
            d = self.check(ctx.with_var(x, sf.sort).with_hyp(p.hyp, inst), ann, p.body, goal,
                           path + ("body",))
            return Derivation("exists_e", ann, p, goal, (ds, d))
        if cls is Case:
            ds, sf = self.synth(ctx, ann, p.scrut, path + ("scrut",))
            if not isinstance(sf, Or):
                _fail("ScrutineeNotSum", path + ("scrut",), "case scrutinee is not a disjunction",
                      expected="disjunction", got=print_formula(sf))
            d1 = self.check(ctx.with_hyp(p.left_name, sf.left), ann, p.left, goal,
                            path + ("left",))
            d2 = self.check(ctx.with_hyp(p.right_name, sf.right), ann, p.right, goal,
                            path + ("right",))
            return Derivation("or_e", ann, p, goal, (ds, d1, d2))
        if cls is Shift:
            if ann is not Annotation.BOT:
                _fail("AnnotationViolation", path,
                      "shift requires the bot annotation set by an enclosing reset")
            d = self.check(ctx.with_hyp(p.hyp, Imp(goal, BOT)), Annotation.BOT, p.body, BOT,
                           path + ("body",))
            return Derivation("shift", ann, p, goal, (d,))
        if cls is Reset:
            if not isinstance(goal, Bot):
                _fail("ResetGoalNotBot", path, "reset concludes bot only",
                      expected="bot", got=print_formula(goal))
            d = self.check(ctx, Annotation.BOT, p.body, BOT, path + ("body",))
            return Derivation("reset", ann, p, goal, (d,))
        if cls is Efq:
            d = self.check(ctx, ann, p.arg, BOT, path + ("arg",))
            return Derivation("bot_e", ann, p, goal, (d,))
        _fail("FormulaMismatch", path, f"cannot check proof form {cls.__name__}")

    # synthesis mode --------------------------------------------------------

    def synth(self, ctx: _Scope, ann: Annotation, p: ProofTerm, path: tuple):
        cls = type(p)
        if cls is Hyp:
            a = p.name
            f = ctx.hyps.get(a)
            if f is None:
                _fail("UnboundHypothesis", path, f"hypothesis {a!r} not in context")
            return Derivation("ax", ann, p, f), f
        if cls is Ascribe:
            f = p.formula
            key = (id(f), id(ctx.term_vars))
            if key not in self.well_formed:
                try:
                    wf_formula(self.sig, ctx.term_vars, f)
                except SortError as e:
                    _fail(e.kind, path, str(e))
                self.well_formed[key] = (f, ctx.term_vars)
            d = self.check(ctx, ann, p.body, f, path + ("arg",))
            return Derivation("ascribe", ann, p, f, (d,)), f
        if cls is PApp:
            d, f = self.synth(ctx, ann, p.fn, path + ("fn",))
            if not isinstance(f, Imp):
                _fail("FormulaMismatch", path, "applied a proof of a non-implication",
                      expected="implication", got=print_formula(f))
            da = self.check(ctx, ann, p.arg, f.left, path + ("arg",))
            return Derivation("imp_e", ann, p, f.right, (d, da)), f.right
        if cls is Fst or cls is Snd:
            d, f = self.synth(ctx, ann, p.arg, path + ("arg",))
            if not isinstance(f, And):
                word = "fst" if cls is Fst else "snd"
                _fail("FormulaMismatch", path, f"{word} of a non-conjunction",
                      expected="conjunction", got=print_formula(f))
            out = f.left if cls is Fst else f.right
            return Derivation("and_e1" if cls is Fst else "and_e2", ann, p, out, (d,)), out
        if cls is TApp:
            d, f = self.synth(ctx, ann, p.fn, path + ("fn",))
            if not isinstance(f, Forall):
                _fail("FormulaMismatch", path, "instantiated a proof of a non-universal",
                      expected="universal", got=print_formula(f))
            self.has_sort(ctx, p.arg, f.sort, path + ("arg",), "instantiation")
            inst = subst_formula(f.body, f.var, p.arg, self.memo)
            return Derivation("forall_e", ann, p, inst, (d,)), inst
        _fail("NotSynthesizable", path,
              f"{cls.__name__} proof cannot appear in synthesis position; ascribe it")


def check_proof(sig: Signature, ctx: Context, ann: Annotation, p: ProofTerm,
                goal: Formula) -> CheckReport:
    """Check ``ctx |-_ann p : goal``; pure, deterministic, total."""
    try:
        wf_formula(sig, ctx.term_vars, goal)
    except SortError as e:
        return CheckReport("error", error=CheckFailure(e.kind, ("goal",), str(e)))
    checker = _Checker(sig)
    try:
        d = checker.check(_Scope(ctx.term_vars, ctx.hyps, None, checker.memo), ann, p, goal, ())
    except _Fail as e:
        return CheckReport("error", error=e.failure)
    return CheckReport("ok", derivation=d)
