"""Machine-checked library of the displayed derivations, plus generators
for the axiom schemas (shift schema, choice, induction, equality) that enter
derivations as named hypotheses."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Mapping

from .parser import parse_formula, parse_proof
from .syntax import (
    And, App, Arrow, BOT, Eq0, Exists, Forall, Formula, Imp, KernelError, NAT,
    ProofTerm, Signature, SimpleType, STAR, Succ, Term, Var, ZERO, neg,
    subst_formula,
)
from .typecheck import Annotation, CheckReport, Context, check_proof

LIBRARY_SIGNATURE = Signature({
    "P": (NAT,),
    "A": (NAT, NAT),
    "M": (NAT, NAT),
    "T": (NAT, NAT, NAT),
    "P0": (),
})


# ---------------------------------------------------------------------------
# Axiom-instance generators


def dns_instance(rho: SimpleType, var: str, a: Formula) -> Formula:
    """forall x ~~A(x) -> ~~forall x A(x), quantifying at the given sort."""
    return Imp(
        Forall(var, rho, neg(neg(a))),
        neg(neg(Forall(var, rho, a))),
    )


def ac_instance(rho: SimpleType, sigma: SimpleType, xvar: str, yvar: str, a: Formula,
                fvar: str = "f") -> Formula:
    """forall x exists y A(x,y) -> exists f forall x A(x, f x)."""
    chosen = subst_formula(a, yvar, App(Var(fvar), Var(xvar)))
    return Imp(
        Forall(xvar, rho, Exists(yvar, sigma, a)),
        Exists(fvar, Arrow(rho, sigma), Forall(xvar, rho, chosen)),
    )


def induction_instance(var: str, a: Formula) -> Formula:
    """A(0) /\\ forall n (A(n) -> A(S n)) -> forall n A(n)."""
    base = subst_formula(a, var, ZERO)
    step = Forall(var, NAT, Imp(a, subst_formula(a, var, Succ(Var(var)))))
    return Imp(And(base, step), Forall(var, NAT, a))


def refl_instance(t: Term) -> Formula:
    return Eq0(t, t)


def sym_instance(x: str = "x", y: str = "y") -> Formula:
    return Forall(x, NAT, Forall(y, NAT, Imp(Eq0(Var(x), Var(y)), Eq0(Var(y), Var(x)))))


def trans_instance(x: str = "x", y: str = "y", z: str = "z") -> Formula:
    return Forall(x, NAT, Forall(y, NAT, Forall(z, NAT, Imp(
        And(Eq0(Var(x), Var(y)), Eq0(Var(y), Var(z))), Eq0(Var(x), Var(z))))))


def succ_inj_instance(x: str = "x", y: str = "y") -> Formula:
    return Forall(x, NAT, Forall(y, NAT, Imp(
        Eq0(Succ(Var(x)), Succ(Var(y))), Eq0(Var(x), Var(y)))))


def zero_succ_instance(x: str = "x") -> Formula:
    return Forall(x, NAT, Imp(Eq0(ZERO, Succ(Var(x))), BOT))


def axiom_instance(schema: str, **kw) -> Formula:
    """Dispatch by schema name: DNS, AC, IND, REFL, SYM, TRANS, SUCC_INJ,
    ZERO_SUCC."""
    match schema:
        case "DNS":
            return dns_instance(kw["rho"], kw["var"], kw["body"])
        case "AC":
            return ac_instance(kw["rho"], kw["sigma"], kw["xvar"], kw["yvar"], kw["body"],
                               kw.get("fvar", "f"))
        case "IND":
            return induction_instance(kw["var"], kw["body"])
        case "REFL":
            return refl_instance(kw["term"])
        case "SYM":
            return sym_instance()
        case "TRANS":
            return trans_instance()
        case "SUCC_INJ":
            return succ_inj_instance()
        case "ZERO_SUCC":
            return zero_succ_instance()
    raise KernelError(f"unknown axiom schema {schema!r}")


# ---------------------------------------------------------------------------
# The library


@dataclass(frozen=True)
class TheoremEntry:
    name: str
    context: Context
    annotation: Annotation
    proof: ProofTerm
    goal: Formula
    description: str
    axiom_realizers: Mapping[str, Term] = field(default_factory=dict)
    unrealizable: frozenset = frozenset()

    def check(self, sig: Signature = LIBRARY_SIGNATURE) -> CheckReport:
        return check_proof(sig, self.context, self.annotation, self.proof, self.goal)


def _ctx(**hyps: str) -> Context:
    return Context({}, {name: parse_formula(src) for name, src in hyps.items()})


def _entry(name: str, desc: str, goal: str, proof: str, ctx: Context = Context(),
           axiom_realizers=None, unrealizable=frozenset()) -> TheoremEntry:
    return TheoremEntry(
        name=name,
        context=ctx,
        annotation=Annotation.PLAIN,
        proof=parse_proof(proof),
        goal=parse_formula(goal),
        description=desc,
        axiom_realizers=axiom_realizers or {},
        unrealizable=frozenset(unrealizable),
    )


def build_library() -> list:
    """Every entry is accepted by check_proof; failures here are build bugs."""
    four = "S (S (S (S 0)))"
    hp = "(exists y:nat. T(x,x,y)) \\/ ~exists y:nat. T(x,x,y)"
    entries = [
        _entry(
            "dns_arrow",
            "shift of a double negation across a universal, arrow form",
            "(forall x:nat. ~~P(x)) -> ~~forall x:nat. P(x)",
            "fun h => fun k => reset (k (tfun x => shift k' => (h @ x) k'))",
        ),
        _entry(
            "dns_contra",
            "contrapositive form of the shift principle",
            "(~forall x:nat. P(x)) -> ~forall x:nat. ~~P(x)",
            "fun k => fun h => reset (k (tfun x => shift k' => (h @ x) k'))",
        ),
        _entry(
            "dns_lem",
            "double negation of the pointwise excluded middle",
            "~~forall x:nat. P(x) \\/ ~P(x)",
            "fun k => reset (k (tfun x => shift k' => k' (inr (fun a => k' (inl a)))))",
        ),
        _entry(
            "dns_conj",
            "refutation of the conjunctive counterexample form",
            "~((forall x:nat. ~~P(x)) /\\ ~forall x:nat. P(x))",
            "fun h => reset (snd h (tfun x => shift k => (fst h @ x) k))",
        ),
        _entry(
            "ac_bot",
            "inner translation of a choice instance from shifted choice",
            "(forall x:nat. ~~exists y:nat. A(x,y))"
            " -> ~~exists f:nat->nat. forall x:nat. ~~A(x, f x)",
            "fun a => fun k => d"
            " (tfun x => fun k' => (a @ x)"
            "   (fun a' => dest a' as [x', e] in k' [x', fun u => u e]))"
            " (fun b => k (c b))",
            ctx=_ctx(
                d="(forall x:nat. ~~exists y:nat. ~~A(x,y))"
                  " -> ~~forall x:nat. exists y:nat. ~~A(x,y)",
                c="(forall x:nat. exists y:nat. ~~A(x,y))"
                  " -> exists f:nat->nat. forall x:nat. ~~A(x, f x)",
            ),
            unrealizable={"d"},
        ),
        _entry(
            "mr_dns_core",
            "pivotal implication between the unfolded premise and conclusion",
            "(forall n:nat. ~~exists u:nat. M(n,u))"
            " -> ~~exists r:nat->nat. forall n:nat. M(n, r n)",
            "fun y => fun q => d y (fun v => q (c v))",
            ctx=_ctx(
                d="(forall n:nat. ~~exists u:nat. M(n,u))"
                  " -> ~~forall n:nat. exists u:nat. M(n,u)",
                c="(forall n:nat. exists u:nat. M(n,u))"
                  " -> exists r:nat->nat. forall n:nat. M(n, r n)",
            ),
            unrealizable={"d"},
        ),
        _entry(
            "nn_hp",
            "double negation of pointwise decidability of halting",
            f"~~forall x:nat. {hp}",
            "fun k => reset (k (tfun x => shift k' => k' (inr (fun a => k' (inl a)))))",
        ),
        _entry(
            "refute_via_hp",
            "refutation combinator: any property implying undecidability fails",
            "~P0",
            "fun p => reset (r p (tfun x => shift k' => k' (inr (fun a => k' (inl a)))))",
            ctx=_ctx(r=f"P0 -> ~forall x:nat. {hp}"),
        ),
        _entry(
            "ep_witness",
            "closed existential with a literal witness",
            f"exists x:nat. x = {four}",
            f"[{four}, refl4]",
            ctx=_ctx(refl4=f"{four} = {four}"),
            axiom_realizers={"refl4": STAR},
        ),
        _entry(
            "dp_flag",
            "closed disjunction introduced on the left",
            "(0 = 0) \\/ (0 = S 0)",
            "inl refl0",
            ctx=_ctx(refl0="0 = 0"),
            axiom_realizers={"refl0": STAR},
        ),
    ]
    return entries


@cache
def _entries_by_name() -> dict:
    return {e.name: e for e in build_library()}


def get_entry(name: str) -> TheoremEntry:
    """The library entry called ``name``.  The library is parsed on the first
    lookup only; every later lookup returns the same entry object."""
    return _entries_by_name()[name]


def verify_library() -> list:
    """(name, CheckReport) for every entry."""
    return [(e.name, e.check()) for e in build_library()]
