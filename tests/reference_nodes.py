"""The kernel's record classes as they were defined with ``dataclasses``:
verbatim copies of the 40 classes of ``syntax.py``, the seven of
``parser.py``, the four of ``typecheck.py`` and ``ExtractionEnv``,
``TheoremEntry`` and ``DiaTypes``, but for the imports.  The constants
``NAT``, ``UNIT``, ``STAR``, ``ZERO`` and ``BOT`` are kept beside their
classes.  ``tests/test_nodes.py`` compares the kernel's record classes with
these on ``repr``, equality, hashing, pattern matching, construction,
immutability, field names and copying."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from dnsk.typecheck import Annotation, CheckReport, check_proof
from dnsk.theorems import LIBRARY_SIGNATURE


# ---------------------------------------------------------------------------
# syntax.py


@dataclass(frozen=True)
class Nat:
    def __repr__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class Unit:
    def __repr__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class Arrow:
    dom: "SimpleType"
    cod: "SimpleType"


@dataclass(frozen=True)
class Prod:
    left: "SimpleType"
    right: "SimpleType"


SimpleType = Union[Nat, Unit, Arrow, Prod]

NAT = Nat()
UNIT = Unit()


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    var: str
    sort: SimpleType
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Pair:
    fst: "Term"
    snd: "Term"


@dataclass(frozen=True)
class Proj1:
    arg: "Term"


@dataclass(frozen=True)
class Proj2:
    arg: "Term"


@dataclass(frozen=True)
class Star:
    pass


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Succ:
    arg: "Term"

    # a numeral nests one Succ per unit, deeper than the Python stack allows
    # the generated recursive __eq__ and __hash__, so these walk the chain
    def __eq__(self, other):
        if other.__class__ is not Succ:
            return NotImplemented
        a, b = self, other
        while a.__class__ is Succ and b.__class__ is Succ:
            if a is b:
                return True
            a, b = a.arg, b.arg
        return a == b

    def __hash__(self):
        k, t = 0, self
        while t.__class__ is Succ:
            k += 1
            t = t.arg
        return hash((k, t))


@dataclass(frozen=True)
class Rec:
    sort: SimpleType
    scrut: "Term"
    base: "Term"
    step: "Term"


Term = Union[Var, Lam, App, Pair, Proj1, Proj2, Star, Zero, Succ, Rec]

STAR = Star()
ZERO = Zero()


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Eq0:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class PredApp:
    sym: str
    args: tuple


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    sort: SimpleType
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    sort: SimpleType
    body: "Formula"


Formula = Union[Bot, Eq0, PredApp, And, Or, Imp, Forall, Exists]

BOT = Bot()


@dataclass(frozen=True)
class Hyp:
    name: str


@dataclass(frozen=True)
class PPair:
    fst: "ProofTerm"
    snd: "ProofTerm"


@dataclass(frozen=True)
class Fst:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Snd:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Inl:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Inr:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Case:
    scrut: "ProofTerm"
    left_name: str
    left: "ProofTerm"
    right_name: str
    right: "ProofTerm"


@dataclass(frozen=True)
class PLam:
    hyp: str
    body: "ProofTerm"


@dataclass(frozen=True)
class PApp:
    fn: "ProofTerm"
    arg: "ProofTerm"

    # normal forms such as f (g (... a)) nest one PApp per application in
    # the argument, deeper than the Python stack allows the generated
    # recursive __eq__ and __hash__, so these walk the arg chain as Succ does
    def __eq__(self, other):
        if other.__class__ is not PApp:
            return NotImplemented
        a, b = self, other
        while a.__class__ is PApp and b.__class__ is PApp:
            if a is b:
                return True
            if a.fn != b.fn:
                return False
            a, b = a.arg, b.arg
        return a == b

    def __hash__(self):
        fns, t = [], self
        while t.__class__ is PApp:
            fns.append(t.fn)
            t = t.arg
        return hash((tuple(fns), t))


@dataclass(frozen=True)
class TLam:
    var: str
    body: "ProofTerm"


@dataclass(frozen=True)
class TApp:
    fn: "ProofTerm"
    arg: Term


@dataclass(frozen=True)
class ExPair:
    witness: Term
    body: "ProofTerm"


@dataclass(frozen=True)
class Dest:
    scrut: "ProofTerm"
    var: str
    hyp: str
    body: "ProofTerm"


@dataclass(frozen=True)
class Efq:
    arg: "ProofTerm"


@dataclass(frozen=True)
class Reset:
    body: "ProofTerm"


@dataclass(frozen=True)
class Shift:
    hyp: str
    body: "ProofTerm"


@dataclass(frozen=True)
class Ascribe:
    body: "ProofTerm"
    formula: Formula


ProofTerm = Union[
    Hyp, PPair, Fst, Snd, Inl, Inr, Case, PLam, PApp, TLam, TApp,
    ExPair, Dest, Efq, Reset, Shift, Ascribe,
]


@dataclass(frozen=True)
class Signature:
    """Declared predicate symbols and their argument sorts."""

    predicates: Mapping[str, tuple]

    def arity(self, sym: str):
        return self.predicates.get(sym)


# ---------------------------------------------------------------------------
# parser.py


@dataclass
class PredDecl:
    name: str
    sorts: tuple


@dataclass
class FormulaDecl:
    name: str
    formula: Formula


@dataclass
class AxiomDecl:
    name: str
    formula: Formula
    realizer: Optional[Term] = None


@dataclass
class ProofDecl:
    name: str
    annotation: str  # 'plain' or 'bot'
    goal: Formula
    proof: ProofTerm


@dataclass
class TermDecl:
    name: str
    sort: SimpleType
    term: Term


@dataclass
class Directive:
    kind: str  # 'check' | 'translate' | 'extract' | 'eval'
    name: str
    mode: Optional[str] = None


@dataclass
class SourceFile:
    decls: list = field(default_factory=list)

    def of_type(self, cls):
        return [d for d in self.decls if isinstance(d, cls)]


# ---------------------------------------------------------------------------
# typecheck.py


@dataclass(frozen=True)
class Context:
    """Typing context: individual variables and named hypotheses."""

    term_vars: Mapping[str, SimpleType] = field(default_factory=dict)
    hyps: Mapping[str, Formula] = field(default_factory=dict)

    def with_var(self, name: str, sort: SimpleType) -> "Context":
        return Context({**self.term_vars, name: sort}, self.hyps)

    def with_hyp(self, name: str, formula: Formula) -> "Context":
        return Context(self.term_vars, {**self.hyps, name: formula})


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


# ---------------------------------------------------------------------------
# extract.py


@dataclass(frozen=True)
class ExtractionEnv:
    """Realizers for the open hypotheses of a derivation.

    hyp_realizers maps a hypothesis name to the term variable standing for
    its realizer; axiom_realizers maps an axiom-instance name to a closed
    realizer term; names in unrealizable are rejected outright when used."""

    hyp_realizers: Mapping[str, str] = field(default_factory=dict)
    axiom_realizers: Mapping[str, Term] = field(default_factory=dict)
    unrealizable: frozenset = frozenset()


# ---------------------------------------------------------------------------
# theorems.py


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


# ---------------------------------------------------------------------------
# translate.py


@dataclass(frozen=True)
class DiaTypes:
    witness: SimpleType
    challenge: SimpleType
