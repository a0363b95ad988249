"""Proof kernel for higher-type arithmetic with delimited control.

Modules: syntax (abstract syntax and substitution), parser/printer
(concrete grammar), typecheck (the annotated natural-deduction checker),
translate (double-negation, realizability, witness/challenge translations),
extract (realizer extraction), evaluate (term and proof-term reduction,
bounded formula evaluation), theorems (the checked library), cli.
"""

from .syntax import (
    And, App, Arrow, Ascribe, BOT, Bot, Case, Dest, Efq, Eq0, ExPair, Exists,
    Forall, Formula, Hyp, Imp, KernelError, KindedError, Lam, NAT, Nat, Or,
    PApp, PLam, PPair, Pair, PredApp, ProofTerm, Prod, Proj1, Proj2, Rec,
    Reset, Shift, Signature, SimpleType, STAR, Star, Succ, TApp, TLam, Term,
    UNIT, Unit, Var, ZERO, Zero, Fst, Snd, Inl, Inr,
    alpha_eq_formula, alpha_eq_proof, alpha_eq_term, contains_control,
    contains_shift, fresh_name, fv_formula, fv_term, is_prime, neg, numeral,
    numeral_value, subst_formula, subst_term,
)
from .parser import ParseError, parse_formula, parse_proof, parse_source, parse_term, parse_type
from .printer import print_formula, print_proof, print_term, print_type
from .typecheck import (
    Annotation, CheckFailure, CheckReport, Context, Derivation, SortError,
    check_proof, infer_term_type, wf_formula,
)
from .translate import (
    DiaTypes, TranslationError, dia_formula, dia_nn_simplify, dia_types,
    kuroda, kuroda_inner, mr_formula, mr_type, mrt_formula, spector_target,
)
from .extract import ExtractionEnv, ExtractionError, ac_realizer, extract_mr
from .evaluate import (
    EvalError, FuelExhausted, IllSorted, Stuck, eval_formula_bounded,
    normalize_proof, normalize_term,
)
from .theorems import (
    LIBRARY_SIGNATURE, TheoremEntry, axiom_instance, build_library,
    get_entry, verify_library,
)

__version__ = "0.1.0"
