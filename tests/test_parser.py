"""Concrete syntax: parsing, printing, and the round-trip property."""

import random
import sys

import pytest

from dnsk import parser
from dnsk.parser import ParseError, parse_formula, parse_proof, parse_source, parse_term, parse_type
from dnsk.printer import print_formula, print_proof, print_term, print_type
from dnsk.syntax import (
    And, Arrow, Eq0, Fst, Hyp, Imp, Lam, NAT, PLam, PredApp, Prod, Proj1, Rec, Record,
    Shift, UNIT, Var, ZERO, alpha_eq_formula, neg, numeral,
)
from conftest import random_formula


def test_type_tokens():
    assert parse_type("nat -> nat * unit -> nat") == Arrow(
        NAT, Arrow(Prod(NAT, UNIT), NAT))
    assert print_type(parse_type("(nat -> nat) * unit")) == "(nat -> nat) * unit"


def test_term_tokens():
    t = parse_term("fun (x:nat) => rec[nat](x; 0; fun (n:nat) => fun (r:nat) => S r)")
    assert isinstance(t, Lam)
    assert isinstance(t.body, Rec)
    assert print_term(parse_term("(t, s).1")) == "(t, s).1"
    assert print_term(parse_term("S (S 0)")) == "S (S 0)"
    assert print_term(parse_term("star")) == "star"


def test_formula_tokens():
    a = parse_formula("~P(0)")
    assert isinstance(a, Imp)
    assert print_formula(a) == "~P(0)"
    b = parse_formula("forall x:nat. P(x) \\/ ~P(x)")
    assert print_formula(b) == "forall x:nat. P(x) \\/ ~P(x)"
    assert print_formula(parse_formula("0 = S 0 -> bot")) == "~0 = S 0"


def test_formula_precedence():
    # -> binds loosest and associates right; /\ binds tighter than \/
    a = parse_formula("P(0) \\/ P(0) /\\ R -> R -> R")
    assert isinstance(a, Imp)
    assert isinstance(a.right, Imp)


def test_proof_tokens():
    p = parse_proof("fun h => fun k => reset (k (tfun x => shift k' => (h @ x) k'))")
    assert isinstance(p, PLam)
    src = "case (inl a : R \\/ R) of b => b | c => c"
    assert print_proof(parse_proof(src)) == src
    assert print_proof(parse_proof("dest e as [x, a] in [x, a]")) == \
        "dest e as [x, a] in [x, a]"


def test_equation_needs_parens_on_applied_lhs():
    # an application on the left of '=' must be parenthesized to disambiguate
    a = parse_formula("(f x) = 0")
    assert print_formula(a) == "(f x) = 0"
    with pytest.raises(ParseError):
        parse_formula("exists")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_term("fun x => x")  # term binders are typed
    with pytest.raises(ParseError):
        parse_proof("(a,)")


def test_source_files():
    sf = parse_source(
        "pred P(nat).\n"
        "axiom ax : P(0) := star.\n"
        "proof t : P(0) := ax.\n"
        "check t.\n"
    )
    assert len(sf.decls) == 4


def test_source_rejects_duplicates_and_forward_refs():
    with pytest.raises(ParseError):
        parse_source("pred P(nat). pred P(nat).")
    with pytest.raises(ParseError):
        parse_source("check ghost.")


# a node of each entry of the tables the parser and the printer share, and
# its text
TABLE_NODES = (
    [(text, ctor(Hyp("h")), f"{text} h") for text, ctor in parser.PREFIX_OPS.items()]
    + [(text, ctor("x", Hyp("h")), f"{text} x => h") for text, ctor in parser.BINDERS.items()]
    + [(text, ctor("x", NAT, PredApp("P", (Var("x"),))), f"{text} x:nat. P(x)")
       for text, ctor in parser.QUANTIFIERS.items()]
)


@pytest.mark.parametrize("text, node, printed", TABLE_NODES, ids=[t for t, _, _ in TABLE_NODES])
def test_table_entries_print_with_their_text_and_parse_back(text, node, printed):
    if text in parser.QUANTIFIERS:
        assert (print_formula(node), parse_formula(printed)) == (printed, node)
    else:
        assert (print_proof(node), parse_proof(printed)) == (printed, node)


def test_keywords_hold_the_shared_tables():
    assert {*parser.PREFIX_OPS, *parser.BINDERS, *parser.QUANTIFIERS} <= parser.KEYWORDS


def test_formula_roundtrip_property():
    rng = random.Random(2024)
    for _ in range(300):
        a = random_formula(rng, 4)
        assert parse_formula(print_formula(a)) == a


def test_printed_library_proofs_roundtrip():
    from dnsk.theorems import build_library
    for e in build_library():
        assert parse_proof(print_proof(e.proof)) == e.proof
        assert alpha_eq_formula(parse_formula(print_formula(e.goal)), e.goal)


# (entry point, source, message, line, col), as the per-character scanner
# this parser replaced reported them
ERROR_POSITIONS = [
    (parse_term, "x $ y", "unexpected character '$'", 1, 3),
    (parse_source, "pred P(nat).\n\taxiom a : P(0) := star ?", "unexpected character '?'", 2, 25),
    (parse_formula, "P(x) /\\ Ⅳ", "unexpected character 'Ⅳ'", 1, 9),
    (parse_term, "(x", "expected ')', found 'end of input'", 1, 3),
    (parse_term, "(x # no newline", "expected ')', found 'end of input'", 1, 4),
    (parse_proof, "(a,)", "expected a proof term, found ')'", 1, 4),
    (parse_type, "nat ->", "expected a sort, found ''", 1, 7),
    (parse_term, "x )", "trailing input ')'", 1, 3),
    (parse_proof, "fun h =>\n  h\n  ]", "trailing input ']'", 3, 3),
    (parse_formula, "(f x)", "expected '=' after term in formula", 1, 1),
    (parse_formula, "P(0) ->\n  (f x) /\\ Q", "expected '=' after term in formula", 2, 3),
    (parse_source, "pred P(nat).\npred Q.\r\n pred P(nat).", "duplicate name 'P'", 3, 7),
    (parse_source, "pred P.\ncheck ghost.", "forward or unknown reference 'ghost'", 2, 7),
    (parse_source, "pred P.\n# comment\n  formula F := P.\n  translate kuroda G.",
     "forward or unknown reference 'G'", 4, 20),
]


@pytest.mark.parametrize("parse, src, message, line, col", ERROR_POSITIONS)
def test_error_positions(parse, src, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(src)
    assert (str(info.value), info.value.line, info.value.col) == \
        (f"{line}:{col}: {message}", line, col)


def test_speculative_parentheses_are_linear(monkeypatch):
    # each "(x.1)" is first tried as a parenthesized formula, which fails
    # and is caught: the error's position must not cost a scan per failure,
    # and the parser's calls, counted exactly, grow by the same number per
    # conjunct at every size
    scans = []
    locator = parser._locator

    def counted(src):
        scans.append(src)
        return locator(src)

    monkeypatch.setattr(parser, "_locator", counted)
    calls = []
    for name in ("formula", "_formula_operand", "term"):
        def counting(self, *args, _method=getattr(parser.Parser, name)):
            calls.append(_method)
            return _method(self, *args)
        monkeypatch.setattr(parser.Parser, name, counting)

    sizes = (100, 200, 400, 800, 1600, 3200)
    totals = []
    for n in sizes:
        scans.clear()
        calls.clear()
        parse_formula(" /\\ ".join(["(x.1) = 0"] * n))
        assert len(scans) <= 1, (n, len(scans))
        totals.append(len(calls))
    per_conjunct = {(b - a) / (m - n) for a, b, n, m in zip(totals, totals[1:], sizes, sizes[1:])}
    assert len(per_conjunct) == 1, dict(zip(sizes, totals))


def chain(n, step, base):
    for _ in range(n):
        base = step(base)
    return base


def same_tree(a, b):
    """``a == b`` on an explicit stack: a record compares its fields by
    recursion, which a chain 2000 deep exhausts."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, (Record, tuple)):
            fields = (a, b) if type(a) is tuple else (a._values(a), b._values(b))
            if len(fields[0]) != len(fields[1]):
                return False
            stack.extend(zip(*fields))
        elif a != b:
            return False
    return True


P = PredApp("P", ())
CATEGORIES = {
    "sort": (parse_type, print_type), "term": (parse_term, print_term),
    "formula": (parse_formula, print_formula), "proof": (parse_proof, print_proof),
}
# (category, source, node, the printed node if it is not the source)
DEPTH_TABLE = [
    pytest.param("proof", "fst " * 2000 + "h", chain(2000, Fst, Hyp("h")), None, id="fst-2000"),
    pytest.param("formula", "~" * 2000 + "P", chain(2000, neg, P), None, id="neg-2000"),
    pytest.param("formula", " /\\ ".join(["P"] * 5000), chain(4999, lambda a: And(P, a), P),
                 None, id="and-5000"),
    pytest.param("formula", " /\\ ".join(["(x.1) = 0"] * 5000),
                 chain(4999, lambda a: And(Eq0(Proj1(Var("x")), ZERO), a),
                       Eq0(Proj1(Var("x")), ZERO)),
                 " /\\ ".join(["x.1 = 0"] * 5000), id="and-eq-5000"),
    pytest.param("formula", " -> ".join(["P"] * 2001), chain(2000, lambda a: Imp(P, a), P),
                 None, id="imp-2000"),
    pytest.param("sort", " -> ".join(["nat"] * 2001), chain(2000, lambda s: Arrow(NAT, s), NAT),
                 None, id="arrow-2000"),
    pytest.param("term", "S " * 2000 + "0", numeral(2000), "S (" * 1999 + "S 0" + ")" * 1999,
                 id="succ-2000"),
    pytest.param("term", "x" + ".1" * 2000, chain(2000, Proj1, Var("x")), None, id="proj1-2000"),
    pytest.param("term", "S (" * 499 + "S 0" + ")" * 499, numeral(500), None, id="numeral-500"),
    pytest.param("proof", "fst (" * 200 + "h" + ")" * 200, chain(200, Fst, Hyp("h")),
                 "fst " * 200 + "h", id="fst-parens-200"),
]


@pytest.mark.parametrize("category, src, node, printed", DEPTH_TABLE)
def test_deep_input_parses_and_round_trips(category, src, node, printed):
    # at the default recursion limit: the parser reads chains in loops and
    # spends one frame per parenthesis of a term or a proof
    parse, show = CATEGORIES[category]
    assert same_tree(parse(src), node)
    text = show(node)
    assert text == (src if printed is None else printed)
    # the printer writes an S chain as nested parentheses, one frame each
    # when read back, so the 1999 levels of succ-2000 are past the limit
    if text.count("(") < sys.getrecursionlimit():
        assert same_tree(parse(text), node)
