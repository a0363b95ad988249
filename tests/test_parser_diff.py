"""``dnsk.parser`` against the scanner and parser it replaced
(``reference_parser``).  On seeded random token streams, on the lexer's
edge cases and on mutated generated sources, ``tokenize`` gives the same
texts and each of the five ``parse_*`` entry points gives an equal result,
or a ``ParseError`` with the same text, line and column.

The agreement of the lexer's regular expression with ``str.isalpha``,
``str.isalnum`` and ``str.isspace`` rests on each interpreter's Unicode
tables, so the check also runs without pytest, on the standard library
alone, and then tries every code point:

    PYTHONPATH=src python tests/test_parser_diff.py [scale]
"""

import pathlib
import random
import sys

import reference_parser as ref
from conftest import random_derivation, random_formula
from dnsk import parser as new
from dnsk.parser import ParseError
from dnsk.printer import print_formula, print_proof
from dnsk.theorems import build_library

ENTRIES = ("parse_type", "parse_term", "parse_formula", "parse_proof", "parse_source")

NAMES = ["x", "y", "f", "P", "Q", "R", "a", "h", "k", "x'", "_", "_1", "n0",
         "é", "ℵ0", "a²", "xⅣ", "α'", "pred", "formula", "axiom", "proof",
         "term", "check", "translate", "extract", "eval", "kuroda"]
# characters that start no token, alone or before a name
ODD = ["1", "'", "²", "Ⅳ", "½", "٣", "$", "-", "/", "\\", "¬", "́", "?", "!"]
SPACES = ["", " ", " ", "  ", "\n", "\t", "\r", "\r\n", "\x0b", "\x0c", "\x1c",
          "\x85", "\xa0", " ", " ", "　", " # note\n", "#\n"]
VOCAB = sorted(ref.KEYWORDS) + ref.PUNCT + NAMES + ["0"]

EDGE_CASES = [
    "", " ", "\n", "#", "# only a comment", "x # no newline", "(x # no newline",
    "x\n# two\n# comments", "pred P. # end", "²", "Ⅳ", "x²", "xⅣ", "²x", "Ⅳ = 0",
    "P(²)", "1", "01", "x1", "x.12", "'", "x'", "''", "\r", "\t", "\x0b", " ",
    "x\ry", "x\tY", "x\x0b=\x0c0", "S 0 = 0", "P(0) /\\ R", "fun x => x",
    "(a,)", "(f x)", "(f x) = 0", "(x.1) = 0", "nat ->", "-> nat", "a -", "a / b",
    "a \\ b", "check ghost.", "pred P. pred P.", "pred P(nat).\n  check P.",
]


def outcome(fn, src):
    try:
        return ("ok", fn(src))
    except ParseError as e:
        return ("error", str(e), e.line, e.col)
    except RecursionError:
        return ("too deep",)


def mismatches(src: str) -> list:
    """The functions on which the two front ends disagree about ``src``."""
    out = []
    if outcome(lambda s: [t.text for t in ref.tokenize(s)], src) != outcome(new.tokenize, src):
        out.append("tokenize")
    for name in ENTRIES:
        if outcome(getattr(ref, name), src) != outcome(getattr(new, name), src):
            out.append(name)
    return out


def assert_agree(sources) -> None:
    bad = [(src, diff) for src in sources if (diff := mismatches(src))]
    assert not bad, f"{len(bad)} sources disagree, first: {bad[:3]}"


def token_stream(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randrange(0, 24)):
        parts.append(rng.choice(ODD) if rng.random() < 0.04 else rng.choice(VOCAB))
        parts.append(rng.choice(SPACES) if rng.random() < 0.8 else "")
    if rng.random() < 0.1:
        parts.append("# trailing comment")
    return "".join(parts)


def generated_sources(rng: random.Random) -> list:
    """Texts the parsers accept: the samples, the library's goals and
    proofs, and printed random formulas and derivations."""
    samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
    out = [p.read_text(encoding="utf-8") for p in sorted(samples.glob("*.dnsk"))]
    for e in build_library():
        out += [print_formula(e.goal), print_proof(e.proof)]
    out += [print_formula(random_formula(rng, 4)) for _ in range(40)]
    for _ in range(40):
        hyps, p, a = random_derivation(rng, rng.randrange(1, 6))
        out.append(print_proof(p))
        ctx = "\n".join(f"axiom {h} : {print_formula(f)}." for h, f in hyps.items())
        out.append(f"pred P(nat).\npred Q(nat, nat).\npred R.\n{ctx}\n"
                   f"proof t : {print_formula(a)} := {print_proof(p)}.\ncheck t.\n")
    return out


def mutate(rng: random.Random, src: str) -> str:
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(src) + 1)
        kind = rng.randrange(5)
        if kind == 0:
            src = src[:i] + src[i + rng.randrange(1, 6):]
        elif kind == 1:
            src = src[:i] + rng.choice(VOCAB + ODD) + src[i:]
        elif kind == 2:
            src = src[:i] + rng.choice(SPACES) + src[i:]
        elif kind == 3:
            src = src[:i]
        else:
            src = src[:i] + rng.choice(ODD) + src[i + 1:]
    return src


def test_edge_cases_agree():
    assert_agree(EDGE_CASES)
    # a comment that ends the input holds the end marker at its '#'
    assert outcome(new.parse_term, "(x # no newline") == \
        ("error", "1:4: expected ')', found 'end of input'", 1, 4)


def test_code_points_agree(step=61):
    # each character alone, starting and ending a name, and after a space;
    # surrogates cannot be encoded, so no source file holds one
    chars = (chr(i) for i in range(0, sys.maxunicode + 1, step) if not 0xD800 <= i < 0xE000)
    for c in chars:
        for src in (c, f"x{c}", f"{c}x", f"x {c}"):
            old = outcome(lambda s: [t.text for t in ref.tokenize(s)], src)
            assert old == outcome(new.tokenize, src), (hex(ord(c)), src)


def test_random_token_streams_agree(cases=2000):
    rng = random.Random(909)
    assert_agree(token_stream(rng) for _ in range(cases))


def test_mutated_sources_agree(cases=1000):
    rng = random.Random(4242)
    sources = generated_sources(rng)
    assert_agree(sources)
    assert_agree(mutate(rng, rng.choice(sources)) for _ in range(cases))


if __name__ == "__main__":
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    total = len(EDGE_CASES)
    test_edge_cases_agree()
    test_code_points_agree(step=1)
    test_random_token_streams_agree(2000 * scale)
    test_mutated_sources_agree(1000 * scale)
    total += 3000 * scale
    print(f"python {sys.version.split()[0]}: every code point in 4 contexts "
          f"and {total} sources, 0 mismatches")
