"""The four workloads: their inputs, their operations and the checks on
every operation's output.

A workload is a pool of rounds.  A round is a fixed list of operations; the
runner repeats whole rounds, cycling through the pool, so every run attempts
the same mix and the share of failed operations never depends on the seed or
the run length.  An operation is timed around its calls into the program
only; its check runs after the clock stops.

Properties of an input (a step count, subject reduction, idempotence, a
classical equivalence) are verified the first time the input is run; later
runs of the same input must give an output equal to the first one.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from dnsk.evaluate import eval_formula_bounded, normalize_proof, normalize_term
from dnsk.extract import ExtractionEnv, extract_mr
from dnsk.parser import (
    AxiomDecl, FormulaDecl, PredDecl, ProofDecl, TermDecl, parse_formula,
    parse_proof, parse_source, parse_term, parse_type,
)
from dnsk.printer import print_formula, print_proof, print_term, print_type
from dnsk.syntax import (
    NAT, ZERO, Eq0, Signature, Var, alpha_eq_formula, alpha_eq_proof,
    alpha_eq_term, fresh_name, fv_formula, neg, numeral,
)
from dnsk.theorems import LIBRARY_SIGNATURE, build_library, get_entry
from dnsk.translate import (
    dia_formula, dia_nn_simplify, dia_types, kuroda, kuroda_inner, mr_formula,
    mr_type, mrt_formula, spector_target,
)
from dnsk.typecheck import Annotation, Context, check_proof, infer_term_type

import gen
import oracle
from tracing import PROBE_MARK

SIGNATURE = Signature({**LIBRARY_SIGNATURE.predicates, "Q": (NAT, NAT), "R": ()})
FUEL = 1_000_000
TRANSLATE_MODES = ("kuroda", "kuroda-inner", "mr", "mrt", "dia", "dia-nn", "spector")


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]        # tracer -> output
    check: Callable[[Any], None]     # output -> None, raises CheckFailed
    may_fail: bool = False           # a known fault makes it raise


class FirstSeen:
    """Runs the property checks on the first output of an input, and
    requires ``key`` of every later output to equal that of the first."""

    def __init__(self, verify, key=lambda out: out):
        self.verify = verify
        self.key = key
        self.seen = False
        self.first = None

    def __call__(self, out) -> None:
        if not self.seen:
            self.verify(out)
            self.seen, self.first = True, self.key(out)
        else:
            expect(self.key(out) == self.first, "output differs from the first run of this input")


def _annotation(decl) -> Annotation:
    return Annotation.BOT if decl.annotation == "bot" else Annotation.PLAIN


def source_context(sf) -> tuple:
    """The signature and context a source file declares, as ``dnsk check``
    builds them."""
    sig = Signature({d.name: d.sorts for d in sf.of_type(PredDecl)})
    ctx = Context()
    for d in sf.decls:
        if isinstance(d, AxiomDecl):
            ctx = ctx.with_hyp(d.name, d.formula)
        elif isinstance(d, TermDecl):
            ctx = ctx.with_var(d.name, d.sort)
    return sig, ctx


def translate_all(tr, sig, name: str, a) -> dict:
    """Every translation mode on one formula, printed as ``dnsk translate``
    prints it: mode -> list of output lines."""
    free = fv_formula(a)
    out = {}
    out["kuroda"] = [f"{name} : {tr.call('printer.print_formula', print_formula, tr.call('translate.kuroda', kuroda, a))}"]
    out["kuroda-inner"] = [f"{name} : {tr.call('printer.print_formula', print_formula, tr.call('translate.kuroda_inner', kuroda_inner, a))}"]
    for mode, fn in (("mr", mr_formula), ("mrt", mrt_formula)):
        t = fresh_name("t", free)
        sort = mr_type(a)
        body = tr.call(f"translate.{fn.__name__}", fn, sig, {t: sort}, Var(t), a)
        out[mode] = [f"{name} : {t} : {print_type(sort)}",
                     f"{name} : {tr.call('printer.print_formula', print_formula, body)}"]
    w = fresh_name("w", free)
    c = fresh_name("c", free | {w})
    for mode in ("dia", "dia-nn"):
        d = dia_types(a if mode == "dia" else neg(neg(a)))
        vars_ = {w: d.witness, c: d.challenge}
        if mode == "dia":
            body = tr.call("translate.dia_formula", dia_formula, sig, vars_, Var(w), Var(c), a)
        else:
            body = tr.call("translate.dia_nn_simplify", dia_nn_simplify, sig, vars_, a, Var(w), Var(c))
        out[mode] = [f"{name} : {w} : {print_type(d.witness)}, {c} : {print_type(d.challenge)}",
                     f"{name} : {tr.call('printer.print_formula', print_formula, body)}"]
    t = fresh_name("t", free)
    d = dia_types(neg(neg(a)))
    body = tr.call("translate.spector_target", spector_target, sig, a, t)
    out["spector"] = [f"{name} : {t} : {print_type(d.witness)}",
                      f"{name} : {tr.call('printer.print_formula', print_formula, body)}"]
    return out


def check_translation(name: str, a, mode: str, lines: list, tables: list) -> None:
    """Check ``dnsk translate`` output lines for one formula against sorts
    computed apart from the program and, for the double-negation modes,
    against classical truth on the bounded domain."""
    expect(all(line.startswith(f"{name} : ") for line in lines), f"{name}/{mode}: line names")
    body = parse_formula(lines[-1][len(name) + 3:])
    if mode in ("kuroda", "kuroda-inner"):
        expect(len(lines) == 1, f"{name}/{mode}: one line")
        for bound, table in tables:
            expect(oracle.formula_holds(body, bound, table) == oracle.formula_holds(a, bound, table),
                   f"{name}/{mode}: translation disagrees classically with the formula")
        return
    expect(len(lines) == 2, f"{name}/{mode}: two lines")
    head = lines[0][len(name) + 3:]
    if mode in ("mr", "mrt"):
        sort = head.split(" : ", 1)[1]
        expect(parse_type(sort) == oracle.realizer_sort(a), f"{name}/{mode}: realizer sort")
    elif mode in ("dia", "dia-nn"):
        wpart, cpart = head.split(", ", 1)
        src = a if mode == "dia" else neg(neg(a))
        w_sort, c_sort = oracle.witness_challenge_sorts(src)
        expect(parse_type(wpart.split(" : ", 1)[1]) == w_sort, f"{name}/{mode}: witness sort")
        expect(parse_type(cpart.split(" : ", 1)[1]) == c_sort, f"{name}/{mode}: challenge sort")
    else:
        w_sort, _ = oracle.witness_challenge_sorts(neg(neg(a)))
        expect(parse_type(head.split(" : ", 1)[1]) == w_sort, f"{name}/spector: witness sort")


# ---------------------------------------------------------------------------
# corpus: generated .dnsk sources through parse, check, round trip, translate


@dataclass
class CorpusText:
    text: str
    proofs: dict      # proof name -> (expected rejection kind or None, library entry or None)
    formulas: dict    # formula name -> (formula, [(bound, tables)])


LIBRARY_MUTABLE = ("dns_arrow", "dns_contra", "dns_lem", "dns_conj", "nn_hp")
CORPUS_BUDGETS = (60, 120, 180)
DEEP_FST = 200
DEEP_NUMERAL = 500


def _axiom(name: str, a, realizer=None) -> str:
    tail = f" := {print_term(realizer)}" if realizer is not None else ""
    return f"axiom {name} : {print_formula(a)}{tail}."


def corpus_text(rng: random.Random, library: list, n_formulas: int) -> CorpusText:
    lines = [gen.PRED_DECLS]
    proofs, formulas = {}, {}
    by_name = {e.name: e for e in library}
    for j, budget in enumerate(CORPUS_BUDGETS):
        d = gen.DerivationGen(rng, prefix=f"d{j}_").build(budget)
        lines += [_axiom(h, a) for h, a in d.hyps.items()]
        lines.append(f"proof d{j} : {print_formula(d.goal)} := {print_proof(d.proof)}.")
        proofs[f"d{j}"] = (None, None)
    d = gen.DerivationGen(rng, prefix="m_").build(CORPUS_BUDGETS[0])
    proof, goal, kind = gen.mutate(rng, d, "m")
    lines += [_axiom(h, a) for h, a in d.hyps.items()]
    lines.append(f"proof mutant : {print_formula(goal)} := {print_proof(proof)}.")
    proofs["mutant"] = (kind, None)
    # library entries; ac_bot and mr_dns_core both name their context d and c
    names = sorted(by_name)
    names.remove(rng.choice(("ac_bot", "mr_dns_core")))
    for name in sorted(rng.sample(names, 3)):
        e = by_name[name]
        for h, a in e.context.hyps.items():
            lines.append(_axiom(h, a, e.axiom_realizers.get(h)))
        lines.append(f"proof {name} : {print_formula(e.goal)} := {print_proof(e.proof)}.")
        proofs[name] = (None, name)
    name = rng.choice(LIBRARY_MUTABLE)
    mutated = gen.drop_first_reset(by_name[name].proof)
    lines.append(f"proof {name}_noreset : {print_formula(by_name[name].goal)} := {print_proof(mutated)}.")
    proofs[f"{name}_noreset"] = ("AnnotationViolation", name)
    for j in range(n_formulas):
        a = gen.formula(rng, 3)
        lines.append(f"formula f{j} := {print_formula(a)}.")
        formulas[f"f{j}"] = (a, [(3, gen.pred_tables(rng, 3)) for _ in range(2)])
    return CorpusText("\n".join(lines) + "\n", proofs, formulas)


def deep_texts() -> list:
    """Fixed inputs nested past the parser's recursion depth: a 200-deep
    ``fst (fst (...))`` proof and a 500-deep numeral."""
    fst = CorpusText(
        gen.PRED_DECLS + "axiom h : P(0).\nproof deep : P(0) := "
        + "fst (" * DEEP_FST + "h" + ")" * DEEP_FST + ".\n",
        {"deep": ("FormulaMismatch", None)}, {})
    num_formula = Eq0(numeral(DEEP_NUMERAL), ZERO)
    num = CorpusText(
        gen.PRED_DECLS + "formula big := " + "S (" * DEEP_NUMERAL + "0" + ")" * DEEP_NUMERAL
        + " = 0.\n", {}, {"big": (num_formula, [(3, {})])})
    return [fst, num]


def corpus_run(tr, item: CorpusText):
    sf = tr.call("parser.parse_source", parse_source, item.text)
    sig, ctx = source_context(sf)
    reports, round_trips, library_reports, translations = {}, {}, {}, {}
    for decl in sf.of_type(ProofDecl):
        rep = tr.call("typecheck.check_proof", check_proof, sig, ctx, _annotation(decl),
                      decl.proof, decl.goal)
        reports[decl.name] = rep
        if tr.on:
            tr.count("typecheck.check_proof.rejected", 0 if rep.ok else 1)
            if rep.ok:
                tr.count("typecheck.derivation_nodes", oracle.derivation_nodes(rep.derivation))
        text = tr.call("printer.print_proof", print_proof, decl.proof)
        round_trips[decl.name] = tr.call("parser.parse_proof", parse_proof, text)
        entry_name = item.proofs.get(decl.name, (None, None))[1]
        if entry_name is not None:
            e = tr.call("theorems.get_entry", get_entry, entry_name)
            library_reports[decl.name] = tr.call("typecheck.check_proof", check_proof,
                                                 LIBRARY_SIGNATURE, e.context, e.annotation,
                                                 decl.proof, e.goal)
    for decl in sf.of_type(FormulaDecl):
        translations[decl.name] = translate_all(tr, sig, decl.name, decl.formula)
    return sf, reports, round_trips, library_reports, translations


def corpus_check(item: CorpusText):
    def verify(out):
        sf, reports, round_trips, library_reports, translations = out
        proofs = {d.name: d for d in sf.of_type(ProofDecl)}
        expect(set(proofs) == set(item.proofs), "parsed proof names")
        expect(set(translations) == set(item.formulas), "parsed formula names")
        for name, (kind, entry) in item.proofs.items():
            rep = reports[name]
            if kind is None:
                expect(rep.ok, f"{name}: generated proof rejected: {rep.error}")
            else:
                expect(not rep.ok and rep.error.kind == kind,
                       f"{name}: mutant should be rejected with {kind}, got {rep.to_dict()}")
            if entry is not None:
                lib = library_reports[name]
                expect(lib.ok == rep.ok and (lib.ok or lib.error.kind == kind),
                       f"{name}: library check disagrees")
            expect(alpha_eq_proof(round_trips[name], proofs[name].proof),
                   f"{name}: print/parse round trip is not alpha-equal")
        for name, (a, tables) in item.formulas.items():
            decl = next(d for d in sf.of_type(FormulaDecl) if d.name == name)
            expect(alpha_eq_formula(decl.formula, a), f"{name}: parsed formula")
            for mode in TRANSLATE_MODES:
                check_translation(name, a, mode, translations[name][mode], tables)

    def key(out):
        sf, reports, round_trips, library_reports, translations = out
        return ({k: r.to_dict() for k, r in reports.items()},
                {k: r.to_dict() for k, r in library_reports.items()},
                round_trips, translations)

    return FirstSeen(verify, key)


def corpus_pool(rng: random.Random, tiny: bool) -> list:
    library = build_library()
    n_rounds, n_texts = (1, 2) if tiny else (6, 10)
    deep = deep_texts()
    pool = []
    for _ in range(n_rounds):
        items = [corpus_text(rng, library, 4) for _ in range(n_texts)]
        ops = [Op("text", lambda tr, it=it: corpus_run(tr, it), corpus_check(it)) for it in items]
        ops += [Op("deep", lambda tr, it=it: corpus_run(tr, it), corpus_check(it), may_fail=True)
                for it in deep]
        pool.append(ops)
    return pool


# ---------------------------------------------------------------------------
# realize: extraction, System T normalization, bounded evaluation

DERIVATION_BUDGETS = (80, 160, 240) * 6
ADD_LADDER = (10, 20, 40, 80)
MUL_LADDER = (2, 4, 6, 8)
FORMULA_BOUND = 4


def realize_derivation_op(d: gen.GenDerivation) -> Op:
    env = ExtractionEnv({h: f"x_{h}" for h in d.hyps}, {}, frozenset())
    vars_ = {f"x_{h}": oracle.realizer_sort(a) for h, a in d.hyps.items()}
    want = oracle.realizer_sort(d.goal)
    ctx = Context({}, d.hyps)

    def run(tr):
        rep = tr.call("typecheck.check_proof", check_proof, SIGNATURE, ctx, Annotation.PLAIN,
                      d.proof, d.goal)
        realizer = tr.call("extract.extract_mr", extract_mr, rep.derivation, env)
        sort = tr.call("typecheck.infer_term_type", infer_term_type, vars_, realizer)
        nf = tr.call("evaluate.normalize_term.realizer", normalize_term, vars_, realizer)
        if tr.on:
            tr.count("typecheck.derivation_nodes", oracle.derivation_nodes(rep.derivation))
            tr.count("extract.realizer_nodes", gen.syntax_nodes(realizer))
        return rep, realizer, sort, nf

    def verify(out):
        rep, realizer, sort, nf = out
        expect(sort == want, "realizer sort differs from the realizer sort of the goal")
        expect(alpha_eq_term(normalize_term(vars_, nf), nf), "normalize_term is not idempotent")
        expect(infer_term_type(vars_, nf) == want, "normal form changed sort")

    first = FirstSeen(verify, lambda out: (out[2], out[3]))

    def check(out):
        expect(out[0].ok, f"generated derivation rejected: {out[0].error}")
        first(out)

    return Op("derivation", run, check)


def realize_arith_op(a: gen.Arith) -> Op:
    def run(tr):
        return tr.call(f"evaluate.normalize_term.{a.label}", normalize_term, {}, a.term)

    def check(nf):
        expect(oracle.numeral_int(nf) == a.value, f"{a.label}: got {print_term(nf)[:60]}")

    return Op(a.label, run, check)


def realize_formula_op(a, bound: int, tables: dict) -> Op:
    want = oracle.formula_holds(a, bound, tables)

    def run(tr):
        tr.count("evaluate.eval_formula_bounded.calls")
        return tr.call("evaluate.eval_formula_bounded", eval_formula_bounded, SIGNATURE, a,
                       bound, tables)

    def check(value):
        expect(value is want, "bounded evaluation disagrees with the integer evaluator")

    return Op("formula", run, check)


def realize_pool(rng: random.Random, tiny: bool) -> list:
    pool = []
    for _ in range(1 if tiny else 16):
        ops = [realize_derivation_op(gen.DerivationGen(rng).build(b)) for b in DERIVATION_BUDGETS]
        ops += [realize_arith_op(gen.arith(rng, "add", m)) for m in ADD_LADDER]
        ops += [realize_arith_op(gen.arith(rng, "mul", m)) for m in MUL_LADDER]
        for _ in range(2 if tiny else 4):
            ops.append(realize_formula_op(gen.formula(rng, 3, FORMULA_BOUND, rec_terms=True),
                                          FORMULA_BOUND, gen.pred_tables(rng, FORMULA_BOUND)))
        rng.shuffle(ops)
        pool.append(ops)
    return pool


# ---------------------------------------------------------------------------
# control: shift/reset proof reduction

NEST_LADDER = (10, 20, 40, 80)
REDEX_LADDER = (25, 50, 100, 200)
RANDOM_BUDGET = 30


def control_op(c: gen.ControlProof) -> Op:
    ctx = Context({}, c.hyps)
    ladder = c.label.startswith(("nest_", "redex_"))
    span = f"evaluate.normalize_proof.{c.label}" if ladder else "evaluate.normalize_proof"

    def run(tr):
        tr.count("evaluate.normalize_proof.steps", c.steps)
        return tr.call(span, normalize_proof, c.proof, FUEL)

    def verify(nf):
        expect(check_proof(SIGNATURE, ctx, Annotation.PLAIN, c.proof, c.goal).ok,
               f"{c.label}: input does not check")
        final, steps = normalize_proof(c.proof, FUEL, trace=True)
        expect(len(steps) - 1 == c.steps, f"{c.label}: {len(steps) - 1} steps, want {c.steps}")
        expect(alpha_eq_proof(final, nf), f"{c.label}: traced and plain normal forms differ")
        rep = check_proof(SIGNATURE, ctx, Annotation.PLAIN, nf, c.goal)
        expect(rep.ok, f"{c.label}: normal form does not re-check at the goal: {rep.error}")

    first = FirstSeen(verify, lambda nf: None)

    def check(nf):
        expect(alpha_eq_proof(nf, c.normal), f"{c.label}: unexpected normal form")
        first(nf)

    return Op(c.label, run, check)


def control_pool(rng: random.Random, tiny: bool) -> list:
    library = [gen.library_applied(e) for e in build_library()]
    pool = []
    for _ in range(1 if tiny else 8):
        items = [gen.nested_shifts(d) for d in NEST_LADDER]
        items += [gen.redex_list(rng, n) for n in REDEX_LADDER]
        items += library
        items += [gen.random_control(rng, RANDOM_BUDGET) for _ in range(2 if tiny else 6)]
        ops = [control_op(c) for c in items]
        rng.shuffle(ops)
        pool.append(ops)
    return pool


# ---------------------------------------------------------------------------
# cli: one fresh ``python -m dnsk.cli`` process per operation


@dataclass
class ChildResult:
    code: int
    out: str
    err: str
    rss_kb: int
    spawned: float    # time.monotonic() just before the spawn


def run_child(argv: list, env: dict, cwd: str) -> ChildResult:
    """Run a process to its end, collecting its output and peak RSS."""
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                       b"".join(chunks[proc.stderr]).decode(), usage.ru_maxrss, spawned)


def cli_command_key(argv: list) -> str:
    """The ``cli.run.<command>`` name of a command line."""
    if argv[0] == "eval" and "--trace" in argv:
        return "eval_trace"
    return argv[0]


def _lines_by_name(out: str, names: list) -> dict:
    groups = {n: [] for n in names}
    for line in out.splitlines():
        name = line.split(" ", 1)[0].rstrip(":").split("[", 1)[0]
        expect(name in groups, f"unexpected output line {line[:60]!r}")
        groups[name].append(line)
    return groups


def expect_check(proofs: dict):
    """``dnsk check``: one JSON status line per proof, exit 1 on any rejection."""
    def verify(res):
        groups = _lines_by_name(res.out, list(proofs))
        for name, kind in proofs.items():
            expect(len(groups[name]) == 1, f"{name}: one status line")
            status = json.loads(groups[name][0].split(": ", 1)[1])
            if kind is None:
                expect(status == {"status": "ok"}, f"{name}: {status}")
            else:
                expect(status["status"] == "error" and status["error"]["kind"] == kind,
                       f"{name}: want {kind}, got {status}")
        want = 1 if any(k is not None for k in proofs.values()) else 0
        expect(res.code == want, f"check exit code {res.code}, want {want}")
    return verify


def expect_translate(mode: str, formulas: dict):
    def verify(res):
        expect(res.code == 0, f"translate exit code {res.code}: {res.err[-200:]}")
        groups = _lines_by_name(res.out, list(formulas))
        for name, (a, tables) in formulas.items():
            check_translation(name, a, mode, groups[name], tables)
    return verify


def expect_extract(goals: dict):
    """``dnsk extract``: each realizer has the realizer sort of its goal,
    computed apart from the program, and is closed and well sorted."""
    def verify(res):
        expect(res.code == 0, f"extract exit code {res.code}: {res.out[-200:]}")
        groups = _lines_by_name(res.out, list(goals))
        for name, goal in goals.items():
            sort_line, term_line = groups[name]
            want = oracle.realizer_sort(goal)
            expect(parse_type(sort_line.split(" : ", 1)[1]) == want, f"{name}: realizer sort")
            term = parse_term(term_line.split(" := ", 1)[1])
            expect(infer_term_type({}, term) == want, f"{name}: realizer term sort")
            oracle.term_value(term, {})
    return verify


def expect_eval(proofs: dict, trace: bool):
    """``dnsk eval``: the known normal form of each proof, and with
    ``--trace`` its known step count."""
    def verify(res):
        expect(res.code == 0, f"eval exit code {res.code}: {res.out[-200:]}")
        groups = _lines_by_name(res.out, list(proofs))
        for name, c in proofs.items():
            lines = groups[name]
            if trace:
                expect(lines[-1] == f"{name}: normal after {c.steps} steps", f"{name}: {lines[-1]}")
                expect(len(lines) == c.steps + 2, f"{name}: one line per configuration")
                last = lines[-2].split("] ", 1)[1]
                first = lines[0].split("] ", 1)[1]
                expect(alpha_eq_proof(parse_proof(first), c.proof), f"{name}: first configuration")
            else:
                expect(len(lines) == 1, f"{name}: one line")
                last = lines[0].split(" ~> ", 1)[1]
            expect(alpha_eq_proof(parse_proof(last), c.normal), f"{name}: normal form {last[:60]}")
    return verify


def expect_library(names: list):
    def verify(res):
        expect(res.code == 0, f"library exit code {res.code}")
        expect(res.out == "".join(f"{n}: ok\n" for n in names), "library --check-all output")
    return verify


def expect_capture_sample(trace: bool):
    """samples/capture.dnsk: ``cap ~> w h`` after four steps."""
    def verify(res):
        expect(res.code == 0, f"eval exit code {res.code}")
        lines = res.out.splitlines()
        if trace:
            expect(len(lines) == 6 and lines[-2] == "cap[4] w h"
                   and lines[-1] == "cap: normal after 4 steps", f"capture trace: {lines[-2:]}")
        else:
            expect(lines == ["cap ~> w h"], f"capture: {lines}")
    return verify


def _eval_file(rng: random.Random) -> tuple:
    items = {"nest": gen.nested_shifts(rng.randint(3, 6), prefix="n_"),
             "redex": gen.redex_list(rng, rng.randint(5, 10), prefix="x_"),
             "mixed": gen.random_control(rng, 10, prefix="r_")}
    lines = [gen.PRED_DECLS]
    for c in items.values():
        lines += [_axiom(h, a) for h, a in c.hyps.items()]
    for name, c in items.items():
        lines.append(f"proof {name} : {print_formula(c.goal)} := {print_proof(c.proof)}.")
    return "\n".join(lines) + "\n", items


def _check_file(rng: random.Random, library: list) -> tuple:
    lines, proofs = [gen.PRED_DECLS], {}
    for j in range(2):
        d = gen.DerivationGen(rng, prefix=f"d{j}_").build(24)
        lines += [_axiom(h, a) for h, a in d.hyps.items()]
        lines.append(f"proof d{j} : {print_formula(d.goal)} := {print_proof(d.proof)}.")
        proofs[f"d{j}"] = None
    for e in rng.sample([e for e in library if not e.context.hyps], 2):
        lines.append(f"proof {e.name} : {print_formula(e.goal)} := {print_proof(e.proof)}.")
        proofs[e.name] = None
    d = gen.DerivationGen(rng, prefix="m_").build(16)
    proof, goal, kind = gen.mutate(rng, d, "m")
    lines += [_axiom(h, a) for h, a in d.hyps.items()]
    lines.append(f"proof mutant : {print_formula(goal)} := {print_proof(proof)}.")
    proofs["mutant"] = kind
    return "\n".join(lines) + "\n", proofs


def _extract_file(rng: random.Random) -> tuple:
    lines, goals = [gen.PRED_DECLS], {}
    for j in range(2):
        d = gen.DerivationGen(rng, prefix=f"e{j}_").build(24)
        lines += [_axiom(h, a, gen.canonical(oracle.realizer_sort(a))) for h, a in d.hyps.items()]
        lines.append(f"proof e{j} : {print_formula(d.goal)} := {print_proof(d.proof)}.")
        goals[f"e{j}"] = d.goal
    return "\n".join(lines) + "\n", goals


def _formula_file(rng: random.Random) -> tuple:
    lines, formulas = [gen.PRED_DECLS], {}
    for j in range(3):
        a = gen.formula(rng, 3)
        lines.append(f"formula f{j} := {print_formula(a)}.")
        formulas[f"f{j}"] = (a, [(3, gen.pred_tables(rng, 3)) for _ in range(2)])
    return "\n".join(lines) + "\n", formulas


class CliOps:
    """Builds the operations of the cli workload and keeps what the runner
    reads back from the child processes: their peak RSS and, when traced,
    the probe's timings."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
        self.probe = os.path.join(root, "bench", "cli_probe.py")
        self.peak_rss_kb = 0
        self.probes: list = []   # (command key, ChildResult, probe record)

    def op(self, argv: list, verify) -> Op:
        key = cli_command_key(argv)

        def run(tr):
            if tr.on:
                res = run_child([sys.executable, self.probe, key, *argv], self.env, self.root)
                marks = [l for l in res.err.splitlines() if l.startswith(PROBE_MARK)]
                expect(len(marks) == 1, "probe record missing")
                res.err = "\n".join(l for l in res.err.splitlines() if not l.startswith(PROBE_MARK))
                self.probes.append((key, res, json.loads(marks[0][len(PROBE_MARK):])))
            else:
                res = run_child([sys.executable, "-m", "dnsk.cli", *argv], self.env, self.root)
            self.peak_rss_kb = max(self.peak_rss_kb, res.rss_kb)
            return res

        return Op(key, run, FirstSeen(verify, lambda res: (res.code, res.out)))

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return os.path.relpath(path, self.root)


def _sample(root: str, name: str):
    with open(os.path.join(root, "samples", name), encoding="utf-8") as f:
        return parse_source(f.read())


def cli_pool(rng: random.Random, tiny: bool, cli: CliOps) -> list:
    library = build_library()
    names = [e.name for e in library]
    samples = "samples"
    sample_formulas = {d.name: (d.formula, [(3, gen.pred_tables(rng, 3)) for _ in range(2)])
                       for d in _sample(cli.root, "translations.dnsk").of_type(FormulaDecl)}
    ep = _sample(cli.root, "ep_demo.dnsk").of_type(ProofDecl)[0]
    fixed = [
        cli.op(["check", f"{samples}/dns20.dnsk"], expect_check({"dns_arrow": None})),
        cli.op(["check", f"{samples}/bad_shift.dnsk"], expect_check({"bad": "AnnotationViolation"})),
        cli.op(["extract", f"{samples}/ep_demo.dnsk"], expect_extract({"ep": ep.goal})),
        cli.op(["eval", f"{samples}/capture.dnsk"], expect_capture_sample(False)),
        cli.op(["eval", f"{samples}/capture.dnsk", "--trace"], expect_capture_sample(True)),
        cli.op(["library", "--check-all"], expect_library(names)),
    ]
    fixed += [cli.op(["translate", "--mode", m, f"{samples}/translations.dnsk"],
                     expect_translate(m, sample_formulas)) for m in TRANSLATE_MODES]
    if tiny:
        fixed = fixed[:7]
    pool = []
    for r in range(1 if tiny else 7):
        check_text, check_proofs = _check_file(rng, library)
        formula_text, formulas = _formula_file(rng)
        extract_text, goals = _extract_file(rng)
        eval_text, controls = _eval_file(rng)
        mode = TRANSLATE_MODES[r % len(TRANSLATE_MODES)]
        paths = [cli.write(f"r{r}_{kind}.dnsk", text) for kind, text in
                 (("check", check_text), ("formulas", formula_text),
                  ("extract", extract_text), ("eval", eval_text))]
        ops = list(fixed) + [
            cli.op(["check", paths[0]], expect_check(check_proofs)),
            cli.op(["translate", "--mode", mode, paths[1]], expect_translate(mode, formulas)),
            cli.op(["extract", paths[2]], expect_extract(goals)),
            cli.op(["eval", paths[3]], expect_eval(controls, False)),
            cli.op(["eval", paths[3], "--trace"], expect_eval(controls, True)),
        ]
        pool.append(ops)
    return pool
