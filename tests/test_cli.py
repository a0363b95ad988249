"""The command-line front end: subcommands, exit codes, determinism."""

import importlib.util
import io
import os
import subprocess
import sys

import pytest

import dnsk
from dnsk.cli import TRANSLATE_MODES, run

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def sample(name):
    return os.path.join(SAMPLES, name)


def with_samples(argv):
    """argv with each ``.dnsk`` name taken as a sample's path."""
    return [sample(a) if a.endswith(".dnsk") else a for a in argv]


def test_check_accepts(tmp_path):
    code, out, _ = invoke("check", sample("dns20.dnsk"))
    assert code == 0
    assert '"status": "ok"' in out


def test_check_rejects_with_kind():
    code, out, _ = invoke("check", sample("bad_shift.dnsk"))
    assert code == 1
    assert "AnnotationViolation" in out


def test_parse_error_is_usage_exit(tmp_path):
    bad = tmp_path / "bad.dnsk"
    bad.write_text("pred P(nat")
    code, _, err = invoke("check", str(bad))
    assert code == 2
    assert err


def test_missing_file_is_usage_exit():
    code, _, err = invoke("check", "no_such_file.dnsk")
    assert code == 2


# (source, the declaration named and the message of the first failure of
# the file's context); the proof checks, and names nothing ill-sorted
ILL_SORTED_CONTEXTS = [
    ("pred P(nat). pred Q. axiom h : P(star) -> Q. axiom g : P(star). axiom u : R(0).\n"
     "proof r : Q := h g. check r.\n", "h", "argument of 'P' has sort unit, wanted nat"),
    ("pred Q. axiom u : R(0). axiom q : Q. proof r : Q := q.\n",
     "u", "undeclared predicate 'R'"),
    ("pred Q. term t : nat := star. axiom q : Q. proof r : Q := q.\n",
     "t", "has sort unit, declared nat"),
    ("pred Q. term a : nat := b. term b : nat := 0. axiom q : Q. proof r : Q := q.\n",
     "a", "unbound variable 'b'"),
]


@pytest.mark.parametrize("command", ["check", "extract", "eval"])
@pytest.mark.parametrize("src, name, message", ILL_SORTED_CONTEXTS,
                         ids=["ill-sorted", "undeclared", "term-sort", "forward-ref"])
def test_ill_sorted_context_is_usage_exit(tmp_path, command, src, name, message):
    # not `r: {"status": "ok"}` with exit 0: the axioms and term definitions
    # are checked before any proof
    path = tmp_path / "context.dnsk"
    path.write_text(src)
    assert invoke(command, str(path)) == (2, "", f"dnsk: {path}: {name}: {message}\n")


# (source, the declaration named and the message of the first failure in
# file order) for formula declarations, which every command checks as it
# checks axioms
ILL_FORMED_FORMULAS = [
    ("pred P(nat). formula F := R(star) /\\ P(star).\n", "F", "undeclared predicate 'R'"),
    ("pred P(nat). formula F := P(0). formula G := P(star). axiom u : R(0).\n",
     "G", "argument of 'P' has sort unit, wanted nat"),
    ("pred P(nat). term t : nat := 0. formula F := forall x:nat. P(x) -> P(t).\n"
     "formula G := P(x).\n", "G", "unbound variable 'x'"),
    ("pred P(nat). formula F := P(0). axiom u : R(0). formula G := P(star).\n",
     "u", "undeclared predicate 'R'"),
]


@pytest.mark.parametrize("argv", [["translate", "--mode", "kuroda"], ["translate", "--mode", "dia"],
                                  ["check"]], ids=["kuroda", "dia", "check"])
@pytest.mark.parametrize("src, name, message", ILL_FORMED_FORMULAS,
                         ids=["undeclared", "ill-sorted", "unbound", "axiom-first"])
def test_ill_formed_formula_is_usage_exit(tmp_path, argv, src, name, message):
    # translate once printed a translation of these with exit 0
    path = tmp_path / "formulas.dnsk"
    path.write_text(src)
    assert invoke(*argv, str(path)) == (2, "", f"dnsk: {path}: {name}: {message}\n")


@pytest.mark.parametrize("src, name, message", ILL_SORTED_CONTEXTS,
                         ids=["ill-sorted", "undeclared", "term-sort", "forward-ref"])
def test_translate_checks_the_context(tmp_path, src, name, message):
    path = tmp_path / "context.dnsk"
    path.write_text(src + "formula F := Q.\n")
    expected = (2, "", f"dnsk: {path}: {name}: {message}\n")
    assert invoke("translate", "--mode", "mr", str(path)) == expected


def deep_source(name, depth):
    """``deep_fst.dnsk``, a proof ``fst (…)``, or ``deep_numeral.dnsk``, a
    numeral ``S (…)`` in an equation, nested ``depth`` deep."""
    if name == "deep_fst.dnsk":
        return ("pred P(nat).\naxiom h : P(0).\nproof deep : P(0) := "
                + "fst (" * depth + "h" + ")" * depth + ".\n")
    return "pred P(nat).\nformula big := " + "S (" * depth + "0" + ")" * depth + " = 0.\n"


# The parser spends one Python frame per parenthesis of a term or a proof,
# so 5000 levels are past the default recursion limit
TOO_DEEP = 5000


@pytest.mark.parametrize("name", ["deep_fst.dnsk", "deep_numeral.dnsk"])
def test_too_deep_input_is_usage_exit(tmp_path, name):
    path = tmp_path / name
    path.write_text(deep_source(name, TOO_DEEP))
    code, out, err = invoke("check", str(path))
    assert code == 2
    assert err == f"dnsk: {path}: input nested too deeply\n"
    assert out == ""


def test_deep_input_within_the_stack_is_accepted(tmp_path):
    path = tmp_path / "deep_fst.dnsk"
    path.write_text(deep_source(path.name, 200))
    code, out, err = invoke("check", str(path))
    assert (code, err) == (1, "")
    assert '"kind": "FormulaMismatch"' in out
    path = tmp_path / "deep_numeral.dnsk"
    path.write_text(deep_source(path.name, 500))
    code, out, err = invoke("translate", "--mode", "kuroda", str(path))
    assert (code, err) == (0, "")
    assert out == "big : ~~" + "S (" * 499 + "S 0" + ")" * 499 + " = 0\n"


def run_python(*args):
    """A fresh interpreter with this checkout's ``src`` first on its path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in (os.environ.get("PYTHONPATH"),) if p])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_too_deep_input_prints_no_traceback(tmp_path):
    path = tmp_path / "deep_fst.dnsk"
    path.write_text(deep_source(path.name, TOO_DEEP))
    proc = run_python("-m", "dnsk.cli", "check", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"dnsk: {path}: input nested too deeply\n"


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # every dnsk command pays for its imports; the kernel's records are
    # defined without the dataclass machinery, which imports inspect.  Only
    # what the import adds counts: some installations load inspect at start.
    proc = run_python("-c", "import sys; before = set(sys.modules); import dnsk.cli; "
                            "added = set(sys.modules) - before; "
                            "print(sorted({'dataclasses', 'inspect'} & added))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["check"], ["translate", "--mode", "kuroda"], ["extract"], ["eval"],
])
def test_input_that_is_not_utf8_is_usage_exit(tmp_path, argv):
    # not a UnicodeDecodeError traceback with exit 1, which reads as a
    # rejected proof
    path = tmp_path / "latin1.dnsk"
    path.write_bytes(b"pred P(nat).\naxiom h : P(0).\n# caf\xe9\n")
    proc = run_python("-m", "dnsk.cli", *argv, str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"dnsk: {path}: ")


# what `python -m dnsk.cli` runs, reporting the dnsk modules the call loaded
# on the last line of stdout
RUN_AS_MAIN = """
import runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("dnsk.cli", run_name="__main__")
except SystemExit as e:
    code = e.code
added = set(sys.modules) - before
print(code, sorted(m[len("dnsk."):] for m in added if m.startswith("dnsk.")))
"""

FRONT = ["parser", "printer", "syntax", "typecheck"]


@pytest.mark.parametrize("argv, modules", [
    (["check", "dns20.dnsk"], []),
    (["translate", "--mode", "dia", "translations.dnsk"], ["translate"]),
    (["extract", "ep_demo.dnsk"], ["extract", "translate"]),
    (["eval", "capture.dnsk"], ["evaluate"]),
    (["library", "--check-all"], ["theorems"]),
])
def test_each_subcommand_imports_only_the_modules_it_runs(argv, modules):
    # every dnsk call is a fresh process that compiles what it imports
    proc = run_python("-c", RUN_AS_MAIN, *with_samples(argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {sorted(FRONT + modules)}"


def test_import_dnsk_imports_no_kernel_module():
    proc = run_python("-c", "import sys; import dnsk; "
                            "print(sorted(m for m in sys.modules if m.startswith('dnsk.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# each name bench/cli_probe.py wraps on the cli module, its defining module
# and a command that calls it
PROBED = [
    ("parse_source", "parser", ["check", "dns20.dnsk"]),
    ("check_proof", "typecheck", ["check", "dns20.dnsk"]),
    ("print_proof", "printer", ["eval", "capture.dnsk"]),
    ("normalize_proof", "evaluate", ["eval", "capture.dnsk"]),
    ("print_formula", "printer", ["translate", "--mode", "kuroda", "translations.dnsk"]),
    ("infer_term_type", "typecheck", ["extract", "ep_demo.dnsk"]),
    ("extract_mr", "extract", ["extract", "ep_demo.dnsk"]),
    ("build_library", "theorems", ["library", "--list"]),
    ("kuroda", "translate", ["translate", "--mode", "kuroda", "translations.dnsk"]),
    ("kuroda_inner", "translate", ["translate", "--mode", "kuroda-inner", "translations.dnsk"]),
    ("mr_formula", "translate", ["translate", "--mode", "mr", "translations.dnsk"]),
    ("mrt_formula", "translate", ["translate", "--mode", "mrt", "translations.dnsk"]),
    ("dia_formula", "translate", ["translate", "--mode", "dia", "translations.dnsk"]),
    ("dia_nn_simplify", "translate", ["translate", "--mode", "dia-nn", "translations.dnsk"]),
    ("spector_target", "translate", ["translate", "--mode", "spector", "translations.dnsk"]),
]


@pytest.mark.parametrize("name, module, argv", PROBED)
def test_a_name_rebound_on_cli_is_the_one_run_calls(name, module, argv):
    # the traced cli run imports dnsk.cli, reads cli.<name> and rebinds it to
    # a spanned wrapper before cli.run, so the cli layer figures depend on
    # both; a module object of its own stands for that fresh import
    spec = importlib.util.find_spec("dnsk.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    real = getattr(fresh, name)
    assert real is getattr(sys.modules[f"dnsk.{module}"], name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    setattr(fresh, name, spy)
    assert fresh.run(with_samples(argv), out=io.StringIO(), err=io.StringIO()) == 0
    assert calls


@pytest.mark.parametrize("module", ["translate", "extract", "evaluate", "theorems"])
def test_cli_binds_each_name_the_package_exports_from_a_deferred_module(module):
    # reading one of the module's names on a fresh cli module binds every
    # name dnsk._EXPORTS lists for it, each the defining module's object
    spec = importlib.util.find_spec("dnsk.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert module in fresh._DEFERRED
    names = dnsk._EXPORTS[module].split()
    assert not set(names) & set(vars(fresh))
    getattr(fresh, names[-1])
    source = sys.modules[f"dnsk.{module}"]
    for name in names:
        assert vars(fresh)[name] is getattr(source, name), name
    with pytest.raises(AttributeError):
        fresh.nope


INTERLEAVED = """pred P(nat).
term n : nat := S 0.
axiom a : P(n).
term m : nat -> nat := fun (z:nat) => z.
axiom b : 0 = 0 := star.
axiom c : P(m n).
proof p : P(m n) := c.
check p.
term k : nat := 0.
axiom d : ~P(k).
"""


def test_base_context_is_the_fold_over_axioms_and_term_declarations():
    from dnsk.cli import _base_context
    from dnsk.parser import AxiomDecl, TermDecl, parse_source
    from dnsk.typecheck import Context

    sf = parse_source(INTERLEAVED)
    fold = Context()
    for d in sf.decls:
        if isinstance(d, AxiomDecl):
            fold = fold.with_hyp(d.name, d.formula)
        elif isinstance(d, TermDecl):
            fold = fold.with_var(d.name, d.sort)
    ctx = _base_context(sf)
    assert ctx == fold
    assert list(ctx.hyps.items()) == list(fold.hyps.items()) == [
        (d.name, d.formula) for d in sf.decls if isinstance(d, AxiomDecl)]
    assert list(ctx.term_vars.items()) == list(fold.term_vars.items())
    assert list(ctx.term_vars) == ["n", "m", "k"]


def test_extract_infers_each_realizer_sort_once(monkeypatch, tmp_path):
    # the realizer's sort is checked against the goal's and not inferred
    # again for the printed sort line; every entry point of the inference is
    # spied, and only top-level calls count
    import dnsk.cli
    import dnsk.translate
    import dnsk.typecheck
    from dnsk.printer import print_term

    real = dnsk.typecheck.infer_term_type
    depth, top = [0], []

    def spy(term_vars, t):
        if not depth[0]:
            top.append(print_term(t))
        depth[0] += 1
        try:
            return real(term_vars, t)
        finally:
            depth[0] -= 1

    for module in (dnsk.typecheck, dnsk.translate, dnsk.cli):
        monkeypatch.setattr(module, "infer_term_type", spy)
    src = tmp_path / "two.dnsk"
    src.write_text("pred P(nat).\n"
                   "proof i : P(0) -> P(0) := fun h => h.\n"
                   "proof p : exists x:nat. P(x) -> P(x) := [S 0, fun h => h].\n")
    code, out, _ = invoke("extract", str(src))
    assert code == 0, out
    realizers = [line.split(" := ", 1)[1] for line in out.splitlines() if " := " in line]
    assert len(realizers) == 2
    assert [t for t in top if t in realizers] == realizers


# every name the package exported when it imported its modules eagerly
EXPORTED = {
    "syntax": """
        And App Arrow Ascribe BOT Bot Case Dest Efq Eq0 ExPair Exists Forall
        Formula Hyp Imp KernelError KindedError Lam NAT Nat Or PApp PLam PPair
        Pair PredApp ProofTerm Prod Proj1 Proj2 Rec Reset Shift Signature
        SimpleType STAR Star Succ TApp TLam Term UNIT Unit Var ZERO Zero Fst
        Snd Inl Inr alpha_eq_formula alpha_eq_proof alpha_eq_term
        contains_control contains_shift fresh_name fv_formula fv_term is_prime
        neg numeral numeral_value subst_formula subst_term
    """,
    "parser": "ParseError parse_formula parse_proof parse_source parse_term parse_type",
    "printer": "print_formula print_proof print_term print_type",
    "typecheck": """
        Annotation CheckFailure CheckReport Context Derivation SortError
        check_proof infer_term_type wf_formula
    """,
    "translate": """
        DiaTypes TranslationError dia_formula dia_nn_simplify dia_types kuroda
        kuroda_inner mr_formula mr_type mrt_formula spector_target
    """,
    "extract": "ExtractionEnv ExtractionError ac_realizer extract_mr",
    "evaluate": """
        EvalError FuelExhausted IllSorted Stuck eval_formula_bounded
        normalize_proof normalize_term
    """,
    "theorems": """
        LIBRARY_SIGNATURE TheoremEntry axiom_instance build_library get_entry
        verify_library
    """,
}


def test_package_exports_each_name_from_its_module():
    star: dict = {}
    exec("from dnsk import *", star)
    for module, names in EXPORTED.items():
        for name in names.split():
            value = getattr(sys.modules[f"dnsk.{module}"], name)
            assert getattr(dnsk, name) is value, name
            assert star[name] is value, name
    assert sorted(dnsk.__all__) == sorted(n for ns in EXPORTED.values() for n in ns.split())
    with pytest.raises(AttributeError):
        dnsk.nope


def test_translate_modes():
    for mode in ("kuroda", "kuroda-inner", "mr", "mrt", "dia", "dia-nn", "spector"):
        code, out, _ = invoke("translate", "--mode", mode, sample("translations.dnsk"))
        assert code == 0, (mode, out)
        assert "lem_pt" in out


def test_translate_without_mode_is_usage_error():
    code, _, err = invoke("translate", sample("translations.dnsk"))
    assert code == 2


def test_extract_emits_term_and_sort():
    code, out, _ = invoke("extract", sample("ep_demo.dnsk"))
    assert code == 0
    assert "ep : unit * nat" in out
    assert "ep := (star, S (S (S (S 0))))" in out


def test_eval_trace_steps():
    code, out, _ = invoke("eval", sample("capture.dnsk"), "--trace")
    assert code == 0
    assert "normal after 4 steps" in out
    assert out.splitlines()[-2].endswith("w h")


def test_eval_fuel_and_env(monkeypatch, tmp_path):
    src = tmp_path / "loop.dnsk"
    src.write_text("pred P(nat).\naxiom a : P(0).\nproof p : P(0) := a.\neval p.\n")
    monkeypatch.setenv("DNSK_FUEL", "5")
    code, out, _ = invoke("eval", str(src))
    assert code == 0
    assert "p ~> a" in out


def test_eval_default_budget_is_proof_fuel(monkeypatch):
    from dnsk import evaluate

    assert evaluate.normalize_proof.__defaults__[0] == evaluate.PROOF_FUEL == 10_000
    # without --fuel or DNSK_FUEL, dnsk eval reads the constant; the capture
    # sample takes four steps
    monkeypatch.delenv("DNSK_FUEL", raising=False)
    monkeypatch.setattr(evaluate, "PROOF_FUEL", 3)
    code, out, _ = invoke("eval", sample("capture.dnsk"))
    assert code == 1
    assert out.startswith("cap: ERROR FuelExhausted: ")


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_eval_fuel_env_not_an_integer_is_usage_exit(monkeypatch, value):
    monkeypatch.setenv("DNSK_FUEL", value)
    code, out, err = invoke("eval", sample("dns20.dnsk"))
    assert code == 2
    assert err == f"dnsk: DNSK_FUEL must be an integer, got {value!r}\n"
    assert out == ""


@pytest.mark.parametrize("argv, env, message", [
    (["--fuel", "-1"], None, "--fuel must not be negative, got -1"),
    ([], "-3", "DNSK_FUEL must not be negative, got -3"),
])
def test_eval_negative_fuel_is_usage_exit(monkeypatch, argv, env, message):
    # not one FuelExhausted line per declaration with exit 1, which reads
    # as a logical failure
    if env is not None:
        monkeypatch.setenv("DNSK_FUEL", env)
    code, out, err = invoke("eval", sample("capture.dnsk"), *argv)
    assert code == 2
    assert err == f"dnsk: {message}\n"
    assert out == ""


@pytest.mark.parametrize("realizer, message", [
    ("zz", "unbound variable 'zz'"),
    ("S 0", "realizer has sort nat, formula wants unit"),
])
def test_extract_rejects_an_ill_sorted_axiom_realizer(tmp_path, realizer, message):
    # the realizer of 0 = 0 has sort unit; the proof after p still extracts
    src = tmp_path / "axiom.dnsk"
    src.write_text(f"axiom e : 0 = 0 := {realizer}.\naxiom f : 0 = 0 := star.\n"
                   "proof p : 0 = 0 := e.\nproof q : 0 = 0 := f.\n")
    code, out, err = invoke("extract", str(src))
    assert code == 1
    assert err == ""
    assert out == f"p: ERROR RealizerTypeMismatch: {message}\nq : unit\nq := star\n"


def test_library_list_and_check_all():
    code, out, _ = invoke("library", "--list")
    assert code == 0
    assert "dns_arrow:" in out
    code, out, _ = invoke("library", "--check-all")
    assert code == 0
    assert all(line.endswith(": ok") for line in out.strip().splitlines())


def test_library_check_single():
    code, out, _ = invoke("library", "--check", "nn_hp")
    assert code == 0
    assert out.strip() == "nn_hp: ok"
    code, _, err = invoke("library", "--check", "ghost")
    assert code == 2


def test_deterministic_output():
    runs = {invoke("translate", "--mode", "mr", sample("translations.dnsk"))
            for _ in range(3)}
    assert len(runs) == 1


GOLDEN_EVAL = os.path.join(os.path.dirname(__file__), "golden", "eval")


def test_eval_matches_golden_output():
    # stdout byte for byte and the exit code of `dnsk eval [--trace]` on
    # every sample, recorded from the reducer the frame-stack machine replaced
    with open(os.path.join(GOLDEN_EVAL, "exit_codes.txt"), encoding="utf-8") as f:
        expected = dict(line.split() for line in f)
    names = sorted(n for n in os.listdir(SAMPLES) if n.endswith(".dnsk"))
    assert len(expected) == 2 * len(names)
    for name in names:
        stem = name[:-len(".dnsk")]
        for flags, golden in (((), f"{stem}.txt"), (("--trace",), f"{stem}.trace.txt")):
            code, out, _ = invoke("eval", sample(name), *flags)
            with open(os.path.join(GOLDEN_EVAL, golden), "rb") as f:
                assert out.encode("utf-8") == f.read(), golden
            assert str(code) == expected[golden], golden


GOLDEN_EXTRACT = os.path.join(os.path.dirname(__file__), "golden", "extract")


def test_extract_matches_golden_output():
    # stdout byte for byte and the exit code of `dnsk extract` on every
    # sample, recorded before extraction collected its names in one pass
    with open(os.path.join(GOLDEN_EXTRACT, "exit_codes.txt"), encoding="utf-8") as f:
        expected = dict(line.split() for line in f)
    names = sorted(n for n in os.listdir(SAMPLES) if n.endswith(".dnsk"))
    assert len(expected) == len(names)
    for name in names:
        golden = f"{name[:-len('.dnsk')]}.txt"
        code, out, _ = invoke("extract", sample(name))
        with open(os.path.join(GOLDEN_EXTRACT, golden), "rb") as f:
            assert out.encode("utf-8") == f.read(), golden
        assert str(code) == expected[golden], golden


GOLDEN_TRANSLATE = os.path.join(os.path.dirname(__file__), "golden", "translate")


@pytest.mark.parametrize("mode", TRANSLATE_MODES)
def test_translate_matches_golden_output(mode):
    # stdout byte for byte of `dnsk translate --mode M` on the translations
    # sample, recorded from the match-based printer and translations
    code, out, _ = invoke("translate", "--mode", mode, sample("translations.dnsk"))
    assert code == 0
    with open(os.path.join(GOLDEN_TRANSLATE, f"{mode}.txt"), "rb") as f:
        assert out.encode("utf-8") == f.read(), mode
