"""Command-line front end: check, translate, extract, eval, library.

Exit codes: 0 success, 1 logical failure (rejected proof, stuck or
unrealizable term), 2 usage or parse error, a file that is not UTF-8, an
ill-sorted term definition, axiom or formula declaration (``dnsk: <file>:
<name>: <message>``, found before any proof is checked or formula
translated), or input nested deeper than the Python stack allows (``dnsk:
<file>: input nested too deeply`` on stderr).  Output is deterministic.

Every call is a fresh process that compiles what it imports, so this module
imports only the front end all subcommands run (syntax, parser, printer,
typecheck).  A subcommand loads translate, extract, evaluate or theorems
when it starts, binding here the names ``dnsk`` exports from it; reading
``cli.<name>`` of one of those names loads its module too.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import _EXPORTS, _HOME
from .parser import (
    AxiomDecl, Directive, FormulaDecl, ParseError, PredDecl, ProofDecl,
    SourceFile, TermDecl, parse_source,
)
from .printer import print_formula, print_proof, print_term, print_type
from .syntax import Signature, Var, contains_control, fresh_name, fv_formula, neg
from .typecheck import Annotation, Context, SortError, check_proof, infer_term_type, wf_formula

# the modules a subcommand loads when it starts
_DEFERRED = ("translate", "extract", "evaluate", "theorems")


def _need(*modules: str) -> None:
    """Import the modules and bind here the names the package exports from them,
    keeping a name already bound on this module (a tracer's wrapper, a spy)."""
    names = globals()
    for module in modules:
        exported = _EXPORTS[module].split()
        source = __import__(f"{__package__}.{module}", fromlist=exported)
        for name in exported:
            names.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    module = _HOME.get(name)
    if module not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _need(module)
    return globals()[name]


TRANSLATE_MODES = ("kuroda", "kuroda-inner", "mr", "mrt", "dia", "dia-nn", "spector")


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(path: str) -> SourceFile:
    try:
        with open(path, "r", encoding="utf-8") as f:
            src = f.read()
    except OSError as e:
        raise _Failure(2, f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise _Failure(2, f"{path}: {e}") from e
    try:
        return parse_source(src)
    except ParseError as e:
        raise _Failure(2, f"{path}: {e}") from e


def _signature(sf: SourceFile) -> Signature:
    return Signature({d.name: d.sorts for d in sf.of_type(PredDecl)})


def _base_context(sf: SourceFile) -> Context:
    return Context({d.name: d.sort for d in sf.of_type(TermDecl)},
                   {d.name: d.formula for d in sf.of_type(AxiomDecl)})


def _context(sf: SourceFile, path: str) -> tuple:
    """The file's signature and base context, after checking that each term
    definition has its declared sort under the term declarations before it,
    and each axiom and formula declaration is well-formed under the
    signature and every term declaration; the first failure in file order
    is a usage error."""
    sig, ctx = _signature(sf), _base_context(sf)
    before: dict = {}
    for d in sf.decls:
        try:
            if type(d) is TermDecl:
                got = infer_term_type(before, d.term)
                if got != d.sort:
                    raise SortError("SortMismatch",
                                    f"has sort {print_type(got)}, declared {print_type(d.sort)}")
                before[d.name] = got
            elif type(d) is AxiomDecl or type(d) is FormulaDecl:
                wf_formula(sig, ctx.term_vars, d.formula)
        except SortError as e:
            raise _Failure(2, f"{path}: {d.name}: {e}") from None
    return sig, ctx


def _selected(sf: SourceFile, kind: str, decl_cls) -> list:
    """Decls named by directives of this kind, else all decls of the class."""
    directives = [d for d in sf.of_type(Directive) if d.kind == kind]
    decls = {d.name: d for d in sf.of_type(decl_cls)}
    if not directives:
        return [(d, None) for d in decls.values()]
    picked = []
    for dv in directives:
        if dv.name not in decls:
            raise _Failure(2, f"directive {kind} {dv.name}: no such declaration")
        picked.append((decls[dv.name], dv.mode))
    return picked


def _each_proof(sf: SourceFile, path: str, out, kind: str, run, refuse=None, rejected=None) -> int:
    """Check, extract and eval: check the file's context (see _context), then
    each proof declaration the ``kind`` directives select under its
    annotation and that context.  ``refuse(decl)`` may give an error that
    skips the check; a rejection prints ``rejected(report)`` or a REJECTED
    line; ``run(decl, report, ctx)`` prints an accepted proof's outcome and
    returns its exit code.  Returns 1 if any declaration failed, else 0."""
    sig, ctx = _context(sf, path)
    code = 0
    for decl, _ in _selected(sf, kind, ProofDecl):
        error = None if refuse is None else refuse(decl)
        if error is None:
            report = check_proof(sig, ctx, Annotation(decl.annotation), decl.proof, decl.goal)
            if report.ok:
                code |= run(decl, report, ctx)
                continue
            error = (rejected(report) if rejected else
                     f"REJECTED {report.error.kind}: {report.error.message}")
        print(f"{decl.name}: {error}", file=out)
        code = 1
    return code


def _cmd_check(args, out) -> int:
    import json

    def line(report) -> str:
        return json.dumps(report.to_dict(), sort_keys=True)

    def run(decl, report, _) -> int:
        print(f"{decl.name}: {line(report)}", file=out)
        return 0

    return _each_proof(_load(args.file), args.file, out, "check", run, rejected=line)


def _translate_one(sig: Signature, name: str, a, mode: str, out) -> None:
    free = fv_formula(a)
    match mode:
        case "kuroda":
            print(f"{name} : {print_formula(kuroda(a))}", file=out)
        case "kuroda-inner":
            print(f"{name} : {print_formula(kuroda_inner(a))}", file=out)
        case "mr" | "mrt":
            t = fresh_name("t", free)
            sort = mr_type(a)
            fn = mr_formula if mode == "mr" else mrt_formula
            body = fn(sig, {t: sort}, Var(t), a)
            print(f"{name} : {t} : {print_type(sort)}", file=out)
            print(f"{name} : {print_formula(body)}", file=out)
        case "dia" | "dia-nn":
            w = fresh_name("w", free)
            c = fresh_name("c", free | {w})
            d = dia_types(a if mode == "dia" else neg(neg(a)))
            vars_ = {w: d.witness, c: d.challenge}
            if mode == "dia":
                body = dia_formula(sig, vars_, Var(w), Var(c), a)
            else:
                body = dia_nn_simplify(sig, vars_, a, Var(w), Var(c))
            print(f"{name} : {w} : {print_type(d.witness)}, "
                  f"{c} : {print_type(d.challenge)}", file=out)
            print(f"{name} : {print_formula(body)}", file=out)
        case "spector":
            t = fresh_name("t", free)
            d = dia_types(neg(neg(a)))
            body = spector_target(sig, a, t)
            print(f"{name} : {t} : {print_type(d.witness)}", file=out)
            print(f"{name} : {print_formula(body)}", file=out)
        case _:
            raise _Failure(2, f"unknown translation mode {mode!r}")


def _cmd_translate(args, out) -> int:
    _need("translate")
    sf = _load(args.file)
    sig, _ = _context(sf, args.file)
    code = 0
    for decl, dir_mode in _selected(sf, "translate", FormulaDecl):
        mode = dir_mode or args.mode
        if mode is None:
            raise _Failure(2, "no --mode given and no translate directive in file")
        try:
            _translate_one(sig, decl.name, decl.formula, mode, out)
        except TranslationError as e:
            print(f"{decl.name}: ERROR {e.kind}: {e}", file=out)
            code = 1
    return code


def _cmd_extract(args, out) -> int:
    _need("translate", "extract")
    from .translate import _check_sort

    sf = _load(args.file)
    axioms = sf.of_type(AxiomDecl)
    env = ExtractionEnv({}, {d.name: d.realizer for d in axioms if d.realizer is not None},
                        frozenset(d.name for d in axioms if d.realizer is None))

    def refuse(decl):
        if decl.annotation == "bot" or contains_control(decl.proof):
            return "ERROR ControlNodePresent: extraction requires a control-free derivation"
        return None

    def run(decl, report, ctx) -> int:
        try:
            term = extract_mr(report.derivation, env)
            sort = mr_type(decl.goal)
            # an axiom's realizer is taken as written, so the term's sort is
            # checked; the check is the one inference of it, through this
            # module's name (a tracer may rebind it), and the sort printed is
            # the goal's, which the check found equal
            _check_sort(ctx.term_vars, term, sort, "realizer", infer_term_type)
        except (ExtractionError, TranslationError) as e:
            print(f"{decl.name}: ERROR {e.kind}: {e}", file=out)
            return 1
        print(f"{decl.name} : {print_type(sort)}", file=out)
        print(f"{decl.name} := {print_term(term)}", file=out)
        return 0

    return _each_proof(sf, args.file, out, "extract", run, refuse)


def _cmd_eval(args, out) -> int:
    _need("evaluate")
    from .evaluate import PROOF_FUEL

    sf = _load(args.file)
    fuel, source = args.fuel, "--fuel"
    if fuel is None:
        env_fuel, source = os.environ.get("DNSK_FUEL", str(PROOF_FUEL)), "DNSK_FUEL"
        try:
            fuel = int(env_fuel)
        except ValueError:
            raise _Failure(2, f"DNSK_FUEL must be an integer, got {env_fuel!r}") from None
    if fuel < 0:
        raise _Failure(2, f"{source} must not be negative, got {fuel}")

    def run(decl, report, _) -> int:
        try:
            if args.trace:
                final, steps = normalize_proof(decl.proof, fuel=fuel, trace=True)
                for i, p in enumerate(steps):
                    print(f"{decl.name}[{i}] {print_proof(p)}", file=out)
                print(f"{decl.name}: normal after {len(steps) - 1} steps", file=out)
            else:
                final = normalize_proof(decl.proof, fuel=fuel)
                print(f"{decl.name} ~> {print_proof(final)}", file=out)
        except EvalError as e:
            print(f"{decl.name}: ERROR {type(e).__name__}: {e}", file=out)
            return 1
        return 0

    return _each_proof(sf, args.file, out, "eval", run)


def _cmd_library(args, out) -> int:
    _need("theorems")
    entries = build_library()
    if args.list:
        for e in entries:
            print(f"{e.name}: {e.description}", file=out)
        return 0
    names = [args.check] if args.check else [e.name for e in entries]
    by_name = {e.name: e for e in entries}
    code = 0
    for name in names:
        if name not in by_name:
            raise _Failure(2, f"no library entry named {name!r}")
        report = by_name[name].check(LIBRARY_SIGNATURE)
        if report.ok:
            print(f"{name}: ok", file=out)
        else:
            print(f"{name}: REJECTED {report.error.kind}", file=out)
            code = 1
    return code


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dnsk", description="proof kernel front end")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check every proof declaration in a file")
    p.add_argument("file")

    p = sub.add_parser("translate", help="translate formula declarations")
    p.add_argument("file")
    p.add_argument("--mode", choices=TRANSLATE_MODES)

    p = sub.add_parser("extract", help="extract realizers from control-free proofs")
    p.add_argument("file")

    p = sub.add_parser("eval", help="reduce proof terms to normal form")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--fuel", type=int)

    p = sub.add_parser("library", help="inspect the built-in theorem library")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--list", action="store_true")
    g.add_argument("--check")
    g.add_argument("--check-all", action="store_true")

    return ap


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    handlers = {
        "check": _cmd_check,
        "translate": _cmd_translate,
        "extract": _cmd_extract,
        "eval": _cmd_eval,
        "library": _cmd_library,
    }
    try:
        return handlers[args.command](args, out)
    except _Failure as e:
        print(f"dnsk: {e}", file=err)
        return e.code
    except RecursionError:
        where = f"{args.file}: " if hasattr(args, "file") else ""
        print(f"dnsk: {where}input nested too deeply", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
