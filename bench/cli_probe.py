"""Traced stand-in for ``python -m dnsk.cli``, used by the cli workload's
traced run.

It runs the same ``dnsk.cli.run`` on the same arguments, so stdout and the
exit code are unchanged.  It also notes when the interpreter reached this
file, when ``import dnsk.cli`` finished and how long ``run`` took, and
records spans around the module functions the command calls.  One line
starting with ``#bench-probe`` on stderr carries these figures back.

Usage: python3 bench/cli_probe.py <command key> <dnsk arguments>
(with src on PYTHONPATH); the key names the ``cli.run.<key>`` span.
"""

import time

REACHED = time.monotonic()

import dnsk.cli as cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

from tracing import PROBE_MARK, Tracer  # noqa: E402

# functions the cli module imported by name -> span name
SPANNED = {
    "parse_source": "parser.parse_source",
    "print_proof": "printer.print_proof",
    "print_formula": "printer.print_formula",
    "infer_term_type": "typecheck.infer_term_type",
    "extract_mr": "extract.extract_mr",
    "build_library": "theorems.build_library",
    "kuroda": "translate.kuroda",
    "kuroda_inner": "translate.kuroda_inner",
    "mr_formula": "translate.mr_formula",
    "mrt_formula": "translate.mrt_formula",
    "dia_formula": "translate.dia_formula",
    "dia_nn_simplify": "translate.dia_nn_simplify",
    "spector_target": "translate.spector_target",
}


def main(key: str, argv: list) -> int:
    tr = Tracer(True)
    for attr, name in SPANNED.items():
        tr.wrap(cli, attr, name)
    tr.wrap_internal_calls()
    tr.wrap(cli, "check_proof", "typecheck.check_proof",
            lambda rep: tr.count("typecheck.check_proof.rejected", 0 if rep.ok else 1))
    normalize_proof = cli.normalize_proof

    def traced_normalize(*args, **kwargs):
        name = "evaluate.normalize_proof.trace" if kwargs.get("trace") else "evaluate.normalize_proof"
        with tr.span(name):
            return normalize_proof(*args, **kwargs)

    cli.normalize_proof = traced_normalize
    start = time.monotonic()
    with tr.span(f"cli.run.{key}"):
        code = cli.run(argv)
    end = time.monotonic()
    sys.stdout.flush()
    record = {"reached": REACHED, "imported": IMPORTED, "run_s": end - start,
              "self": tr.self_times(), "counts": tr.counts}
    print(PROBE_MARK + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
