"""The command-line front end: subcommands, exit codes, determinism."""

import io
import os
import subprocess
import sys

import pytest

from dnsk.cli import run

SAMPLES = os.path.join(os.path.dirname(__file__), "..", "samples")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def sample(name):
    return os.path.join(SAMPLES, name)


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


DEEP_SOURCES = {
    "deep_fst.dnsk": "pred P(nat).\naxiom h : P(0).\nproof deep : P(0) := "
                     + "fst (" * 200 + "h" + ")" * 200 + ".\n",
    "deep_numeral.dnsk": "pred P(nat).\nformula big := "
                         + "S (" * 500 + "0" + ")" * 500 + " = 0.\n",
}


@pytest.mark.parametrize("name", sorted(DEEP_SOURCES))
def test_too_deep_input_is_usage_exit(tmp_path, name):
    path = tmp_path / name
    path.write_text(DEEP_SOURCES[name])
    code, out, err = invoke("check", str(path))
    assert code == 2
    assert err == f"dnsk: {path}: input nested too deeply\n"
    assert out == ""


def run_python(*args):
    """A fresh interpreter with this checkout's ``src`` first on its path."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in (os.environ.get("PYTHONPATH"),) if p])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def test_too_deep_input_prints_no_traceback(tmp_path):
    path = tmp_path / "deep_fst.dnsk"
    path.write_text(DEEP_SOURCES["deep_fst.dnsk"])
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


@pytest.mark.parametrize("value", ["abc", "", "1.5"])
def test_eval_fuel_env_not_an_integer_is_usage_exit(monkeypatch, value):
    monkeypatch.setenv("DNSK_FUEL", value)
    code, out, err = invoke("eval", sample("dns20.dnsk"))
    assert code == 2
    assert err == f"dnsk: DNSK_FUEL must be an integer, got {value!r}\n"
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
