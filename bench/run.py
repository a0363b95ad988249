"""Benchmark of the dnsk kernel.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each workload is one process and one thread running a closed loop: the next
operation starts when the previous one has finished.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``.  The workload names and the
metrics, with their units and order, come from BENCHMARK.json.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 8  # half before the measured loop, half after
MIN_OPS = 100  # so that at least ten operations lie beyond the 90th percentile

# BENCHMARK.json is the one list of workloads and metrics; the runner
# reports exactly the metrics it names, in its order.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


# ---------------------------------------------------------------------------
# building a workload


class Built:
    """A workload's pool of rounds plus what must be cleaned up after it."""

    def __init__(self, name: str, seed: int, tiny: bool):
        import workloads as w

        self.name = name
        self.cli = None
        self.workdir = None
        rng = random.Random(f"{name}:{seed}")
        if name == "cli":
            self.workdir = os.path.join(ROOT, ".bench_work", f"cli-{os.getpid()}")
            os.makedirs(self.workdir, exist_ok=True)
            self.cli = w.CliOps(ROOT, self.workdir)
            self.pool = w.cli_pool(rng, tiny, self.cli)
        else:
            self.pool = {"corpus": w.corpus_pool, "realize": w.realize_pool,
                         "control": w.control_pool}[name](rng, tiny)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the closed loop


class Outcome:
    def __init__(self):
        self.times: list = []        # seconds of each operation that succeeded
        self.busy = 0.0              # seconds in all operations, failed ones too
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.errors: list = []


def measure(pool: list, tracer, seconds: float, rounds: int | None = None,
            min_ops: int = 0) -> Outcome:
    """Run whole rounds until ``seconds`` have passed and at least
    ``min_ops`` operations were attempted, or exactly ``rounds`` rounds."""
    out = Outcome()
    start = time.perf_counter()
    while True:
        for op in pool[out.rounds % len(pool)]:
            out.attempted += 1
            tracer.op_id = out.attempted
            t0 = time.perf_counter()
            try:
                result = op.run(tracer)
            except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
                out.busy += time.perf_counter() - t0
                out.failed += 1
                if not (op.may_fail and isinstance(e, RecursionError)):
                    out.errors.append(f"{op.kind}: {type(e).__name__}: {e}"[:300])
                continue
            dt = time.perf_counter() - t0
            out.busy += dt
            out.times.append(dt)
            # the checks parse too: keep their calls out of the spans
            on, tracer.on = tracer.on, False
            try:
                op.check(result)
            except Exception as e:  # noqa: BLE001 - reported as an incorrect output
                out.errors.append(f"{op.kind}: {type(e).__name__}: {e}"[:300])
            finally:
                tracer.on = on
        out.rounds += 1
        if out.rounds == len(pool):
            # the first pass stored each input's first output for the checks
            gc.collect()
            gc.freeze()
        if rounds is not None:
            if out.rounds >= rounds:
                return out
        elif time.perf_counter() - start >= seconds and out.attempted >= min_ops:
            return out


def percentile(values: list, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_seconds(args, repeats: int) -> list:
    """Wall times of fresh processes that start the interpreter, import dnsk
    and build this workload's inputs."""
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(args, built: Built) -> tuple:
    from tracing import Tracer

    # the machine's speed drifts for seconds at a time: time set-up on both
    # sides of the measured loop, not in one stretch
    setup = setup_seconds(args, SETUP_REPEATS // 2)
    out = measure(built.pool, Tracer(False), args.seconds, min_ops=0 if args.tiny else MIN_OPS)
    setup += setup_seconds(args, SETUP_REPEATS - SETUP_REPEATS // 2)
    if built.cli is not None:
        rss_kb = built.cli.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if len(out.times) < MIN_OPS and not args.tiny:
        print(f"bench: only {len(out.times)} operations succeeded; op_ms_p90 has fewer than ten "
              "samples beyond it", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(out.times) / out.busy,
        "op_ms_p50": 1000 * percentile(out.times, 50),
        "op_ms_p90": 1000 * percentile(out.times, 90),
        "peak_rss_mb": rss_kb / 1024,
    }
    return out, {name: (metrics[name], unit) for name, unit in metric_units("end_to_end").items()}


def per_layer(args, built: Built) -> tuple:
    """A traced run over whole rounds for half the time, then the same rounds
    untraced; figures are per round."""
    from tracing import Tracer

    tr = Tracer(True)
    restore = tr.wrap_internal_calls()
    try:
        traced = measure(built.pool, tr, args.seconds / 2)
    finally:
        restore()
    plain = measure(built.pool, Tracer(False), 0, rounds=traced.rounds)
    rounds = traced.rounds
    if built.cli is not None:
        for key, res, record in built.cli.probes:
            tr.merge(record["self"], record["counts"])
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tr.dump(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl"))

    selft = tr.self_times()
    busy = lambda name: selft.get(name, (0.0, 0))[0] / rounds  # noqa: E731
    units = metric_units("per_layer")
    metrics = {}
    for name, unit in units.items():
        if unit == "s":
            metrics[name] = busy(name[:-2])
        elif unit == "count":
            metrics[name] = tr.counts.get(name, 0) / rounds
    metrics["typecheck.check_proof.calls"] = selft.get("typecheck.check_proof", (0, 0))[1] / rounds
    metrics["evaluate.normalize_proof.s"] = sum(
        b for n, (b, _) in selft.items()
        if n.startswith("evaluate.normalize_proof") and not n.endswith(".trace")) / rounds
    steps = metrics["evaluate.normalize_proof.steps"]
    spent = metrics["evaluate.normalize_proof.s"]
    metrics["evaluate.normalize_proof.steps_per_s"] = steps / spent if spent else 0.0
    extract_ms = [1000 * d for d in tr.durations("extract.extract_mr")]
    metrics["extract.extract_mr.ms_p90"] = percentile(extract_ms, 90) if extract_ms else 0.0
    probes = built.cli.probes if built.cli is not None else []
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    metrics["cli.python_start_ms"] = med([1000 * (r["reached"] - res.spawned) for _, res, r in probes])
    metrics["cli.import_ms"] = med([1000 * (r["imported"] - r["reached"]) for _, res, r in probes])
    for c in ("check", "translate", "extract", "eval", "eval_trace", "library"):
        metrics[f"cli.run.{c}.ms"] = med([1000 * r["run_s"] for k, _, r in probes if k == c])
    metrics["trace.overhead_s"] = (traced.busy - plain.busy) / rounds
    merged = Outcome()
    for part in (traced, plain):
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.errors += part.errors
    return merged, {name: (metrics[name], unit) for name, unit in units.items()}


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        summary[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"bench: {name} --trace {trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary[name]["trace" if trace else "end_to_end"] = result
            print(f"{name} (trace {trace}): attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for metric, v in result["metrics"].items():
                if not trace:
                    print(f"  {metric:<10} {v['value']:>14.4f} {v['unit']}")
    print(json.dumps(summary))
    return 0 if all(r["end_to_end"]["correct"] and r["trace"]["correct"]
                    for r in summary.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="minimal inputs, for the self-check")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dnsk", "__init__.py")):
        print(f"bench: no dnsk sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)

    built = Built(args.workload, args.seed, args.tiny)
    try:
        if args.setup_only:
            return 0
        # the inputs live as long as the run: keep the collector from
        # rescanning them inside timed operations
        gc.collect()
        gc.freeze()
        outcome, metrics = (per_layer if args.trace else end_to_end)(args, built)
    finally:
        built.close()
    for err in outcome.errors[:10]:
        print(f"bench: check failed: {err}", file=sys.stderr)
    print(f"bench: {args.workload}: attempted {outcome.attempted}, failed {outcome.failed}",
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"bench:   {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
