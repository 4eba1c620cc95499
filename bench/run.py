"""dehnkit benchmark: one closed-loop client over three seeded workloads.

    python3 bench/run.py --workload family_sweep --seed 1 --seconds 30 --trace 0

Workloads: family_sweep, snf_dense, cli (see workloads.py).  The
benchmark imports dehnkit from ./src of the checkout it sits in and
runs the `dehnkit` command as `python -m dehnkit` with that source on
PYTHONPATH, one subprocess at a time.  Whole cycles of the workload's
ops repeat until the timed region reaches --seconds and at least
MIN_OPS ops ran; each output is checked outside the timed region and a
failing op is counted, not fatal.

--trace 0 prints the end-to-end metrics: ops_per_s (correct ops per
second of timed wall time), op_p50_ms and op_p90_ms over every
attempted op, each the median over the run's cycles, setup_s (median of several imports of dehnkit plus one
warm-up op each), and peak_rss_mb (this process, or the largest child
for cli).  --trace 1 wraps dehnkit's public functions from outside,
prints the per-layer metrics and writes the spans to
bench/out/spans-<workload>-seed<seed>.json.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
# at least ten samples beyond the 90th percentile
MIN_OPS = 100
CLI_GROUPS = ("family", "snf", "surgery", "twobridge", "cfrac", "slope_fixed")
SPAN_STATS = (
    "matrices.smith_normal_form", "matrices.cokernel",
    "surgery.verify_family", "surgery.certify_family",
    "surgery.build_presentation", "surgery.fill_remaining",
    "surgery.mn_framed_link",
)
CALL_STATS = (
    "matrices.IntegerMatrix", "twobridge.family_schubert",
    "twobridge.continued_fraction", "slopes.Slope", "slopes.fixed_slopes",
)


class ProgramMissing(RuntimeError):
    """The checkout holds no dehnkit source to benchmark."""


def import_program():
    """Import dehnkit afresh from ./src, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules
                 if m == "dehnkit" or m.startswith("dehnkit.")]:
        del sys.modules[name]
    dk = importlib.import_module("dehnkit")
    importlib.import_module("dehnkit.cli")
    if not Path(dk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"dehnkit imported from {dk.__file__}, not {SRC}")
    return dk


def set_up(workload):
    """Median of several (import + warm-up) times, and the final import."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        dk = import_program()
        try:
            workload.warm_up(dk)
        except Exception as exc:  # the measured ops count the failure
            print(f"warm-up failed: {exc}", file=sys.stderr)
        times.append(perf_counter() - start)
    return statistics.median(times), dk


def cycle_stats(ok, durations):
    """(correct ops per second, p50 ms, p90 ms) of one cycle."""
    deciles = statistics.quantiles(durations, n=10, method="inclusive")
    return ok / sum(durations), deciles[4] * 1e3, deciles[8] * 1e3


def measure(workload, dk, seconds, tracer=None):
    """Run whole cycles until `seconds` are timed and MIN_OPS ops made.

    Throughput and percentiles are taken per cycle and reported as the
    median over cycles: every cycle runs the same mix, so each cycle
    measures the same quantities, and a burst of load from outside the
    process that spans less than half the run does not move the result.
    """
    durations, overheads, per_cycle = [], [], []
    groups = {g: {"durations": [], "failed": 0} for g in CLI_GROUPS}
    ok = failed = wrong = 0
    reported = set()
    in_process = tracer is not None and workload.name == workloads.Cli.name
    op_id = 0
    while True:
        cycle_ok, cycle_first = ok, len(durations)
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = op_id
            start = perf_counter()
            try:
                result = workload.run(dk, op)
            except Exception as exc:  # a failing op is counted, not fatal
                error, result = exc, None
            else:
                error = None
            elapsed = perf_counter() - start
            durations.append(elapsed)
            if error is None:
                try:
                    workload.check(dk, index, op, result)
                except Exception as exc:  # malformed output is a wrong answer
                    error = exc
                    wrong += 1
            if in_process:
                try:
                    code, out, inner = workload.run_in_process(dk, op)
                except Exception as exc:  # cli.main let an error escape
                    error = error or exc
                else:
                    overheads.append(elapsed - inner)
                    if error is None and (code != 0 or out != result):
                        error = workloads.WrongAnswer(
                            "in-process output differs from the subprocess")
                        wrong += 1
            if error is None:
                ok += 1
            else:
                failed += 1
                if index not in reported:
                    reported.add(index)
                    print(f"op {index} failed: {type(error).__name__}: "
                          f"{str(error)[:300]}", file=sys.stderr)
            if workload.name == workloads.Cli.name:
                group = groups[op[0]]
                group["durations"].append(elapsed)
                group["failed"] += error is not None
            op_id += 1
        per_cycle.append(cycle_stats(ok - cycle_ok, durations[cycle_first:]))
        if sum(durations) >= seconds and op_id >= MIN_OPS:
            break
    return {
        "ops_per_s": statistics.median(c[0] for c in per_cycle),
        "op_p50_ms": statistics.median(c[1] for c in per_cycle),
        "op_p90_ms": statistics.median(c[2] for c in per_cycle),
        "durations": durations, "ok": ok, "failed": failed,
        "wrong": wrong, "groups": groups, "overheads": overheads,
    }


def end_to_end(run, setup_s, workload_name):
    who = (resource.RUSAGE_CHILDREN if workload_name == workloads.Cli.name
           else resource.RUSAGE_SELF)
    return {
        "ops_per_s": run["ops_per_s"],
        "op_p50_ms": run["op_p50_ms"],
        "op_p90_ms": run["op_p90_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(run, tracer: Tracer):
    out = {}
    for name in SPAN_STATS:
        calls, total, self_s = tracer.stat(name)
        out.update({f"{name}.calls": calls, f"{name}.time_s": total,
                    f"{name}.self_s": self_s})
    for name in CALL_STATS:
        calls, total, _ = tracer.stat(name)
        out.update({f"{name}.calls": calls, f"{name}.time_s": total})
    c = tracer.counts
    snf_calls = c["snf_calls"]
    attempted = len(run["durations"])
    out["matrices.smith_normal_form.p50_us"] = (
        statistics.median(tracer.snf_durations) * 1e6
        if tracer.snf_durations else 0.0)
    out["matrices.snf.per_op"] = snf_calls / attempted
    out["matrices.snf.transforms_used_ratio"] = (
        (snf_calls - c["snf_under_cokernel"]) / snf_calls if snf_calls else 0.0)
    out["matrices.snf.transform_bits_max"] = c["transform_bits_max"]
    out["matrices.snf.det_bits_max"] = c["det_bits_max"]
    resolve = tracer.stat("surgery.resolve_fillings")[0]
    certify = tracer.stat("surgery.certify_family")[0]
    out["surgery.resolve_fillings.calls"] = resolve
    out["surgery.resolve_fillings.per_certify"] = (
        resolve / certify if certify else 0.0)
    hits = c["fixed_slope_hits"]
    out["slopes.fixed_slopes.candidates_per_hit"] = (
        c["slope_candidates"] / hits if hits else 0.0)
    out["cli.main.time_s"] = tracer.stat("cli.main")[1]
    for group, data in run["groups"].items():
        out[f"cli.{group}.p50_ms"] = (
            statistics.median(data["durations"]) * 1e3
            if data["durations"] else 0.0)
        out[f"cli.{group}.fail_count"] = data["failed"]
    out["cli.process_overhead_ms"] = (
        statistics.median(run["overheads"]) * 1e3 if run["overheads"] else 0.0)
    out["trace.ops_per_s"] = run["ops_per_s"]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object printed last."""
    if not (SRC / "dehnkit" / "__init__.py").is_file():
        raise ProgramMissing(f"no dehnkit source under {SRC}")
    # the program always runs under CPython's default int<->str limit
    sys.set_int_max_str_digits(workloads.DEFAULT_DIGITS)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = workloads.make(name, seed, ROOT, workdir)
        setup_s, dk = set_up(workload)
        workload.prepare(dk)
        if trace:
            tracer = Tracer()
            tracer.install(dk)
            try:
                run = measure(workload, dk, seconds, tracer)
            finally:
                tracer.uninstall()
            values = per_layer(run, tracer)
            tracer.write(OUT / f"spans-{name}-seed{seed}.json",
                         {"workload": name, "seed": seed})
            wanted = spec["per_layer"]
        else:
            run = measure(workload, dk, seconds)
            values = end_to_end(run, setup_s, name)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(run["durations"])
    return {
        "correct": run["wrong"] == 0,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"samples {attempted} ops  fail_ratio {failed / attempted:.6g} ratio"
          f"  correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
