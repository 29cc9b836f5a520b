#!/usr/bin/env python3
"""congcert benchmark: time to a verdict, checked, on three workloads.

One run, from the root of a checkout (prints every metric by name with its
unit, then one JSON line):

    python3 perfbench/run.py --workload proof-ladder --seed 1 --seconds 55 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced for half
the time and traced for the other half, and reports per-layer metrics and
the tracing overhead.  Steadiness check, one run per seed, medians and
quartiles of every metric, for each workload in BENCHMARK.json:

    python3 perfbench/run.py --workload all --seed 1 --repeat 10 --seconds 55

The program is imported from src/ of the same checkout and nowhere else.
Everything runs in this process on one thread; the numeric libraries are
pinned to one thread before numpy loads.
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracing import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, typical_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 15

# (name, unit); BENCHMARK.json lists the same, with bounds
END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("spot_check_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def find_sources():
    if not (SRC / "congcert" / "__init__.py").is_file():
        sys.exit(f"error: no congcert sources under {SRC}")


def load_congcert():
    find_sources()
    # before numpy loads; child processes inherit them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import congcert

    if Path(congcert.__file__).resolve().parent != SRC / "congcert":
        sys.exit(f"error: imported congcert from {congcert.__file__}, not from {SRC}")
    modules = {name: importlib.import_module(f"congcert.{name}") for name in LAYERS}
    return congcert, modules


def api(congcert, modules, tracer=None):
    """The names the workloads call.  With a tracer, the three entry points
    get spans of their own."""
    cc = SimpleNamespace(**{name: getattr(congcert, name) for name in (
        "CongruenceFamily", "Modulus", "GFKind", "PartMultiset", "BinomialFactor",
        "TailFamily", "ProductSpec", "certify", "spot_check",
        "count_plane_partitions_rowed", "count_plane_overpartitions_rowed",
        "count_partitions_max_part", "count_partitions_multiset")})
    cc.run_command = modules["cli"].run_command
    if tracer is not None:
        cc.certify = tracer.wrap("prover.certify", cc.certify)
        cc.spot_check = tracer.wrap("prover.spot_check", cc.spot_check)
        cc.run_command = tracer.wrap("cli.run_command", cc.run_command)
    return cc


def timed_passes(workload, seconds, between=None):
    """Whole passes while the next one is predicted to fit in `seconds`; at
    least one.  `between` runs after each pass, outside the budget."""
    passes = []
    used = 0.0
    while True:
        begin = time.perf_counter()
        passes.append(workload.run_pass())
        last = time.perf_counter() - begin
        used += last
        if between is not None:
            between()
        if used + last > seconds:
            return passes


def pass_seconds(passes):
    return typical_pass(passes, "verdict_times") + typical_pass(passes, "check_times")


def measure_setup(args, samples):
    """Add one set-up time, up to SETUP_PROBES: import congcert afresh from
    src/, make the inputs, one warm-up call.  numpy stays loaded, as in any
    process that already uses it.  Called between passes, so the samples
    spread over the whole run."""
    if len(samples) >= SETUP_PROBES:
        return
    saved = _pop_congcert_modules()
    workdir = WORK / f"setup-{args.workload}-{os.getpid()}"
    try:
        start = time.perf_counter()
        congcert = importlib.import_module("congcert")
        modules = {name: importlib.import_module(f"congcert.{name}") for name in LAYERS}
        workload = WORKLOADS[args.workload](api(congcert, modules), args.seed, str(workdir))
        workload.prepare()
        workload.warmup()
        samples.append(time.perf_counter() - start)
    finally:
        _pop_congcert_modules()
        sys.modules.update(saved)
        shutil.rmtree(workdir, ignore_errors=True)
    if workload.failures:
        sys.exit(f"error: warm-up failed: {workload.failures[0]}")


def _pop_congcert_modules():
    names = [n for n in sys.modules if n == "congcert" or n.startswith("congcert.")]
    return {name: sys.modules.pop(name) for name in names}


def end_to_end(passes, setup_samples):
    calls = [t for p in passes for t in p.verdict_times.values()]
    p10_to_p90 = statistics.quantiles(calls, n=10)
    verdict_s = typical_pass(passes, "verdict_times")
    values = {
        "setup_s": statistics.median(setup_samples),
        "verdict_s": verdict_s,
        "spot_check_s": typical_pass(passes, "check_times"),
        "verdicts_per_s": passes[0].verdicts / verdict_s,
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_p90_ms": 1e3 * p10_to_p90[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}, len(calls)


def run(args):
    congcert, modules = load_congcert()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    plain = api(congcert, modules)
    workload = WORKLOADS[args.workload](plain, args.seed, str(workdir))
    workload.prepare()
    workload.warmup()

    notes = []
    if args.trace:
        untraced = timed_passes(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install(modules)
        workload.cc = api(congcert, modules, tracer)
        try:
            traced = timed_passes(workload, args.seconds / 2)
        finally:
            tracer.uninstall()
            workload.cc = plain
        passes = untraced + traced
        metrics = layer_metrics(tracer.spans, tracer.counts, len(traced))
        overhead = pass_seconds(traced) - pass_seconds(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / pass_seconds(untraced), "frac")
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        notes.append(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        notes.append(f"passes: {len(untraced)} untraced, {len(traced)} traced")
    else:
        setup_samples = []
        passes = timed_passes(workload, args.seconds,
                              lambda: measure_setup(args, setup_samples))
        for _ in range(SETUP_PROBES):
            measure_setup(args, setup_samples)
        metrics, calls = end_to_end(passes, setup_samples)
        notes.append(f"samples: {len(passes)} passes, {calls} verdict calls, "
                     f"{len(setup_samples)} set-ups")

    workload.check_same_outputs(passes)
    workload.verify(passes[0])
    shutil.rmtree(workdir, ignore_errors=True)

    notes += workload.report(passes)
    notes.append(f"wrong_verdicts = {len(workload.wrong)}")
    notes.append(f"failed_frac = {len(workload.failures)}/{workload.attempted} calls")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for message in (workload.wrong + workload.failures)[:20]:
        print("  problem: " + message, file=sys.stderr)
    print(json.dumps({
        "correct": not workload.wrong,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def repeat(args):
    """One run per seed; medians and quartiles for the steadiness check."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
             else [args.workload])
    ok = True
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.repeat):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            if done.returncode != 0:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
        print(f"{name}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        for metric in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            verdict = "" if bound is None else (
                "  ok" if spread <= bound / 3 else "  WIDER THAN BOUND/3")
            print(f"  {metric:24s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}{'' if bound is None else f'  bound {bound}'}{verdict}")
            print(f"  {'':24s} values " + " ".join(f"{v:.6g}" for v in values))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds in child processes and summarize")
    args = parser.parse_args()
    if args.repeat:
        sys.exit(repeat(args))
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    run(args)


if __name__ == "__main__":
    main()
