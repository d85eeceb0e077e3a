"""One workload process: set up, then measure untraced or traced.

Started by ``run.py``; prints one JSON object as its last stdout line.
``--launched`` is the parent's ``perf_counter`` reading just before it
started this process (a system-wide monotonic clock), so ``setup_s`` spans
interpreter start, ``import ultranorm``, input generation and warm-up, up
to the first timed operation.  With ``--setup-only`` the process exits
there.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checkout
import workloads
from tracer import Tracer


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def run_passes(run_pass, seconds: float, start: float, env: dict | None = None) -> list:
    """Whole passes until ``seconds`` after ``start``; at least one.  With
    ``env``, each operation is a process run in that environment."""
    passes = []
    while not passes or perf_counter() - start < seconds:
        tally = workloads.Tally(env)
        run_pass(tally)
        tally.finish()
        passes.append(tally)
    return passes


def per_op(tallies) -> dict[tuple[str, str], tuple[int, float]]:
    """Each operation's units and median scaled seconds over the passes.

    Every pass repeats the same operations on the same inputs.
    """
    runs: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for tally in tallies:
        for key, record in tally.ops.items():
            runs.setdefault(key, []).append(record)
    return {key: (records[0][0], statistics.median(s for _, s in records))
            for key, records in runs.items()}


def stage_rate(ops: dict, stage: str) -> float:
    units = sum(u for (st, _), (u, _) in ops.items() if st == stage)
    seconds = sum(s for (st, _), (_, s) in ops.items() if st == stage)
    return units / seconds if seconds > 0 else 0.0


def pass_seconds(ops: dict) -> float:
    return sum(s for _, s in ops.values())


def subprocess_ms(argv: list[str], reps: int) -> float:
    env = checkout.env()
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run(argv, env=env, capture_output=True, check=True, timeout=60)
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def cli_layer(reps: int, tallies: list) -> dict:
    """Bare interpreter, ``import ultranorm`` on top of it, and in-process
    ``cli.main`` per README command; medians over ``reps`` rounds."""
    bare = subprocess_ms([sys.executable, "-c", "pass"], reps)
    imported = subprocess_ms([sys.executable, "-c", "import ultranorm"], reps)
    cli = workloads.CliOneshot(0)
    latencies = []
    try:
        cli.warm()
        for _ in range(reps):
            tally = workloads.Tally()
            cli.run_in_process(tally)
            tallies.append(tally)
            latencies += tally.latencies_ms
    finally:
        cli.close()
    return {"cli.interpreter_ms": bare, "cli.import_ms": imported - bare,
            "cli.main_ms": statistics.median(latencies)}


def measure(wl, seconds: float) -> tuple[list, dict, int]:
    env = checkout.env() if wl.runs_processes else None
    tallies = run_passes(wl.run_pass, seconds, perf_counter(), env)
    ops = per_op(tallies)
    usage = resource.RUSAGE_CHILDREN if wl.runs_processes else resource.RUSAGE_SELF
    metrics = {
        "primary_per_s": stage_rate(ops, workloads.PRIMARY),
        "secondary_per_s": stage_rate(ops, workloads.SECONDARY),
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024,
    }
    latencies = sorted(ms for t in tallies for ms in t.latencies_ms)
    if latencies:
        metrics["cli_p50_ms"] = statistics.median(latencies)
        # the highest percentile with at least ten samples above it
        beyond = min(10, len(latencies) - 1)
        metrics["cli_tail_ms"] = latencies[len(latencies) - 1 - beyond]
        metrics["cli_tail_percentile"] = 100 * (len(latencies) - beyond) / len(latencies)
        metrics["cli_tail_beyond"] = beyond
        metrics["cli_samples"] = len(latencies)
    return tallies, metrics, len(tallies)


def measure_traced(wl, seconds: float, reps: int) -> tuple[list, dict, int]:
    """An untraced pass, the CLI layer, then traced passes.

    Counts come from the first traced pass (every pass does the same work);
    times are medians per pass.  The CLI workload's passes run
    ``cli.main`` in process, since its subprocesses are out of reach.  The
    overhead ratio compares the passes' scaled operation times, so it
    leaves out the calibration between operations.
    """
    start = perf_counter()
    run_pass = getattr(wl, "run_in_process", wl.run_pass)
    base = workloads.Tally()
    run_pass(base)
    base.finish()
    tallies = [base]
    metrics = cli_layer(reps, tallies)

    tracer = Tracer()
    tracer.install()
    layers = []
    try:
        def traced_pass(tally):
            run_pass(tally)
            layers.append(tracer.take())
        traced = run_passes(traced_pass, seconds, start)
    finally:
        tracer.uninstall()
    for name, first in layers[0].items():
        if isinstance(first, int):
            metrics[name] = first
        else:
            metrics[name] = statistics.median(layer[name] for layer in layers)
    metrics["trace.overhead_ratio"] = pass_seconds(per_op(traced)) / pass_seconds(per_op([base]))
    return tallies + traced, metrics, len(traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    try:
        wl.warm()
        setup_s = perf_counter() - args.launched
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            tallies, metrics, passes = measure_traced(wl, args.seconds, 1 if args.tiny else 5)
        else:
            tallies, metrics, passes = measure(wl, args.seconds)
    finally:
        wl.close()
    failures = [f for t in tallies for f in t.failures][:10]
    for failure in failures:
        print(f"worker: FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "passes": passes,
        "stages": wl.stages,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
