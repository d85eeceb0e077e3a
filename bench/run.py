"""Benchmark of this checkout's ultranorm: one workload, or all of them.

    python3 bench/run.py --workload padic-segments --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Prints each workload's metrics by name and unit, then, as the last stdout
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones.  All load comes from one process and one caller at a
time (closed loop, one client).

Untraced, ``setup_s`` is the median over several fresh worker processes,
each timed from its launch to its first timed operation; then one more
worker measures whole passes for ``--seconds``.  Times are scaled to
nominal host speed (``calibration.py``).  Exits 2 when the checkout has no
``src/ultranorm``, 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
import checkout

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("padic-segments", "finite-oracle", "decompose-roundtrip", "cli-oneshot")
END_TO_END = {"setup_s": "s", "primary_per_s": "1/s", "secondary_per_s": "1/s",
              "peak_rss_mib": "MiB"}
SETUP_REPS = 11


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark this checkout's ultranorm.",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken inputs and one set-up, for the benchmark's tests")
    return parser.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def spawn(argv: list[str], timeout: float) -> dict:
    """Run one worker to its end and return its JSON result.

    The worker leads its own process group, so that on a timeout the CLI
    processes it started end with it."""
    launched = perf_counter()
    with subprocess.Popen([*argv, "--launched", repr(launched)], cwd=checkout.ROOT,
                          env=checkout.env(), stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise WorkerError(f"worker took over {timeout:.0f} s: {' '.join(argv)}") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {' '.join(argv)}")
    return json.loads(lines[-1])


def setup_times(worker: list[str], reps: int) -> list[float]:
    """Set-up times of ``reps`` fresh workers, each scaled to nominal host
    speed as read by bare interpreter starts just before and after it."""
    env = checkout.env()
    before = calibration.process_speed(env)
    times = []
    for _ in range(reps):
        seconds = spawn(worker + ["--setup-only"], timeout=60)["setup_s"]
        after = calibration.process_speed(env)
        times.append(seconds * (before + after) / 2)
        before = after
    return times


def run_workload(name: str, args) -> dict:
    worker = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
    setups = [] if args.trace else setup_times(worker, 1 if args.tiny else SETUP_REPS)
    result = spawn(worker, timeout=args.seconds + 120)
    result["setup_runs"] = len(setups)
    if args.trace:
        result["metrics"] = {k: (v, unit_of(k)) for k, v in result["metrics"].items()}
    else:
        measured = dict(result["metrics"], setup_s=statistics.median(setups))
        result["extra"] = {k: v for k, v in measured.items() if k not in END_TO_END}
        result["metrics"] = {k: (measured[k], unit) for k, unit in END_TO_END.items()}
    return result


def summarize(name: str, result: dict, args, env: str) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {name}  seed {args.seed}  {args.seconds} s  {mode}  "
          f"{result['passes']} passes  {env}")
    notes = {"setup_s": f"median of {result['setup_runs']} set-ups"}
    for key, (alias, text) in zip(("primary_per_s", "secondary_per_s"), result["stages"]):
        notes[key] = f"{alias}: {text}"
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:42} {value:14.6g} {unit:6} {notes.get(key, '')}")
    extra = result.get("extra", {})
    if "cli_p50_ms" in extra:
        print(f"  {'cli_p50_ms':42} {extra['cli_p50_ms']:14.6g} ms     "
              f"median of {extra['cli_samples']} invocations")
        print(f"  {'cli_tail_ms':42} {extra['cli_tail_ms']:14.6g} ms     "
              f"p{extra['cli_tail_percentile']:.1f}, the highest percentile with "
              f"{extra['cli_tail_beyond']} of {extra['cli_samples']} samples beyond it")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':42} {failed / max(attempted, 1):14.6g} ratio  "
          f"{failed} failed of {attempted} checked operations")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        checkout.require_package()
    except checkout.CheckoutError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    # warm the bytecode cache, which PYTHONDONTWRITEBYTECODE would keep cold
    compileall.compile_dir(checkout.PACKAGE, quiet=2)
    compileall.compile_dir(BENCH, maxlevels=0, quiet=2)
    env = (f"python {platform.python_version()}  nproc {os.cpu_count()}  "
           f"commit {checkout.commit()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args)
        except WorkerError as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        summarize(name, results[name], args, env)
    prefix = len(names) > 1
    metrics = {(f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
               for name, result in results.items()
               for key, (value, unit) in result["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
