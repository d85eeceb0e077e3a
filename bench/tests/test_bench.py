"""Tests of the benchmark itself, on shrunken inputs (``--tiny``).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# a count each workload must drive above zero when traced
REACHES = {
    "padic-segments": ["fields.valuation.calls", "spaces.distance.calls",
                       "betweenness.segment.points", "betweenness.is_metrically_between.calls"],
    "finite-oracle": ["oracle.search.attempts", "oracle.search.found",
                      "oracle.table.distance_calls", "isometry.decompose.failures",
                      "oracle.betweenness.triples", "betweenness.coordinate_between.calls"],
    "decompose-roundtrip": ["isometry.decompose.calls", "isometry.decompose.failures",
                            "isometry.apply.calls", "isometry.verify_isometry.pairs"],
    "cli-oneshot": ["betweenness.segment.calls", "oracle.search.found",
                    "isometry.verify_isometry.pairs", "isometry.decompose.failures"],
}


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def check_metrics(out: dict, specs: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric_without_errors(workload):
    out = result(bench(workload, 0))
    check_metrics(out, SPEC["end_to_end"])
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_with_one_seed(workload):
    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    check_metrics(first, SPEC["per_layer"])
    assert first["failed"] == 0 and second["failed"] == 0
    counts = {name for name, m in first["metrics"].items() if m["unit"] == "count"}
    assert {n for n in counts if n.endswith(".calls")} and "oracle.search.attempts" in counts
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})
    for name in REACHES[workload]:
        assert first["metrics"][name]["value"] > 0, name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def wrong_expectation(wl) -> None:
    if isinstance(wl, workloads.PadicSegments):
        wl.cases[0].distance += 1
    elif isinstance(wl, workloads.FiniteOracle):
        wl.enumerations[0].count += 1
    elif isinstance(wl, workloads.DecomposeRoundtrip):
        wl.verify[0].ok = not wl.verify[0].ok
    else:
        wl.commands[0].expect = workloads.exact("{}")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_a_wrong_expected_value_counts_as_one_failure(workload):
    wl = workloads.WORKLOADS[workload](3, tiny=True)
    try:
        wl.warm()
        right = workloads.Tally()
        wl.run_pass(right)
        wrong_expectation(wl)
        wrong = workloads.Tally()
        wl.run_pass(wrong)
    finally:
        wl.close()
    assert right.failed == 0
    assert wrong.failed == 1 and wrong.attempted == right.attempted


def test_tracer_skips_names_that_are_gone_and_restores_the_rest(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("spaces", "gone", "spaces.gone"), ("fields", "Scalar.gone", "fields.gone"),
        ("nomodule", "gone", "nomodule.gone")])
    U = workloads.U
    original = U.distance
    x = U.Vector.make(U.FieldSpec.parse("padic:3"), [1, 3])
    t = tracer.Tracer()
    t.install()
    try:
        assert U.betweenness.distance is U.distance is not original
        U.is_metrically_between(x, x, x)
    finally:
        t.uninstall()
    assert U.betweenness.distance is U.distance is original
    layers = t.take()
    assert layers["spaces.distance.calls"] == 3
    assert layers["betweenness.is_metrically_between.calls"] == 1


def test_a_checkout_without_the_package_is_refused(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("padic-segments", 0, root=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
