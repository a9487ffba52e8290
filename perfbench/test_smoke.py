"""Smoke test of the benchmark itself (about two minutes).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at its minimum length (one round; structure and cli
have a fixed count) and requires a clean result line.
Checks that a traced run reports exactly the per-layer metrics
BENCHMARK.json declares, and that a wrong expectation counts as a failed op.
"""

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_minimum_run_is_clean(workload):
    result = run_bench(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(result["metrics"][n]["value"] > 0 for n in names)


def test_traced_run_reports_declared_per_layer_metrics():
    result = run_bench("maps", 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["commuting.decompose.ms"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 0


def test_wrong_expectation_is_a_failed_op():
    structure = workloads.load("structure")
    state = structure.setup(7, str(ROOT))
    assert harness.run_op(structure, state, "ZornF5").errors == []
    state.expect = dict(state.expect, ZornF5=dict(state.expect["ZornF5"], nucleus_dim=2))
    record = harness.run_op(structure, state, "ZornF5")
    assert len(record.errors) == 1 and "nucleus dim 1, expected 2" in record.errors[0]


def test_uninstall_restores_every_original():
    workloads.load("scan")          # loads altcomm._modscan, hooked as well
    snapshot = tracer.hook_sites()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert not tracer.originals_intact(snapshot)
    finally:
        tr.uninstall()
    assert tracer.originals_intact(snapshot)


def test_sampler_restores_the_timer_and_takes_passes():
    maps = workloads.load("maps")
    state = maps.setup(7, str(ROOT))
    previous = signal.getsignal(signal.SIGALRM)
    record = harness.run_op(maps, state, maps.round_specs(state, 0)[0])
    assert record.errors == []
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert record.slowness > 0 and record.reference_ms > 0
