"""Smoke test of the benchmark at tiny sizes, outside the tier-1 test paths.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run._import_workloads()
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SWEEP_NAMES = {
    f"{stem}.n{n}"
    for stem in ("dynamics.rhs_batch.us_per_call", "analysis.classify_system.s")
    for n in workloads.SWEEP_SIZES
}

TINY = {
    "scenarios": {"t_final": 0.01},
    "monte-carlo": {"steps_scale": 0.05},
    "wide-network": {"n": 20, "sim_steps": 16},
}


def _traced(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path / name, **TINY[name])
    wl.prime()
    plain, traced, layers, tracer = run.measure(wl, 0.0, True, warmup_s=0.0)
    return wl, plain, traced, layers, tracer


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_repeats_counts(
    name, tmp_path, monkeypatch
):
    # the full-size sweep takes seconds; it has a test of its own below
    monkeypatch.setattr(workloads, "scaling_sweep",
                        lambda seed: ({k: 1.0 for k in SWEEP_NAMES}, 0))
    wl, plain, traced, layers, tracer = _traced(name, tmp_path)
    assert plain.attempted and traced.attempted
    assert plain.failed == 0 and traced.failed == 0

    metrics, _, _ = run.per_layer(wl, 1, plain, traced, layers)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(run.unit_of(m["name"]) == m["unit"] for m in SPEC["per_layer"])

    counts = {k: v for k, v in metrics.items() if run.unit_of(k) == "count"}
    again = run.per_layer(wl, 1, *_traced(name, tmp_path)[1:4])[0]
    assert counts == {k: again[k] for k in counts}

    tracer.dump(tmp_path / "spans.json")
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_scaling_sweep_on_tiny_networks(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_SIZES", (12, 16))
    metrics, failed = workloads.scaling_sweep(1)
    assert failed == 0
    assert set(metrics) == {
        "dynamics.rhs_batch.us_per_call.n12", "dynamics.rhs_batch.us_per_call.n16",
        "analysis.classify_system.s.n12", "analysis.classify_system.s.n16",
    }
    assert all(v > 0 for v in metrics.values())


def test_untraced_run_prints_every_end_to_end_metric_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "monte-carlo",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    table = "\n".join(lines[:-1])
    for name in ("analyze_s", "equilibrium_s", "fail_ratio"):
        assert name in table


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenarios",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_raising_operation_counts_as_failed():
    class Broken(workloads.Workload):
        def ops(self):
            return [workloads.Op("broken", lambda: 1 / 0, lambda result: True)]

    samples = run.Samples()
    run.run_pass(Broken(), Broken().ops(), samples)
    assert (samples.attempted, samples.failed) == (1, 1)


def test_operation_time_in_ref_divides_by_the_references_around_it(monkeypatch):
    refs = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(run, "reference_s", lambda: next(refs))

    class Two(workloads.Workload):
        integrating_modes = ("sum",)

        def ops(self):
            return [workloads.Op("sum", lambda: sum(range(1000)), lambda r: True, 7)
                    for _ in range(2)]

    samples = run.Samples()
    run.run_pass(Two(), Two().ops(), samples)
    assert samples.op_ref == [samples.op_s[0] / 2.0, samples.op_s[1] / 4.0]
    assert samples.traj_steps / samples.integrating_ref == pytest.approx(
        14 / (samples.op_s[0] / 2.0 + samples.op_s[1] / 4.0))
