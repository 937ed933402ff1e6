"""The benchmark's own tests: smoke runs, the metric contract, the
checkers, and time accounting of the traced run.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
Every test drives ``perfbench/run.py`` in a subprocess at smoke size
(``--scale``), so tracing never patches the test process.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload ``run.py`` accepts, declared in BENCHMARK.json or not.
WORKLOADS = ["oltp_wire", "dss_adhoc", "analytics_layers"]
SMOKE = ["--seed", "3", "--seconds", "1", "--scale", "0.05"]


def run(*args: str, cwd: pathlib.Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def latest_record(workload: str, trace: int) -> dict:
    records = sorted(
        (
            p for p in (ROOT / ".perfbench" / "records").glob(
                f"{workload}-seed3-trace{trace}-*.json"
            )
            if not p.name.endswith(".spans.json")
        ),
        key=lambda p: p.stat().st_mtime,
    )
    return json.loads(records[-1].read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_and_emits_declared_metrics(workload):
    proc, result = run("--workload", workload, "--trace", "0", *SMOKE)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_declared_layer_metrics(workload):
    proc, result = run("--workload", workload, "--trace", "1", *SMOKE)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_statement_wall_time(workload):
    proc, _result = run("--workload", workload, "--trace", "1", *SMOKE)
    assert proc.returncode == 0, proc.stderr[-2000:]
    accounting = latest_record(workload, 1)["accounting"]
    assert accounting["statements"] > 0
    total = accounting["layers_plus_unattributed_s"]
    # Timed apart from the spans: by the benchmark around each
    # Database.execute, or for oltp_wire by the server's own
    # statement_seconds histogram.
    caller = accounting["caller_s"]
    assert abs(total - caller) <= 0.05 * caller
    # Self times add up to the wall time only if none is negative: a
    # span charged to the wrong parent would push one below zero.
    assert accounting["min_self_s"] >= -1e-6
    assert abs(accounting["abs_self_s"] - caller) <= 0.05 * caller
    assert sum(accounting["layer_self_s"].values()) <= total


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_expectation_fails_the_run(workload):
    proc, result = run(
        "--workload", workload, "--trace", "0", "--perturb-check", *SMOKE
    )
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc, result = run(
        "--workload", "oltp_wire", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert result is None


def test_host_speed_scales_samples_by_nearby_probes():
    sys.path.insert(0, str(ROOT))
    from perfbench import harness

    host = harness.HostSpeed()
    host.probe()
    host.close()
    assert not host._echo.is_alive()
    for kind, nominal in harness.REF_NOMINAL_S.items():
        # The host runs at half speed around t=10 and at nominal speed
        # around t=100.
        host.probes[kind] = [(9.0, 2 * nominal), (11.5, 2 * nominal),
                             (99.0, nominal), (101.0, nominal)]
        assert host.nominal([(10.0, 0.5), (100.0, 0.5)], kind) == [
            0.25, 0.5
        ]
        # A sample with no probe in its window takes the nearest one.
        assert host.nominal([(50.0, 0.5)], kind) == [0.25]
