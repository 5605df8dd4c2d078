"""Tiny-size runs of every workload: every listed metric is emitted with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from workloads import Table8  # noqa: E402


def run_bench(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert not list(BENCH.glob(".work-*"))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "table8_mc", "--seed", "1", "--seconds", "1",
                     "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_table8_sets_pool_like_one_monte_carlo_call(tmp_path):
    import sparsebss

    workload = Table8(sparsebss, 12345, True, tmp_path)
    passes = [workload.run_pass(k) for k in range(workload.sets)]
    quality = workload.quality(passes)
    for method, params in workload.params.items():
        report = sparsebss.monte_carlo(
            workload.scenario, params, workload.sets, workload.runs,
            master_seed=workload.master_seed, workers=1,
        )
        np.testing.assert_array_equal(1e3 * report.mean_rms_max, quality[method]["rms_max_x1e3"])
        assert quality[method]["failures"] == report.failures
