"""Smoke tests of the benchmark itself, at a tiny size.

Run with ``python -m pytest perfbench`` from the root of the repository.
They check that every workload emits every metric with its unit, that
the answer checks are live (a corrupted expected answer must raise
``failed_frac`` above 0), and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_program()

import layers  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Size(scale=0.0002, snapshots=6, aggv_window=4,
                      aggt_window=2, intervals_window=2, setup_repeats=1)
SECONDS = 0.3

#: the named latency metrics each workload's report must carry
KIND_METRICS = {
    "sweep": {"aggv_p50_ms", "aggt_p50_ms", "intervals_p50_ms"},
    "asof_point": {"asof_p50_ms", "asof_p99_ms"},
    "mixed_server": {"commit_p50_ms", "commit_p90_ms", "aggv_p50_ms",
                     "refresh_p50_ms"},
}


def _check_result(result: dict, names, units) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, (report,) = run.run_untraced(workload, 3, SECONDS, TINY)
    assert result["correct"], report["errors"]
    assert result["failed"] == 0
    _check_result(result, run.END_TO_END, run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    metrics = report["metrics"]
    assert metrics["failed_frac"]["value"] == 0.0
    assert KIND_METRICS[workload] <= set(metrics)
    for name in KIND_METRICS[workload]:
        assert metrics[name]["unit"] == "ms" and metrics[name]["n"] >= 1
    json.dumps(report)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    result, reports = run.run_traced(workload, 3, SECONDS, TINY)
    assert result["correct"]
    _check_result(result, layers.PER_LAYER_UNITS, layers.PER_LAYER_UNITS)
    assert reports[0]["spans"] > 0
    spans = (tmp_path / reports[0]["spans_file"]).read_text().splitlines()
    assert len(spans) == reports[0]["spans"] + 1
    first = json.loads(spans[0])
    assert {"name", "start_ns", "end_ns", "parent", "op"} <= set(first)
    metrics = result["metrics"]
    if workload == "mixed_server":
        assert metrics["engine.commit_ms"]["value"] > 0
        assert metrics["views.refresh_ms"]["value"] > 0
        assert metrics["gate.acquires"]["value"] > 0
    else:
        assert metrics["record.decode_calls"]["value"] > 0
        assert metrics["retro.spt_ms"]["value"] > 0


#: one oracle answer per workload, shifted so the program's (right)
#: answer no longer matches it
CORRUPTIONS = {
    "sweep": ("aggv", lambda real: lambda self, sids: real(self, sids) + 1),
    "asof_point": ("asof", lambda real: lambda self, sid, key:
                   real(self, sid, key)[1:]),
    "mixed_server": ("view_value", lambda real: lambda self, target:
                     real(self, target) + 1),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_answer_counts_as_failed(workload, monkeypatch):
    name, corrupt = CORRUPTIONS[workload]
    real = getattr(workloads.Oracle, name)
    monkeypatch.setattr(workloads.Oracle, name, corrupt(real))
    result, (report,) = run.run_untraced(workload, 3, SECONDS, TINY)
    assert not result["correct"]
    assert result["failed"] > 0
    assert report["metrics"]["failed_frac"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
