"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:
    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced; the test asserts that each metric
BENCHMARK.json declares is emitted, that the output checks ran, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("planted-demo", "zipf-inject", "zipf-rules", "fb237-rank")
SUMMARY_METRICS = ("setup_s", "run_s", "run_rel", "train_examples_per_s", "rank_triples_per_s",
                   "peak_rss_mb")


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def record(workload: str, trace: int) -> dict:
    path = os.path.join(ROOT, ".perfbench", "records", f"{workload}-seed3-trace{trace}-tiny.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_emits_end_to_end_metrics_and_checks(workload):
    proc = run(ROOT, workload, 0, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in bench_spec()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())
    summary = proc.stdout.splitlines()[0]
    for name in SUMMARY_METRICS:
        assert f"{name}=" in summary
    for rep in record(workload, 0)["repetitions"]:
        assert rep["checks"], "no output check ran"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_emits_per_layer_metrics_that_add_up(workload):
    proc = run(ROOT, workload, 1, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in bench_spec()["per_layer"]}
    traced = [r for r in record(workload, 1)["repetitions"] if r["traced"]]
    assert traced and all(r["checks"] for r in traced)
    # one traced repetition at tiny size, so the reported medians are its
    # figures: the reported layers' self times must cover the traced run_s
    self_total = sum(m["value"] for k, m in metrics.items() if k.startswith("self."))
    assert self_total == pytest.approx(metrics["trace.run_s"]["value"], rel=1e-3)
    spans = os.path.join(ROOT, ".perfbench", "work", workload, "spans.jsonl")
    with open(spans, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert any(r.get("parent", -1) >= 0 for r in rows), "no nested spans recorded"


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run(str(tmp_path), "planted-demo", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
