"""The benchmark's own test: both workloads at tiny budgets, end to end and traced.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
Each benchmark run is its own process, as the benchmark is meant to be run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORTED = ("failed_share", "mrl2_plain", "mrl2_structured", "mrl2_quadratic")


def bench(tmp_path, *args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args, "--seconds", "1", "--out", str(tmp_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def printed(name: str, report: str) -> bool:
    return any(line.split()[:1] == [name] for line in report.splitlines())


def check_metrics(result, spec_metrics, report: str) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert printed(m["name"], report), m["name"]


@pytest.mark.parametrize("seed", [11, 3])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_run_prints_every_metric_and_passes_its_gates(tmp_path, workload, seed):
    proc = bench(tmp_path, "--workload", workload, "--seed", str(seed), "--trace", "0", "--tiny")
    result = result_line(proc)
    check_metrics(result, SPEC["end_to_end"], proc.stdout)
    for name in REPORTED:
        assert printed(name, proc.stdout), name
    record = json.loads((tmp_path / f"{workload}-seed{seed}-trace0.json").read_text())
    assert record["counts"]["passes"] >= 2
    assert record["counts"]["feedback_samples_per_variant"] >= 1000
    # every draw's passes agree, and draw 0 runs at least twice
    for draw in {p["draw"] for p in record["passes"]}:
        assert len({json.dumps(p["digests"]) for p in record["passes"] if p["draw"] == draw}) == 1
    assert sum(p["draw"] == 0 for p in record["passes"]) >= 2


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_the_per_layer_metrics_of_the_spec(tmp_path, workload):
    proc = bench(tmp_path, "--workload", workload, "--trace", "1", "--tiny")
    result = result_line(proc)
    check_metrics(result, SPEC["per_layer"], proc.stdout)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["explore.trajectories"] > 0 and metrics["vkoga.steps"] > 0
    assert metrics["numerics.cg_solve.iterations"] >= metrics["hermite.HermiteOperator.matvec.calls"] / 2
    assert (tmp_path / f"spans-{workload}-seed11.csv.gz").is_file()


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench(tmp_path / "out", "--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
