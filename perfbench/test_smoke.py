"""Smoke test of the benchmark harness on tiny inputs.

Run from the root of a checkout: ``python3 -m pytest perfbench/test_smoke.py``.
Each workload runs once untraced and twice traced at one seed. Every metric
of BENCHMARK.json must print with its unit, every operation must pass its
oracle, and the per-layer counts must repeat exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMPUTED = {
    "graph.edges_built",
    "graph.build_reuse_ratio",
    "evolve.eig_hermitian.dim3_sum",
    "evolve.propagate.amplitudes",
    "spin_network.hilbert_cells",
    "spin_network.sector_ratio",
    "cli.bytes_out",
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def _check_units(metrics: dict, declared: list[dict]) -> None:
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_repeats_counts(workload):
    plain = _result(_run(workload, 0))
    _check_units(plain["metrics"], SPEC["end_to_end"])
    assert plain["metrics"]["ok_ratio"]["value"] == 1.0

    first, second = (_result(_run(workload, 1))["metrics"] for _ in range(2))
    _check_units(first, SPEC["per_layer"])
    counted = [n for n in first if n.endswith(".calls") or n in COMPUTED]
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["cli.main.calls"]["value"] >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
