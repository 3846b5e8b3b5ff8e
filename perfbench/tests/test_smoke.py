"""Smoke tests of the benchmark: one short round, a few trials per point.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(workload, trace, seed=5, cwd=ROOT, bench_dir=ROOT):
    cmd = [sys.executable, str(bench_dir / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.01",
           "--trace", str(trace), "--trials-per-point", "3"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check_printed(stdout, result, metrics):
    expected = {m["name"]: m["unit"] for m in metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = stdout.splitlines()
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    assert "failed_frac = 0 (" in stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_repeat(workload):
    first, stdout = result_of(run_bench(workload, 0))
    second, _ = result_of(run_bench(workload, 0))
    check_printed(stdout, first, SPEC["end_to_end"])
    for name in ("emrr", "flop_cut_pct"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result, stdout = result_of(run_bench(workload, 1))
    check_printed(stdout, result, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["decoder.mismatches"] == 0
    assert metrics["codes.generator_matrix_calls_per_trial"] == 2
    if workload == "bhv-4qam-sweep":
        assert metrics["decoder.oracle_checked"] == 6 * 3


def test_layer_map_covers_benchmark():
    layer_map = json.loads((HERE.parent / "layer_map.json").read_text())
    assert set(layer_map["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(layer_map["workloads"]) == set(WORKLOADS)
    targets = {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"}
    for entry in layer_map["per_layer"].values():
        assert set(entry["moves"]) <= targets
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, bench_dir=tmp_path)
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout


def test_tracer_restores_functions_and_takes_self_time():
    import bostbc.sim
    from bostbc import decoder
    from tracer import Tracer

    tracer = Tracer()
    original = bostbc.sim.sphere_decode
    with tracer.installed():
        assert bostbc.sim.sphere_decode is not original
        code = bostbc.codes.named_code("bhv")
        bostbc.structure.equivalent_channel(code, [[1, 0], [0, 1]])
    assert bostbc.sim.sphere_decode is original is decoder.sphere_decode
    spans = {s.name: s for s in tracer.spans}
    eq = spans["structure.equivalent_channel"]
    children = [s for s in tracer.spans if s.parent == eq.id]
    assert {"codes.generator_matrix", "linalg.kron"} <= {s.name for s in children}
    assert eq.self_ns == eq.duration_ns - sum(s.duration_ns for s in children)
