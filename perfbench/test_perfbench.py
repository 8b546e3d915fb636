"""The benchmark's own checks: determinism, tracing leaves results alone, metric names.

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_OPS = {"triangle-sweep": 4, "cluster-solve": 4, "flow-fine": 2, "cli": 4}

sys.path.insert(0, HERE)
from run import child_env  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker(workload, workdir, *extra):
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", "7", "--ops", str(TINY_OPS[workload]), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in _spec()["workloads"]) == sorted(TINY_OPS)


@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_digest_repeats_and_tracing_changes_nothing(workload, tmp_path):
    first = _worker(workload, tmp_path)
    second = _worker(workload, tmp_path)
    traced = _worker(workload, tmp_path, "--trace")
    assert len(first["tokens"]) == TINY_OPS[workload]
    assert first["incorrect"] == [] and traced["incorrect"] == []
    assert first["tokens"] == second["tokens"] == traced["tokens"]
    assert traced["spans"] and "spans" not in first


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units(trace, section):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "triangle-sweep",
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in _spec()[section]}
