"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import passes  # noqa: E402
from qnocsim import Circuit, MeshTopology, SimConfig, experiment, run  # noqa: E402
from workloads import WORKLOADS, seed_overrides  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_workloads_are_the_ones_benchmark_json_declares():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_to_run_without_qnocsim_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "bundle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_seed_one_is_the_shipped_bundle():
    seeds = seed_overrides("bundle", 1)
    for _name, config in experiment.default_bundle():
        assert passes._with_seeds(config, seeds) == config


def test_overlapping_hop_intervals_fail_the_run():
    cfg = SimConfig(topology=MeshTopology(4, 1), n_per_core=1, m_per_core=2)
    report = run(Circuit.from_ops(4, [("cx", (0, 3)), ("cx", (1, 2))]), cfg)
    assert not passes.run_failed(report, cfg)
    first = report.hops[0]
    clash = dataclasses.replace(first, gate_id=first.gate_id + 100)  # same link, same interval
    assert passes.run_failed(dataclasses.replace(report, hops=report.hops + (clash,)), cfg)


def test_non_finite_rows_fail(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text(
        "workload,strategy,cr_mode,num_requests,comm_delay_sum\n"
        "qft16,hh,-,3,42\n"
        "qft16,twt,-,3,nan\n"
        "qft16,twt,-,3,inf\n",
        encoding="utf-8",
    )
    assert passes.count_good_rows([path]) == (1, 3)
