"""Tests of the benchmark itself, on workloads shrunk to a fraction of a second.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import bench
import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = {
    "semi-pool": functools.partial(workloads.SemiPool, n_paired=60, pool=200, datasets=2),
    "infonce-gd": functools.partial(workloads.InfonceGd, n=120),
    "bsgmp-sweep": functools.partial(workloads.BsgmpSweep, n_per_cluster=12),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "WORKLOADS", dict(TINY))
    return bench.WORKLOADS


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(capsys, name, seed, trace):
    code = bench.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def mmcl_attributes():
    return {(m.__name__, attr): value
            for m in tracing.mmcl_modules() for attr, value in vars(m).items()}


def test_workload_names_agree():
    names = [w["name"] for w in spec()["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert set(workloads.COVERAGE) == set(names)


def test_declared_metrics_match_the_code():
    declared = spec()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == \
        tracing.per_layer_metrics()
    for layer in (name for names in workloads.COVERAGE.values() for name in names):
        assert layer in tracing.LAYERS


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_printed_metric_names_equal_benchmark_json_for_any_seed(tiny, capsys, name):
    declared = spec()
    e2e = [m["name"] for m in declared["end_to_end"]]
    layers = [m["name"] for m in declared["per_layer"]]
    for seed in (1, 2):
        code, result = run_bench(capsys, name, seed, 0)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == e2e
        assert all(v["value"] > 0 for v in result["metrics"].values())
    code, result = run_bench(capsys, name, 1, 1)
    assert code == 0 and result["correct"], "coverage or bit-identity self-check failed"
    assert list(result["metrics"]) == layers


def test_seed_changes_the_inputs(tmp_path):
    a = TINY["semi-pool"](1, str(tmp_path / "a"))
    b = TINY["semi-pool"](2, str(tmp_path / "b"))
    a.setup()
    b.setup()
    assert not np.array_equal(a.data[0][1].x, b.data[0][1].x)
    a, b = TINY["infonce-gd"](1, ""), TINY["infonce-gd"](2, "")
    a.setup()
    b.setup()
    assert not np.array_equal(a.data.x, b.data.x)
    assert workloads.op_seed(1, 0) != workloads.op_seed(2, 0)


def test_untraced_run_replaces_no_mmcl_attribute(tiny, capsys, monkeypatch):
    before = mmcl_attributes()
    seen = []

    class Probe(TINY["infonce-gd"].func):
        def op(self, i):
            seen.append(mmcl_attributes() == before)
            return super().op(i)

    monkeypatch.setitem(tiny, "infonce-gd", functools.partial(Probe, n=120))
    code, _ = run_bench(capsys, "infonce-gd", 1, 0)
    assert code == 0 and seen and all(seen)
    seen.clear()
    code, _ = run_bench(capsys, "infonce-gd", 1, 1)
    assert code == 0 and not all(seen), "the probe should see the traced wrappers"
    assert mmcl_attributes() == before, "tracing must restore every attribute"


def test_failed_check_fails_the_run(tiny, capsys, monkeypatch):
    def broken(self, i, fit):
        raise workloads.CheckFailed("injected")

    monkeypatch.setattr(workloads.InfonceGd, "check", broken)
    code, result = run_bench(capsys, "infonce-gd", 1, 0)
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_tail_keeps_ten_samples_beyond():
    assert bench.tail(list(range(1, 15))) == (7.5, 50.0)
    value, level = bench.tail(list(range(1, 41)))
    assert value == 30 and level == 75.0


def test_run_fails_when_a_child_dies_of_a_signal(monkeypatch):
    monkeypatch.setattr(run.subprocess, "run",
                        lambda cmd, **kw: subprocess.CompletedProcess(cmd, -9))
    assert run.main(["--workload", "bsgmp-sweep"]) != 0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "semi-pool",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
