"""The benchmark at its tiny size: every workload runs clean and prints
every metric BENCHMARK.json names, with its unit."""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _file:
    BENCHMARK = json.load(_file)
# run.py by path, so perfbench's module names never enter sys.path.
_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run)
LAYERS = _run.LAYERS


def run(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_reports_every_metric(workload, trace, section):
    done = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
               "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0  # error_rate 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if section == "per_layer":
        # Every layer the workload loads was recorded: a call that moved
        # out from under its span would read 0 here.
        for name, _, _, on in LAYERS:
            if workload in on:
                assert result["metrics"][name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(str(tmp_path), "--workload", "edit_stream", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
