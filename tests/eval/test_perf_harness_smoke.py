"""Smoke test for benchmarks/run_perf_harness.py (--smoke mode).

The harness is a standalone script, so nothing else in the test suite
imports it — without this test it could silently rot while the modules
it drives evolve. ``--smoke`` shrinks every measurement to a few
seconds, skips the pytest-benchmark child run, and still writes the
full BENCH_scaling.json layout. Sections a partial run skips are
carried over from the committed baseline instead of erased, so the
perf trajectory survives partial reruns.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
HARNESS = REPO_ROOT / "benchmarks" / "run_perf_harness.py"


@pytest.fixture(scope="module")
def harness_module():
    spec = importlib.util.spec_from_file_location("run_perf_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_smoke_writes_full_report(harness_module, tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = harness_module.main(["--smoke", "--out", str(out)])
    assert code == 0

    report = json.loads(out.read_text())
    assert report["generated_at"] > 0

    ab = report["ab"]
    assert ab["cases"] and ab["cases"][0]["speedup"] is not None

    serving = report["serving"]
    delta = serving["delta_vs_full"]
    assert delta["n_tracks"] >= 1
    assert delta["delta_ms"] > 0 and delta["full_ms"] > 0
    assert delta["speedup"] is not None

    remote = serving["remote"]
    assert remote["byte_identical"] is True
    assert remote["worker_cases"][0]["n_workers"] == 2  # --smoke sweep
    assert remote["worker_cases"][0]["scenes_per_s"] > 0
    partitions = remote["worker_cases"][0]["partitions"]
    assert sum(p["n_scenes"] for p in partitions) == remote["n_scenes"]

    gateway = serving["gateway"]
    assert gateway["n_clients"] >= 2
    assert gateway["sustained"]["all_answered"] is True
    assert gateway["shed"]["typed_overloaded"] is True
    assert gateway["coalesce"]["hit_ratio"] >= 0.5
    assert gateway["byte_identity"]["byte_identical"] is True

    # --smoke skips the pytest-benchmark child run; the committed
    # baseline's section is carried over rather than erased (and this
    # run's generated_at wins).
    baseline_path = REPO_ROOT / "BENCH_scaling.json"
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        if "pytest_benchmarks" in baseline:
            assert (
                report["pytest_benchmarks"] == baseline["pytest_benchmarks"]
            )
        assert report["generated_at"] != baseline["generated_at"]
    else:
        assert "pytest_benchmarks" not in report

    printed = capsys.readouterr().out
    assert "A/B compile+rank" in printed
    assert "delta recompile" in printed
    assert "async gateway" in printed


def test_smoke_respects_skip_serving(harness_module, tmp_path):
    out = tmp_path / "bench2.json"
    code = harness_module.main(
        ["--smoke", "--skip-serving", "--skip-gateway", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert "ab" in report
    # The skipped serving section is merged back from the committed
    # baseline (when one exists) instead of silently dropped.
    baseline_path = REPO_ROOT / "BENCH_scaling.json"
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        assert report.get("serving") == baseline.get("serving")
    else:
        assert "serving" not in report


def test_merge_unrun_sections_prefers_fresh_measurements(harness_module):
    baseline = {
        "generated_at": 1.0,
        "ab": {"old": True},
        "serving": {"remote": {"old": True}, "standing_audit": {"old": True}},
        "warehouse": {"old": True},
    }
    report = {
        "generated_at": 2.0,
        "serving": {"gateway": {"fresh": True}, "remote": {"fresh": True}},
    }
    merged = harness_module.merge_unrun_sections(report, baseline)
    assert merged["generated_at"] == 2.0
    assert merged["ab"] == {"old": True}  # carried over
    assert merged["warehouse"] == {"old": True}  # carried over
    assert merged["serving"]["standing_audit"] == {"old": True}  # kept
    assert merged["serving"]["remote"] == {"fresh": True}  # fresh wins
    assert merged["serving"]["gateway"] == {"fresh": True}
    # No baseline at all: the report passes through untouched.
    assert harness_module.merge_unrun_sections(report, None) is report
