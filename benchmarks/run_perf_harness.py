#!/usr/bin/env python
"""Benchmark harness: run the perf suite and persist BENCH_scaling.json.

Runs the A/B compile+rank comparison (scalar reference vs columnar fast
path, :mod:`repro.eval.perf`), the serving-layer measurements
(incremental-vs-full recompile, 1-vs-N-worker remote audit throughput
and standing-audit maintenance, :mod:`repro.eval.serving_perf`) and —
unless ``--skip-pytest`` — the
existing ``bench_scaling.py`` / ``bench_runtime.py`` pytest benchmarks,
then writes everything to ``BENCH_scaling.json`` at the repo root so
future PRs can track the perf trajectory::

    PYTHONPATH=src python benchmarks/run_perf_harness.py
    PYTHONPATH=src python benchmarks/run_perf_harness.py --densities 10 100 --skip-pytest
    PYTHONPATH=src python benchmarks/run_perf_harness.py --smoke --out /tmp/bench.json

``--smoke`` shrinks every measurement to seconds of wall-clock (tiny
densities, one repeat, no pytest run) — the mode the tier-1 smoke test
exercises so the harness cannot silently rot.

The JSON layout::

    {
      "generated_at": <unix seconds>,
      "ab": {...},            # repro.eval.perf.ab_compile_rank report
      "serving": {
        "delta_vs_full": {...},   # repro.eval.serving_perf.delta_vs_full
        "remote": {...},          # repro.eval.serving_perf.remote_report
        "standing_audit": {...},  # repro.eval.serving_perf.standing_report
        "gateway": {...},         # repro.eval.gateway_perf.gateway_report
      },
      "warehouse": {...},     # repro.eval.warehouse_perf.warehouse_report
      "pytest_benchmarks": [  # mean seconds per benchmark test
        {"name": ..., "mean_s": ..., "stddev_s": ...}, ...
      ],
      "observability": {
        "registry_deltas": {...},  # counter totals advanced by this run
        "overhead": {...},         # measured vs committed warm remote
      }
    }

A partial run (``--skip-serving``, ``--skip-warehouse``, ...) no
longer erases the skipped sections from ``BENCH_scaling.json``: any
top-level section — and any ``serving`` subsection — this run did not
measure is carried over from the committed file, so the perf
trajectory keeps its history across partial reruns. Freshly measured
sections always win.

The ``observability`` section is the instrumentation-overhead check:
the harness snapshots the process metrics registry before and after
the measurements (the deltas prove the counters actually advance under
load) and compares the freshly-measured warm remote throughput against
the committed ``BENCH_scaling.json`` baseline — which predates the
instrumentation, so a regression past ``--max-overhead`` (default 5%)
means the metrics/tracing layer costs too much. Advisory by default
(wall-clock on shared runners is noisy); ``--enforce-overhead`` turns
it into a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_pytest_benchmarks(files: list[str]) -> list[dict]:
    """Run pytest-benchmark files and harvest mean/stddev per test."""
    with tempfile.TemporaryDirectory() as tmp:
        out_json = Path(tmp) / "bench.json"
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            *files,
            "--benchmark-only",
            "-q",
            f"--benchmark-json={out_json}",
        ]
        env = {"PYTHONPATH": str(REPO_ROOT / "src")}
        import os

        proc = subprocess.run(
            cmd, cwd=REPO_ROOT, env={**os.environ, **env}, capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout[-4000:], file=sys.stderr)
            raise RuntimeError(f"pytest benchmarks failed ({proc.returncode})")
        data = json.loads(out_json.read_text())
    return [
        {
            "name": bench["fullname"],
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
        }
        for bench in data.get("benchmarks", [])
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_scaling.json"),
        help="output JSON path (default: BENCH_scaling.json at repo root)",
    )
    parser.add_argument(
        "--densities", type=int, nargs="+", default=[10, 25, 50, 100],
        help="objects per scene for the A/B sweep",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--skip-pytest", action="store_true",
        help="skip the bench_scaling.py / bench_runtime.py pytest run",
    )
    parser.add_argument(
        "--skip-serving", action="store_true",
        help="skip the delta-recompile / remote / standing-audit "
        "measurements",
    )
    parser.add_argument(
        "--delta-tracks", type=int, default=25,
        help="tracks in the delta-recompile scene (1 gets edited)",
    )
    parser.add_argument(
        "--remote-scenes", type=int, default=6,
        help="scenes audited per path in the remote-backend comparison",
    )
    parser.add_argument(
        "--remote-workers", type=int, nargs="+", default=[1, 2],
        help="TCP worker counts to sweep in the remote-backend comparison",
    )
    parser.add_argument(
        "--standing-tracks", type=int, default=100,
        help="objects in the standing-audit scene (edits cycle its tracks)",
    )
    parser.add_argument(
        "--standing-edits", type=int, default=40,
        help="edits streamed through the standing-audit comparison",
    )
    parser.add_argument(
        "--warehouse-scenes", type=int, default=16,
        help="corpus size for the out-of-core warehouse audit "
        "(floored at 4x the batch budget)",
    )
    parser.add_argument(
        "--warehouse-batch", type=int, default=4,
        help="resident-scene budget for the out-of-core warehouse audit",
    )
    parser.add_argument(
        "--skip-warehouse", action="store_true",
        help="skip the out-of-core warehouse measurement",
    )
    parser.add_argument(
        "--gateway-clients", type=int, default=256,
        help="concurrent clients driven through the async gateway "
        "(the 1k-client floor itself is enforced by "
        "benchmarks/bench_gateway.py)",
    )
    parser.add_argument(
        "--skip-gateway", action="store_true",
        help="skip the async-gateway measurement",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.05,
        help="tolerated fractional slowdown of warm remote throughput "
        "vs the committed BENCH_scaling.json baseline (default 0.05)",
    )
    parser.add_argument(
        "--enforce-overhead", action="store_true",
        help="exit non-zero when the overhead check fails (advisory "
        "otherwise — shared-runner wall-clock is noisy)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast sanity mode: tiny sizes, one repeat, no pytest run "
        "(used by the tier-1 smoke test)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.densities = [5]
        args.repeats = 1
        args.skip_pytest = True
        args.delta_tracks = 8
        args.remote_scenes = 2
        args.remote_workers = [2]
        args.standing_tracks = 30
        args.standing_edits = 10
        args.warehouse_scenes = 8
        args.warehouse_batch = 2
        args.gateway_clients = 48

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.eval.perf import ab_compile_rank, render_report
    from repro.obs.metrics import get_registry

    # The committed baseline predates this run — read it before --out
    # overwrites it, so the overhead check compares against history.
    baseline_path = REPO_ROOT / "BENCH_scaling.json"
    baseline = (
        json.loads(baseline_path.read_text())
        if baseline_path.exists()
        else None
    )
    counters_before = get_registry().summary()

    report: dict = {"generated_at": time.time()}
    ab = ab_compile_rank(densities=tuple(args.densities), repeats=args.repeats)
    report["ab"] = ab
    print(render_report(ab))

    if not args.skip_serving:
        from repro.eval.serving_perf import (
            delta_vs_full,
            remote_report,
            render_serving_report,
            standing_report,
        )

        delta = delta_vs_full(
            n_tracks=args.delta_tracks, repeats=max(1, args.repeats)
        )
        remote = remote_report(
            n_scenes=args.remote_scenes,
            worker_counts=tuple(args.remote_workers),
            repeats=max(1, args.repeats),
        )
        standing = standing_report(
            n_tracks=args.standing_tracks, n_edits=args.standing_edits
        )
        report["serving"] = {
            "delta_vs_full": delta,
            "remote": remote,
            "standing_audit": standing,
        }
        print(render_serving_report(delta, remote, standing))

    if not args.skip_gateway:
        from repro.eval.gateway_perf import (
            gateway_report,
            render_gateway_report,
        )

        gateway = gateway_report(
            n_clients=args.gateway_clients,
            n_scenes=4 if args.smoke else 8,
        )
        report.setdefault("serving", {})["gateway"] = gateway
        print(render_gateway_report(gateway))

    if not args.skip_warehouse:
        from repro.eval.warehouse_perf import (
            render_warehouse_report,
            warehouse_report,
        )

        warehouse = warehouse_report(
            corpus_scenes=args.warehouse_scenes,
            batch=args.warehouse_batch,
            n_objects=args.densities[0] if args.smoke else 25,
        )
        report["warehouse"] = warehouse
        print(render_warehouse_report(warehouse))

    if not args.skip_pytest:
        report["pytest_benchmarks"] = run_pytest_benchmarks(
            ["benchmarks/bench_scaling.py", "benchmarks/bench_runtime.py"]
        )
        for bench in report["pytest_benchmarks"]:
            print(f"  {bench['name']}: {bench['mean_s']*1e3:.1f} ms mean")

    overhead_ok = True
    report["observability"] = observability_section(
        counters_before=counters_before,
        counters_after=get_registry().summary(),
        baseline=baseline,
        measured=report.get("serving", {}).get("remote"),
        max_overhead=args.max_overhead,
    )
    deltas = report["observability"]["registry_deltas"]
    print(f"registry: {len(deltas)} counters advanced during the run")
    for name in sorted(deltas)[:8]:
        print(f"  {name}: +{deltas[name]:g}")
    overhead = report["observability"]["overhead"]
    if overhead is not None:
        overhead_ok = overhead["within_budget"]
        print(
            "instrumentation overhead (warm remote, vs committed "
            f"{overhead['baseline_scenes_per_s']:.0f} scenes/s): "
            f"{overhead['measured_scenes_per_s']:.0f} scenes/s "
            f"({overhead['slowdown'] * 100:+.1f}% — budget "
            f"{args.max_overhead * 100:.0f}%) "
            f"{'OK' if overhead_ok else 'OVER BUDGET'}"
        )

    report = merge_unrun_sections(report, baseline)
    Path(args.out).write_text(json.dumps(report, indent=2), encoding="utf-8")
    print(f"wrote {args.out}")
    if args.enforce_overhead and not overhead_ok:
        return 1
    return 0


def merge_unrun_sections(report: dict, baseline: dict | None) -> dict:
    """Carry unmeasured sections over from the committed baseline.

    A ``--skip-*`` run used to *rewrite* ``BENCH_scaling.json`` with
    only what it measured, silently erasing every other section's
    history. Instead: any top-level section missing from this run is
    copied from the committed file, and the ``serving`` dict merges at
    the subsection level (a gateway-only rerun must not drop the
    committed delta/remote numbers). Freshly measured keys always
    win; ``generated_at`` is always this run's.
    """
    if not baseline:
        return report
    merged = {
        **{k: v for k, v in baseline.items() if k != "generated_at"},
        **report,
    }
    baseline_serving = baseline.get("serving")
    if isinstance(baseline_serving, dict):
        merged["serving"] = {
            **baseline_serving,
            **(report.get("serving") or {}),
        }
    return merged


def observability_section(
    counters_before: dict,
    counters_after: dict,
    baseline: dict | None,
    measured: dict | None,
    max_overhead: float,
) -> dict:
    """Registry counter deltas + the ≤5% instrumentation-overhead check.

    The check pits this run's warm remote throughput (measured with the
    metrics/tracing layer live) against the committed baseline's; it
    compares the best worker case from each side so partition-count
    differences don't masquerade as instrumentation cost. Returns
    ``overhead=None`` when either side lacks a remote measurement or
    the workloads differ (e.g. ``--smoke`` vs a full baseline) — a
    throughput ratio across different scene counts measures the
    workload, not the instrumentation.
    """
    deltas = {
        name: total - counters_before.get(name, 0.0)
        for name, total in counters_after.items()
        if total - counters_before.get(name, 0.0) > 0
    }

    def best_warm(remote_report: dict | None) -> float | None:
        if not remote_report:
            return None
        rates = [
            case["scenes_per_s"]
            for case in remote_report.get("worker_cases", [])
            if case.get("scenes_per_s")
        ]
        return max(rates) if rates else None

    baseline_remote = (baseline or {}).get("serving", {}).get("remote")
    comparable = bool(
        baseline_remote
        and measured
        and baseline_remote.get("n_scenes") == measured.get("n_scenes")
        and baseline_remote.get("n_objects") == measured.get("n_objects")
    )
    baseline_rate = best_warm(baseline_remote) if comparable else None
    measured_rate = best_warm(measured)
    overhead = None
    if baseline_rate and measured_rate:
        slowdown = (baseline_rate - measured_rate) / baseline_rate
        overhead = {
            "baseline_scenes_per_s": baseline_rate,
            "measured_scenes_per_s": measured_rate,
            "slowdown": slowdown,
            "budget": max_overhead,
            "within_budget": slowdown <= max_overhead,
        }
    return {"registry_deltas": deltas, "overhead": overhead}


if __name__ == "__main__":
    raise SystemExit(main())
