"""Closed-loop benchmark of the online phase: warehouse scans, session
edits and remote audits.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warehouse_scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the same workload with layer spans recorded on every
other block of ops and reports the per-layer metrics instead, writing
the spans to ``.perfbench/spans-<workload>-<seed>.jsonl``. ``--size tiny``
shrinks every input so a run takes seconds (the benchmark's own test
uses it). A human-readable report goes to standard error; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("warehouse_scan", "edit_stream", "remote_audit")
#: Set in the environment of a run that started over once its inputs
#: were cached, so that it never starts over twice.
REEXEC = "PERFBENCH_INPUTS_CACHED"

#: (name, unit). Order is the order printed.
END_TO_END = (
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

WH, ES, RA = WORKLOADS
#: (name, unit, span rule, workloads). A span rule ``(per, span, op
#: kind[, not under])`` averages the inclusive time of that span inside
#: ops of that kind, per ``"call"`` or per ``"op"``, skipping spans
#: nested under the optional fourth name. Rows without a rule are
#: computed in :func:`layer_metrics` or by the workload (provenance,
#: counters). A traced run of a listed workload fails its check when
#: the metric is not above 0: that layer's spans or counters went
#: missing. Rows that may be 0 on a healthy run (error counters,
#: refills, tracing overhead) list no workload. A workload reads 0 on a
#: layer it never calls.
LAYERS = (
    ("warehouse.query_ms", "ms", ("op", "warehouse.query", "read"), (WH,)),
    ("warehouse.fetch_ms", "ms", ("call", "warehouse.fetch", "read"), (WH,)),
    ("frames.unpack_ms", "ms", ("call", "frames.unpack", "read"), (WH,)),
    ("warehouse.restore_ms", "ms", ("call", "warehouse.restore", "read"), (WH,)),
    ("core.score_ms", "ms", ("call", "core.score", "read"), (WH, ES)),
    ("core.merge_ms", "ms", ("op", "core.merge", "read"), (WH, RA)),
    ("warehouse.sidecar_hit_ratio", "ratio", None, (WH,)),
    ("frames.pack_ms", "ms", ("call", "frames.pack", "write"), (WH, RA)),
    ("frames.hash_ms", "ms", ("call", "frames.hash", "write", "warehouse.fetch"), (WH, RA)),
    ("warehouse.ingest_ms", "ms", ("op", "warehouse.ingest", "write"), (WH,)),
    ("core.compile_ms", "ms", ("call", "core.compile", "write"), (WH, ES)),
    ("warehouse.sidecar_put_ms", "ms", ("call", "warehouse.sidecar_put", "write"), (WH,)),
    ("session.apply_ms", "ms", ("op", "session.apply", "write"), (ES,)),
    ("session.tracks_recompiled_per_edit", "count", None, (ES,)),
    ("standing.maintain_ms", "ms", None, (ES,)),
    ("standing.results_ms", "ms", ("op", "standing.results", "write"), (ES,)),
    ("standing.tracks_rescored_per_edit", "count", None, (ES,)),
    ("service.dispatch_ms", "ms", None, (ES,)),
    ("session.splice_ms", "ms", ("op", "session.splice", "read"), (ES,)),
    ("session.rank_ms", "ms", None, (ES,)),
    ("pool.probe_ms", "ms", None, (RA,)),
    ("pool.dispatch_ms", "ms", None, (RA,)),
    ("pool.overhead_ms", "ms", None, (RA,)),
    ("pool.wire_ms", "ms", None, (RA,)),
    ("pool.requests_per_op", "count", None, (RA,)),
    ("pool.scene_cache_hit_ratio", "ratio", None, (RA,)),
    ("pool.encode_ms", "ms", None, (RA,)),
    ("pool.bytes_per_op", "bytes", None, (RA,)),
    ("pool.refills_per_op", "count", None, ()),
    ("gateway.execute_ms", "ms", None, (RA,)),
    ("gateway.queue_wait_ms", "ms", None, (RA,)),
    ("gateway.shed", "count", None, ()),
    ("pool.requeues", "count", None, ()),
    ("obs.trace_overhead_pct", "%", None, ()),
    ("trace.unattributed_pct", "%", None, WORKLOADS),
    ("trace.unattributed_read_pct", "%", None, WORKLOADS),
    ("trace.unattributed_write_pct", "%", None, WORKLOADS),
)
#: Workload -> (op kind, layer that must take the most self time in
#: ops of that kind at full size). On warehouse reads this is the
#: ROADMAP's hand profile: unpack ~74%, sidecar restore ~20%, fetch and
#: score a few percent each. Anything else means the spans are wrong.
LARGEST_LAYER = {WH: ("read", "frames.unpack")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def load_workload(name: str):
    if name == "warehouse_scan":
        from warehouse_scan import WarehouseScan as cls
    elif name == "edit_stream":
        from edit_stream import EditStream as cls
    else:
        from remote_audit import RemoteAudit as cls
    return cls


def layer_metrics(tracer, phase, workload) -> dict:
    """Every per-layer metric, from the spans and the workload's extras."""
    from common import median

    values = dict.fromkeys((name for name, _, _, _ in LAYERS), 0.0)
    for name, _, rule, _ in LAYERS:
        if rule is None:
            continue
        per, span, kind, *not_under = rule
        if per == "call":
            values[name] = tracer.per_call_ms(span, kind, *not_under)
        else:
            values[name] = tracer.per_op_ms(span, kind)
    splice = tracer.total_s(
        i for i in tracer.calls("session.splice", "read")
        if "session.rank" in tracer.ancestors(i)
    )
    n_reads = len(tracer.op_ids("read"))
    if n_reads:
        values["session.rank_ms"] = (
            tracer.per_op_ms("session.rank", "read") - 1e3 * splice / n_reads
        )
        values["pool.probe_ms"] = tracer.per_op_ms("pool.reprobe", "read") + tracer.per_op_ms(
            "pool.refresh_capacity", "read"
        )
    table = {row["layer"]: row for row in tracer.layer_table()}
    if "service.handle" in table:
        values["service.dispatch_ms"] = table["service.handle"]["self_ms_per_op"]
    untraced = phase.latencies("read")
    traced = phase.latencies("read", traced=True)
    if untraced and traced:
        values["obs.trace_overhead_pct"] = 100.0 * (median(traced) / median(untraced) - 1.0)
    values["trace.unattributed_pct"] = tracer.unattributed_pct()
    values["trace.unattributed_read_pct"] = tracer.unattributed_pct("read")
    values["trace.unattributed_write_pct"] = tracer.unattributed_pct("write")
    values.update(workload.layer_extras(phase))
    return values


def layer_problems(tracer, values, workload: str, size: str) -> list[str]:
    """Why the traced split cannot be trusted, if it cannot."""
    problems = [
        f"{name} is {values[name]:.4g}: its layer was never recorded"
        for name, _, _, on in LAYERS
        if workload in on and not values[name] > 0
    ]
    if size == "full" and workload in LARGEST_LAYER:
        kind, expected = LARGEST_LAYER[workload]
        table = tracer.layer_table(kind)
        if not table or table[0]["layer"] != expected:
            found = table[0]["layer"] if table else "nothing"
            problems.append(f"{found}, not {expected}, takes the most time in {kind}s")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import common
    from common import (
        SIZES, checkout_scratch, end_to_end, process_peak_rss_mb, reset_peak_rss, run_closed_loop,
    )
    from tracing import Tracer

    size = SIZES[args.size]
    scratch = checkout_scratch(ROOT)
    workload = None
    try:
        workload = load_workload(args.workload)(
            args.size, args.seed, scratch, size["train_scenes"]
        )
        if common.synthesized and not os.environ.get(REEXEC):
            # The first run in a checkout has just synthesized and cached
            # the inputs. It starts over, so that synthesis leaves nothing
            # in the heap the run measures, its peak resident set included.
            shutil.rmtree(scratch, ignore_errors=True)
            sys.stdout.flush()
            sys.stderr.flush()
            os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, **{REEXEC: "1"}))
        repeats = 1 if args.trace else size["setup_repeats"]
        setup_times, setup_peak_mb = [], 0.0
        for attempt in range(repeats):
            if attempt:
                workload.teardown()
                # The torn-down engine's reference cycles would otherwise
                # be collected, and counted, inside the next set-up.
                gc.collect()
            # The peak starts here, after the benchmark synthesized its
            # inputs; checks between ops are kept out of it too.
            reset_peak_rss()
            setup_times.append(workload.setup(attempt))
            setup_peak_mb = max(setup_peak_mb, process_peak_rss_mb())
        warm = run_closed_loop(
            workload, workload.pattern, n_ops=size["warmup_blocks"] * len(workload.pattern)
        )
        # Everything alive once set-up and warm-up end (modules, the
        # engine, the benchmark's inputs and references) moves to the
        # collector's permanent generation, as a server freezes its heap
        # after warm-up. A full collection then scans only what was
        # allocated since, instead of pausing ~30 ms in one op of five
        # and putting p90 on the edge between paused and unpaused ops.
        gc.collect()
        gc.freeze()
        tracer = Tracer() if args.trace else None
        phase = run_closed_loop(
            workload, workload.pattern, args.seconds, workload.min_samples, tracer
        )
        peak_rss = workload.peak_rss_mb(max(setup_peak_mb, phase.peak_rss_mb))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(phase.records)
    failed = sum(1 for r in phase.records if r.failed)
    errors = warm.errors + phase.errors
    # Exceptions, protocol errors and wrong results all count as failed
    # ops; a warm-up op that failed makes the run incorrect too.
    correct = failed == 0 and attempted > 0 and not warm.errors
    report = [
        f"{args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
        f"{attempted} ops in {phase.busy_s:.2f} s of op time, {failed} failed "
        f"(error_rate {failed / attempted if attempted else 0.0:.4f}), "
        f"{phase.mismatches} wrong results"
    ]
    report += [f"  error: {e}" for e in errors[:10]]
    for kind in ("read", "write"):
        latencies = phase.latencies(kind)
        if len(latencies) >= 10:
            deciles = statistics.quantiles(latencies, n=10)
            report.append(f"  {kind} deciles ms: " + " ".join(f"{1e3 * d:.1f}" for d in deciles))
    if tracer is None:
        values = end_to_end(phase, setup_times, peak_rss)
        metrics = {}
        for name, unit in END_TO_END:
            value, samples = values[name]
            # A kind with no successful op has no latency; its failures
            # already show in `failed` and success_rate.
            metrics[name] = {"value": 0.0 if math.isnan(value) else value, "unit": unit}
            report.append(f"  {name:<14} {value:12.4f} {unit:<6} (n={samples})")
    else:
        values = layer_metrics(tracer, phase, workload)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYERS}
        problems = layer_problems(tracer, values, args.workload, args.size)
        correct = correct and not problems
        report += [f"  layer check failed: {p}" for p in problems]
        report.append("  layer                        calls  self ms/op  share of op wall")
        for row in tracer.layer_table():
            report.append(
                f"  {row['layer']:<28} {row['calls']:5d} {row['self_ms_per_op']:10.3f}"
                f"  {row['share_pct']:6.1f}%"
            )
        for name, unit, _, _ in LAYERS:
            report.append(f"  {name:<36} {values[name]:12.4f} {unit}")
        spans_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.dump(os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
