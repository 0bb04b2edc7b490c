"""Observability end to end: a traced remote audit, then a metered
standing-audit edit stream.

Part 1 runs one distributed audit against two live TCP workers with
``trace=True``: every layer the request crosses — scene resolution,
per-partition dispatch, each worker's own compile/rank — records a
span, the workers piggyback their spans on the wire responses, and the
coordinator stitches everything into a single trace that lands in the
result's provenance. We print the hottest spans and export the trace
as JSONL (what ``cli audit --trace PATH`` writes).

Part 2 streams edits through a live session with a subscribed standing
audit. The process-wide metrics registry (the same one ``cli serve
--metrics-addr`` exposes over HTTP in Prometheus text format) meters
the maintenance work — tracks rescored, heap refills/demotions,
cumulative maintenance seconds — and we print the counter series it
accumulated.

Run:
    PYTHONPATH=src python examples/observed_audit.py
"""

import json
import tempfile
from pathlib import Path

from repro.api import Audit, AuditSpec, FilterSpec
from repro.datasets import SYNTHETIC_INTERNAL, build_dataset
from repro.obs import get_registry
from repro.serving import (
    GatewayWorker,
    InsertBundle,
    RemoveBundle,
    SceneSession,
)

# ---------------------------------------------------------------------------
# Part 1 — a traced remote audit over two in-process TCP workers.
# ---------------------------------------------------------------------------
dataset = build_dataset(SYNTHETIC_INTERNAL, n_train_scenes=5, n_val_scenes=6)
spec = AuditSpec(
    kind="tracks",
    top_k=10,
    filters=FilterSpec(has_model=True, has_human=False),
)
audit = Audit(spec, train_scenes=dataset.train_scenes)
audit.fixy.warmup_fast_eval()
scenes = [ls.scene for ls in dataset.val_scenes]

workers = [GatewayWorker(audit.fixy) for _ in range(2)]
addresses = [w.address for w in workers]
print(f"workers up: {', '.join(addresses)}")

try:
    result = audit.run(
        scenes=scenes, backend="remote", workers=addresses, trace=True
    )
finally:
    for worker in workers:
        worker.stop()
    audit.close()

trace = result.provenance.trace
spans = trace["spans"]
print(
    f"\naudit ranked {len(result.items)} items; trace {trace['trace_id']} "
    f"captured {len(spans)} spans across coordinator + {len(workers)} workers"
)

# The hottest spans — where the request actually spent its time. Worker
# spans carry the dispatching worker's address via their dispatch parent.
by_id = {s["span_id"]: s for s in spans}


def owner(span):
    while span is not None:
        worker = span.get("attrs", {}).get("worker")
        if worker:
            return worker
        span = by_id.get(span.get("parent_id"))
    return "coordinator"


print("\ntop 5 spans by duration:")
for span in sorted(spans, key=lambda s: s["dur_s"], reverse=True)[:5]:
    print(
        f"  {1e3 * span['dur_s']:8.2f} ms  {span['name']:<16s} "
        f"[{owner(span)}]  {span.get('attrs', {})}"
    )

trace_path = Path(tempfile.mkdtemp(prefix="observed_audit_")) / "trace.jsonl"
n_spans = result.dump_trace(trace_path)
first = json.loads(trace_path.read_text().splitlines()[0])
print(f"\nexported {n_spans} spans to {trace_path} (first: {first['name']!r})")

# ---------------------------------------------------------------------------
# Part 2 — a standing-audit edit stream, read through the registry.
# ---------------------------------------------------------------------------
registry = get_registry()
before = registry.summary()

scene = scenes[0]
session = SceneSession(
    scene,
    audit.fixy.features,
    learned=audit.fixy.learned,
    aofs=audit.fixy.aofs,
)
standing = session.subscribe(spec, audit_id="observed")

# Churn each track's last bundle (remove, re-insert): every apply
# touches one track, and the standing audit rescores exactly that
# track — while the final scene stays identical to the original.
n_edits = 0
for track in scene.tracks[:40]:
    last = track.bundles[-1]
    session.apply(RemoveBundle(track.track_id, last.frame))
    session.apply(InsertBundle(track.track_id, last))
    n_edits += 2
assert standing.verify()

after = registry.summary()
print(
    f"\nstanding audit maintained top-{spec.top_k} through {n_edits} edits "
    "(verified against a full rescore); registry deltas:"
)
for name in sorted(after):
    delta = after[name] - before.get(name, 0.0)
    if delta > 0 and name.startswith(("repro_standing", "repro_session")):
        print(f"  {name:<44s} +{delta:g}")

# The same numbers, as a scrape would see them (`cli serve
# --metrics-addr HOST:PORT` serves exactly this text over HTTP).
exposition = registry.render()
standing_lines = [
    line
    for line in exposition.splitlines()
    if line.startswith("repro_standing")
]
print("\nexposition excerpt (Prometheus text format 0.0.4):")
for line in standing_lines[:6]:
    print(f"  {line}")
