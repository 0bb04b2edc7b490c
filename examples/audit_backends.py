"""One declarative AuditSpec, three execution backends, one answer.

The unified audit API (repro.api) separates *what* to audit from *how*
to run it. This example declares a single missing-label audit as an
AuditSpec, round-trips it through JSON (it is pure data — ship it, log
it, diff it), then executes it on every registered backend — the
``remote`` one over two in-process TCP workers — and shows the
rankings are byte-identical, with provenance telling the strategies
apart. Finally the same spec goes through the versioned wire protocol
via the in-repo client — the exact path a remote front end would take.

Run:
    python examples/audit_backends.py
"""

from repro.api import (
    Audit,
    AuditClient,
    AuditSpec,
    FilterSpec,
    available_backends,
)
from repro.datasets import SYNTHETIC_INTERNAL, build_dataset
from repro.serving import GatewayWorker

# ---------------------------------------------------------------------------
# 1. Declare the audit. No engine objects, no callables — data only.
# ---------------------------------------------------------------------------
spec = AuditSpec(
    kind="tracks",
    filters=FilterSpec(has_model=True, has_human=False),  # missing labels
    top_k=10,
    backend="inline",
)
wire = spec.to_json(indent=2)
assert AuditSpec.from_json(wire) == spec  # JSON round-trip, exactly
print("AuditSpec (JSON wire form):")
print(wire)
print(f"spec hash: {spec.spec_hash()}\n")

# ---------------------------------------------------------------------------
# 2. Bind it: validate once, fit the engine, warm the density grids.
# ---------------------------------------------------------------------------
dataset = build_dataset(SYNTHETIC_INTERNAL, n_train_scenes=4, n_val_scenes=4)
audit = Audit(spec, train_scenes=dataset.train_scenes)
scenes = [ls.scene for ls in dataset.val_scenes]

# ---------------------------------------------------------------------------
# 3. Execute on every backend. Same spec, same scenes, same ranking —
#    the backend is a deployment choice, not a results choice. The
#    remote backend needs workers: two in-process TCP workers serving
#    the same fitted model.
# ---------------------------------------------------------------------------
workers = [GatewayWorker(audit.fixy) for _ in range(2)]
options = {"remote": {"workers": [w.address for w in workers]}}
reference = None
try:
    for backend in available_backends():
        result = audit.run(
            scenes=scenes, backend=backend, **options.get(backend, {})
        )
        signature = [(s.track_id, s.score) for s in result.items]
        if reference is None:
            reference = signature
        assert signature == reference, f"{backend} diverged from inline!"
        timing = 1e3 * result.provenance.timings["rank_s"]
        print(
            f"{backend:<10s} {len(result.items):2d} items in "
            f"{timing:7.1f} ms  "
            f"(model {result.provenance.model_fingerprint[:12]})"
        )
    print("rankings byte-identical across backends\n")
finally:
    audit.close()  # releases the remote backend's worker pool
    for worker in workers:
        worker.stop()

# ---------------------------------------------------------------------------
# 4. The same spec over the versioned client/service protocol — what a
#    remote worker front end speaks (structured errors).
# ---------------------------------------------------------------------------
client = AuditClient.local(audit.fixy)
remote_result = client.audit(spec, scenes=scenes)
assert [i.to_dict() for i in remote_result.items] == [
    i.to_dict(spec.kind) for i in audit.run(scenes=scenes).items
]
print(
    f"protocol audit: {len(remote_result.items)} items via backend "
    f"{remote_result.provenance.backend!r}, spec "
    f"{remote_result.provenance.spec_hash[:12]} — matches in-process"
)

top = remote_result.items[0]
print(
    f"top candidate: {top.track_id} (score {top.score:+.3f}, "
    f"{top.summary['n_observations']} observations)"
)
