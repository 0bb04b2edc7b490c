"""One AuditSpec, two worker processes, one byte-identical answer.

The distributed path end to end: save a fitted model, launch two real
``repro.cli serve --listen`` worker processes on it, then run the same
declarative audit through the ``inline`` backend (this process) and the
``remote`` backend (scenes partitioned across the two workers; the
``hello`` handshake negotiates the protocol v2 binary framed wire, so
scene payloads ship as packed NumPy buffers addressed by content hash
— a repeat audit of the same scenes ships ids only). The rankings come
back byte-identical — the remote backend is a deployment decision, not
a results decision — and the result's provenance says which worker
ranked which partition, over which wire, and how fast.

Run:
    PYTHONPATH=src python examples/remote_audit.py
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.api import Audit, AuditSpec, FilterSpec
from repro.datasets import SYNTHETIC_INTERNAL, build_dataset

# ---------------------------------------------------------------------------
# 1. Offline prep: fit once, persist the model (with its density grids).
#    Every worker must serve the *same* model — registration enforces it
#    by fingerprint before any scene ships.
# ---------------------------------------------------------------------------
dataset = build_dataset(SYNTHETIC_INTERNAL, n_train_scenes=4, n_val_scenes=6)
spec = AuditSpec(
    kind="tracks",
    filters=FilterSpec(has_model=True, has_human=False),  # missing labels
    top_k=10,
)
audit = Audit(spec, train_scenes=dataset.train_scenes)
scenes = [ls.scene for ls in dataset.val_scenes]

workdir = Path(tempfile.mkdtemp(prefix="remote_audit_"))
model_path = workdir / "model.json"
audit.fixy.learned.save(model_path, include_grids=True)
print(f"model saved: {model_path} "
      f"(fingerprint {audit.fixy.learned.fingerprint()[:12]})")

# ---------------------------------------------------------------------------
# 2. Launch two workers: each is `repro.cli serve --listen` on a free
#    port, announcing its bound address on stderr.
# ---------------------------------------------------------------------------
def launch_worker() -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--model", str(model_path), "--listen", "127.0.0.1:0"],
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    for line in proc.stderr:
        found = re.search(r"listening on (\S+)", line)
        if found:
            proc.address = found.group(1)
            return proc
    raise RuntimeError("worker never announced its address")


workers = [launch_worker(), launch_worker()]
addresses = [w.address for w in workers]
print(f"workers up: {', '.join(addresses)}\n")

try:
    # -----------------------------------------------------------------------
    # 3. Same spec, two execution strategies. `with_backend` keeps the
    #    whole declaration — including the worker list — pure data.
    # -----------------------------------------------------------------------
    local = audit.run(scenes=scenes)  # inline reference
    remote = audit.run(
        scenes=scenes, backend="remote", workers=addresses, timeout=120.0
    )

    assert [s.to_dict(spec.kind) for s in remote.items] == [
        s.to_dict(spec.kind) for s in local.items
    ], "remote ranking diverged from inline!"

    print(f"top {len(local.items)} candidates (identical on both backends):")
    for position, (mine, theirs) in enumerate(
        zip(local.items, remote.items), start=1
    ):
        assert mine.score == theirs.score  # bit-for-bit
        print(
            f"  #{position:<2d} score {mine.score:+.3f}  "
            f"{mine.scene_id}/{mine.track_id}"
        )

    # -----------------------------------------------------------------------
    # 4. Provenance: who did what, and how fast.
    # -----------------------------------------------------------------------
    print(
        f"\ninline: {1e3 * local.provenance.timings['rank_s']:7.1f} ms  "
        f"(backend {local.provenance.backend!r})"
    )
    print(
        f"remote: {1e3 * remote.provenance.timings['rank_s']:7.1f} ms  "
        f"(backend {remote.provenance.backend!r}), per worker:"
    )
    for report in remote.provenance.workers:
        print(
            f"  {report['worker']}: partition {report['partition']} "
            f"({report['n_scenes']} scenes) in "
            f"{1e3 * report['rank_s']:7.1f} ms, "
            f"{report['attempts']} attempt(s), wire {report['wire']}, "
            f"{report['bytes_sent']}B shipped"
        )

    # A second audit of the same scenes rides the worker scene caches:
    # only content hashes cross the wire.
    warm = audit.run(
        scenes=scenes, backend="remote", workers=addresses, timeout=120.0
    )
    assert [s.score for s in warm.items] == [s.score for s in remote.items]
    cold_bytes = sum(r["bytes_sent"] for r in remote.provenance.workers)
    warm_bytes = sum(r["bytes_sent"] for r in warm.provenance.workers)
    hits = sum(r["scene_cache_hits"] for r in warm.provenance.workers)
    print(
        f"\nsecond audit of the same scenes: {warm_bytes}B on the wire "
        f"(first: {cold_bytes}B), {hits}/{len(scenes)} worker cache hits "
        "— ids shipped, not bodies"
    )
finally:
    audit.close()
    for worker in workers:
        worker.terminate()
print("\nworkers stopped")
