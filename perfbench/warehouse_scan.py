"""warehouse_scan: out-of-core audits of a stored corpus, plus ingests.

Reads audit one disjoint, sidecar-warm scene group at a time, selected
round-robin by tag predicate. Writes ingest one fresh scene into an
inbox warehouse and audit just that scene, which compiles it cold and
writes its sidecar. The inbox starts empty again every
``INBOX_WRITES`` writes, so neither the corpus the reads scan nor the
inbox grows with the length of a run.
"""

from __future__ import annotations

import os
import random
import time

from common import (
    base_scene_json, cached_inputs, fit_engine, inline_reference, live, signature, training_scenes,
    variant, variant_json,
)

CONFIG = {
    # 32 scenes of ~1k observations: twice the 16-entry compile LRU
    # and ~7 MB of blobs against SQLite's default 2 MB page cache.
    # 150 samples per op kind, so fifteen lie beyond each p90.
    "full": {"bases": 2, "objects": 15, "groups": 16, "group_size": 2, "samples": 150},
    "tiny": {"bases": 2, "objects": 4, "groups": 4, "group_size": 2, "samples": 4},
}
#: One client alternates reads and writes 1:1; the seed permutes the
#: order inside each block of four. No usage data fixes this ratio: it
#: gives both op kinds the same number of samples per run.
BLOCK = ("read", "read", "write", "write")
KIND = "tracks"
TOP_K = 10
INBOX_WRITES = 16
#: Every fresh scene is a variant of this base, so every write does the
#: same work; the bases differ in size.
WRITE_BASE = 1


class WarehouseScan:
    def __init__(self, size: str, seed: int, scratch: str, train_scenes: int):
        cfg = CONFIG[size]
        self.seed = seed
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.group_size = cfg["group_size"]
        self.min_samples = cfg["samples"]
        self.train, self.bases = cached_inputs(f"warehouse_scan-{size}", lambda: (
            training_scenes(train_scenes),
            [base_scene_json(cfg["objects"], 1000 + b) for b in range(cfg["bases"])],
        ))
        self.groups = [
            [
                variant_json(self.bases[(g * self.group_size + i) % len(self.bases)],
                             f"s{seed}-g{g:02d}-{i}", self.rng)
                for i in range(self.group_size)
            ]
            for g in range(cfg["groups"])
        ]
        pattern = list(BLOCK)
        self.rng.shuffle(pattern)
        self.pattern = pattern
        self.first_group = self.rng.randrange(len(self.groups))
        self.reads = self.writes = 0
        self.references: dict[int, list[dict]] = {}
        self.fixy = self.db = None
        self.inbox = self.inbox_db = None

    # -- set-up -----------------------------------------------------------
    def setup(self, attempt: int) -> float:
        """Model fit, corpus ingest and the cold audit that writes sidecars.

        Returns the seconds spent in the program: decoding the
        benchmark's serialized scenes into live ones is not timed.
        """
        from repro.api import Audit, AuditSpec, SceneSource
        from repro.warehouse import SceneWarehouse

        self.fixy, elapsed = fit_engine(self.train)
        self.db = os.path.join(self.scratch, f"corpus-{attempt}.db")
        t0 = time.perf_counter()
        store = SceneWarehouse(self.db)
        elapsed += time.perf_counter() - t0
        with store:
            for g, scenes in enumerate(self.groups):
                for scene_json in scenes:
                    scene = live(scene_json)
                    t0 = time.perf_counter()
                    store.ingest(scene, tags=(f"g{g:02d}",))
                    elapsed += time.perf_counter() - t0
        del scene
        spec = AuditSpec(
            kind=KIND, top_k=TOP_K,
            scenes=SceneSource(warehouse=self.db, batch=self.group_size),
        )
        t0 = time.perf_counter()
        Audit(spec, fixy=self.fixy).run()
        return elapsed + time.perf_counter() - t0

    def _close_inbox(self) -> None:
        if self.inbox is not None:
            self.inbox.close()
            os.remove(self.inbox_db)
            self.inbox = None

    def teardown(self) -> None:
        self._close_inbox()
        if self.db is not None:
            os.remove(self.db)
            self.db = None

    close = teardown

    # -- ops --------------------------------------------------------------
    def _spec(self, db: str, tag: str):
        from repro.api import AuditSpec, SceneSource

        return AuditSpec(
            kind=KIND, top_k=TOP_K,
            scenes=SceneSource(warehouse=db, predicate={"tag": tag}, batch=self.group_size),
        )

    def prepare(self, kind: str, index: int, traced: bool):
        if kind == "read":
            group = (self.first_group + self.reads) % len(self.groups)
            self.reads += 1
            return group
        from repro.warehouse import SceneWarehouse

        n = self.writes
        self.writes += 1
        if self.inbox is None or n % INBOX_WRITES == 0:
            self._close_inbox()
            self.inbox_db = os.path.join(self.scratch, f"inbox-{n // INBOX_WRITES}.db")
            self.inbox = SceneWarehouse(self.inbox_db)
        fresh = variant(self.bases[WRITE_BASE], f"s{self.seed}-w{n:05d}", self.rng)
        return (f"w{n:05d}", fresh)

    def op(self, kind: str, args):
        from repro.api import Audit

        if kind == "read":
            return Audit(self._spec(self.db, f"g{args:02d}"), fixy=self.fixy).run()
        tag, fresh = args
        self.inbox.ingest(fresh, tags=(tag,))
        return Audit(self._spec(self.inbox_db, tag), fixy=self.fixy).run()

    def check(self, kind: str, args, result, record):
        from repro.api import AuditSpec

        stream = result.provenance.stream
        record.extra.update(warm=stream["compile_warm"], cold=stream["compile_cold"])
        spec = AuditSpec(kind=KIND, top_k=TOP_K)
        if kind == "read":
            if args not in self.references:
                scenes = [live(scene_json) for scene_json in self.groups[args]]
                self.references[args] = inline_reference(self.fixy, spec, scenes)
            expected = self.references[args]
        else:
            expected = inline_reference(self.fixy, spec, [args[1]])
        if signature(result.items, KIND) != expected:
            return "ranking differs from the in-memory inline audit"
        return None

    # -- reporting --------------------------------------------------------
    def peak_rss_mb(self, own_mb: float) -> float:
        return own_mb

    def layer_extras(self, phase) -> dict:
        reads = [r for r in phase.records if r.traced and r.kind == "read" and not r.failed]
        warm = sum(r.extra["warm"] for r in reads)
        scanned = warm + sum(r.extra["cold"] for r in reads)
        return {"warehouse.sidecar_hit_ratio": warm / scanned if scanned else 0.0}
