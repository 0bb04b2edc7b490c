"""edit_stream: a labeler's edits to one open session, each answered
with the refreshed standing top-k, plus audits of another kind.

Drives ``StreamingService.handle`` in-process, so no warehouse, frame
or pool code runs. The benchmark keeps its own mirror of the scene and
applies every edit to it too; references are computed from the mirror.
"""

from __future__ import annotations

import random

import json
import time

from common import (
    base_scene_json, cached_inputs, fit_engine, inline_reference, live, training_scenes, variant_json,
)

CONFIG = {
    # 127 tracks and ~2.7k observations.
    "full": {"objects": 50, "samples": 100},
    "tiny": {"objects": 4, "samples": 4},
}
#: Four edits, then one audit: every read follows fresh edits, so every
#: read splices.
PATTERN = ("write", "write", "write", "write", "read")
#: Edit kinds: most replace a box; inserts and removals balance so the
#: scene keeps its size.
P_INSERT = 0.1
P_REMOVE = 0.1
#: Every n-th edit is checked against a from-scratch audit of the mirror.
CHECK_EVERY = 16
SESSION = "bench"
JITTER_M = 0.1


class EditStream:
    def __init__(self, size: str, seed: int, scratch: str, train_scenes: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.train, base = cached_inputs(f"edit_stream-{size}", lambda: (
            training_scenes(train_scenes), base_scene_json(CONFIG[size]["objects"], 3000),
        ))
        self.scene_json = variant_json(base, f"s{seed}-session", self.rng)
        self.pattern = list(PATTERN)
        self.min_samples = CONFIG[size]["samples"]
        self.fixy = self.service = self.mirror = None
        self.audit_id = None
        self.inserted: list[tuple[str, str]] = []
        self.edits = self.made = 0

    # -- set-up -----------------------------------------------------------
    def setup(self, attempt: int) -> float:
        """Model fit, session open and the standing subscription."""
        from repro.api import AuditSpec
        from repro.serving import StreamingService

        self.service = None
        scene = json.loads(self.scene_json)
        standing = AuditSpec(kind="tracks", top_k=10).to_dict()
        self.fixy, elapsed = fit_engine(self.train)
        t0 = time.perf_counter()
        self.service = StreamingService(self.fixy)
        self._call("open", scene=scene, session_id=SESSION)
        self.audit_id = self._call(
            "subscribe", session_id=SESSION, spec=standing
        )["audit_id"]
        return elapsed + time.perf_counter() - t0

    def _call(self, op: str, **fields) -> dict:
        response = self.service.handle({"v": 2, "op": op, **fields})
        if not response.get("ok"):
            raise RuntimeError(f"{op} failed: {response.get('error')}")
        return response

    def teardown(self) -> None:
        self.service = None

    close = teardown

    # -- ops --------------------------------------------------------------
    def _mirror(self):
        if self.mirror is None:
            self.mirror = live(self.scene_json)
        return self.mirror

    def _edit(self, index: int) -> dict:
        from repro.core.model import Observation

        rng = self.rng
        roll = rng.random()
        if roll < P_REMOVE and self.inserted:
            track_id, obs_id = self.inserted.pop(0)
            return {"op": "remove_observation", "track_id": track_id, "obs_id": obs_id}
        track = rng.choice(self._mirror().tracks)
        old = rng.choice(track.observations)
        box = type(old.box)(
            x=old.box.x + rng.gauss(0.0, JITTER_M),
            y=old.box.y + rng.gauss(0.0, JITTER_M),
            z=old.box.z,
            length=old.box.length,
            width=old.box.width,
            height=old.box.height,
            yaw=old.box.yaw,
        )
        obs_id = f"s{self.seed}-e{self.made}"
        self.made += 1
        if roll > 1.0 - P_INSERT:
            new = Observation(frame=old.frame, box=box, object_class=old.object_class,
                              source="model", confidence=0.5, obs_id=obs_id)
            self.inserted.append((track.track_id, obs_id))
            return {"op": "insert_observation", "track_id": track.track_id,
                    "observation": new.to_dict()}
        new = Observation(frame=old.frame, box=box, object_class=old.object_class,
                          source=old.source, confidence=old.confidence, obs_id=obs_id)
        # A replaced insert stays removable under its new id.
        self.inserted = [
            (t, obs_id if o == old.obs_id else o) for t, o in self.inserted
        ]
        return {"op": "replace_observation", "track_id": track.track_id,
                "obs_id": old.obs_id, "observation": new.to_dict()}

    def prepare(self, kind: str, index: int, traced: bool):
        if kind == "read":
            from repro.api import AuditSpec

            return AuditSpec(kind="observations", top_k=10).to_dict()
        edit = self._edit(index)
        audit = self.service.store.standing(SESSION, self.audit_id)
        from repro.obs import metrics

        recompiled = metrics.get_registry().get("repro_session_tracks_recompiled_total")
        before = (recompiled.total(), audit.stats.maintain_s, audit.stats.tracks_rescored)
        return edit, before

    def op(self, kind: str, args):
        if kind == "read":
            return self._call("audit", session_id=SESSION, spec=args)
        return self._call("edit", session_id=SESSION, edit=args[0])

    def check(self, kind: str, args, response, record):
        from repro.api import AuditSpec
        from repro.serving.edits import edit_from_dict

        if kind == "read":
            spec = AuditSpec.from_dict(args)
            if response["result"]["items"] != inline_reference(self.fixy, spec, [self._mirror()]):
                return "session audit differs from a from-scratch audit"
            return None
        edit, before = args
        edit_from_dict(edit).apply(self._mirror())
        audit = self.service.store.standing(SESSION, self.audit_id)
        from repro.obs import metrics

        recompiled = metrics.get_registry().get("repro_session_tracks_recompiled_total")
        record.extra.update(
            recompiled=recompiled.total() - before[0],
            maintain_s=audit.stats.maintain_s - before[1],
            rescored=audit.stats.tracks_rescored - before[2],
        )
        self.edits += 1
        if self.edits % CHECK_EVERY:
            return None
        expected = inline_reference(self.fixy, audit.spec, [self._mirror()])
        if response["standing"][self.audit_id]["results"] != expected:
            return "standing top-k differs from a from-scratch audit"
        return None

    # -- reporting --------------------------------------------------------
    def peak_rss_mb(self, own_mb: float) -> float:
        return own_mb

    def layer_extras(self, phase) -> dict:
        writes = [r for r in phase.records if r.traced and r.kind == "write" and not r.failed]
        n = len(writes) or 1
        return {
            "session.tracks_recompiled_per_edit": sum(r.extra["recompiled"] for r in writes) / n,
            "standing.maintain_ms": 1e3 * sum(r.extra["maintain_s"] for r in writes) / n,
            "standing.tracks_rescored_per_edit": sum(r.extra["rescored"] for r in writes) / n,
        }
