"""SceneWarehouse: a durable, content-addressed scene + compiled store.

The disk half of the content-addressed transport PR 5 put on the wire:
``scene_fingerprint → packed scene blob`` (the exact
:func:`repro.api.frames.pack_scene` bytes, bit-identical round-trip)
in a single SQLite file — stdlib :mod:`sqlite3`, no new dependencies.
Three tables:

- ``scenes``: the blob plus the metadata columns the predicate algebra
  (:mod:`repro.warehouse.index`) prunes on, each secondarily indexed —
  a predicate resolves to a fingerprint list without touching a blob;
- ``tags``: user tags, ``(fingerprint, tag)`` with a ``(tag, …)``
  index for the ``tag`` predicate;
- ``compiled``: the optional compiled-columns sidecar, keyed by
  ``(scene_fingerprint, model_fingerprint)``. A warm audit restores the
  factor arrays (:func:`restore_compiled`) instead of calling
  ``compile_scene`` — the expensive batched density evaluations are
  skipped entirely; only the cheap :class:`ObservationTable` array
  extraction reruns against the unpacked scene. Keying by model
  fingerprint *is* the invalidation rule: refit the model and every
  sidecar row written under the old fingerprint simply stops matching.

Integrity is checked on every read: scene blobs are re-hashed against
their primary key and sidecar payloads against a stored checksum;
mismatches raise :class:`~repro.warehouse.errors.WarehouseCorruptionError`
rather than silently scoring garbage. Ingest is idempotent
(``INSERT OR REPLACE`` keyed by content hash — concurrent ingests of
the same fingerprint race benignly, last writer wins the metadata and
tags), and canonical scene order is *fingerprint order*: content-derived,
so re-ingesting a corpus never reorders an audit.

Sidecar-restored compiled scenes are scoring-complete (``Scorer`` ranks
them byte-identically to a fresh compile) but do not materialize the
lazy factor-graph view — ``compiled.graph`` needs the live feature
matrix; re-compile with ``Fixy.compile(scene)`` for that.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import struct
import threading
import time
from typing import Iterable, Iterator

import numpy as np

from repro.api import frames
from repro.obs import metrics as obs_metrics
from repro.warehouse.errors import (
    UnknownFingerprintError,
    WarehouseCorruptionError,
    WarehouseError,
)
from repro.warehouse.index import INDEXED_FIELDS, ScenePredicate

__all__ = [
    "SCHEMA_VERSION",
    "SIDECAR_VERSION",
    "DEFAULT_BATCH",
    "SceneWarehouse",
    "pack_compiled",
    "restore_compiled",
    "scene_metadata",
    "warehouse_scorer",
]

#: Version of the on-disk schema (stored in ``warehouse_meta``).
SCHEMA_VERSION = 1

#: Version of the compiled-columns sidecar payload format.
SIDECAR_VERSION = 1

#: Default resident-batch budget for out-of-core resolution — the
#: number of decoded scenes an audit keeps live at once when a
#: :class:`~repro.api.spec.SceneSource` does not pin ``batch=``.
DEFAULT_BATCH = 32

# Warehouse metrics (names are API — docs/API.md, "Observability").
_INGESTS = obs_metrics.counter(
    "repro_warehouse_ingest_total", "Scenes ingested (including re-ingests)"
)
_INGEST_BYTES = obs_metrics.counter(
    "repro_warehouse_ingest_bytes_total", "Packed scene bytes ingested"
)
_FETCHES = obs_metrics.counter(
    "repro_warehouse_fetch_total", "Scene blobs fetched (and verified)"
)
_FETCH_BYTES = obs_metrics.counter(
    "repro_warehouse_fetch_bytes_total", "Packed scene bytes fetched"
)
_PRUNED = obs_metrics.counter(
    "repro_warehouse_pruned_total",
    "Scenes excluded by indexed predicate queries (corpus - matches)",
)
_COMPILED_HITS = obs_metrics.counter(
    "repro_warehouse_compiled_hits_total",
    "Warm audits served from the compiled-columns sidecar",
)
_COMPILED_MISSES = obs_metrics.counter(
    "repro_warehouse_compiled_misses_total",
    "Sidecar lookups that fell back to a full compile",
)
_CORRUPTIONS = obs_metrics.counter(
    "repro_warehouse_corruption_total",
    "Integrity-check failures on read (blob re-hash or sidecar checksum)",
)
_GC_ROWS = obs_metrics.counter(
    "repro_warehouse_gc_rows_total",
    "Compiled sidecar rows dropped by gc for rotated model fingerprints",
)
_GC_BYTES = obs_metrics.counter(
    "repro_warehouse_gc_bytes_total",
    "Compiled sidecar payload bytes reclaimed by gc",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS warehouse_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS scenes (
    fingerprint    TEXT PRIMARY KEY,
    blob           BLOB NOT NULL,
    scene_id       TEXT NOT NULL,
    n_tracks       INTEGER NOT NULL,
    n_observations INTEGER NOT NULL,
    n_frames       INTEGER NOT NULL,
    duration_s     REAL NOT NULL,
    dt             REAL NOT NULL,
    ingested_at    REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS scenes_by_scene_id ON scenes (scene_id);
CREATE INDEX IF NOT EXISTS scenes_by_n_tracks ON scenes (n_tracks);
CREATE INDEX IF NOT EXISTS scenes_by_n_observations ON scenes (n_observations);
CREATE INDEX IF NOT EXISTS scenes_by_n_frames ON scenes (n_frames);
CREATE INDEX IF NOT EXISTS scenes_by_duration ON scenes (duration_s);
CREATE INDEX IF NOT EXISTS scenes_by_dt ON scenes (dt);
CREATE INDEX IF NOT EXISTS scenes_by_ingested_at ON scenes (ingested_at);
CREATE TABLE IF NOT EXISTS tags (
    fingerprint TEXT NOT NULL,
    tag         TEXT NOT NULL,
    PRIMARY KEY (fingerprint, tag)
);
CREATE INDEX IF NOT EXISTS tags_by_tag ON tags (tag, fingerprint);
CREATE TABLE IF NOT EXISTS compiled (
    fingerprint       TEXT NOT NULL,
    model_fingerprint TEXT NOT NULL,
    payload           BLOB NOT NULL,
    checksum          TEXT NOT NULL,
    created_at        REAL NOT NULL,
    PRIMARY KEY (fingerprint, model_fingerprint)
);
"""


def scene_metadata(scene) -> dict:
    """The indexed metadata row derived from one scene.

    ``n_frames`` is the inclusive frame span (max − min + 1) across the
    scene's bundles and ``duration_s`` that span times ``scene.dt`` —
    the time-range index a predicate can bound without decoding a blob.
    """
    n_obs = 0
    lo = hi = None
    for track in scene.tracks:
        for bundle in track.bundles:
            n_obs += len(bundle.observations)
            frame = bundle.frame
            lo = frame if lo is None or frame < lo else lo
            hi = frame if hi is None or frame > hi else hi
    n_frames = 0 if lo is None else int(hi - lo + 1)
    return {
        "scene_id": scene.scene_id,
        "n_tracks": len(scene.tracks),
        "n_observations": n_obs,
        "n_frames": n_frames,
        "duration_s": n_frames * float(scene.dt),
        "dt": float(scene.dt),
    }


# ---------------------------------------------------------------------------
# Compiled-columns sidecar payload
# ---------------------------------------------------------------------------
_SIDECAR_ARRAYS = (
    ("factor_feature", "<i8"),
    ("factor_item", "<i8"),
    ("member_start", "<i8"),
    ("member_stop", "<i8"),
    ("potentials", "<f8"),
)


class _SidecarMatrix:
    """Placeholder for the feature matrix a sidecar does not persist.

    Ranking never touches it; the lazy graph/factor views do, and get a
    typed error pointing at the real compile path instead of an
    AttributeError deep inside materialization.
    """

    __slots__ = ()

    def __getattr__(self, name):
        raise WarehouseError(
            "sidecar-restored compiled scenes support scoring/ranking only; "
            "re-compile with Fixy.compile(scene) for the factor-graph view"
        )


def pack_compiled(columns) -> bytes:
    """Serialize a :class:`~repro.core.compile.CompiledColumns` payload.

    Layout mirrors :func:`repro.api.frames.pack_scene`: a u32-prefixed
    JSON header (feature names, track order + factor slices, override
    shapes) followed by the factor arrays as little-endian i8/f8 —
    exactly what :class:`~repro.core.scoring.Scorer` consumes, nothing
    the unpacked scene can rebuild for free.
    """
    overrides = sorted(
        (int(i), np.ascontiguousarray(rows, dtype="<i8"))
        for i, rows in columns.member_overrides.items()
    )
    header = {
        "version": SIDECAR_VERSION,
        "features": [f.name for f in columns.features],
        "n_factors": int(columns.n_factors),
        "track_order": list(columns.track_order),
        "track_factor_slices": {
            tid: [int(start), int(stop)]
            for tid, (start, stop) in columns.track_factor_slices.items()
        },
        "track_slices_cover_members": bool(columns.track_slices_cover_members),
        "overrides": [[i, int(rows.size)] for i, rows in overrides],
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [struct.pack("<I", len(head)), head]
    for name, dtype in _SIDECAR_ARRAYS:
        parts.append(
            np.ascontiguousarray(getattr(columns, name), dtype=dtype).tobytes()
        )
    for _, rows in overrides:
        parts.append(rows.tobytes())
    return b"".join(parts)


def restore_compiled(payload: bytes, scene, features, fingerprint: str = "?"):
    """Rebuild a rank-ready compiled scene from a sidecar payload.

    ``features`` is the live engine's feature list; stored names resolve
    against it by name. Returns ``None`` when they don't (the engine's
    feature set changed without a model refit — treat as a cache miss),
    raises :class:`WarehouseCorruptionError` when the payload itself is
    malformed or inconsistent with the scene.
    """
    from repro.core.columnar import ObservationTable
    from repro.core.compile import CompiledColumns, CompiledScene
    from repro.core.features import FeatureContext

    def corrupt(reason: str) -> WarehouseCorruptionError:
        _CORRUPTIONS.inc()
        return WarehouseCorruptionError(fingerprint, reason)

    try:
        (head_len,) = struct.unpack_from("<I", payload, 0)
        header = json.loads(payload[4 : 4 + head_len].decode("utf-8"))
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise corrupt(f"sidecar header does not parse ({exc})") from None
    if header.get("version") != SIDECAR_VERSION:
        return None  # a future format, not corruption: recompile
    by_name = {f.name: f for f in features}
    names = header["features"]
    if any(name not in by_name for name in names):
        return None  # engine feature set changed: recompile
    n = int(header["n_factors"])
    offset = 4 + head_len
    arrays = {}
    for name, dtype in _SIDECAR_ARRAYS:
        width = np.dtype(dtype).itemsize
        end = offset + n * width
        if end > len(payload):
            raise corrupt("sidecar payload truncated mid-array")
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=n, offset=offset)
        offset = end
    member_overrides: dict[int, np.ndarray] = {}
    for i, size in header["overrides"]:
        end = offset + int(size) * 8
        if end > len(payload):
            raise corrupt("sidecar payload truncated mid-override")
        member_overrides[int(i)] = np.frombuffer(
            payload, dtype="<i8", count=int(size), offset=offset
        )
        offset = end
    if offset != len(payload):
        raise corrupt(
            f"sidecar payload has {len(payload) - offset} trailing bytes"
        )

    table = ObservationTable(scene)
    stop_max = int(arrays["member_stop"].max()) if n else 0
    if stop_max > table.n_obs:
        raise corrupt(
            f"sidecar references observation row {stop_max} but the scene "
            f"has {table.n_obs} rows"
        )
    columns = CompiledColumns(
        table=table,
        matrix=_SidecarMatrix(),
        features=[by_name[name] for name in names],
        factor_feature=arrays["factor_feature"],
        factor_item=arrays["factor_item"],
        potentials=arrays["potentials"],
        member_start=arrays["member_start"],
        member_stop=arrays["member_stop"],
        member_overrides=member_overrides,
        track_order=list(header["track_order"]),
        track_factor_slices={
            tid: (int(start), int(stop))
            for tid, (start, stop) in header["track_factor_slices"].items()
        },
        track_slices_cover_members=bool(header["track_slices_cover_members"]),
    )
    return CompiledScene(
        scene=scene,
        context=FeatureContext.from_scene(scene),
        tracks={t.track_id: t for t in scene.tracks},
        columns=columns,
    )


def warehouse_scorer(warehouse, fixy, fingerprint: str, scene):
    """``(Scorer, from_sidecar)`` for one warehouse scene.

    Warm path: restore the compiled columns from the sidecar keyed by
    ``(fingerprint, model fingerprint)`` — no ``compile_scene`` call.
    Cold path: compile through the engine (uncached) and write the
    sidecar so the *next* audit under this model is warm. Engines
    without a fitted model, or running the scalar pipeline, always
    compile (there is nothing stable to key a sidecar on).
    """
    from repro.core.scoring import Scorer

    learned = fixy.learned
    model_fp = learned.fingerprint() if learned is not None else None
    if model_fp is not None and fixy.vectorized:
        compiled = warehouse.get_compiled(
            fingerprint, model_fp, scene=scene, features=fixy.features
        )
        if compiled is not None:
            return Scorer(compiled), True
    compiled = fixy.compile(scene)
    if model_fp is not None and getattr(compiled, "columns", None) is not None:
        warehouse.put_compiled(fingerprint, model_fp, compiled)
    return Scorer(compiled), False


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class SceneWarehouse:
    """A content-addressed scene corpus in one SQLite file.

    Args:
        path: Database file (created on first open unless
            ``create=False``; ``":memory:"`` works for tests).
        create: When False, a missing file is a
            :class:`~repro.warehouse.errors.WarehouseError` instead of
            a silently-born empty corpus — what audit paths pass, so a
            typo'd ``--warehouse`` fails loudly.
        timeout: SQLite busy timeout in seconds (cross-process ingest
            contention waits instead of failing).

    Thread-safe: one connection guarded by an RLock (scene scoring
    dominates audit time; serialized store access is not the
    bottleneck). Safe for multi-process use — SQLite serializes
    writers, and content addressing makes racing ingests idempotent.
    """

    def __init__(self, path, create: bool = True, timeout: float = 30.0):
        self.path = str(path)
        if (
            not create
            and self.path != ":memory:"
            and not os.path.exists(self.path)
        ):
            raise WarehouseError(
                f"no warehouse at {self.path!r} (pass create=True, or ingest "
                "with `repro.cli warehouse ingest` first)"
            )
        self._conn = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False
        )
        self._lock = threading.RLock()
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO warehouse_meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        row = self._conn.execute(
            "SELECT value FROM warehouse_meta WHERE key = 'schema_version'"
        ).fetchone()
        stored = int(row[0])
        if stored > SCHEMA_VERSION:
            raise WarehouseError(
                f"warehouse {self.path!r} has schema v{stored}; this build "
                f"reads up to v{SCHEMA_VERSION}"
            )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SceneWarehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM scenes").fetchone()
        return int(n)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM scenes WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    # -- ingest --------------------------------------------------------
    def ingest(self, scene, tags: Iterable[str] = ()) -> str:
        """Pack + store one live scene; returns its fingerprint."""
        return self._ingest(frames.pack_scene(scene), scene, tags)

    def ingest_packed(self, blob: bytes, tags: Iterable[str] = ()) -> str:
        """Store an already-packed blob (it is unpacked once for the
        metadata row — and thereby validated)."""
        return self._ingest(bytes(blob), frames.unpack_scene(blob), tags)

    def _ingest(self, blob: bytes, scene, tags: Iterable[str]) -> str:
        fingerprint = frames.scene_fingerprint(blob)
        meta = scene_metadata(scene)
        tag_rows = [(fingerprint, str(t)) for t in dict.fromkeys(tags)]
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO scenes (fingerprint, blob, scene_id, "
                "n_tracks, n_observations, n_frames, duration_s, dt, "
                "ingested_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    sqlite3.Binary(blob),
                    meta["scene_id"],
                    meta["n_tracks"],
                    meta["n_observations"],
                    meta["n_frames"],
                    meta["duration_s"],
                    meta["dt"],
                    time.time(),
                ),
            )
            # Last writer wins the whole tag set, same as the metadata.
            self._conn.execute(
                "DELETE FROM tags WHERE fingerprint = ?", (fingerprint,)
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO tags (fingerprint, tag) VALUES (?, ?)",
                tag_rows,
            )
        _INGESTS.inc()
        _INGEST_BYTES.inc(len(blob))
        return fingerprint

    # -- fetch ---------------------------------------------------------
    def get_blob(self, fingerprint: str) -> bytes:
        """The verified packed bytes for one fingerprint.

        The stored blob is re-hashed on every read; a mismatch raises
        :class:`WarehouseCorruptionError` (the row is left in place for
        the operator).
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT blob FROM scenes WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        if row is None:
            raise UnknownFingerprintError(fingerprint)
        blob = bytes(row[0])
        actual = frames.scene_fingerprint(blob)
        if actual != fingerprint:
            _CORRUPTIONS.inc()
            raise WarehouseCorruptionError(
                fingerprint,
                f"stored bytes re-hash to {actual[:12]}… "
                f"({len(blob)} bytes on disk)",
            )
        _FETCHES.inc()
        _FETCH_BYTES.inc(len(blob))
        return blob

    def get(self, fingerprint: str):
        """The decoded :class:`~repro.core.model.Scene` (verified)."""
        blob = self.get_blob(fingerprint)
        try:
            return frames.unpack_scene(blob)
        except Exception as exc:
            # The hash matched, so the bytes are what was ingested —
            # but they no longer decode (a format bug, not bit rot).
            _CORRUPTIONS.inc()
            raise WarehouseCorruptionError(
                fingerprint, f"verified blob does not unpack: {exc}"
            ) from exc

    def fetch_batches(
        self, fingerprints: Iterable[str], batch: int = DEFAULT_BATCH
    ) -> Iterator[list[tuple[str, object]]]:
        """Yield ``[(fingerprint, scene), ...]`` lists of ≤ ``batch``.

        The out-of-core primitive: at most one batch of decoded scenes
        is materialized per step, and callers that drop each batch
        before advancing keep peak residency at the batch budget.
        """
        batch = max(1, int(batch))
        pending = []
        for fingerprint in fingerprints:
            pending.append(fingerprint)
            if len(pending) >= batch:
                yield [(fp, self.get(fp)) for fp in pending]
                pending = []
        if pending:
            yield [(fp, self.get(fp)) for fp in pending]

    # -- query ---------------------------------------------------------
    def query(self, predicate: ScenePredicate | None = None) -> list[str]:
        """Matching fingerprints in canonical (fingerprint) order.

        ``None`` selects the whole corpus. Runs entirely on the
        metadata indexes — no blob is read — and records the pruned
        count (corpus − matches) in ``repro_warehouse_pruned_total``.
        """
        sql = "SELECT fingerprint FROM scenes"
        params: list = []
        if predicate is not None:
            where, params = predicate.to_sql()
            sql += " WHERE " + where
        sql += " ORDER BY fingerprint"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
            (total,) = self._conn.execute(
                "SELECT COUNT(*) FROM scenes"
            ).fetchone()
        if predicate is not None:
            _PRUNED.inc(int(total) - len(rows))
        return [row[0] for row in rows]

    def count(self, predicate: ScenePredicate | None = None) -> int:
        sql = "SELECT COUNT(*) FROM scenes"
        params: list = []
        if predicate is not None:
            where, params = predicate.to_sql()
            sql += " WHERE " + where
        with self._lock:
            (n,) = self._conn.execute(sql, params).fetchone()
        return int(n)

    def metadata(self, fingerprint: str) -> dict:
        """The indexed metadata row (+ ``tags`` list + ``ingested_at``)."""
        columns = list(INDEXED_FIELDS)
        with self._lock:
            row = self._conn.execute(
                f"SELECT {', '.join(columns)} FROM scenes "
                "WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            if row is None:
                raise UnknownFingerprintError(fingerprint)
            tags = [
                r[0]
                for r in self._conn.execute(
                    "SELECT tag FROM tags WHERE fingerprint = ? ORDER BY tag",
                    (fingerprint,),
                )
            ]
        meta = dict(zip(columns, row))
        meta["tags"] = tags
        return meta

    def iter_metadata(self) -> Iterator[tuple[str, dict, frozenset]]:
        """Full scan: ``(fingerprint, metadata, tags)`` per scene, in
        fingerprint order — the reference the indexed :meth:`query` is
        property-tested against."""
        for fingerprint in self.query():
            meta = self.metadata(fingerprint)
            tags = frozenset(meta.pop("tags"))
            yield fingerprint, meta, tags

    # -- compiled-columns sidecar -------------------------------------
    def put_compiled(
        self, fingerprint: str, model_fingerprint: str, compiled
    ) -> bool:
        """Persist a compiled scene's factor arrays for warm audits.

        Returns False (stores nothing) for scalar-path compiles — only
        columnar compiles carry the arrays the sidecar format holds.
        """
        columns = getattr(compiled, "columns", None)
        if columns is None or model_fingerprint is None:
            return False
        payload = pack_compiled(columns)
        checksum = hashlib.blake2b(payload, digest_size=20).hexdigest()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO compiled (fingerprint, "
                "model_fingerprint, payload, checksum, created_at) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    fingerprint,
                    model_fingerprint,
                    sqlite3.Binary(payload),
                    checksum,
                    time.time(),
                ),
            )
        return True

    def get_compiled(
        self, fingerprint: str, model_fingerprint: str | None, scene, features
    ):
        """The sidecar-restored compiled scene, or ``None`` on a miss.

        A miss is any of: no row for ``(fingerprint, model
        fingerprint)`` — the invalidation rule; a future sidecar format;
        stored feature names that no longer resolve against the live
        engine. A checksum failure is *not* a miss — it raises
        :class:`WarehouseCorruptionError`.
        """
        if model_fingerprint is None:
            _COMPILED_MISSES.inc()
            return None
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, checksum FROM compiled WHERE "
                "fingerprint = ? AND model_fingerprint = ?",
                (fingerprint, model_fingerprint),
            ).fetchone()
        if row is None:
            _COMPILED_MISSES.inc()
            return None
        payload, checksum = bytes(row[0]), row[1]
        actual = hashlib.blake2b(payload, digest_size=20).hexdigest()
        if actual != checksum:
            _CORRUPTIONS.inc()
            raise WarehouseCorruptionError(
                fingerprint, "compiled sidecar failed its checksum"
            )
        compiled = restore_compiled(
            payload, scene, features, fingerprint=fingerprint
        )
        if compiled is None:
            _COMPILED_MISSES.inc()
        else:
            _COMPILED_HITS.inc()
        return compiled

    def gc_compiled(self, keep_models: Iterable[str]) -> dict:
        """Drop sidecar rows whose model fingerprint was rotated out.

        Keying the sidecar by model fingerprint makes refits
        *invalidate* old rows (they stop matching) but never reclaims
        them — a corpus audited across many model generations
        accumulates dead payload bytes. ``keep_models`` is the set of
        fingerprints still in service (typically the current model's);
        every compiled row under any other fingerprint is deleted in
        one transaction. Returns a report::

            {"kept_models": [...], "dropped_models": [...],
             "rows_dropped": N, "bytes_reclaimed": B,
             "rows_kept": M, "bytes_kept": K}

        Scene blobs and tags are never touched — gc is strictly about
        the derived compiled-columns cache, which any audit can
        rebuild.
        """
        keep = {str(m) for m in keep_models}
        with self._lock, self._conn:
            rows = self._conn.execute(
                "SELECT model_fingerprint, COUNT(*), "
                "COALESCE(SUM(LENGTH(payload)), 0) FROM compiled "
                "GROUP BY model_fingerprint"
            ).fetchall()
            dropped = [
                (fp, int(n), int(nbytes))
                for fp, n, nbytes in rows
                if fp not in keep
            ]
            for fp, _n, _b in dropped:
                self._conn.execute(
                    "DELETE FROM compiled WHERE model_fingerprint = ?", (fp,)
                )
        rows_dropped = sum(n for _fp, n, _b in dropped)
        bytes_reclaimed = sum(b for _fp, _n, b in dropped)
        _GC_ROWS.inc(rows_dropped)
        _GC_BYTES.inc(bytes_reclaimed)
        kept = [(fp, int(n), int(b)) for fp, n, b in rows if fp in keep]
        return {
            "kept_models": sorted(fp for fp, _n, _b in kept),
            "dropped_models": sorted(fp for fp, _n, _b in dropped),
            "rows_dropped": rows_dropped,
            "bytes_reclaimed": bytes_reclaimed,
            "rows_kept": sum(n for _fp, n, _b in kept),
            "bytes_kept": sum(b for _fp, _n, b in kept),
        }

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """Corpus-level counters for ``warehouse stats`` and ``hello``."""
        with self._lock:
            (scenes, blob_bytes) = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(blob)), 0) FROM scenes"
            ).fetchone()
            (compiled, compiled_bytes) = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
                "FROM compiled"
            ).fetchone()
            (tags,) = self._conn.execute(
                "SELECT COUNT(DISTINCT tag) FROM tags"
            ).fetchone()
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "scenes": int(scenes),
            "blob_bytes": int(blob_bytes),
            "compiled": int(compiled),
            "compiled_bytes": int(compiled_bytes),
            "tags": int(tags),
        }
