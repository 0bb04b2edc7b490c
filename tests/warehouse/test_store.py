"""SceneWarehouse store tests: round-trips, corruption, compiled sidecars."""

import threading

import pytest

from repro.api import frames
from repro.warehouse import (
    SceneWarehouse,
    UnknownFingerprintError,
    WarehouseCorruptionError,
    WarehouseError,
    pack_compiled,
    restore_compiled,
    scene_metadata,
    warehouse_scorer,
)

from tests.warehouse.conftest import build_corpus, corpus_scene


# ----------------------------------------------------------------- blobs


def test_ingest_roundtrip_bit_identical(warehouse, corpus_scenes):
    for scene in corpus_scenes:
        packed = frames.pack_scene(scene)
        fingerprint = warehouse.ingest(scene)
        assert fingerprint == frames.scene_fingerprint(packed)
        assert warehouse.get_blob(fingerprint) == packed
        restored = warehouse.get(fingerprint)
        assert frames.pack_scene(restored) == packed
    assert len(warehouse) == len(corpus_scenes)


def test_ingest_packed_matches_ingest(warehouse, corpus_scenes):
    scene = corpus_scenes[0]
    packed = frames.pack_scene(scene)
    assert warehouse.ingest_packed(packed) == warehouse.ingest(scene)
    assert len(warehouse) == 1


def test_reingest_idempotent_last_write_wins_tags(warehouse):
    scene = corpus_scene("rewrite")
    fingerprint = warehouse.ingest(scene, tags=("gen", "nightly"))
    assert warehouse.metadata(fingerprint)["tags"] == ["gen", "nightly"]
    assert warehouse.ingest(scene, tags=("other",)) == fingerprint
    assert len(warehouse) == 1
    assert warehouse.metadata(fingerprint)["tags"] == ["other"]


def test_concurrent_ingest_same_scene_idempotent(tmp_path):
    scene = corpus_scene("race")
    path = tmp_path / "race.db"
    errors = []

    def worker(tag):
        try:
            with SceneWarehouse(path) as wh:
                for _ in range(5):
                    wh.ingest(scene, tags=(tag,))
        except Exception as exc:  # pragma: no cover - failure diagnostics
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    with SceneWarehouse(path, create=False) as wh:
        assert len(wh) == 1
        (fingerprint,) = wh.query()
        assert wh.get_blob(fingerprint) == frames.pack_scene(scene)
        # Last writer wins: exactly one worker's tag survives.
        tags = wh.metadata(fingerprint)["tags"]
        assert len(tags) == 1 and tags[0] in {"w0", "w1", "w2", "w3"}


def test_unknown_fingerprint_is_keyerror(warehouse):
    with pytest.raises(UnknownFingerprintError) as exc_info:
        warehouse.get_blob("deadbeef" * 5)
    assert isinstance(exc_info.value, KeyError)
    assert "deadbeef" in str(exc_info.value)


def test_fetch_batches_order_and_size(loaded_warehouse, corpus_scenes):
    fingerprints = loaded_warehouse.query()
    assert fingerprints == sorted(fingerprints)
    batches = list(loaded_warehouse.fetch_batches(fingerprints, batch=3))
    assert [len(b) for b in batches] == [3, 3, 2]
    flat = [fp for batch in batches for fp, _ in batch]
    assert flat == fingerprints
    for batch in batches:
        for fingerprint, scene in batch:
            assert (
                frames.scene_fingerprint(frames.pack_scene(scene))
                == fingerprint
            )


# ------------------------------------------------------------ corruption


def test_truncated_blob_raises_corruption(warehouse):
    scene = corpus_scene("trunc")
    fingerprint = warehouse.ingest(scene)
    blob = warehouse.get_blob(fingerprint)
    with warehouse._lock, warehouse._conn:
        warehouse._conn.execute(
            "UPDATE scenes SET blob = ? WHERE fingerprint = ?",
            (blob[: len(blob) // 2], fingerprint),
        )
    with pytest.raises(WarehouseCorruptionError) as exc_info:
        warehouse.get_blob(fingerprint)
    assert exc_info.value.fingerprint == fingerprint


def test_swapped_blob_fingerprint_mismatch(warehouse):
    fp_a = warehouse.ingest(corpus_scene("swap-a"))
    fp_b = warehouse.ingest(corpus_scene("swap-b", n_tracks=5))
    blob_b = warehouse.get_blob(fp_b)
    with warehouse._lock, warehouse._conn:
        warehouse._conn.execute(
            "UPDATE scenes SET blob = ? WHERE fingerprint = ?",
            (blob_b, fp_a),
        )
    with pytest.raises(WarehouseCorruptionError):
        warehouse.get(fp_a)
    # The untouched row still round-trips.
    assert warehouse.get_blob(fp_b) == blob_b


def test_open_missing_without_create_raises(tmp_path):
    with pytest.raises(WarehouseError):
        SceneWarehouse(tmp_path / "absent.db", create=False)


# ----------------------------------------------------------- metadata


def test_scene_metadata_indexed_fields(corpus_scenes):
    scene = corpus_scenes[0]
    meta = scene_metadata(scene)
    assert meta["scene_id"] == scene.scene_id
    assert meta["n_tracks"] == len(scene.tracks)
    assert meta["n_frames"] >= 1
    assert meta["duration_s"] == pytest.approx(meta["n_frames"] * meta["dt"])


def test_metadata_and_iter_metadata_agree(loaded_warehouse):
    by_iter = {
        fp: (meta, tags) for fp, meta, tags in loaded_warehouse.iter_metadata()
    }
    for fingerprint in loaded_warehouse.query():
        meta = loaded_warehouse.metadata(fingerprint)
        iter_meta, iter_tags = by_iter[fingerprint]
        assert set(meta["tags"]) == set(iter_tags)
        for key, value in iter_meta.items():
            assert meta[key] == value


def test_stats_counts(loaded_warehouse, corpus_scenes):
    stats = loaded_warehouse.stats()
    assert stats["scenes"] == len(corpus_scenes)
    assert stats["blob_bytes"] > 0
    assert stats["compiled"] == 0
    assert stats["schema_version"] == 1


# ------------------------------------------------------- compiled sidecar


def _ranks(scorer, kinds=("tracks", "bundles", "observations")):
    return {kind: scorer.rank(kind, None) for kind in kinds}


def test_sidecar_rank_byte_identity(warehouse, fitted_fixy):
    scene = corpus_scene("sidecar")
    fingerprint = warehouse.ingest(scene)

    cold_scorer, from_sidecar = warehouse_scorer(
        warehouse, fitted_fixy, fingerprint, scene
    )
    assert not from_sidecar
    reference = _ranks(cold_scorer)
    assert warehouse.stats()["compiled"] == 1

    # Re-load the scene from the store (a distinct object, as an
    # out-of-core batch would see it): the warm path must come from the
    # sidecar.
    reloaded = warehouse.get(fingerprint)
    warm_scorer, from_sidecar = warehouse_scorer(
        warehouse, fitted_fixy, fingerprint, reloaded
    )
    assert from_sidecar
    warm = _ranks(warm_scorer)
    for kind, items in reference.items():
        assert [i.to_dict() for i in warm[kind]] == [
            i.to_dict() for i in items
        ]


def test_sidecar_keyed_by_model_fingerprint(warehouse, fitted_fixy):
    scene = corpus_scene("keyed")
    fingerprint = warehouse.ingest(scene)
    compiled = fitted_fixy.compile(scene)
    assert warehouse.put_compiled(
        fingerprint, fitted_fixy.learned.fingerprint(), compiled
    )
    # A different model fingerprint is a miss, never a wrong answer.
    assert (
        warehouse.get_compiled(
            fingerprint, "not-this-model", scene, fitted_fixy.features
        )
        is None
    )
    assert (
        warehouse.get_compiled(
            fingerprint,
            fitted_fixy.learned.fingerprint(),
            scene,
            fitted_fixy.features,
        )
        is not None
    )


def test_sidecar_checksum_corruption_detected(warehouse, fitted_fixy):
    scene = corpus_scene("sidecar-corrupt")
    fingerprint = warehouse.ingest(scene)
    model_fp = fitted_fixy.learned.fingerprint()
    warehouse.put_compiled(fingerprint, model_fp, fitted_fixy.compile(scene))
    import sqlite3

    with warehouse._lock, warehouse._conn:
        (payload,) = warehouse._conn.execute(
            "SELECT payload FROM compiled WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        flipped = bytes(payload[:-1]) + bytes([payload[-1] ^ 0xFF])
        warehouse._conn.execute(
            "UPDATE compiled SET payload = ? WHERE fingerprint = ?",
            (sqlite3.Binary(flipped), fingerprint),
        )
    with pytest.raises(WarehouseCorruptionError):
        warehouse.get_compiled(
            fingerprint, model_fp, scene, fitted_fixy.features
        )


def test_sidecar_missing_feature_is_miss(warehouse, fitted_fixy):
    scene = corpus_scene("sidecar-feat")
    compiled = fitted_fixy.compile(scene)
    payload = pack_compiled(compiled.columns)
    # Restoring against an engine lacking one of the recorded features
    # must recompile (None), not mis-map factor columns.
    subset = list(fitted_fixy.features)[:-1]
    assert restore_compiled(payload, scene, subset) is None
    assert (
        restore_compiled(payload, scene, fitted_fixy.features) is not None
    )


def test_sidecar_matrix_access_raises(warehouse, fitted_fixy):
    scene = corpus_scene("sidecar-matrix")
    compiled = fitted_fixy.compile(scene)
    restored = restore_compiled(
        pack_compiled(compiled.columns), scene, fitted_fixy.features
    )
    with pytest.raises(WarehouseError, match="re-compile"):
        restored.columns.matrix.shape


def test_put_compiled_without_columns_is_noop(warehouse, fitted_fixy):
    scene = corpus_scene("no-columns")
    fingerprint = warehouse.ingest(scene)
    assert not warehouse.put_compiled(fingerprint, None, object())
    assert warehouse.stats()["compiled"] == 0


# ------------------------------------------------------------------- gc


def test_gc_compiled_drops_rotated_models_only(warehouse, fitted_fixy):
    scenes = [corpus_scene(f"gc-{i}") for i in range(3)]
    live_fp = fitted_fixy.learned.fingerprint()
    rotated = "rotated-model-fp"
    for scene in scenes:
        fingerprint = warehouse.ingest(scene)
        compiled = fitted_fixy.compile(scene)
        warehouse.put_compiled(fingerprint, live_fp, compiled)
        warehouse.put_compiled(fingerprint, rotated, compiled)
    assert warehouse.stats()["compiled"] == 6

    report = warehouse.gc_compiled([live_fp])
    assert report["kept_models"] == [live_fp]
    assert report["dropped_models"] == [rotated]
    assert report["rows_dropped"] == 3
    assert report["rows_kept"] == 3
    assert report["bytes_reclaimed"] > 0
    assert report["bytes_kept"] > 0
    assert warehouse.stats()["compiled"] == 3

    # The kept model's sidecars still restore; the rotated ones are gone.
    for scene in scenes:
        fingerprint = frames.scene_fingerprint(frames.pack_scene(scene))
        assert (
            warehouse.get_compiled(
                fingerprint, live_fp, scene, fitted_fixy.features
            )
            is not None
        )
        assert (
            warehouse.get_compiled(
                fingerprint, rotated, scene, fitted_fixy.features
            )
            is None
        )


def test_gc_compiled_never_touches_scene_blobs(warehouse, fitted_fixy):
    scene = corpus_scene("gc-blobs")
    fingerprint = warehouse.ingest(scene)
    warehouse.put_compiled(
        fingerprint, "old-model", fitted_fixy.compile(scene)
    )
    before = warehouse.stats()

    report = warehouse.gc_compiled(["brand-new-model"])
    assert report["rows_dropped"] == 1 and report["rows_kept"] == 0
    after = warehouse.stats()
    assert after["scenes"] == before["scenes"]
    assert after["blob_bytes"] == before["blob_bytes"]
    assert after["compiled"] == 0
    assert warehouse.get_blob(fingerprint) is not None


def test_gc_compiled_empty_store_reports_zeroes(warehouse):
    report = warehouse.gc_compiled(["anything"])
    assert report["rows_dropped"] == 0
    assert report["bytes_reclaimed"] == 0
    assert report["dropped_models"] == []
    assert report["kept_models"] == []
