"""Protocol v2 binary wire: frame codec round-trips and failure modes,
packed-scene encoding, the worker scene cache, and the framed TCP
transport end-to-end (content-addressed audits, the ``need`` refill)."""

import asyncio
import gc
import io
import struct
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AuditClient, AuditSpec, frames, protocol
from repro.core.model import Scene
from repro.geometry import Pose2D
from repro.serving import GatewayWorker, StreamingService

from tests.api.test_backends import random_scenes
from tests.serving.conftest import model_scene


def round_trip(header, blobs=()):
    buffer = io.BytesIO(frames.encode_frame(header, blobs))
    return frames.read_frame(buffer)


class TestFrameCodec:
    def test_header_only_round_trip(self):
        header = {"v": 2, "op": "audit", "scene_hashes": ["a" * 40]}
        decoded, blobs = round_trip(header)
        assert decoded == header
        assert blobs == []

    def test_header_plus_blobs_round_trip(self):
        payloads = [b"", b"\x00\x01\x02", b"x" * 70_000]
        decoded, blobs = round_trip({"op": "audit"}, payloads)
        assert decoded == {"op": "audit"}
        assert blobs == payloads

    def test_magic_is_not_ascii(self):
        """The first byte can never open a JSON line — the property the
        TCP listener's wire auto-detection rests on."""
        assert frames.MAGIC[0] >= 0x80

    def test_truncated_frame_is_stream_closed(self):
        data = frames.encode_frame({"op": "stats"}, [b"abcdef"])
        for cut in (1, 5, len(data) - 1):
            with pytest.raises(protocol.StreamClosedError):
                frames.read_frame(io.BytesIO(data[:cut]))

    def test_eof_at_boundary(self):
        async def read_empty(**options):
            reader = asyncio.StreamReader()
            reader.feed_eof()
            return await frames.read_frame_async(reader, **options)

        assert asyncio.run(read_empty(allow_eof=True)) is None
        with pytest.raises(protocol.StreamClosedError):
            asyncio.run(read_empty())
        with pytest.raises(protocol.StreamClosedError):
            frames.read_frame(io.BytesIO(b""))

    def test_bad_magic_is_frame_decode_error(self):
        with pytest.raises(protocol.FrameDecodeError) as exc:
            frames.read_frame(io.BytesIO(b'{"v": 1, "op": "stats"}\n'))
        assert exc.value.code == "frame_malformed"

    def test_oversized_header_refused_before_read(self):
        prelude = struct.pack(
            "<4sIH", frames.MAGIC, frames.MAX_HEADER_BYTES + 1, 0
        )
        with pytest.raises(protocol.FrameTooLargeError) as exc:
            frames.read_frame(io.BytesIO(prelude))
        assert exc.value.code == "frame_too_large"

    def test_oversized_blob_refused_before_read(self):
        prelude = struct.pack("<4sIH", frames.MAGIC, 2, 1) + struct.pack(
            "<Q", frames.MAX_BLOB_BYTES + 1
        )
        with pytest.raises(protocol.FrameTooLargeError):
            frames.read_frame(io.BytesIO(prelude))

    def test_too_many_blobs_refused(self):
        prelude = struct.pack(
            "<4sIH", frames.MAGIC, 2, frames.MAX_BLOBS + 1
        )
        with pytest.raises(protocol.FrameTooLargeError):
            frames.read_frame(io.BytesIO(prelude))

    def test_non_object_header_is_decode_error(self):
        body = b"[1,2,3]"
        data = struct.pack("<4sIH", frames.MAGIC, len(body), 0) + body
        with pytest.raises(protocol.FrameDecodeError):
            frames.read_frame(io.BytesIO(data))

    def test_encode_refuses_oversized(self):
        with pytest.raises(protocol.FrameTooLargeError):
            frames.encode_frame({}, [b""] * (frames.MAX_BLOBS + 1))


class TestPackedScenes:
    def assert_identical(self, scene):
        packed = frames.pack_scene(scene)
        restored = frames.unpack_scene(packed)
        assert restored.to_dict() == scene.to_dict()
        # Content addressing is deterministic.
        assert frames.scene_fingerprint(packed) == frames.scene_fingerprint(
            frames.pack_scene(scene)
        )

    def test_round_trip_bit_identical(self):
        self.assert_identical(model_scene("pk", n_tracks=4))

    def test_round_trip_empty_scene(self):
        self.assert_identical(Scene(scene_id="empty", dt=0.1, tracks=[]))

    def test_round_trip_ego_poses_and_metadata(self):
        scene = model_scene("ego", n_tracks=2)
        scene.metadata["ego_poses"] = [Pose2D(1.0, 2.0, 0.5)]
        scene.metadata["note"] = {"nested": [1, 2.5, "three"]}
        self.assert_identical(scene)

    def test_round_trip_none_confidence(self):
        scene = model_scene("conf", n_tracks=2)
        assert any(o.confidence is None for o in scene.observations) or any(
            o.confidence is not None for o in scene.observations
        )
        self.assert_identical(scene)

    def test_pack_accepts_dict_without_mutating_it(self):
        scene = model_scene("dict", n_tracks=2)
        payload = scene.to_dict()
        import copy

        before = copy.deepcopy(payload)
        packed = frames.pack_scene(payload)
        assert payload == before  # destructive extraction hit a copy
        assert frames.unpack_scene(packed).to_dict() == scene.to_dict()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_round_trip_property_randomized(self, seed):
        for scene in random_scenes(seed=seed, n_scenes=2):
            self.assert_identical(scene)

    def test_fingerprint_tracks_content(self):
        a = frames.pack_scene(model_scene("fp", n_tracks=3))
        b = frames.pack_scene(model_scene("fp", n_tracks=4))
        assert frames.scene_fingerprint(a) != frames.scene_fingerprint(b)

    def test_unpack_garbage_is_decode_error(self):
        for junk in (b"", b"\x00" * 3, b"\xff" * 64):
            with pytest.raises(protocol.FrameDecodeError):
                frames.unpack_scene(junk)

    def test_unpack_row_count_mismatch_is_decode_error(self):
        packed = frames.pack_scene(model_scene("rows", n_tracks=2))
        extra = packed + np.zeros(len(frames.OBS_COLUMNS)).tobytes()
        with pytest.raises(protocol.FrameDecodeError):
            frames.unpack_scene(extra)


class _CountingEngine:
    """Compiles through a real engine, recording (and slowing) each call."""

    def __init__(self, fixy, delay=0.0):
        self.fixy, self.delay, self.compiled = fixy, delay, []

    def compile(self, scene):
        time.sleep(self.delay)
        self.compiled.append(scene)
        return self.fixy.compile(scene)


class TestSceneCache:
    def blob(self, name, n_tracks=2):
        return frames.pack_scene(model_scene(name, n_tracks=n_tracks))

    def test_hit_miss_accounting(self):
        cache = frames.SceneCache(maxsize=4)
        fingerprint, entry = cache.ingest(self.blob("a"))
        assert cache.get(fingerprint) is entry  # decoded once, reused
        assert cache.get("0" * 40) is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["decodes"] == 1
        assert stats["size"] == 1

    def test_reingest_is_idempotent(self):
        cache = frames.SceneCache(maxsize=4)
        blob = self.blob("b")
        first, entry1 = cache.ingest(blob)
        second, entry2 = cache.ingest(blob)
        assert first == second and entry1 is entry2
        stats = cache.stats()
        assert stats["decodes"] == 1  # decoded once
        assert stats["hits"] == 1  # the resent body was a cache hit
        assert stats["misses"] == 0  # every lookup was served

    def test_lru_eviction(self):
        cache = frames.SceneCache(maxsize=2)
        fp_a, _ = cache.ingest(self.blob("ev-a"))
        fp_b, _ = cache.ingest(self.blob("ev-b"))
        assert cache.get(fp_a) is not None  # touch a: b becomes LRU
        fp_c, _ = cache.ingest(self.blob("ev-c"))
        assert cache.stats()["evictions"] == 1
        assert cache.get(fp_b) is None  # evicted
        assert cache.get(fp_a) is not None
        assert cache.get(fp_c) is not None

    def test_cached_reingest_returns_same_entry_and_scorer(self, api_fixy):
        cache = frames.SceneCache(maxsize=2)
        blob = self.blob("sc-same")
        _, entry = cache.ingest(blob)
        engine = _CountingEngine(api_fixy)
        scorer = cache.scorer(entry, engine)
        assert entry == [entry[0], scorer]
        _, again = cache.ingest(blob)
        assert again is entry
        assert cache.scorer(again, engine) is scorer
        assert engine.compiled == [entry[0]]  # compiled once

    def test_evicted_entry_takes_its_scorer(self, api_fixy):
        cache = frames.SceneCache(maxsize=1)
        blob = self.blob("sc-evict")
        fingerprint, entry = cache.ingest(blob)
        scorer = weakref.ref(cache.scorer(entry, api_fixy))
        cache.ingest(self.blob("sc-other"))  # evicts the first entry
        assert cache.get(fingerprint) is None
        del entry
        gc.collect()
        assert scorer() is None  # nothing else held it
        _, fresh = cache.ingest(blob)
        assert fresh[1] is None  # a re-ingest compiles afresh

    def test_racing_first_audits_keep_one_scorer(self, api_fixy):
        cache = frames.SceneCache(maxsize=2)
        _, entry = cache.ingest(self.blob("sc-race"))
        engine = _CountingEngine(api_fixy, delay=0.001)
        n_threads = 8  # more than the cores, so first audits interleave
        start = threading.Barrier(n_threads)
        got = [None] * n_threads

        def audit(i):
            start.wait(timeout=10)
            got[i] = cache.scorer(entry, engine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=audit, args=(i,))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert engine.compiled  # at least one first audit compiled
        assert entry[1] is not None
        assert all(scorer is entry[1] for scorer in got)


class TestFramedTransport:
    """The v2 wire end-to-end over real TCP: same answers as line-JSON,
    content-addressed audits, and the need/refill flow."""

    def test_framed_ops_match_json_ops(self, api_fixy, tcp_workers):
        address = tcp_workers[0]
        with AuditClient.connect(address) as json_client, AuditClient.connect(
            address, wire="frames"
        ) as framed_client:
            assert framed_client.version == 2
            json_hello = json_client.hello()
            framed_hello = framed_client.hello()
            assert framed_hello == json_hello
            assert "frames" in framed_hello["wire_formats"]
            assert framed_client.health()["status"] == "ok"

    def test_framed_audit_with_scene_bodies(self, api_fixy, tcp_workers):
        spec = AuditSpec(kind="tracks", top_k=5)
        scenes = [model_scene(f"fr-{i}", n_tracks=3) for i in range(2)]
        with AuditClient.connect(tcp_workers[0], wire="frames") as client:
            result = client.audit(spec, scenes=scenes)
        assert result.items
        from repro.api import Audit

        with Audit(spec, fixy=api_fixy) as audit:
            inline = audit.run(scenes=scenes)
        assert [i.to_dict() for i in result.items] == [
            i.to_dict(spec.kind) for i in inline.items
        ]

    def test_content_addressed_need_then_refill(self, api_fixy):
        """ids-first: an unknown hash is answered with need, the refill
        carries only that body, and the re-ask is all hits."""
        worker = GatewayWorker(api_fixy)
        try:
            spec = AuditSpec(kind="tracks", top_k=5).to_dict()
            packed = frames.pack_scene(model_scene("need", n_tracks=3))
            fingerprint = frames.scene_fingerprint(packed)
            with AuditClient.connect(worker.address, wire="frames") as client:
                client.send_request(
                    "audit", spec=spec, scene_hashes=[fingerprint]
                )
                first = client.recv_response()
                assert first["need"] == [fingerprint]
                client.send_request(
                    "audit",
                    blobs=(packed,),
                    spec=spec,
                    scene_hashes=[fingerprint],
                )
                refilled = client.recv_response()
                assert refilled["scene_cache"] == {"hits": 0, "misses": 1}
                assert refilled["result"]["items"]
                client.send_request(
                    "audit", spec=spec, scene_hashes=[fingerprint]
                )
                warm = client.recv_response()
                assert warm["scene_cache"] == {"hits": 1, "misses": 0}
                assert warm["result"]["items"] == refilled["result"]["items"]
        finally:
            worker.stop()

    def test_cache_smaller_than_request_still_completes(self, api_fixy):
        """Bodies shipped with a request are usable even when the LRU
        cannot hold them all — no need-loop."""
        worker = GatewayWorker(api_fixy, scene_cache=1)
        try:
            spec = AuditSpec(kind="tracks", top_k=8)
            scenes = [model_scene(f"small-{i}", n_tracks=2) for i in range(3)]
            with AuditClient.connect(worker.address, wire="frames") as client:
                packed = [frames.pack_scene(s) for s in scenes]
                client.send_request(
                    "audit",
                    blobs=tuple(packed),
                    spec=spec.to_dict(),
                    scene_hashes=[
                        frames.scene_fingerprint(p) for p in packed
                    ],
                )
                response = client.recv_response()
            assert "result" in response
            assert response["scene_cache"]["misses"] == 3
        finally:
            worker.stop()

    def test_pipelined_requests_answered_in_order(self, api_fixy, tcp_workers):
        with AuditClient.connect(tcp_workers[0], wire="frames") as client:
            client.send_request("stats")
            client.send_request("hello")
            client.send_request("health")
            stats = client.recv_response()
            hello = client.recv_response()
            health = client.recv_response()
        assert "live_sessions" in stats
        assert hello["protocol_version"] == protocol.PROTOCOL_VERSION
        assert health["status"] == "ok"

    def test_malformed_frame_gets_error_then_close(self, api_fixy):
        """Garbage after the magic byte: one structured error frame,
        then the server hangs up (the stream cannot re-sync)."""
        import socket as socket_mod

        worker = GatewayWorker(api_fixy)
        try:
            host, port = worker.address.rsplit(":", 1)
            with socket_mod.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(frames.MAGIC[:1] + b"\xff" * 16)
                reader = sock.makefile("rb")
                header, blobs = frames.read_frame(reader)
                assert header["ok"] is False
                assert header["error"]["code"] in (
                    "frame_malformed", "frame_too_large",
                )
                assert reader.read(1) == b""  # connection closed
        finally:
            worker.stop()

    def test_line_json_clients_unaffected_on_same_port(
        self, api_fixy, tcp_workers
    ):
        """One listener, both wires: a framed conversation on one
        connection never disturbs line-JSON on another."""
        with AuditClient.connect(
            tcp_workers[0], wire="frames"
        ) as framed, AuditClient.connect(tcp_workers[0]) as plain:
            assert framed.hello() == plain.hello()
