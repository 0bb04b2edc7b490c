"""Distributed execution: worker registration (hello/health), scene
partitioning, the remote backend, and mid-audit failure requeue."""

import socket
import threading
import time

import pytest

from repro.api import (
    Audit,
    AuditResult,
    AuditSpec,
    FilterSpec,
    SpecValidationError,
    WorkerEndpoint,
    WorkerPool,
    get_backend,
    protocol,
)
from repro.api.pool import partition_scenes
from repro.serving import GatewayWorker, StreamingService

from tests.api.conftest import DyingWorker
from tests.serving.conftest import model_scene


def dead_address() -> str:
    """An address nothing listens on (bound, then immediately closed)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % sock.getsockname()[1]


def signature(items, kind="tracks"):
    return [s.to_dict(kind) for s in items]


class TestRegistration:
    def test_hello_registers_version_fingerprint_capacity(
        self, api_fixy, tcp_workers
    ):
        pool = WorkerPool(tcp_workers)
        infos = pool.connect()
        assert len(infos) == 2
        expected = api_fixy.learned.fingerprint()
        for endpoint, info in zip(pool.endpoints, infos):
            assert endpoint.healthy
            # Registration hellos at the v1 baseline, and the worker
            # mirrors that (so PR-4 coordinators keep accepting it);
            # its real ceiling is the additive max field.
            assert info["protocol_version"] == 1
            assert info["max_protocol_version"] == protocol.PROTOCOL_VERSION
            assert info["model_fingerprint"] == expected
            assert info["capacity"] == 1
            assert "audit" in info["ops"] and "health" in info["ops"]

    def test_model_mismatch_is_fatal(self, tcp_workers):
        pool = WorkerPool(tcp_workers)
        with pytest.raises(protocol.ProtocolError) as exc:
            pool.connect(expected_fingerprint="0000deadbeef0000")
        assert exc.value.code == "model_mismatch"
        assert exc.value.details["worker"] in tcp_workers

    def test_unreachable_worker_skipped_not_fatal(self, tcp_workers):
        pool = WorkerPool([dead_address(), tcp_workers[0]])
        infos = pool.connect()
        assert len(infos) == 1
        assert [e.address for e in pool.healthy_workers()] == [tcp_workers[0]]
        assert pool.endpoints[0].last_error

    def test_all_unreachable_raises_worker_unavailable(self):
        pool = WorkerPool([dead_address(), dead_address()])
        with pytest.raises(protocol.ProtocolError) as exc:
            pool.connect()
        assert exc.value.code == "worker_unavailable"

    def test_health_probe(self, tcp_workers):
        pool = WorkerPool(tcp_workers)
        pool.connect()
        reports = pool.health()
        for address in tcp_workers:
            report = reports[address]
            assert report["status"] == "ok"
            assert report["uptime_s"] >= 0
            assert report["requests_handled"] >= 1  # at least the hello

    def test_health_marks_dead_worker(self, tcp_workers):
        pool = WorkerPool([tcp_workers[0], dead_address()])
        pool.connect()
        reports = pool.health()
        assert reports[tcp_workers[0]]["status"] == "ok"
        assert reports[pool.endpoints[1].address] is None
        assert not pool.endpoints[1].healthy

    def test_wedged_worker_skipped_by_probe_timeout(self, tcp_workers):
        """A listener that accepts but never answers cannot hang
        registration: the bounded probe deadline skips it."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        wedged = "127.0.0.1:%d" % listener.getsockname()[1]
        try:
            pool = WorkerPool([wedged, tcp_workers[0]], probe_timeout=0.3)
            infos = pool.connect()
            assert len(infos) == 1
            assert [e.address for e in pool.healthy_workers()] == [
                tcp_workers[0]
            ]
            assert "no response" in pool.endpoints[0].last_error
        finally:
            listener.close()

    def test_capacity_weighting_from_hello(self, api_fixy):
        with GatewayWorker(api_fixy, capacity=3) as worker:
            pool = WorkerPool([worker.address])
            pool.connect()
            assert pool.endpoints[0].capacity == 3


class TestPartitioning:
    def test_contiguous_cover_in_order(self):
        scenes = list(range(10))
        workers = [WorkerEndpoint("h:1"), WorkerEndpoint("h:2")]
        parts = partition_scenes(scenes, workers)
        assert [chunk for _, chunk in parts] == [scenes[:5], scenes[5:]]

    def test_capacity_weighted(self):
        scenes = list(range(9))
        heavy = WorkerEndpoint("h:1")
        heavy.info = {"capacity": 2}
        parts = partition_scenes(scenes, [heavy, WorkerEndpoint("h:2")])
        assert [len(chunk) for _, chunk in parts] == [6, 3]
        # Still contiguous and in order.
        assert [s for _, chunk in parts for s in chunk] == scenes

    def test_more_workers_than_scenes_drops_empty_chunks(self):
        workers = [WorkerEndpoint(f"h:{i}") for i in range(4)]
        parts = partition_scenes([1], workers)
        assert len(parts) == 1 and parts[0][1] == [1]

    def test_no_workers_raises(self):
        with pytest.raises(protocol.ProtocolError) as exc:
            partition_scenes([1, 2], [])
        assert exc.value.code == "worker_unavailable"


class TestRemoteBackend:
    def test_requires_workers_option(self):
        with pytest.raises(SpecValidationError, match="rejected options"):
            get_backend("remote")

    def test_default_dispatch_timeout_is_finite(self):
        """Silent worker death must eventually trip the deadline and
        requeue — waiting forever is opt-in, not the default."""
        backend = get_backend("remote", workers=["h:1"])
        assert backend.timeout == type(backend).DEFAULT_TIMEOUT
        assert backend.timeout is not None and backend.timeout > 0

    def test_spec_with_backend_remote_round_trips(self, tcp_workers):
        spec = AuditSpec(kind="tracks", top_k=5).with_backend(
            "remote", workers=list(tcp_workers), timeout=30.0
        )
        restored = AuditSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.backend_options["workers"] == list(tcp_workers)

    def test_provenance_worker_attribution(self, api_fixy, tcp_workers):
        spec = AuditSpec(kind="tracks", top_k=10)
        scenes = [model_scene(f"attr-{i}", n_tracks=3) for i in range(4)]
        with Audit(spec, fixy=api_fixy) as audit:
            result = audit.run(
                scenes=scenes, backend="remote", workers=list(tcp_workers)
            )
        reports = result.provenance.workers
        assert reports is not None and len(reports) == 2
        assert {r["worker"] for r in reports} == set(tcp_workers)
        assert sum(r["n_scenes"] for r in reports) == len(scenes)
        assert all(r["rank_s"] >= 0 and r["attempts"] == 1 for r in reports)
        # Attribution survives the JSON round-trip.
        restored = AuditResult.from_json(result.to_json())
        assert restored.provenance.workers == reports
        # Local backends have no worker attribution.
        with Audit(spec, fixy=api_fixy) as audit:
            assert audit.run(scenes=scenes).provenance.workers is None

    def test_remote_matches_inline_with_filter(self, api_fixy, tcp_workers):
        spec = AuditSpec(
            kind="tracks",
            top_k=6,
            filters=FilterSpec(has_model=True, has_human=False),
        )
        scenes = [model_scene(f"filt-{i}", n_tracks=4) for i in range(3)]
        with Audit(spec, fixy=api_fixy) as audit:
            inline = audit.run(scenes=scenes)
            remote = audit.run(
                scenes=scenes, backend="remote", workers=list(tcp_workers)
            )
        assert signature(remote.items) == signature(inline.items)

    def test_model_mismatch_via_audit(self, tcp_workers):
        """A coordinator fitted on different data must refuse the pool."""
        from repro.core import Fixy, default_features
        from tests.core.conftest import moving_track, scene_of

        other = Fixy(default_features()).fit(
            [
                scene_of(
                    [
                        moving_track(
                            f"other-{i}", n_frames=10, speed=1.0,
                            start_x=5.0 * i, jitter=0.05, seed=50 + i,
                        )
                        for i in range(6)
                    ],
                    scene_id="other-train",
                )
            ]
        )
        other.warmup_fast_eval()
        spec = AuditSpec(kind="tracks")
        with Audit(spec, fixy=other) as audit:
            with pytest.raises(protocol.ProtocolError) as exc:
                audit.run(
                    scenes=[model_scene("mm")],
                    backend="remote",
                    workers=list(tcp_workers),
                )
        assert exc.value.code == "model_mismatch"

    def test_no_workers_reachable_via_audit(self, api_fixy):
        spec = AuditSpec(kind="tracks")
        with Audit(spec, fixy=api_fixy) as audit:
            with pytest.raises(protocol.ProtocolError) as exc:
                audit.run(
                    scenes=[model_scene("nw")],
                    backend="remote",
                    workers=[dead_address()],
                )
        assert exc.value.code == "worker_unavailable"


class _JsonOnlyService(StreamingService):
    """A worker whose ``hello`` advertises line-JSON only, as a build
    without the framed wire answers."""

    def _op_hello(self, request):
        return {**super()._op_hello(request), "wire_formats": ["json"]}


class TestWireNegotiation:
    def test_register_records_wire_and_version(self, tcp_workers):
        pool = WorkerPool(tcp_workers)
        for info in pool.connect():
            assert info["max_protocol_version"] == protocol.PROTOCOL_VERSION
            assert "frames" in info["wire_formats"]

    def test_wire_v2_rejects_v1_only_worker(self, api_fixy):
        with GatewayWorker(service=_JsonOnlyService(api_fixy)) as old:
            pool = WorkerPool([old.address])
            with pytest.raises(protocol.ProtocolError) as exc:
                pool.connect()
        assert exc.value.code == "unsupported_version"
        assert "framed wire" in exc.value.message

    def test_bad_wire_option_is_spec_error(self):
        from repro.api import SpecValidationError, get_backend

        with pytest.raises(SpecValidationError, match="rejected options"):
            get_backend("remote", workers=["h:1"], wire="carrier-pigeon")


class TestContentAddressedDispatch:
    def test_warm_audit_ships_ids_only(self, api_fixy, tcp_workers):
        """Acceptance: the second audit of the same scenes ships only
        ids — bytes on the wire collapse and every scene is a worker
        cache hit, recorded in provenance."""
        spec = AuditSpec(kind="tracks", top_k=10)
        scenes = [model_scene(f"warm-{i}", n_tracks=3) for i in range(4)]
        with Audit(spec, fixy=api_fixy) as audit:
            cold = audit.run(
                scenes=scenes, backend="remote", workers=list(tcp_workers)
            )
            warm = audit.run(
                scenes=scenes, backend="remote", workers=list(tcp_workers)
            )
        assert signature(warm.items) == signature(cold.items)
        cold_bytes = sum(r["bytes_sent"] for r in cold.provenance.workers)
        warm_bytes = sum(r["bytes_sent"] for r in warm.provenance.workers)
        assert warm_bytes < cold_bytes / 5
        assert sum(
            r["scene_cache_misses"] for r in cold.provenance.workers
        ) == len(scenes)
        assert sum(
            r["scene_cache_hits"] for r in warm.provenance.workers
        ) == len(scenes)
        assert sum(
            r["scene_cache_misses"] for r in warm.provenance.workers
        ) == 0

    def test_warm_audit_survives_worker_cache_smaller_than_chunk(
        self, api_fixy
    ):
        """Regression: a warm ids-only audit against a worker whose LRU
        is smaller than one chunk must refill and complete (resending
        the whole chunk's bodies), not ping-pong need replies into
        unknown_scene_hash."""
        worker = GatewayWorker(api_fixy, scene_cache=4)
        try:
            spec = AuditSpec(kind="tracks", top_k=10)
            scenes = [model_scene(f"lru-{i}", n_tracks=2) for i in range(8)]
            backend = get_backend(
                "remote", workers=[worker.address], chunk_scenes=8
            )
            try:
                cold = backend.run(api_fixy, spec, scenes, None)
                warm = backend.run(api_fixy, spec, scenes, None)
                third = backend.run(api_fixy, spec, scenes, None)
            finally:
                backend.close()
            assert signature(warm) == signature(cold)
            assert signature(third) == signature(cold)
        finally:
            worker.stop()

    def test_hot_scenes_never_reshipped_between_fresh_audits(self, api_fixy):
        """The coordinator's mirror replays the worker's LRU order, so
        a hot set reused on every other audit stays known however many
        fresh scenes pass through the worker's cache in between."""
        worker = GatewayWorker(api_fixy, scene_cache=8)
        try:
            spec = AuditSpec(kind="tracks", top_k=5)
            hot = [model_scene(f"hot-{i}", n_tracks=2) for i in range(4)]
            backend = get_backend("remote", workers=[worker.address])
            shipped = []
            try:
                for round_ in range(6):
                    backend.run(api_fixy, spec, hot, None)
                    reports = backend.provenance_extras()["workers"]
                    shipped.append(
                        sum(r["scene_cache_misses"] for r in reports)
                    )
                    assert sum(r["scene_cache_hits"] for r in reports) == (
                        4 - shipped[-1]
                    )
                    fresh = [
                        model_scene(f"fresh-{round_}-{i}", n_tracks=2)
                        for i in range(2)
                    ]
                    backend.run(api_fixy, spec, fresh, None)
            finally:
                backend.close()
            assert shipped == [4, 0, 0, 0, 0, 0]
        finally:
            worker.stop()

    def test_requeue_and_second_audit_reuse_encoded_payloads(
        self, api_fixy, tcp_workers, monkeypatch
    ):
        """The coordinator encodes each scene once per pool, ever —
        requeues and repeat audits reuse the cached bytes instead of
        packing again."""
        from repro.api import frames as frames_mod
        from repro.api import pool as pool_mod

        packs = []
        real_pack = frames_mod.pack_scene

        def counting_pack(scene):
            packs.append(scene)
            return real_pack(scene)

        monkeypatch.setattr(pool_mod.frames, "pack_scene", counting_pack)
        spec = AuditSpec(kind="tracks", top_k=5)
        scenes = [model_scene(f"pc-{i}", n_tracks=3) for i in range(4)]
        backend = get_backend("remote", workers=list(tcp_workers))
        try:
            first = backend.run(api_fixy, spec, scenes, None)
            assert len(packs) == len(scenes)
            second = backend.run(api_fixy, spec, scenes, None)
            assert len(packs) == len(scenes)  # no re-encode
            assert signature(second) == signature(first)
        finally:
            backend.close()

    def test_chunked_pipelined_dispatch_matches_single_chunk(
        self, api_fixy, tcp_workers
    ):
        """chunk_scenes=1 + pipelining produces the same bytes as one
        request per partition (the merge is chunk-order stable)."""
        spec = AuditSpec(kind="tracks", top_k=6)
        scenes = [model_scene(f"ch-{i}", n_tracks=3) for i in range(5)]
        with Audit(spec, fixy=api_fixy) as audit:
            whole = audit.run(
                scenes=scenes,
                backend="remote",
                workers=list(tcp_workers),
                chunk_scenes=0,
            )
            chunked = audit.run(
                scenes=scenes,
                backend="remote",
                workers=list(tcp_workers),
                chunk_scenes=1,
                pipeline=3,
            )
            inline = audit.run(scenes=scenes)
        assert signature(chunked.items) == signature(whole.items)
        assert signature(chunked.items) == signature(inline.items)
        by_worker = {
            r["worker"]: r["n_chunks"] for r in chunked.provenance.workers
        }
        assert sorted(by_worker.values()) == [2, 3]  # 5 scenes, 2 workers


class TestPersistentConnections:
    def test_stale_cached_connection_retried_not_fatal(
        self, api_fixy, tcp_workers
    ):
        """Regression: a worker restart (or NAT idle-kill) between
        audits leaves the pool a dead cached connection. The next
        audit must retry that worker on a fresh connection — not
        retire it and raise worker_unavailable from a single-worker
        pool."""
        spec = AuditSpec(kind="tracks", top_k=5)
        scenes = [model_scene(f"st-{i}", n_tracks=3) for i in range(3)]
        backend = get_backend("remote", workers=[tcp_workers[0]])
        try:
            cold = backend.run(api_fixy, spec, scenes, None)
            endpoint = backend._pool.endpoints[0]
            # Kill the cached socket out from under the pool — what a
            # worker restart looks like from the coordinator.
            assert endpoint._cached_client is not None
            endpoint._cached_client.close()
            again = backend.run(api_fixy, spec, scenes, None)
            assert signature(again) == signature(cold)
            assert endpoint.healthy  # never retired
            report = backend.provenance_extras()["workers"][0]
            assert report["attempts"] == 2  # stale send + fresh retry
        finally:
            backend.close()


class TestReprobe:
    def test_reprobe_readmits_restarted_worker(self, api_fixy, tcp_workers):
        """Elasticity: a retired endpoint whose worker answers hello
        again (matching fingerprint) rejoins at the next dispatch —
        no pool rebuild."""
        pool = WorkerPool(tcp_workers)
        pool.connect(expected_fingerprint=api_fixy.learned.fingerprint())
        pool.endpoints[0].mark_failed("simulated death")
        assert len(pool.healthy_workers()) == 1
        readmitted = pool.reprobe()
        assert readmitted == [tcp_workers[0]]
        assert len(pool.healthy_workers()) == 2

    def test_reprobe_skips_still_dead_worker(self, tcp_workers):
        pool = WorkerPool([dead_address(), tcp_workers[0]])
        pool.connect()
        assert pool.reprobe() == []
        assert [e.address for e in pool.healthy_workers()] == [tcp_workers[0]]
        assert pool.endpoints[0].last_error

    def test_reprobe_rejects_wrong_model(self, api_fixy, tcp_workers):
        """A worker that comes back serving a different model stays
        retired — re-admission must not break the one-model contract."""
        pool = WorkerPool(tcp_workers)
        pool.connect(expected_fingerprint=api_fixy.learned.fingerprint())
        endpoint = pool.endpoints[0]
        endpoint.mark_failed("simulated death")
        pool._expected_fingerprint = "0000deadbeef0000"  # pool now expects another model
        assert pool.reprobe() == []
        assert not endpoint.healthy
        assert "model" in endpoint.last_error

    def test_audit_reprobes_at_dispatch(self, api_fixy, tcp_workers):
        """An endpoint retired mid-life is healed by the next audit()
        without touching the pool."""
        spec = AuditSpec(kind="tracks", top_k=5)
        scenes = [model_scene(f"rp-{i}", n_tracks=3) for i in range(4)]
        backend = get_backend("remote", workers=list(tcp_workers))
        try:
            backend.run(api_fixy, spec, scenes, None)
            backend._pool.endpoints[0].mark_failed("simulated death")
            backend.run(api_fixy, spec, scenes, None)
            reports = backend.provenance_extras()["workers"]
            assert {r["worker"] for r in reports} == set(tcp_workers)
        finally:
            backend.close()


class TestCapacityElasticity:
    def test_refresh_capacity_folds_health_into_weighting(self, api_fixy):
        """A worker whose advertised capacity grows between audits gets
        a proportionally bigger partition after the next health probe."""
        with GatewayWorker(api_fixy) as a, GatewayWorker(api_fixy) as b:
            pool = WorkerPool([a.address, b.address], capacity_refresh=0.0)
            pool.connect()
            assert [e.capacity for e in pool.endpoints] == [1, 1]
            a.service.capacity = 3  # worker gains headroom live
            assert pool.refresh_capacity() == [a.address]
            assert [e.capacity for e in pool.endpoints] == [3, 1]
            parts = partition_scenes(list(range(8)), pool.healthy_workers())
            assert [len(chunk) for _, chunk in parts] == [6, 2]

    def test_refresh_capacity_respects_interval(self, api_fixy):
        """Within the refresh window the registration-time capacity is
        trusted — no health probe per audit."""
        with GatewayWorker(api_fixy) as worker:
            pool = WorkerPool([worker.address], capacity_refresh=3600.0)
            pool.connect()
            worker.service.capacity = 5
            assert pool.refresh_capacity() == []  # checked at register
            assert pool.endpoints[0].capacity == 1

    def test_audit_rebalances_when_capacity_changes(self, api_fixy):
        """Acceptance: the remote backend re-weights partitions across
        audits as a worker's advertised capacity changes."""
        with GatewayWorker(api_fixy) as a, GatewayWorker(api_fixy) as b:
            spec = AuditSpec(kind="tracks", top_k=10)
            scenes = [model_scene(f"cap-{i}", n_tracks=2) for i in range(8)]
            backend = get_backend(
                "remote",
                workers=[a.address, b.address],
                capacity_refresh=0.0,
            )
            try:
                first = backend.run(api_fixy, spec, scenes, None)
                split = {
                    r["worker"]: r["n_scenes"]
                    for r in backend.provenance_extras()["workers"]
                }
                assert split == {a.address: 4, b.address: 4}
                b.service.capacity = 3
                second = backend.run(api_fixy, spec, scenes, None)
                split = {
                    r["worker"]: r["n_scenes"]
                    for r in backend.provenance_extras()["workers"]
                }
                assert split == {a.address: 2, b.address: 6}
                assert signature(second) == signature(first)
            finally:
                backend.close()


class TestRequeue:
    def test_partition_requeued_off_dead_worker(self, api_fixy):
        """Acceptance: an audit over 2 workers survives one dying
        mid-audit; the partition is requeued and the merged ranking is
        byte-identical to inline."""
        dying = DyingWorker(api_fixy)
        with dying as bad, GatewayWorker(api_fixy) as good:
            spec = AuditSpec(kind="tracks", top_k=8)
            scenes = [model_scene(f"rq-{i}", n_tracks=3) for i in range(4)]
            with Audit(spec, fixy=api_fixy) as audit:
                inline = audit.run(scenes=scenes)
                remote = audit.run(
                    scenes=scenes,
                    backend="remote",
                    workers=[bad.address, good.address],
                )
            assert dying.audits_seen == 1  # the doomed dispatch happened
            assert signature(remote.items) == signature(inline.items)
            reports = remote.provenance.workers
            assert {r["worker"] for r in reports} == {good.address}
            assert sum(r["n_scenes"] for r in reports) == len(scenes)
            # The requeued partition records its extra attempt.
            assert sorted(r["attempts"] for r in reports) == [1, 2]

    def test_all_workers_dead_mid_audit_raises(self, api_fixy):
        with DyingWorker(api_fixy) as only:
            spec = AuditSpec(kind="tracks")
            with Audit(spec, fixy=api_fixy) as audit:
                with pytest.raises(protocol.ProtocolError) as exc:
                    audit.run(
                        scenes=[model_scene("dead")],
                        backend="remote",
                        workers=[only.address],
                    )
            assert exc.value.code == "worker_unavailable"
            assert "partition" in exc.value.message


class TestShedRetry:
    def test_shed_chunk_is_retried_on_the_same_worker(self, api_fixy):
        """A worker that sheds a chunk (`overloaded`) stays registered:
        the pool backs off and resends, and the audit completes
        byte-identical to inline once the worker has room again."""
        from repro.api.client import AuditClient
        from repro.serving.gateway import _SHED

        from tests.serving.conftest import GatedService

        service = GatedService(api_fixy)
        spec = AuditSpec(kind="tracks", top_k=6)
        scenes = [model_scene(f"shed-{i}", n_tracks=3) for i in range(4)]
        before = _SHED.value(reason="queue_full")
        with GatewayWorker(
            service=service, max_inflight=1, max_queue=0
        ) as worker, Audit(spec, fixy=api_fixy) as audit:
            inline = audit.run(scenes=scenes)
            # Register the pool while the worker has room.
            audit.run(
                scenes=scenes, backend="remote", workers=[worker.address]
            )
            with AuditClient.connect(worker.address, wire="frames") as parked:
                # Park the only executor thread: every request is shed
                # (queue_full) until the gate opens.
                parked.send_request("stats", gate=True)
                assert service.entered.wait(timeout=10)

                def release_after_first_shed():
                    deadline = time.monotonic() + 10
                    while (
                        worker.gateway.requests_shed == 0
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.002)
                    service.release()

                releaser = threading.Thread(target=release_after_first_shed)
                releaser.start()
                try:
                    remote = audit.run(
                        scenes=scenes,
                        backend="remote",
                        workers=[worker.address],
                    )
                finally:
                    service.release()
                    releaser.join(timeout=10)
                assert not releaser.is_alive()
                assert parked.recv_response()["ok"] is True
        assert signature(remote.items) == signature(inline.items)
        (report,) = remote.provenance.workers
        assert report["worker"] == worker.address
        assert report["attempts"] > 1
        assert _SHED.value(reason="queue_full") > before


class TestWorkerCompileCache:
    """A worker's scene cache keeps each scene's scorer, so a hot set
    compiles once however large it is next to the engine's own LRU."""

    def test_hot_set_larger_than_engine_lru_compiles_once(self, api_fixy):
        from repro.core.compile import _COMPILE_SCENES

        spec = AuditSpec(kind="tracks", top_k=5)
        scenes = [model_scene(f"cliff-{i}", n_tracks=2) for i in range(32)]
        with GatewayWorker(api_fixy) as worker, Audit(
            spec, fixy=api_fixy
        ) as audit:
            inline = audit.run(scenes=scenes)
            rounds = []
            for _ in range(2):
                before = _COMPILE_SCENES.value()
                result = audit.run(
                    scenes=scenes, backend="remote", workers=[worker.address]
                )
                rounds.append((_COMPILE_SCENES.value() - before, result))
        (cold_compiles, cold), (warm_compiles, warm) = rounds
        assert cold_compiles == 32
        assert warm_compiles == 0
        assert sum(r["scene_cache_hits"] for r in warm.provenance.workers) == 32
        assert signature(warm.items) == signature(inline.items)
        assert signature(cold.items) == signature(inline.items)

    def test_scene_bodies_do_not_evict_hot_scenes(self, api_fixy):
        from repro.api.client import AuditClient
        from repro.core.compile import _COMPILE_SCENES

        spec = AuditSpec(kind="tracks", top_k=5)
        hot = [model_scene(f"hot-{i}", n_tracks=2) for i in range(16)]
        bodies = [model_scene(f"body-{i}", n_tracks=2) for i in range(16)]
        with GatewayWorker(api_fixy) as worker, Audit(
            spec, fixy=api_fixy
        ) as audit:
            audit.run(scenes=hot, backend="remote", workers=[worker.address])
            with AuditClient.connect(worker.address, version=1) as client:
                shipped = client.audit(spec, scenes=bodies)
            before = _COMPILE_SCENES.value()
            warm = audit.run(
                scenes=hot, backend="remote", workers=[worker.address]
            )
            assert _COMPILE_SCENES.value() - before == 0
            inline = audit.run(scenes=bodies)
        assert sum(r["scene_cache_hits"] for r in warm.provenance.workers) == 16
        assert signature(shipped.items) == signature(inline.items)
        assert shipped.provenance.backend == "inline"
        assert worker.service.scene_cache.stats()["size"] == 16
