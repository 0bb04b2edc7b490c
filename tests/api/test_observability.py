"""End-to-end observability: stitched traces across the remote
backend's worker pool, the ``metrics`` protocol op (and its v1
rejection), the HTTP exposition endpoint, and the provenance
round-trip of the merged trace."""

import json

import pytest

from repro.api import Audit, AuditResult, AuditSpec, protocol
from repro.api.client import AuditClient
from repro.obs import get_registry, serve_metrics
from repro.serving import GatewayWorker

from tests.api.conftest import DyingWorker
from tests.serving.conftest import model_scene


def spans_by_name(trace_dict):
    out = {}
    for span in trace_dict["spans"]:
        out.setdefault(span["name"], []).append(span)
    return out


class TestStitchedTrace:
    def test_remote_audit_yields_one_stitched_trace(
        self, api_fixy, tcp_workers
    ):
        """Acceptance: one remote audit over two live workers lands a
        single trace in provenance — coordinator spans plus both
        workers' spans, parented under their dispatch spans."""
        spec = AuditSpec(kind="tracks", top_k=5)
        scenes = [model_scene(f"tr-{i}", n_tracks=3) for i in range(4)]
        with Audit(spec, fixy=api_fixy) as audit:
            result = audit.run(
                scenes=scenes,
                backend="remote",
                workers=list(tcp_workers),
                trace=True,
            )
        trace = result.provenance.trace
        assert trace is not None
        assert all(s["trace_id"] == trace["trace_id"] for s in trace["spans"])

        named = spans_by_name(trace)
        # The coordinator's "audit" span is the only root.
        (root,) = [
            s for s in named["audit"] if s.get("parent_id") is None
        ]
        assert root["attrs"]["backend"] == "remote"
        (rank,) = [
            s for s in named["rank"]
            if s.get("parent_id") == root["span_id"]
        ]
        dispatches = named["pool.dispatch"]
        assert len(dispatches) == 2
        assert {d["attrs"]["worker"] for d in dispatches} == set(tcp_workers)
        assert all(d["parent_id"] == rank["span_id"] for d in dispatches)
        # Each worker's root span hangs off the dispatch that hit it.
        worker_roots = named["worker.audit"]
        assert len(worker_roots) == 2
        assert {w["parent_id"] for w in worker_roots} == {
            d["span_id"] for d in dispatches
        }
        # Worker-side compile spans made the trip too, transitively
        # parented under the worker roots.
        by_id = {s["span_id"]: s for s in trace["spans"]}

        def ancestors(span):
            while span.get("parent_id"):
                span = by_id[span["parent_id"]]
                yield span["name"]

        for compile_span in named["compile"]:
            assert "worker.audit" in ancestors(compile_span)
        # Durations and starts are recorded for every span.
        assert all(s["dur_s"] >= 0 and s["start_s"] > 0 for s in trace["spans"])

    def test_untraced_run_attaches_nothing(self, api_fixy, tcp_workers):
        spec = AuditSpec(kind="tracks", top_k=3)
        with Audit(spec, fixy=api_fixy) as audit:
            result = audit.run(
                scenes=[model_scene("untr", n_tracks=2)],
                backend="remote",
                workers=list(tcp_workers),
            )
        assert result.provenance.trace is None
        with pytest.raises(ValueError):
            result.dump_trace("/dev/null")

    def test_trace_round_trips_through_provenance(self, api_fixy, tmp_path):
        spec = AuditSpec(kind="tracks", top_k=3)
        result = Audit(spec, fixy=api_fixy).run(
            scenes=[model_scene("rt", n_tracks=2)], trace=True
        )
        restored = AuditResult.from_dict(result.to_dict())
        assert restored.provenance.trace == result.provenance.trace

        path = tmp_path / "trace.jsonl"
        n_spans = restored.dump_trace(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == n_spans == len(result.provenance.trace["spans"])
        names = {json.loads(line)["name"] for line in lines}
        assert {"audit", "rank", "compile"} <= names


class TestTraceSurvivesRequeue:
    def test_requeued_partition_traced_twice(self, api_fixy):
        """A worker dying mid-audit leaves both attempts in the trace:
        the failed dispatch (error attr) and the successful retry."""
        dying = DyingWorker(api_fixy)
        with dying as bad, GatewayWorker(api_fixy) as good:
            spec = AuditSpec(kind="tracks", top_k=4)
            scenes = [model_scene(f"rqt-{i}", n_tracks=2) for i in range(4)]
            with Audit(spec, fixy=api_fixy) as audit:
                result = audit.run(
                    scenes=scenes,
                    backend="remote",
                    workers=[bad.address, good.address],
                    trace=True,
                )
        assert dying.audits_seen == 1
        named = spans_by_name(result.provenance.trace)
        dispatches = named["pool.dispatch"]
        assert len(dispatches) == 3  # 2 partitions + 1 retry
        requeued = [
            d for d in dispatches if d["attrs"]["worker"] == bad.address
        ]
        (failed,) = requeued
        assert failed["attrs"]["attempt"] == 1
        assert "error" in failed["attrs"]
        # The dead worker's partition shows up again on the survivor.
        partition = failed["attrs"]["partition"]
        retries = [
            d
            for d in dispatches
            if d["attrs"]["partition"] == partition
            and d["attrs"]["worker"] == good.address
        ]
        assert any(d["attrs"]["attempt"] == 2 for d in retries)


class TestMetricsOp:
    def test_hello_advertises_metrics(self, api_fixy):
        client = AuditClient.local(fixy=api_fixy)
        assert "metrics" in client.hello()["ops"]

    def test_snapshot_and_text(self, api_fixy):
        client = AuditClient.local(fixy=api_fixy)
        client.hello()
        payload = client.metrics(text=True)
        snapshot = payload["metrics"]
        assert "repro_service_requests_total" in snapshot
        assert snapshot["repro_service_requests_total"]["type"] == "counter"
        text = payload["text"]
        assert "# TYPE repro_service_requests_total counter" in text
        # text omitted unless asked for
        assert "text" not in client.metrics()

    def test_counters_advance_across_requests(self, api_fixy, tcp_workers):
        with AuditClient.connect(tcp_workers[0]) as client:

            def audit_count():
                series = client.metrics()["metrics"][
                    "repro_service_requests_total"
                ]["series"]
                return sum(
                    s["value"]
                    for s in series
                    if s["labels"].get("op") == "audit"
                )

            before = audit_count()
            spec = AuditSpec(kind="tracks", top_k=2)
            client.audit(spec, scenes=[model_scene("mc", n_tracks=2)])
            client.audit(spec, scenes=[model_scene("mc2", n_tracks=2)])
            assert audit_count() == before + 2

    def test_v1_client_rejected_with_typed_code(self, tcp_workers):
        """A v1 connection asking for metrics gets the additive-op
        contract's clean rejection, not a crash or a silent empty."""
        with AuditClient.connect(tcp_workers[0], version=1) as client:
            client.hello()  # the v1 path itself still works
            with pytest.raises(protocol.ProtocolError) as exc:
                client.metrics()
            assert exc.value.code == protocol.UNSUPPORTED_VERSION

    def test_health_carries_metrics_summary(self, api_fixy):
        client = AuditClient.local(fixy=api_fixy)
        client.hello()
        health = client.health()
        summary = health["metrics"]
        assert isinstance(summary, dict)
        # Counter totals only — scalars a dashboard can diff cheaply.
        assert all(isinstance(v, (int, float)) for v in summary.values())
        assert summary.get("repro_service_requests_total", 0) >= 1


class TestMetricsHttp:
    def test_scrape_parses_and_reflects_work(self, api_fixy):
        import urllib.request

        Audit(AuditSpec(kind="tracks", top_k=2), fixy=api_fixy).run(
            scenes=[model_scene("scrape", n_tracks=2)]
        )
        server = serve_metrics(port=0)
        try:
            host, port = server.address
            body = (
                urllib.request.urlopen(f"http://{host}:{port}/metrics")
                .read()
                .decode("utf-8")
            )
        finally:
            server.stop()
        assert "# TYPE repro_compile_scenes_total counter" in body
        # Every sample line is `name[{labels}] value`.
        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            _, value = line.rsplit(" ", 1)
            float(value)

    def test_serves_live_registry_not_a_copy(self, api_fixy):
        import urllib.request

        server = serve_metrics(port=0)
        try:
            host, port = server.address
            url = f"http://{host}:{port}/metrics"

            def scrape_total():
                body = urllib.request.urlopen(url).read().decode("utf-8")
                for line in body.splitlines():
                    if line.startswith("repro_compile_scenes_total "):
                        return float(line.rsplit(" ", 1)[1])
                return 0.0

            before = scrape_total()
            Audit(AuditSpec(kind="tracks", top_k=2), fixy=api_fixy).run(
                scenes=[model_scene("live-scrape", n_tracks=2)]
            )
            assert scrape_total() == before + 1
        finally:
            server.stop()
