"""Async-gateway performance harness: sustained load, shedding, coalescing.

The acceptance floors the async serving front
(:mod:`repro.serving.gateway`) commits to, measured in one report
(``benchmarks/bench_gateway.py`` asserts them, the perf harness
persists them to ``BENCH_scaling.json`` under ``serving.gateway``):

- **sustained**: ≥1k concurrent closed-loop clients multiplexed on the
  gateway's single event loop, every request answered (no hangs, no
  silent drops) with a bounded p99;
- **shed**: with a tiny admission window (``max_inflight=1``, small
  ``max_queue``) a concurrent burst must shed the overflow with the
  *typed* ``overloaded`` protocol code — every request still gets a
  response;
- **coalesce**: a concurrent burst of identical audits against a
  cold scene must share one compile — ≥50% of the burst attaches to
  the in-flight future (``hit_ratio``) and all responses carry the
  identical body;
- **byte identity**: a mixed op sequence through the gateway matches
  serial in-process execution (:meth:`AuditClient.local
  <repro.api.client.AuditClient.local>`) byte-for-byte (timings
  stripped — they are wall-clock, not payload).

The load generator is itself asyncio (one client coroutine per
connection, closed loop: write a request line, await the response
line), so a single bench process drives thousands of concurrent
connections without a thread per client.

Run via the harness (``python benchmarks/run_perf_harness.py``) or
standalone::

    PYTHONPATH=src python -c "
    from repro.eval.gateway_perf import gateway_report, render_gateway_report
    print(render_gateway_report(gateway_report(n_clients=128)))"
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import time
from pathlib import Path

from repro.eval.serving_perf import _warm_finder

__all__ = ["gateway_report", "render_gateway_report"]

#: Cap on simultaneous *connect* attempts — the listener's accept
#: backlog is finite, and a 1k-SYN stampede would push some clients
#: into kernel SYN-retransmit (seconds), polluting latency with
#: connect noise instead of serving behavior.
_CONNECT_WINDOW = 64


def _build_scene(n_objects: int, seed: int):
    from repro.eval.perf import _build_scene as build

    return build(n_objects, seed)


def _audit_line(spec_dict: dict, fingerprint: str, **extra) -> bytes:
    request = {
        "v": 2,
        "op": "audit",
        "spec": spec_dict,
        "scene_hashes": [fingerprint],
        **extra,
    }
    return json.dumps(request).encode("utf-8") + b"\n"


async def _client(
    address: tuple[str, int],
    lines: list[bytes],
    connect_gate: asyncio.Semaphore,
    results: list,
) -> None:
    """One closed-loop client: connect, then request → response → next."""
    host, port = address
    async with connect_gate:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        for line in lines:
            t0 = time.perf_counter()
            writer.write(line)
            await writer.drain()
            raw = await reader.readline()
            latency = time.perf_counter() - t0
            if not raw:
                results.append(("closed", latency, None))
                return
            response = json.loads(raw)
            if response.get("ok"):
                results.append(("ok", latency, response))
            else:
                error = response.get("error")
                code = error.get("code") if isinstance(error, dict) else None
                kind = "shed" if code == "overloaded" else "error"
                results.append((kind, latency, response))
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _drive(address_str: str, per_client_lines: list[list[bytes]]):
    host, port_str = address_str.rsplit(":", 1)
    address = (host, int(port_str))
    gate = asyncio.Semaphore(_CONNECT_WINDOW)
    results: list = []
    await asyncio.gather(
        *(_client(address, lines, gate, results) for lines in per_client_lines)
    )
    return results


def _run_load(address: str, per_client_lines: list[list[bytes]]) -> dict:
    """Drive the client fleet, fold outcomes + latency percentiles."""
    t0 = time.perf_counter()
    results = asyncio.run(_drive(address, per_client_lines))
    wall_s = time.perf_counter() - t0
    latencies = sorted(latency for _kind, latency, _r in results)

    def pct(q: float) -> float | None:
        if not latencies:
            return None
        index = min(len(latencies) - 1, int(q * (len(latencies) - 1)))
        return round(1e3 * latencies[index], 3)

    counts = {"ok": 0, "shed": 0, "error": 0, "closed": 0}
    for kind, _latency, _response in results:
        counts[kind] += 1
    total_sent = sum(len(lines) for lines in per_client_lines)
    answered = counts["ok"] + counts["shed"] + counts["error"]
    return {
        "requests_sent": total_sent,
        "answered": answered,
        "ok": counts["ok"],
        "shed": counts["shed"],
        "errors": counts["error"],
        "connections_dropped": counts["closed"],
        "all_answered": answered == total_sent and counts["closed"] == 0,
        "wall_s": round(wall_s, 4),
        "req_per_s": round(answered / wall_s, 1) if wall_s > 0 else None,
        "p50_ms": pct(0.50),
        "p99_ms": pct(0.99),
        "_responses": results,
    }


def _strip_volatile(obj):
    """Drop wall-clock payload fields before byte-identity comparison."""
    if isinstance(obj, dict):
        return {
            key: _strip_volatile(value)
            for key, value in obj.items()
            if key not in ("timings", "generated_at", "uptime_s")
        }
    if isinstance(obj, (list, tuple)):
        return [_strip_volatile(value) for value in obj]
    return obj


def gateway_report(
    n_clients: int = 1000,
    requests_per_client: int = 2,
    n_scenes: int = 8,
    n_objects: int = 8,
    shed_burst: int = 32,
    shed_queue: int = 4,
    coalesce_burst: int = 24,
    max_inflight: int = 4,
    fixy=None,
    db_dir: str | None = None,
) -> dict:
    """Measure the asyncio gateway: sustained, shed, coalesce, identity.

    Scenes live in a throwaway warehouse and clients audit by content
    hash (``scene_hashes``), so a thousand clients cost a thousand
    sockets — not a thousand scene bodies on the wire. Each phase gets
    a fresh :class:`~repro.serving.gateway.AsyncGateway` sized for what
    it probes; all share one warmed engine. Returns a JSON-ready dict;
    the floors live in ``benchmarks/bench_gateway.py``.
    """
    from repro.api import AuditSpec
    from repro.serving.gateway import _COALESCE, GatewayWorker
    from repro.serving.service import StreamingService
    from repro.warehouse import SceneWarehouse

    fixy = fixy or _warm_finder()
    scenes = [_build_scene(n_objects, seed=7000 + i) for i in range(n_scenes)]
    spec_dict = AuditSpec(kind="tracks", top_k=5).to_dict()

    report: dict = {
        "n_clients": n_clients,
        "requests_per_client": requests_per_client,
        "n_scenes": n_scenes,
        "n_objects": n_objects,
        "max_inflight": max_inflight,
    }
    with tempfile.TemporaryDirectory(dir=db_dir) as tmp:
        db = str(Path(tmp) / "gateway.db")
        with SceneWarehouse(db) as warehouse:
            fingerprints = [warehouse.ingest(scene) for scene in scenes]
            # One extra scene the sustained warmup never touches — the
            # coalesce phase needs a *cold* compile slow enough for the
            # burst to pile onto.
            cold_fp = warehouse.ingest(
                _build_scene(max(n_objects * 4, 24), seed=7999)
            )

        def fresh_service() -> StreamingService:
            return StreamingService(
                fixy, warehouse=db, scene_cache=n_scenes + 2
            )

        # -- sustained --------------------------------------------------
        with GatewayWorker(
            service=fresh_service(),
            max_inflight=max_inflight,
            max_queue=n_clients * requests_per_client + 1,
            client_budget=requests_per_client + 1,
        ) as worker:
            # Warm every scene's compile once, outside the timed window:
            # sustained measures serving, not first-touch compilation.
            warm = _run_load(
                worker.address,
                [[_audit_line(spec_dict, fp)] for fp in fingerprints],
            )
            assert warm["ok"] == n_scenes, warm
            load = _run_load(
                worker.address,
                [
                    [
                        _audit_line(
                            spec_dict, fingerprints[client % n_scenes]
                        )
                        for _ in range(requests_per_client)
                    ]
                    for client in range(n_clients)
                ],
            )
            load.pop("_responses")
            report["sustained"] = load

        # -- shed -------------------------------------------------------
        # One executor thread + a tiny queue; the burst arrives faster
        # than one worker drains, so admission must shed the overflow —
        # with a typed response, not a stall. Distinct top_k per request
        # keeps the coalescer out of this phase's way.
        with GatewayWorker(
            service=fresh_service(),
            max_inflight=1,
            max_queue=shed_queue,
            client_budget=shed_burst + 1,
        ) as worker:
            shed = _run_load(
                worker.address,
                [
                    [
                        _audit_line(
                            dict(spec_dict, top_k=2 + client),
                            fingerprints[client % n_scenes],
                        )
                    ]
                    for client in range(shed_burst)
                ],
            )
            responses = shed.pop("_responses")
            typed = all(
                isinstance(r.get("error"), dict)
                and r["error"].get("code") == "overloaded"
                and r["error"].get("details", {}).get("reason")
                for kind, _latency, r in responses
                if kind == "shed"
            )
            report["shed"] = {
                "burst": shed_burst,
                "max_queue": shed_queue,
                **{k: v for k, v in shed.items() if not k.startswith("_")},
                "typed_overloaded": typed and shed["shed"] > 0,
            }

        # -- coalesce ---------------------------------------------------
        # Identical audits of a scene nobody compiled yet: the first
        # becomes the lead, the rest of the burst must attach to its
        # in-flight future instead of compiling again.
        leads_before = _COALESCE.value(outcome="lead")
        hits_before = _COALESCE.value(outcome="hit")
        with GatewayWorker(
            service=fresh_service(),
            max_inflight=1,
            max_queue=coalesce_burst + 1,
            client_budget=2,
        ) as worker:
            coalesce = _run_load(
                worker.address,
                [
                    [_audit_line(spec_dict, cold_fp)]
                    for _ in range(coalesce_burst)
                ],
            )
            responses = coalesce.pop("_responses")
            bodies = {
                json.dumps(_strip_volatile(r), sort_keys=True)
                for kind, _latency, r in responses
                if kind == "ok"
            }
            leads = _COALESCE.value(outcome="lead") - leads_before
            hits = _COALESCE.value(outcome="hit") - hits_before
            total = leads + hits
            report["coalesce"] = {
                "burst": coalesce_burst,
                "ok": coalesce["ok"],
                "leads": leads,
                "hits": hits,
                "hit_ratio": round(hits / total, 3) if total else None,
                "identical_bodies": len(bodies) == 1 and coalesce["ok"] > 0,
            }

        # -- byte identity ---------------------------------------------
        report["byte_identity"] = _byte_identity(
            fixy, db, spec_dict, fingerprints
        )
    return report


def _byte_identity(fixy, db: str, spec_dict: dict, fingerprints) -> dict:
    """Same mixed op sequence via the gateway and serially: identical?

    Each side gets its own fresh service (same model, same warehouse,
    empty session store and scene cache) so state-dependent payloads —
    session ids, cache hit counts — line up deterministically. Only
    wall-clock fields are stripped before comparison.
    """
    from repro.api.client import AuditClient
    from repro.serving.gateway import GatewayWorker
    from repro.serving.service import StreamingService

    def run_ops(client: AuditClient) -> list:
        responses = []
        with client:

            def call(op, **fields):
                try:
                    responses.append(("ok", client.request(op, **fields)))
                except Exception as exc:  # typed errors are payload too
                    responses.append(("err", str(exc)))

            call("hello")
            call("audit", spec=spec_dict, scene_hashes=[fingerprints[0]])
            call("open", scene=_build_scene(6, seed=8101).to_dict())
            session_id = responses[-1][1]["session_id"]
            call("rank", session_id=session_id, kind="tracks", top_k=3)
            call(
                "audit",
                spec=spec_dict,
                scene_hashes=[fingerprints[1 % len(fingerprints)]],
            )
            call("close", session_id=session_id)
            call("stats")
        return _strip_volatile([r for r in responses])

    def fresh_service():
        return StreamingService(fixy, warehouse=db, scene_cache=8)

    with GatewayWorker(service=fresh_service(), max_inflight=2) as gateway:
        via_gateway = run_ops(AuditClient.connect(gateway.address))
    via_serial = run_ops(AuditClient.local(service=fresh_service()))
    return {
        "ops": len(via_gateway),
        "byte_identical": via_gateway == via_serial,
    }


def render_gateway_report(report: dict) -> str:
    sustained = report["sustained"]
    shed = report["shed"]
    coalesce = report["coalesce"]
    identity = report["byte_identity"]
    return "\n".join(
        [
            f"async gateway ({report['n_clients']} clients × "
            f"{report['requests_per_client']} requests, "
            f"max_inflight {report['max_inflight']}):",
            f"  sustained: {sustained['req_per_s']} req/s over "
            f"{sustained['wall_s']*1e3:.0f} ms, "
            f"p50 {sustained['p50_ms']} ms / p99 {sustained['p99_ms']} ms, "
            f"{sustained['answered']}/{sustained['requests_sent']} answered "
            f"{'OK' if sustained['all_answered'] else 'DROPPED'}",
            f"  shed: burst {shed['burst']} vs queue {shed['max_queue']} → "
            f"{shed['ok']} served + {shed['shed']} shed "
            f"(typed overloaded: {shed['typed_overloaded']})",
            f"  coalesce: burst {coalesce['burst']} → {coalesce['leads']:g} "
            f"compiles + {coalesce['hits']:g} attached "
            f"(hit ratio {coalesce['hit_ratio']}, identical bodies "
            f"{coalesce['identical_bodies']})",
            f"  byte-identical to serial execution: "
            f"{identity['byte_identical']} ({identity['ops']} ops)",
        ]
    )
