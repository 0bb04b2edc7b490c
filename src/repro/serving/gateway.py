"""The TCP serving front: one event loop with admission control.

``cli serve --listen HOST:PORT`` runs :class:`AsyncGateway`, and every
worker of the distributed ``remote`` backend is one. It multiplexes
client connections on **one asyncio event loop** and keeps the actual
request handling on the byte-exact
:class:`~repro.serving.service.StreamingService`:

- **Wire detection.** Both wires are detected per connection by the
  first byte: :data:`repro.api.frames.MAGIC` opens the v2 binary
  framed conversation (read with
  :func:`repro.api.frames.read_frame_async`), anything else is
  line-delimited JSON (v1 and v2 requests both ride it). Responses per
  connection come back in request order — the pipelining contract both
  wires promise.

- **Bounded execution.** Decoded requests dispatch to a worker-thread
  executor of ``max_inflight`` threads running ``service.handle`` /
  ``service.handle_frame``, so every op's response is byte-identical
  to serial execution of the same requests.

- **Admission control.** Work past the executor queues; once the queue
  depth reaches ``max_queue`` (or one connection exceeds its
  ``client_budget`` of in-flight requests, or the gateway is
  draining), the request is answered immediately with the typed
  ``overloaded`` protocol code instead of stalling — never a hang,
  never a silent drop. Every peer gets it as an ordinary structured
  error in its own version (a request without one gets this build's
  version, like any other refusal). ``details`` carries
  ``reason`` plus the queue state so clients can back off sensibly
  (client-side it raises :class:`repro.api.protocol.OverloadedError`).

- **Compile coalescing.** Concurrent ``audit`` requests naming the
  same ``scene_hashes`` under the same spec and model fingerprint —
  the same key the warehouse compiled-columns sidecar uses
  (``scene_fingerprint`` × model fingerprint) — attach to the one
  in-flight response future instead of re-executing: a same-scene
  burst costs one compile, not N. Only hash-naming, session-less,
  trace-less audits coalesce (anything else is stateful or carries
  per-request payloads).

- **Graceful drain.** Shutdown stops accepting, sheds new requests
  with ``overloaded`` (reason ``draining``), waits up to
  ``drain_timeout`` for in-flight work to finish and flush, then
  closes the remaining connections.

Instrumented via :mod:`repro.obs.metrics` (names are API — see
docs/API.md "Observability"): connection/queue-depth gauges,
shed/coalesce counters, per-op latency histograms.

Entry points: :func:`run_gateway` serves in the foreground until
SIGINT/SIGTERM (what ``cli serve --listen`` does);
:class:`GatewayWorker` is the in-process convenience (gateway + event
loop + daemon thread) that tests, examples and benchmarks stand up.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from functools import partial

from repro.api import frames, protocol
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Stopwatch
from repro.serving.service import StreamingService, _sanitize_wire_request

__all__ = ["AsyncGateway", "GatewayWorker", "MAX_LINE_BYTES"]

#: Stream buffer limit for the line-JSON wire (a whole request is one
#: line; asyncio's 64 KiB default would refuse legitimate scene
#: payloads long before the framed wire's 16 MiB header cap).
MAX_LINE_BYTES = 64 * 1024 * 1024

# Gateway metrics (names are API — docs/API.md, "Observability").
_CONNECTIONS = obs_metrics.gauge(
    "repro_gateway_connections", "Live gateway client connections"
)
_QUEUE_DEPTH = obs_metrics.gauge(
    "repro_gateway_queue_depth",
    "Admitted requests waiting for an executor slot",
)
_GW_REQUESTS = obs_metrics.counter(
    "repro_gateway_requests_total",
    "Requests arriving at the gateway (admitted or shed), by op",
    labelnames=("op",),
)
_SHED = obs_metrics.counter(
    "repro_gateway_shed_total",
    "Requests answered with the overloaded code, by admission reason",
    labelnames=("reason",),
)
_COALESCE = obs_metrics.counter(
    "repro_gateway_coalesce_total",
    "Coalescable audit dispatches, by outcome (lead = executed, "
    "hit = attached to an in-flight lead)",
    labelnames=("outcome",),
)
_GW_SECONDS = obs_metrics.histogram(
    "repro_gateway_request_seconds",
    "Admission-to-completion latency of executed requests, by op",
    labelnames=("op",),
)

_SHED_MESSAGES = {
    "queue_full": "gateway queue is full; back off and retry",
    "client_budget": "connection exceeded its in-flight request budget",
    "draining": "gateway is draining for shutdown; retry elsewhere",
}


class _ClientState:
    """Per-connection admission accounting."""

    __slots__ = ("inflight",)

    def __init__(self):
        self.inflight = 0


class AsyncGateway:
    """One event loop multiplexing many clients over one service.

    Args:
        service: The :class:`StreamingService` every request dispatches
            to (its handlers define the byte-exact response surface).
        host/port: Listen address (port 0 picks a free port; read the
            result from :attr:`address` after :meth:`start`).
        max_inflight: Worker threads executing service handlers — the
            concurrency of actual request handling.
        max_queue: Admitted-but-not-yet-executing requests allowed
            before new arrivals are shed with ``overloaded``.
        client_budget: In-flight requests one connection may have
            before its next request is shed with ``overloaded``.
        drain_timeout: Seconds :meth:`shutdown` waits for in-flight
            work to finish and flush before force-closing connections.

    All state is event-loop-confined; the only cross-thread traffic is
    the executor running service handlers (the service itself is
    thread-safe).
    """

    def __init__(
        self,
        service: StreamingService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 4,
        max_queue: int = 64,
        client_budget: int = 16,
        drain_timeout: float = 5.0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.max_inflight = max(1, int(max_inflight))
        self.max_queue = max(0, int(max_queue))
        self.client_budget = max(1, int(client_budget))
        self.drain_timeout = float(drain_timeout)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._executor = None
        self._bound: tuple[str, int] | None = None
        self._draining = False
        self._inflight = 0  # admitted leads not yet completed
        self._unwritten = 0  # responses enqueued but not yet written
        self._compiles: dict[tuple, asyncio.Future] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._model_fp: str | None | bool = False  # False = not resolved yet
        self.requests_shed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> str | None:
        """The bound ``"host:port"``, or ``None`` before :meth:`start`."""
        if self._bound is None:
            return None
        return f"{self._bound[0]}:{self._bound[1]}"

    async def start(self) -> None:
        """Bind the listener on the running event loop."""
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="gateway-exec"
        )
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self._bound = (sockname[0], sockname[1])
        _QUEUE_DEPTH.set(0)

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close."""
        self._draining = True
        if self._server is not None:
            # close() alone shuts the listener. Not awaiting
            # wait_closed(): since Python 3.12 it also waits for every
            # accepted connection to drop, so an idle client would
            # hold shutdown open; the connections are closed below.
            self._server.close()
        deadline = self._loop.time() + self.drain_timeout
        while (self._inflight or self._unwritten) and (
            self._loop.time() < deadline
        ):
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=1.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set, then drain and shut down."""
        await self.start()
        try:
            await stop.wait()
        finally:
            await self.shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._writers.add(writer)
        _CONNECTIONS.inc()
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                # One small response per request must not sit out
                # Nagle + the peer's delayed-ACK window (~40 ms).
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        conn = _ClientState()
        queue: asyncio.Queue = asyncio.Queue()
        pump = asyncio.create_task(self._write_responses(queue, writer))
        try:
            first = await reader.read(1)
            if first:
                if first == frames.MAGIC[:1]:
                    await self._read_frames(conn, reader, queue, first)
                else:
                    await self._read_lines(conn, reader, queue, first)
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            await queue.put(None)
            try:
                await pump
            except asyncio.CancelledError:
                pass
            self._writers.discard(writer)
            _CONNECTIONS.dec()
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass
            finally:
                # Untracked only once closed, so shutdown() waits for
                # the close instead of leaving it to be cancelled when
                # the loop ends (which asyncio logs as an error).
                self._conn_tasks.discard(task)

    async def _write_responses(self, queue, writer) -> None:
        """One per connection: write responses in request order.

        Each item is ``(future, framed)``; the future always resolves
        to a response dict (dispatch converts failures into error
        responses). A broken peer stops the writing but keeps
        consuming, so admission accounting still completes.
        """
        peer_alive = True
        while True:
            item = await queue.get()
            if item is None:
                return
            fut, framed = item
            try:
                response = await fut
            except Exception as exc:  # belt: dispatch never raises
                err = protocol.classify_exception(exc)
                response = protocol.error_response(err.code, err.message)
            finally:
                self._unwritten -= 1
            if not peer_alive:
                continue
            if framed:
                data = frames.encode_frame(response)
            else:
                data = (json.dumps(response) + "\n").encode("utf-8")
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                peer_alive = False

    async def _enqueue(self, queue, fut, framed: bool) -> None:
        self._unwritten += 1
        await queue.put((fut, framed))

    async def _read_lines(self, conn, reader, queue, first: bytes) -> None:
        """The line-JSON loop, mirroring ``StreamingService.serve``."""
        pending_first = first
        while True:
            if pending_first is not None and pending_first not in (
                b"\n",
                b"\r",
            ):
                try:
                    line = pending_first + await reader.readline()
                except ValueError:  # line over the stream limit
                    await self._refuse_oversized_line(queue)
                    return
            else:
                if pending_first is None:
                    try:
                        line = await reader.readline()
                    except ValueError:
                        await self._refuse_oversized_line(queue)
                        return
                else:
                    line = pending_first  # a lone blank byte: skip it
            pending_first = None
            if not line:
                return  # clean EOF
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            try:
                request = json.loads(text)
            except json.JSONDecodeError as exc:
                # Same as StreamingService.serve: an undecodable line
                # has no version to negotiate.
                response = protocol.error_response(
                    protocol.BAD_JSON, f"bad JSON: {exc}"
                )
                await self._enqueue(
                    queue, self._completed(response), framed=False
                )
                continue
            fut = self._dispatch(
                conn, _sanitize_wire_request(request), blobs=None
            )
            await self._enqueue(queue, fut, framed=False)

    async def _refuse_oversized_line(self, queue) -> None:
        """A line past the buffer limit cannot be resynced: one typed
        error, then the connection ends (mirrors the framed wire's
        oversized-frame contract)."""
        response = protocol.error_response(
            protocol.FRAME_TOO_LARGE,
            f"request line exceeds {MAX_LINE_BYTES} bytes",
        )
        await self._enqueue(queue, self._completed(response), framed=False)

    async def _read_frames(self, conn, reader, queue, first: bytes) -> None:
        """The framed loop: one frame in, one response frame out."""
        prefix = first
        while True:
            try:
                frame = await frames.read_frame_async(
                    reader, allow_eof=True, prefix=prefix
                )
            except protocol.StreamClosedError:
                return  # peer died mid-frame: nothing left to answer
            except protocol.TransportError as exc:
                # Malformed/oversized: report once, then stop — the
                # stream can no longer be trusted to re-sync.
                response = protocol.error_response(exc.code, exc.message)
                await self._enqueue(
                    queue, self._completed(response), framed=True
                )
                return
            prefix = b""
            if frame is None:
                return
            header, blobs = frame
            fut = self._dispatch(conn, header, blobs=blobs)
            await self._enqueue(queue, fut, framed=True)

    # ------------------------------------------------------------------
    # Admission + dispatch
    # ------------------------------------------------------------------
    def _queue_depth(self) -> int:
        return max(0, self._inflight - self.max_inflight)

    def _dispatch(self, conn, request, blobs) -> asyncio.Future:
        """Admit (or shed) one request; returns its response future.

        Runs on the event loop, never blocks: the returned future is
        already resolved for shed requests, shared for coalesced ones,
        and an executor-backed wrapper otherwise. It always resolves
        to a response dict — never raises.
        """
        op = request.get("op") if isinstance(request, dict) else None
        op_label = op if op in getattr(self.service, "_ops", {}) else "unknown"
        _GW_REQUESTS.inc(op=op_label)
        shed = None
        if self._draining:
            shed = "draining"
        elif conn.inflight >= self.client_budget:
            shed = "client_budget"
        elif self._inflight >= self.max_inflight + self.max_queue:
            shed = "queue_full"
        if shed is not None:
            _SHED.inc(reason=shed)
            self.requests_shed += 1
            return self._completed(self._overloaded_response(request, shed))
        conn.inflight += 1
        key = self._coalesce_key(request, blobs)
        shared = self._compiles.get(key) if key is not None else None
        if shared is not None:
            _COALESCE.inc(outcome="hit")
            result = shared
        else:
            result = self._submit(request, blobs, op_label, key)
            if key is not None:
                _COALESCE.inc(outcome="lead")
                self._compiles[key] = result

        def _release(_fut):
            conn.inflight -= 1

        result.add_done_callback(_release)
        return result

    def _submit(self, request, blobs, op_label, key) -> asyncio.Future:
        """Hand one request to the executor; wrap its completion."""
        self._inflight += 1
        _QUEUE_DEPTH.set(self._queue_depth())
        watch = Stopwatch()
        inner = self._loop.run_in_executor(
            self._executor, partial(self._call_service, request, blobs)
        )
        outer = self._loop.create_future()

        def _finish(fut):
            self._inflight -= 1
            _QUEUE_DEPTH.set(self._queue_depth())
            if key is not None and self._compiles.get(key) is outer:
                del self._compiles[key]
            _GW_SECONDS.observe(watch.s, op=op_label)
            exc = fut.exception() if not fut.cancelled() else None
            if fut.cancelled():
                response = self._error_for(
                    request,
                    protocol.ProtocolError(
                        protocol.WORKER_UNAVAILABLE,
                        "gateway shut down before the request executed",
                    ),
                )
            elif exc is not None:
                err = protocol.classify_exception(
                    exc if isinstance(exc, Exception) else RuntimeError(str(exc))
                )
                response = self._error_for(request, err)
            else:
                response = fut.result()
            if not outer.done():
                outer.set_result(response)

        inner.add_done_callback(_finish)
        return outer

    def _call_service(self, request, blobs):
        """Executor thread: run the service handler, never raise."""
        try:
            if blobs is None:
                return self.service.handle(request)
            return self.service.handle_frame(request, blobs)
        except Exception as exc:  # handle() catches its own; this is belt
            return self._error_for(request, protocol.classify_exception(exc))

    # ------------------------------------------------------------------
    # Coalescing
    # ------------------------------------------------------------------
    @property
    def model_fingerprint(self) -> str | None:
        if self._model_fp is False:
            learned = getattr(self.service.store.fixy, "learned", None)
            self._model_fp = (
                learned.fingerprint() if learned is not None else None
            )
        return self._model_fp

    def _coalesce_key(self, request, blobs):
        """The sidecar-shaped sharing key, or ``None`` (not coalescable).

        Only stateless hash-naming audits coalesce: same spec, same
        ``scene_hashes``, same shipped blob set, same model
        fingerprint, same response dialect. Sessions and traces are
        per-request state; ``scenes`` bodies are per-request payloads.
        """
        if not isinstance(request, dict) or request.get("op") != "audit":
            return None
        if request.get("session_id") is not None or request.get("trace_id"):
            return None
        hashes = request.get("scene_hashes")
        if not isinstance(hashes, (list, tuple)) or not hashes:
            return None
        if not all(isinstance(h, str) for h in hashes):
            return None
        try:
            # The whole request, canonicalized: two requests share a
            # response only when *nothing* about them differs (spec,
            # hashes, version, any extra field) — strictly safe even
            # for fields the audit handler happens to ignore.
            request_key = json.dumps(
                request, sort_keys=True, separators=(",", ":")
            )
        except (TypeError, ValueError):
            return None
        blob_key = tuple(
            frames.scene_fingerprint(blob) for blob in (blobs or ())
        )
        return (request_key, blob_key, self.model_fingerprint)

    # ------------------------------------------------------------------
    # Response construction
    # ------------------------------------------------------------------
    def _completed(self, response: dict) -> asyncio.Future:
        fut = self._loop.create_future()
        fut.set_result(response)
        return fut

    def _error_for(self, request, err: protocol.ProtocolError) -> dict:
        """A refusal by the gateway itself, in the request's version
        when this build speaks it and in this build's otherwise."""
        version = request.get("v") if isinstance(request, dict) else None
        if not protocol.is_supported_version(version):
            version = protocol.PROTOCOL_VERSION
        return protocol.error_response(
            err.code, err.message, details=err.details, version=version
        )

    def _overloaded_response(self, request, reason: str) -> dict:
        details = {
            "reason": reason,
            "queue_depth": self._queue_depth(),
            "max_queue": self.max_queue,
            "max_inflight": self.max_inflight,
            "client_budget": self.client_budget,
        }
        return self._error_for(
            request,
            protocol.ProtocolError(
                protocol.OVERLOADED, _SHED_MESSAGES[reason], details
            ),
        )


async def run_gateway(gateway: AsyncGateway, announce=None) -> None:
    """Foreground entry point: serve until SIGINT/SIGTERM, then drain.

    ``announce(address)`` is called once the listener is bound (the
    CLI prints its banner through it).
    """
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix loop: Ctrl-C surfaces as KeyboardInterrupt
    await gateway.start()
    if announce is not None:
        announce(gateway.address)
    try:
        await stop.wait()
    finally:
        await gateway.shutdown()


class GatewayWorker:
    """An in-process TCP worker: service + gateway + event-loop thread.

    Spawns a real TCP endpoint (ephemeral port by default) backed by a
    daemon thread running the event loop, so tests, examples and
    benchmarks stand up workers exactly as ``cli serve --listen``
    would. Pass a prebuilt ``service`` or a fitted ``fixy`` (plus
    :class:`StreamingService` keyword options — e.g.
    ``warehouse=PATH`` points the worker at a shared scene warehouse).
    """

    def __init__(
        self,
        fixy=None,
        service: StreamingService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 4,
        max_queue: int = 64,
        client_budget: int = 16,
        drain_timeout: float = 5.0,
        **service_options,
    ):
        if service is None:
            if fixy is None:
                raise ValueError("GatewayWorker needs a fixy or a service")
            service = StreamingService(fixy, **service_options)
        self.service = service
        self.gateway = AsyncGateway(
            service,
            host=host,
            port=port,
            max_inflight=max_inflight,
            max_queue=max_queue,
            client_budget=client_budget,
            drain_timeout=drain_timeout,
        )
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self.thread = threading.Thread(
            target=self._run, name="gateway-worker", daemon=True
        )
        self.thread.start()
        self._ready.wait(timeout=60)
        if self._startup_error is not None:
            raise RuntimeError(
                f"gateway failed to start: {self._startup_error}"
            ) from self._startup_error
        if self.gateway.address is None:
            raise RuntimeError("gateway failed to start (no bound address)")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            self._startup_error = exc
        finally:
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.gateway.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.gateway.shutdown()

    @property
    def address(self) -> str:
        return self.gateway.address

    def stop(self) -> None:
        """Drain the gateway and join the event-loop thread."""
        if (
            self._loop is not None
            and self._stop_event is not None
            and self.thread.is_alive()
        ):
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        self.thread.join(timeout=30)

    def __enter__(self) -> "GatewayWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
