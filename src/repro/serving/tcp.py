"""TCP front end for the serving protocol: ``serve --listen HOST:PORT``.

The :class:`~repro.serving.service.StreamingService` is transport
agnostic — it maps request dicts to response dicts, and its
:meth:`~repro.serving.service.StreamingService.serve` loop speaks
line-delimited JSON over any reader/writer pair. This module puts that
exact loop behind a threaded TCP listener: each connection gets its own
handler thread running ``service.serve`` over the socket's streams, so
one service instance (one fitted model, one session store) serves many
concurrent clients — the worker side of the distributed ``remote``
backend (:mod:`repro.api.remote`).

Two entry points:

- :func:`serve_tcp` — bind a :class:`ProtocolTCPServer` (port ``0``
  picks a free port); the caller runs ``server.serve_forever()``
  (this is what ``python -m repro.cli serve --listen`` does);
- :class:`TcpWorker` — the in-process convenience: service + server +
  daemon thread in one object, used by tests, the eval harness, and
  the perf benchmarks to spawn real TCP workers without subprocesses.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from repro.api import frames
from repro.serving.service import StreamingService

__all__ = ["ProtocolTCPServer", "TcpWorker", "serve_tcp"]


class _ProtocolHandler(socketserver.StreamRequestHandler):
    """One connection: line-JSON or v2 frames, chosen by the first byte.

    Nagle is disabled (a socketserver *handler* knob): responses are
    one small frame/line each, and with pipelined requests in flight a
    Nagle'd second response would sit out the peer's delayed-ACK
    window (~40 ms) — three orders of magnitude over a warm audit.

    A framed conversation opens with :data:`repro.api.frames.MAGIC`,
    whose first byte is outside ASCII and therefore can never start a
    JSON line — so one listener serves v1 line-JSON clients and v2
    framed clients on the same port with no upgrade round-trip.
    """

    disable_nagle_algorithm = True

    def handle(self) -> None:
        service = self.server.service
        first = self.rfile.peek(1)[:1]
        if first == frames.MAGIC[:1]:
            service.serve_frames(self.rfile, self.wfile)
            return
        reader = self.rfile
        writer = _Utf8Writer(self.wfile)
        service.serve(_decode_lines(reader), writer)


def _decode_lines(binary_reader):
    for raw in binary_reader:
        yield raw.decode("utf-8", errors="replace")


class _Utf8Writer:
    """The minimal text-mode facade ``StreamingService.serve`` writes to."""

    def __init__(self, binary_writer):
        self._out = binary_writer

    def write(self, text: str) -> None:
        self._out.write(text.encode("utf-8"))

    def flush(self) -> None:
        self._out.flush()


class ProtocolTCPServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server bound to one :class:`StreamingService`.

    Accepted handler sockets are tracked so :meth:`server_close` can
    end *live conversations* too — ``ThreadingTCPServer`` only closes
    the listener, which leaves handler threads parked on idle client
    reads (and their sockets open) after a shutdown; tests and
    benchmarks standing up many workers leaked both.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service: StreamingService, address: tuple[str, int]):
        self.service = service
        self._handler_lock = threading.Lock()
        self._handler_sockets: set = set()
        super().__init__(address, _ProtocolHandler)

    @property
    def address(self) -> str:
        """The bound ``"host:port"`` (resolved even when port 0 was asked)."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def process_request(self, request, client_address) -> None:
        with self._handler_lock:
            self._handler_sockets.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._handler_lock:
            self._handler_sockets.discard(request)
        super().shutdown_request(request)

    def close_all_connections(self) -> None:
        """Force-close every live handler connection.

        ``shutdown(SHUT_RDWR)`` unblocks a handler thread sitting in a
        read, so it exits its serve loop promptly; the handler's own
        ``shutdown_request`` then finishes the close and untracks it.
        """
        with self._handler_lock:
            live = list(self._handler_sockets)
        for sock in live:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def server_close(self) -> None:
        super().server_close()
        self.close_all_connections()


def serve_tcp(
    service: StreamingService, host: str = "127.0.0.1", port: int = 0
) -> ProtocolTCPServer:
    """Bind the protocol on ``host:port`` and return the (unstarted) server.

    The caller decides the threading: ``server.serve_forever()`` to
    block (the CLI), or hand it to a thread (see :class:`TcpWorker`).
    """
    return ProtocolTCPServer(service, (host, port))


class TcpWorker:
    """An in-process protocol worker: service + TCP listener + thread.

    Spawns a real TCP endpoint (ephemeral port by default) backed by a
    daemon thread, so a test or benchmark can stand up N workers that
    are byte-for-byte the same surface ``repro.cli serve --listen``
    exposes. Pass a prebuilt ``service`` or a fitted ``fixy`` (plus
    ``StreamingService`` keyword options — e.g. ``warehouse=PATH``
    points the worker at a shared scene warehouse so out-of-core
    audits reach it as hashes with no bodies on the wire).
    """

    def __init__(
        self,
        fixy=None,
        service: StreamingService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_options,
    ):
        if service is None:
            if fixy is None:
                raise ValueError("TcpWorker needs a fixy or a service")
            service = StreamingService(fixy, **service_options)
        self.service = service
        self.server = serve_tcp(service, host=host, port=port)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            name=f"tcp-worker-{self.server.address}",
            daemon=True,
        )
        self.thread.start()

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self) -> None:
        """Shut the listener *and every live connection* down, then join.

        ``server_close`` force-closes accepted handler sockets too
        (see :meth:`ProtocolTCPServer.close_all_connections`), so no
        handler thread is left parked on an idle client read — a
        stopped worker leaks neither threads nor sockets.
        """
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    #: Alias: ``close()`` reads naturally on a resource-shaped object.
    close = stop

    def __enter__(self) -> "TcpWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
