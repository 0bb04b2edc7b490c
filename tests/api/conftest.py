"""Fixtures for the unified audit API tests: a fitted, warmed engine,
a pool of live TCP protocol workers built on it, and a worker that
dies mid-audit."""

import json
import socket
import threading

import pytest

from repro.api import frames, protocol
from repro.core import Fixy, default_features
from repro.serving import GatewayWorker, StreamingService

from tests.serving.conftest import build_training_scenes


@pytest.fixture(scope="session")
def api_fixy():
    """A fitted engine with warmed density grids (deterministic across
    backends — the same precondition Audit establishes at bind time)."""
    fixy = Fixy(default_features()).fit(build_training_scenes())
    fixy.warmup_fast_eval()
    return fixy


@pytest.fixture(scope="session")
def tcp_workers(api_fixy):
    """Two live TCP workers serving the shared engine (the remote
    backend's worker pool), yielded as their ``host:port`` addresses."""
    workers = [GatewayWorker(api_fixy) for _ in range(2)]
    yield [w.address for w in workers]
    for worker in workers:
        worker.stop()


class DyingWorker:
    """A TCP worker that dies mid-audit, as the client sees it.

    It answers ``hello``, ``health`` and every other op on either wire
    (picked from the first byte) through a real
    :class:`StreamingService`, and on the first ``audit`` of a
    connection it shuts the socket without answering, as a killed
    process would.
    """

    def __init__(self, fixy):
        self.service = StreamingService(fixy)
        self.audits_seen = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.1)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            threading.Thread(
                target=self._converse, args=(conn,), daemon=True
            ).start()

    def _converse(self, conn):
        conn.settimeout(None)
        with conn, conn.makefile("rb") as reader, conn.makefile("wb") as out:
            framed = reader.peek(1)[:1] == frames.MAGIC[:1]
            while True:
                if framed:
                    try:
                        request, blobs = frames.read_frame(reader)
                    except protocol.StreamClosedError:
                        return
                else:
                    line = reader.readline()
                    if not line:
                        return
                    request = json.loads(line)
                if request.get("op") == "audit":
                    self.audits_seen += 1
                    conn.shutdown(socket.SHUT_RDWR)
                    return
                if framed:
                    frames.write_frame(
                        out, self.service.handle_frame(request, blobs)
                    )
                else:
                    response = self.service.handle(request)
                    out.write((json.dumps(response) + "\n").encode("utf-8"))
                out.flush()

    def __enter__(self) -> "DyingWorker":
        return self

    def __exit__(self, *exc) -> None:
        self._stopped.set()
        self._thread.join(timeout=10)
        self._listener.close()
