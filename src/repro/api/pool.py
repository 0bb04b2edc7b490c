"""WorkerEndpoint / WorkerPool: N protocol workers as one audit surface.

A *worker* is any process speaking the serving protocol over TCP —
canonically ``python -m repro.cli serve --listen HOST:PORT``. The pool
turns a list of worker addresses into a distributed executor:

1. **Register** (:meth:`WorkerPool.connect`): each endpoint answers the
   ``hello`` op (sent at the baseline v1 dialect every worker speaks)
   with its protocol version, model fingerprint, capacity, and wire
   formats. A worker that does not advertise the v2 framed wire, or
   whose fingerprint differs from the coordinator's model, is fatal
   (``unsupported_version`` / ``model_mismatch``) — a pool never mixes
   models, because byte-identical rankings are the contract.
   Unreachable workers are recorded as unhealthy and skipped.
2. **Re-probe** (:meth:`WorkerPool.reprobe`, run at the top of every
   :meth:`audit`): retired endpoints are re-``hello``-ed and re-admitted
   when they answer with a matching model fingerprint — a restarted
   worker rejoins a long-lived pool without a rebuild. One that comes
   back with the *wrong* model stays retired.
3. **Partition** (:func:`partition_scenes`): scenes are split into
   contiguous, capacity-weighted chunks in scene order. Contiguity is
   what keeps the final merge byte-identical to the inline backend —
   :func:`~repro.core.scoring.merge_rankings` breaks score ties by
   block submission order, and contiguous chunks concatenated in
   partition order preserve exactly the inline scene order.
4. **Dispatch**: each partition streams to its worker as a sequence of
   scene *chunks* over one dedicated connection (so requeued partitions
   never interleave frames on a shared socket). The chunks ride the v2
   binary framed wire, content-addressed: the request
   names ``scene_hashes`` and carries packed bodies only for hashes the
   coordinator has not yet shipped to that worker; the worker answers
   ``need`` for anything its cache evicted, and only those bodies are
   resent — a warm audit of the same scenes ships ids, not bodies.
   Chunks are pipelined (up to ``pipeline`` requests in flight), so
   coordinator-side encoding of chunk *i+1* overlaps worker-side
   ranking of chunk *i*. The encoded payload per scene — packed bytes
   and content hash — is computed once and cached
   (:class:`_ScenePayloads`), so a requeued partition (and the
   next audit of the same scenes) reuses bytes instead of re-encoding.
   A worker that dies mid-partition — EOF, refused connection,
   timeout — is retired and its *unfinished* chunks are requeued onto
   the next healthy worker; only when every worker is gone does the
   pool raise ``worker_unavailable``. A worker that sheds a chunk
   (``overloaded``) stays registered: the pool backs off and resends
   the unfinished chunks to it, up to ``MAX_SHED_RETRIES`` times.
5. **Merge**: per-chunk rankings (each already merged and truncated
   worker-side) are merged once more in global chunk order with the
   coordinator's ``top_k`` — provably equal to the single global merge
   because chunks are contiguous sub-ranges in scene order.

The pool reports per-worker attribution (address, partition, scenes,
seconds, attempts, wire format, bytes on the wire, encode time, and
worker scene-cache hits/misses) which the ``remote`` backend surfaces
as ``AuditResult.provenance.workers``.

The payload cache assumes scenes are not mutated in place between
audits through the same pool (scene *objects* are the cache key), and
:meth:`SceneSession.apply <repro.serving.session.SceneSession.apply>`
does mutate its scene. Call :meth:`WorkerPool.clear_scene_cache` after
any in-place edit, session edits included; until then the pool ships
the scene's stale packed bytes.
"""

from __future__ import annotations

import random
import threading
import time
import weakref
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.api import frames, protocol
from repro.api.client import AuditClient, parse_address
from repro.api.result import AuditResult
from repro.core.scoring import ScoredItem, merge_rankings
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import Stopwatch

__all__ = ["WorkerEndpoint", "WorkerPool", "partition_scenes"]

# Coordinator-side dispatch metrics (names are API — docs/API.md,
# "Observability"). The per-partition report dicts in
# ``provenance.workers`` stay as per-audit attribution; these series
# are the *cumulative* live view an operator scrapes.
_DISPATCH_SECONDS = obs_metrics.histogram(
    "repro_pool_dispatch_seconds",
    "Seconds per successful partition dispatch",
)
_ENCODE_SECONDS = obs_metrics.counter(
    "repro_pool_encode_seconds_total",
    "Cumulative seconds spent encoding scene payloads for dispatch",
)
_BYTES_SENT = obs_metrics.counter(
    "repro_pool_bytes_sent_total",
    "Bytes written to workers",
)
_BYTES_RECEIVED = obs_metrics.counter(
    "repro_pool_bytes_received_total",
    "Bytes read back from workers",
)
_CHUNKS = obs_metrics.counter(
    "repro_pool_chunks_total",
    "Scene chunks dispatched",
)
_CACHE_HITS = obs_metrics.counter(
    "repro_pool_scene_cache_hits_total",
    "Worker scene-cache hits reported on v2 audit responses",
)
_CACHE_MISSES = obs_metrics.counter(
    "repro_pool_scene_cache_misses_total",
    "Worker scene-cache misses reported on v2 audit responses",
)
_REQUEUES = obs_metrics.counter(
    "repro_pool_requeues_total",
    "Partitions requeued onto a replacement after a worker death",
)
_REFILLS = obs_metrics.counter(
    "repro_pool_refills_total",
    "Chunk body refills after a worker answered `need`",
)

class _ScenePayloads:
    """Encoded-payload cache: one packed-bytes / hash pair per scene.

    Keyed by scene object identity (guarded by a weakref so a recycled
    ``id()`` can never alias a dead scene), computed lazily, bounded
    LRU. This is what makes a requeued partition — and the next audit
    of the same scene list — reuse bytes instead of packing and
    hashing again.
    """

    def __init__(self, maxsize: int = 4096):
        self.maxsize = max(1, int(maxsize))
        self._entries: OrderedDict[int, dict] = OrderedDict()
        self._lock = threading.Lock()

    def _entry(self, scene) -> dict:
        key = id(scene)
        entry = self._entries.get(key)
        if entry is not None and entry["ref"]() is scene:
            self._entries.move_to_end(key)
            return entry
        entry = {"ref": weakref.ref(scene), "packed": None, "hash": None}
        self._entries[key] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def packed_for(self, scene) -> tuple[bytes, str]:
        """``(packed bytes, content hash)`` for one scene."""
        with self._lock:
            entry = self._entry(scene)
            packed, fingerprint = entry["packed"], entry["hash"]
        if packed is None:
            packed = frames.pack_scene(scene)  # encode outside the lock
            fingerprint = frames.scene_fingerprint(packed)
            with self._lock:
                entry["packed"], entry["hash"] = packed, fingerprint
        return packed, fingerprint

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class WorkerEndpoint:
    """One remote worker address plus its registration state.

    The endpoint itself is cheap — connections are opened per request
    (:meth:`client`), so a pool can hold endpoints for workers that
    come and go. State:

    - ``info``: the worker's ``hello`` payload once registered;
    - ``healthy``: flips False when registration fails or a dispatch
      sees a transport failure; unhealthy workers get no partitions
      (until :meth:`WorkerPool.reprobe` re-admits them);
    - a bounded mirror of which scene hashes this worker should
      already hold (:meth:`knows` / :meth:`remember`), sized to the
      worker's advertised scene cache — the coordinator ships bodies
      proactively for unknown hashes and relies on the worker's
      ``need`` reply to heal any divergence.
    """

    def __init__(
        self,
        address,
        timeout: float | None = None,
        connect_timeout: float | None = 5.0,
        probe_timeout: float | None = 10.0,
    ):
        self.host, self.port = parse_address(address)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.probe_timeout = probe_timeout
        self.info: dict | None = None
        self.healthy = False
        self.last_error: str | None = None
        self._known_hashes: OrderedDict[str, None] = OrderedDict()
        self._known_limit = 256
        # Monotonic deadline before which reprobe() leaves this
        # endpoint alone — set after a *failed* probe so one blackholed
        # worker cannot add its connect timeout to every audit.
        self._next_probe_at = 0.0
        # When the advertised capacity was last confirmed against the
        # live worker (registration or a health probe) — what the
        # pool's periodic capacity refresh keys off.
        self._capacity_checked_at = 0.0
        # One persistent dispatch connection, reused across audits so
        # the warm path pays no TCP handshake. Guarded by a try-lock:
        # a second concurrent dispatch to the same worker (a requeued
        # partition) gets an ad-hoc connection instead of blocking.
        self._cached_client: AuditClient | None = None
        self._client_lock = threading.Lock()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:
        state = "healthy" if self.healthy else "unhealthy"
        return f"WorkerEndpoint({self.address!r}, {state})"

    @property
    def capacity(self) -> int:
        """Advertised capacity (≥1; defaults to 1 until registered)."""
        if self.info is None:
            return 1
        return max(1, int(self.info.get("capacity") or 1))

    @property
    def has_warehouse(self) -> bool:
        """Whether the worker resolves scene hashes from a shared
        warehouse (its ``hello`` advertises ``warehouse: true``).
        Warehouse dispatches then ship hashes with no bodies at all —
        the worker fetches blobs locally; the ``need``-refill protocol
        remains the fallback when its warehouse misses."""
        return bool(self.info and self.info.get("warehouse"))

    # -- coordinator-side mirror of the worker's scene cache ----------
    def knows(self, fingerprint: str) -> bool:
        return fingerprint in self._known_hashes

    def remember(self, fingerprint: str) -> None:
        self._known_hashes[fingerprint] = None
        self._known_hashes.move_to_end(fingerprint)
        while len(self._known_hashes) > self._known_limit:
            self._known_hashes.popitem(last=False)

    def remember_chunk(self, shipped, hashes) -> None:
        """Replay one chunk on the mirror in the worker's own order.

        The worker ingests the ``shipped`` bodies first and then looks
        up the chunk's other ``hashes`` in request order; both move an
        entry to the fresh end of its LRU. Touching only new hashes
        would let a hot hash age out of the mirror while the worker
        still holds it, and the coordinator would re-ship its body.
        """
        for fingerprint in shipped:
            self.remember(fingerprint)
        shipped = set(shipped)
        for fingerprint in hashes:
            if fingerprint not in shipped:
                self.remember(fingerprint)

    def client(self, probe: bool = False) -> AuditClient:
        """A fresh connection to this worker (caller closes it).

        ``probe`` connections are line-JSON at the baseline protocol
        version with the short ``probe_timeout`` deadline (hello/health
        must answer fast and must work against workers whose version
        is still unknown); dispatch connections speak the v2 framed
        wire with the (possibly unbounded) ``timeout``.
        """
        if probe:
            return AuditClient.connect(
                (self.host, self.port),
                timeout=self.probe_timeout,
                connect_timeout=self.connect_timeout,
                version=protocol.BASELINE_VERSION,
            )
        return AuditClient.connect(
            (self.host, self.port),
            timeout=self.timeout,
            connect_timeout=self.connect_timeout,
            wire="frames",
        )

    def lease(self) -> tuple[AuditClient, bool, bool]:
        """A dispatch connection: the persistent one when free, else a
        fresh ad-hoc one. Returns ``(client, leased, reused)`` —
        ``reused`` means the client predates this lease, so a
        transport failure on it may just be a stale socket (worker
        restart, NAT timeout) rather than a dead worker, and the
        dispatcher retries once on a fresh connection before retiring
        the endpoint. Always pair with :meth:`release`."""
        if self._client_lock.acquire(blocking=False):
            client = self._cached_client
            reused = client is not None
            if not reused:
                try:
                    client = self.client()
                except BaseException:
                    self._client_lock.release()
                    raise
                self._cached_client = client
            return client, True, reused
        return self.client(), False, False

    def release(self, client: AuditClient, leased: bool, ok: bool) -> None:
        """Return a leased/ad-hoc connection (drop it on failure)."""
        if leased:
            if not ok:
                client.close()
                self._cached_client = None
            self._client_lock.release()
        else:
            client.close()  # ad-hoc connections never persist

    def drop_cached_client(self) -> None:
        """Close the persistent connection (if not currently leased)."""
        if self._client_lock.acquire(blocking=False):
            try:
                if self._cached_client is not None:
                    self._cached_client.close()
                    self._cached_client = None
            finally:
                self._client_lock.release()

    def register(self, expected_fingerprint: str | None = ...) -> dict:
        """``hello`` the worker and validate what it advertises.

        Raises :class:`~repro.api.protocol.ProtocolError` with
        ``unsupported_version`` for a worker that does not speak the
        v2 framed wire and ``model_mismatch`` when
        ``expected_fingerprint`` (pass ``None`` to require an unfitted
        worker; the default ``...`` skips the check) differs from the
        worker's model.
        Transport failures propagate as typed
        :class:`~repro.api.protocol.TransportError`.
        """
        with self.client(probe=True) as client:
            info = client.hello()
        # The worker's ceiling: ``max_protocol_version`` (additive, v2+
        # workers), falling back to ``protocol_version`` (all a v1
        # worker reports — and which v2 workers mirror at the request's
        # version so v1 coordinators keep accepting them).
        version = info.get("max_protocol_version", info.get("protocol_version"))
        try:
            negotiated = min(int(version), protocol.PROTOCOL_VERSION)
        except (TypeError, ValueError):
            negotiated = None
        wire_formats = tuple(info.get("wire_formats") or ("json",))
        if not negotiated or negotiated < 2 or "frames" not in wire_formats:
            raise protocol.ProtocolError(
                protocol.UNSUPPORTED_VERSION,
                f"worker {self.address} speaks protocol {version!r} over "
                f"{list(wire_formats)}; a pool dispatches over the v2 "
                "framed wire",
                details={"worker": self.address},
            )
        if expected_fingerprint is not ...:
            fingerprint = info.get("model_fingerprint")
            if fingerprint != expected_fingerprint:
                raise protocol.ProtocolError(
                    protocol.MODEL_MISMATCH,
                    f"worker {self.address} serves model "
                    f"{_short(fingerprint)} but the coordinator audits "
                    f"with {_short(expected_fingerprint)}; distributed "
                    "rankings must come from one model",
                    details={
                        "worker": self.address,
                        "worker_fingerprint": fingerprint,
                        "expected_fingerprint": expected_fingerprint,
                    },
                )
        self.info = info
        self._known_limit = max(1, int(info.get("scene_cache") or 0) or 256)
        # A (re)registered worker may be a fresh process: assume its
        # scene cache is empty and let `need` replies heal the rest.
        self._known_hashes.clear()
        self.healthy = True
        self.last_error = None
        self._capacity_checked_at = time.monotonic()
        return info

    def health(self) -> dict:
        """One ``health`` probe (marks the endpoint on failure).

        A successful probe also folds the worker's *live* advertised
        capacity into the registration info, so
        :func:`partition_scenes` weighting tracks current load instead
        of the snapshot frozen at registration — the elasticity half of
        the pool's self-healing (reprobe is the liveness half).
        """
        try:
            with self.client(probe=True) as client:
                report = client.health()
        except protocol.TransportError as exc:
            self.mark_failed(str(exc))
            raise
        self.healthy = True
        if self.info is not None and "capacity" in report:
            self.info["capacity"] = report["capacity"]
        self._capacity_checked_at = time.monotonic()
        return report

    def mark_failed(self, reason: str) -> None:
        self.healthy = False
        self.last_error = reason
        # The worker may come back as a fresh process with an empty
        # scene cache — drop the mirror rather than trust it.
        self._known_hashes.clear()
        self.drop_cached_client()


def _short(fingerprint: str | None) -> str:
    return fingerprint[:12] if fingerprint else "<unfitted>"


def partition_scenes(scenes: list, workers: list) -> list[tuple[int, list]]:
    """Contiguous, capacity-weighted scene chunks in scene order.

    Returns ``[(worker_index, scenes_chunk), ...]`` covering every
    scene exactly once, chunk boundaries proportional to each worker's
    advertised capacity (largest-remainder rounding, deterministic).
    Workers may receive empty chunks only when there are more workers
    than scenes; empty chunks are dropped.
    """
    if not workers:
        raise protocol.ProtocolError(
            protocol.WORKER_UNAVAILABLE, "no healthy workers to partition over"
        )
    weights = [max(1, int(getattr(w, "capacity", 1))) for w in workers]
    total_weight = sum(weights)
    n = len(scenes)
    shares = [n * w / total_weight for w in weights]
    counts = [int(s) for s in shares]
    # Largest remainder (ties broken by worker order) to place the rest.
    remainders = sorted(
        range(len(workers)),
        key=lambda i: (-(shares[i] - counts[i]), i),
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    partitions: list[tuple[int, list]] = []
    start = 0
    for index, count in enumerate(counts):
        if count:
            partitions.append((index, scenes[start : start + count]))
            start += count
    return partitions


class WorkerPool:
    """A set of :class:`WorkerEndpoint` executing audits in parallel.

    Args:
        workers: Worker addresses (``"host:port"`` strings, ``(host,
            port)`` pairs, or prebuilt endpoints).
        timeout: Per-request deadline for audit dispatches (``None``
            waits forever — rankings can legitimately take a while).
        connect_timeout: TCP handshake deadline per connection.
        probe_timeout: Deadline for hello/health probes, always
            bounded so a wedged-but-accepting worker is skipped at
            registration instead of hanging the pool.
        chunk_scenes: Scenes per dispatch request (0 = one request per
            partition). Smaller chunks pipeline encode against worker
            compute and requeue less work when a worker dies.
        pipeline: Framed requests kept in flight per worker connection.
        reprobe_interval: Seconds a retired endpoint is left alone
            after a *failed* re-probe, so an endpoint that stays dead
            costs one connect timeout per interval, not per audit.
        capacity_refresh: Seconds between ``health`` probes of a
            healthy worker's advertised capacity (0 = re-check before
            every audit; ``float("inf")`` = freeze registration-time
            capacities). Keeps :func:`partition_scenes` weighting
            tracking live load as workers scale up or down.
    """

    def __init__(
        self,
        workers,
        timeout: float | None = None,
        connect_timeout: float | None = 5.0,
        probe_timeout: float | None = 10.0,
        chunk_scenes: int = 8,
        pipeline: int = 2,
        reprobe_interval: float = 10.0,
        capacity_refresh: float = 30.0,
    ):
        self.endpoints = [
            w
            if isinstance(w, WorkerEndpoint)
            else WorkerEndpoint(
                w,
                timeout=timeout,
                connect_timeout=connect_timeout,
                probe_timeout=probe_timeout,
            )
            for w in workers
        ]
        if not self.endpoints:
            raise ValueError("WorkerPool needs at least one worker address")
        self.chunk_scenes = max(0, int(chunk_scenes))
        self.pipeline = max(1, int(pipeline))
        self.reprobe_interval = max(0.0, float(reprobe_interval))
        self.capacity_refresh = max(0.0, float(capacity_refresh))
        self._payloads = _ScenePayloads()
        self._expected_fingerprint = ...
        self._lock = threading.Lock()
        # Persistent dispatch threads: spawning a pool per audit costs
        # more than a whole warm ids-only audit does.
        self._executor: ThreadPoolExecutor | None = None
        self._executor_width = 0

    # ------------------------------------------------------------------
    # Registration + health
    # ------------------------------------------------------------------
    def connect(self, expected_fingerprint: str | None = ...) -> list[dict]:
        """Register every reachable worker; returns their hello payloads.

        Unreachable workers are marked unhealthy and skipped — the pool
        degrades, it does not fail — but a *reachable* worker without
        the v2 framed wire or with the wrong model fingerprint raises
        immediately (that is a deployment error, not an outage).
        Raises ``worker_unavailable`` when no worker registered at all.
        """
        self._expected_fingerprint = expected_fingerprint
        infos = []
        for endpoint in self.endpoints:
            try:
                infos.append(endpoint.register(expected_fingerprint))
            except protocol.TransportError as exc:
                endpoint.mark_failed(str(exc))
                endpoint._next_probe_at = (
                    time.monotonic() + self.reprobe_interval
                )
                continue
        if not infos:
            raise protocol.ProtocolError(
                protocol.WORKER_UNAVAILABLE,
                "no workers reachable: "
                + "; ".join(
                    f"{e.address}: {e.last_error}" for e in self.endpoints
                ),
            )
        return infos

    def reprobe(self) -> list[str]:
        """Re-``hello`` retired endpoints; re-admit the matching ones.

        The self-healing half of worker-pool elasticity: called at the
        top of every :meth:`audit`, so a worker that died and was
        restarted rejoins the pool without a rebuild — *if* it answers
        with a model fingerprint matching the one this pool registered
        against (and the framed wire). Ones that stay unreachable or
        come back wrong stay retired, with ``last_error`` updated.
        A probe that *fails* parks the endpoint for
        ``reprobe_interval`` seconds, so an endpoint that stays dead
        costs one connect timeout per interval, not one per audit.
        Returns the re-admitted addresses.
        """
        readmitted = []
        now = time.monotonic()
        for endpoint in self.endpoints:
            if endpoint.healthy or endpoint.last_error is None:
                # Healthy, or never probed (connect() has not run).
                continue
            if now < endpoint._next_probe_at:
                continue  # recently failed a probe: leave it parked
            try:
                endpoint.register(self._expected_fingerprint)
            except protocol.TransportError as exc:
                endpoint.mark_failed(str(exc))
                endpoint._next_probe_at = now + self.reprobe_interval
            except protocol.ProtocolError as exc:
                # Came back with the wrong model/protocol: stays out.
                endpoint.mark_failed(str(exc))
                endpoint._next_probe_at = now + self.reprobe_interval
            else:
                endpoint._next_probe_at = 0.0
                readmitted.append(endpoint.address)
        return readmitted

    def refresh_capacity(self) -> list[str]:
        """Re-check healthy workers' advertised capacity when stale.

        The elasticity half of the pool's self-healing: every
        :meth:`audit` calls this (after :meth:`reprobe`), and any
        healthy worker whose capacity was last confirmed more than
        ``capacity_refresh`` seconds ago gets one ``health`` probe,
        whose live capacity :meth:`WorkerEndpoint.health` folds into
        the partition weighting. A probe that fails retires the
        endpoint the same way any probe failure does (and
        :meth:`reprobe` later re-admits it). Returns the addresses
        whose capacity actually changed.
        """
        changed = []
        if self.capacity_refresh == float("inf"):
            return changed
        now = time.monotonic()
        for endpoint in self.endpoints:
            if not endpoint.healthy or endpoint.info is None:
                continue
            if now - endpoint._capacity_checked_at < self.capacity_refresh:
                continue
            before = endpoint.capacity
            try:
                endpoint.health()
            except protocol.TransportError:
                continue  # retired by the probe; reprobe() may heal it
            if endpoint.capacity != before:
                changed.append(endpoint.address)
        return changed

    def healthy_workers(self) -> list[WorkerEndpoint]:
        with self._lock:
            return [e for e in self.endpoints if e.healthy]

    def health(self) -> dict[str, dict | None]:
        """Probe every endpoint; ``None`` for workers that failed."""
        out: dict[str, dict | None] = {}
        for endpoint in self.endpoints:
            try:
                out[endpoint.address] = endpoint.health()
            except protocol.TransportError:
                out[endpoint.address] = None
        return out

    def clear_scene_cache(self) -> None:
        """Drop cached per-scene payloads (after in-place scene edits)."""
        self._payloads.clear()
        with self._lock:
            for endpoint in self.endpoints:
                endpoint._known_hashes.clear()

    # ------------------------------------------------------------------
    # Distributed audit
    # ------------------------------------------------------------------
    def audit(self, spec, scenes) -> tuple[list[ScoredItem], list[dict]]:
        """Run ``spec`` over ``scenes`` across the healthy workers.

        Returns ``(merged items, worker reports)``. The spec is shipped
        with ``backend="inline"`` (each worker executes its chunk
        serially — the reference strategy) and without the
        coordinator's scene source (the scenes travel with the
        request, as bodies or content hashes). Failure of a worker
        mid-audit requeues its unfinished chunks; see the module
        docstring for why the result stays byte-identical.

        When the calling thread has an ambient trace
        (:func:`repro.obs.trace.current_trace`), every dispatch
        attempt records a ``pool.dispatch`` span parented under the
        caller's current span, requests carry the trace id, and each
        worker's piggybacked spans are stitched under its dispatch
        span — one end-to-end trace per audit. The (trace, parent) is
        captured *here* because dispatch runs on executor threads,
        where contextvars don't follow.
        """
        return self._run_chunked(spec, list(scenes))

    def audit_warehouse(
        self, spec, warehouse, fingerprints
    ) -> tuple[list[ScoredItem], list[dict]]:
        """Run ``spec`` over warehouse ``fingerprints`` out-of-core.

        Same contract as :meth:`audit` but the coordinator never
        materializes the corpus: partitions carry fingerprint chunks,
        and blob bodies are fetched from ``warehouse`` one chunk at a
        time only for workers that cannot resolve the hash themselves —
        workers sharing the warehouse path (``hello`` advertises it)
        receive hashes alone and fetch locally, making the coordinator
        a pure control plane. The ``need``-refill protocol is the
        fallback either way, so the merged result is byte-identical to
        :meth:`audit` over the same scenes in the same order.
        """
        return self._run_chunked(spec, list(fingerprints), warehouse=warehouse)

    def _run_chunked(
        self, spec, items: list, warehouse=None
    ) -> tuple[list[ScoredItem], list[dict]]:
        """Shared partition → dispatch → requeue → merge machinery.

        ``items`` are live scenes (``warehouse=None``) or fingerprint
        strings (warehouse dispatch); everything below chunk encoding
        is identical, including the failure/requeue path.
        """
        trace = obs_trace.current_trace()
        trace_parent = obs_trace.current_span_id()
        self.reprobe()
        self.refresh_capacity()
        workers = self.healthy_workers()
        partitions = partition_scenes(items, workers)
        if not partitions:  # no scenes: nothing to dispatch
            return [], []
        # What the worker executes: same declaration, inline strategy,
        # scenes shipped explicitly rather than re-resolved remotely.
        ship_spec = replace(
            spec, backend="inline", backend_options={}, scenes=None
        )
        spec_payload = ship_spec.to_dict()  # encoded once, reused per chunk

        # Split partitions into dispatch chunks; `blocks` is indexed by
        # global chunk order = scene order (the merge contract).
        jobs: list[tuple[WorkerEndpoint, list[tuple[int, list]]]] = []
        n_chunks = 0
        for worker_index, part in partitions:
            size = self.chunk_scenes or len(part)
            chunk_jobs = [
                (n_chunks + j, part[i : i + size])
                for j, i in enumerate(range(0, len(part), size))
            ]
            jobs.append((workers[worker_index], chunk_jobs))
            n_chunks += len(chunk_jobs)
        blocks: list[list[ScoredItem] | None] = [None] * n_chunks
        # One report per (partition, worker that completed chunks) —
        # after a mid-partition death the dead worker keeps credit for
        # the chunks it finished, the replacement for the rest.
        reports: list[list[dict]] = [[] for _ in jobs]

        def run_partition(slot: int) -> None:
            worker, chunk_jobs = jobs[slot]
            attempts = sheds = 0
            tried: set[str] = set()
            fresh_retried: set[str] = set()
            remaining = chunk_jobs
            while True:
                attempts += 1
                watch = Stopwatch()
                try:
                    # One span per dispatch *attempt*: a requeued
                    # partition shows up as two pool.dispatch spans
                    # with distinct worker/attempt attrs (the failed
                    # one carrying an "error" attr).
                    with obs_trace.span(
                        "pool.dispatch",
                        trace=trace,
                        parent=trace_parent,
                        attrs={
                            "worker": worker.address,
                            "partition": slot,
                            "attempt": attempts,
                        },
                    ) as dispatch_span:
                        stats = self._dispatch(
                            worker,
                            spec_payload,
                            remaining,
                            blocks,
                            trace=trace,
                            parent_span=dispatch_span.span_id,
                            warehouse=warehouse,
                        )
                        dispatch_span.attrs["wire"] = stats["wire"]
                except protocol.OverloadedError:
                    # A shed is not a death: the worker stays registered.
                    # Back off (capped exponential, full jitter), then
                    # resend the unfinished chunks to it on a fresh
                    # connection (release() dropped the shed one).
                    sheds += 1
                    if sheds > self.MAX_SHED_RETRIES:
                        raise
                    ceiling = min(
                        self.SHED_BACKOFF_CAP_S,
                        self.SHED_BACKOFF_S * 2 ** (sheds - 1),
                    )
                    time.sleep(random.uniform(0.0, ceiling))
                    remaining = [
                        job for job in remaining if blocks[job[0]] is None
                    ]
                    continue
                except protocol.TransportError as exc:
                    elapsed = watch.s
                    if (
                        getattr(exc, "reused_connection", False)
                        and worker.address not in fresh_retried
                    ):
                        # The failure was on a connection cached from an
                        # earlier audit — a worker restart or idle-socket
                        # death looks identical to a live failure. Retry
                        # this worker once on a fresh connection before
                        # retiring it (the stale client was already
                        # dropped by release()).
                        fresh_retried.add(worker.address)
                        remaining = [
                            job for job in remaining if blocks[job[0]] is None
                        ]
                        continue
                    tried.add(worker.address)
                    with self._lock:
                        worker.mark_failed(str(exc))
                    # Chunks that completed before the death keep their
                    # blocks (credited to the worker that ranked them);
                    # only unfinished ones requeue.
                    finished = [
                        job for job in remaining if blocks[job[0]] is not None
                    ]
                    if finished:
                        reports[slot].append(
                            {
                                "worker": worker.address,
                                "partition": slot,
                                "n_scenes": sum(len(c) for _, c in finished),
                                "rank_s": elapsed,
                                "attempts": attempts,
                                "failed_after": str(exc),
                            }
                        )
                    remaining = [
                        job for job in remaining if blocks[job[0]] is None
                    ]
                    worker = self._replacement(tried)
                    if worker is None:
                        n_left = sum(len(c) for _, c in remaining)
                        raise protocol.ProtocolError(
                            protocol.WORKER_UNAVAILABLE,
                            f"partition {slot} ({n_left} scenes) failed "
                            f"on every worker; last error: {exc}",
                        ) from exc
                    _REQUEUES.inc()
                    continue
                _DISPATCH_SECONDS.observe(watch.s)
                reports[slot].append(
                    {
                        "worker": worker.address,
                        "partition": slot,
                        "n_scenes": sum(len(c) for _, c in remaining),
                        "rank_s": watch.s,
                        "attempts": attempts,
                        **stats,
                    }
                )
                return

        executor = self._dispatch_executor(len(jobs))
        futures = [
            executor.submit(run_partition, slot) for slot in range(len(jobs))
        ]
        for future in futures:
            future.result()  # re-raise the first partition failure

        merged = merge_rankings(
            [block for block in blocks if block is not None], spec.top_k
        )
        return merged, [report for slot in reports for report in slot]

    def _dispatch_executor(self, width: int) -> ThreadPoolExecutor:
        """The reusable partition-dispatch thread pool (grown on demand)."""
        with self._lock:
            if self._executor is None or self._executor_width < width:
                old = self._executor
                self._executor_width = max(width, len(self.endpoints))
                self._executor = ThreadPoolExecutor(
                    max_workers=self._executor_width,
                    thread_name_prefix="pool-dispatch",
                )
                if old is not None:
                    old.shutdown(wait=False)
            return self._executor

    # ------------------------------------------------------------------
    # Per-worker dispatch (one attempt over one dedicated connection)
    # ------------------------------------------------------------------
    @staticmethod
    def _stitch_spans(trace, parent_span, response) -> None:
        """Merge a worker's piggybacked spans under the dispatch span."""
        spans = response.get("spans")
        if trace is not None and spans:
            trace.extend_dicts(spans, reparent_roots_to=parent_span)

    #: Times one chunk may be answered with ``need`` before the pool
    #: declares the worker's cache broken (refusing what it was just
    #: sent is a protocol violation, not an outage).
    MAX_REFILLS = 3

    #: Times one partition may be shed (``overloaded``) before the
    #: error propagates. Retry ``n`` first sleeps a uniform draw from
    #: ``[0, min(SHED_BACKOFF_CAP_S, SHED_BACKOFF_S * 2 ** (n - 1))]``.
    MAX_SHED_RETRIES = 8
    SHED_BACKOFF_S = 0.01
    SHED_BACKOFF_CAP_S = 0.5

    def _dispatch(
        self, worker, spec_payload, chunk_jobs, blocks,
        trace=None, parent_span=None, warehouse=None,
    ) -> dict:
        """One attempt: content-addressed chunks, pipelined on one socket.

        With ``warehouse``, chunk items are fingerprints and no scene
        is ever decoded coordinator-side: workers sharing the warehouse
        get hashes alone (zero bodies on the wire); others get blobs
        read straight out of the store for hashes the mirror says they
        lack. In-flight chunks hold only their hash list — refills
        re-read the store — so coordinator residency stays O(1 chunk)
        regardless of pipeline depth.
        """
        stats = {
            "wire": "v2",
            "n_chunks": len(chunk_jobs),
            "encode_s": 0.0,
            "scene_cache_hits": 0,
            "scene_cache_misses": 0,
        }
        client, leased, reused = worker.lease()
        trace_id = trace.trace_id if trace is not None else None
        trace_fields = (
            {"trace_id": trace_id, "parent_span": parent_span}
            if trace_id
            else {}
        )
        bytes_before = client.bytes_sent
        received_before = client.bytes_received
        ok = False
        try:
            queue = deque(chunk_jobs)
            in_flight: deque = deque()  # (block_slot, hashes, by_hash, refills)
            while queue or in_flight:
                # Keep the send window full: encode + ship ahead while
                # the worker ranks earlier chunks.
                while queue and len(in_flight) < self.pipeline:
                    block_slot, chunk = queue.popleft()
                    encode = Stopwatch()
                    if warehouse is not None:
                        hashes, by_hash = list(chunk), None
                        if worker.has_warehouse:
                            unknown = []  # worker fetches locally by hash
                        else:
                            with self._lock:
                                unknown = [
                                    h for h in hashes if not worker.knows(h)
                                ]
                                worker.remember_chunk(unknown, hashes)
                        blobs = tuple(
                            warehouse.get_blob(h) for h in unknown
                        )
                    else:
                        hashes, by_hash = [], {}
                        for scene in chunk:
                            packed, fingerprint = self._payloads.packed_for(
                                scene
                            )
                            hashes.append(fingerprint)
                            by_hash[fingerprint] = packed
                        with self._lock:
                            unknown = [
                                h for h in by_hash if not worker.knows(h)
                            ]
                            worker.remember_chunk(unknown, hashes)
                        blobs = tuple(by_hash[h] for h in unknown)
                    stats["encode_s"] += encode.s
                    client.send_request(
                        "audit",
                        blobs=blobs,
                        spec=spec_payload,
                        scene_hashes=hashes,
                        **trace_fields,
                    )
                    in_flight.append((block_slot, hashes, by_hash, 0))
                block_slot, hashes, by_hash, refills = in_flight.popleft()
                response = client.recv_response()
                self._stitch_spans(trace, parent_span, response)
                need = response.get("need")
                if need:
                    # The worker evicted (or never had) some bodies.
                    # Resend the *whole chunk's* bodies, not just the
                    # missing ones: blobs shipped with a request are
                    # resolvable request-locally even when the worker's
                    # LRU is smaller than the chunk, so one refill
                    # always completes — refilling only `need` can
                    # ping-pong forever (each refill's ingests evicting
                    # the chunk's other scenes).
                    if refills >= self.MAX_REFILLS or not set(need) <= set(
                        hashes
                    ):
                        raise protocol.ProtocolError(
                            protocol.UNKNOWN_SCENE_HASH,
                            f"worker {worker.address} cannot resolve scene "
                            f"hashes it was sent: {sorted(need)[:3]}...",
                            details={"worker": worker.address},
                        )
                    refill_bodies = (
                        tuple(warehouse.get_blob(h) for h in hashes)
                        if by_hash is None
                        else tuple(by_hash.values())
                    )
                    client.send_request(
                        "audit",
                        blobs=refill_bodies,
                        spec=spec_payload,
                        scene_hashes=hashes,
                        **trace_fields,
                    )
                    del refill_bodies
                    with self._lock:
                        worker.remember_chunk(
                            hashes if by_hash is None else list(by_hash), hashes
                        )
                    _REFILLS.inc()
                    in_flight.append((block_slot, hashes, by_hash, refills + 1))
                    continue
                result = AuditResult.from_dict(response["result"])
                blocks[block_slot] = result.items
                cache = response.get("scene_cache") or {}
                stats["scene_cache_hits"] += int(cache.get("hits") or 0)
                stats["scene_cache_misses"] += int(cache.get("misses") or 0)
            stats["bytes_sent"] = client.bytes_sent - bytes_before
            ok = True
        except protocol.TransportError as exc:
            exc.reused_connection = reused
            raise
        finally:
            worker.release(client, leased, ok)
        _ENCODE_SECONDS.inc(stats["encode_s"])
        _CHUNKS.inc(stats["n_chunks"])
        _BYTES_SENT.inc(stats["bytes_sent"])
        _BYTES_RECEIVED.inc(client.bytes_received - received_before)
        _CACHE_HITS.inc(stats["scene_cache_hits"])
        _CACHE_MISSES.inc(stats["scene_cache_misses"])
        return stats

    def _replacement(self, tried: set[str]) -> WorkerEndpoint | None:
        """A healthy worker not yet tried for this partition (requeue
        target). Never a tried one — each tried worker was marked
        unhealthy when it failed, and re-dispatching a partition to the
        worker that just dropped it would loop, not recover."""
        for endpoint in self.healthy_workers():
            if endpoint.address not in tried:
                return endpoint
        return None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop connections, dispatch threads, and registration state."""
        for endpoint in self.endpoints:
            endpoint.drop_cached_client()
            endpoint.healthy = False
            endpoint.info = None
            endpoint.last_error = None
        self._payloads.clear()
        with self._lock:
            executor, self._executor = self._executor, None
            self._executor_width = 0
        if executor is not None:
            executor.shutdown(wait=False)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
