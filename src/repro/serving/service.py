"""StreamingService: the versioned request/response facade over sessions.

One request, one response, both plain dicts in the schema of
:mod:`repro.api.protocol` — the transport-agnostic core of
``python -m repro.cli serve`` (which speaks it over line-delimited JSON
on stdin/stdout) and the server half of
:class:`~repro.api.client.AuditClient`. Operations:

======== ==============================================================
op       request fields → response fields
======== ==============================================================
open     ``scene`` (Scene.to_dict), optional ``session_id`` →
         ``session_id``, ``n_tracks``, ``version``
edit     ``session_id``, ``edit`` (SceneEdit.to_dict), optional
         ``standing`` (default true) → ``changed``, ``version``
         [+ ``standing``: per-subscription incrementally maintained
         top-k — ``{audit_id: {kind, rescored, results}}``]
rank     ``session_id``, optional ``kind`` (tracks default),
         ``top_k`` → ``results`` (ScoredItem.to_dict items)
subscribe ``session_id``, ``spec`` (AuditSpec.to_dict), optional
         ``audit_id`` → ``audit_id``, ``kind``, ``results`` (the
         initial top-k; maintained incrementally from then on)
unsubscribe ``session_id``, ``audit_id`` → ``unsubscribed``
standing ``session_id``, ``audit_id`` → ``audit_id``, ``kind``,
         ``results``, ``stats`` (query a standing audit's maintained
         top-k without editing)
audit    ``spec`` (AuditSpec.to_dict) + ``session_id`` *or*
         ``scenes`` (list of Scene.to_dict) *or* v2
         ``scene_hashes`` (content hashes; bodies as frame blobs,
         misses answered with ``need``) → ``result``
         (AuditResult.to_dict) [+ ``scene_cache`` hit/miss counts]
close    ``session_id`` → ``closed``
stats    → store counters
hello    → ``protocol_version``, ``model_fingerprint``, ``capacity``,
         ``features``, ``ops`` (worker registration — what a
         :class:`~repro.api.pool.WorkerPool` checks before dispatch)
health   → ``status``, ``uptime_s``, ``requests_handled``,
         ``metrics`` (compact counter totals) + store counters
         (liveness probe)
metrics  v2+ → ``metrics`` (full registry snapshot), optional
         ``text`` (Prometheus exposition) when requested
======== ==============================================================

Observability (protocol v2, all additive): every request is metered
into the process metrics registry (:mod:`repro.obs.metrics`), and a
request carrying ``trace_id`` (+ optional ``parent_span``) has its
handler spans returned on the response's ``spans`` field so the
coordinator can stitch one end-to-end trace per audit
(:mod:`repro.obs.trace`).

Every request and response carries ``"v"``, and the service answers in
the version it was asked in (a v1 client keeps getting v1 responses
from this v2 build); failures come back as
``{"ok": false, "error": {"code", "message", ...}}`` instead of
raising, so one malformed request cannot take down the serving loop.
A request without ``"v"`` gets a structured ``unsupported_version``
error and an undecodable line gets ``bad_json``, both stamped with
this build's version.

Protocol v2 adds the binary framed wire (:mod:`repro.api.frames`;
each frame is answered by :meth:`StreamingService.handle_frame`, and
the TCP gateway, :mod:`repro.serving.gateway`, detects the wire per
connection from the frame magic) and content-addressed scene transport: an ``audit`` request may name
``scene_hashes`` instead of shipping ``scenes``; bodies arrive as
packed-scene frame blobs, are decoded once into a bounded
:class:`~repro.api.frames.SceneCache`, and hashes the cache cannot
resolve are answered with ``{"ok": true, "need": [...]}`` so the
coordinator resends only the missing bodies. An entry also keeps the
scorer its scene's first audit compiled.
"""

from __future__ import annotations

import json
import time

from repro.api import frames, protocol
from repro.core.model import Scene
from repro.core.scoring import merge_rankings
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import Stopwatch
from repro.serving.edits import edit_from_dict
from repro.serving.store import SessionStore

__all__ = ["StreamingService"]

# Per-op serving metrics (names are API — see docs/API.md,
# "Observability"). Unknown ops collapse into the "unknown" label so a
# misbehaving client cannot mint unbounded series.
_REQUESTS = obs_metrics.counter(
    "repro_service_requests_total",
    "Protocol requests handled, by op",
    labelnames=("op",),
)
_ERRORS = obs_metrics.counter(
    "repro_service_errors_total",
    "Protocol error responses, by op and typed error code",
    labelnames=("op", "code"),
)
_REQUEST_SECONDS = obs_metrics.histogram(
    "repro_service_request_seconds",
    "Request handling latency, by op",
    labelnames=("op",),
)


def _sanitize_wire_request(request) -> dict:
    """Drop underscore-prefixed keys from a request read off the wire.

    Keys like ``_ingested_scenes`` are in-process plumbing between
    :meth:`StreamingService.handle_frame` and the op handlers; a peer
    must not be able to inject them (a raw JSON dict masquerading as a
    decoded scene would bypass the cache's hash-verified path).
    """
    if not isinstance(request, dict):
        return request
    if any(isinstance(k, str) and k.startswith("_") for k in request):
        return {
            k: v
            for k, v in request.items()
            if not (isinstance(k, str) and k.startswith("_"))
        }
    return request


class StreamingService:
    """Dispatches protocol requests onto a :class:`SessionStore`.

    Args:
        fixy: A fitted engine; sessions and server-side audits use its
            features, AOFs, and learned model.
        max_sessions: Live scene sessions kept before LRU eviction.
        max_standing: Standing-audit subscriptions allowed per session
            (each one is maintained on every edit of that session).
        capacity: Advertised audit capacity (a unitless weight the
            worker pool uses to size scene partitions; a worker with
            capacity 2 gets roughly twice the scenes of one with 1).
        scene_cache: Scenes (decoded, plus their scorers once
            audited) kept by content hash for the v2 content-addressed
            transport (bounded LRU; also the size advertised in
            ``hello`` so coordinators can mirror it).
        warehouse: Path to (or instance of) a shared
            :class:`~repro.warehouse.SceneWarehouse`. When set, scene
            hashes that miss the in-memory cache are fetched from the
            warehouse by fingerprint before answering ``need`` — and
            ``hello`` advertises ``warehouse: true`` so coordinators
            dispatching out-of-core audits send hashes with no bodies
            at all.
    """

    def __init__(
        self,
        fixy,
        max_sessions: int = 32,
        capacity: int = 1,
        scene_cache: int = 256,
        max_standing: int = 16,
        warehouse=None,
    ):
        self.warehouse = None
        if warehouse is not None:
            from repro.warehouse import SceneWarehouse

            if isinstance(warehouse, SceneWarehouse):
                self.warehouse = warehouse
            else:
                # create=True: a worker may come up before the first
                # ingest lands; an empty store just answers `need`.
                self.warehouse = SceneWarehouse(warehouse)
        self.store = SessionStore(
            fixy, max_sessions=max_sessions, max_standing=max_standing
        )
        self.capacity = int(capacity)
        self.scene_cache = frames.SceneCache(maxsize=scene_cache)
        self.requests_handled = 0
        # Monotonic, deliberately: wall-clock (time.time) steps under
        # NTP, which produced negative / jumping uptime_s.
        self._started = time.monotonic()
        self._ops = {
            "open": self._op_open,
            "edit": self._op_edit,
            "rank": self._op_rank,
            "audit": self._op_audit,
            "subscribe": self._op_subscribe,
            "unsubscribe": self._op_unsubscribe,
            "standing": self._op_standing,
            "close": self._op_close,
            "stats": self._op_stats,
            "hello": self._op_hello,
            "health": self._op_health,
            "metrics": self._op_metrics,
        }

    # ------------------------------------------------------------------
    def handle(self, request: dict) -> dict:
        """Process one request dict; always returns a response dict.

        The response is stamped in the request's own version — a v1
        request gets a v1 response even from a v2 service. Every
        request is metered (count, latency, error code by op) into the
        process metrics registry, and a v2 request carrying a
        ``trace_id`` gets its handler spans piggybacked back on the
        response's additive ``spans`` field.
        """
        self.requests_handled += 1
        op = request.get("op") if isinstance(request, dict) else None
        op_label = op if op in self._ops else "unknown"
        watch = Stopwatch()
        response = self._dispatch_request(request)
        _REQUEST_SECONDS.observe(watch.s, op=op_label)
        _REQUESTS.inc(op=op_label)
        if not response.get("ok"):
            code = response["error"].get("code", protocol.INTERNAL_ERROR)
            _ERRORS.inc(op=op_label, code=code)
        return response

    def _dispatch_request(self, request: dict) -> dict:
        """Negotiate, dispatch, and classify one request (unmetered)."""
        try:
            version = protocol.negotiate_version(request)
        except protocol.ProtocolError as exc:
            return protocol.error_response(
                exc.code, exc.message, details=exc.details
            )
        try:
            op = request.get("op")
            handler = self._ops.get(op)
            if handler is None:
                raise protocol.ProtocolError(
                    protocol.UNKNOWN_OP,
                    f"unknown op {op!r}; expected one of "
                    f"{', '.join(sorted(self._ops))}",
                )
            payload = self._run_traced(op, handler, request, version)
        except Exception as exc:  # protocol boundary: report, don't die
            error = protocol.classify_exception(exc)
            return protocol.error_response(
                error.code, error.message, details=error.details,
                version=version,
            )
        return protocol.ok_response(payload, version=version)

    def _run_traced(self, op, handler, request: dict, version: int) -> dict:
        """Run a handler, honoring the request's additive trace fields.

        A v2 request carrying ``trace_id`` runs under a local
        ``worker.<op>`` root span — parented on the coordinator's
        ``parent_span`` when given — and its recorded spans ride back
        on the response payload's ``spans`` field, where the
        coordinator stitches them into the audit's trace. Requests
        without a trace id (and all v1 traffic) dispatch untouched.
        """
        trace_id = request.get("trace_id")
        if version < 2 or not isinstance(trace_id, str) or not trace_id:
            return handler(request)
        local = obs_trace.Trace(trace_id)
        parent = request.get("parent_span")
        with obs_trace.activate(local):
            with obs_trace.span(
                f"worker.{op}",
                parent=parent if isinstance(parent, str) else None,
            ):
                payload = handler(request)
        payload = dict(payload)
        payload["spans"] = local.span_dicts()
        return payload

    def serve(self, lines, out) -> int:
        """Line-delimited JSON loop: one request per input line.

        Returns the number of requests handled. Blank lines are
        skipped; an unparseable line gets a ``bad_json`` error stamped
        with this build's version (it has no version to negotiate).
        """
        handled = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                response = protocol.error_response(
                    protocol.BAD_JSON, f"bad JSON: {exc}"
                )
            else:
                response = self.handle(_sanitize_wire_request(request))
            out.write(json.dumps(response) + "\n")
            out.flush()
            handled += 1
        return handled

    def handle_frame(self, header: dict, blobs: list[bytes]) -> dict:
        """Process one framed request: ingest scene blobs, dispatch.

        Blobs are packed scenes (:func:`repro.api.frames.pack_scene`);
        each is hashed and decoded into the scene cache *before* the
        request dispatches, so an ``audit`` naming their hashes
        resolves immediately. An undecodable blob fails just this
        request — the frame itself was well-formed, the stream stays
        in sync.
        """
        if not isinstance(header, dict):
            return protocol.error_response(
                protocol.BAD_REQUEST, "frame header must be a request object"
            )
        header = _sanitize_wire_request(header)
        if blobs:
            ingested = {}
            try:
                for blob in blobs:
                    fingerprint, entry = self.scene_cache.ingest(blob)
                    ingested[fingerprint] = entry
            except protocol.TransportError as exc:
                return protocol.error_response(exc.code, exc.message)
            header = dict(header)
            # Internal plumbing (never a wire field): the cache
            # entries of this request's blobs, held so resolution works
            # even when the LRU is smaller than one request, plus the
            # per-request hit/miss accounting.
            header["_ingested_scenes"] = ingested
        return self.handle(header)

    # ------------------------------------------------------------------
    def _op_open(self, request: dict) -> dict:
        scene = Scene.from_dict(request["scene"])
        session = self.store.open(scene, session_id=request.get("session_id"))
        return {
            "session_id": session.session_id,
            "n_tracks": len(scene.tracks),
            "version": session.version,
        }

    def _op_edit(self, request: dict) -> dict:
        edit = edit_from_dict(request["edit"])
        session = self.store.get(request["session_id"])
        changed = session.apply(edit)
        payload = {"changed": sorted(changed), "version": session.version}
        if request.get("standing", True):
            audits = session.standing_audits()
            if audits:
                # The edit already maintained every subscription (the
                # delta-rescore hook runs inside apply); this just
                # reads the fresh top-k back out — no extra rescoring.
                payload["standing"] = {
                    audit.audit_id: {
                        "kind": audit.kind,
                        "rescored": audit.last_rescored,
                        "results": audit.results_dicts(),
                    }
                    for audit in audits
                }
        return payload

    def _op_rank(self, request: dict) -> dict:
        kind = request.get("kind", "tracks")
        top_k = request.get("top_k")
        ranked = self.store.rank(
            request["session_id"], kind=kind,
            top_k=int(top_k) if top_k is not None else None,
        )
        return {
            "kind": kind,
            "results": [s.to_dict(kind) for s in ranked],
        }

    def _op_audit(self, request: dict) -> dict:
        """Execute an AuditSpec server-side (live session or shipped scenes).

        Shipped scenes are ranked inline whatever backend the spec
        names, each from the scorer its cache entry keeps; ``scenes``
        bodies get entries of their own, which die with the request.
        """
        from repro.api import API_VERSION, AuditSpec
        from repro.api.result import AuditProvenance, AuditResult

        spec = AuditSpec.from_dict(request["spec"])
        filt = spec.compile_filter()
        fixy = self.store.fixy
        extra = {}
        session_id = request.get("session_id")
        if session_id is not None:
            session = self.store.get(session_id)
            backend, n_scenes = "session", 1
        else:
            hashes = request.get("scene_hashes")
            if hashes is not None:
                entries, stats, missing = self._resolve_scene_hashes(
                    hashes, request.get("_ingested_scenes")
                )
                extra["scene_cache"] = stats
                if missing:
                    # Not an error: the coordinator resends only these
                    # bodies (cache eviction, or a restarted worker).
                    return {"need": missing}
            else:
                entries = [
                    [Scene.from_dict(d), None] for d in request["scenes"]
                ]
            backend, n_scenes = "inline", len(entries)
        with obs_trace.span(
            "rank", attrs={"backend": backend, "n_scenes": n_scenes}
        ):
            watch = Stopwatch()
            if session_id is not None:
                items = session.rank(spec.kind, filt, top_k=spec.top_k)
            else:
                # Warm grids, as Audit binds every backend, so worker
                # rankings stay byte-identical to inline ones.
                fixy.warmup_fast_eval()
                blocks = [
                    self.scene_cache.scorer(entry, fixy).rank(
                        spec.kind, filt, spec.top_k
                    )
                    for entry in entries
                ]
                items = merge_rankings(blocks, spec.top_k)
            rank_s = watch.s
        learned = fixy.learned
        result = AuditResult(
            items=items,
            spec=spec,
            provenance=AuditProvenance(
                backend=backend,
                spec_hash=spec.spec_hash(),
                model_fingerprint=(
                    learned.fingerprint() if learned is not None else None
                ),
                n_scenes=n_scenes,
                api_version=API_VERSION,
                timings={"rank_s": rank_s, "total_s": rank_s},
            ),
        )
        return {"result": result.to_dict(), **extra}

    def _resolve_scene_hashes(self, hashes, ingested):
        """Resolve content hashes against the scene cache (+ warehouse).

        Returns ``(entries, {"hits", "misses"}, missing_hashes)`` —
        a *hit* is a hash served from cache without a body this
        request, a *miss* one whose body just arrived as a blob. With a
        shared warehouse configured, cache misses fetch the blob by
        fingerprint locally (counted as hits, plus an additive
        ``warehouse`` sub-count) before falling back to ``need``; a
        corrupt or absent warehouse entry degrades to ``need`` — the
        coordinator reships the body.
        """
        ingested = dict(ingested or {})
        entries, missing = [], []
        hits = misses = warehouse_fetches = 0
        for fingerprint in hashes:
            entry = ingested.get(fingerprint)
            if entry is not None:
                entries.append(entry)
                misses += 1  # body shipped with this request
                continue
            entry = self.scene_cache.get(fingerprint)
            if entry is not None:
                entries.append(entry)
                hits += 1
                continue
            if self.warehouse is not None:
                from repro.warehouse import WarehouseError

                try:
                    blob = self.warehouse.get_blob(fingerprint)
                except WarehouseError:
                    blob = None
                if blob is not None:
                    _, entry = self.scene_cache.ingest(blob)
                    entries.append(entry)
                    hits += 1
                    warehouse_fetches += 1
                    continue
            missing.append(fingerprint)
        stats = {"hits": hits, "misses": misses}
        if self.warehouse is not None:
            stats["warehouse"] = warehouse_fetches
        return entries, stats, missing

    def _op_subscribe(self, request: dict) -> dict:
        """Register an AuditSpec as a standing query on a live session."""
        from repro.api import AuditSpec

        spec = AuditSpec.from_dict(request["spec"])
        try:
            audit = self.store.subscribe(
                request["session_id"], spec, audit_id=request.get("audit_id")
            )
        except RuntimeError as exc:
            # The per-session subscription limit: the client asked for
            # too much, not a server fault.
            raise protocol.ProtocolError(protocol.BAD_REQUEST, str(exc))
        return {
            "audit_id": audit.audit_id,
            "kind": audit.kind,
            "results": audit.results_dicts(),
        }

    def _op_unsubscribe(self, request: dict) -> dict:
        unsubscribed = self.store.unsubscribe(
            request["session_id"], request["audit_id"]
        )
        return {"unsubscribed": unsubscribed}

    def _op_standing(self, request: dict) -> dict:
        """Read a standing audit's maintained top-k (no edit needed)."""
        audit = self.store.standing(
            request["session_id"], request["audit_id"]
        )
        return {
            "audit_id": audit.audit_id,
            "kind": audit.kind,
            "results": audit.results_dicts(),
            "stats": audit.stats.to_dict(),
        }

    def _op_close(self, request: dict) -> dict:
        return {"closed": self.store.close(request["session_id"])}

    def _op_stats(self, request: dict) -> dict:
        return self.store.stats()

    def _op_hello(self, request: dict) -> dict:
        """Worker registration: who am I, what do I serve, how much.

        The worker pool (:mod:`repro.api.pool`) calls this once per
        worker before dispatching scenes — the fingerprint is how a
        coordinator proves every worker scores with the *same* model
        (the byte-identity precondition across machines).
        """
        learned = self.store.fixy.learned
        # ``protocol_version`` mirrors the *request's* dialect: a v1
        # coordinator requires this field to equal 1. The worker's
        # actual ceiling travels in the additive ``max_protocol_version``
        # field, which current pools read at registration.
        return {
            "protocol_version": request["v"],
            "max_protocol_version": protocol.PROTOCOL_VERSION,
            "model_fingerprint": (
                learned.fingerprint() if learned is not None else None
            ),
            "capacity": self.capacity,
            "features": [f.name for f in self.store.fixy.features],
            "ops": sorted(self._ops),
            "wire_formats": ["json", "frames"],
            "scene_cache": self.scene_cache.maxsize,
            "warehouse": self.warehouse is not None,
        }

    def _op_health(self, request: dict) -> dict:
        """Liveness + stats: cheap enough to poll between audits.

        ``metrics`` is the compact counter-totals summary of the
        process registry — additive, so pre-observability pools that
        only read ``capacity``/``status`` keep working untouched.
        """
        return {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started,
            "requests_handled": self.requests_handled,
            "capacity": self.capacity,
            "scene_cache": self.scene_cache.stats(),
            "metrics": obs_metrics.get_registry().summary(),
            **self.store.stats(),
        }

    def _op_metrics(self, request: dict) -> dict:
        """The full metrics snapshot (protocol v2+; additive op).

        A v1 *client* asking for it gets a typed
        ``unsupported_version`` — distinguishable from the
        ``unknown_op`` a pre-observability worker answers, so callers
        can tell "too old to speak v2" from "too old to have metrics".
        Pass ``text`` truthy for the Prometheus exposition alongside
        the structured snapshot.
        """
        version = request.get("v")
        if not isinstance(version, int) or version < 2:
            raise protocol.ProtocolError(
                protocol.UNSUPPORTED_VERSION,
                "the metrics op needs protocol v2; this request is "
                f"v{version!r}",
            )
        registry = obs_metrics.get_registry()
        payload = {"metrics": registry.snapshot()}
        if request.get("text"):
            payload["text"] = registry.render()
        return payload
