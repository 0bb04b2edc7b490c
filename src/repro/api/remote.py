"""The ``remote`` execution backend: one audit, N machines, one answer.

This closes the loop the API was designed around: ``AuditSpec`` is pure
data, the wire protocol carries it verbatim, and the backend registry
makes execution strategy a name — so distributing an audit across
machines is declared like any other backend choice::

    spec = AuditSpec(kind="tracks", top_k=25).with_backend(
        "remote", workers=["10.0.0.5:7500", "10.0.0.6:7500"]
    )
    result = Audit(spec, fixy=engine).run(scenes=scenes)
    # byte-identical to backend="inline"; provenance.workers says
    # which worker ranked which partition, and how fast.

Each worker is a ``python -m repro.cli serve --listen HOST:PORT``
process holding the *same* saved model; registration (the ``hello``
op) enforces that by fingerprint before a single scene ships, raising
``model_mismatch`` otherwise, and that every worker speaks the
protocol v2 framed wire the pool dispatches over. Scenes are
partitioned contiguously and
capacity-weighted across healthy workers (:mod:`repro.api.pool`),
each partition executes worker-side as an inline audit, a worker that
dies mid-audit has its partition requeued onto the survivors, and the
partial rankings merge through the same
:func:`~repro.core.scoring.merge_rankings` every other backend uses —
which is why the equivalence property suite can assert byte-identity
between ``remote`` and ``inline``.
"""

from __future__ import annotations

from repro.api import protocol
from repro.api.backends import ExecutionBackend, register_backend
from repro.api.pool import WorkerPool
from repro.core.scoring import ScoredItem

__all__ = ["RemoteBackend"]


@register_backend("remote")
class RemoteBackend(ExecutionBackend):
    """Distributed execution over TCP protocol workers.

    Options (all JSON-serializable, so
    ``AuditSpec.with_backend("remote", workers=[...])`` round-trips
    like any other spec):

    - ``workers``: worker addresses (``"host:port"`` strings) —
      required;
    - ``timeout``: per-request idle deadline in seconds (default
      600 s; ``None`` waits forever). Finite by default on purpose:
      a worker that dies *silently* — network partition, machine
      hang, no EOF ever arriving — must eventually trip the deadline
      so its partition can requeue onto the survivors; with ``None``
      the requeue guarantee only covers deaths that produce an
      EOF/reset;
    - ``connect_timeout``: TCP handshake deadline per connection;
    - ``check_model``: verify every worker's model fingerprint against
      the coordinating engine at registration (default True; turning
      it off surrenders the byte-identity guarantee);
    - ``chunk_scenes``: scenes per dispatch request (default 8; 0 =
      one request per partition) — smaller chunks pipeline
      coordinator-side encoding against worker-side ranking;
    - ``pipeline``: framed requests kept in flight per worker;
    - ``capacity_refresh``: seconds between ``health`` re-checks of a
      healthy worker's advertised capacity (default 30; 0 re-checks
      before every audit, ``inf`` freezes registration-time values) —
      so partition weighting tracks live worker load.

    The pool registers lazily on first :meth:`run`, re-registers when
    the engine changes, and re-probes retired workers at the top of
    every dispatch (a restarted worker with the right model rejoins
    automatically). The backend remembers per-worker partition
    timings — plus wire format, bytes shipped, encode seconds, and
    worker scene-cache hits/misses — from the latest run and surfaces
    them through :meth:`provenance_extras` into
    ``AuditResult.provenance.workers``.
    """

    #: Default per-request idle deadline (seconds): generous enough for
    #: any realistic partition rank, finite so silent worker death
    #: always reaches the requeue path.
    DEFAULT_TIMEOUT = 600.0

    def __init__(
        self,
        workers=(),
        timeout: float | None = DEFAULT_TIMEOUT,
        connect_timeout: float | None = 5.0,
        check_model: bool = True,
        chunk_scenes: int = 8,
        pipeline: int = 2,
        capacity_refresh: float = 30.0,
    ):
        workers = list(workers)
        if not workers:
            raise TypeError(
                "the remote backend needs workers=[\"host:port\", ...]"
            )
        self.workers = workers
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.check_model = check_model
        self.chunk_scenes = chunk_scenes
        self.pipeline = pipeline
        self.capacity_refresh = capacity_refresh
        self._pool: WorkerPool | None = None
        self._fixy = None
        self._last_reports: list[dict] = []

    # ------------------------------------------------------------------
    def _expected_fingerprint(self, fixy):
        """The fingerprint registration must see: the engine's model
        hash (``None`` = require unfitted workers), or the skip
        sentinel ``...`` when ``check_model`` is off."""
        if not self.check_model:
            return ...
        learned = fixy.learned
        return learned.fingerprint() if learned is not None else None

    def _bind_pool(self, fixy) -> WorkerPool:
        if self._pool is not None and self._fixy is not fixy:
            # A pool is registered against one model fingerprint; a
            # different engine must re-register from scratch.
            self.close()
        if self._pool is None:
            pool = WorkerPool(
                self.workers,
                timeout=self.timeout,
                connect_timeout=self.connect_timeout,
                chunk_scenes=self.chunk_scenes,
                pipeline=self.pipeline,
                capacity_refresh=self.capacity_refresh,
            )
            pool.connect(expected_fingerprint=self._expected_fingerprint(fixy))
            self._pool = pool
            self._fixy = fixy
        return self._pool

    def run(self, fixy, spec, scenes, filt) -> list[ScoredItem]:
        pool = self._bind_pool(fixy)
        if not pool.healthy_workers():
            # Workers retired by a previous run: try to re-register
            # before declaring the pool dead.
            pool.connect(expected_fingerprint=self._expected_fingerprint(fixy))
        items, self._last_reports = pool.audit(spec, scenes)
        return items

    def run_stream(self, fixy, spec, source, filt):
        """Out-of-core distributed execution for warehouse sources.

        The coordinator resolves the predicate to a fingerprint list
        (an index scan — no blob is read) and dispatches fingerprint
        chunks through :meth:`WorkerPool.audit_warehouse`: workers
        sharing the warehouse path fetch blobs locally by hash, others
        are fed bodies one chunk at a time from the store. The corpus
        is never materialized coordinator-side, so
        ``peak_resident_scenes`` is 0 here by construction.
        """
        if not source.is_out_of_core:
            return super().run_stream(fixy, spec, source, filt)
        source.validate()
        pool = self._bind_pool(fixy)
        if not pool.healthy_workers():
            pool.connect(expected_fingerprint=self._expected_fingerprint(fixy))
        with source.open_warehouse() as warehouse:
            corpus = len(warehouse)
            fingerprints = source.warehouse_fingerprints(warehouse)
            items, self._last_reports = pool.audit_warehouse(
                spec, warehouse, fingerprints
            )
        return items, {
            "n_scenes": len(fingerprints),
            "out_of_core": True,
            "corpus_scenes": corpus,
            "selected_scenes": len(fingerprints),
            "pruned_scenes": corpus - len(fingerprints),
            "batch": source.effective_batch,
            "peak_resident_scenes": 0,
            "warehouse_workers": sum(
                1 for w in pool.healthy_workers() if w.has_warehouse
            ),
        }

    def provenance_extras(self) -> dict:
        """Worker attribution for the most recent run."""
        if not self._last_reports:
            return {}
        return {"workers": [dict(r) for r in self._last_reports]}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._fixy = None


# Re-export for callers that treat the protocol error codes as the
# backend's failure vocabulary.
MODEL_MISMATCH = protocol.MODEL_MISMATCH
WORKER_UNAVAILABLE = protocol.WORKER_UNAVAILABLE
