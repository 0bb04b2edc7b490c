"""Pluggable execution backends: one AuditSpec, many strategies.

A backend is *how* a validated spec runs, nothing more: every backend
receives the same fitted engine, the same scenes, and the same compiled
filter, and must return the same ranking — byte-identical, which the
``tests/api`` property suite asserts across all three (the ``remote``
backend lives in :mod:`repro.api.remote` and registers itself here):

========== ==========================================================
name       strategy
========== ==========================================================
inline     serial per-scene compile + rank in the calling thread
session    one incremental :class:`~repro.serving.session.SceneSession`
           per scene, served through a standing-audit subscription
remote     :class:`~repro.api.pool.WorkerPool` over N TCP workers
           (``repro.cli serve --listen``; ``workers``/``timeout``/
           ``connect_timeout``/``check_model`` options; partitions
           requeue off dead workers)
========== ==========================================================

Backends register by name via :func:`register_backend`; unknown names
raise :class:`UnknownBackendError` listing the valid ones, mirroring
:class:`~repro.core.scoring.UnknownRankKindError`.
"""

from __future__ import annotations

from repro.core.scoring import ScoredItem, merge_rankings

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "SessionBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "register_backend",
    "require_backend",
]

#: name -> backend class. Mutated only through register_backend.
_BACKENDS: dict[str, type] = {}


class UnknownBackendError(ValueError):
    """A backend name not present in the registry."""

    def __init__(self, name, valid=None):
        self.name = name
        self.valid = tuple(valid if valid is not None else available_backends())
        super().__init__(
            f"unknown backend {name!r}; expected {', '.join(self.valid)}"
        )

    def __reduce__(self):
        return (type(self), (self.name, self.valid))


def register_backend(name: str):
    """Class decorator: register an :class:`ExecutionBackend` under ``name``."""

    def decorate(cls):
        cls.name = name
        _BACKENDS[name] = cls
        return cls

    return decorate


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_BACKENDS)


def require_backend(name: str) -> type:
    """The backend class for ``name``; raises :class:`UnknownBackendError`."""
    try:
        return _BACKENDS[name]
    except (KeyError, TypeError):
        raise UnknownBackendError(name) from None


def get_backend(name: str, **options) -> "ExecutionBackend":
    """Construct a backend instance by name.

    Options the backend does not accept raise
    :class:`~repro.api.spec.SpecValidationError` (the options came
    from a spec or a run call — either way the declaration is wrong),
    not a bare TypeError.
    """
    try:
        return require_backend(name)(**options)
    except TypeError as exc:
        from repro.api.spec import SpecValidationError

        raise SpecValidationError(
            f"backend {name!r} rejected options {sorted(options)}: {exc}"
        ) from None


class ExecutionBackend:
    """One execution strategy for a validated spec.

    Subclasses implement :meth:`run`; options arrive as constructor
    kwargs (from ``AuditSpec.backend_options`` plus per-run overrides).
    Backends may hold resources (the remote worker pool); callers must
    :meth:`close` them — :class:`repro.api.Audit` does, via
    try/finally, and backends are context managers for direct use.
    """

    name = "?"

    def run(self, fixy, spec, scenes, filt) -> list[ScoredItem]:
        raise NotImplementedError

    def run_stream(self, fixy, spec, source, filt):
        """Run against a :class:`~repro.api.spec.SceneSource` directly.

        Returns ``(items, stream_stats)``. The default materializes the
        source and delegates to :meth:`run` — correct for every
        backend, out-of-core for none. Backends that can consume a
        lazy source (inline, remote) override this to fetch scenes in
        bounded batches; the stats dict lands in
        ``AuditProvenance.stream``.
        """
        scenes = source.resolve()
        items = self.run(fixy, spec, scenes, filt)
        return items, {"n_scenes": len(scenes), "out_of_core": False}

    def provenance_extras(self) -> dict:
        """Backend-specific provenance from the most recent :meth:`run`.

        Recognized keys are folded into the result's
        :class:`~repro.api.result.AuditProvenance` — today
        ``"workers"`` (per-worker partition attribution, the remote
        backend). Local backends have nothing to add.
        """
        return {}

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@register_backend("inline")
class InlineBackend(ExecutionBackend):
    """Serial reference execution in the calling thread."""

    def run(self, fixy, spec, scenes, filt) -> list[ScoredItem]:
        blocks = [
            fixy.scorer(scene).rank(spec.kind, filt, spec.top_k)
            for scene in scenes
        ]
        return merge_rankings(blocks, spec.top_k)

    def run_stream(self, fixy, spec, source, filt):
        """Out-of-core execution for warehouse sources.

        Scenes stream through in ``source.effective_batch``-bounded
        chunks: each batch is fetched, scored (through the warehouse's
        compiled-columns sidecar when the model fingerprint matches —
        skipping ``compile_scene``), merged into the running ranking,
        and dropped; nothing enters the engine's scorer cache. The
        progressive merge is exact: re-merging the already-merged
        prefix as block 0 with each batch's blocks yields
        byte-identical results to one global merge (see
        :func:`~repro.core.scoring.merge_rankings`).

        Peak residency is measured, not assumed: every fetched scene is
        weakly referenced and the live count sampled at each batch
        boundary lands in ``stream_stats["peak_resident_scenes"]`` —
        what ``benchmarks/bench_warehouse.py`` asserts stays ≤ batch.
        """
        if not source.is_out_of_core:
            return super().run_stream(fixy, spec, source, filt)
        import weakref

        from repro.warehouse.store import warehouse_scorer

        source.validate()
        merged: list[ScoredItem] = []
        refs: list = []
        n_scenes = compile_cold = compile_warm = 0
        batches = peak_resident = 0
        with source.open_warehouse() as warehouse:
            corpus = len(warehouse)
            fingerprints = source.warehouse_fingerprints(warehouse)
            for batch in warehouse.fetch_batches(
                fingerprints, source.effective_batch
            ):
                batches += 1
                refs = [r for r in refs if r() is not None]
                refs.extend(weakref.ref(scene) for _, scene in batch)
                blocks = []
                for fingerprint, scene in batch:
                    scorer, from_sidecar = warehouse_scorer(
                        warehouse, fixy, fingerprint, scene
                    )
                    if from_sidecar:
                        compile_warm += 1
                    else:
                        compile_cold += 1
                    blocks.append(scorer.rank(spec.kind, filt, spec.top_k))
                n_scenes += len(batch)
                merged = merge_rankings([merged, *blocks], spec.top_k)
                del blocks, scorer, scene
                peak_resident = max(
                    peak_resident, sum(1 for r in refs if r() is not None)
                )
        return merged, {
            "n_scenes": n_scenes,
            "out_of_core": True,
            "corpus_scenes": corpus,
            "selected_scenes": len(fingerprints),
            "pruned_scenes": corpus - len(fingerprints),
            "batch": source.effective_batch,
            "batches": batches,
            "peak_resident_scenes": peak_resident,
            "compile_cold": compile_cold,
            "compile_warm": compile_warm,
        }


@register_backend("session")
class SessionBackend(ExecutionBackend):
    """One streaming :class:`~repro.serving.session.SceneSession` per scene.

    Exercises the exact serving-layer state a long-lived service ranks
    from — the backend to pick when results must match what the
    streaming service will say. Requires a vectorized engine.

    Each scene is served through a
    :class:`~repro.serving.standing.StandingAudit` subscription — the
    incrementally maintained per-track top-k structure the streaming
    service updates on every edit — so a batch run exercises the same
    maintenance code the standing ``subscribe``/``edit`` ops use. Each
    scene's block is truncated to ``top_k`` before the merge, which
    :func:`~repro.core.scoring.merge_rankings` shows is exact.
    """

    def run(self, fixy, spec, scenes, filt) -> list[ScoredItem]:
        blocks = []
        for scene in scenes:
            session = fixy.session(scene)
            audit = session.subscribe(spec, filt=filt)
            blocks.append(audit.results())
            session.unsubscribe(audit.audit_id)
        return merge_rankings(blocks, spec.top_k)
