"""The Audit façade: validate a spec once, execute it anywhere.

.. code-block:: python

    from repro.api import Audit, AuditSpec, FilterSpec

    spec = AuditSpec(
        kind="tracks",
        filters=FilterSpec(has_model=True, has_human=False),
        top_k=10,
    )
    audit = Audit(spec, train_scenes=historical_scenes)
    result = audit.run(scenes=new_scenes)                  # spec default
    same = audit.run(scenes=new_scenes, backend="session") # same ranking

Binding (``Audit(...)``) validates the spec, resolves the engine (an
existing fitted :class:`~repro.core.Fixy`, a saved model from
``spec.model_path``, or a fresh fit on training scenes), and warms the
engine's density grids so every backend evaluates the same accelerated
densities — the precondition for byte-identical rankings across
backends. Running executes on any
registered backend and returns a typed
:class:`~repro.api.result.AuditResult` with provenance.
"""

from __future__ import annotations

import contextlib
import time

from repro.api.backends import get_backend
from repro.api.result import AuditProvenance, AuditResult
from repro.api.spec import AuditSpec, build_feature_set
from repro.obs import trace as obs_trace

__all__ = ["API_VERSION", "Audit", "AuditError", "run_audit"]

#: Version of the Audit API surface (recorded in every result's provenance).
API_VERSION = 1


class AuditError(RuntimeError):
    """An audit that cannot be bound or executed as declared."""


class Audit:
    """A validated :class:`AuditSpec` bound to a fitted engine.

    Args:
        spec: The declarative audit (validated here, once).
        fixy: An existing engine to execute on. When given, the spec's
            ``features``/``model_path`` describe intent but the engine
            is used as-is (this is how the streaming service audits
            with its already-loaded model).
        train_scenes: Historical labeled scenes to fit a fresh engine
            on when no ``fixy`` and no ``spec.model_path`` is given.
        warm: Build density grids at bind time (default). Keeps every
            backend on the identical accelerated-density state; turn
            off only for engines whose grids are managed elsewhere.
    """

    def __init__(
        self,
        spec: AuditSpec,
        fixy=None,
        train_scenes=None,
        warm: bool = True,
    ):
        self.spec = spec.validate()
        self.fixy = fixy if fixy is not None else self._build_engine(train_scenes)
        if warm:
            self.fixy.warmup_fast_eval()
        # Compile (and thereby validate) the filter once at bind time.
        self._filter = self.spec.compile_filter()
        #: (backend name, sorted options) -> live executor, so repeated
        #: runs reuse heavy resources (the remote worker pool) instead
        #: of reconnecting per call. Released by close().
        self._executors: dict = {}

    def _build_engine(self, train_scenes):
        from repro.core.engine import Fixy
        from repro.core.learning import LearnedModel

        fixy = Fixy(build_feature_set(self.spec.features))
        if self.spec.model_path is not None:
            fixy.learned = LearnedModel.load(self.spec.model_path)
            if fixy.fast_density:
                fixy.learned.enable_fast_eval()
            return fixy
        if train_scenes is None and self.spec.scenes is not None:
            if self.spec.scenes.profile is not None:
                train_scenes = self.spec.scenes.resolve_training_scenes()
        if train_scenes is not None:
            fixy.fit(train_scenes)
            return fixy
        if any(f.learnable for f in fixy.features):
            raise AuditError(
                "the spec's feature set has learnable features but no model "
                "source: give the spec a model_path, a profile scene source "
                "(its training split is fitted on), or pass fixy=/train_scenes="
            )
        return fixy

    def run(
        self,
        scenes=None,
        backend: str | None = None,
        trace=None,
        **backend_options,
    ) -> AuditResult:
        """Execute the audit and return a typed result.

        Args:
            scenes: Live scenes to rank; ``None`` resolves the spec's
                declarative scene source.
            backend: Override the spec's backend for this run.
            trace: ``True`` records this run into a fresh
                :class:`~repro.obs.trace.Trace` (or pass an existing
                one) and attaches the stitched span tree — including
                any remote workers' piggybacked spans — to
                ``result.provenance.trace``. The default ``None``
                records into the ambient trace when one is active
                (e.g. a worker serving a traced request) without
                attaching anything: the caller that *owns* the trace
                attaches it exactly once.
            **backend_options: Override/extend the spec's
                ``backend_options`` for this run.
        """
        own: obs_trace.Trace | None = None
        if trace is True:
            own = obs_trace.Trace()
        elif isinstance(trace, obs_trace.Trace):
            own = trace

        t_start = time.perf_counter()
        timings: dict[str, float] = {}
        with contextlib.ExitStack() as stack:
            if own is not None:
                stack.enter_context(obs_trace.activate(own))
            root = stack.enter_context(obs_trace.span("audit"))

            source = None
            if scenes is None:
                if self.spec.scenes is None:
                    raise AuditError(
                        "no scenes to audit: the spec has no scene source and "
                        "none were passed to run()"
                    )
                if self.spec.scenes.is_out_of_core:
                    # Warehouse sources stay lazy: the backend streams
                    # fingerprint batches instead of materializing the
                    # corpus here.
                    source = self.spec.scenes
                else:
                    with obs_trace.span("resolve_scenes"):
                        t0 = time.perf_counter()
                        scenes = self.spec.scenes.resolve()
                        timings["resolve_scenes_s"] = time.perf_counter() - t0
            elif hasattr(scenes, "scene_id"):  # a single live Scene
                scenes = [scenes]
            else:
                scenes = list(scenes)

            backend_name = backend if backend is not None else self.spec.backend
            # The spec's options belong to the spec's backend; when a run
            # overrides the backend, only the per-run options apply.
            options = dict(
                self.spec.backend_options
                if backend_name == self.spec.backend
                else {}
            )
            options.update(backend_options)
            executor = self._executor(backend_name, options)
            root.attrs["backend"] = backend_name
            stream_stats = None
            if source is not None:
                with obs_trace.span(
                    "rank", attrs={"backend": backend_name, "out_of_core": True}
                ):
                    t0 = time.perf_counter()
                    items, stream_stats = executor.run_stream(
                        self.fixy, self.spec, source, self._filter
                    )
                    timings["rank_s"] = time.perf_counter() - t0
                n_scenes = stream_stats["n_scenes"]
                root.attrs["n_scenes"] = n_scenes
            else:
                n_scenes = len(scenes)
                root.attrs["n_scenes"] = n_scenes
                with obs_trace.span(
                    "rank",
                    attrs={"backend": backend_name, "n_scenes": n_scenes},
                ):
                    t0 = time.perf_counter()
                    items = executor.run(
                        self.fixy, self.spec, scenes, self._filter
                    )
                    timings["rank_s"] = time.perf_counter() - t0
            timings["total_s"] = time.perf_counter() - t_start

        extras = executor.provenance_extras()
        learned = self.fixy.learned
        provenance = AuditProvenance(
            backend=backend_name,
            spec_hash=self.spec.spec_hash(),
            model_fingerprint=learned.fingerprint() if learned is not None else None,
            n_scenes=n_scenes,
            api_version=API_VERSION,
            timings=timings,
            backend_options=options,
            workers=extras.get("workers"),
            trace=own.to_dict() if own is not None else None,
            stream=stream_stats,
        )
        return AuditResult(items=items, spec=self.spec, provenance=provenance)

    # ------------------------------------------------------------------
    # Executor lifecycle
    # ------------------------------------------------------------------
    def _executor(self, name: str, options: dict):
        """A (possibly cached) backend executor for this audit.

        Heavy backends hold real resources — the remote backend owns a
        registered worker pool — so repeated runs against the same
        backend reuse one executor instead of reconnecting per call.
        Options with unhashable values skip the cache (constructed fresh
        each run, released on the next :meth:`close`... immediately
        below).
        """
        try:
            key = (
                name,
                tuple(
                    (k, tuple(v) if isinstance(v, list) else v)
                    for k, v in sorted(options.items())
                ),
            )
            executor = self._executors.get(key)
        except TypeError:
            executor = get_backend(name, **options)
            self._executors[object()] = executor  # still owned + closed
            return executor
        if executor is None:
            executor = get_backend(name, **options)
            self._executors[key] = executor
        return executor

    def close(self) -> None:
        """Release every backend executor this audit created (idempotent)."""
        executors, self._executors = self._executors, {}
        for executor in executors.values():
            executor.close()

    def __enter__(self) -> "Audit":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort backstop for un-closed audits
        try:
            self.close()
        except Exception:
            pass


def run_audit(
    spec: AuditSpec,
    scenes=None,
    fixy=None,
    train_scenes=None,
    backend: str | None = None,
    **backend_options,
) -> AuditResult:
    """One-shot convenience: bind, run, and release in a single call."""
    with Audit(spec, fixy=fixy, train_scenes=train_scenes) as audit:
        return audit.run(scenes=scenes, backend=backend, **backend_options)
