"""Incremental scene sessions: delta recompilation over columnar arrays.

A :class:`SceneSession` owns one mutable scene plus its compiled
representation and keeps the two in sync under edits. The unit of
incrementality is the **track segment**: each track is compiled on its
own (a single-track scene through the ordinary columnar pipeline), and
the scene-wide :class:`~repro.core.compile.CompiledColumns` is the
splice of all segments (:func:`repro.core.compile.splice_compiled`).

Why the track is the right granularity: every built-in feature is
track-local — an observation feature touches one row, a bundle feature
one bundle, a transition feature two adjacent bundles *of the same
track*, a track feature the whole track. So an edit anywhere inside a
track invalidates at most that track's rows, its adjacent transitions,
and its track-level factors — precisely one segment — while every other
segment's extracted values, batched densities, and AOF-transformed
potentials are reused byte-for-byte. Applying one edit to a scene with
``T`` tracks therefore costs one single-track compile plus an
O(n) array splice, instead of ``T`` tracks' worth of feature extraction
and density evaluation (the ``bench_delta_recompile`` benchmark asserts
the resulting ≥5× at 25 tracks; in practice it approaches ``T``×).

The from-scratch :func:`~repro.core.compile.compile_scene` remains the
executable reference: :meth:`SceneSession.verify` recompiles the scene
wholesale and checks the spliced state against it (factor structure
exactly, potentials and scores to 1e-9), and the property tests in
``tests/serving/test_session.py`` drive randomized edit sequences
through that check.

Cross-track features (a custom ``observations_of`` reaching into
another track) cannot compile per-track and are not supported in
sessions; the batch engine still handles them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.aof import AOF
from repro.core.compile import CompiledScene, compile_scene, splice_compiled
from repro.core.features import Feature, FeatureContext
from repro.core.model import Scene, Track
from repro.core.scoring import ScoredItem, Scorer
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import Stopwatch
from repro.serving.edits import SceneEdit
from repro.serving.standing import SPEC_FILTER, StandingAudit

__all__ = ["SceneSession", "SessionStats"]

# Process-wide session metrics (summed over every live session; the
# per-session SessionStats below stay the per-object view the `stats`
# protocol op reports). Names are API — docs/API.md, "Observability".
_EDITS = obs_metrics.counter(
    "repro_session_edits_total", "Scene edits applied across all sessions"
)
_EDIT_SECONDS = obs_metrics.histogram(
    "repro_session_edit_seconds",
    "Seconds per applied edit (segment recompile + standing maintenance)",
)
_SPLICES = obs_metrics.counter(
    "repro_session_splices_total",
    "Compiled-scene splices (lazy merge after edits)",
)
_TRACKS_RECOMPILED = obs_metrics.counter(
    "repro_session_tracks_recompiled_total",
    "Track segments recompiled by session edits",
)


@dataclass
class SessionStats:
    """Counters a serving dashboard would scrape."""

    edits_applied: int = 0
    tracks_recompiled: int = 0
    segments_dropped: int = 0
    splices: int = 0
    full_compiles: int = 0

    def to_dict(self) -> dict:
        return {
            "edits_applied": self.edits_applied,
            "tracks_recompiled": self.tracks_recompiled,
            "segments_dropped": self.segments_dropped,
            "splices": self.splices,
            "full_compiles": self.full_compiles,
        }


@dataclass
class _Segment:
    """One track's compiled state."""

    track: Track
    compiled: CompiledScene


class SceneSession:
    """A long-lived, editable scene with incrementally maintained state.

    Args:
        scene: The scene this session owns. The session mutates it in
            place when edits are applied; callers must not mutate it
            behind the session's back (or must call :meth:`invalidate`
            with the touched track ids when they do).
        features: Feature set, as for :func:`~repro.core.compile.compile_scene`.
        learned: Fitted distributions (required by learnable features).
        aofs: Optional per-feature AOFs.
        session_id: Identifier in a :class:`~repro.serving.store.SessionStore`;
            defaults to the scene id.
        max_standing: Cap on concurrently subscribed standing audits
            (each one pays O(changed · log k) on every edit).
        on_invalidate: Called (with no arguments) whenever an edit or
            :meth:`invalidate` changes the scene — the hook
            :meth:`repro.core.engine.Fixy.session` uses to evict the
            scene from the engine's identity-keyed scorer cache, which
            would otherwise serve stale pre-edit rankings. Standalone
            callers that also rank the same scene object through a
            ``Fixy`` must call ``fixy.clear_compile_cache()`` themselves
            after edits.

    The session is thread-safe: edits and queries serialize on an
    internal lock (a session is one scene's state machine; concurrency
    across scenes comes from the store holding many sessions).
    """

    def __init__(
        self,
        scene: Scene,
        features: list[Feature],
        learned=None,
        aofs: dict[str, AOF] | None = None,
        session_id: str | None = None,
        on_invalidate=None,
        max_standing: int = 16,
    ):
        self.scene = scene
        self.session_id = session_id or scene.scene_id
        self.features = list(features)
        self.learned = learned
        self.aofs = dict(aofs or {})
        self.context = FeatureContext.from_scene(scene)
        self.version = 0
        self.stats = SessionStats()
        self._on_invalidate = on_invalidate
        self._lock = threading.RLock()
        self._segments: dict[str, _Segment] = {}
        self._merged: CompiledScene | None = None
        self._scorer: Scorer | None = None
        #: obs_id -> owning track_id (with the per-track id sets below),
        #: maintained across edits so a duplicate observation id is
        #: rejected at edit time — the same invariant the from-scratch
        #: compile enforces eagerly, which the lazy spliced table would
        #: otherwise only catch on the first row materialization.
        self._obs_owner: dict[str, str] = {}
        self._track_ids: dict[str, list[str]] = {}
        #: tracks whose segment recompile failed mid-edit; retried on
        #: the next compiled-state access so the session cannot serve
        #: stale pre-edit state after an error response.
        self._dirty: set[str] = set()
        #: standing audits maintained incrementally under edits, and
        #: the track ids whose maintenance is still owed (only non-empty
        #: transiently, or after a mid-edit failure — the same retry
        #: discipline as ``_dirty``).
        self.max_standing = max_standing
        self._standing: dict[str, StandingAudit] = {}
        self._standing_pending: set[str] = set()
        for track in scene.tracks:
            self._adopt_segment(track)

    # ------------------------------------------------------------------
    # Delta recompilation
    # ------------------------------------------------------------------
    def _compile_track(self, track: Track) -> _Segment:
        subscene = Scene(
            scene_id=self.scene.scene_id,
            dt=self.scene.dt,
            tracks=[track],
            metadata=self.scene.metadata,
        )
        compiled = compile_scene(
            subscene,
            self.features,
            learned=self.learned,
            aofs=self.aofs,
            context=self.context,
            vectorized=True,
        )
        self.stats.tracks_recompiled += 1
        _TRACKS_RECOMPILED.inc()
        return _Segment(track=track, compiled=compiled)

    def _adopt_segment(self, track: Track) -> None:
        """Compile a track's segment and claim its observation ids."""
        segment = self._compile_track(track)
        ids = list(segment.compiled.columns.table.row_of)
        for obs_id in ids:
            owner = self._obs_owner.get(obs_id)
            if owner is not None and owner != track.track_id:
                raise ValueError(f"variable {obs_id!r} already exists")
        self._drop_owned_ids(track.track_id)
        for obs_id in ids:
            self._obs_owner[obs_id] = track.track_id
        self._track_ids[track.track_id] = ids
        self._segments[track.track_id] = segment
        self._dirty.discard(track.track_id)

    def _drop_owned_ids(self, track_id: str) -> None:
        for obs_id in self._track_ids.pop(track_id, ()):
            if self._obs_owner.get(obs_id) == track_id:
                del self._obs_owner[obs_id]

    def apply(self, edit: SceneEdit) -> set[str]:
        """Apply one edit; returns the track ids that were recompiled
        (or dropped). Only those tracks' rows, adjacent transitions, and
        track-level factors are re-evaluated."""
        with self._lock:
            watch = Stopwatch()
            with obs_trace.span(
                "session.edit", attrs={"session": self.session_id}
            ) as record:
                changed = edit.apply(self.scene)
                self.stats.edits_applied += 1
                self._invalidate_locked(changed)
                record.attrs["changed"] = len(changed)
            _EDITS.inc()
            _EDIT_SECONDS.observe(watch.s)
            return changed

    def invalidate(self, track_ids) -> None:
        """Recompile the segments of ``track_ids`` (drop removed ones).

        The escape hatch for callers that mutated ``scene`` directly
        instead of going through :meth:`apply`.
        """
        with self._lock:
            self._invalidate_locked(set(track_ids))

    def _invalidate_locked(self, changed: set[str]) -> None:
        # The compiled views are stale the moment the scene mutated —
        # invalidate before recompiling, so a failed segment compile
        # can never leave the old state being served (the failed track
        # stays dirty and is retried on the next access instead).
        self._merged = None
        self._scorer = None
        self.version += 1
        if self._on_invalidate is not None:
            self._on_invalidate()
        self._dirty |= changed
        # Owed to standing audits *before* recompiling: if a segment
        # compile fails below, the pending set survives the exception
        # and the retry path re-runs maintenance for these tracks.
        self._standing_pending |= changed
        present = {t.track_id: t for t in self.scene.tracks}
        for track_id in changed:
            track = present.get(track_id)
            if track is None:
                if self._segments.pop(track_id, None) is not None:
                    self.stats.segments_dropped += 1
                self._drop_owned_ids(track_id)
                self._dirty.discard(track_id)
            else:
                self._adopt_segment(track)
        self._notify_standing_locked()

    def _notify_standing_locked(self) -> None:
        """Deliver owed maintenance to every standing audit.

        Rescoring is idempotent per track, so a failure partway through
        leaves the pending set intact and the retry converges.
        """
        if not self._standing_pending:
            return
        if self._standing:
            pending = set(self._standing_pending)
            for audit in self._standing.values():
                audit._rescore(pending)
        self._standing_pending.clear()

    def _ensure_clean_locked(self) -> None:
        """Retry any failed recompiles and owed standing maintenance.

        Queries call this first so an edit that errored mid-flight can
        never leave stale pre-edit state being served.
        """
        if self._dirty:
            self._invalidate_locked(set(self._dirty))
        else:
            self._notify_standing_locked()

    # ------------------------------------------------------------------
    # Compiled views
    # ------------------------------------------------------------------
    @property
    def compiled(self) -> CompiledScene:
        """The scene's compiled state (spliced lazily after edits)."""
        with self._lock:
            if self._merged is None:
                if self._dirty:
                    # Retry segments whose recompile failed mid-edit;
                    # until they succeed the session refuses to serve.
                    self._invalidate_locked(set(self._dirty))
                segments = []
                for track in self.scene.tracks:
                    segment = self._segments.get(track.track_id)
                    if segment is None or segment.track is not track:
                        raise RuntimeError(
                            f"session {self.session_id!r} has no segment for "
                            f"track {track.track_id!r} — the scene was mutated "
                            "without apply()/invalidate()"
                        )
                    segments.append(segment.compiled)
                self._merged = splice_compiled(
                    self.scene, segments, context=self.context
                )
                self.stats.splices += 1
                _SPLICES.inc()
            return self._merged

    @property
    def scorer(self) -> Scorer:
        with self._lock:
            if self._scorer is None:
                self._scorer = Scorer(self.compiled)
            return self._scorer

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def rank(self, kind: str, filt=None, top_k: int | None = None) -> list[ScoredItem]:
        """Rank by component kind (:meth:`repro.core.scoring.Scorer.rank`).

        Runs under the session lock so concurrent edits cannot mutate
        the scene mid-iteration.
        """
        with self._lock:
            return self.scorer.rank(kind, filt, top_k)

    # ------------------------------------------------------------------
    # Standing audits
    # ------------------------------------------------------------------
    def subscribe(
        self, spec, audit_id: str | None = None, filt=SPEC_FILTER
    ) -> StandingAudit:
        """Register ``spec`` as a standing query over this session.

        Scores every track once up front; from then on each
        :meth:`apply`/:meth:`invalidate` rescores only the invalidated
        tracks and re-heaps the audit's top-k in O(changed · log k).
        Raises ``ValueError`` on a duplicate ``audit_id`` and
        ``RuntimeError`` past :attr:`max_standing` subscriptions.
        """
        with self._lock:
            self._ensure_clean_locked()
            audit = StandingAudit(self, spec, audit_id=audit_id, filt=filt)
            if audit.audit_id in self._standing:
                raise ValueError(
                    f"standing audit {audit.audit_id!r} already subscribed "
                    f"to session {self.session_id!r}"
                )
            if len(self._standing) >= self.max_standing:
                raise RuntimeError(
                    f"session {self.session_id!r} is at its standing-audit "
                    f"limit ({self.max_standing})"
                )
            audit._rescore(
                {t.track_id for t in self.scene.tracks}, initial=True
            )
            self._standing[audit.audit_id] = audit
            return audit

    def unsubscribe(self, audit_id: str) -> bool:
        """Drop a standing audit; True if it was subscribed."""
        with self._lock:
            return self._standing.pop(audit_id, None) is not None

    def standing_audit(self, audit_id: str) -> StandingAudit:
        """Look up a subscription (``KeyError`` if unknown)."""
        with self._lock:
            audit = self._standing.get(audit_id)
            if audit is None:
                raise KeyError(
                    f"no standing audit {audit_id!r} in session "
                    f"{self.session_id!r}"
                )
            return audit

    def standing_audits(self) -> list[StandingAudit]:
        """The live subscriptions, in subscription order."""
        with self._lock:
            return list(self._standing.values())

    # ------------------------------------------------------------------
    # Reference equivalence
    # ------------------------------------------------------------------
    def full_compile(self) -> CompiledScene:
        """From-scratch compile of the current scene (the reference)."""
        with self._lock:
            self.stats.full_compiles += 1
            return compile_scene(
                self.scene,
                self.features,
                learned=self.learned,
                aofs=self.aofs,
                context=self.context,
                vectorized=True,
            )

    def verify(self, tol: float = 1e-9) -> bool:
        """Check the spliced state against a from-scratch recompile.

        Also re-verifies every subscribed standing audit against the
        full-rescore reference (:meth:`StandingAudit.verify`).
        Raises ``AssertionError`` on any divergence: factor count,
        names, member observation rows, or potentials beyond ``tol``.
        Returns True otherwise. This is the property-test hook — and a
        paranoid serving deployment could run it on a sampled fraction
        of edits.
        """
        import numpy as np

        with self._lock:
            spliced = self.compiled.columns
            reference = self.full_compile().columns
        assert spliced.n_factors == reference.n_factors, (
            f"factor count {spliced.n_factors} != {reference.n_factors}"
        )
        assert spliced.factor_names() == reference.factor_names()
        assert [o.obs_id for o in spliced.table.observations] == [
            o.obs_id for o in reference.table.observations
        ]
        assert spliced.track_factor_slices == reference.track_factor_slices
        np.testing.assert_allclose(
            spliced.potentials, reference.potentials, rtol=0.0, atol=tol
        )
        for i in range(spliced.n_factors):
            assert np.array_equal(
                spliced.member_rows(i), reference.member_rows(i)
            ), f"factor {i} member rows diverged"
        for audit in self.standing_audits():
            audit.verify()
        return True
