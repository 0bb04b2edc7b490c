"""SessionStore: many concurrent scene sessions with LRU eviction.

A long-lived server holds one :class:`~repro.serving.session.SceneSession`
per active scene (per vehicle, per labeling job, …). Sessions pin their
compiled arrays in memory, so the store bounds the population with an
LRU policy: opening a session beyond ``max_sessions`` evicts the least
recently *used* one (any touch — edit or query — refreshes recency).
Evicted scenes are not lost; re-opening one simply pays a fresh
compile, exactly like a cold cache.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.model import Scene
from repro.core.scoring import ScoredItem
from repro.serving.edits import SceneEdit
from repro.serving.session import SceneSession

__all__ = ["SessionStore"]


class SessionStore:
    """LRU-bounded collection of live scene sessions.

    Args:
        fixy: A fitted :class:`~repro.core.engine.Fixy` supplying the
            feature set, AOFs, and learned model every session uses.
        max_sessions: Live-session bound (≥ 1).
        max_standing: Per-session standing-audit bound
            (:class:`~repro.serving.session.SceneSession`'s
            ``max_standing``).
    """

    def __init__(self, fixy, max_sessions: int = 32, max_standing: int = 16):
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        fixy._require_fitted()
        if not fixy.vectorized:
            raise ValueError(
                "sessions require the columnar pipeline; this engine was "
                "built with vectorized=False"
            )
        self.fixy = fixy
        self.max_sessions = int(max_sessions)
        self.max_standing = int(max_standing)
        self._sessions: OrderedDict[str, SceneSession] = OrderedDict()
        self._lock = threading.Lock()
        self.sessions_opened = 0
        self.sessions_evicted = 0

    # ------------------------------------------------------------------
    def open(self, scene: Scene, session_id: str | None = None) -> SceneSession:
        """Create (and register) a session for ``scene``.

        Re-opening an existing id replaces the old session — the caller
        is handing us a new authoritative scene state. Edits do not
        evict ``scene`` from the engine's scorer cache (the service's
        scenes, decoded per request, never enter it).
        """
        session = SceneSession(
            scene,
            self.fixy.features,
            learned=self.fixy.learned,
            aofs=self.fixy.aofs,
            session_id=session_id,
            max_standing=self.max_standing,
        )
        with self._lock:
            self._sessions[session.session_id] = session
            self._sessions.move_to_end(session.session_id)
            self.sessions_opened += 1
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.sessions_evicted += 1
        return session

    def get(self, session_id: str) -> SceneSession:
        """Look up a live session (refreshing its recency)."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise KeyError(f"no live session {session_id!r}")
            self._sessions.move_to_end(session_id)
            return session

    def close(self, session_id: str) -> bool:
        """Drop a session; returns whether it was live."""
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    # ------------------------------------------------------------------
    def apply(self, session_id: str, edit: SceneEdit) -> set[str]:
        """Apply an edit to a live session (delta recompilation)."""
        return self.get(session_id).apply(edit)

    def rank(
        self,
        session_id: str,
        kind: str = "tracks",
        filt=None,
        top_k: int | None = None,
    ) -> list[ScoredItem]:
        """Rank one session's components (``kind`` ∈ tracks/bundles/observations)."""
        return self.get(session_id).rank(kind, filt, top_k=top_k)

    # ------------------------------------------------------------------
    def subscribe(self, session_id: str, spec, audit_id: str | None = None):
        """Subscribe a standing audit on a live session."""
        return self.get(session_id).subscribe(spec, audit_id=audit_id)

    def unsubscribe(self, session_id: str, audit_id: str) -> bool:
        """Drop a session's standing audit; whether it was subscribed."""
        return self.get(session_id).unsubscribe(audit_id)

    def standing(self, session_id: str, audit_id: str):
        """Look up a live session's standing audit."""
        return self.get(session_id).standing_audit(audit_id)

    # ------------------------------------------------------------------
    @property
    def session_ids(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions

    def stats(self) -> dict:
        with self._lock:
            sessions = list(self._sessions.values())
        return {
            "live_sessions": len(sessions),
            "max_sessions": self.max_sessions,
            "sessions_opened": self.sessions_opened,
            "sessions_evicted": self.sessions_evicted,
            "edits_applied": sum(s.stats.edits_applied for s in sessions),
            "tracks_recompiled": sum(s.stats.tracks_recompiled for s in sessions),
            "standing_audits": sum(len(s.standing_audits()) for s in sessions),
            "standing_tracks_rescored": sum(
                a.stats.tracks_rescored
                for s in sessions
                for a in s.standing_audits()
            ),
        }
