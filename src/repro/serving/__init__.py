"""Streaming serving layer: incremental sessions, delta recompilation,
and the protocol fronts.

The batch engine (:class:`repro.core.engine.Fixy`) compiles a whole
scene per query — the right shape for reproducing the paper's
experiments, the wrong shape for a long-lived service where scenes
mutate as sensor frames arrive.
This package is the serving-side architecture on top of the columnar
compile pipeline:

- :mod:`repro.serving.edits` — a small algebra of scene edits
  (insert/remove/replace for tracks, bundles, and observations), each
  reporting exactly which tracks it touched;
- :class:`~repro.serving.session.SceneSession` — owns a mutable scene
  plus its compiled representation and performs **delta
  recompilation**: only edited tracks are re-extracted and re-scored,
  then spliced back into the scene-wide
  :class:`~repro.core.compile.CompiledColumns` arrays
  (:func:`repro.core.compile.splice_compiled`); the from-scratch
  compile stays the executable reference (``SceneSession.verify``);
- :class:`~repro.serving.standing.StandingAudit` — an
  :class:`~repro.api.spec.AuditSpec` subscribed to a session as a
  *standing query*: per-track scores plus a bounded heap+threshold
  top-k, maintained in O(changed · log k) per edit and byte-identical
  to the full-rescore reference (``StandingAudit.verify``);
- :class:`~repro.serving.store.SessionStore` — many concurrent
  sessions with LRU eviction;
- :class:`~repro.serving.service.StreamingService` — the server side
  of the versioned request/response protocol
  (:mod:`repro.api.protocol`) over the store (``python -m repro.cli
  serve``; the in-repo client is
  :class:`repro.api.AuditClient`; a request without a protocol
  version is answered with ``unsupported_version``);
- :mod:`repro.serving.gateway` — the TCP front
  (``repro.cli serve --listen HOST:PORT``; each worker in the
  distributed ``remote`` backend is one): many connections on one
  event loop, admission control with typed ``overloaded`` load
  shedding, and compile coalescing for concurrent same-scene audits,
  all dispatching to the same :class:`StreamingService` handlers
  (byte-identical responses).

Everything here is an execution strategy behind the unified audit API:
:class:`repro.api.AuditSpec` runs on a session through the ``session``
backend, and on a pool of gateway workers through the ``remote`` backend,
with rankings byte-identical to the inline engine.
"""

from repro.serving.gateway import AsyncGateway, GatewayWorker
from repro.serving.edits import (
    InsertBundle,
    InsertObservation,
    InsertTrack,
    RemoveBundle,
    RemoveObservation,
    RemoveTrack,
    ReplaceObservation,
    SceneEdit,
    edit_from_dict,
)
from repro.serving.session import SceneSession, SessionStats
from repro.serving.standing import StandingAudit, StandingStats
from repro.serving.store import SessionStore
from repro.serving.service import StreamingService

__all__ = [
    "AsyncGateway",
    "GatewayWorker",
    "InsertBundle",
    "InsertObservation",
    "InsertTrack",
    "RemoveBundle",
    "RemoveObservation",
    "RemoveTrack",
    "ReplaceObservation",
    "SceneEdit",
    "SceneSession",
    "SessionStats",
    "SessionStore",
    "StandingAudit",
    "StandingStats",
    "StreamingService",
    "edit_from_dict",
]
