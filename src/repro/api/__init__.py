"""The unified audit API: declare once, execute anywhere.

This package is the system's front door. The batch engine
(:class:`repro.core.Fixy`), the streaming serving layer
(:mod:`repro.serving`), and the remote worker pool are *implementations*;
what a user holds is:

- :class:`AuditSpec` (:mod:`repro.api.spec`) — the declarative audit:
  scenes + feature set + model source + rank kind/filters/top-k, a
  frozen JSON-round-trippable value with a stable ``spec_hash()``;
- :class:`Audit` (:mod:`repro.api.audit`) — validates the spec once,
  binds it to a fitted engine, and executes it on any registered
  backend;
- the backend registry (:mod:`repro.api.backends`) — ``inline``,
  ``session``, and ``remote``
  (:mod:`repro.api.remote` over a :class:`WorkerPool` of TCP
  workers), all returning byte-identical rankings for the same spec
  (property-tested), so strategy is a deployment choice, not an API
  choice;
- :class:`AuditResult` (:mod:`repro.api.result`) — the one typed
  result: scored items + provenance (backend, spec hash, model
  fingerprint, timings, per-worker attribution);
- the versioned wire protocol (:mod:`repro.api.protocol`) and its
  in-repo client (:class:`AuditClient`, :mod:`repro.api.client`) —
  the same schema the streaming service serves, over stdio or TCP
  (``repro.cli serve --listen``), with worker registration
  (``hello``) and liveness (``health``) ops for the distributed
  layer (:class:`WorkerEndpoint` / :class:`WorkerPool`,
  :mod:`repro.api.pool`).
"""

from repro.api import frames, protocol
from repro.api.audit import API_VERSION, Audit, AuditError, run_audit
from repro.api.backends import (
    ExecutionBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
)
from repro.api.client import AuditClient
from repro.api.pool import WorkerEndpoint, WorkerPool
from repro.api.remote import RemoteBackend
from repro.api.result import AuditProvenance, AuditResult
from repro.api.spec import (
    SPEC_VERSION,
    AuditSpec,
    FilterSpec,
    SceneSource,
    SpecValidationError,
)

__all__ = [
    "API_VERSION",
    "SPEC_VERSION",
    "Audit",
    "AuditClient",
    "AuditError",
    "AuditProvenance",
    "AuditResult",
    "AuditSpec",
    "ExecutionBackend",
    "FilterSpec",
    "RemoteBackend",
    "SceneSource",
    "SpecValidationError",
    "UnknownBackendError",
    "WorkerEndpoint",
    "WorkerPool",
    "available_backends",
    "frames",
    "get_backend",
    "protocol",
    "register_backend",
    "run_audit",
]
