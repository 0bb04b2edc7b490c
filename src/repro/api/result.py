"""AuditResult: the one typed result every execution backend returns.

Whatever strategy executed the spec — inline loop, a streaming
session, or remote workers — the caller gets the same shape: the
ranked :class:`~repro.core.scoring.ScoredItem` list plus
:class:`AuditProvenance` saying exactly what produced it (which backend,
which spec — by hash —, which fitted model — by fingerprint —, how many
scenes, and how long it took). Results round-trip through JSON, so the
serving protocol's ``audit`` op returns this very object and the CLI's
``audit`` subcommand prints it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.api.spec import AuditSpec
from repro.core.scoring import ScoredItem

__all__ = ["AuditProvenance", "AuditResult"]


@dataclass(frozen=True)
class AuditProvenance:
    """How a result came to be (reproducibility metadata).

    Attributes:
        backend: Execution backend name that actually ran.
        spec_hash: :meth:`AuditSpec.spec_hash` of the executed spec.
        model_fingerprint: :meth:`LearnedModel.fingerprint` of the
            fitted model (``None`` for engines with no learnable
            features fitted).
        n_scenes: Scenes ranked.
        api_version: Audit API version that produced the result.
        timings: Wall-clock seconds by phase (at least ``rank_s`` and
            ``total_s``).
        backend_options: Options the backend was constructed with.
        workers: Per-worker partition attribution for distributed
            execution (``None`` for local backends): one dict per
            partition with ``worker`` (address), ``partition`` index,
            ``n_scenes``, ``rank_s``, and ``attempts`` (>1 means the
            partition was requeued off a dead worker).
        trace: The run's stitched span trace
            (:meth:`repro.obs.trace.Trace.to_dict` — ``trace_id`` plus
            a flat span list) when the run was traced, else ``None``.
            Additive: pre-observability results round-trip unchanged.
        stream: Out-of-core resolution stats when the audit streamed a
            warehouse source (``None`` for materialized runs):
            ``corpus_scenes``/``selected_scenes``/``pruned_scenes``
            from indexed predicate pruning, ``batch``/``batches``/
            ``peak_resident_scenes`` for the residency bound, and
            ``compile_cold``/``compile_warm`` for sidecar
            effectiveness. Additive like ``workers``/``trace``.
    """

    backend: str
    spec_hash: str
    model_fingerprint: str | None
    n_scenes: int
    api_version: int
    timings: dict = field(default_factory=dict)
    backend_options: dict = field(default_factory=dict)
    workers: list | None = None
    trace: dict | None = None
    stream: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "backend": self.backend,
            "spec_hash": self.spec_hash,
            "model_fingerprint": self.model_fingerprint,
            "n_scenes": self.n_scenes,
            "api_version": self.api_version,
            "timings": dict(self.timings),
            "backend_options": dict(self.backend_options),
        }
        if self.workers is not None:
            out["workers"] = [dict(w) for w in self.workers]
        if self.trace is not None:
            out["trace"] = {
                "trace_id": self.trace.get("trace_id"),
                "spans": [dict(s) for s in self.trace.get("spans", [])],
            }
        if self.stream is not None:
            out["stream"] = dict(self.stream)
        return out

    @staticmethod
    def from_dict(data: Mapping) -> "AuditProvenance":
        workers = data.get("workers")
        trace = data.get("trace")
        stream = data.get("stream")
        return AuditProvenance(
            backend=data["backend"],
            spec_hash=data["spec_hash"],
            model_fingerprint=data.get("model_fingerprint"),
            n_scenes=int(data["n_scenes"]),
            api_version=int(data["api_version"]),
            timings=dict(data.get("timings", {})),
            backend_options=dict(data.get("backend_options", {})),
            workers=[dict(w) for w in workers] if workers is not None else None,
            trace=dict(trace) if trace is not None else None,
            stream=dict(stream) if stream is not None else None,
        )


@dataclass(frozen=True)
class AuditResult:
    """Scored items + the spec that asked for them + provenance."""

    items: list[ScoredItem]
    spec: AuditSpec
    provenance: AuditProvenance

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[ScoredItem]:
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def to_dict(self) -> dict:
        return {
            "items": [item.to_dict(self.spec.kind) for item in self.items],
            "spec": self.spec.to_dict(),
            "provenance": self.provenance.to_dict(),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "AuditResult":
        return AuditResult(
            items=[ScoredItem.from_dict(d) for d in data["items"]],
            spec=AuditSpec.from_dict(data["spec"]),
            provenance=AuditProvenance.from_dict(data["provenance"]),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_json(text: str) -> "AuditResult":
        return AuditResult.from_dict(json.loads(text))

    def dump_trace(self, path) -> int:
        """Write the run's stitched trace as JSONL (one span per line).

        Returns the number of spans written. Raises ``ValueError`` when
        the result has no trace — traces are opt-in
        (``Audit.run(trace=True)`` or ``cli audit --trace PATH``).
        """
        trace = self.provenance.trace
        if trace is None:
            raise ValueError(
                "this result carries no trace; run the audit with "
                "trace=True (or `cli audit --trace PATH`)"
            )
        spans = trace.get("spans", [])
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)
