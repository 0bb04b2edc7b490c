"""Run every experiment and render a full report.

``python -m repro.eval.harness`` reproduces all of §8 in one shot and
prints paper-comparable output; the per-experiment benchmarks under
``benchmarks/`` wrap the same functions individually.

Beyond the paper's tables, the report carries an ``audit_api`` section
(:func:`audit_backend_equivalence`): one declarative
:class:`repro.api.AuditSpec` executed on every registered backend, with
per-backend wall-clock and a ranking-identity check against the inline
reference — the living proof that backend choice is a deployment
decision, not a results decision.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.eval.experiments import (
    figure_case_studies,
    missing_observation_experiment,
    model_errors_experiment,
    recall_experiment,
    runtime_experiment,
    scene_coverage,
    table3,
)

__all__ = [
    "AuditBackendReport",
    "FullReport",
    "audit_backend_equivalence",
    "run_all",
]


@dataclass
class AuditBackendReport:
    """One AuditSpec's timings + ranking identity across backends."""

    spec_hash: str
    model_fingerprint: str | None
    n_scenes: int
    n_items: int
    #: backend name -> (rank seconds, identical-to-inline)
    backends: list[tuple[str, float, bool]] = field(default_factory=list)

    @property
    def all_identical(self) -> bool:
        return all(identical for _, _, identical in self.backends)

    def to_text(self) -> str:
        lines = [
            "audit API: one spec, every backend "
            f"(spec {self.spec_hash[:12]}, model "
            f"{(self.model_fingerprint or 'unfitted')[:12]}, "
            f"{self.n_scenes} scenes, {self.n_items} items)",
        ]
        for name, seconds, identical in self.backends:
            mark = "==" if identical else "!="
            lines.append(
                f"  {name:<10s} {1e3 * seconds:8.1f} ms  ranking {mark} inline"
            )
        verdict = "byte-identical" if self.all_identical else "DIVERGED"
        lines.append(f"  verdict: rankings {verdict} across backends")
        return "\n".join(lines)


def audit_backend_equivalence(
    backends: tuple[str, ...] = ("inline", "session", "remote"),
    top_k: int = 25,
    n_remote_workers: int = 2,
) -> AuditBackendReport:
    """Run one declarative audit on every backend and compare rankings.

    When ``"remote"`` is among the backends, ``n_remote_workers`` real
    TCP workers (:class:`repro.serving.GatewayWorker`, each a gateway
    on an ephemeral port — the same surface ``repro.cli serve
    --listen`` exposes) are spawned in-process and the audit is
    partitioned across them.
    """
    from repro.api import Audit, AuditSpec, FilterSpec
    from repro.datasets import SYNTHETIC_INTERNAL
    from repro.eval.experiments import get_dataset

    dataset = get_dataset(SYNTHETIC_INTERNAL)
    spec = AuditSpec(
        kind="tracks",
        top_k=top_k,
        filters=FilterSpec(has_model=True, has_human=False),
    )
    audit = Audit(spec, train_scenes=dataset.train_scenes)
    scenes = [ls.scene for ls in dataset.val_scenes]

    report = AuditBackendReport(
        spec_hash=spec.spec_hash(),
        model_fingerprint=(
            audit.fixy.learned.fingerprint()
            if audit.fixy.learned is not None
            else None
        ),
        n_scenes=len(scenes),
        n_items=0,
    )
    workers = []
    if "remote" in backends:
        from repro.serving import GatewayWorker

        workers = [
            GatewayWorker(audit.fixy) for _ in range(max(1, n_remote_workers))
        ]
    reference = None
    try:
        for name in backends:
            options = (
                {"workers": [w.address for w in workers]}
                if name == "remote"
                else {}
            )
            t0 = time.perf_counter()
            result = audit.run(scenes=scenes, backend=name, **options)
            seconds = time.perf_counter() - t0
            signature = [
                (s.scene_id, s.track_id, s.score, s.n_factors)
                for s in result.items
            ]
            if reference is None:
                reference = signature
                report.n_items = len(result.items)
            report.backends.append((name, seconds, signature == reference))
    finally:
        audit.close()
        for worker in workers:
            worker.stop()
    return report


@dataclass
class FullReport:
    """Results of every experiment, with a combined text rendering."""

    sections: list[tuple[str, object]] = field(default_factory=list)

    def to_text(self) -> str:
        blocks = []
        for _, result in self.sections:
            if isinstance(result, list):
                blocks.extend(r.to_text() for r in result)
            else:
                blocks.append(result.to_text())
        return "\n\n".join(blocks)

    def get(self, name: str):
        for key, result in self.sections:
            if key == name:
                return result
        raise KeyError(f"no section {name!r}")


def run_all(
    n_train_scenes: int | None = None, n_val_scenes: int | None = None
) -> FullReport:
    """Run every experiment in DESIGN.md §4's index."""
    report = FullReport()
    report.sections.append(
        ("table3", table3(n_train_scenes=n_train_scenes, n_val_scenes=n_val_scenes))
    )
    report.sections.append(("recall", recall_experiment()))
    report.sections.append(("scene_coverage", scene_coverage(n_val_scenes=n_val_scenes)))
    report.sections.append(("missing_observation", missing_observation_experiment()))
    report.sections.append(("model_errors", model_errors_experiment()))
    report.sections.append(("runtime", runtime_experiment()))
    report.sections.append(("audit_api", audit_backend_equivalence()))
    report.sections.append(("figures", figure_case_studies()))
    return report


if __name__ == "__main__":
    print(run_all().to_text())
