"""Serving-layer performance harness: delta recompiles, remote audits
and standing audits.

Three measurements, all persisted into ``BENCH_scaling.json`` by
``benchmarks/run_perf_harness.py`` so the perf trajectory stays
tracked:

- :func:`delta_vs_full` — edit one track of an ``n``-track scene and
  compare a :class:`~repro.serving.session.SceneSession` delta
  recompile (one-track segment compile + array splice) against the
  from-scratch :func:`~repro.core.compile.compile_scene`. The ISSUE-2
  acceptance floor (≥5× at ≥25 tracks) is asserted by
  ``benchmarks/bench_delta_recompile.py`` on top of this report.
- :func:`remote_report` — audit a batch of scenes through the
  ``remote`` backend against 1..N real TCP protocol workers
  (:class:`repro.serving.GatewayWorker`), recording distributed throughput
  vs the inline reference and checking the rankings are
  **byte-identical**.
- :func:`standing_report` — stream an edit sequence into a session
  with a :class:`~repro.serving.standing.StandingAudit` subscribed and
  compare the amortized per-edit top-k maintenance cost against the
  spliced full rescore (``session.rank``) on the identical state,
  byte-identity checked per edit. The ISSUE-6 floor (≥5× at ≥100
  tracks) is asserted by ``benchmarks/bench_standing_audit.py``.

Timings use best-of-``repeats`` like :mod:`repro.eval.perf`; model
fitting and grid warmup are excluded (one-time offline preparation).
"""

from __future__ import annotations

import struct
import time
from typing import Sequence

from repro.core import MissingTrackFinder
from repro.core.compile import compile_scene

__all__ = [
    "available_cpus",
    "delta_vs_full",
    "remote_report",
    "standing_report",
    "render_serving_report",
]


def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where the OS has
    the concept; macOS/Windows fall back to the machine count)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _warm_finder():
    from repro.datasets import SYNTHETIC_INTERNAL
    from repro.eval import get_dataset

    dataset = get_dataset(SYNTHETIC_INTERNAL)
    finder = MissingTrackFinder().fit(dataset.train_scenes)
    finder.fixy.warmup_fast_eval()
    return finder.fixy


def _build_scene(n_objects: int, seed: int):
    from repro.eval.perf import _build_scene as build

    return build(n_objects, seed)


def _ranking_signature(ranked) -> list[tuple]:
    """Bit-exact fingerprint of a ranking (scores as raw float64 bytes)."""
    return [
        (s.scene_id, s.track_id, s.n_factors, struct.pack("<d", s.score))
        for s in ranked
    ]


# ----------------------------------------------------------------------
def delta_vs_full(
    n_tracks: int = 25,
    repeats: int = 5,
    fixy=None,
) -> dict:
    """Time editing 1 of ``n_tracks`` tracks: session delta vs full compile.

    Each repeat replaces one observation of the first track (a fresh
    jittered box, so every repeat really recompiles) and then forces
    the spliced compiled view; the full-compile timing recompiles the
    identical post-edit scene from scratch. Returns a JSON-ready dict
    with best-of-``repeats`` millisecond timings and the speedup.
    """
    from repro.core.model import Observation
    from repro.serving import ReplaceObservation

    fixy = fixy or _warm_finder()
    scene = _build_scene(n_tracks, seed=n_tracks)
    session = fixy.session(scene)
    session.compiled  # initial splice out of the timed region

    target = scene.tracks[0]
    best_delta = float("inf")
    best_full = float("inf")
    for i in range(repeats):
        old = target.observations[0]
        replacement = Observation(
            frame=old.frame,
            box=type(old.box)(
                x=old.box.x + 0.01 * (i + 1),
                y=old.box.y,
                z=old.box.z,
                length=old.box.length,
                width=old.box.width,
                height=old.box.height,
                yaw=old.box.yaw,
            ),
            object_class=old.object_class,
            source=old.source,
            confidence=old.confidence,
        )
        edit = ReplaceObservation(target.track_id, old.obs_id, replacement)

        t0 = time.perf_counter()
        session.apply(edit)
        session.compiled
        t1 = time.perf_counter()
        best_delta = min(best_delta, t1 - t0)

        t0 = time.perf_counter()
        compile_scene(
            scene,
            fixy.features,
            learned=fixy.learned,
            aofs=fixy.aofs,
            vectorized=True,
        )
        t1 = time.perf_counter()
        best_full = min(best_full, t1 - t0)

    session.verify()  # spliced state must still equal the reference
    return {
        "n_tracks": len(scene.tracks),
        "n_observations": len(scene.observations),
        "n_factors": session.compiled.columns.n_factors,
        "repeats": repeats,
        "full_ms": round(1e3 * best_full, 3),
        "delta_ms": round(1e3 * best_delta, 3),
        "speedup": round(best_full / best_delta, 2) if best_delta > 0 else None,
    }


# ----------------------------------------------------------------------
def _wire_stats(result) -> dict:
    """Aggregate per-worker wire counters out of an AuditResult."""
    reports = result.provenance.workers or []
    return {
        "bytes_sent": sum(r.get("bytes_sent", 0) for r in reports),
        "encode_ms": round(
            1e3 * sum(r.get("encode_s", 0.0) for r in reports), 3
        ),
        "scene_cache_hits": sum(
            r.get("scene_cache_hits", 0) for r in reports
        ),
        "scene_cache_misses": sum(
            r.get("scene_cache_misses", 0) for r in reports
        ),
        "wires": sorted({r.get("wire", "?") for r in reports}),
    }


def remote_report(
    n_scenes: int = 6,
    n_objects: int = 20,
    worker_counts: Sequence[int] = (1, 2),
    repeats: int = 3,
    fixy=None,
) -> dict:
    """Inline vs 1..N-TCP-worker audit throughput (+ identity check).

    Spawns ``max(worker_counts)`` in-process TCP workers sharing one
    warmed engine, runs the same :class:`repro.api.AuditSpec` through
    the ``inline`` backend and through ``remote`` pools of increasing
    width, and records best-of-``repeats`` wall-clock, scenes/s, a
    byte-identity verdict, and the wire economics per width — bytes on
    the wire (cold vs warm), coordinator encode milliseconds, and
    worker scene-cache hits/misses, which is how the trajectory shows
    the warm path shipping ids instead of bodies.
    """
    from repro.api import Audit, AuditSpec
    from repro.serving import GatewayWorker

    fixy = fixy or _warm_finder()
    scenes = [
        _build_scene(n_objects, seed=2000 + i) for i in range(n_scenes)
    ]
    spec = AuditSpec(kind="tracks")
    workers = [GatewayWorker(fixy) for _ in range(max(worker_counts))]

    def best_of(fn) -> tuple[float, list]:
        best, out = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            ranked = fn()
            elapsed = time.perf_counter() - t0
            best = min(best, elapsed)
            out = ranked
        return best, out

    audit = Audit(spec, fixy=fixy)
    try:
        inline_s, inline_result = best_of(
            lambda: audit.run(scenes=scenes, backend="inline")
        )
        reference = _ranking_signature(inline_result.items)

        cases = []
        identical = True
        for n_workers in worker_counts:
            addresses = [w.address for w in workers[:n_workers]]
            # First call registers the pool (hello round-trips) and
            # ships scene bodies; the warm runs ride the worker-side
            # scene caches (ids only).
            t0 = time.perf_counter()
            cold = audit.run(
                scenes=scenes, backend="remote", workers=addresses
            )
            cold_s = time.perf_counter() - t0
            warm_s, warm = best_of(
                lambda: audit.run(
                    scenes=scenes, backend="remote", workers=addresses
                )
            )
            match = (
                _ranking_signature(cold.items) == reference
                and _ranking_signature(warm.items) == reference
            )
            identical &= match
            cold_stats = _wire_stats(cold)
            warm_stats = _wire_stats(warm)
            cases.append(
                {
                    "n_workers": n_workers,
                    "cold_ms": round(1e3 * cold_s, 3),
                    "warm_ms": round(1e3 * warm_s, 3),
                    "scenes_per_s": (
                        round(n_scenes / warm_s, 2) if warm_s > 0 else None
                    ),
                    "byte_identical": match,
                    "wire": warm_stats["wires"],
                    "cold_bytes_sent": cold_stats["bytes_sent"],
                    "warm_bytes_sent": warm_stats["bytes_sent"],
                    "encode_ms": warm_stats["encode_ms"],
                    "scene_cache_hits": warm_stats["scene_cache_hits"],
                    "scene_cache_misses": warm_stats["scene_cache_misses"],
                    "partitions": [
                        {"worker": w["worker"], "n_scenes": w["n_scenes"]}
                        for w in (warm.provenance.workers or [])
                    ],
                }
            )
    finally:
        audit.close()
        for worker in workers:
            worker.stop()
    return {
        "n_scenes": n_scenes,
        "n_objects": n_objects,
        "repeats": repeats,
        # Worker scaling is bounded by the machine: on a single-CPU
        # box N workers time-share one core, so warm throughput tops
        # out at parity with 1 worker no matter the wire.
        "n_cpus": available_cpus(),
        "inline_ms": round(1e3 * inline_s, 3),
        "inline_scenes_per_s": (
            round(n_scenes / inline_s, 2) if inline_s > 0 else None
        ),
        "n_ranked": len(inline_result.items),
        "byte_identical": identical,
        "worker_cases": cases,
    }


# ----------------------------------------------------------------------
def standing_report(
    n_tracks: int = 100,
    n_edits: int = 40,
    top_k: int = 10,
    fixy=None,
) -> dict:
    """Incremental standing-audit top-k maintenance vs full rescore.

    Opens one :class:`~repro.serving.session.SceneSession` over an
    ``n_tracks`` scene, subscribes a top-``top_k`` standing audit, then
    streams ``n_edits`` single-observation edits (jittered boxes,
    cycling through the tracks). Per edit it records:

    - the apply cost (delta recompile **plus** the standing audit's
      incremental maintenance, which rescores only the edited track),
    - the maintenance share alone (from
      :class:`~repro.serving.standing.StandingStats`), and
    - the full-rescore reference on the identical post-edit state
      (``session.rank`` — splice, scorer rebuild, score + sort every
      track), checked **byte-identical** against the standing top-k.

    The ISSUE-6 acceptance floor (amortized per-edit maintenance ≥5×
    faster than full rescore at ≥100 tracks, byte-identical results)
    is asserted by ``benchmarks/bench_standing_audit.py`` on top of
    this report. Timings are totals over all edits (amortized ms/edit),
    not best-of: incremental maintenance is a steady-state claim, so
    the whole edit stream is the measurement.
    """
    from repro.api import AuditSpec
    from repro.core.model import Observation
    from repro.serving import ReplaceObservation

    fixy = fixy or _warm_finder()
    scene = _build_scene(n_tracks, seed=n_tracks)
    session = fixy.session(scene)
    session.compiled  # initial splice out of the timed region

    audit = session.subscribe(AuditSpec(kind="tracks", top_k=top_k))
    audit.results()  # prime the cache; stats below measure edits only
    maintain_base_s = audit.stats.maintain_s
    rescored_base = audit.stats.tracks_rescored

    total_apply = 0.0
    total_query = 0.0
    total_full = 0.0
    identical = True
    for i in range(n_edits):
        target = scene.tracks[i % len(scene.tracks)]
        old = target.observations[0]
        replacement = Observation(
            frame=old.frame,
            box=type(old.box)(
                x=old.box.x + 0.01 * (i + 1),
                y=old.box.y,
                z=old.box.z,
                length=old.box.length,
                width=old.box.width,
                height=old.box.height,
                yaw=old.box.yaw,
            ),
            object_class=old.object_class,
            source=old.source,
            confidence=old.confidence,
        )
        edit = ReplaceObservation(target.track_id, old.obs_id, replacement)

        t0 = time.perf_counter()
        session.apply(edit)
        total_apply += time.perf_counter() - t0

        t0 = time.perf_counter()
        incremental = audit.results()
        total_query += time.perf_counter() - t0

        t0 = time.perf_counter()
        full = session.rank("tracks", None, top_k=top_k)
        total_full += time.perf_counter() - t0

        identical &= (
            _ranking_signature(incremental) == _ranking_signature(full)
        )

    audit.verify()  # standing top-k must still equal the reference
    session.verify()
    maintain_s = audit.stats.maintain_s - maintain_base_s
    rescored = audit.stats.tracks_rescored - rescored_base
    return {
        "n_tracks": len(scene.tracks),
        "n_observations": len(scene.observations),
        "n_edits": n_edits,
        "top_k": top_k,
        "tracks_rescored_per_edit": round(rescored / n_edits, 2),
        "apply_ms_per_edit": round(1e3 * total_apply / n_edits, 3),
        "query_ms_per_edit": round(1e3 * total_query / n_edits, 4),
        "maintain_ms_per_edit": round(1e3 * maintain_s / n_edits, 4),
        "full_rescore_ms_per_edit": round(1e3 * total_full / n_edits, 3),
        "speedup": (
            round(total_full / maintain_s, 2) if maintain_s > 0 else None
        ),
        "end_to_end_speedup": (
            round(
                (total_apply + total_full) / (total_apply + total_query), 2
            )
            if total_apply + total_query > 0
            else None
        ),
        "byte_identical": identical,
        "heap_refills": audit.stats.heap_refills,
        "heap_demotions": audit.stats.heap_demotions,
    }


# ----------------------------------------------------------------------
def render_serving_report(
    delta: dict | None,
    remote: dict | None = None,
    standing: dict | None = None,
) -> str:
    """Human-readable rendering of the serving reports."""
    lines = ["Serving layer: delta recompilation, remote and standing audits"]
    if delta is not None:
        lines.append(
            f"  delta recompile (1 of {delta['n_tracks']} tracks edited): "
            f"full {delta['full_ms']:.1f} ms vs delta {delta['delta_ms']:.1f} ms "
            f"=> {delta['speedup']:.1f}x"
        )
    if remote is not None:
        lines.append(
            f"  remote audit of {remote['n_scenes']} scenes "
            f"({remote['n_objects']} objects each): inline "
            f"{remote['inline_ms']:.1f} ms "
            f"({remote['inline_scenes_per_s']:.1f} scenes/s), "
            f"byte-identical={remote['byte_identical']}"
        )
        for case in remote["worker_cases"]:
            line = (
                f"    {case['n_workers']} TCP worker(s): cold "
                f"{case['cold_ms']:.1f} ms, warm {case['warm_ms']:.1f} ms "
                f"({case['scenes_per_s']:.1f} scenes/s)"
            )
            if "warm_bytes_sent" in case:
                line += (
                    f", wire {'+'.join(case['wire'])}: "
                    f"{case['cold_bytes_sent']}B cold -> "
                    f"{case['warm_bytes_sent']}B warm, "
                    f"cache {case['scene_cache_hits']}h/"
                    f"{case['scene_cache_misses']}m"
                )
            lines.append(line)
    if standing is not None:
        lines.append(
            f"  standing audit ({standing['n_edits']} edits over "
            f"{standing['n_tracks']} tracks, top-{standing['top_k']}): "
            f"maintain {standing['maintain_ms_per_edit']:.2f} ms/edit vs "
            f"full rescore {standing['full_rescore_ms_per_edit']:.2f} "
            f"ms/edit => {standing['speedup']:.1f}x "
            f"(end-to-end {standing['end_to_end_speedup']:.1f}x, "
            f"{standing['tracks_rescored_per_edit']:.1f} tracks "
            f"rescored/edit), "
            f"byte-identical={standing['byte_identical']}"
        )
    return "\n".join(lines)
