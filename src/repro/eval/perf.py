"""A/B performance harness: scalar reference vs columnar fast path.

Benchmarks the online phase (compile one scene's factor representation,
then rank its tracks) at increasing scene densities, once through the
scalar reference pipeline (``vectorized=False``) and once through the
production fast path (columnar compile + array scoring + warmed density
grids). The offline phase — fitting and density-grid construction — is
deliberately excluded from the per-scene timings: it is one-time model
preparation, amortized over every scene served afterwards.

Used by ``benchmarks/run_perf_harness.py`` (which persists the results
to ``BENCH_scaling.json`` so PRs can track the perf trajectory) and by
``benchmarks/bench_vectorized_ab.py`` (which asserts the speedup
floor).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.core import MissingTrackFinder, Scorer
from repro.core.compile import compile_scene

__all__ = ["ab_compile_rank", "render_report"]

DEFAULT_DENSITIES = (10, 25, 50, 100)


def _build_scene(n_objects: int, seed: int):
    from repro.datagen import SceneConfig, SceneGenerator
    from repro.datasets import SYNTHETIC_INTERNAL, build_labeled_scene

    config = SceneConfig(n_objects_range=(n_objects, n_objects))
    world = SceneGenerator(config).generate(f"ab-{n_objects}", seed=seed)
    labeled = build_labeled_scene(
        world, SYNTHETIC_INTERNAL.vendor, SYNTHETIC_INTERNAL.detector, seed=1
    )
    return labeled.scene


def _time_compile_rank(fixy, scene, vectorized: bool) -> tuple[float, float, int]:
    """One uncached compile+rank pass; returns (compile_s, rank_s, n_ranked)."""
    t0 = time.perf_counter()
    compiled = compile_scene(
        scene,
        fixy.features,
        learned=fixy.learned,
        aofs=fixy.aofs,
        vectorized=vectorized,
    )
    t1 = time.perf_counter()
    ranked = Scorer(compiled).rank(
        "tracks", lambda track: not track.has_human and track.has_model
    )
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, len(ranked)


def ab_compile_rank(
    densities: Sequence[int] = DEFAULT_DENSITIES,
    repeats: int = 3,
) -> dict:
    """Compare scalar vs fast compile+rank across scene densities.

    Returns a JSON-ready report::

        {"workload": ..., "cases": [
            {"n_objects", "n_tracks", "n_observations",
             "scalar_ms", "fast_ms", "speedup", ...}, ...]}

    Each timing is the best of ``repeats`` runs (cache cleared — every
    run compiles from scratch).
    """
    from repro.datasets import SYNTHETIC_INTERNAL
    from repro.eval import get_dataset

    dataset = get_dataset(SYNTHETIC_INTERNAL)
    finder = MissingTrackFinder().fit(dataset.train_scenes)
    fixy = finder.fixy
    # Offline prep: build density grids now so per-scene timings measure
    # the steady-state serving path.
    fixy.warmup_fast_eval()

    cases = []
    for n_objects in densities:
        scene = _build_scene(n_objects, seed=n_objects)
        best = {"scalar": (float("inf"), float("inf")), "fast": (float("inf"), float("inf"))}
        ranked_counts = {}
        for label, vectorized in (("scalar", False), ("fast", True)):
            for _ in range(repeats):
                compile_s, rank_s, n_ranked = _time_compile_rank(
                    fixy, scene, vectorized
                )
                if compile_s + rank_s < sum(best[label]):
                    best[label] = (compile_s, rank_s)
                ranked_counts[label] = n_ranked
        scalar_ms = 1e3 * sum(best["scalar"])
        fast_ms = 1e3 * sum(best["fast"])
        cases.append(
            {
                "n_objects": int(n_objects),
                "n_tracks": len(scene.tracks),
                "n_observations": len(scene.observations),
                "n_ranked": ranked_counts["fast"],
                "scalar_compile_ms": round(1e3 * best["scalar"][0], 3),
                "scalar_rank_ms": round(1e3 * best["scalar"][1], 3),
                "fast_compile_ms": round(1e3 * best["fast"][0], 3),
                "fast_rank_ms": round(1e3 * best["fast"][1], 3),
                "scalar_ms": round(scalar_ms, 3),
                "fast_ms": round(fast_ms, 3),
                "speedup": round(scalar_ms / fast_ms, 2) if fast_ms > 0 else None,
            }
        )
    return {
        "workload": "MissingTrackFinder compile+rank, synthetic internal profile",
        "repeats": repeats,
        "cases": cases,
    }


def render_report(report: dict) -> str:
    """Human-readable table for a :func:`ab_compile_rank` report."""
    lines = [
        "A/B compile+rank: scalar reference vs columnar fast path",
        f"  workload: {report['workload']}",
        "  objects  tracks  obs    scalar(ms)  fast(ms)  speedup",
    ]
    for case in report["cases"]:
        speedup = case["speedup"]
        speedup_text = f"{speedup:>7.1f}x" if speedup is not None else "    n/a"
        lines.append(
            f"  {case['n_objects']:>7d} {case['n_tracks']:>7d} "
            f"{case['n_observations']:>6d} {case['scalar_ms']:>10.1f} "
            f"{case['fast_ms']:>9.1f} {speedup_text}"
        )
    return "\n".join(lines)
